"""Plain long division and products on coefficient lists, as a reference for
the library's cyclotomic division and denominators: it shares no code with
``stackzeta.laurent`` or ``stackzeta.motivic``.

A polynomial is a list of ints, ascending from degree 0.
"""

from functools import lru_cache
from itertools import zip_longest


def long_divide(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of num by the monic den, the remainder padded to
    len(den) - 1 coefficients."""
    top = len(den) - 1
    assert den[top] == 1, "the divisor must be monic"
    rem = list(num) + [0] * max(top - len(num), 0)
    quot = [0] * max(len(num) - top, 0)
    for i in range(len(rem) - 1, top - 1, -1):
        q = rem[i]
        if q:
            quot[i - top] = q
            for k, c in enumerate(den):
                rem[i - top + k] -= q * c
    return quot, rem[:top]


def denominator_product(l_exp: int, factors) -> list[int]:
    """L^l_exp * prod(L^n - 1) over n in factors: each factor subtracts the
    product so far from its shift by n."""
    out = [0] * l_exp + [1]
    for n in factors:
        out = [hi - lo for hi, lo in zip_longest([0] * n + out, out, fillvalue=0)]
    return out


@lru_cache(maxsize=None)
def phi(d: int) -> tuple[int, ...]:
    """The d-th cyclotomic polynomial: L^d - 1 divided by phi(k) for every
    proper divisor k of d."""
    out = [-1] + [0] * (d - 1) + [1]
    for k in range(1, d):
        if d % k == 0:
            out, rem = long_divide(out, list(phi(k)))
            assert not any(rem)
    return tuple(out)


def dense(terms) -> tuple[int, list[int]]:
    """(low degree, coefficient list from it) of (degree, coefficient) pairs."""
    terms = list(terms)
    lo = min(deg for deg, _ in terms)
    out = [0] * (max(deg for deg, _ in terms) - lo + 1)
    for deg, c in terms:
        out[deg - lo] += c
    return lo, out
