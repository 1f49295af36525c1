"""Seeded request streams for the stackzeta benchmark, and their checkers.

A request is plain data (tuples of ints and strings) made from the seed
alone, so the library receives only generated inputs and the same seed gives
the same list.  Each workload has three steps per request:

* ``prepare(sz, req)`` builds the library inputs (untimed, untraced);
* ``run(sz, prepared)`` is the timed call into the library;
* ``check(req, output)`` verifies the output outside the timed region.

Expected values are computed here with ``fractions.Fraction`` at a few
rational points, never by the engine under test.  This module does not
import stackzeta: the package is passed in as ``sz``, so the worker can time
the import, and every library name is looked up on the package at call time,
so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import prod
from typing import Callable, NamedTuple

#: Rational points at which classes are evaluated (q = 1/L, no poles there).
POINTS = (Fraction(2), Fraction(3), Fraction(5, 2))
#: Points (u, v) for E-polynomial series.
UV_POINTS = ((Fraction(2), Fraction(3)), (Fraction(5, 2), Fraction(1, 3)))


# -- Fraction power series --------------------------------------------------------


def s_mul(a, b):
    n = min(len(a), len(b))
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n)]


def s_inv(a):
    if a[0] != 1:
        raise ValueError("series inverse needs constant term 1")
    out = [Fraction(1)]
    for k in range(1, len(a)):
        out.append(-sum(a[j] * out[k - j] for j in range(1, k + 1)))
    return out


def s_pow(a, c: int):
    if c < 0:
        a, c = s_inv(a), -c
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(c):
        out = s_mul(out, a)
    return out


def s_opposite(a):
    """(A(-T))^{-1}, the opposite pre-lambda series."""
    return s_inv([c if k % 2 == 0 else -c for k, c in enumerate(a)])


def geometric_product(terms, order: int):
    """prod over (x, c) of (1 - x T)^{-c}: zeta of sum c * [x] for monomials x.

    The T^k coefficient of (1 - x T)^{-c} is c (c+1) ... (c+k-1) / k! * x^k,
    for every integer c.
    """
    out = [Fraction(1)] + [Fraction(0)] * order
    for x, c in terms:
        factor, coeff = [Fraction(1)], Fraction(1)
        for k in range(1, order + 1):
            coeff = coeff * (c + k - 1) * x / k
            factor.append(coeff)
        out = s_mul(out, factor)
    return out


def adams_series(psi, order: int):
    """zeta from Adams operations: k sigma_k = sum_{r<=k} psi(r) sigma_{k-r}.

    ``psi(r)`` is the value of psi^r(a), i.e. a evaluated at L^r (or at
    (u^r, v^r) for an E-polynomial).  This is the Newton identity for the
    pre-lambda structure with psi^r(L) = L^r, evaluated at a point.
    """
    values = [psi(r) for r in range(1, order + 1)]
    out = [Fraction(1)]
    for k in range(1, order + 1):
        out.append(sum(values[r - 1] * out[k - r] for r in range(1, k + 1)) / k)
    return out


# -- evaluating library output --------------------------------------------------------


def class_json_value(data: dict, t: Fraction) -> Fraction:
    """Value at L = t of a class in the library's JSON form."""
    lo = data["num"]["min_deg"]
    num = sum(c * t ** (lo + i) for i, c in enumerate(data["num"]["coeffs"]))
    den = t ** data["den"]["l_exp"] * prod(t ** n - 1 for n in data["den"]["factors"])
    return num / den


def poly_json_value(data: dict, point) -> Fraction:
    return sum(c * prod(x ** e for x, e in zip(point, exps)) for exps, c in data["terms"])


def hd_json_value(data: dict, t: Fraction) -> Fraction:
    """Value of a Hodge-Deligne realization at (u, v) = (t, 1), so uv = t."""
    num = poly_json_value(data["num"], (t, Fraction(1)))
    den = t ** data["den"]["l_exp"] * prod(t ** n - 1 for n in data["den"]["factors"])
    return num / den


def _compare(label: str, got, want) -> str | None:
    if len(got) != len(want):
        return f"{label}: {len(got)} coefficients, expected {len(want)}"
    for k, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"{label}: T^{k} is {g}, expected {w}"
    return None


# -- class expression trees --------------------------------------------------------
#
# ("L",) ("q",) ("int", c) ("GL", n) ("BGL", n) ("Gr", k, n)
# (op, a, b) for op in + - *    ("^", a, e)


def gl_value(n: int, t: Fraction) -> Fraction:
    return prod((t ** n - t ** j for j in range(n)), start=Fraction(1))


def gr_value(k: int, n: int, t: Fraction) -> Fraction:
    return prod(((t ** (n - k + i) - 1) / (t ** i - 1) for i in range(1, k + 1)), start=Fraction(1))


def tree_value(node, t: Fraction) -> Fraction:
    """Value of a class tree at L = t (or of a u, v tree at (u, v) = t)."""
    op = node[0]
    if op == "L":
        return t
    if op == "q":
        return 1 / t
    if op == "u":
        return t[0]
    if op == "v":
        return t[1]
    if op == "int":
        return Fraction(node[1])
    if op == "GL":
        return gl_value(node[1], t)
    if op == "BGL":
        return 1 / gl_value(node[1], t)
    if op == "Gr":
        return gr_value(node[1], node[2], t)
    if op == "^":
        return tree_value(node[1], t) ** node[2]
    a, b = tree_value(node[1], t), tree_value(node[2], t)
    return a + b if op == "+" else a - b if op == "-" else a * b


def render(node) -> str:
    """Expression text in the CLI grammar, parenthesized so it parses back."""
    op = node[0]
    if op in ("L", "q", "u", "v"):
        return op
    if op == "int":
        return str(node[1]) if node[1] >= 0 else f"(-{-node[1]})"
    if op in ("GL", "BGL"):
        return f"{op}({node[1]})"
    if op == "Gr":
        return f"Gr({node[1]}, {node[2]})"
    if op == "^":
        base = render(node[1])
        return f"({base})^{node[2]}" if node[1][0] == "^" else f"{base}^{node[2]}"
    return f"({render(node[1])} {op} {render(node[2])})"


def _l_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + sign * c
        if not out[d]:
            del out[d]
    return out


def _l_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return {d: c for d, c in out.items() if c}


def laurent_terms(node) -> dict:
    """Expand a BGL-free class tree into {degree of L: coefficient}."""
    op = node[0]
    if op == "L":
        return {1: 1}
    if op == "q":
        return {-1: 1}
    if op == "int":
        return {0: node[1]} if node[1] else {}
    if op == "GL":
        return _gl_terms(node[1])
    if op == "Gr":
        return _gr_terms(node[1], node[2])
    if op == "^":
        out = {0: 1}
        base = laurent_terms(node[1])
        for _ in range(node[2]):
            out = _l_mul(out, base)
        return out
    if op == "BGL":
        raise ValueError("BGL(n) is not a Laurent polynomial")
    a, b = laurent_terms(node[1]), laurent_terms(node[2])
    return _l_add(a, b) if op == "+" else _l_add(a, b, -1) if op == "-" else _l_mul(a, b)


def _gl_terms(n: int) -> dict:
    out = {0: 1}
    for j in range(n):
        out = _l_mul(out, {n: 1, j: -1})
    return out


def _gr_terms(k: int, n: int) -> dict:
    # q-Pascal: [n choose k] = [n-1 choose k-1] + L^k [n-1 choose k]
    if k == 0 or k == n:
        return {0: 1}
    left = _gr_terms(k - 1, n - 1)
    right = {d + k: c for d, c in _gr_terms(k, n - 1).items()}
    return _l_add(left, right)


# -- zeta-deep ------------------------------------------------------------------------
#
# Request: (kind, spec, order).  kind is zeta, sym or opposite; spec is
# ("twisted", ((c, s, m, n), ...)) for sum c * L^s * q^m / (1 - q^n), or
# ("bgl", r).  Every stream holds each (kind, shape, order) slot once, so the
# cold block-sum work for twists 1, 2, 3 at order 7 is in every stream.  The
# coefficients c come from one fixed design, since their size sets the size
# of every sym power; the seed draws the shifts s and m of every term, which
# move degrees but not sizes, and the order of the stream.

TWIST_SHAPES = ((1,), (2,), (3,), (1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3), (1, 2, 3))
ZETA_KINDS = ("zeta", "sym", "opposite")
ZETA_ORDERS = (5, 6, 7)


def _twisted_terms(design: random.Random, rng: random.Random, shape) -> tuple:
    terms, used = [], set()
    for n in shape:
        c = design.choice((1, 2, 3, -1, -2))
        while True:
            s, m = rng.randint(0, 2), rng.randint(0, 3)
            if (n, s - m) not in used:
                break
        used.add((n, s - m))
        terms.append((c, s, m, n))
    return tuple(terms)


def zeta_deep_stream(seed: int) -> list:
    design = random.Random("zeta-deep:design")
    rng = random.Random(f"zeta-deep:{seed}")
    specs = [("twisted", shape) for shape in TWIST_SHAPES] + [("bgl", r) for r in (1, 2, 3)]
    reqs = []
    for kind in ZETA_KINDS:
        for tag, shape in specs:
            for order in ZETA_ORDERS:
                spec = ("bgl", shape) if tag == "bgl" else ("twisted", _twisted_terms(design, rng, shape))
                reqs.append((kind, spec, order))
    rng.shuffle(reqs)
    # Open with zeta of one single-twist class per twist at order 7, so the
    # seconds of cold block-sum work always land on the same three requests
    # and every other request, and so p50 and p90, measures warm work.
    def opener(req, n):
        kind, (tag, terms), order = req
        return kind == "zeta" and tag == "twisted" and order == 7 and len(terms) == 1 and terms[0][3] == n

    openers = [next(r for r in reqs if opener(r, n)) for n in (1, 2, 3)]
    return openers + [r for r in reqs if r not in openers]


def build_class(sz, spec):
    if spec[0] == "bgl":
        return sz.bgl_class(spec[1])
    total = sz.MotivicClass.zero()
    for c, s, m, n in spec[1]:
        # c L^s q^m / (1 - q^n) = c L^(n - m + s) / (L^n - 1)
        total = total + sz.MotivicClass(sz.IntLaurent.term(n - m + s, c), sz.DenomForm(0, (n,)))
    return total


def zeta_deep_prepare(sz, req):
    kind, spec, order = req
    return kind, build_class(sz, spec), order


def zeta_deep_run(sz, prepared):
    kind, a, order = prepared
    if kind == "zeta":
        return sz.zeta_series(a, order)
    if kind == "sym":
        return sz.sym_power(a, order)
    return sz.opposite_zeta(a, order)


def twisted_zeta_values(m: int, n: int, order: int, t: Fraction) -> list:
    """sigma^k(q^m / (1 - q^n)) = q^{mk} / prod_{j<=k} (1 - q^{jn}) at L = t."""
    q = 1 / t
    out, den = [], Fraction(1)
    for k in range(order + 1):
        if k:
            den *= 1 - q ** (k * n)
        out.append(q ** (m * k) / den)
    return out


def zeta_deep_expected(req) -> dict:
    """Expected zeta (or opposite) coefficients at each point of POINTS."""
    kind, spec, order = req
    out = {}
    for t in POINTS:
        if spec[0] == "bgl" and spec[1] == 1:
            # [BGL(1)]: sigma^k = L^{k^2 - k} / [GL(k)]
            want = [t ** (k * k - k) / gl_value(k, t) for k in range(order + 1)]
        elif spec[0] == "bgl":
            r = spec[1]
            want = adams_series(lambda j: 1 / gl_value(r, t ** j), order)
        else:
            # additivity: zeta of a sum is the product of the zetas
            want = [Fraction(1)] + [Fraction(0)] * order
            for c, s, m, n in spec[1]:
                want = s_mul(want, s_pow(twisted_zeta_values(m - s, n, order, t), c))
        out[t] = s_opposite(want) if kind == "opposite" else want
    return out


def zeta_deep_verify(req, output, expected: dict) -> str | None:
    kind, _, order = req
    for t, want in expected.items():
        if kind == "sym":
            got, want = [output.eval_rational(t)], want[order:]
        else:
            got = [c.eval_rational(t) for c in output.coefficients]
        err = _compare(f"{kind} at L={t}", got, want)
        if err:
            return err
    return None


def zeta_deep_check(req, output) -> str | None:
    return zeta_deep_verify(req, output, zeta_deep_expected(req))


# -- power-axioms -----------------------------------------------------------------------
#
# Request: (axiom, ring, order, a, b, m, n, k, swap_uv) with a, b tuples of
# pool indices for the T^1..T^order coefficients and m, n pool indices.  One
# request costs anywhere from 1 ms to 2 s depending on where the pool's
# stacky elements land, and with pool draws made per seed a 126-request
# stream cost 2.6 s to 5.0 s, mostly by the seed.  So the draws come from one
# fixed design, the same for every seed, and the seed changes only what
# leaves the work unchanged: the order of the stream, which of a, b (axiom 3)
# or m, n (axiom 4) comes first, and u <-> v in Hodge-Deligne requests.  Each
# (axiom, ring, order) cell holds the same number of requests: two thirds
# motivic, one third Hodge-Deligne.  Motivic order-5 samples use the
# polynomial part of the pool only, which keeps one pass to a few seconds.

#: Motivic pool as (numerator {deg: coeff}, L-exponent, factors); the last
#: two entries are 1/(L - 1) and L/(L^2 - 1).
MOTIVIC_POOL = (
    ({}, 0, ()),
    ({0: 1}, 0, ()),
    ({0: -1}, 0, ()),
    ({1: 1}, 0, ()),
    ({2: 1}, 0, ()),
    ({1: 1, 0: 1}, 0, ()),
    ({0: 1}, 0, (1,)),
    ({1: 1}, 0, (2,)),
)
#: E-polynomials in u, v as {(a, b): coeff}.
HD_POOL = (
    {},
    {(0, 0): 1},
    {(0, 0): -1},
    {(0, 0): 2},
    {(1, 0): 1},
    {(0, 1): 1},
    {(1, 1): 1},
    {(0, 0): 1, (1, 1): 1},
    {(1, 0): 1, (0, 1): 1},
)
#: (ring, order, pool size drawn from, requests per axiom)
AXIOM_CELLS = (
    ("motivic", 4, len(MOTIVIC_POOL), 7),
    ("motivic", 5, len(MOTIVIC_POOL) - 2, 3),
    ("hd", 4, len(HD_POOL), 3),
    ("hd", 5, len(HD_POOL), 2),
)


def power_axioms_stream(seed: int) -> list:
    design = random.Random("power-axioms:design")
    rng = random.Random(f"power-axioms:{seed}")
    reqs = []
    for axiom in range(1, 8):
        for ring, order, size, count in AXIOM_CELLS:
            for _ in range(count):
                a = tuple(design.randrange(size) for _ in range(order))
                b = tuple(design.randrange(size) for _ in range(order))
                m, n, k = design.randrange(size), design.randrange(size), design.choice((2, 3))
                if axiom == 3 and rng.random() < 0.5:
                    a, b = b, a
                if axiom == 4 and rng.random() < 0.5:
                    m, n = n, m
                swap_uv = ring == "hd" and rng.random() < 0.5
                reqs.append((axiom, ring, order, a, b, m, n, k, swap_uv))
    rng.shuffle(reqs)
    return reqs


def _pool_element(sz, ring: str, idx: int, swap_uv: bool = False):
    if ring == "motivic":
        num, l_exp, factors = MOTIVIC_POOL[idx]
        return sz.MotivicClass(sz.IntLaurent(num), sz.DenomForm(l_exp, factors))
    return sz.MultiPoly(2, {(e[::-1] if swap_uv else e): c for e, c in HD_POOL[idx].items()})


def power_axioms_prepare(sz, req):
    axiom, ring, order, a, b, m, n, k, swap_uv = req
    ring_obj = sz.motivic_ring() if ring == "motivic" else sz.hd_ring()

    def element(idx):
        return _pool_element(sz, ring, idx, swap_uv)

    def series(idxs):
        return sz.TruncatedSeries(ring_obj, [ring_obj.one] + [element(i) for i in idxs])

    return axiom, ring, order, series(a), series(b), element(m), element(n), k


def default_provider(sz, ring: str):
    """A fresh provider, as ``cli power`` and ``verify_axioms`` make one."""
    return sz.motivic_provider() if ring == "motivic" else sz.hd_provider()


def power_axioms_run(sz, prepared, make_provider=default_provider):
    """Both sides of one axiom instance, as in ``power.axiom_suite``."""
    axiom, ring, order, a, b, m, n, k = prepared
    p = make_provider(sz, ring)
    power, zero, one = sz.power, p.ring.zero, p.ring.one
    if axiom == 1:
        return power(a, zero, p), sz.TruncatedSeries.one(p.ring, order)
    if axiom == 2:
        return power(a, one, p), a
    if axiom == 3:
        return power(a * b, m, p), power(a, m, p) * power(b, m, p)
    if axiom == 4:
        return power(a, m + n, p), power(a, m, p) * power(a, n, p)
    if axiom == 5:
        return power(a, m * n, p), power(power(a, n, p), m, p)
    if axiom == 6:
        return sz.binomial_series(m, order, p).truncate(1), sz.TruncatedSeries(p.ring, (one, m))
    return power(a.substitute_tk(k), m, p), power(a, m, p).substitute_tk(k)


def power_axioms_check(req, output) -> str | None:
    lhs, rhs = output
    if lhs == rhs:
        return None
    return f"axiom {req[0]} ({req[1]}, order {req[2]}): lhs {lhs} != rhs {rhs}"


# -- cli-mix ------------------------------------------------------------------------------
#
# Request: (command, payload...) sent in-process as stackzeta.cli.main(argv).
# With expression trees drawn per seed, a 300-request pass cost 1.07 s to
# 1.40 s by the seed alone (fastest of three passes each), as much as the
# host's own noise.  So the shape of every tree (operators, constructors and
# their sizes, exponents, orders) comes from one fixed design, and the seed
# draws only what leaves the work about the same: the order of the stream,
# + or -, small integer leaves, Gr(k, n) or its equal Gr(n - k, n), u <-> v,
# positive coefficients of effective classes, and the point of eval.

CLI_COUNTS = (
    ("eval", 80),
    ("hd", 50),
    ("effective", 50),
    ("hd-zeta", 40),
    ("zeta", 30),
    ("sym", 20),
    ("opposite", 30),
)
AT_POINTS = ("2", "3", "5/2", "7/3")


def _gr(design: random.Random, rng: random.Random, n_lo: int, n_hi: int):
    n = design.randint(n_lo, n_hi)
    k = design.randint(1, n - 1)
    return ("Gr", n - k if rng.random() < 0.5 else k, n)


def _class_atom(design: random.Random, rng: random.Random, bgl: bool):
    roll = design.randrange(6 if bgl else 5)
    if roll == 0:
        return ("L",)
    if roll == 1:
        return ("q",)
    if roll == 2:
        return ("int", rng.randint(1, 5))
    if roll == 3:
        return ("GL", design.randint(1, 4))
    if roll == 4:
        return _gr(design, rng, 2, 6)
    return ("BGL", design.randint(1, 3))


def _op(design: random.Random, rng: random.Random) -> str:
    op = design.choice("+*^")
    return rng.choice("+-") if op == "+" else op


def class_tree(design: random.Random, rng: random.Random, depth: int, bgl: bool = True):
    if depth == 0 or design.random() < 0.25:
        return _class_atom(design, rng, bgl)
    op = _op(design, rng)
    if op == "^":
        return ("^", class_tree(design, rng, depth - 1, bgl), design.randint(2, 3))
    return (op, class_tree(design, rng, depth - 1, bgl), class_tree(design, rng, depth - 1, bgl))


def big_class_tree(design: random.Random, rng: random.Random):
    """A power of a sum of constructors: numerators of hundreds of terms."""
    base = (rng.choice("+-"), ("GL", design.randint(3, 5)), _gr(design, rng, 6, 8))
    base = (rng.choice("+-"), base, ("BGL", design.randint(1, 2)))
    return ("*", ("^", base, design.randint(8, 14)), class_tree(design, rng, 1))


def poly_tree(design: random.Random, rng: random.Random, depth: int, swap: bool):
    if depth == 0 or design.random() < 0.25:
        roll = design.randrange(3)
        if roll == 2:
            return ("int", rng.randint(1, 4))
        return ("u",) if (roll == 0) != swap else ("v",)
    op = _op(design, rng)
    if op == "^":
        return ("^", poly_tree(design, rng, depth - 1, swap), design.randint(2, 3))
    return (op, poly_tree(design, rng, depth - 1, swap), poly_tree(design, rng, depth - 1, swap))


def effective_tree(design: random.Random, rng: random.Random):
    """A nonnegative combination of L^s, Gr(k, n) and GL(n)."""
    out = None
    for _ in range(design.randint(2, 5)):
        roll = design.randrange(3)
        if roll == 0:
            item = ("^", ("L",), design.randint(1, 9))
        elif roll == 1:
            item = _gr(design, rng, 2, 9)
        else:
            item = ("GL", design.randint(1, 5))
        c = rng.randint(1, 4)
        item = item if c == 1 else ("*", ("int", c), item)
        out = item if out is None else ("+", out, item)
    return out


def cli_mix_stream(seed: int) -> list:
    design = random.Random("cli-mix:design")
    rng = random.Random(f"cli-mix:{seed}")
    reqs = []
    for command, count in CLI_COUNTS:
        for i in range(count):
            if command in ("eval", "hd"):
                tree = big_class_tree(design, rng) if i % 10 == 0 else class_tree(design, rng, 3)
                reqs.append((command, tree, rng.choice(AT_POINTS)) if command == "eval" else (command, tree))
            elif command == "effective":
                reqs.append((command, effective_tree(design, rng)))
            elif command == "hd-zeta":
                reqs.append((command, poly_tree(design, rng, 3, rng.random() < 0.5), design.randint(1, 3)))
            else:
                reqs.append((command, class_tree(design, rng, 2, bgl=False), design.randint(1, 3)))
    rng.shuffle(reqs)
    return reqs


def cli_mix_prepare(sz, req):
    command, tree = req[0], req[1]
    if command == "eval":
        return ["eval", render(tree), "--at", req[2], "--json"]
    if command in ("hd", "effective"):
        return [command, render(tree), "--json"]
    if command == "sym":
        return ["sym", str(req[2]), render(tree), "--json"]
    return [command, render(tree), "--order", str(req[2]), "--json"]


def cli_mix_run(sz, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sz.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_mix_expected(req):
    """What the checker compares with: a value, a verdict rule or a series."""
    command, tree = req[0], req[1]
    if command == "eval":
        return tree_value(tree, Fraction(req[2]))
    if command == "hd":
        return {t: tree_value(tree, t) for t in POINTS}
    if command == "effective":
        return None
    order = req[2]
    if command == "hd-zeta":
        return {p: adams_series(lambda r: tree_value(tree, (p[0] ** r, p[1] ** r)), order) for p in UV_POINTS}
    terms = laurent_terms(tree)
    out = {}
    for t in POINTS:
        want = geometric_product([(t ** d, c) for d, c in terms.items()], order)
        out[t] = s_opposite(want) if command == "opposite" else want
    return out


def cli_mix_verify(req, output, expected) -> str | None:
    code, stdout, stderr = output
    command = req[0]
    if code != 0:
        return f"{command}: exit code {code}: {stderr.strip()}"
    data = json.loads(stdout)
    if command == "eval":
        got = Fraction(data["value"])
        return None if got == expected else f"eval: {got}, expected {expected}"
    if command == "hd":
        for t, want in expected.items():
            got = hd_json_value(data, t)
            if got != want:
                return f"hd at (u, v) = ({t}, 1): {got}, expected {want}"
        return None
    if command == "effective":
        return f"effective: {data['verdict']} on a nonnegative combination" if data["verdict"] == "not-effective" else None
    for point, want in expected.items():
        if command == "hd-zeta":
            got = [poly_json_value(c, point) for c in data["coeffs"]]
        elif command == "sym":
            got, want = [class_json_value(data, point)], want[req[2]:]
        else:
            got = [class_json_value(c, point) for c in data["coeffs"]]
        err = _compare(f"{command} at {point}", got, want)
        if err:
            return err
    return None


def cli_mix_check(req, output) -> str | None:
    return cli_mix_verify(req, output, cli_mix_expected(req))


# -- registry -------------------------------------------------------------------------------


class Workload(NamedTuple):
    """One workload's request stream, its three steps, and the label that
    groups its requests in the traced run."""

    stream: Callable[[int], list]
    prepare: Callable
    run: Callable
    check: Callable
    group: Callable


WORKLOADS = {
    "zeta-deep": Workload(zeta_deep_stream, zeta_deep_prepare, zeta_deep_run, zeta_deep_check,
                          lambda req: req[0]),
    "power-axioms": Workload(power_axioms_stream, power_axioms_prepare, power_axioms_run,
                             power_axioms_check, lambda req: req[1]),
    "cli-mix": Workload(cli_mix_stream, cli_mix_prepare, cli_mix_run, cli_mix_check,
                        lambda req: req[0]),
}
