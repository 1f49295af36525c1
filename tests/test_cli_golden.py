"""Pinned CLI outputs: the exact stdout of each command, as text and as --json.

Every class is stored as its reduced fraction over cyclotomic factors and
printed through one cover rule, so the printed shape of a coefficient is a
function of its value alone, whatever route computed it.  The first five
commands take routes that once left different shapes for equal values
(zeta of a class over (L-1) times a polynomial, non-reduced inputs such as
(L+1)/(L^2-1), a power with exponent -1): a change to the representation or
to the cover rule shows up here.
"""

import pytest

from stackzeta.cli import main

GOLDEN = [
    (
        ('zeta', 'BGL(1) * (L+1)', '--order', '5'),
        (
            '1 + ((L + 1) / (L-1))*T + ((L^3 + L^2 + 2*L) / ((L-1) * (L^2-1)))*T^2 + '
            '((L^5 + 2*L^3 + L^2) / ((L-1) * (L-1) * (L^3-1)))*T^3 + ((L^10 + L^9 + '
            '2*L^8 + 3*L^7 + 5*L^6 + 2*L^5 + 2*L^4) / ((L-1) * (L^2-1) * (L^3-1) * '
            '(L^4-1)))*T^4 + ((L^14 + 2*L^12 + L^11 + 4*L^10 + 3*L^9 + 2*L^8 + 2*L^7 + '
            'L^6) / ((L-1) * (L-1) * (L^3-1) * (L^4-1) * (L^5-1)))*T^5\n'
        ),
        (
            '{"order": 5, "coeffs": [{"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": []}}, {"num": {"min_deg": 0, "coeffs": [1, 1]}, '
            '"den": {"l_exp": 0, "factors": [1]}}, {"num": {"min_deg": 1, "coeffs": [2, '
            '1, 1]}, "den": {"l_exp": 0, "factors": [1, 2]}}, {"num": {"min_deg": 2, '
            '"coeffs": [1, 2, 0, 1]}, "den": {"l_exp": 0, "factors": [1, 1, 3]}}, '
            '{"num": {"min_deg": 4, "coeffs": [2, 2, 5, 3, 2, 1, 1]}, "den": {"l_exp": '
            '0, "factors": [1, 2, 3, 4]}}, {"num": {"min_deg": 6, "coeffs": [1, 2, 2, 3, '
            '4, 1, 2, 0, 1]}, "den": {"l_exp": 0, "factors": [1, 1, 3, 4, 5]}}]}\n'
        ),
    ),
    (
        ('zeta', '(L+1)/(L^2-1)', '--order', '5'),
        (
            '1 + (1 / (L-1))*T + (L / ((L-1) * (L^2-1)))*T^2 + (L^3 / ((L-1) * (L^2-1) * '
            '(L^3-1)))*T^3 + (L^6 / ((L-1) * (L^2-1) * (L^3-1) * (L^4-1)))*T^4 + (L^10 / '
            '((L-1) * (L^2-1) * (L^3-1) * (L^4-1) * (L^5-1)))*T^5\n'
        ),
        (
            '{"order": 5, "coeffs": [{"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": []}}, {"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": [1]}}, {"num": {"min_deg": 1, "coeffs": [1]}, '
            '"den": {"l_exp": 0, "factors": [1, 2]}}, {"num": {"min_deg": 3, "coeffs": '
            '[1]}, "den": {"l_exp": 0, "factors": [1, 2, 3]}}, {"num": {"min_deg": 6, '
            '"coeffs": [1]}, "den": {"l_exp": 0, "factors": [1, 2, 3, 4]}}, {"num": '
            '{"min_deg": 10, "coeffs": [1]}, "den": {"l_exp": 0, "factors": [1, 2, 3, 4, '
            '5]}}]}\n'
        ),
    ),
    (
        ('power', '1 + BGL(1)*T + L*T^2', '(-1)', '--order', '4'),
        (
            '1 + ((-1) / (L-1))*T + ((-L^3 + 2*L^2 - L + 1) / ((L-1) * (L-1)))*T^2 + '
            '((2*L^3 - 4*L^2 + 2*L - 1) / ((L-1) * (L-1) * (L-1)))*T^3 + ((L^6 - 4*L^5 + '
            '6*L^4 - 7*L^3 + 7*L^2 - 3*L + 1) / ((L-1) * (L-1) * (L-1) * (L-1)))*T^4\n'
        ),
        (
            '{"order": 4, "coeffs": [{"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": []}}, {"num": {"min_deg": 0, "coeffs": [-1]}, '
            '"den": {"l_exp": 0, "factors": [1]}}, {"num": {"min_deg": 0, "coeffs": [1, '
            '-1, 2, -1]}, "den": {"l_exp": 0, "factors": [1, 1]}}, {"num": {"min_deg": '
            '0, "coeffs": [-1, 2, -4, 2]}, "den": {"l_exp": 0, "factors": [1, 1, 1]}}, '
            '{"num": {"min_deg": 0, "coeffs": [1, -3, 7, -7, 6, -4, 1]}, "den": '
            '{"l_exp": 0, "factors": [1, 1, 1, 1]}}]}\n'
        ),
    ),
    (
        ('opposite', '(L^2+1)/(L^2-1)', '--order', '5'),
        (
            '1 + ((L^2 + 1) / (L^2-1))*T + ((2*L^4 + L^2 + 1) / ((L^2-1) * (L^4-1)))*T^2 '
            '+ ((L^6 + 2*L^4 + 1) / ((L^2-1) * (L^2-1) * (L^6-1)))*T^3 + ((2*L^12 + '
            '2*L^10 + 5*L^8 + 3*L^6 + 2*L^4 + L^2 + 1) / ((L^2-1) * (L^4-1) * (L^6-1) * '
            '(L^8-1)))*T^4 + ((L^16 + 2*L^14 + 2*L^12 + 3*L^10 + 4*L^8 + L^6 + 2*L^4 + '
            '1) / ((L^2-1) * (L^2-1) * (L^6-1) * (L^8-1) * (L^10-1)))*T^5\n'
        ),
        (
            '{"order": 5, "coeffs": [{"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": []}}, {"num": {"min_deg": 0, "coeffs": [1, 0, 1]}, '
            '"den": {"l_exp": 0, "factors": [2]}}, {"num": {"min_deg": 0, "coeffs": [1, '
            '0, 1, 0, 2]}, "den": {"l_exp": 0, "factors": [2, 4]}}, {"num": {"min_deg": '
            '0, "coeffs": [1, 0, 0, 0, 2, 0, 1]}, "den": {"l_exp": 0, "factors": [2, 2, '
            '6]}}, {"num": {"min_deg": 0, "coeffs": [1, 0, 1, 0, 2, 0, 3, 0, 5, 0, 2, 0, '
            '2]}, "den": {"l_exp": 0, "factors": [2, 4, 6, 8]}}, {"num": {"min_deg": 0, '
            '"coeffs": [1, 0, 0, 0, 2, 0, 1, 0, 4, 0, 3, 0, 2, 0, 2, 0, 1]}, "den": '
            '{"l_exp": 0, "factors": [2, 2, 6, 8, 10]}}]}\n'
        ),
    ),
    (
        ('sym', '4', 'BGL(2) + L'),
        (
            '(L^34 - 3*L^33 + 2*L^32 + L^31 - L^30 + 3*L^29 - 7*L^28 + 6*L^27 - 5*L^26 + '
            '4*L^25 + 3*L^24 - 10*L^23 + 11*L^22 - 10*L^21 + 12*L^20 - 9*L^19 - L^18 + '
            '7*L^17 - 10*L^16 + 14*L^15 - 13*L^14 + 8*L^13 - 6*L^12 + 4*L^11 + 6*L^10 - '
            '10*L^9 + 7*L^8 - 6*L^7 + 6*L^6 - 5*L^5 + 5*L^4 - 3*L^3 + 3*L^2 - 2*L + 1) / '
            '(L^4 * (L-1) * (L-1) * (L-1) * (L^2-1) * (L^3-1) * (L^4-1) * (L^6-1) * '
            '(L^8-1))\n'
        ),
        (
            '{"num": {"min_deg": 0, "coeffs": [1, -2, 3, -3, 5, -5, 6, -6, 7, -10, 6, 4, '
            '-6, 8, -13, 14, -10, 7, -1, -9, 12, -10, 11, -10, 3, 4, -5, 6, -7, 3, -1, '
            '1, 2, -3, 1]}, "den": {"l_exp": 4, "factors": [1, 1, 1, 2, 3, 4, 6, 8]}}\n'
        ),
    ),
    (
        ('zeta', 'BGL(2)', '--order', '3'),
        (
            '1 + (1 / (L * (L-1) * (L^2-1)))*T + ((L^2 - L + 1) / (L^2 * (L-1) * (L-1) * '
            '(L^2-1) * (L^4-1)))*T^2 + ((L^8 - L^7 + L^6 + L^4 + L^2 - L + 1) / (L^3 * '
            '(L-1) * (L-1) * (L^2-1) * (L^3-1) * (L^4-1) * (L^6-1)))*T^3\n'
        ),
        (
            '{"order": 3, "coeffs": [{"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": []}}, {"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 1, "factors": [1, 2]}}, {"num": {"min_deg": 0, "coeffs": [1, -1, '
            '1]}, "den": {"l_exp": 2, "factors": [1, 1, 2, 4]}}, {"num": {"min_deg": 0, '
            '"coeffs": [1, -1, 1, 0, 1, 0, 1, -1, 1]}, "den": {"l_exp": 3, "factors": '
            '[1, 1, 2, 3, 4, 6]}}]}\n'
        ),
    ),
    (
        ('zeta', '3*L^2 - 2*q', '--order', '3'),
        (
            '1 + ((3*L^3 - 2) / L)*T + ((6*L^6 - 6*L^3 + 1) / L^2)*T^2 + (10*L^6 - '
            '12*L^3 + 3)*T^3\n'
        ),
        (
            '{"order": 3, "coeffs": [{"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": []}}, {"num": {"min_deg": 0, "coeffs": [-2, 0, 0, '
            '3]}, "den": {"l_exp": 1, "factors": []}}, {"num": {"min_deg": 0, "coeffs": '
            '[1, 0, 0, -6, 0, 0, 6]}, "den": {"l_exp": 2, "factors": []}}, {"num": '
            '{"min_deg": 0, "coeffs": [3, 0, 0, -12, 0, 0, 10]}, "den": {"l_exp": 0, '
            '"factors": []}}]}\n'
        ),
    ),
    (
        ('sym', '3', 'Gr(2,4) - L'),
        (
            'L^12 + L^11 + 3*L^10 + 3*L^9 + 6*L^8 + 4*L^7 + 7*L^6 + 2*L^5 + 4*L^4 + L^3 '
            '+ 2*L^2 + 1\n'
        ),
        (
            '{"num": {"min_deg": 0, "coeffs": [1, 0, 2, 1, 4, 2, 7, 4, 6, 3, 3, 1, 1]}, '
            '"den": {"l_exp": 0, "factors": []}}\n'
        ),
    ),
    (
        ('sym', '5', '2*BGL(1) - 1'),
        (
            '(-5*L^11 + 3*L^10 + 3*L^8 + 5*L^7 + 11*L^6 + 5*L^5 + 6*L^4 + 3*L^3 + L^2) / '
            '((L-1) * (L^2-1) * (L^3-1) * (L^4-1) * (L^5-1))\n'
        ),
        (
            '{"num": {"min_deg": 2, "coeffs": [1, 3, 6, 5, 11, 5, 3, 0, 3, -5]}, "den": '
            '{"l_exp": 0, "factors": [1, 2, 3, 4, 5]}}\n'
        ),
    ),
    (
        ('power', '1 + T', '1/(L-1)', '--order', '3'),
        (
            '1 + (1 / (L-1))*T + ((-L^2 + L + 1) / ((L-1) * (L^2-1)))*T^2 + ((-L^4 + L + '
            '1) / ((L-1) * (L^2-1) * (L^3-1)))*T^3\n'
        ),
        (
            '{"order": 3, "coeffs": [{"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": []}}, {"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": [1]}}, {"num": {"min_deg": 0, "coeffs": [1, 1, '
            '-1]}, "den": {"l_exp": 0, "factors": [1, 2]}}, {"num": {"min_deg": 0, '
            '"coeffs": [1, 1, 0, 0, -1]}, "den": {"l_exp": 0, "factors": [1, 2, 3]}}]}\n'
        ),
    ),
    (
        ('power', '1 + L*T + T^3', 'L^2 - BGL(1)', '--order', '3'),
        (
            '1 + ((L^4 - L^3 - L) / (L-1))*T + ((L^9 - L^8 - 2*L^7 + L^6 + L^5 + L^4) / '
            '((L-1) * (L^2-1)))*T^2 + ((L^15 - L^14 - 2*L^13 + 2*L^11 + 4*L^10 - L^9 - '
            'L^8 - 4*L^7 - 2*L^6 + 2*L^4 + 2*L^3 - 1) / ((L-1) * (L^2-1) * (L^3-1)))*T^3\n'
        ),
        (
            '{"order": 3, "coeffs": [{"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": []}}, {"num": {"min_deg": 1, "coeffs": [-1, 0, -1, '
            '1]}, "den": {"l_exp": 0, "factors": [1]}}, {"num": {"min_deg": 4, "coeffs": '
            '[1, 1, 1, -2, -1, 1]}, "den": {"l_exp": 0, "factors": [1, 2]}}, {"num": '
            '{"min_deg": 0, "coeffs": [-1, 0, 0, 2, 2, 0, -2, -4, -1, -1, 4, 2, 0, -2, '
            '-1, 1]}, "den": {"l_exp": 0, "factors": [1, 2, 3]}}]}\n'
        ),
    ),
    (
        ('opposite', 'L/(L^2-1)', '--order', '4'),
        (
            '1 + (L / (L^2-1))*T + (L^2 / ((L^2-1) * (L^4-1)))*T^2 + (L^3 / ((L^2-1) * '
            '(L^4-1) * (L^6-1)))*T^3 + (L^4 / ((L^2-1) * (L^4-1) * (L^6-1) * '
            '(L^8-1)))*T^4\n'
        ),
        (
            '{"order": 4, "coeffs": [{"num": {"min_deg": 0, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": []}}, {"num": {"min_deg": 1, "coeffs": [1]}, "den": '
            '{"l_exp": 0, "factors": [2]}}, {"num": {"min_deg": 2, "coeffs": [1]}, '
            '"den": {"l_exp": 0, "factors": [2, 4]}}, {"num": {"min_deg": 3, "coeffs": '
            '[1]}, "den": {"l_exp": 0, "factors": [2, 4, 6]}}, {"num": {"min_deg": 4, '
            '"coeffs": [1]}, "den": {"l_exp": 0, "factors": [2, 4, 6, 8]}}]}\n'
        ),
    ),
    (
        ('hd', 'BGL(2) + Gr(2,4)'),
        (
            '(u^8*v^8 - u^5*v^5 - u^4*v^4 + u*v + 1) / ((u*v) * ((u*v)-1) * ((u*v)^2-1))\n'
        ),
        (
            '{"num": {"nvars": 2, "terms": [[[8, 8], 1], [[5, 5], -1], [[4, 4], -1], '
            '[[1, 1], 1], [[0, 0], 1]]}, "den": {"l_exp": 1, "factors": [1, 2], "base": '
            '"u*v"}}\n'
        ),
    ),
    (
        ('hd-zeta', '1 - u - v + u*v', '--order', '3'),
        (
            '1 + (u*v - u - v + 1)*T + (u^2*v^2 - u^2*v - u*v^2 + 2*u*v - u - v + 1)*T^2 '
            '+ (u^3*v^3 - u^3*v^2 - u^2*v^3 + 2*u^2*v^2 - u^2*v - u*v^2 + 2*u*v - u - v '
            '+ 1)*T^3\n'
        ),
        (
            '{"order": 3, "coeffs": [{"nvars": 2, "terms": [[[0, 0], 1]]}, {"nvars": 2, '
            '"terms": [[[1, 1], 1], [[1, 0], -1], [[0, 1], -1], [[0, 0], 1]]}, {"nvars": '
            '2, "terms": [[[2, 2], 1], [[2, 1], -1], [[1, 2], -1], [[1, 1], 2], [[1, 0], '
            '-1], [[0, 1], -1], [[0, 0], 1]]}, {"nvars": 2, "terms": [[[3, 3], 1], [[3, '
            '2], -1], [[2, 3], -1], [[2, 2], 2], [[2, 1], -1], [[1, 2], -1], [[1, 1], '
            '2], [[1, 0], -1], [[0, 1], -1], [[0, 0], 1]]}]}\n'
        ),
    ),
    (
        ('effective', 'GL(2) - L^3'),
        (
            'effective-candidate [polynomial class; top part 1*(uv)^4]\n'
        ),
        (
            '{"verdict": "effective-candidate", "witness": null, "detail": "polynomial '
            'class; top part 1*(uv)^4"}\n'
        ),
    ),
    (
        ('effective', '(-L^3 + L^2 + L) * BGL(2)'),
        (
            'not-effective; witness: -u^2*v^2 [numerator / (((u*v)-1) * ((u*v)^2-1)); '
            'top-degree part not ell*(uv)^n]\n'
        ),
        (
            '{"verdict": "not-effective", "witness": "-u^2*v^2", "detail": "numerator / '
            '(((u*v)-1) * ((u*v)^2-1)); top-degree part not ell*(uv)^n"}\n'
        ),
    ),
    (
        ('effective', '1/(L^3-1)-1/(L-1)'),
        (
            'not-effective; witness: -u^2*v^2 [numerator / ((u*v)^3-1); '
            'top-degree part not ell*(uv)^n]\n'
        ),
        (
            '{"verdict": "not-effective", "witness": "-u^2*v^2", "detail": "numerator / '
            '((u*v)^3-1); top-degree part not ell*(uv)^n"}\n'
        ),
    ),
    (
        ('effective', '1/(L^2-1)'),
        (
            'effective-candidate [numerator / ((u*v)^2-1); top part 1*(uv)^0]\n'
        ),
        (
            '{"verdict": "effective-candidate", "witness": null, "detail": "numerator / '
            '((u*v)^2-1); top part 1*(uv)^0"}\n'
        ),
    ),
    (
        ('effective', 'q'),
        (
            'effective-candidate [numerator / (u*v); top part 1*(uv)^0]\n'
        ),
        (
            '{"verdict": "effective-candidate", "witness": null, "detail": "numerator / '
            '(u*v); top part 1*(uv)^0"}\n'
        ),
    ),
    (
        ('effective', '1/L^2'),
        (
            'effective-candidate [numerator / (u*v)^2; top part 1*(uv)^0]\n'
        ),
        (
            '{"verdict": "effective-candidate", "witness": null, "detail": "numerator / '
            '(u*v)^2; top part 1*(uv)^0"}\n'
        ),
    ),
    (
        ('effective', 'q - L'),
        (
            'not-effective; witness: -u^2*v^2 [numerator / (u*v); '
            'top-degree part not ell*(uv)^n]\n'
        ),
        (
            '{"verdict": "not-effective", "witness": "-u^2*v^2", "detail": "numerator / '
            '(u*v); top-degree part not ell*(uv)^n"}\n'
        ),
    ),
    (
        ('effective', '1 - u - v + u*v'),
        (
            'effective-candidate [top part 1*(uv)^1]\n'
        ),
        (
            '{"verdict": "effective-candidate", "witness": null, "detail": "top part '
            '1*(uv)^1"}\n'
        ),
    ),
    (
        ('eval', 'BGL(3) + L^2', '--at', '3/2'),
        (
            '25133/10260\n'
        ),
        (
            '{"value": "25133/10260"}\n'
        ),
    ),
]


@pytest.mark.parametrize("argv, text, as_json", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_cli_output_is_pinned(capsys, argv, text, as_json):
    for extra, expected in (((), text), (("--json",), as_json)):
        code = main([*argv, *extra])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out == expected
