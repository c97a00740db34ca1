"""Wider-range checks of the two conjectured relations.

Not required by the acceptance criteria, but the pipeline is cheap enough
to push further; every prime below passes with a = 8/27 mod p.
"""

import pytest

from hqcf.quartic import verify_conjecture1, verify_conjecture2


@pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97])
def test_degree_p_relation_sweep(p):
    n = 230 if p > 80 else 150
    v = verify_conjecture1(p, n)
    assert v.passed
    assert v.a_equals_8_27


# (eps1, eps2, a) as first found by sweeping a over F_p^* and solving for
# (eps1, eps2); the derivation now reads them off and must agree
CONJ2_SOLUTIONS = {
    5: (4, 3, 4), 11: (1, 1, 6), 17: (16, 5, 11), 23: (1, 8, 2),
    29: (28, 28, 25), 41: (40, 30, 17), 47: (1, 10, 9),
}


@pytest.mark.parametrize("p", sorted(CONJ2_SOLUTIONS))
def test_degree_p_squared_relation_sweep(p):
    v = verify_conjecture2(p)
    assert v.passed
    assert v.a_equals_8_27
    assert (v.eps1, v.eps2, v.a) == CONJ2_SOLUTIONS[p]


@pytest.mark.parametrize("p", [103, 109, 127, 139, 151, 157, 163, 181, 193, 199, 211])
def test_degree_p_relation_at_the_default_n(p):
    # from p = 181 on the series certificate takes more than 200 generated
    # quotients (202 at p = 181): it sizes itself, and n counts only the
    # quotients compared with the direct expansion
    v = verify_conjecture1(p, 200)
    assert v.passed and v.a_equals_8_27 and v.compared_terms == 200


def test_short_n_sizes_its_own_certificate():
    v = verify_conjecture1(97, 100)
    assert v.passed and v.compared_terms == 100
