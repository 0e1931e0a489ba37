"""compose_dirichlet against two independent oracles.

The oracles are the united-forms recipe it replaced (coprime representative,
CRT lift, sign recursion at D < 0; tests/compose_reference.py) and the
reduced norm form of the product of the two oriented ideals.
"""

import random
from math import gcd, isqrt

from hypothesis import assume, given, settings, strategies as st

from cubecomp.bqf import (
    BQF,
    bqf_to_ideal,
    compose_dirichlet,
    ideal_to_bqf,
    reduce,
    sl2_act,
)
from tests.compose_reference import united_forms_compose

SIZES = (10**3, 10**10, 10**20)  # |D| up to about 4 * 10^40 at D < 0


def _first_form(draw, rng) -> BQF:
    if draw(st.booleans()):
        # definite, either sign: uniform coefficients of a drawn size
        size = draw(st.sampled_from(SIZES))
        a, c = rng.randint(1, size), rng.randint(1, size)
        r = isqrt(4 * a * c - 1)  # |b| <= r makes D = b^2 - 4ac < 0
        b = rng.randint(-r, r)
        sign = draw(st.sampled_from((1, -1)))
        Q = BQF(sign * a, sign * b, sign * c)
    else:
        # indefinite: small, since reduce walks the whole reduced cycle
        a, b, c = (draw(st.integers(-300, 300)) for _ in range(3))
        Q = BQF(a, b, c)
        D = Q.disc()
        assume(D > 0 and isqrt(D) ** 2 != D)
    assume(Q.is_primitive())
    return Q


@st.composite
def form_pairs(draw):
    """Two primitive forms of one discriminant.  The shifts keep a2 = a1,
    so gcd(a1, a2) = |a1| and the w term of B is live whenever d is smaller;
    the shift of the conjugate has s = a1*t, so d = gcd(a1, a2, s) = |a1|."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    Q1 = _first_form(draw, rng)
    D = Q1.disc()
    mode = draw(st.sampled_from(("shift", "conj shift", "shear", "divisor")))
    t = draw(st.integers(-50, 50))
    if mode == "shift":
        Q2 = sl2_act(Q1, ((1, t), (0, 1)))
    elif mode == "conj shift":
        Q2 = sl2_act(BQF(Q1.a, -Q1.b, Q1.c), ((1, t), (0, 1)))
    elif mode == "shear":
        Q2 = sl2_act(Q1, ((1, 0), (t, 1)))
    else:
        # a2 a divisor of n = (b2^2 - D)/4, found as gcd(n, m)
        b2 = 2 * rng.randint(-abs(D), abs(D)) + D % 2
        n = (b2 * b2 - D) // 4
        a2 = gcd(n, draw(st.integers(1, 10**6)))
        Q2 = BQF(a2, b2, n // a2)
        assume(Q2.is_primitive())
    if draw(st.booleans()):
        Q2 = -Q2
    return Q1, Q2


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(form_pairs())
def test_compose_matches_united_forms_and_ideal_multiplication(pair):
    Q1, Q2 = pair
    got = compose_dirichlet(Q1, Q2)
    assert got == united_forms_compose(Q1, Q2)
    product = bqf_to_ideal(Q1) * bqf_to_ideal(Q2)
    assert got == reduce(ideal_to_bqf(product)).canonical
