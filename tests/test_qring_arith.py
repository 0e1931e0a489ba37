"""Differential tests of the integer field and ideal arithmetic.

Elements of Q(sqrt D) are rebuilt here as pairs (a, b) of Fractions meaning
a + b*tau, with the textbook formulas, and ideals as pairs of such
coordinate rows with rational linear algebra; every KElem and OrientedIdeal
operation must agree with that reference on random nonsquare D of both
signs and on elements with nontrivial denominators.
"""

from fractions import Fraction
from math import gcd, isqrt

from hypothesis import assume, given, settings, strategies as st

from cubecomp.bqf import BQF, bqf_to_ideal
from cubecomp.qring import KElem, QuadraticRing

EXAMPLES = settings(
    max_examples=200, deadline=None, database=None, derandomize=True
)


def _nonsquare(D):
    return D < 0 or isqrt(D) ** 2 != D


discriminants = st.one_of(
    st.sampled_from([-3, -4, -23, 5, 8, 13]),
    st.builds(lambda n, r: 4 * n + r, st.integers(-10**6, 10**6),
              st.sampled_from([0, 1])).filter(_nonsquare),
)
coeffs = st.one_of(st.integers(-30, 30), st.integers(-2**80, 2**80))
dens = st.one_of(st.integers(1, 60), st.integers(1, 2**40))


@st.composite
def elements(draw, ring, nonzero=False):
    p, q, d = draw(coeffs), draw(coeffs), draw(dens)
    if nonzero:
        assume(p or q)
    return ring.element(p, q, d)


# -- the Fraction reference --------------------------------------------------


def ref(x):
    return (Fraction(x.p, x.d), Fraction(x.q, x.d))


def ref_mul(ring, x, y):
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 + ring.m * b1 * b2, a1 * b2 + b1 * a2 + ring.eps * b1 * b2)


def ref_conj(ring, x):
    return (x[0] + ring.eps * x[1], -x[1])


def ref_norm(ring, x):
    a, b = x
    return a * a + ring.eps * a * b - ring.m * b * b


def ref_inverse(ring, x):
    n = ref_norm(ring, x)
    c = ref_conj(ring, x)
    return (c[0] / n, c[1] / n)


def ref_det(rows):
    (a, b), (c, d) = rows
    return a * d - b * c


def ref_contains(rows, x):
    """Whether x = u*rows[0] + v*rows[1] with u, v integers."""
    (a, b), (c, d) = rows
    det = ref_det(rows)
    u = (x[0] * d - x[1] * c) / det
    v = (x[1] * a - x[0] * b) / det
    return u.denominator == 1 and v.denominator == 1


def ref_rows(I):
    return [ref(b) for b in I.basis]


def assert_lowest_terms(x):
    assert x.d > 0 and gcd(x.p, x.q, x.d) == 1


# -- elements ------------------------------------------------------------------


@EXAMPLES
@given(st.data(), discriminants)
def test_kelem_ops_match_fraction_reference(data, D):
    ring = QuadraticRing(D)
    x = data.draw(elements(ring))
    y = data.draw(elements(ring, nonzero=True))
    rx, ry = ref(x), ref(y)
    for got, want in (
        (x + y, (rx[0] + ry[0], rx[1] + ry[1])),
        (x - y, (rx[0] - ry[0], rx[1] - ry[1])),
        (-x, (-rx[0], -rx[1])),
        (x * y, ref_mul(ring, rx, ry)),
        (x.conj(), ref_conj(ring, rx)),
        (y.inverse(), ref_inverse(ring, ry)),
        (x / y, ref_mul(ring, rx, ref_inverse(ring, ry))),
    ):
        assert ref(got) == want
        assert_lowest_terms(got)
    assert x.norm() == ref_norm(ring, rx)
    assert x.trace() == 2 * rx[0] + ring.eps * rx[1]
    assert x.coords() == rx
    # the public constructor on Fraction input lands on the same triple
    assert KElem(ring, *rx) == x
    assert KElem(ring, rx[0] * 3, rx[1] * 3, Fraction(3)) == x


@EXAMPLES
@given(st.data(), discriminants, st.integers(-3, 5))
def test_kelem_pow_matches_repeated_product(data, D, k):
    ring = QuadraticRing(D)
    x = data.draw(elements(ring, nonzero=True))
    want = (Fraction(1), Fraction(0))
    step = ref(x) if k >= 0 else ref_inverse(ring, ref(x))
    for _ in range(abs(k)):
        want = ref_mul(ring, want, step)
    got = x**k
    assert ref(got) == want
    assert_lowest_terms(got)


# -- ideals ---------------------------------------------------------------------


@st.composite
def ideals(draw, ring):
    """A scaled form ideal k * <a, tau - (b + eps)/2>, either orientation."""
    D = ring.D
    b = draw(st.integers(-200, 200).filter(lambda b: (b - D) % 2 == 0))
    num = (b * b - D) // 4
    assume(num != 0)
    a = draw(st.sampled_from([t for t in range(1, 60) if num % t == 0]))
    a *= draw(st.sampled_from([1, -1]))
    Q = BQF(a, b, num // a)
    assume(Q.is_primitive())
    k = draw(elements(ring, nonzero=True))
    return bqf_to_ideal(Q, ring).scale(k)


@EXAMPLES
@given(st.data(), discriminants)
def test_ideal_contains_and_key_match_reference(data, D):
    ring = QuadraticRing(D)
    I = data.draw(ideals(ring))
    rows = ref_rows(I)
    assert I.norm() == ref_det(rows)
    assert (I.norm() > 0) == (I.mu > 0)
    x = data.draw(elements(ring))
    assert I.contains(x) == ref_contains(rows, ref(x))
    # u*b1 + v*b2 is in I, and a perturbation by a small fraction is not
    u, v = data.draw(st.integers(-50, 50)), data.draw(st.integers(-50, 50))
    z = (u * rows[0][0] + v * rows[1][0], u * rows[0][1] + v * rows[1][1])
    assert I.contains(KElem(ring, *z))
    bump = data.draw(st.sampled_from([(Fraction(1, 7), 0), (0, Fraction(1, 7))]))
    w = (z[0] + bump[0] * rows[0][0], z[1] + bump[0] * rows[0][1])
    w = (w[0] + bump[1] * rows[1][0], w[1] + bump[1] * rows[1][1])
    assert not I.contains(KElem(ring, *w))
    # module_key is the Hermite basis (a, 0), (x, c) over den in lowest terms
    a, xk, c, den = I.module_key()
    assert a > 0 and c > 0 and 0 <= xk < a and den > 0
    assert gcd(a, xk, c, den) == 1
    h1, h2 = (Fraction(a, den), Fraction(0)), (Fraction(xk, den), Fraction(c, den))
    assert ref_contains(rows, h1) and ref_contains(rows, h2)
    assert abs(ref_det([h1, h2])) == abs(ref_det(rows))
    assert I.hnf_basis() == I and I.hnf_basis().module_key() == I.module_key()


@EXAMPLES
@given(st.data(), discriminants)
def test_ideal_product_and_inverse_match_reference(data, D):
    ring = QuadraticRing(D)
    I, J = data.draw(ideals(ring)), data.draw(ideals(ring))
    P = I * J
    prows = ref_rows(P)
    # every product of basis elements lies in P, and P has covolume
    # |N(I) N(J)|, so P is exactly their span (the ideals are invertible)
    for s in ref_rows(I):
        for t in ref_rows(J):
            assert ref_contains(prows, ref_mul(ring, s, t))
    assert ref_det(prows) == ref_det(ref_rows(I)) * ref_det(ref_rows(J))
    assert P.mu == I.mu * J.mu
    inv = I.inverse()
    irows = ref_rows(inv)
    n = abs(ref_det(ref_rows(I)))
    for s in ref_rows(I):
        c = ref_conj(ring, s)
        assert ref_contains(irows, (c[0] / n, c[1] / n))
    assert ref_det(irows) * ref_det(ref_rows(I)) == 1
    assert inv.mu == I.mu
    # module_key decides equality of modules: I*J and J*I agree, I*I^-1 is S
    assert P.module_key() == (J * I).module_key()
    assert (I * inv).module_key() == (1, 0, 1, 1)
