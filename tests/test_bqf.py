import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cubecomp.bqf import (
    BQF,
    GaussBilinearData,
    _is_square,
    bqf_to_ideal,
    compose_dirichlet,
    enumerate_class_group,
    ideal_class_equal,
    ideal_to_bqf,
    principal_form,
    principal_generator,
    reduce,
    sl2_act,
    verify_gauss_identity,
)
from cubecomp import exact
from cubecomp.cubes import lemmermeyer_identity
from cubecomp.exact import InputError, UnsupportedDomainError
from cubecomp.qring import OrientedIdeal, QuadraticRing
from tests.reduce_reference import reference_principal_generator, reference_reduce
from tests.worked_examples import CUBE_A


def _random_form(rng, bound=12):
    """A primitive form with nonsquare nonzero discriminant."""
    while True:
        Q = BQF(*(rng.randint(-bound, bound) for _ in range(3)))
        d = Q.disc()
        if d == 0 or Q.a == 0:
            continue
        if d > 0 and int(d**0.5 + 0.5) ** 2 == d:
            continue
        if Q.is_primitive():
            return Q


def test_disc_and_principal_form():
    assert BQF(2, 1, 6).disc() == -47
    assert principal_form(-47) == BQF(1, 1, 12)
    assert principal_form(-4) == BQF(1, 0, 1)
    assert principal_form(8) == BQF(1, 0, -2)
    with pytest.raises(InputError):
        principal_form(-5)


def test_reduce_transform_is_a_certificate():
    rng = random.Random(7)
    for _ in range(200):
        Q = _random_form(rng)
        res = reduce(Q)
        assert sl2_act(Q, res.transform) == res.canonical
        # reducing twice is idempotent
        assert reduce(res.canonical).canonical == res.canonical


def test_reduce_posdef_canonical_bounds():
    rng = random.Random(8)
    for _ in range(100):
        Q = _random_form(rng)
        if Q.disc() > 0:
            continue
        R = reduce(Q).canonical
        a, b, c = (R.a, R.b, R.c) if R.a > 0 else (-R.a, -R.b, -R.c)
        assert abs(b) <= a <= c
        assert not (abs(b) == a and b < 0)
        assert not (a == c and b < 0)


def test_indefinite_cycle_is_closed_under_reduction():
    res = reduce(BQF(1, 0, -2))
    assert res.cycle
    for F in res.cycle:
        assert reduce(F).canonical == res.canonical


def test_compose_identity_and_inverse():
    rng = random.Random(11)
    for _ in range(50):
        Q = _random_form(rng)
        D = Q.disc()
        e = principal_form(D)
        assert compose_dirichlet(Q, e) == reduce(Q).canonical
        inv = BQF(Q.a, -Q.b, Q.c)
        assert compose_dirichlet(Q, inv) == reduce(e).canonical


def test_compose_known_value():
    assert compose_dirichlet(BQF(2, 1, 6), BQF(2, -1, 6)) == BQF(1, 1, 12)


def test_compose_is_commutative_and_associative():
    tbl = enumerate_class_group(-47)
    reps = tbl.representatives
    for Q1 in reps:
        for Q2 in reps:
            assert compose_dirichlet(Q1, Q2) == compose_dirichlet(Q2, Q1)
    rng = random.Random(12)
    for _ in range(30):
        Qs = [reps[rng.randrange(len(reps))] for _ in range(3)]
        left = compose_dirichlet(compose_dirichlet(Qs[0], Qs[1]), Qs[2])
        right = compose_dirichlet(Qs[0], compose_dirichlet(Qs[1], Qs[2]))
        assert left == right


def test_compose_rejects_bad_input():
    with pytest.raises(InputError):
        compose_dirichlet(BQF(1, 1, 12), BQF(1, 0, 1))
    with pytest.raises(InputError):
        compose_dirichlet(BQF(2, 2, 2), BQF(2, 2, 2))
    with pytest.raises(UnsupportedDomainError):
        compose_dirichlet(BQF(1, 3, 2), BQF(1, 3, 2))  # disc 1, square


def test_narrow_class_counts():
    for D, total, posdef in ((-47, 10, 5), (-23, 6, 3), (-4, 2, 1)):
        tbl = enumerate_class_group(D)
        assert len(tbl.representatives) == total
        assert sum(1 for Q in tbl.representatives if Q.a > 0) == posdef
    assert len(enumerate_class_group(8).representatives) == 1


def test_class_table_group_structure():
    for D in (-23, 8, 13):
        tbl = enumerate_class_group(D)
        n = len(tbl.representatives)
        e = tbl.identity_index()
        for i in range(n):
            assert tbl.table[i][e] == i
            j = tbl.table[i].index(e)
            assert tbl.table[i][j] == e


def test_form_ideal_dictionary_round_trip():
    rng = random.Random(13)
    for _ in range(40):
        Q = _random_form(rng)
        if Q.disc() > 0:
            continue
        I = bqf_to_ideal(Q)
        assert ideal_to_bqf(I) == Q
        assert ideal_class_equal(I, bqf_to_ideal(reduce(Q).canonical))


def test_composition_matches_ideal_multiplication_spot():
    tbl = enumerate_class_group(-23)
    reps = tbl.representatives
    rng = random.Random(14)
    for _ in range(25):
        Q1 = reps[rng.randrange(len(reps))]
        Q2 = reps[rng.randrange(len(reps))]
        via_forms = tbl.index_of(compose_dirichlet(Q1, Q2))
        via_ideals = tbl.index_of(
            ideal_to_bqf(bqf_to_ideal(Q1) * bqf_to_ideal(Q2))
        )
        assert via_forms == via_ideals


def test_gauss_identity_from_cube_data():
    forms, data, ok = lemmermeyer_identity(CUBE_A)
    assert ok
    assert verify_gauss_identity(*forms, data)
    # breaking one bilinear entry must break the identity
    (a, b), (c, d) = data.amat
    bad = GaussBilinearData(((a + 1, b), (c, d)), data.bmat)
    assert not verify_gauss_identity(*forms, bad)


def test_indefinite_reduction_has_no_step_cap():
    # ((1,1),(1,2))^12000 gives coefficients of about 33,000 bits, so rho
    # needs far more than 10^4 steps to reach the reduced cycle
    M, P, k = ((1, 0), (0, 1)), ((1, 1), (1, 2)), 12000
    while k:
        if k & 1:
            M = exact._mat_mul(M, P)
        P, k = exact._mat_mul(P, P), k >> 1
    Q = sl2_act(BQF(1, 0, -3), M)
    assert Q.a.bit_length() > 30000
    res = reduce(Q)
    assert res.canonical == BQF(-2, 2, 1) == reduce(BQF(1, 0, -3)).canonical
    assert sl2_act(Q, res.transform) == res.canonical


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    st.integers(-1000, 1000),
    st.sampled_from((0, 1)),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 5)),
)
def test_principal_generator_recovers_oriented_scaling(k, e, kappa):
    # kappa*S at either sign of D, with the orientation sign N(kappa): a
    # generator comes back and gives the same module and the same mu
    D = 4 * k + e
    assume(not _is_square(D) and kappa[:2] != (0, 0))
    ring = QuadraticRing(D)
    unit = OrientedIdeal.unit_ideal(ring)
    I = unit.scale(ring.element(*kappa))
    g = principal_generator(I)
    assert g is not None and unit.scale(g) == I


def test_principal_generator_exactly_on_the_principal_class():
    # every narrow class at every nonsquare D in [-400, 400]: a generator
    # comes back for the identity class and for no other
    for D in range(-400, 401):
        if D % 4 > 1 or _is_square(D):
            continue
        tbl = enumerate_class_group(D)
        for i, Q in enumerate(tbl.representatives):
            principal = principal_generator(bqf_to_ideal(Q)) is not None
            assert principal == (i == tbl.identity_index()), (D, Q)


def test_reduce_matches_reference_on_principal_forms():
    # every nonsquare D in (0, 3000]: the one walk keeps the same least
    # form, the same transform and the same cycle as the keep-all lap
    for D in range(1, 3001):
        if D % 4 > 1 or _is_square(D):
            continue
        res = reduce(principal_form(D))
        assert (res.canonical, res.transform, res.cycle) == reference_reduce(
            principal_form(D)
        ), D


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.tuples(*(st.integers(-500, 500),) * 3))
# reaches the |c| > sqrt(D) branch of _rho, where the residue range is
# (-|c|, |c|]; a range off by one there changes the cycle, not the canonical
@example((-43, 499, -500))
def test_reduce_matches_reference_on_indefinite_forms(abc):
    Q = BQF(*abc)
    assume(Q.disc() > 0 and not _is_square(Q.disc()))
    res = reduce(Q)
    assert (res.canonical, res.transform, res.cycle) == reference_reduce(Q)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    st.tuples(*(st.integers(-300, 300),) * 3),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    st.booleans(),
)
def test_principal_generator_matches_reference(abc, kappa, trivial):
    # same verdict as the two-reduction test; the same kappa at D < 0, and
    # at D > 0 kappas that differ by a unit of norm 1.  I times its inverse
    # is S on another basis, so half the cases are principal at both signs
    Q = BQF(*abc)
    D = Q.disc()
    assume(Q.a != 0 and Q.is_primitive() and not _is_square(D))
    I = bqf_to_ideal(Q)
    if trivial:
        I = I * I.inverse()
    k = I.ring.element(*kappa)
    if k.norm() != 0:
        I = I.scale(k)
    new, old = principal_generator(I), reference_principal_generator(I)
    assert (new is None) == (old is None)
    if new is None:
        return
    if D < 0:
        assert new == old
    else:
        q = new / old
        assert q.is_integral() and q.norm() == 1


def test_principal_generator_rejects_square_discriminants():
    for D in (0, 4, 9, 16, 25):
        unit = OrientedIdeal.unit_ideal(QuadraticRing(D))
        with pytest.raises(UnsupportedDomainError):
            principal_generator(unit)


def test_long_cycle_reduction_keeps_one_transform():
    # D = 254354953: a principal cycle of 13,612 forms, whose transforms
    # near the end have thousands of bits; holding one per form took 86.8
    # MiB of traced peak, holding only the least form's stays small
    Q = principal_form(254354953)
    tracemalloc.start()
    try:
        res = reduce(Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.cycle) == 13612
    assert sl2_act(Q, res.transform) == res.canonical
    assert peak < 8 * 2**20, peak
