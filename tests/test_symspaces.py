import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubecomp.bqf import (
    BQF,
    _is_square,
    compose_dirichlet,
    enumerate_class_group,
    principal_form,
    principal_generator,
    reduce,
)
from cubecomp.cubes import Cube, cube_disc, identity_cube, is_projective
from cubecomp.exact import InputError
from cubecomp.qring import OrientedIdeal
from cubecomp.symspaces import (
    BinaryCubic,
    PairBQF,
    _cubic_ideal_data,
    cubic_class_compose,
    cubic_companion,
    cubic_disc,
    cubic_embed,
    cubic_identity,
    cubic_q,
    cubicovariant,
    pair_companion,
    pair_disc,
    pair_embed,
    pair_identity,
    syzygy_check,
    verify_cubic_composition,
    verify_pair_composition,
)
from tests.worked_examples import (
    CUBIC_F,
    CUBIC_F_COMP,
    CUBIC_G,
    CUBIC_G_COMP,
    CUBIC_H,
    CUBIC_H_COMP,
    CUBIC_QF,
    CUBIC_QG,
    CUBIC_QH,
    CUBIC_R,
    PAIR_F,
    PAIR_F_COMP,
    PAIR_G,
    PAIR_G_COMP,
    PAIR_H,
    PAIR_H_COMP,
    PAIR_R,
    PAIR_S,
)


def _random_cubic(rng, bound):
    return BinaryCubic(*(rng.randint(-bound, bound) for _ in range(4)))


# ----- binary cubic forms -------------------------------------------------


def test_cubic_embed_is_doubly_symmetric():
    rng = random.Random(41)
    for _ in range(40):
        f = _random_cubic(rng, 15)
        c = cubic_embed(f).coeffs
        assert c[1] == c[2] == c[4] and c[3] == c[5] == c[6]
        assert cubic_disc(f) == cube_disc(cubic_embed(f))


def test_worked_cubics_disc_8():
    for f in (CUBIC_F, CUBIC_G, CUBIC_H):
        assert cubic_disc(f) == 8


def test_worked_cubic_companions():
    assert cubic_companion(CUBIC_F) == CUBIC_F_COMP
    assert cubic_companion(CUBIC_G) == CUBIC_G_COMP
    assert cubic_companion(CUBIC_H) == CUBIC_H_COMP


def test_worked_cubic_q_forms():
    assert cubic_q(CUBIC_F) == CUBIC_QF
    assert cubic_q(CUBIC_G) == CUBIC_QG
    assert cubic_q(CUBIC_H) == CUBIC_QH


def test_worked_cubic_composition_verifies():
    assert verify_cubic_composition(CUBIC_F, CUBIC_G, CUBIC_H, CUBIC_R)


def test_perturbed_cubic_witness_fails():
    for i in range(8):
        for d in (1, -1):
            co = list(CUBIC_R.coeffs)
            co[i] += d
            assert not verify_cubic_composition(
                CUBIC_F, CUBIC_G, CUBIC_H, Cube(tuple(co))
            )


def test_cubic_verify_rejects_disc_mismatch_quietly():
    other = BinaryCubic(0, 1, 0, 3)
    assert cubic_disc(other) != 8
    res = verify_cubic_composition(CUBIC_F, CUBIC_G, other, CUBIC_R)
    assert not res.ok
    assert any("disc(h)" in r for r in res.reasons)


def test_syzygy_random_cubics():
    rng = random.Random(11)
    degenerate = 0
    for k in range(120):
        if k % 10 == 3:
            # perfect cubes (px+qy)^3 have discriminant zero and sit on
            # the boundary the syzygy must still cover
            p, q = rng.randint(-6, 6), rng.randint(-6, 6)
            f = BinaryCubic(p**3, p * p * q, p * q * q, q**3)
            assert cubic_disc(f) == 0
            degenerate += 1
        else:
            f = _random_cubic(rng, 20)
        assert syzygy_check(f)
    assert degenerate == 12


def test_cubicovariant_is_doubled_companion():
    rng = random.Random(43)
    for _ in range(25):
        f = _random_cubic(rng, 10)
        eps = cubic_disc(f) % 4
        fp = cubic_companion(f)
        got = cubicovariant(f)
        assert got.coeffs == tuple(
            2 * b + eps * a for a, b in zip(f.coeffs, fp.coeffs)
        )


def test_cubic_identity_embeds_to_identity_cube():
    for D in (-47, -31, -23, -4, 5, 8, 13):
        assert cubic_embed(cubic_identity(D)) == identity_cube(D)
    with pytest.raises(InputError):
        cubic_identity(7)


# ----- cubic class composition ------------------------------------------
#
# Cl(-23) has order 3, so the identity class and either nontrivial class
# generate every composable pattern worth pinning down.


def test_cubic_composition_truth_table_disc_m23():
    fid = cubic_identity(-23)
    f = BinaryCubic(-3, -2, 0, 1)
    ft = BinaryCubic(3, -2, 0, 1)
    assert cubic_disc(f) == cubic_disc(ft) == -23
    tbl = enumerate_class_group(-23)
    cubics = (fid, f, ft)
    classes = [tbl.index_of(cubic_q(x)) for x in cubics]
    assert len(set(classes)) == 3
    for x, i in zip(cubics, classes):
        for y, j in zip(cubics, classes):
            assert tbl.index_of(cubic_q(cubic_class_compose(x, y))) == tbl.table[i][j]


def _projective_cubics(bound):
    """Projective cubics of negative discriminant with coefficients in
    [-bound, bound], grouped by discriminant."""
    by_disc = {}
    for c in itertools.product(range(-bound, bound + 1), repeat=4):
        f = BinaryCubic(*c)
        D = cubic_disc(f)
        if D < 0 and is_projective(cubic_embed(f)):
            by_disc.setdefault(D, []).append(f)
    return by_disc


def _unit_cubes(ring):
    """The cubes of the units of S(D), D < 0: the units are the elements of
    norm 1, and all of them have coordinates in [-1, 1]."""
    units = (ring.element(p, q) for p in (-1, 0, 1) for q in (-1, 0, 1))
    return [u**3 for u in units if u.norm() == 1]


def _assert_sum_in_bhargavas_group(data_f, data_g, k):
    """k = f + g exactly in Bhargava's group of pairs (I, delta) with
    I^3 = delta S up to (kappa I, kappa^3 delta): I_k = kappa I_f I_g, and
    delta_k = kappa^3 delta_f delta_g up to the cube of a unit, which is
    all the freedom kappa has."""
    ring, ideal_k, delta_k = _cubic_ideal_data(k)
    (_, ideal_f, delta_f), (_, ideal_g, delta_g) = data_f, data_g
    kappa = principal_generator(ideal_k * (ideal_f * ideal_g).inverse())
    assert kappa is not None
    assert delta_k / (kappa**3 * delta_f * delta_g) in _unit_cubes(ring)


@pytest.mark.parametrize("D", [-3, -4])
def test_cubic_composition_truth_table_class_number_one(D):
    # h = 1, and the unit groups are the largest there are (6 and 4 roots
    # of unity), so delta is where a composition could go wrong: at D = -3
    # a unit outside the cubes {+1, -1} would change the class.  Every pair
    # of projective cubics in [-2, 2]^4 (12 at D = -3, 28 at D = -4); the
    # order does not matter, since f + g and g + f are built from the same
    # Hermite basis and the same delta
    cubics = _projective_cubics(2)[D]
    assert cubic_identity(D) in cubics
    assert len(cubics) == {-3: 12, -4: 28}[D]
    data = {f: _cubic_ideal_data(f) for f in cubics}
    for f, g in itertools.combinations_with_replacement(cubics, 2):
        _assert_sum_in_bhargavas_group(data[f], data[g], cubic_class_compose(f, g))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.tuples(*(st.integers(-12, 12) for _ in range(4))))
def test_projective_cubic_ideal_cubes_to_delta(coeffs):
    # I_f^3 = delta_f * S, so (I, I, delta^-1 I) is the balanced triple
    # cubic_class_compose builds, at either sign of D
    f = BinaryCubic(*coeffs)
    D = cubic_disc(f)
    assume(not _is_square(D) and is_projective(cubic_embed(f)))
    ring, I, delta = _cubic_ideal_data(f)
    assert (I * I * I).same_module(OrientedIdeal.unit_ideal(ring).scale(delta))


def test_cubic_closure_matches_ideal_oracle():
    # composition closes f + g + h to the identity class exactly when the
    # ideal product I_f I_g I_h is principal; the oracle shares no code with
    # the composition.  f + g is also checked in Bhargava's group.
    by_disc = _projective_cubics(3)
    discs = sorted(D for D, fs in by_disc.items() if len(fs) >= 3 and D < -4)
    rng = random.Random(2323)
    closed = 0
    for _ in range(150):
        D = rng.choice(discs)
        f, g, h = (rng.choice(by_disc[D]) for _ in range(3))
        data_f, data_g = _cubic_ideal_data(f), _cubic_ideal_data(g)
        k = cubic_class_compose(f, g)
        _assert_sum_in_bhargavas_group(data_f, data_g, k)
        total = reduce(cubic_q(cubic_class_compose(k, h))).canonical
        ideal = data_f[1] * data_g[1] * _cubic_ideal_data(h)[1]
        expected = principal_generator(ideal) is not None
        assert (total == reduce(principal_form(D)).canonical) == expected
        closed += expected
    assert 0 < closed < 150


def test_cubic_composition_returns_a_cubic():
    fid = cubic_identity(-23)
    f = BinaryCubic(-3, -2, 0, 1)
    k = cubic_class_compose(fid, f)
    assert isinstance(k, BinaryCubic)
    assert cubic_disc(k) == -23 and is_projective(cubic_embed(k))
    assert reduce(cubic_q(k)).canonical == reduce(cubic_q(f)).canonical


def test_cubic_composition_at_positive_disc():
    # the twisted D = 8 cubics of the worked cubic composition
    k = cubic_class_compose(CUBIC_F, CUBIC_G)
    assert cubic_disc(k) == 8 and is_projective(cubic_embed(k))
    assert reduce(cubic_q(k)).canonical == compose_dirichlet(CUBIC_QF, CUBIC_QG)


def test_cubic_composition_rejects_imprimitive():
    doubled = BinaryCubic(-6, -4, 0, 2)
    assert cubic_disc(doubled) == -368
    assert not is_projective(cubic_embed(doubled))
    with pytest.raises(InputError):
        cubic_class_compose(doubled, doubled)


def test_cubic_composition_rejects_mixed_disc():
    fid = cubic_identity(-23)
    other = cubic_identity(-31)
    with pytest.raises(InputError):
        cubic_class_compose(fid, other)


# ----- pairs of binary quadratic forms ------------------------------------


def test_pair_requires_even_middles():
    with pytest.raises(InputError):
        PairBQF(BQF(1, 1, 1), BQF(0, 2, 0))
    with pytest.raises(InputError):
        PairBQF(BQF(0, 2, 0), BQF(1, -3, 1))


def test_pair_evaluation_convention():
    assert PAIR_F((1, 0), (1, 1)) == PAIR_F.f1(1, 1)
    assert PAIR_F((0, 1), (2, -1)) == PAIR_F.f2(2, -1)
    assert PAIR_F((1, 1), (1, 0)) == PAIR_F.f1(1, 0) + PAIR_F.f2(1, 0)


def test_worked_pairs_disc_m31():
    for F in (PAIR_F, PAIR_G, PAIR_H):
        assert pair_disc(F) == -31


def test_worked_pair_embed():
    assert pair_embed(PAIR_F) == Cube((0, 40, 40, -63, 1, -15, -15, 23))


def test_worked_pair_companions():
    assert pair_companion(PAIR_F) == PAIR_F_COMP
    assert pair_companion(PAIR_G) == PAIR_G_COMP
    assert pair_companion(PAIR_H) == PAIR_H_COMP


def test_worked_pair_composition_verifies():
    assert verify_pair_composition(PAIR_F, PAIR_G, PAIR_H, PAIR_R, PAIR_S)


def test_perturbed_pair_witness_fails():
    for i in range(8):
        co = list(PAIR_R.coeffs)
        co[i] += 1
        assert not verify_pair_composition(
            PAIR_F, PAIR_G, PAIR_H, Cube(tuple(co)), PAIR_S
        )
        co = list(PAIR_S.coeffs)
        co[i] += 1
        assert not verify_pair_composition(
            PAIR_F, PAIR_G, PAIR_H, PAIR_R, Cube(tuple(co))
        )


def test_pair_identity_embeds_to_identity_cube():
    for D in (-47, -31, -4, 5, 8, 13):
        assert pair_embed(pair_identity(D)) == identity_cube(D)
    with pytest.raises(InputError):
        pair_identity(-2)
