import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubecomp import cubes
from cubecomp.bqf import (
    BQF,
    _is_square,
    bqf_to_ideal,
    compose_dirichlet,
    enumerate_class_group,
    ideal_class_equal,
    principal_form,
    reduce,
)
from cubecomp.cubes import (
    BalancedTriple,
    Cube,
    assoc_form,
    assoc_forms,
    companion_L,
    companion_cube,
    cube_class_compose,
    cube_disc,
    cube_to_triple,
    cube_variants,
    dual_cubes_solve,
    gamma_act,
    identity_cube,
    is_projective,
    lemmermeyer_identity,
    slices,
    triple_to_cube,
    verify_cube_composition,
)
from cubecomp.exact import (
    InputError,
    InternalError,
    MultiForm,
    UnsupportedDomainError,
)
from cubecomp.qring import KElem, OrientedIdeal, QuadraticRing
from tests.worked_examples import (
    CUBE_A,
    CUBE_B,
    CUBE_C,
    CUBE_FORMS,
    CUBE_R,
    CUBE_S,
    CUBE_T,
)


def _random_cube(rng, bound=20):
    return Cube([rng.randint(-bound, bound) for _ in range(8)])


def _random_nondeg_cube(rng, bound=20):
    while True:
        A = _random_cube(rng, bound)
        if cube_disc(A) != 0:
            return A


# ----- slicing and associated forms ---------------------------------------


def test_slices_reassemble_the_cube():
    A = Cube(range(8))
    M, N = slices(A, 0)
    assert M == ((0, 1), (2, 3)) and N == ((4, 5), (6, 7))


def test_worked_example_disc_m47_forms():
    for name, X in (("A", CUBE_A), ("B", CUBE_B), ("C", CUBE_C)):
        assert assoc_forms(X) == CUBE_FORMS[name]
        assert cube_disc(X) == -47
        assert is_projective(X)


def test_three_assoc_forms_share_disc():
    rng = random.Random(31)
    for _ in range(100):
        A = _random_cube(rng)
        d1, d2, d3 = (q.disc() for q in assoc_forms(A))
        assert d1 == d2 == d3 == cube_disc(A)


def test_identity_cube_forms():
    A = identity_cube(-47)
    assert assoc_forms(A) == (BQF(1, -1, 12),) * 3
    # same class as the principal form even though the sign of b differs
    assert reduce(BQF(1, -1, 12)).canonical == principal_form(-47)
    with pytest.raises(InputError):
        identity_cube(-5)


def test_gamma_action_preserves_disc_and_form_classes():
    rng = random.Random(32)
    shears = (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 0), (-1, 1)),
              ((0, -1), (1, 0)), ((2, 1), (1, 1)))
    checked = 0
    while checked < 60:
        A = _random_nondeg_cube(rng, 9)
        d = cube_disc(A)
        if d > 0 and int(d**0.5 + 0.5) ** 2 == d:
            continue  # square discs fall outside the reduction theory
        g = tuple(shears[rng.randrange(len(shears))] for _ in range(3))
        B = gamma_act(A, *g)
        assert cube_disc(B) == d
        for i in (1, 2, 3):
            lhs = reduce(assoc_form(B, i)).canonical
            assert lhs == reduce(assoc_form(A, i)).canonical
        checked += 1


big = st.integers(-(10**30), 10**30)
# SL2 matrices (1 + st, s; t, 1) with entries up to about 10^18
big_sl2 = st.builds(
    lambda s, t: ((1 + s * t, s), (t, 1)),
    st.integers(-(10**9), 10**9),
    st.integers(-(10**9), 10**9),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    st.lists(st.one_of(st.integers(-9, 9), big), min_size=8, max_size=8),
    st.tuples(big_sl2, big_sl2, big_sl2),
)
def test_slot_substitution_matches_multiform(coeffs, gs):
    # gamma_act and companion_cube against MultiForm.substitute, the
    # general-tensor construction, on coefficients up to 10^30
    A = Cube(coeffs)
    f = MultiForm((2, 2, 2), coeffs)
    for slot, ((p, q), (r, s)) in enumerate(gs):
        f = f.substitute(slot, ((p, r), (q, s)))
    assert gamma_act(A, *gs) == Cube(f.coeffs)
    f = MultiForm((2, 2, 2), coeffs)
    via = [f.substitute(slot, L).coeffs for slot, L in enumerate(companion_L(A))]
    assert via[0] == via[1] == via[2]
    assert companion_cube(A) == Cube(via[0])


def test_variant_involutions():
    rng = random.Random(33)
    for _ in range(30):
        A = _random_cube(rng)
        plainflip, sigma, tilde = cube_variants(A)
        # the half-swap composed with itself is the identity
        assert cube_variants(plainflip)[0] == A
        assert cube_variants(tilde)[2] == A
        # sigma twice is global negation
        assert cube_variants(sigma)[1] == Cube([-c for c in A.coeffs])


# ----- companion ----------------------------------------------------------


def test_companion_interplay_with_l_matrices():
    # A'(L_i applied in slot i) + eps*A' = ((D-eps)/4) * A, every slot;
    # the eps term drops out exactly when D is 0 mod 4
    rng = random.Random(34)
    checked = 0
    while checked < 60:
        A = _random_cube(rng, 9)
        D = cube_disc(A)
        if D == 0:
            continue
        eps = D % 4
        m = (D - eps) // 4
        fa = MultiForm((2, 2, 2), A.coeffs)
        fap = MultiForm((2, 2, 2), companion_cube(A).coeffs)
        rhs = fa.scale(m)
        for slot, L in enumerate(companion_L(A)):
            lhs = fap.substitute(slot, L)
            if eps:
                lhs = lhs + fap.scale(eps)
            assert lhs == rhs
        if eps == 0:
            assert fap.substitute(0, companion_L(A)[0]) == rhs
        checked += 1


# ----- the identity carried by every cube ---------------------------------


def test_gauss_instance_on_worked_cubes():
    for X in (CUBE_A, CUBE_B, CUBE_C, CUBE_R, CUBE_S, CUBE_T):
        _, _, ok = lemmermeyer_identity(X)
        assert ok


def test_gauss_instance_on_random_cubes():
    rng = random.Random(35)
    for _ in range(150):
        _, _, ok = lemmermeyer_identity(_random_cube(rng))
        assert ok


# ----- composition verification -------------------------------------------


def test_worked_composition_verifies():
    res = verify_cube_composition(CUBE_A, CUBE_B, CUBE_C, CUBE_R, CUBE_S, CUBE_T)
    assert res.ok and not res.reasons


def test_perturbed_witness_fails_with_tuple_reason():
    for pos in range(8):
        coeffs = list(CUBE_R.coeffs)
        coeffs[pos] += 1
        res = verify_cube_composition(
            CUBE_A, CUBE_B, CUBE_C, Cube(coeffs), CUBE_S, CUBE_T
        )
        assert not res.ok
        assert any("basis tuple" in r for r in res.reasons)


def test_perturbed_inputs_fail():
    for pos in (0, 3, 7):
        coeffs = list(CUBE_B.coeffs)
        coeffs[pos] -= 1
        res = verify_cube_composition(
            CUBE_A, Cube(coeffs), CUBE_C, CUBE_R, CUBE_S, CUBE_T
        )
        assert not res.ok


# ----- cubes <-> balanced triples -----------------------------------------


def test_triple_round_trip_on_worked_cubes():
    for X in (CUBE_A, CUBE_B, CUBE_C):
        assert triple_to_cube(cube_to_triple(X)) == X


def test_triple_round_trip_random_including_nonprojective():
    rng = random.Random(36)
    seen_nonprojective = False
    for _ in range(40):
        A = _random_nondeg_cube(rng)
        seen_nonprojective = seen_nonprojective or not is_projective(A)
        assert triple_to_cube(cube_to_triple(A)) == A
    assert seen_nonprojective


# the first slice M_1 has rank <= 1, so Q1 has a = -det(M_1) = 0 and D = b^2
_square_disc_cubes = st.builds(
    lambda u0, u1, v0, v1, n: [u0 * v0, u0 * v1, u1 * v0, u1 * v1, *n],
    *(st.integers(-4, 4) for _ in range(4)),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.one_of(
    st.lists(st.integers(-8, 8), min_size=8, max_size=8), _square_disc_cubes
))
def test_triple_round_trip_every_nondegenerate_cube(coeffs):
    # square discriminants included: there a corner norm can vanish and a
    # shear is needed in one, two or all three directions
    A = Cube(coeffs)
    assume(cube_disc(A) != 0)
    t = cube_to_triple(A)
    assert triple_to_cube(t) == A
    # the slice law N(I_1) beta_j gamma_k = a_2jk conj(alpha_1) -
    # a_1jk conj(alpha_2), which the round trip implies
    (a1, a2), be, ga = t.bases
    n1 = t.ideals[0].norm()
    for j, k in itertools.product((0, 1), repeat=2):
        rhs = A.coeff(1, j, k) * a1.conj() - A.coeff(0, j, k) * a2.conj()
        assert n1 * (be[j] * ga[k]) == rhs


def _corrupt_alpha1(monkeypatch, shift):
    """Make cube_to_triple build alpha_1 + shift(ring) for alpha_1: it is
    the first of the four corner elements made through cubes.KElem."""
    real = cubes.KElem
    calls = itertools.count()

    def corrupted(ring, p, q=0, d=1):
        x = real(ring, p, q, d)
        return x + shift(ring) if next(calls) % 4 == 0 else x

    monkeypatch.setattr(cubes, "KElem", corrupted)


def _alpha2_of_cube_a(ring):
    return KElem(ring, companion_cube(CUBE_A).coeffs[4], CUBE_A.coeffs[4])


@pytest.mark.parametrize(
    "shift, message",
    [
        # the alpha basis loses its norm: BalancedTriple rejects it
        (lambda ring: 1, "norms multiply to 1/2"),
        # (alpha_1 + alpha_2, alpha_2) spans the same oriented ideal, so the
        # triple is balanced, but it is the triple of another cube
        (_alpha2_of_cube_a, "does not give back its cube"),
    ],
    ids=["alpha1+1", "alpha1+alpha2"],
)
def test_corrupted_corner_is_an_internal_error(monkeypatch, shift, message):
    _corrupt_alpha1(monkeypatch, shift)
    with pytest.raises(InternalError, match=message):
        cube_to_triple(CUBE_A)


def test_triple_round_trip_needs_shears_in_every_direction():
    # D = 4; Q1(0,1), Q2(1,0) and Q3(0,1) all vanish, so each of the three
    # directions needs its own shear before alpha_2 and beta_1 are units
    A = Cube((-4, 0, -3, -2, -1, 0, -4, 0))
    assert cube_disc(A) == 4
    assert triple_to_cube(cube_to_triple(A)) == A


def test_identity_cube_triple_is_principal():
    t = cube_to_triple(identity_cube(-47))
    unit = OrientedIdeal.unit_ideal(t.ring)
    for ideal in t.ideals:
        assert ideal_class_equal(ideal, unit)


def test_balanced_triple_rejects_norm_imbalance():
    ring = QuadraticRing(-47)
    one, tau = ring.one(), ring.tau()
    with pytest.raises(InputError):
        BalancedTriple(ring, (((one + one), tau), (one, tau), (one, tau)))


def test_balanced_triple_rejects_product_outside_the_ring():
    # N(P) N(P/2) N(S) = 2 * 1/2 * 1 = 1, but P^2/2 is not inside S
    ring = QuadraticRing(-47)
    P = bqf_to_ideal(BQF(2, 1, 6)).basis
    half = [b / 2 for b in P]
    with pytest.raises(InputError, match="does not land in the ring"):
        BalancedTriple(ring, (P, half, (ring.one(), ring.tau())))


def test_rescaled_triple_gives_equivalent_cube():
    t = cube_to_triple(CUBE_A)
    ring = t.ring
    kappa = KElem(ring, 1, 1)
    bases = [list(p) for p in t.bases]
    bases[0] = [b * kappa for b in bases[0]]
    bases[1] = [b / kappa for b in bases[1]]
    A2 = triple_to_cube(BalancedTriple(ring, bases))
    assert cube_disc(A2) == -47
    tbl = enumerate_class_group(-47)
    for i in (1, 2, 3):
        assert tbl.index_of(assoc_form(A2, i)) == tbl.index_of(
            assoc_form(CUBE_A, i)
        )


def test_degenerate_cube_has_no_triple():
    with pytest.raises(InputError):
        cube_to_triple(Cube((1, 0, 0, 0, 0, 0, 0, 0)))


# ----- class arithmetic and the dual solver -------------------------------


def test_compose_with_identity_class():
    tbl = enumerate_class_group(-47)
    Aid = identity_cube(-47)
    for X in (CUBE_A, CUBE_B, CUBE_C):
        Y = cube_class_compose(Aid, X)
        for i in (1, 2, 3):
            assert tbl.index_of(assoc_form(Y, i)) == tbl.index_of(
                assoc_form(X, i)
            )


def test_compose_matches_form_table():
    tbl = enumerate_class_group(-47)
    Y = cube_class_compose(CUBE_A, CUBE_B)
    i1 = tbl.index_of(assoc_form(CUBE_A, 1))
    i2 = tbl.index_of(assoc_form(CUBE_B, 1))
    assert tbl.index_of(assoc_form(Y, 1)) == tbl.table[i1][i2]


def test_compose_at_positive_disc():
    # the D = 8 witness cube of the worked cubic composition, and its
    # composite with the identity
    A = Cube((0, -1, -1, -1, 1, 1, 0, 2))
    assert cube_disc(A) == 8
    for B in (A, identity_cube(8)):
        C = cube_class_compose(A, B)
        for i in (1, 2, 3):
            expected = compose_dirichlet(assoc_form(A, i), assoc_form(B, i))
            assert reduce(assoc_form(C, i)).canonical == expected


def test_compose_square_disc_unsupported():
    # D = 4, and D = 0, where the cube has no triple at all
    for A in (Cube((-4, 0, -3, -2, -1, 0, -4, 0)), identity_cube(0)):
        with pytest.raises(UnsupportedDomainError):
            cube_class_compose(A, A)


def test_dual_solver_on_worked_triple():
    w = dual_cubes_solve(CUBE_A, CUBE_B, CUBE_C)
    assert verify_cube_composition(CUBE_A, CUBE_B, CUBE_C, *w.cubes()).ok


def test_dual_solver_on_principal_triple():
    Aid = identity_cube(-47)
    w = dual_cubes_solve(Aid, Aid, Aid)
    pr = reduce(principal_form(-47)).canonical
    for X in w.cubes():
        for i in (1, 2, 3):
            assert reduce(assoc_form(X, i)).canonical == pr


def test_dual_solver_rejects_noncomposable():
    with pytest.raises(InputError):
        dual_cubes_solve(CUBE_A, CUBE_A, CUBE_A)


def _random_sl2(rng, bound):
    s, t = rng.randint(-bound, bound), rng.randint(-bound, bound)
    return ((1 + s * t, s), (t, 1))


def test_dual_solver_at_positive_disc():
    # 40 composable triples (A, A + A, tilde(A + A + A)) at distinct
    # nonsquare D > 0; every other triple has each cube moved by a random
    # element of SL2^3, which keeps its classes and changes its bases
    rng = random.Random(4040)
    seen = set()
    while len(seen) < 40:
        A = _random_cube(rng, 3)
        D = cube_disc(A)
        if D <= 0 or D in seen or not is_projective(A) or _is_square(D):
            continue
        B = cube_class_compose(A, A)
        C = cube_variants(cube_class_compose(A, B))[2]
        triple = [A, B, C]
        if len(seen) % 2:
            triple = [
                gamma_act(X, *(_random_sl2(rng, 30) for _ in range(3)))
                for X in triple
            ]
        w = dual_cubes_solve(*triple)
        assert verify_cube_composition(*triple, *w.cubes()).ok, triple
        seen.add(D)
