import itertools
import random

import pytest

from cubecomp.altforms import (
    QuatAltPair,
    SenaryAlt3,
    quat_companion,
    pair_pfaffian_form,
    pfaffian,
    phi,
    senary_eval,
    senary_identity_pair,
    verify_quaternary_composition,
    verify_senary_identity,
    wedge222,
)
from cubecomp.cubes import (
    Cube,
    assoc_form,
    companion_cube,
    cube_disc,
    identity_cube,
)
from cubecomp.exact import InputError, MultiForm
from tests.worked_examples import (
    QUAT_A,
    QUAT_A_COMP,
    QUAT_B,
    QUAT_B_COMP,
    QUAT_C,
    QUAT_C_COMP,
    QUAT_R,
    QUAT_S,
    QUAT_T,
    SENARY_DISCS,
)


def _basis(n, i):
    v = [0] * n
    v[i] = 1
    return tuple(v)


def _det4(m):
    total = 0
    for perm in itertools.permutations(range(4)):
        sign = 1
        p = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    sign = -sign
        total += sign * m[0][perm[0]] * m[1][perm[1]] * m[2][perm[2]] * m[3][perm[3]]
    return total


# ----- alternating pairs --------------------------------------------------


def test_alternating_matrices_validated():
    good = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 2), (0, 0, -2, 0))
    QuatAltPair(good, good)
    with pytest.raises(InputError):
        QuatAltPair(good, ((1, 0, 0, 0),) * 4)
    skew_broken = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 2), (0, 0, -2, 0))
    with pytest.raises(InputError):
        QuatAltPair(skew_broken, good)
    with pytest.raises(InputError):
        QuatAltPair(((0, 1), (-1, 0)), good)


def test_pfaffian_square_is_determinant():
    rng = random.Random(5)
    for _ in range(40):
        entries = {
            (i, j): rng.randint(-9, 9) for i in range(4) for j in range(i + 1, 4)
        }
        m = tuple(
            tuple(
                0
                if i == j
                else entries[(i, j)]
                if i < j
                else -entries[(j, i)]
                for j in range(4)
            )
            for i in range(4)
        )
        assert pfaffian(m) ** 2 == _det4(m)


def test_pfaffian_of_symplectic_block():
    # the classical expansion m12 m34 - m13 m24 + m14 m23 puts the
    # standard symplectic matrix at -1; this is the sign that makes the
    # pair Pfaffian form reproduce Q1 below
    block = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
    assert pfaffian(block) == -1


def test_phi_is_partial_skew_symmetrization():
    A = QUAT_A
    P = phi(A)
    av = MultiForm((2, 4, 4), [t for m in (P.f1, P.f2) for row in m for t in row])
    f = MultiForm((2, 2, 2), A.coeffs)
    for x, y, z in itertools.product(range(2), range(4), range(4)):
        ex, ey, ez = _basis(2, x), _basis(4, y), _basis(4, z)
        left = av.eval((ex, ey, ez))
        right = f.eval((ex, ey[:2], ez[2:])) - f.eval((ex, ez[:2], ey[2:]))
        assert left == right


def test_pair_pfaffian_form_recovers_q1():
    rng = random.Random(6)
    for _ in range(60):
        A = Cube(tuple(rng.randint(-9, 9) for _ in range(8)))
        assert pair_pfaffian_form(phi(A)) == assoc_form(A, 1)
        assert pair_pfaffian_form(phi(A)).disc() == cube_disc(A)


def test_pair_companion_intertwines_with_cube_companion():
    rng = random.Random(8)
    checked = 0
    while checked < 60:
        A = Cube(tuple(rng.randint(-9, 9) for _ in range(8)))
        if cube_disc(A) == 0:
            continue
        assert quat_companion(phi(A)) == phi(companion_cube(A))
        checked += 1


# ----- the quaternary worked composition at discriminant -47 --------------


def test_worked_quaternary_companion_cubes():
    assert companion_cube(QUAT_A) == QUAT_A_COMP
    assert companion_cube(QUAT_B) == QUAT_B_COMP
    assert companion_cube(QUAT_C) == QUAT_C_COMP


def test_worked_quaternary_composition_verifies():
    assert verify_quaternary_composition(
        QUAT_A, QUAT_B, QUAT_C, QUAT_R, QUAT_S, QUAT_T
    )


def test_perturbed_quaternary_witness_fails():
    for name in ("R", "S", "T"):
        base = {"R": QUAT_R, "S": QUAT_S, "T": QUAT_T}
        for i in range(8):
            co = list(base[name].coeffs)
            co[i] += 1
            args = dict(base)
            args[name] = Cube(tuple(co))
            assert not verify_quaternary_composition(
                QUAT_A, QUAT_B, QUAT_C, args["R"], args["S"], args["T"]
            )


def test_quaternary_needs_doubly_symmetric_first_cube():
    # QUAT_C has unequal mixed coefficients, so its alternating image
    # does not represent the cube faithfully
    with pytest.raises(InputError):
        verify_quaternary_composition(
            QUAT_C, QUAT_B, QUAT_A, QUAT_R, QUAT_S, QUAT_T
        )


# ----- senary alternating 3-forms -----------------------------------------


def test_senary_coefficient_count_enforced():
    with pytest.raises(InputError):
        SenaryAlt3((1, 2, 3))


def test_senary_coeff_signs():
    E = SenaryAlt3(tuple(range(1, 21)))
    assert E.coeff(0, 1, 2) == 1
    assert E.coeff(1, 0, 2) == -1
    assert E.coeff(2, 1, 0) == -1
    assert E.coeff(1, 2, 0) == 1
    assert E.coeff(0, 0, 5) == 0


def test_senary_eval_alternates():
    rng = random.Random(9)
    E = SenaryAlt3(tuple(rng.randint(-5, 5) for _ in range(20)))
    x = tuple(rng.randint(-4, 4) for _ in range(6))
    y = tuple(rng.randint(-4, 4) for _ in range(6))
    z = tuple(rng.randint(-4, 4) for _ in range(6))
    assert senary_eval(E, x, y, z) == -senary_eval(E, y, x, z)
    assert senary_eval(E, x, y, z) == -senary_eval(E, x, z, y)
    assert senary_eval(E, x, x, z) == 0
    assert E(x, y, z) == senary_eval(E, x, y, z)


def test_wedge222_places_cube_on_block_triples():
    A = QUAT_A
    E = wedge222(A)
    for i, j, k in itertools.product(range(2), repeat=3):
        ei = _basis(6, i)
        ej = _basis(6, 2 + j)
        ek = _basis(6, 4 + k)
        assert senary_eval(E, ei, ej, ek) == A.coeff(i, j, k)
    # nothing lands outside the block pattern
    nonzero = {t for t, c in zip(itertools.combinations(range(6), 3), E.coeffs) if c}
    assert nonzero <= {(i, 2 + j, 4 + k) for i, j, k in itertools.product(range(2), repeat=3)}


def test_senary_identity_pair_matches_wedge_of_identity_cube():
    for D in SENARY_DISCS:
        E, Ep = senary_identity_pair(D)
        assert E == wedge222(identity_cube(D))
        assert Ep == wedge222(companion_cube(identity_cube(D)))


def test_senary_identity_verifies_across_discriminants():
    for D in SENARY_DISCS:
        assert verify_senary_identity(D)


def test_senary_identity_verifies_at_square_discriminants():
    # the identity needs no domain: it holds at D = 0 and the other squares
    for D in (0, 1, 4, 9, 16):
        assert verify_senary_identity(D).ok
