"""The ten acceptance checks, one test each, `pytest -v` for the line list.

Every check is exact; the only tolerances anywhere are the wall-time
ceilings, and those are generous against observed runtimes.
"""

import random
import time
from pathlib import Path

from cubecomp.altforms import (
    verify_quaternary_composition,
    verify_senary_identity,
)
from cubecomp.bqf import (
    bqf_to_ideal,
    compose_dirichlet,
    enumerate_class_group,
    ideal_to_bqf,
)
from cubecomp.cubes import (
    Cube,
    assoc_forms,
    companion_cube,
    cube_disc,
    cube_to_triple,
    dual_cubes_solve,
    lemmermeyer_identity,
    triple_to_cube,
    verify_cube_composition,
)
from cubecomp.symspaces import (
    BinaryCubic,
    cubic_companion,
    cubic_disc,
    pair_companion,
    pair_disc,
    syzygy_check,
    verify_cubic_composition,
    verify_pair_composition,
)
from tests.worked_examples import (
    CUBE_A,
    CUBE_B,
    CUBE_C,
    CUBE_FORMS,
    CUBE_R,
    CUBE_S,
    CUBE_T,
    CUBIC_F,
    CUBIC_F_COMP,
    CUBIC_G,
    CUBIC_G_COMP,
    CUBIC_H,
    CUBIC_H_COMP,
    CUBIC_R,
    PAIR_F,
    PAIR_F_COMP,
    PAIR_G,
    PAIR_G_COMP,
    PAIR_H,
    PAIR_H_COMP,
    PAIR_R,
    PAIR_S,
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


def test_criterion_01_worked_cube_composition():
    t0 = time.perf_counter()
    res = verify_cube_composition(CUBE_A, CUBE_B, CUBE_C, CUBE_R, CUBE_S, CUBE_T)
    elapsed = time.perf_counter() - t0
    assert res.ok, res.reasons
    for cube, row in (
        (CUBE_A, CUBE_FORMS["A"]),
        (CUBE_B, CUBE_FORMS["B"]),
        (CUBE_C, CUBE_FORMS["C"]),
    ):
        assert assoc_forms(cube) == row
    assert elapsed < 1.0


def test_criterion_02_worked_cubic_composition():
    assert CUBIC_R == Cube((0, -1, -1, -1, 1, 1, 0, 2))
    assert cubic_companion(CUBIC_F) == CUBIC_F_COMP
    assert cubic_companion(CUBIC_G) == CUBIC_G_COMP
    assert cubic_companion(CUBIC_H) == CUBIC_H_COMP
    assert verify_cubic_composition(CUBIC_F, CUBIC_G, CUBIC_H, CUBIC_R)
    for f in (CUBIC_F, CUBIC_G, CUBIC_H):
        assert cubic_disc(f) == 8


def test_criterion_03_worked_pair_composition():
    assert pair_companion(PAIR_F) == PAIR_F_COMP
    assert pair_companion(PAIR_G) == PAIR_G_COMP
    assert pair_companion(PAIR_H) == PAIR_H_COMP
    assert pair_disc(PAIR_F) == -31
    assert verify_pair_composition(PAIR_F, PAIR_G, PAIR_H, PAIR_R, PAIR_S)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    # the slot convention this worked example pins down must be documented
    assert "both witness slots" in " ".join(readme.split())


def test_criterion_04_worked_quaternary_composition():
    assert companion_cube(QUAT_A) == QUAT_A_COMP
    assert companion_cube(QUAT_B) == QUAT_B_COMP
    assert companion_cube(QUAT_C) == QUAT_C_COMP
    assert cube_disc(QUAT_A) == -47
    assert verify_quaternary_composition(
        QUAT_A, QUAT_B, QUAT_C, QUAT_R, QUAT_S, QUAT_T
    )


def test_criterion_05_senary_identity_small_discriminants():
    for D in SENARY_DISCS:
        t0 = time.perf_counter()
        assert verify_senary_identity(D)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_06_syzygy_500_random_cubics():
    rng = random.Random(620)
    checked = 0
    degenerate = 0
    while checked < 500:
        if checked % 10 == 3:
            # planted triple roots: m (p x + q y)^3 stays within the
            # coefficient bound and has discriminant zero
            m = rng.choice((1, -1, 2, -2))
            p, q = rng.randint(-2, 2), rng.randint(-2, 2)
            f = BinaryCubic(m * p**3, m * p * p * q, m * p * q * q, m * q**3)
        else:
            f = BinaryCubic(*(rng.randint(-20, 20) for _ in range(4)))
        assert all(abs(c) <= 20 for c in f.coeffs)
        if cubic_disc(f) == 0:
            degenerate += 1
        assert syzygy_check(f)
        checked += 1
    assert degenerate >= 50


def test_criterion_07_gauss_identity_500_random_cubes():
    rng = random.Random(720)
    for _ in range(500):
        A = Cube([rng.randint(-20, 20) for _ in range(8)])
        _, _, ok = lemmermeyer_identity(A)
        assert ok


def test_criterion_08_class_group_oracle():
    for D, want in ((-47, 5), (-23, 3), (-4, 1), (8, 1)):
        tbl = enumerate_class_group(D)
        if D < 0:
            assert sum(1 for Q in tbl.representatives if Q.a > 0) == want
        else:
            assert len(tbl.representatives) == want
        n = len(tbl.representatives)
        e = tbl.identity_index()
        for i in range(n):
            assert tbl.table[i][e] == tbl.table[e][i] == i
            inv = tbl.table[i].index(e)
            assert tbl.table[i][inv] == e
            for j in range(n):
                assert tbl.table[i][j] == tbl.table[j][i]
                for k in range(n):
                    ij, jk = tbl.table[i][j], tbl.table[j][k]
                    assert tbl.table[ij][k] == tbl.table[i][jk]

    for D in (-47, -23):
        tbl = enumerate_class_group(D)
        n = len(tbl.representatives)
        for i in range(n):
            for j in range(n):
                Qi, Qj = tbl.representatives[i], tbl.representatives[j]
                direct = tbl.index_of(compose_dirichlet(Qi, Qj))
                prod = bqf_to_ideal(Qi) * bqf_to_ideal(Qj)
                assert direct == tbl.index_of(ideal_to_bqf(prod))


def test_criterion_09_dual_solver_on_worked_triple():
    t0 = time.perf_counter()
    witness = dual_cubes_solve(CUBE_A, CUBE_B, CUBE_C)
    res = verify_cube_composition(CUBE_A, CUBE_B, CUBE_C, *witness.cubes())
    elapsed = time.perf_counter() - t0
    assert res.ok, res.reasons
    # the published witness is one valid answer among the automorphic
    # family; it must verify too, equality of coefficients not required
    assert verify_cube_composition(
        CUBE_A, CUBE_B, CUBE_C, CUBE_R, CUBE_S, CUBE_T
    ).ok
    assert elapsed < 5.0


def test_criterion_10_triple_round_trip():
    worked = (
        CUBE_A, CUBE_B, CUBE_C, CUBE_R, CUBE_S, CUBE_T,
        QUAT_A, QUAT_B, QUAT_C, QUAT_S, QUAT_T,
    )
    for A in worked:
        t = cube_to_triple(A)
        assert triple_to_cube(t) == A

    rng = random.Random(1035)
    done = 0
    while done < 200:
        A = Cube([rng.randint(-20, 20) for _ in range(8)])
        if cube_disc(A) == 0:
            continue
        t = cube_to_triple(A)
        assert triple_to_cube(t) == A
        done += 1
