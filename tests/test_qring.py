import random
from fractions import Fraction

import pytest

from cubecomp.exact import InputError
from cubecomp.qring import (
    KElem,
    OrientedIdeal,
    QuadraticRing,
    _rational_cube_root,
    kelem_cube_root,
    principal_generator,
)


def test_ring_construction_and_tau_relation():
    for D in (-47, -23, -4, -3, 5, 8, 13):
        ring = QuadraticRing(D)
        tau = ring.tau()
        assert tau * tau == ring.eps * tau + (D - ring.eps) // 4
    with pytest.raises(InputError):
        QuadraticRing(7)


def test_kelem_field_ops():
    ring = QuadraticRing(-23)
    x = ring.element(3, -2)
    y = ring.element(-1, 5)
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x / y) * y == x
    assert x * x.conj() == KElem(ring, x.norm())
    assert x + x.conj() == KElem(ring, x.trace())


def test_norm_and_trace_are_multiplicative_additive():
    rng = random.Random(23)
    ring = QuadraticRing(-47)
    for _ in range(60):
        x = ring.element(rng.randint(-9, 9), rng.randint(-9, 9))
        y = ring.element(rng.randint(-9, 9), rng.randint(-9, 9))
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x + y).trace() == x.trace() + y.trace()


def test_torsion_units():
    assert len(QuadraticRing(-3).torsion_units()) == 6
    assert len(QuadraticRing(-4).torsion_units()) == 4
    assert len(QuadraticRing(-47).torsion_units()) == 2
    assert len(QuadraticRing(8).torsion_units()) == 2
    for u in QuadraticRing(-3).torsion_units():
        assert u.norm() == 1 or u.norm() == -1


def test_cube_root_round_trip():
    rng = random.Random(81)
    ring = QuadraticRing(-23)
    for _ in range(40):
        x = ring.element(rng.randint(-6, 6), rng.randint(-6, 6))
        r = kelem_cube_root(x * x * x)
        assert r is not None
        assert r * r * r == x * x * x


def test_cube_root_rejects_non_cubes():
    ring = QuadraticRing(-23)
    # tau has norm 6; 6 is not a rational cube, so tau cannot be one either
    assert kelem_cube_root(ring.tau()) is None
    assert kelem_cube_root(ring.element(2)) is None


def test_rational_cube_root_of_large_integers():
    # 3^45 and 3^54 lie past 2^52, where a float seed loses the root
    for b in (3**15, 3**18, 10**20 - 1, 10**20, 10**20 + 7):
        n = b**3
        assert _rational_cube_root(Fraction(n)) == b
        assert _rational_cube_root(Fraction(-n, 8)) == Fraction(-b, 2)
        assert _rational_cube_root(Fraction(n + 1)) is None
        assert _rational_cube_root(Fraction(n - 1)) is None
    assert _rational_cube_root(Fraction(0)) == 0
    assert _rational_cube_root(Fraction(1, 27)) == Fraction(1, 3)


def test_ordered_basis_orientation():
    ring = QuadraticRing(-47)
    one, tau = ring.one(), ring.tau()
    assert OrientedIdeal.from_ordered_basis(ring, (one, tau)).mu == 1
    assert OrientedIdeal.from_ordered_basis(ring, (tau, one)).mu == -1
    with pytest.raises(InputError):
        OrientedIdeal.from_ordered_basis(ring, (one, one + one))


def test_ideal_norm_multiplicativity():
    rng = random.Random(4747)
    ring = QuadraticRing(-47)
    made = 0
    while made < 40:
        els = [
            ring.element(rng.randint(-7, 7), rng.randint(-7, 7))
            for _ in range(4)
        ]
        try:
            I = OrientedIdeal.from_ordered_basis(ring, els[:2])
            J = OrientedIdeal.from_ordered_basis(ring, els[2:])
        except InputError:
            continue
        made += 1
        assert (I * J).norm() == I.norm() * J.norm()


def test_hnf_basis_is_stable_and_equal():
    ring = QuadraticRing(-23)
    # same lattice as <2, tau>, written in a sheared basis
    I = OrientedIdeal.from_ordered_basis(
        ring, (ring.element(2, 1), ring.tau())
    )
    H = I.hnf_basis()
    assert H.same_module(I)
    assert H.mu == I.mu
    assert H.hnf_basis().basis == H.basis


def test_principal_generator_recovers_scaling():
    ring = QuadraticRing(-47)
    g = ring.element(3, 2)
    I = OrientedIdeal.unit_ideal(ring).scale(g)
    k = principal_generator(I)
    assert k is not None
    # generators of one principal ideal differ by a unit
    assert (k / g).norm() in (1, -1)
    assert I.same_module(OrientedIdeal.unit_ideal(ring).scale(k))


def test_principal_generator_none_for_nonprincipal():
    ring = QuadraticRing(-47)
    # <2, tau> is a nontrivial class at this discriminant (h = 5)
    I = OrientedIdeal.from_ordered_basis(ring, (ring.element(2), ring.tau()))
    assert principal_generator(I) is None


def test_fractional_scaling_keeps_norms_consistent():
    ring = QuadraticRing(-23)
    I = OrientedIdeal.from_ordered_basis(ring, (ring.element(2), ring.tau()))
    half = I.scale(KElem(ring, Fraction(1, 2)))
    assert half.norm() == I.norm() * Fraction(1, 4)
