import random
from fractions import Fraction

import pytest

from cubecomp.bqf import principal_generator
from cubecomp.exact import InputError
from cubecomp.qring import KElem, OrientedIdeal, QuadraticRing


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

