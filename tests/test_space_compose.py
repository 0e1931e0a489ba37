"""Class composition in the spaces that sit inside the cube space.

Cubes, binary cubics and pairs of binary quadratic forms each compose
through one balanced triple (cube_class_compose, cubic_class_compose,
pair_class_compose).  The oracle is Gauss composition of the associated
forms, direction by direction: compose_dirichlet shares no code with the
triples.
"""

import functools
import random

import pytest

from cubecomp.bqf import BQF, _is_square, compose_dirichlet, reduce
from cubecomp.cubes import (
    Cube,
    _triple_cube,
    assoc_form,
    cube_class_compose,
    cube_disc,
    identity_cube,
    is_projective,
)
from cubecomp.exact import InputError, InternalError, UnsupportedDomainError
from cubecomp.qring import QuadraticRing
from cubecomp.symspaces import (
    BinaryCubic,
    PairBQF,
    cubic_class_compose,
    cubic_embed,
    cubic_identity,
    pair_class_compose,
    pair_embed,
    pair_identity,
)


def _random_cube(rng):
    return Cube([rng.randint(-3, 3) for _ in range(8)])


def _random_cubic(rng):
    return BinaryCubic(*(rng.randint(-3, 3) for _ in range(4)))


def _random_pair(rng):
    return PairBQF(*(
        BQF(rng.randint(-3, 3), 2 * rng.randint(-3, 3), rng.randint(-3, 3))
        for _ in range(2)
    ))


# space -> (embedding into the cube space, class composition, identity,
# random object)
SPACES = {
    "cube": (lambda A: A, cube_class_compose, identity_cube, _random_cube),
    "cubic": (cubic_embed, cubic_class_compose, cubic_identity, _random_cubic),
    "pair": (pair_embed, pair_class_compose, pair_identity, _random_pair),
}


@functools.lru_cache(maxsize=None)
def _pool(space):
    """Projective objects of nonsquare discriminant from 6,000 seeded
    draws, grouped by discriminant, each group holding at least two."""
    embed, _, _, draw = SPACES[space]
    rng = random.Random(f"pool:{space}")
    by_disc = {}
    for _ in range(6000):
        X = draw(rng)
        A = embed(X)
        D = cube_disc(A)
        if not _is_square(D) and is_projective(A):
            by_disc.setdefault(D, []).append(X)
    return {D: xs for D, xs in by_disc.items() if len(xs) > 1}


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("space", sorted(SPACES))
def test_composition_matches_dirichlet_per_direction(space, sign):
    embed, compose, _, _ = SPACES[space]
    pool = _pool(space)
    discs = sorted(D for D in pool if D * sign > 0)
    assert len(discs) >= 50
    rng = random.Random(f"pairs:{space}:{sign}")
    for _ in range(30):
        D = rng.choice(discs)
        X, Y = rng.choice(pool[D]), rng.choice(pool[D])
        A, B, C = embed(X), embed(Y), embed(compose(X, Y))
        assert cube_disc(C) == D and is_projective(C)
        for i in (1, 2, 3):
            expected = compose_dirichlet(assoc_form(A, i), assoc_form(B, i))
            assert reduce(assoc_form(C, i)).canonical == expected


@pytest.mark.parametrize("space", sorted(SPACES))
def test_square_discriminant_is_unsupported(space):
    _, compose, identity, _ = SPACES[space]
    for D in (0, 1, 4, 9):
        with pytest.raises(UnsupportedDomainError):
            compose(identity(D), identity(D))


@pytest.mark.parametrize("space", sorted(SPACES))
def test_mixed_discriminants_are_input_errors(space):
    _, compose, identity, _ = SPACES[space]
    with pytest.raises(InputError):
        compose(identity(-23), identity(-31))


@pytest.mark.parametrize("space", sorted(SPACES))
def test_non_projective_input_is_an_input_error(space):
    # twice the identity: every associated form has content 4
    embed, compose, identity, _ = SPACES[space]
    doubled = {
        "cube": lambda X: Cube(2 * c for c in X.coeffs),
        "cubic": lambda X: BinaryCubic(*(2 * c for c in X.coeffs)),
        "pair": lambda X: PairBQF(
            BQF(*(2 * c for c in X.f1.coeffs())),
            BQF(*(2 * c for c in X.f2.coeffs())),
        ),
    }[space](identity(-23))
    assert cube_disc(embed(doubled)) == -368
    assert not is_projective(embed(doubled))
    for X, Y in ((doubled, doubled), (identity(-368), doubled)):
        with pytest.raises(InputError):
            compose(X, Y)


def test_rejected_library_triple_is_an_internal_error():
    # bases the library built that are not balanced are its own fault
    ring = QuadraticRing(-23)
    one, tau = ring.one(), ring.tau()
    with pytest.raises(InternalError, match="norms multiply to 2"):
        _triple_cube(ring, ((one + one, tau), (one, tau), (one, tau)))
