"""Binary cubic forms and pairs of binary quadratic forms.

Both spaces sit inside the cube space through symmetrization: a cubic
a0 x^3 + 3 a1 x^2 y + 3 a2 x y^2 + a3 y^3 unfolds into the triply symmetric
cube [a0,a1,a1,a2,a1,a2,a2,a3], and a pair of quadratic forms with even
cross coefficients folds into a doubly symmetric cube.  Discriminants,
companions and identity elements all pull back from the cube layer; the
composition identities specific to these spaces are verified here at
enough points of each binary slot to decide them exactly.
"""

from __future__ import annotations

from .bqf import BQF, compose_dirichlet, principal_form, reduce as bqf_reduce
from .cubes import (
    Cube,
    _bilinear_pair,
    _witness_reasons,
    assoc_forms,
    companion_cube,
    cube_disc,
    cube_variants,
    identity_cube,
    is_projective,
)
from . import exact
from .exact import BINARY_POINTS, InputError, UnsupportedDomainError
from .exact import VerifyResult, verify_at_points
from .qring import OrientedIdeal, QuadraticRing, kelem_cube_root


class BinaryCubic:
    """a0 x^3 + 3 a1 x^2 y + 3 a2 x y^2 + a3 y^3.

    The inner coefficients are stored without their factor of three, so the
    unfolding into a cube is literal coefficient placement.
    """

    __slots__ = ("a0", "a1", "a2", "a3")

    def __init__(self, a0, a1, a2, a3):
        as_int = exact._as_int
        object.__setattr__(self, "a0", as_int(a0))
        object.__setattr__(self, "a1", as_int(a1))
        object.__setattr__(self, "a2", as_int(a2))
        object.__setattr__(self, "a3", as_int(a3))

    def __setattr__(self, name, value):
        raise AttributeError("BinaryCubic is immutable")

    @property
    def coeffs(self):
        return (self.a0, self.a1, self.a2, self.a3)

    def __call__(self, x, y):
        return (
            self.a0 * x**3
            + 3 * self.a1 * x**2 * y
            + 3 * self.a2 * x * y**2
            + self.a3 * y**3
        )

    def __eq__(self, other):
        return isinstance(other, BinaryCubic) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return BinaryCubic(-self.a0, -self.a1, -self.a2, -self.a3)

    def __repr__(self):
        return f"BinaryCubic{self.coeffs}"


def cubic_embed(f: BinaryCubic) -> Cube:
    a0, a1, a2, a3 = f.coeffs
    return Cube((a0, a1, a1, a2, a1, a2, a2, a3))


def cubic_disc(f: BinaryCubic) -> int:
    a0, a1, a2, a3 = f.coeffs
    d = (
        -3 * a1 * a1 * a2 * a2
        + 4 * a0 * a2**3
        + 4 * a1**3 * a3
        - 6 * a0 * a1 * a2 * a3
        + a0 * a0 * a3 * a3
    )
    exact._ensure(d == cube_disc(cubic_embed(f)), "cubic and cube discriminants differ")
    return d


def cubic_q(f: BinaryCubic) -> BQF:
    """The single quadratic form shared by all three slicings of the cube."""
    q1, q2, q3 = assoc_forms(cubic_embed(f))
    exact._ensure(q1 == q2 == q3, "embedded cubic has three different forms")
    return q1


def cubic_companion(f: BinaryCubic) -> BinaryCubic:
    c = companion_cube(cubic_embed(f)).coeffs
    exact._ensure(c[1] == c[2] == c[4] and c[3] == c[5] == c[6], "asymmetric companion")
    return BinaryCubic(c[0], c[1], c[3], c[7])


def cubicovariant(f: BinaryCubic) -> BinaryCubic:
    """The doubled covariant 2f' + eps*f; doubling keeps it integral."""
    eps = cubic_disc(f) % 4
    if eps not in (0, 1):
        raise InputError("cubic discriminant must be 0 or 1 mod 4")
    fp = cubic_companion(f)
    return BinaryCubic(*(2 * b + eps * a for a, b in zip(f.coeffs, fp.coeffs)))


def syzygy_check(f: BinaryCubic) -> VerifyResult:
    """f'^2 + eps f f' - m f^2 == Q_f(x,-y)^3, identically in (x, y).

    Both sides are binary sextics, so the seven BINARY_POINTS decide it.
    """
    d = cubic_disc(f)
    eps = d % 4
    m = (d - eps) // 4
    fp = cubic_companion(f)
    q = cubic_q(f)

    def lhs(p):
        u, v = f(*p), fp(*p)
        return v * v + eps * u * v - m * u * u

    return verify_at_points(
        lhs, lambda p: q(p[0], -p[1]) ** 3, (BINARY_POINTS,), "((x, y),)"
    )


def cubic_identity(D: int) -> BinaryCubic:
    if D % 4 == 0:
        f = BinaryCubic(0, 1, 0, D // 4)
    elif D % 4 == 1:
        f = BinaryCubic(0, 1, 1, (D + 3) // 4)
    else:
        raise InputError("discriminant must be 0 or 1 mod 4")
    exact._ensure(cubic_embed(f) == identity_cube(D), "identity cubic mismatch")
    return f


def verify_cubic_composition(
    f: BinaryCubic, g: BinaryCubic, h: BinaryCubic, R: Cube
) -> VerifyResult:
    """Exact check that R witnesses [f] + [g] + [h] = [id].

    Conditions: the four-variable identity (g*h)((x,y);(u,v)) =
    f(R-sigma((x,y),(u,v))), cubic in (x, y) and in (u, v) and so decided
    on the 4x4 grid of BINARY_POINTS[:4]; the form matches Q1(R) = Q_f and
    Q2(R) = Q_g; the corner product equation Q_g(1,0) Q_h(1,0) =
    Q_f(r211, r111); and equal discriminants throughout.
    """
    reasons = _witness_reasons(
        "fghR", (cubic_embed(f), cubic_embed(g), cubic_embed(h), R)
    )
    eps = cubic_disc(f) % 4
    gc, hc = cubic_companion(g), cubic_companion(h)
    sigma = cube_variants(R)[1]

    def lhs(xy, uv):
        gv, hv = g(*xy), h(*uv)
        return gv * hc(*uv) + gc(*xy) * hv + eps * gv * hv

    points = BINARY_POINTS[:4]
    return verify_at_points(
        lhs,
        lambda xy, uv: f(*_bilinear_pair(sigma, xy, uv)),
        (points, points),
        "((x, y), (u, v))",
        reasons,
    )


def _cubic_ideal_data(f: BinaryCubic):
    """(ring, I_f, delta_f) built from the two inner corner coordinates.

    alpha and beta are the tau-lifted inner coefficients of f and its
    companion; their span must be tau-stable (checked downstream) and the
    generator product delta has norm N(I)^3, which balances the triple
    (I, I, delta^{-1} I).
    """
    D = cubic_disc(f)
    ring = QuadraticRing(D)
    fp = cubic_companion(f)
    alpha = ring.element(fp.a1, f.a1)
    beta = ring.element(fp.a2, f.a2)
    if alpha.is_zero() or beta.is_zero():
        raise InputError("cubic corner data is degenerate")
    try:
        ideal = OrientedIdeal.from_ordered_basis(ring, (alpha, beta))
    except InputError as exc:
        raise InputError(f"cubic corner data spans no ideal: {exc}") from exc
    delta = alpha * beta
    if ideal.norm() ** 3 != delta.norm():
        raise InputError("cubic corner data is not balanced")
    return ring, ideal, delta


class CubicComposition:
    """Class-level composition data for two cubics of one discriminant.

    Holds the product ideal and the product of the two delta generators;
    ``sums_to_identity_with`` settles whether a third cubic closes the
    triple to the identity class.
    """

    __slots__ = ("f", "g", "ring", "ideal", "delta")

    def __init__(self, f, g, ring, ideal, delta):
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "delta", delta)

    def __setattr__(self, name, value):
        raise AttributeError("CubicComposition is immutable")

    def sums_to_identity_with(self, h: BinaryCubic) -> bool:
        D = self.ring.D
        if cubic_disc(h) != D:
            raise InputError("discriminant mismatch")
        _, _, delta_h = _cubic_ideal_data(h)
        qtot = compose_dirichlet(
            compose_dirichlet(cubic_q(self.f), cubic_q(self.g)), cubic_q(h)
        )
        principal = bqf_reduce(principal_form(D)).canonical
        if bqf_reduce(qtot).canonical != principal:
            return False
        # delta is only pinned down up to cubes and unit factors
        total = self.delta * delta_h
        return any(
            kelem_cube_root(total * u) is not None
            for u in self.ring.torsion_units()
        )


def cubic_class_compose(f: BinaryCubic, g: BinaryCubic) -> CubicComposition:
    D = cubic_disc(f)
    if cubic_disc(g) != D:
        raise InputError("discriminant mismatch")
    if D >= 0:
        raise UnsupportedDomainError(
            "class composition of cubics is implemented for negative "
            "discriminants only"
        )
    if not (is_projective(cubic_embed(f)) and is_projective(cubic_embed(g))):
        raise InputError("cubic is not projective")
    ring, ideal_f, delta_f = _cubic_ideal_data(f)
    _, ideal_g, delta_g = _cubic_ideal_data(g)
    return CubicComposition(f, g, ring, ideal_f * ideal_g, delta_f * delta_g)


class PairBQF:
    """A pair of integral binary quadratic forms with even cross terms."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: BQF, f2: BQF):
        if f1.b % 2 or f2.b % 2:
            raise InputError("pair members need even middle coefficients")
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)

    def __setattr__(self, name, value):
        raise AttributeError("PairBQF is immutable")

    def __call__(self, x, y):
        """x1 F1(y1, y2) + x2 F2(y1, y2) for 2-vectors x and y."""
        x1, x2 = x
        y1, y2 = y
        return x1 * self.f1(y1, y2) + x2 * self.f2(y1, y2)

    def __eq__(self, other):
        return (
            isinstance(other, PairBQF)
            and self.f1 == other.f1
            and self.f2 == other.f2
        )

    def __hash__(self):
        return hash((self.f1, self.f2))

    def __repr__(self):
        return f"PairBQF({self.f1!r}, {self.f2!r})"


def pair_embed(F: PairBQF) -> Cube:
    a, b2, c = F.f1.a, F.f1.b, F.f1.c
    d, e2, f = F.f2.a, F.f2.b, F.f2.c
    return Cube((a, b2 // 2, b2 // 2, c, d, e2 // 2, e2 // 2, f))


def pair_disc(F: PairBQF) -> int:
    return cube_disc(pair_embed(F))


def pair_identity(D: int) -> PairBQF:
    if D % 4 == 0:
        F = PairBQF(BQF(0, 2, 0), BQF(1, 0, D // 4))
    elif D % 4 == 1:
        F = PairBQF(BQF(0, 2, 1), BQF(1, 2, (D + 3) // 4))
    else:
        raise InputError("discriminant must be 0 or 1 mod 4")
    exact._ensure(pair_embed(F) == identity_cube(D), "identity pair mismatch")
    return F


def pair_companion(F: PairBQF) -> PairBQF:
    c = companion_cube(pair_embed(F)).coeffs
    exact._ensure(c[1] == c[2] and c[5] == c[6], "pair companion is not symmetric")
    return PairBQF(BQF(c[0], 2 * c[1], c[3]), BQF(c[4], 2 * c[5], c[7]))


def verify_pair_composition(
    F: PairBQF, G: PairBQF, H: PairBQF, R: Cube, S: Cube
) -> VerifyResult:
    """Exact check that (R, S) witnesses [F] + [G] + [H] = [id].

    The eight-variable identity compares (G*H)((x,y);(u,v)) against
    F(R-sigma(x,u), S-sigma(y,v)); both witness slots carry the sigma
    involution, the reading fixed once by the discriminant -31 golden
    composition.  Both sides are linear in x and u and quadratic in y and
    v, so the 2*3*2*3 grid of leading BINARY_POINTS decides it.  The form
    conditions Q1(R) = Q1(F), Q2(R) = Q1(G) and both corner product
    equations are checked alongside.
    """
    reasons = _witness_reasons(
        "FGHRS", (pair_embed(F), pair_embed(G), pair_embed(H), R, S)
    )
    eps = pair_disc(F) % 4
    Gc, Hc = pair_companion(G), pair_companion(H)
    rs, ss = cube_variants(R)[1], cube_variants(S)[1]

    def lhs(x, y, u, v):
        gv, hv = G(x, y), H(u, v)
        return gv * Hc(u, v) + Gc(x, y) * hv + eps * gv * hv

    def rhs(x, y, u, v):
        return F(_bilinear_pair(rs, x, u), _bilinear_pair(ss, y, v))

    lin, quad = BINARY_POINTS[:2], BINARY_POINTS[:3]
    return verify_at_points(
        lhs, rhs, (lin, quad, lin, quad), "(x, y, u, v)", reasons
    )
