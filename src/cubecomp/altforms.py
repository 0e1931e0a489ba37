"""Pairs of quaternary alternating 2-forms and senary alternating 3-forms.

The two skew-symmetrized relatives of the cube space.  A cube maps to a
pair of alternating 4x4 matrices by the block construction phi, with the
Pfaffian of the matrix pencil recovering the first associated form on the
nose; a cube maps to an alternating 3-form on Z^6 by distributing its three
tensor slots over the three 2-blocks of Z^6.  Both composition identities
are verified exactly on exact.verify_at_points, the first over the 1024
basis tuples of the product form, the second over the 20 x 20 pairs of
increasing basis triples, both of its sides being alternating in each
triple of Z^6 vectors.
"""

from __future__ import annotations

from itertools import combinations

from .bqf import BQF
from .cubes import (
    Cube,
    _basis_pairs,
    _bilinear_pair,
    _witness_reasons,
    companion_cube,
    cube_disc,
    identity_cube,
    slices,
)
from . import exact
from .exact import InputError, VerifyResult, verify_at_points
from .qring import QuadraticRing


def _check_alternating(m):
    rows = tuple(tuple(exact._as_int(x) for x in row) for row in m)
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise InputError("expected a 4x4 matrix")
    for i in range(4):
        if rows[i][i] != 0:
            raise InputError("alternating matrix needs a zero diagonal")
        for j in range(i + 1, 4):
            if rows[i][j] != -rows[j][i]:
                raise InputError("matrix is not alternating")
    return rows


class QuatAltPair:
    """Pair of alternating 4x4 integer matrices (F1, F2)."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1, f2):
        object.__setattr__(self, "f1", _check_alternating(f1))
        object.__setattr__(self, "f2", _check_alternating(f2))

    def __setattr__(self, name, value):
        raise AttributeError("QuatAltPair is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, QuatAltPair)
            and self.f1 == other.f1
            and self.f2 == other.f2
        )

    def __hash__(self):
        return hash((self.f1, self.f2))

    def __repr__(self):
        return f"QuatAltPair({self.f1!r}, {self.f2!r})"


def _block(m):
    (a, b), (c, d) = m
    return (
        (0, 0, a, b),
        (0, 0, c, d),
        (-a, -c, 0, 0),
        (-b, -d, 0, 0),
    )


def phi(A: Cube) -> QuatAltPair:
    """Skew-symmetrize the last two slots: the pair of block matrices
    built from the first-direction slices of A.  As a trilinear form the
    image satisfies phi(A)(x,(y1,y2),(z1,z2)) = A(x,y1,z2) - A(x,z1,y2)."""
    M, N = slices(A, 0)
    return QuatAltPair(_block(M), _block(N))


def pfaffian(m) -> int:
    """m12 m34 - m13 m24 + m14 m23 for an alternating 4x4 matrix; its
    square is the determinant."""
    rows = _check_alternating(m)
    return (
        rows[0][1] * rows[2][3]
        - rows[0][2] * rows[1][3]
        + rows[0][3] * rows[1][2]
    )


def pair_pfaffian_form(P: QuatAltPair) -> BQF:
    """The binary form Pfaffian(F1 x - F2 y)."""
    p = pfaffian(P.f1)
    c = pfaffian(P.f2)
    diff = tuple(
        tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(P.f1, P.f2)
    )
    q = pfaffian(diff) - p - c
    return BQF(p, q, c)


def quat_companion(P: QuatAltPair) -> QuatAltPair:
    """Companion pair via the first-slot substitution built from the
    Pfaffian form, mirroring the cube companion's slice recipe."""
    form = pair_pfaffian_form(P)
    eps = form.disc() % 4
    p, q, r = form.a, form.b, form.c
    s, t = (q - eps) // 2, (-q - eps) // 2
    f1 = tuple(
        tuple(s * a + p * b for a, b in zip(r1, r2))
        for r1, r2 in zip(P.f1, P.f2)
    )
    f2 = tuple(
        tuple(-r * a + t * b for a, b in zip(r1, r2))
        for r1, r2 in zip(P.f1, P.f2)
    )
    return QuatAltPair(f1, f2)


def _flat(P: QuatAltPair):
    """The 32 coefficients of the trilinear form x1 yF1z + x2 yF2z, entry
    (x, y, z) at 16 x + 4 y + z."""
    return tuple(t for m in (P.f1, P.f2) for row in m for t in row)


def verify_quaternary_composition(
    A: Cube, B: Cube, C: Cube, R: Cube, S: Cube, T: Cube
) -> VerifyResult:
    """Exact check of the alternating-pair composition identity.

    A must be doubly symmetric so that its image pair represents the same
    class; the pairs F, G, H are phi(A), phi(B), phi(C).  Conditions: the
    twelve-slot identity between (G*H) and F evaluated on the sigma-pair
    vectors (complete on the 2*4*4*2*4*4 = 1024 basis tuples of the
    product form, both sides being multilinear in the six vector slots),
    Q1(R) = Q1(A) with Q2(R) = Q1(B), the three corner product equations,
    and equal discriminants.  At a basis tuple the left side
    G H' + G' H + eps G H is g h' + g' h + eps g h in the coefficients
    g = g_xyz, h = h_uvw of G, H and their quat_companions.
    """
    if A.coeffs[1] != A.coeffs[2] or A.coeffs[5] != A.coeffs[6]:
        raise InputError("first cube must be doubly symmetric")
    reasons = _witness_reasons("ABCRST", (A, B, C, R, S, T))
    D = cube_disc(B)
    if cube_disc(C) != D:
        # the product form is undefined across discriminants
        return VerifyResult(False, reasons)
    eps = D % 4
    G, H = phi(B), phi(C)
    g, h = _flat(G), _flat(H)
    gp, hp = _flat(quat_companion(G)), _flat(quat_companion(H))
    rp, sp, tp = _basis_pairs(R), _basis_pairs(S), _basis_pairs(T)
    # F's 4-vector slots take (S(y1, v1) + T(y2, v2), S(y1, w1) + T(y2, w2))
    # for y = (y1, y2); on basis vectors at most one of the terms survives
    zero = [(0, 0)] * 2
    half = [row + zero for row in sp] + [zero + row for row in tp]

    def lhs(x, y, z, u, v, w):
        i, j = 16 * x + 4 * y + z, 16 * u + 4 * v + w
        return g[i] * hp[j] + gp[i] * h[j] + eps * g[i] * h[j]

    def rhs(x, y, z, u, v, w):
        # phi(A)(rho, (a1, a2), (b1, b2)) = A(rho, a1, b2) - A(rho, b1, a2)
        r0, r1 = rp[x][u]
        p0, p1 = _bilinear_pair(A, half[y][v], half[z][w])
        n0, n1 = _bilinear_pair(A, half[z][v], half[y][w])
        return r0 * (p0 - n0) + r1 * (p1 - n1)

    slots = (range(2), range(4), range(4)) * 2
    return verify_at_points(
        lhs, rhs, slots, "basis tuple (x,y,z,u,v,w)", reasons
    )


_TRIPLES = tuple(combinations(range(6), 3))
_TRIPLE_INDEX = {t: n for n, t in enumerate(_TRIPLES)}


class SenaryAlt3:
    """Alternating 3-form on Z^6: twenty coefficients a_{ijk}, i<j<k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(exact._as_int(c) for c in coeffs)
        if len(coeffs) != 20:
            raise InputError("a senary alternating 3-form has 20 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("SenaryAlt3 is immutable")

    def coeff(self, i: int, j: int, k: int) -> int:
        """a_{ijk} for arbitrary index order, with the alternating sign."""
        if len({i, j, k}) < 3:
            return 0
        sign = 1
        seq = [i, j, k]
        # three comparisons sort a 3-element list and track the parity
        for a, b in ((0, 1), (1, 2), (0, 1)):
            if seq[a] > seq[b]:
                seq[a], seq[b] = seq[b], seq[a]
                sign = -sign
        return sign * self.coeffs[_TRIPLE_INDEX[tuple(seq)]]

    def __eq__(self, other):
        return isinstance(other, SenaryAlt3) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"SenaryAlt3({self.coeffs})"

    def __call__(self, x, y, z):
        return senary_eval(self, x, y, z)


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def senary_eval(E: SenaryAlt3, x, y, z):
    """Sum over i<j<k of a_{ijk} times the 3x3 minor of rows x, y, z."""
    total = 0
    for n, (i, j, k) in enumerate(_TRIPLES):
        a = E.coeffs[n]
        if a:
            total += a * _det3(
                (
                    (x[i], x[j], x[k]),
                    (y[i], y[j], y[k]),
                    (z[i], z[j], z[k]),
                )
            )
    return total


def wedge222(A: Cube) -> SenaryAlt3:
    """Distribute the three tensor slots of a cube over the 2-blocks of
    Z^6: coefficient a_{ijk} of A lands on e_i ^ e_{2+j} ^ e_{4+k}."""
    coeffs = [0] * 20
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                coeffs[_TRIPLE_INDEX[(i, 2 + j, 4 + k)]] = A.coeff(i, j, k)
    return SenaryAlt3(coeffs)


def senary_identity_pair(D: int):
    """(E, E') for the identity class, from determinants over the module
    S + S + S with the interleaved basis (1,0,0),(tau,0,0),...,(0,0,tau).

    Each 3x3 determinant lies in S and splits as a' + a tau; the tau parts
    assemble the identity form (cross-checked against the wedge image of
    the identity cube) and the rational parts its companion.
    """
    if D == 0:
        raise InputError("discriminant must be nonzero")
    ring = QuadraticRing(D)
    one, tau = ring.one(), ring.tau()
    zero = ring.zero()
    basis = []
    for slot in range(3):
        for gen in (one, tau):
            vec = [zero, zero, zero]
            vec[slot] = gen
            basis.append(tuple(vec))
    a_parts, ap_parts = [], []
    for i, j, k in _TRIPLES:
        det = _det3((basis[i], basis[j], basis[k]))
        exact._ensure(det.is_integral(), "determinant fell outside the ring")
        ap_parts.append(det.p)
        a_parts.append(det.q)
    E = SenaryAlt3(a_parts)
    Ep = SenaryAlt3(ap_parts)
    exact._ensure(E == wedge222(identity_cube(D)), "senary identity mismatch")
    exact._ensure(Ep == wedge222(companion_cube(identity_cube(D))), "companion mismatch")
    return E, Ep


def verify_senary_identity(D: int) -> VerifyResult:
    """The senary identity pairing at D, at the 20 x 20 pairs of increasing
    basis triples for (x, y, z) and (u, v, w).

    It reads E(x,y,z) E'(u,v,w) + E'(x,y,z) E(u,v,w) + eps E(x,y,z) E(u,v,w)
    = E(c(u), c(v), c(w)), where c(b) in S^3 holds x.b, y.b and z.b, each a
    sum over the three 2-blocks of products in S.  Both sides are linear in
    each vector (on the right since E lies on block-transversal triples,
    which senary_identity_pair checks) and alternate in (u, v, w),
    senary_eval being a sum of determinants.  The left side alternates in
    (x, y, z); swapping two of them swaps those 2-blocks of every column, so
    the right side does when E changes sign under the block swaps 0<->1 and
    1<->2, checked here.  A six-linear form alternating in both triples is
    0 if it is 0 at these 400 points, where E and E' are their coefficients.
    """
    E, Ep = senary_identity_pair(D)
    e, ep = dict(zip(_TRIPLES, E.coeffs)), dict(zip(_TRIPLES, Ep.coeffs))
    eps = D % 4
    for swap in ((2, 3, 0, 1, 4, 5), (0, 1, 4, 5, 2, 3)):
        exact._ensure(
            all(E.coeff(*(swap[i] for i in t)) == -e[t] for t in _TRIPLES),
            "senary form does not change sign under a block swap",
        )
    # products in S of its basis 1, tau: tau^2 = (D - eps) / 4 + eps tau
    table = (((1, 0), (0, 1)), ((0, 1), ((D - eps) // 4, eps)))

    def column(xyz, n):
        # c(e_n) at (e_i, e_j, e_k): basis products survive in one 2-block
        return [
            c for i in xyz
            for c in (table[i % 2][n % 2] if i // 2 == n // 2 else (0, 0))
        ]

    columns = {t: [column(t, n) for n in range(6)] for t in _TRIPLES}

    def lhs(xyz, uvw):
        return e[xyz] * ep[uvw] + ep[xyz] * e[uvw] + eps * e[xyz] * e[uvw]

    def rhs(xyz, uvw):
        return senary_eval(E, *(columns[xyz][n] for n in uvw))

    return verify_at_points(
        lhs, rhs, (_TRIPLES, _TRIPLES), "basis triples ((x,y,z),(u,v,w))"
    )
