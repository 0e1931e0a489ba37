"""Pairs of quaternary alternating 2-forms and senary alternating 3-forms.

The two skew-symmetrized relatives of the cube space.  A cube maps to a
pair of alternating 4x4 matrices by the block construction phi, with the
Pfaffian of the matrix pencil recovering the first associated form on the
nose; a cube maps to an alternating 3-form on Z^6 by distributing its three
tensor slots over the three 2-blocks of Z^6.  Both composition identities
are verified exactly, the first over the 4096 basis tuples of the product
form, the second by full polynomial expansion in 36 variables.
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
from .exact import InputError, MultiForm, Poly, VerifyResult, verify_at_points
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

    def avatar(self) -> MultiForm:
        """The trilinear form x1 * yF1z + x2 * yF2z, dims (2, 4, 4)."""
        coeffs = []
        for m in (self.f1, self.f2):
            for row in m:
                coeffs.extend(row)
        return MultiForm((2, 4, 4), coeffs)

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


def quat_disc(P: QuatAltPair) -> int:
    return pair_pfaffian_form(P).disc()


def quat_companion(P: QuatAltPair) -> QuatAltPair:
    """Companion pair via the first-slot substitution built from the
    Pfaffian form, mirroring the cube companion's slice recipe."""
    form = pair_pfaffian_form(P)
    d = form.disc()
    eps = d % 4
    if eps not in (0, 1):
        raise InputError("discriminant must be 0 or 1 mod 4")
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


def pair_form_product(P: QuatAltPair, Q: QuatAltPair) -> MultiForm:
    """P x Q' + P' x Q + eps P x Q as a (2,4,4,2,4,4) tensor."""
    d = quat_disc(P)
    if quat_disc(Q) != d:
        raise InputError("discriminant mismatch")
    eps = d % 4
    a, b = P.avatar(), Q.avatar()
    ac, bc = quat_companion(P).avatar(), quat_companion(Q).avatar()
    out = a.tensor(bc) + ac.tensor(b)
    if eps:
        out = out + a.tensor(b)
    return out


def verify_quaternary_composition(
    A: Cube, B: Cube, C: Cube, R: Cube, S: Cube, T: Cube
) -> VerifyResult:
    """Exact check of the alternating-pair composition identity.

    A must be doubly symmetric so that its image pair represents the same
    class; the pairs F, G, H are phi(A), phi(B), phi(C).  Conditions: the
    twelve-slot identity between (G*H) and F evaluated on the sigma-pair
    vectors (complete on the 2*4*4*2*4*4 = 4096 basis tuples of the
    product form, both sides being multilinear in the six vector slots),
    Q1(R) = Q1(A) with Q2(R) = Q1(B), the three corner product equations,
    and equal discriminants.
    """
    if A.coeffs[1] != A.coeffs[2] or A.coeffs[5] != A.coeffs[6]:
        raise InputError("first cube must be doubly symmetric")
    reasons = _witness_reasons("ABCRST", (A, B, C, R, S, T))
    if cube_disc(B) != cube_disc(C):
        # the product form is undefined across discriminants
        return VerifyResult(False, reasons)
    lhs_coeffs = pair_form_product(phi(B), phi(C)).coeffs
    rp, sp, tp = _basis_pairs(R), _basis_pairs(S), _basis_pairs(T)
    # F's 4-vector slots take (S(y1, v1) + T(y2, v2), S(y1, w1) + T(y2, w2))
    # for y = (y1, y2); on basis vectors at most one of the terms survives
    zero = [(0, 0)] * 2
    half = [row + zero for row in sp] + [zero + row for row in tp]

    def lhs(x, y, z, u, v, w):
        return lhs_coeffs[((((x * 4 + y) * 4 + z) * 2 + u) * 4 + v) * 4 + w]

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
        if not det.is_integral():
            raise InputError("determinant fell outside the ring")
        ap_parts.append(det.p)
        a_parts.append(det.q)
    E = SenaryAlt3(a_parts)
    Ep = SenaryAlt3(ap_parts)
    exact._ensure(E == wedge222(identity_cube(D)), "senary identity mismatch")
    exact._ensure(Ep == wedge222(companion_cube(identity_cube(D))), "companion mismatch")
    return E, Ep


def _senary_sides(D: int):
    """The two 36-variable polynomials the senary identity compares."""
    E, Ep = senary_identity_pair(D)
    eps = D % 4
    # the cube whose bilinear pair multiplies out (x1 + x2 tau)(u1 + u2 tau)
    # in coordinates: (x1 u1 + m x2 u2, x1 u2 + x2 u1 + eps x2 u2)
    mult = Cube((1, 0, 0, (D - eps) // 4, 0, 1, 1, eps))
    V = Poly.variables(36)
    xs, ys, zs = V[0:6], V[6:12], V[12:18]
    us, vs, ws = V[18:24], V[24:30], V[30:36]
    ex, epx = senary_eval(E, xs, ys, zs), senary_eval(Ep, xs, ys, zs)
    eu, epu = senary_eval(E, us, vs, ws), senary_eval(Ep, us, vs, ws)
    lhs = ex * epu + epx * eu + eps * ex * eu

    def column(bvars):
        # each row times bvars, blockwise through mult, summed over blocks
        out = []
        for avars in (xs, ys, zs):
            blocks = [
                _bilinear_pair(mult, avars[b : b + 2], bvars[b : b + 2])
                for b in (0, 2, 4)
            ]
            out.extend(map(sum, zip(*blocks)))
        return out

    rhs = senary_eval(E, column(us), column(vs), column(ws))
    return lhs, rhs


def verify_senary_identity(D: int) -> VerifyResult:
    """The senary identity pairing at D, compared as full 36-variable
    polynomial expansions of both sides."""
    lhs, rhs = _senary_sides(D)
    if lhs == rhs:
        return VerifyResult(True)
    return VerifyResult(
        False, [f"the senary identity pairing does not hold at D = {D}"]
    )
