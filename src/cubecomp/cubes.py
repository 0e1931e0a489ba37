"""2x2x2 integer cubes and their composition theory.

A cube stores eight coefficients [a111, a112, a121, a122, a211, a212, a221,
a222]; slicing along the three directions yields matrix pairs (M_i, N_i)
whose characteristic binary forms Q_i share one discriminant.  The module
covers the group-action plumbing (slices, associated forms, involutions,
slot substitution, companions), exact verification of the three-cube
composition identity, the dictionary between cubes and balanced triples of
oriented ideals, and the dual-cube solver built on that dictionary.  All of
it works on the eight coefficients, index 4i + 2j + k.
"""

from __future__ import annotations

from .bqf import BQF, GaussBilinearData, _require_nonsquare, ideal_to_bqf
from .bqf import principal_generator, verify_gauss_identity
from . import exact
from .exact import BINARY_POINTS, InputError
from .exact import VerifyResult, verify_at_points
from .qring import KElem, OrientedIdeal, QuadraticRing


class Cube(exact._Value):
    """Integer 2x2x2 array in the fixed order [a111 ... a222]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(exact._as_int(c) for c in coeffs)
        if len(coeffs) != 8:
            raise InputError("a cube has exactly eight coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, i: int, j: int, k: int) -> int:
        """Entry a_{(i+1)(j+1)(k+1)} for 0-based i, j, k."""
        return self.coeffs[4 * i + 2 * j + k]

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def slices(A: Cube, axis: int):
    """The matrix pair (M, N) cutting the cube along one of the three axes."""
    c = A.coeff
    if axis == 0:
        M = ((c(0, 0, 0), c(0, 0, 1)), (c(0, 1, 0), c(0, 1, 1)))
        N = ((c(1, 0, 0), c(1, 0, 1)), (c(1, 1, 0), c(1, 1, 1)))
    elif axis == 1:
        M = ((c(0, 0, 0), c(1, 0, 0)), (c(0, 0, 1), c(1, 0, 1)))
        N = ((c(0, 1, 0), c(1, 1, 0)), (c(0, 1, 1), c(1, 1, 1)))
    elif axis == 2:
        M = ((c(0, 0, 0), c(0, 1, 0)), (c(1, 0, 0), c(1, 1, 0)))
        N = ((c(0, 0, 1), c(0, 1, 1)), (c(1, 0, 1), c(1, 1, 1)))
    else:
        raise InputError("axis must be 0, 1, or 2")
    return M, N


def _det2(M) -> int:
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def assoc_form(A: Cube, i: int) -> BQF:
    """Q_i(x, y) = -det(M_i x - N_i y) for i = 1, 2, 3."""
    if i not in (1, 2, 3):
        raise InputError("form index must be 1, 2, or 3")
    M, N = slices(A, i - 1)
    p = -_det2(M)
    r = -_det2(N)
    q = M[0][0] * N[1][1] + M[1][1] * N[0][0] - M[0][1] * N[1][0] - M[1][0] * N[0][1]
    return BQF(p, q, r)


def assoc_forms(A: Cube):
    return (assoc_form(A, 1), assoc_form(A, 2), assoc_form(A, 3))


def cube_disc(A: Cube) -> int:
    d1, d2, d3 = (Q.disc() for Q in assoc_forms(A))
    exact._ensure(d1 == d2 == d3, "slicing broke the shared discriminant")
    return d1


def is_projective(A: Cube) -> bool:
    return all(Q.is_primitive() for Q in assoc_forms(A))


def _substitute(coeffs, slot: int, m):
    """The eight coefficients of the trilinear form with the 2x2 matrix m
    substituted into one slot: g(..., v, ...) = f(..., m v, ...) there.

    The slot's index moves the flat index 4i + 2j + k by 4 >> slot, so each
    pair (lo, hi) of entries that differ only in that slot becomes
    (lo m00 + hi m10, lo m01 + hi m11).
    """
    (m00, m01), (m10, m11) = m
    step = 4 >> slot
    out = list(coeffs)
    for n in range(8):
        if not n & step:
            lo, hi = coeffs[n], coeffs[n + step]
            out[n] = lo * m00 + hi * m10
            out[n + step] = lo * m01 + hi * m11
    return tuple(out)


def gamma_act(A: Cube, g1, g2, g3) -> Cube:
    """Simultaneous SL2 changes, one per direction.

    Acting by g = (p, q; r, s) on direction i replaces the slice pair
    (M_i, N_i) by (p M_i + q N_i, r M_i + s N_i): _substitute of
    g-transpose into slot i.
    """
    c = A.coeffs
    for slot, g in enumerate((g1, g2, g3)):
        (p, q), (r, s) = ((exact._as_int(t) for t in row) for row in g)
        if p * s - q * r != 1:
            raise InputError("matrix must have determinant 1")
        c = _substitute(c, slot, ((p, r), (q, s)))
    return Cube(c)


def cube_variants(A: Cube):
    """(A-iota, A-sigma, A-tilde): face swap, signed face swap, and the
    inverse-class representative."""
    a, b, c, d, e, f, g, h = A.coeffs
    iota = Cube((e, f, g, h, a, b, c, d))
    sigma = Cube((-e, -f, -g, -h, a, b, c, d))
    tilde = Cube((-a, b, c, -d, e, -f, -g, h))
    return iota, sigma, tilde


def identity_cube(D: int) -> Cube:
    if D % 4 == 0:
        return Cube((0, 1, 1, 0, 1, 0, 0, D // 4))
    if D % 4 == 1:
        return Cube((0, 1, 1, 1, 1, 1, 1, (D + 3) // 4))
    raise InputError("a discriminant must be 0 or 1 mod 4")


def companion_L(A: Cube):
    """The three substitution matrices L_i built from Q_i and eps."""
    D = cube_disc(A)
    eps = D % 4
    out = []
    for i in (1, 2, 3):
        p, q, r = assoc_form(A, i).coeffs()
        # q and eps share parity with D, so the halves are exact
        out.append((((q - eps) // 2, -r), (p, (-q - eps) // 2)))
    return tuple(out)


def companion_cube(A: Cube) -> Cube:
    """The cube of tau-free coefficients a'_{ijk} attached to A.

    Substituting L_i into slot i must give the same answer for all three
    directions; that agreement is asserted here every time.
    """
    via1, via2, via3 = (
        _substitute(A.coeffs, slot, L) for slot, L in enumerate(companion_L(A))
    )
    exact._ensure(via1 == via2 == via3, "companion construction disagrees across slots")
    return Cube(via1)


def lemmermeyer_identity(A: Cube):
    """The Gauss composition instance carried by any cube.

    Q_2(x, -y) * Q_3(x, -y) composes to Q_1, with bilinear matrices N_1 for
    the first coordinate and M_1 for the second.  Returns the three forms,
    the bilinear data, and the exact verification result.
    """
    Q1, Q2, Q3 = assoc_forms(A)
    M1, N1 = slices(A, 0)
    G1 = BQF(Q2.a, -Q2.b, Q2.c)
    G2 = BQF(Q3.a, -Q3.b, Q3.c)
    data = GaussBilinearData(N1, M1)
    return (G1, G2, Q1), data, verify_gauss_identity(G1, G2, Q1, data)


def _bilinear_pair(A: Cube, a, b):
    """(A(e1, a, b), A(e2, a, b)): the pair of bilinear forms cut from A by
    its first slot, evaluated at 2-vectors a and b.  The composition laws
    feed this vector, taken on a witness's sigma image, to their outer form.
    """
    c0, c1, c2, c3, c4, c5, c6, c7 = A.coeffs
    a0, a1 = a
    b0, b1 = b
    return (
        a0 * (c0 * b0 + c1 * b1) + a1 * (c2 * b0 + c3 * b1),
        a0 * (c4 * b0 + c5 * b1) + a1 * (c6 * b0 + c7 * b1),
    )


def _basis_pairs(X: Cube):
    """pairs[s][t] = _bilinear_pair of X-sigma at basis vectors (e_s, e_t)."""
    sigma, basis = cube_variants(X)[1], BINARY_POINTS[:2]
    return [[_bilinear_pair(sigma, a, b) for b in basis] for a in basis]


def _witness_reasons(names: str, cubes) -> list:
    """The failed side conditions of a cube-shaped law on inputs A, B, C
    and witnesses R, ... (labelled by ``names``): every discriminant equals
    disc(A), Q1(R) = Q1(A), Q2(R) = Q1(B), and for the i-th witness X the
    corner equation Q_i(B)(1, 0) Q_i(C)(1, 0) = Q_i(A)(x211, x111)."""
    A, B, C, R = cubes[:4]
    D = cube_disc(A)
    reasons = [
        f"disc({n}) = {cube_disc(X)} != disc({names[0]}) = {D}"
        for n, X in zip(names[1:], cubes[1:])
        if cube_disc(X) != D
    ]
    if assoc_form(R, 1) != assoc_form(A, 1):
        reasons.append(f"Q1({names[3]}) != Q1({names[0]})")
    if assoc_form(R, 2) != assoc_form(B, 1):
        reasons.append(f"Q2({names[3]}) != Q1({names[1]})")
    for i, (n, X) in enumerate(zip(names[3:], cubes[3:]), 1):
        lhs = assoc_form(B, i)(1, 0) * assoc_form(C, i)(1, 0)
        corner = (X.coeffs[4], X.coeffs[0])
        if lhs != assoc_form(A, i)(*corner):
            reasons.append(
                f"corner normalization fails at {n}: "
                f"{lhs} != Q{i}({names[0]}){corner}"
            )
    return reasons


def verify_cube_composition(
    A: Cube, B: Cube, C: Cube, R: Cube, S: Cube, T: Cube
) -> VerifyResult:
    """Exact check that (R, S, T) witnesses [A] + [B] + [C] = [id].

    Conditions, all coefficient-exact: the six-slot identity
    (B*C)(x,y,z;u,v,w) = A(R-sigma(x,u), S-sigma(y,v), T-sigma(z,w)) on all
    2^6 = 64 basis tuples (complete, by multilinearity), the form matches
    Q1(R) = Q1(A) and Q2(R) = Q1(B), the three corner product equations, and
    equality of all six discriminants.  At a basis tuple the left side
    B C' + B' C + eps B C is b c' + b' c + eps b c in the coefficients
    b = b_xyz, c = c_uvw of B, C and their companions.
    """
    reasons = _witness_reasons("ABCRST", (A, B, C, R, S, T))
    D = cube_disc(B)
    if cube_disc(C) != D:
        # the product form is undefined across discriminants; the disc
        # reasons recorded above already carry the verdict
        return VerifyResult(False, reasons)
    eps = D % 4
    b, c = B.coeffs, C.coeffs
    bp, cp = companion_cube(B).coeffs, companion_cube(C).coeffs
    rp, sp, tp = _basis_pairs(R), _basis_pairs(S), _basis_pairs(T)

    def lhs(x, y, z, u, v, w):
        i, j = 4 * x + 2 * y + z, 4 * u + 2 * v + w
        return b[i] * cp[j] + bp[i] * c[j] + eps * b[i] * c[j]

    def rhs(x, y, z, u, v, w):
        r0, r1 = rp[x][u]
        a0, a1 = _bilinear_pair(A, sp[y][v], tp[z][w])
        return r0 * a0 + r1 * a1

    return verify_at_points(
        lhs, rhs, ((0, 1),) * 6, "basis tuple (x,y,z,u,v,w)", reasons
    )


class BalancedTriple(exact._Value):
    """Three oriented ideals with chosen ordered bases, multiplying into S.

    Checked at construction: the ideal orientations are read off the basis
    order, the signed norms multiply to exactly 1, and the eight basis
    products alpha_i beta_j gamma_k, kept in ``products`` in the flat cube
    order 4i + 2j + k, are all integral.  They span the product module, so
    this is the condition that the product lands inside S.  For invertible
    ideals the two conditions force the product to be S itself;
    non-invertible modules (imprimitive norm forms) are allowed and then the
    containment can be strict.  The cube conditions are triple_to_cube's.
    """

    __slots__ = ("ring", "bases", "ideals", "products")

    def __init__(self, ring: QuadraticRing, bases):
        bases = tuple(tuple(pair) for pair in bases)
        if len(bases) != 3 or any(len(p) != 2 for p in bases):
            raise InputError("need three ordered basis pairs")
        ideals = tuple(
            OrientedIdeal.from_ordered_basis(ring, pair) for pair in bases
        )
        n = ideals[0].norm() * ideals[1].norm() * ideals[2].norm()
        if n != 1:
            raise InputError(f"norms multiply to {n}, not 1")
        al, be, ga = bases
        bg = [b * g for b in be for g in ga]
        products = tuple(a * x for a in al for x in bg)
        if not all(x.is_integral() for x in products):
            raise InputError("ideal product does not land in the ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "ideals", ideals)
        object.__setattr__(self, "products", products)

    def __repr__(self):
        return f"BalancedTriple(D={self.ring.D})"


class DualWitness(exact._Value):
    """The cube triple (R, S, T) dual to a composable (A, B, C)."""

    __slots__ = ("R", "S", "T")

    def __init__(self, R: Cube, S: Cube, T: Cube):
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "T", T)

    def cubes(self):
        return (self.R, self.S, self.T)


# shears tried per direction, in order; Q_i after the shear (p, q; r, s) in
# slot i takes at the basis vectors the values Q_i(p, -q) and Q_i(-r, s)
_SHEARS = (
    ((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 0), (1, 1)),
    ((1, -1), (0, 1)), ((1, 0), (-1, 1)), ((2, 1), (1, 1)),
)


def _shear(Q: BQF, cols):
    """The first of _SHEARS after which Q is nonzero at the basis vectors
    numbered in cols."""
    # a nonzero form vanishes on at most two lines, and no two lines meet
    # every candidate's needed columns, so one always qualifies
    for g in _SHEARS:
        (p, q), (r, s) = g
        images = ((p, -q), (-r, s))
        if all(Q(*images[c]) for c in cols):
            return g


def cube_to_triple(A: Cube) -> BalancedTriple:
    """The balanced triple of oriented ideals attached to a cube.

    Bases come straight from the corner coefficients: alpha_1, alpha_2 from
    the (i, 1, 1) corners, beta_1, beta_2 from (2, j, 2)-type corners, and
    gamma_1 = 1/beta_1, gamma_2 = 1/alpha_2.  alpha_2 and beta_1 must have
    nonzero norm; when a corner norm vanishes (only at square
    discriminants), one shear per direction, picked from the associated
    forms, is applied first and the resulting bases are mapped back through
    the inverse shear, so the returned triple always belongs to A itself.

    BalancedTriple checks the norms and integrality; the round trip
    triple_to_cube(triple) == A (_check_products) checks the defining system
    alpha_i beta_j gamma_k = a'_ijk + a_ijk tau at all eight corners and the
    three norm-form laws.  The slice law
    N(I_1) beta_j gamma_k = a_2jk conj(alpha_1) - a_1jk conj(alpha_2)
    follows: with X = beta_j gamma_k, a_ijk = (alpha_i X - conj(alpha_i X))
    / (tau - conj(tau)), so the right side is
    X (alpha_2 conj(alpha_1) - alpha_1 conj(alpha_2)) / (tau - conj(tau)),
    which is N(I_1) X.  Every nondegenerate cube has a triple, so a failed
    check here is an InternalError, never an InputError.
    """
    D = cube_disc(A)
    if D == 0:
        raise InputError("degenerate cube")
    ring = QuadraticRing(D)
    Q1, Q2, Q3 = assoc_forms(A)
    # N(alpha_2) = Q1(0,1) Q2(1,0) Q3(1,0) and N(beta_1) vanishes exactly
    # when Q1(0,1) Q2(1,0) Q3(0,1) does; a shear in slot i moves only Q_i
    moves = (_shear(Q1, (1,)), _shear(Q2, (0,)), _shear(Q3, (0, 1)))
    B = A if moves == (_SHEARS[0],) * 3 else gamma_act(A, *moves)
    Bp = companion_cube(B)
    try:
        alpha1, alpha2, beta1, beta2 = (
            KElem(ring, Bp.coeffs[f], B.coeffs[f]) for f in (0, 4, 5, 7)
        )
        bases = ((alpha1, alpha2), (beta1, beta2), (1 / beta1, 1 / alpha2))
        # direction i's ordered basis transforms by the inverse shear
        triple = BalancedTriple(ring, [
            (s * b1 - q * b2, p * b2 - r * b1)
            for ((p, q), (r, s)), (b1, b2) in zip(moves, bases)
        ])
        _check_products(triple, A, Bp if B is A else companion_cube(A))
    except InputError as exc:
        raise exact.InternalError(f"constructed triple rejected: {exc}") from exc
    return triple


def _check_products(T: BalancedTriple, A: Cube, Ap: Cube) -> None:
    """InputError unless T's basis products are Ap + A tau, Ap being A's
    companion, and its ideals' norm forms are A's associated forms."""
    if Cube(x.q for x in T.products) != A:
        raise InputError("triple does not give back its cube")
    if Cube(x.p for x in T.products) != Ap:
        raise InputError("tau-free parts do not form the companion cube")
    for ideal, Q in zip(T.ideals, assoc_forms(A)):
        if ideal_to_bqf(ideal) != Q:
            raise InputError("norm form does not match the associated form")


def triple_to_cube(T: BalancedTriple) -> Cube:
    """The cube of tau-parts of the eight basis products.

    BalancedTriple has already checked that the products are integral.
    Checked here: the tau-free parts reproduce the companion of the result,
    and the norm form of each ideal equals the matching associated form.
    """
    A = Cube(x.q for x in T.products)
    _check_products(T, A, companion_cube(A))
    return A


def _triple_cube(ring: QuadraticRing, bases) -> Cube:
    """triple_to_cube of a balanced triple on bases the library built
    itself, so a rejection is an InternalError."""
    try:
        return triple_to_cube(BalancedTriple(ring, bases))
    except InputError as exc:
        raise exact.InternalError(f"constructed triple rejected: {exc}") from exc


def _composable(A: Cube, B: Cube) -> None:
    """The domain of class composition: projective inputs of one nonsquare
    discriminant (at a square D, 0 included, S(D) is not a domain)."""
    D = cube_disc(A)
    if cube_disc(B) != D:
        raise InputError("discriminant mismatch")
    _require_nonsquare(D)
    if not (is_projective(A) and is_projective(B)):
        raise InputError("class composition needs projective inputs")


def cube_class_compose(A: Cube, B: Cube) -> Cube:
    """A representative of [A] + [B]: the cube of the balanced triple whose
    direction-i ideal is the product of A's and B's."""
    _composable(A, B)
    ta, tb = cube_to_triple(A), cube_to_triple(B)
    bases = [(Ia * Ib).basis for Ia, Ib in zip(ta.ideals, tb.ideals)]
    return _triple_cube(ta.ring, bases)


def dual_cubes_solve(A: Cube, B: Cube, C: Cube) -> DualWitness:
    """Witness cubes (R, S, T) for [A] + [B] + [C] = [id], or an error.

    Route: take the balanced triple of each input, multiply the direction-m
    ideals across the inputs, extract a generator of each product (it must
    be narrowly principal; its norm form is the composite of the three Q_m,
    so this is the one composability check), normalize the three generators
    so their product is exactly 1 (they multiply to a unit of norm 1, at
    D > 0 possibly a power of the fundamental unit), rescale the first
    input's bases, regroup direction by direction, and read off the cubes.
    Duality of the output against the inputs' forms is asserted on the
    nose.  Runs at every nonsquare D.
    """
    _composable(A, B)
    _composable(A, C)
    ta, tb, tc = cube_to_triple(A), cube_to_triple(B), cube_to_triple(C)
    kappas = []
    for m in range(3):
        P = ta.ideals[m] * tb.ideals[m] * tc.ideals[m]
        kappa = principal_generator(P)
        if kappa is None:
            raise InputError("not composable: ideal product is not principal")
        kappas.append(kappa)
    unit = kappas[0] * kappas[1] * kappas[2]
    exact._ensure(unit.is_integral() and unit.norm() == 1, "kappas give no unit")
    kappas[0] = kappas[0] / unit

    scaled = [[b / kappas[m] for b in ta.bases[m]] for m in range(3)]
    witness = DualWitness(*(
        _triple_cube(ta.ring, (scaled[m], tb.bases[m], tc.bases[m]))
        for m in range(3)
    ))
    # duality on the nose: direction i of witness j is direction j of input i
    inputs = (A, B, C)
    for j, W in enumerate(witness.cubes()):
        for i, X in enumerate(inputs):
            exact._ensure(assoc_form(W, i + 1) == assoc_form(X, j + 1), "duality fails")
    return witness
