"""Binary quadratic forms: SL2-action, reduction, Dirichlet composition,
class-group enumeration, the dictionary with oriented ideals, and exact
verification of Gauss composition identities.

A form [a, b, c] means a*x^2 + b*x*y + c*y^2.  For D < 0 the classes come in
(positive definite, negative definite) mirror pairs, which is what makes the
narrow class group twice the size of the usual one at negative discriminant.
Class tables come from a Cayley graph on a few reduced forms: h compositions
per generator, then lookups, with the negative definite classes by a sign
rule.
"""

from __future__ import annotations

from math import gcd, isqrt

from . import exact
from .exact import BINARY_POINTS, InputError, UnsupportedDomainError
from .exact import VerifyResult, verify_at_points
from .qring import KElem, OrientedIdeal, QuadraticRing


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


class BQF:
    """Integral binary quadratic form a*x^2 + b*x*y + c*y^2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        as_int = exact._as_int
        object.__setattr__(self, "a", as_int(a))
        object.__setattr__(self, "b", as_int(b))
        object.__setattr__(self, "c", as_int(c))

    def __setattr__(self, name, value):
        raise AttributeError("BQF is immutable")

    @classmethod
    def from_triple(cls, t) -> "BQF":
        if len(t) != 3:
            raise InputError("a form needs exactly three coefficients")
        return cls(*t)

    def coeffs(self):
        return (self.a, self.b, self.c)

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        return gcd(gcd(abs(self.a), abs(self.b)), abs(self.c))

    def is_primitive(self) -> bool:
        return self.content() == 1

    def __call__(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __neg__(self) -> "BQF":
        return BQF(-self.a, -self.b, -self.c)

    def __eq__(self, other):
        return isinstance(other, BQF) and self.coeffs() == other.coeffs()

    def __hash__(self):
        return hash(self.coeffs())

    def __repr__(self):
        return f"BQF{self.coeffs()}"


def sl2_act(Q: BQF, g) -> BQF:
    """Q^g(x, y) = Q(p*x + q*y, r*x + s*y) for g = [[p, q], [r, s]], det 1."""
    (p, q), (r, s) = ((exact._as_int(t) for t in row) for row in g)
    if p * s - q * r != 1:
        raise InputError("matrix must have determinant 1")
    a2 = Q(p, r)
    c2 = Q(q, s)
    b2 = Q(p + q, r + s) - a2 - c2
    return BQF(a2, b2, c2)


def principal_form(D: int) -> BQF:
    if D % 4 == 0:
        return BQF(1, 0, -D // 4)
    if D % 4 == 1:
        return BQF(1, 1, (1 - D) // 4)
    raise InputError("a discriminant must be 0 or 1 mod 4")


_ID2 = ((1, 0), (0, 1))
_SWAP = ((0, 1), (-1, 0))  # [c, -b, a] under the action


class ReduceResult:
    """reduce() output: canonical form, the SL2 matrix achieving it, and for
    indefinite forms the full cycle of reduced forms."""

    __slots__ = ("canonical", "transform", "cycle")

    def __init__(self, canonical: BQF, transform, cycle=None):
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "transform", transform)
        object.__setattr__(self, "cycle", cycle)

    def __setattr__(self, name, value):
        raise AttributeError("ReduceResult is immutable")

    def __repr__(self):
        return f"ReduceResult({self.canonical!r})"


def _reduce_posdef(Q: BQF):
    g = _ID2
    a, b, c = Q.coeffs()
    while True:
        if a > c:
            a, b, c = c, -b, a
            g = exact._mat_mul(g, _SWAP)
            continue
        if b > a or b <= -a:
            # the unique t putting b + 2at into (-a, a]
            t = (a - b) // (2 * a)
            shift = ((1, t), (0, 1))
            b2 = b + 2 * a * t
            c2 = a * t * t + b * t + c
            a, b, c = a, b2, c2
            g = exact._mat_mul(g, shift)
            continue
        break
    # tie conventions: b >= 0 when |b| = a or a = c
    if b < 0 and (-b == a or a == c):
        if -b == a:
            shift = ((1, 1), (0, 1))
            b2 = b + 2 * a
            c2 = a + b + c
            a, b, c = a, b2, c2
            g = exact._mat_mul(g, shift)
        else:  # a == c, flip sign of b by the swap
            a, b, c = c, -b, a
            g = exact._mat_mul(g, _SWAP)
    return BQF(a, b, c), g


def _indef_reduced(Q: BQF, s: int) -> bool:
    a, b, c = Q.coeffs()
    # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, in integer terms
    return 1 <= b <= s and s - b + 1 <= 2 * abs(a) <= s + b


def _rho(Q: BQF, s: int):
    """One continued-fraction step; returns the new form and its matrix."""
    a, b, c = Q.coeffs()
    if c == 0:
        raise UnsupportedDomainError("square discriminant")
    ac = abs(c)
    if ac > s:
        lo = -ac + 1  # r in (-|c|, |c|]
    else:
        lo = s - 2 * ac + 1  # r in (sqrt(D) - 2|c|, sqrt(D))
    r = lo + ((-b - lo) % (2 * ac))
    d = (r + b) // (2 * c)
    g = ((0, -1), (1, d))
    a2, b2, c2 = c, 2 * c * d - b, a - b * d + c * d * d
    return BQF(a2, b2, c2), g


def _reduce_indefinite(Q: BQF):
    D = Q.disc()
    s = isqrt(D)
    g = _ID2
    cur = Q  # a, c never vanish: D is nonsquare
    # rho reaches a reduced form in finitely many steps and the reduced
    # cycle is finite, so neither loop needs a cap
    while not _indef_reduced(cur, s):
        cur, step = _rho(cur, s)
        g = exact._mat_mul(g, step)
    # walk the cycle, track transforms, land on the lexicographically least
    cycle = [cur]
    transforms = [g]
    probe, gp = cur, g
    while True:
        probe, step = _rho(probe, s)
        gp = exact._mat_mul(gp, step)
        if probe == cur:
            break
        cycle.append(probe)
        transforms.append(gp)
    best = min(range(len(cycle)), key=lambda i: cycle[i].coeffs())
    return cycle[best], transforms[best], tuple(cycle)


def reduce(Q: BQF) -> ReduceResult:
    """Canonical class representative with the transformation reaching it.

    D < 0: the unique reduced form (sign-preserved for negative definite).
    D > 0 nonsquare: the lexicographically least form of the reduced cycle,
    which is also returned in full.  Square or zero discriminants are out.
    """
    D = Q.disc()
    if D == 0 or _is_square(D):
        raise UnsupportedDomainError("square discriminant has no reduction theory here")
    if D < 0:
        if Q.a > 0:
            canonical, g = _reduce_posdef(Q)
        else:
            canonical, g = _reduce_posdef(-Q)
            canonical = -canonical
        return ReduceResult(canonical, g)
    canonical, g, cycle = _reduce_indefinite(Q)
    return ReduceResult(canonical, g, cycle)


def _coprime_representative(Q: BQF, n: int) -> BQF:
    """An SL2-equivalent of Q whose leading coefficient is coprime to n."""
    n = abs(n)
    bound = 1
    while bound <= 64:
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if gcd(x, y) != 1:
                    continue
                v = Q(x, y)
                if v != 0 and gcd(v, n) == 1:
                    # extend (x, y) to an SL2 matrix as the first column
                    u, w = exact._bezout(x, y)
                    gmat = ((x, -w), (y, u))
                    exact._ensure(x * u + y * w == 1, "Bezout extension is not in SL2")
                    return sl2_act(Q, gmat)
        bound *= 2
    raise InputError("no representative coprime to the modulus found")


def compose_dirichlet(Q1: BQF, Q2: BQF) -> BQF:
    """A reduced form representing the composed class [Q1][Q2].

    United-forms recipe: replace Q2 by an equivalent with leading coefficient
    coprime to Q1's, line up the middle coefficients by CRT, multiply.
    """
    D = Q1.disc()
    if Q2.disc() != D:
        raise InputError("discriminant mismatch")
    if not (Q1.is_primitive() and Q2.is_primitive()):
        raise InputError("composition needs primitive forms")
    if D == 0 or _is_square(D):
        raise UnsupportedDomainError("square discriminant")
    if D < 0:
        s1 = 1 if Q1.a > 0 else -1
        s2 = 1 if Q2.a > 0 else -1
        if s1 < 0 or s2 < 0:
            # -Q corresponds to the conjugate module with orientation -1,
            # so each negative sign inverts (conjugates) the other factor
            P1 = Q1 if s1 > 0 else -Q1
            P2 = Q2 if s2 > 0 else -Q2
            if s2 < 0:
                P1 = BQF(P1.a, -P1.b, P1.c)
            if s1 < 0:
                P2 = BQF(P2.a, -P2.b, P2.c)
            pos = compose_dirichlet(P1, P2)
            return reduce(pos if s1 * s2 > 0 else -pos).canonical
    q2 = _coprime_representative(Q2, Q1.a)
    a1, b1 = Q1.a, Q1.b
    a2, b2 = q2.a, q2.b
    # B = b1 (mod 2a1), B = b2 (mod 2a2); both ideals share parity of D
    m1, m2 = 2 * abs(a1), 2 * abs(a2)
    g = gcd(m1, m2)
    exact._ensure((b1 - b2) % g == 0, "middle coefficients admit no CRT lift")
    u, _ = exact._bezout(m1 // g, m2 // g)
    lcm = m1 // g * m2
    B = (b1 + m1 * (((b2 - b1) // g) * u % (m2 // g))) % lcm
    a3 = a1 * a2
    exact._ensure((B * B - D) % (4 * a3) == 0, "united form is not integral")
    c3 = (B * B - D) // (4 * a3)
    return reduce(BQF(a3, B, c3)).canonical


class GaussBilinearData:
    """The two 2x2 matrices defining the bilinear substitution z(x, y)."""

    __slots__ = ("amat", "bmat")

    def __init__(self, amat, bmat):
        amat = tuple(tuple(exact._as_int(t) for t in row) for row in amat)
        bmat = tuple(tuple(exact._as_int(t) for t in row) for row in bmat)
        for mat in (amat, bmat):
            if len(mat) != 2 or any(len(r) != 2 for r in mat):
                raise InputError("bilinear data must be two 2x2 matrices")
        object.__setattr__(self, "amat", amat)
        object.__setattr__(self, "bmat", bmat)

    def __setattr__(self, name, value):
        raise AttributeError("GaussBilinearData is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GaussBilinearData)
            and self.amat == other.amat
            and self.bmat == other.bmat
        )

    def __repr__(self):
        return f"GaussBilinearData({self.amat}, {self.bmat})"


def verify_gauss_identity(
    Q1: BQF, Q2: BQF, Q3: BQF, data: GaussBilinearData
) -> VerifyResult:
    """Exact check of Q1(x)*Q2(y) = Q3(z1, z2) plus both normalizations.

    z1, z2 are the bilinear forms given by data.  Both sides have degree 2
    in x and in y, so agreement on the 3x3 grid of BINARY_POINTS[:3] is
    agreement as polynomials: truth here is truth everywhere.
    """
    a, b = data.amat, data.bmat
    reasons = []
    if Q1(1, 0) != a[0][0] * b[0][1] - a[0][1] * b[0][0]:
        reasons.append("normalization fails: Q1(1, 0) != a11 b12 - a12 b11")
    if Q2(1, 0) != a[0][0] * b[1][0] - a[1][0] * b[0][0]:
        reasons.append("normalization fails: Q2(1, 0) != a11 b21 - a21 b11")

    def z(m, x, y):
        return sum(x[i] * m[i][j] * y[j] for i in (0, 1) for j in (0, 1))

    points = BINARY_POINTS[:3]
    return verify_at_points(
        lambda x, y: Q1(*x) * Q2(*y),
        lambda x, y: Q3(z(a, x, y), z(b, x, y)),
        (points, points),
        "(x, y)",
        reasons,
    )


class ClassGroupTable:
    """The narrow class group at discriminant D, fully tabulated.

    Representatives are canonical reduced forms (for D < 0 both definite
    signs appear); table[i][j] is the index of the composed class.
    """

    __slots__ = ("D", "representatives", "table", "_identity", "_index")

    def __init__(self, D: int, representatives, table, identity: int):
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "representatives", tuple(representatives))
        object.__setattr__(self, "table", tuple(tuple(row) for row in table))
        object.__setattr__(self, "_identity", identity)
        index = {Q: i for i, Q in enumerate(self.representatives)}
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("ClassGroupTable is immutable")

    def __len__(self):
        return len(self.representatives)

    def index_of(self, Q: BQF) -> int:
        i = self._index.get(reduce(Q).canonical)
        if i is None:
            raise InputError(f"{Q!r} is not in any tabulated class")
        return i

    def identity_index(self) -> int:
        return self._identity

    def __repr__(self):
        return f"ClassGroupTable(D={self.D}, {len(self.representatives)} classes)"


def _reduced_posdef_forms(D: int):
    """Primitive reduced forms |b| <= a <= c (b >= 0 when |b| = a or a = c),
    by b >= 0 and the divisors a of n = (b^2 - D)/4 with a^2 <= n."""
    out = []
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        n = (b * b - D) // 4
        for a in range(max(b, 1), isqrt(n) + 1):
            if n % a == 0 and gcd(gcd(a, b), n // a) == 1:
                c = n // a
                out.append(BQF(a, b, c))
                if 0 < b < a < c:
                    out.append(BQF(a, -b, c))
    return sorted(out, key=BQF.coeffs)


def _reduced_indefinite_forms(D: int):
    """Primitive reduced forms (0 < b < sqrt(D), sqrt(D) - b < 2|a| <
    sqrt(D) + b), by b and the divisors |a| of n = (D - b^2)/4."""
    s = isqrt(D)
    out = []
    for b in range(2 - D % 2, s + 1, 2):
        n = (D - b * b) // 4
        for a in range((s - b + 2) // 2, (s + b) // 2 + 1):
            if n % a == 0 and gcd(gcd(a, b), n // a) == 1:
                out += (BQF(a, b, -n // a), BQF(-a, b, n // a))
    return out


def enumerate_class_group(D: int) -> ClassGroupTable:
    """All SL2-classes of primitive forms of discriminant D, with the
    composition table.

    The h classes (at D < 0 the positive definite ones) form a finite
    abelian group.  A representative joins the generators, in order, when a
    breadth-first search from the principal class over the Cayley graph of
    the generators so far does not reach it; each costs h compositions and
    at least doubles the reached subgroup, so there are at most log2(h).
    Row i of the table follows every class's search-tree word from class i.
    At D < 0, -Q composes as the conjugate (inverse) of Q.
    """
    if D % 4 not in (0, 1):
        raise InputError("a discriminant must be 0 or 1 mod 4")
    if D == 0 or _is_square(D):
        raise UnsupportedDomainError("square discriminant")
    if D < 0:
        reps = _reduced_posdef_forms(D)
    else:
        reps, seen = [], set()
        for Q in _reduced_indefinite_forms(D):
            if Q not in seen:
                res = reduce(Q)
                seen.update(res.cycle)
                reps.append(res.canonical)
        reps.sort(key=BQF.coeffs)
    h = len(reps)
    index = {Q: i for i, Q in enumerate(reps)}
    e = index[reduce(principal_form(D)).canonical]
    cay = []  # cay[k][x]: the class of reps[x] times generator k
    word = {e: None}  # class -> (class one step nearer e, generator used)
    for g in reps:
        if index[g] not in word:
            cay.append([index[compose_dirichlet(Q, g)] for Q in reps])
            word, order = {e: None}, [e]
            for x in order:
                for k, col in enumerate(cay):
                    if col[x] not in word:
                        word[col[x]] = (x, k)
                        order.append(col[x])
    exact._ensure(len(word) == h, "the Cayley graph misses a class")
    steps = [(j, *word[j]) for j in word if j != e]
    table = []
    for i in range(h):
        row = [i] * h
        for j, x, k in steps:
            row[j] = cay[k][row[x]]
        table.append(row)
    for col in cay:  # a permutation, and generator col[e]'s row read by words
        ok = len(set(col)) == h and table[col[e]] == col
        exact._ensure(ok, "class table disagrees with its Cayley graph")
    if D < 0:
        inv = [row.index(e) for row in table]
        table = [r + [h + t for t in table[inv[i]]] for i, r in enumerate(table)] + [
            [h + table[i][j] for j in inv] + [table[inv[i]][j] for j in inv]
            for i in range(h)]
        reps += [-Q for Q in reps]
    return ClassGroupTable(D, reps, table, e)


def bqf_to_ideal(Q: BQF, ring: QuadraticRing | None = None) -> OrientedIdeal:
    """The oriented ideal <a, tau - (b+eps)/2> with mu = sign(a)."""
    D = Q.disc()
    if ring is None:
        ring = QuadraticRing(D)
    elif ring.D != D:
        raise InputError("form discriminant does not match the ring")
    if Q.a == 0:
        raise InputError("leading coefficient must be nonzero")
    h = (Q.b + ring.eps) // 2  # b and eps share parity with D
    basis = (KElem(ring, Q.a), KElem(ring, -h, 1))
    return OrientedIdeal(ring, basis, 1 if Q.a > 0 else -1)


def ideal_to_bqf(I: OrientedIdeal) -> BQF:
    """The norm form N(x*b1 - y*b2)/N(I) on the stored oriented basis."""
    b1, b2 = I.basis
    n = I.norm()
    A = b1.norm() / n
    C = b2.norm() / n
    Bc = (b1 * b2.conj()).trace() / (-n)
    for coef in (A, Bc, C):
        if coef.denominator != 1:
            raise InputError("norm form is not integral on this basis")
    Q = BQF(A, Bc, C)
    exact._ensure(Q.disc() == I.ring.D, "norm form has the wrong discriminant")
    return Q


def ideal_class_equal(I: OrientedIdeal, J: OrientedIdeal) -> bool:
    """Oriented-class equality, decided through the reduced-form dictionary.

    The signed norm form carries mu in its sign, and canonical reduction
    decides SL2-equivalence, so this works at any nonsquare discriminant.
    """
    if I.ring != J.ring:
        raise InputError("ideals over different rings")
    QI = ideal_to_bqf(I)
    QJ = ideal_to_bqf(J)
    return reduce(QI).canonical == reduce(QJ).canonical
