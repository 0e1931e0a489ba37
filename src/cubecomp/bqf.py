"""Binary quadratic forms: SL2-action, reduction, Dirichlet composition,
class-group enumeration, the dictionary with oriented ideals, principality
of oriented ideals, and exact verification of Gauss composition identities.

A form [a, b, c] means a*x^2 + b*x*y + c*y^2.  For D < 0 the classes come in
(positive definite, negative definite) mirror pairs, which is what makes the
narrow class group twice the size of the usual one at negative discriminant.
Class tables come from a Cayley graph on a few reduced forms: h compositions
per generator, then lookups.  The negative definite classes need none:
[-Q][R] = -[Q^-1][R] is a property of composition itself.
"""

from __future__ import annotations

from math import gcd, isqrt

from . import exact
from .exact import BINARY_POINTS, InputError, UnsupportedDomainError
from .exact import VerifyResult, verify_at_points
from .qring import KElem, OrientedIdeal, QuadraticRing


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


class BQF(exact._Value):
    """Integral binary quadratic form a*x^2 + b*x*y + c*y^2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        as_int = exact._as_int
        object.__setattr__(self, "a", as_int(a))
        object.__setattr__(self, "b", as_int(b))
        object.__setattr__(self, "c", as_int(c))

    def coeffs(self):
        return (self.a, self.b, self.c)

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return gcd(self.a, self.b, self.c) == 1

    def __call__(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __neg__(self) -> "BQF":
        return BQF(-self.a, -self.b, -self.c)


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


class ReduceResult(exact._Value):
    """reduce() output: canonical form, the SL2 matrix achieving it, and for
    indefinite forms the full cycle of reduced forms."""

    __slots__ = ("canonical", "transform", "cycle")

    def __init__(self, canonical: BQF, transform, cycle=None):
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "transform", transform)
        object.__setattr__(self, "cycle", cycle)

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


def _require_nonsquare(D: int) -> None:
    """The one domain rule: at a square D, 0 included, S(D) is not a domain
    and forms have no reduction theory (a and c can vanish)."""
    if _is_square(D):
        raise UnsupportedDomainError("square discriminant")


def _rho(Q: BQF, s: int, M):
    """One continued-fraction step: Q^g for g = [[0, -1], [1, d]], and M*g."""
    a, b, c = Q.coeffs()
    ac = abs(c)
    if ac > s:
        lo = -ac + 1  # r in (-|c|, |c|]
    else:
        lo = s - 2 * ac + 1  # r in (sqrt(D) - 2|c|, sqrt(D))
    r = lo + ((-b - lo) % (2 * ac))
    d = (r + b) // (2 * c)
    (p, q), (u, v) = M
    return BQF(c, 2 * c * d - b, a - b * d + c * d * d), ((q, q * d - p), (v, v * d - u))


def _cycle(Q: BQF):
    """Yield (F, M) with Q^M = F for each form of the reduced cycle that rho
    reaches from Q, once each, in walk order.  Only the current M is held,
    so memory stays linear in the cycle length."""
    D = Q.disc()
    _require_nonsquare(D)
    s = isqrt(D)
    F, M = Q, _ID2
    # rho reaches a reduced form in finitely many steps and the reduced
    # cycle is finite, so neither loop needs a cap
    while not _indef_reduced(F, s):
        F, M = _rho(F, s, M)
    first = F
    while True:
        yield F, M
        F, M = _rho(F, s, M)
        if F == first:
            return


def reduce(Q: BQF) -> ReduceResult:
    """Canonical class representative with the transformation reaching it.

    D < 0: the unique reduced form (sign-preserved for negative definite).
    D > 0 nonsquare: the lexicographically least form of the reduced cycle,
    which is also returned in full; one walk keeps only the least form's
    transform.  A square discriminant, 0 included, raises
    UnsupportedDomainError from the walk.
    """
    if Q.disc() < 0:
        if Q.a > 0:
            canonical, g = _reduce_posdef(Q)
        else:
            canonical, g = _reduce_posdef(-Q)
            canonical = -canonical
        return ReduceResult(canonical, g)
    cycle, best = [], None
    for F, M in _cycle(Q):
        cycle.append(F)
        if best is None or F.coeffs() < best[0].coeffs():
            best = F, M
    return ReduceResult(*best, tuple(cycle))


def compose_dirichlet(Q1: BQF, Q2: BQF) -> BQF:
    """A reduced form representing the composed class [Q1][Q2].

    Dirichlet composition in gcd form (Cohen, GTM 138, Alg. 5.4.7; Buell,
    Binary Quadratic Forms, ch. 4): for s = (b1 + b2)/2 and d = gcd(a1, a2, s)
    = u*a1 + v*a2 + w*s, it is [a3, B, (B^2 - D)/(4*a3)] with a3 = a1*a2/d^2,
    B = (u*a1*b2 + v*a2*b1 + w*(b1*b2 + D)/2)/d.  The sign of a is the mu of
    its oriented ideal: a3 takes the product of the signs and B sees a1, a2
    only through congruences, so one formula serves every sign of D, a1, a2.
    """
    D = Q1.disc()
    if Q2.disc() != D:
        raise InputError("discriminant mismatch")
    if not (Q1.is_primitive() and Q2.is_primitive()):
        raise InputError("composition needs primitive forms")
    _require_nonsquare(D)
    (a1, b1, _), (a2, b2, _) = Q1.coeffs(), Q2.coeffs()
    s = (b1 + b2) // 2  # b1, b2 and D share parity
    x, y = exact._bezout(a1, a2)
    p, w = exact._bezout(x * a1 + y * a2, s)
    u, v, d = p * x, p * y, gcd(a1, a2, s)
    a3 = a1 * a2 // (d * d)
    B = (u * a1 * b2 + v * a2 * b1 + w * ((b1 * b2 + D) // 2)) // d % (2 * a3)
    exact._ensure((B * B - D) % (4 * a3) == 0, "composed form is not integral")
    return reduce(BQF(a3, B, (B * B - D) // (4 * a3))).canonical


class GaussBilinearData(exact._Value):
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


class ClassGroupTable(exact._Value):
    """The narrow class group at discriminant D, fully tabulated.

    Representatives are canonical reduced forms (for D < 0 both definite
    signs appear); table[i][j] is the index of the composed class.
    """

    __slots__ = ("D", "representatives", "table", "_identity")

    def __init__(self, D: int, representatives, table, identity: int):
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "representatives", tuple(representatives))
        object.__setattr__(self, "table", tuple(tuple(row) for row in table))
        object.__setattr__(self, "_identity", identity)

    def __len__(self):
        return len(self.representatives)

    def index_of(self, Q: BQF) -> int:
        canonical = reduce(Q).canonical
        if canonical not in self.representatives:
            raise InputError(f"{Q!r} is not in any tabulated class")
        return self.representatives.index(canonical)

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
    _require_nonsquare(D)
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


def principal_generator(I: OrientedIdeal):
    """kappa with I = kappa*S as oriented ideals, or None.

    I is narrowly principal exactly when a reduced form in the class of its
    norm form Q properly represents 1 (Cohen, GTM 138, 5.6-5.8), that is,
    when one reduced form of the class has a = 1.  At D < 0 that form is
    reduce(Q); at D > 0 it is [1, b, (b^2 - D)/4] with b = s or s - 1
    (s = isqrt(D), b = D mod 2), and the walk of Q's cycle stops there.
    Then Q^M = [1, b, .] and Q takes the value 1 at M's first column (x, y):
    the element kappa = x*b1 - y*b2 of I has N(kappa) = N(I), sign included.
    A square discriminant raises UnsupportedDomainError, as in reduce.
    """
    Q = ideal_to_bqf(I)
    if Q.disc() < 0:
        r = reduce(Q)
        walk = ((r.canonical, r.transform),)
    else:
        walk = _cycle(Q)
    for F, M in walk:
        if F.a == 1:
            (x, _), (y, _) = M
            b1, b2 = I.basis
            return b1 * x - b2 * y
    return None
