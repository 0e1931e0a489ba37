"""The quadratic ring S(D) = Z[tau], its fraction field, and oriented ideals.

For a discriminant D = 0, 1 (mod 4) put eps = D mod 4 and m = (D - eps)/4;
then tau satisfies tau^2 = eps*tau + m and S(D) = Z + Z*tau has discriminant
D.  Field elements are stored as (p + q*tau)/d in lowest terms.  An oriented
(fractional) ideal is a rank-2 S-submodule of the field together with a sign
mu; its stored basis is ordered so the determinant of the coordinate matrix
over (1, tau) has sign mu, making the signed norm equal to that determinant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .exact import IMat2, InputError, UnsupportedDomainError


class QuadraticRing:
    """The ring of discriminant D; immutable, compared by D."""

    __slots__ = ("D", "eps", "m")

    def __init__(self, D: int):
        D = int(D)
        if D % 4 not in (0, 1):
            raise InputError("a discriminant must be 0 or 1 mod 4")
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "eps", D % 4)
        object.__setattr__(self, "m", (D - D % 4) // 4)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticRing is immutable")

    def __eq__(self, other):
        return isinstance(other, QuadraticRing) and self.D == other.D

    def __hash__(self):
        return hash(("QuadraticRing", self.D))

    def __repr__(self):
        return f"QuadraticRing({self.D})"

    def element(self, p, q=0, d=1) -> "KElem":
        return KElem(self, p, q, d)

    def zero(self) -> "KElem":
        return KElem(self, 0)

    def one(self) -> "KElem":
        return KElem(self, 1)

    def tau(self) -> "KElem":
        return KElem(self, 0, 1)

    def torsion_units(self):
        """Roots of unity in S(D)."""
        if self.D == -4:
            t = self.tau()
            return [self.one(), t, -self.one(), -t]
        if self.D == -3:
            t = self.tau()
            u = t * t  # tau - 1, a primitive cube root of unity
            return [self.one(), t, u, -self.one(), -t, -u]
        return [self.one(), -self.one()]


class KElem:
    """Element (p + q*tau)/d of the fraction field of S(D), in lowest terms."""

    __slots__ = ("ring", "p", "q", "d")

    def __init__(self, ring: QuadraticRing, p, q=0, d=1):
        if not isinstance(ring, QuadraticRing):
            raise InputError("ring must be a QuadraticRing")
        pr = Fraction(p) / d
        qr = Fraction(q) / d
        den = lcm(pr.denominator, qr.denominator)
        P = pr.numerator * (den // pr.denominator)
        Q = qr.numerator * (den // qr.denominator)
        g = gcd(gcd(abs(P), abs(Q)), den)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "p", P // g)
        object.__setattr__(self, "q", Q // g)
        object.__setattr__(self, "d", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("KElem is immutable")

    # -- structure ---------------------------------------------------------

    def coords(self):
        """(rational coefficient of 1, rational coefficient of tau)."""
        return (Fraction(self.p, self.d), Fraction(self.q, self.d))

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def is_rational(self) -> bool:
        return self.q == 0

    def is_integral(self) -> bool:
        return self.d == 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KElem(self.ring, other)
        return (
            isinstance(other, KElem)
            and self.ring == other.ring
            and (self.p, self.q, self.d) == (other.p, other.q, other.d)
        )

    def __hash__(self):
        return hash((self.ring.D, self.p, self.q, self.d))

    def __repr__(self):
        num = f"{self.p}"
        if self.q:
            sign = "+" if self.q > 0 else "-"
            mag = abs(self.q)
            tq = "tau" if mag == 1 else f"{mag}*tau"
            num = f"{self.p} {sign} {tq}" if self.p else (f"-{tq}" if self.q < 0 else tq)
        return f"<{num}>" if self.d == 1 else f"<({num})/{self.d}>"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "KElem":
        if isinstance(other, KElem):
            if other.ring != self.ring:
                raise InputError("mixed rings")
            return other
        if isinstance(other, (int, Fraction)):
            return KElem(self.ring, other)
        raise InputError(f"cannot coerce {other!r} into the field")

    def __add__(self, other) -> "KElem":
        o = self._coerce(other)
        sp, sq = self.coords()
        op, oq = o.coords()
        return KElem(self.ring, sp + op, sq + oq)

    __radd__ = __add__

    def __neg__(self) -> "KElem":
        return KElem(self.ring, -self.p, -self.q, self.d)

    def __sub__(self, other) -> "KElem":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "KElem":
        return self._coerce(other) - self

    def __mul__(self, other) -> "KElem":
        o = self._coerce(other)
        p1, q1 = self.coords()
        p2, q2 = o.coords()
        r = self.ring
        return KElem(
            r,
            p1 * p2 + r.m * q1 * q2,
            p1 * q2 + q1 * p2 + r.eps * q1 * q2,
        )

    __rmul__ = __mul__

    def conj(self) -> "KElem":
        # conjugation swaps the roots of tau^2 - eps*tau - m
        return KElem(self.ring, self.p + self.q * self.ring.eps, -self.q, self.d)

    def norm(self) -> Fraction:
        p, q = self.coords()
        return p * p + p * q * self.ring.eps - q * q * self.ring.m

    def trace(self) -> Fraction:
        p, q = self.coords()
        return 2 * p + q * self.ring.eps

    def inverse(self) -> "KElem":
        n = self.norm()
        if n == 0:
            raise InputError("division by a zero-norm element")
        c = self.conj()
        return KElem(self.ring, Fraction(c.p, c.d) / n, Fraction(c.q, c.d) / n)

    def __truediv__(self, other) -> "KElem":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "KElem":
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "KElem":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


def _integer_cube_root(n: int):
    """The integer r with r**3 == n, or None."""
    m = abs(n)
    # Newton from above: 2**ceil(bits/3) exceeds the root, and each step
    # stays at or above floor(m**(1/3)) while r**3 > m
    r = 1 << -(-m.bit_length() // 3)
    while r * r * r > m:
        r = (2 * r + m // (r * r)) // 3
    if r * r * r != m:
        return None
    return r if n >= 0 else -r


def _rational_cube_root(x: Fraction):
    """Exact cube root of a rational, or None."""
    a = _integer_cube_root(x.numerator)
    b = _integer_cube_root(x.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def _rational_sqrt(x: Fraction):
    if x < 0:
        return None
    a, b = isqrt(x.numerator), isqrt(x.denominator)
    if a * a != x.numerator or b * b != x.denominator:
        return None
    return Fraction(a, b)


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def kelem_cube_root(x: KElem):
    """A y in the same field with y^3 = x, if one exists, else None.

    Any solution has N(y)^3 = N(x) and its trace t satisfies the monic cubic
    t^3 - 3*N(y)*t - tr(x) = 0, so both are found by exact rational root
    extraction; p and q are then recovered from t and t^2 - 4*N(y) = q^2*D.
    """
    ring = x.ring
    if x.is_zero():
        return ring.zero()
    n_y = _rational_cube_root(x.norm())
    if n_y is None:
        return None
    if ring.D == 0:
        r = _rational_cube_root(Fraction(x.p, x.d)) if x.is_rational() else None
        return None if r is None else KElem(ring, r)
    tr_x = x.trace()
    M = lcm(n_y.denominator, tr_x.denominator)
    c1 = -3 * n_y * M * M  # integer by choice of M
    c0 = -tr_x * M * M * M
    candidates = set()
    if c0 == 0:
        candidates.add(0)
        s2 = _rational_sqrt(Fraction(-c1))
        if s2 is not None and s2.denominator == 1:
            candidates.update((s2.numerator, -s2.numerator))
    else:
        for d in _divisors(int(c0)):
            candidates.update((d, -d))
    for T in candidates:
        if T**3 + c1 * T + c0 != 0:
            continue
        t = Fraction(T, M)
        q2 = (t * t - 4 * n_y) / ring.D
        qroot = _rational_sqrt(q2)
        if qroot is None:
            continue
        for q in {qroot, -qroot}:
            p = (t - q * ring.eps) / 2
            y = KElem(ring, p, q)
            if y * y * y == x:
                return y
    return None


def _hnf_rows(rows):
    """Hermite form of the row span of an integer k x 2 matrix.

    Returns ((d1, 0), (x, d2)) with d1, d2 > 0 and 0 <= x < d1, or raises
    if the span has rank < 2.
    """
    rows = [tuple(int(c) for c in r) for r in rows]
    # sweep the tau-column to a single pivot by extended gcds
    work = [r for r in rows if r != (0, 0)]
    pivot = (0, 0)
    firsts = []
    for (p, q) in work:
        if q == 0:
            firsts.append(p)
            continue
        if pivot == (0, 0):
            pivot = (p, q)
            continue
        a, b = pivot[1], q
        g = gcd(a, b)
        # u*a + v*b = g
        u, v = _bezout(a, b)
        new_pivot = (u * pivot[0] + v * p, g)
        # the combination (b/g)*pivot - (a/g)*row kills the tau part
        firsts.append((b // g) * pivot[0] - (a // g) * p)
        pivot = new_pivot
    if pivot[1] == 0:
        raise InputError("rank < 2; not a full module")
    d2 = abs(pivot[1])
    if pivot[1] < 0:
        pivot = (-pivot[0], d2)
    d1 = 0
    for f in firsts:
        d1 = gcd(d1, abs(f))
    if d1 == 0:
        raise InputError("rank < 2; not a full module")
    x = pivot[0] % d1
    return ((d1, 0), (x, d2))


def _bezout(a: int, b: int):
    """(u, v) with u*a + v*b = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


class OrientedIdeal:
    """Fractional S(D)-ideal with an orientation sign.

    The stored basis is ordered so that det of its coordinate matrix over
    (1, tau) carries the sign mu; norm() returns that signed determinant.
    """

    __slots__ = ("ring", "basis", "mu")

    def __init__(self, ring: QuadraticRing, basis, mu: int = 1):
        if mu not in (1, -1):
            raise InputError("orientation must be +1 or -1")
        b1, b2 = basis
        if not (isinstance(b1, KElem) and isinstance(b2, KElem)):
            raise InputError("basis entries must be field elements")
        if b1.ring != ring or b2.ring != ring:
            raise InputError("basis entries from the wrong ring")
        det = self._coord_det(b1, b2)
        if det == 0:
            raise InputError("basis is linearly dependent")
        if (det > 0) != (mu > 0):
            b2 = -b2
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "basis", (b1, b2))
        object.__setattr__(self, "mu", mu)
        # S-stability: tau * basis must lie in the Z-span of the basis
        t = ring.tau()
        for b in self.basis:
            if not self._in_span(t * b):
                raise InputError("lattice is not a module over the ring")

    def __setattr__(self, name, value):
        raise AttributeError("OrientedIdeal is immutable")

    @staticmethod
    def _coord_det(b1: KElem, b2: KElem) -> Fraction:
        (p1, q1), (p2, q2) = b1.coords(), b2.coords()
        return p1 * q2 - q1 * p2

    def _coord_matrix(self) -> IMat2:
        (p1, q1), (p2, q2) = (b.coords() for b in self.basis)
        return IMat2(p1, q1, p2, q2)

    def _in_span(self, x: KElem) -> bool:
        xp, xq = x.coords()
        inv = self._coord_matrix().inverse()
        # row vector (xp, xq) times the inverse gives the coordinates
        u = xp * inv.a + xq * inv.c
        v = xp * inv.b + xq * inv.d
        return u.denominator == 1 and v.denominator == 1

    @classmethod
    def unit_ideal(cls, ring: QuadraticRing) -> "OrientedIdeal":
        return cls(ring, (ring.one(), ring.tau()), 1)

    @classmethod
    def from_ordered_basis(cls, ring: QuadraticRing, basis) -> "OrientedIdeal":
        """Ideal whose orientation is read off the given basis order."""
        b1, b2 = basis
        det = cls._coord_det(b1, b2)
        if det == 0:
            raise InputError("basis is linearly dependent")
        return cls(ring, (b1, b2), 1 if det > 0 else -1)

    def norm(self) -> Fraction:
        """Signed norm; its absolute value is the covolume relative to S."""
        return self._coord_det(*self.basis)

    def module_key(self):
        """Canonical invariant of the underlying module (orientation-free)."""
        coords = [b.coords() for b in self.basis]
        den = lcm(
            coords[0][0].denominator,
            coords[0][1].denominator,
            coords[1][0].denominator,
            coords[1][1].denominator,
        )
        rows = [(int(p * den), int(q * den)) for (p, q) in coords]
        (d1, _), (x, d2) = _hnf_rows(rows)
        return (Fraction(d1, den), Fraction(x, den), Fraction(d2, den))

    def hnf_basis(self) -> "OrientedIdeal":
        """Same oriented ideal with the canonical triangular basis."""
        a, x, c = self.module_key()
        return OrientedIdeal(
            self.ring,
            (KElem(self.ring, a), KElem(self.ring, x, c)),
            self.mu,
        )

    def same_module(self, other: "OrientedIdeal") -> bool:
        return self.ring == other.ring and self.module_key() == other.module_key()

    def __eq__(self, other):
        return (
            isinstance(other, OrientedIdeal)
            and self.same_module(other)
            and self.mu == other.mu
        )

    def __hash__(self):
        return hash((self.ring.D, self.module_key(), self.mu))

    def __repr__(self):
        b1, b2 = self.basis
        return f"OrientedIdeal({self.ring.D}, <{b1!r}, {b2!r}>, mu={self.mu:+d})"

    def contains(self, x: KElem) -> bool:
        return self._in_span(x)

    def scale(self, k: KElem) -> "OrientedIdeal":
        k = self.basis[0]._coerce(k)
        n = k.norm()
        if n == 0:
            raise InputError("scaling by a zero-norm element")
        mu = self.mu if n > 0 else -self.mu
        return OrientedIdeal(self.ring, (k * self.basis[0], k * self.basis[1]), mu)

    def __mul__(self, other: "OrientedIdeal") -> "OrientedIdeal":
        if not isinstance(other, OrientedIdeal) or other.ring != self.ring:
            raise InputError("can only multiply ideals over the same ring")
        prods = [a * b for a in self.basis for b in other.basis]
        coords = [p.coords() for p in prods]
        den = 1
        for (u, v) in coords:
            den = lcm(den, u.denominator, v.denominator)
        rows = [(int(u * den), int(v * den)) for (u, v) in coords]
        (d1, _), (x, d2) = _hnf_rows(rows)
        basis = (
            KElem(self.ring, Fraction(d1, den)),
            KElem(self.ring, Fraction(x, den), Fraction(d2, den)),
        )
        return OrientedIdeal(self.ring, basis, self.mu * other.mu)

    def inverse(self) -> "OrientedIdeal":
        n = self.norm()
        conj_basis = (self.basis[0].conj(), self.basis[1].conj())
        # 1/N(I) * conj(I); reciprocal keeps the sign, so mu is unchanged
        inv = OrientedIdeal(
            self.ring,
            (conj_basis[0] / abs(n), conj_basis[1] / abs(n)),
            self.mu,
        )
        if not (self * inv).same_module(OrientedIdeal.unit_ideal(self.ring)):
            raise InputError("ideal is not invertible in its ring")
        return inv


def principal_generator(I: OrientedIdeal):
    """kappa with I = kappa*S as oriented ideals, or None.

    Only definite rings are handled: for D < 0 the shortest nonzero vector
    decides principality.  Raises UnsupportedDomainError for D >= 0.
    """
    from .exact import lagrange_gauss_reduce

    ring = I.ring
    if ring.D >= 0:
        raise UnsupportedDomainError("principality test needs D < 0")
    if I.mu != 1:
        # for D < 0 every kappa*S is positively oriented
        return None
    coords = [b.coords() for b in I.basis]
    den = 1
    for (u, v) in coords:
        den = lcm(den, u.denominator, v.denominator)
    rows = [(int(u * den), int(v * den)) for (u, v) in coords]
    gram = (1, ring.eps, -ring.m)
    _, w = lagrange_gauss_reduce(rows, gram)
    kappa0 = KElem(ring, w[0], w[1])
    target = abs(I.norm()) * den * den
    if kappa0.norm() != target:
        return None
    return kappa0 / den
