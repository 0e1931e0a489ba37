"""The quadratic ring S(D) = Z[tau], its fraction field, and oriented ideals.

For a discriminant D = 0, 1 (mod 4) put eps = D mod 4 and m = (D - eps)/4;
then tau satisfies tau^2 = eps*tau + m and S(D) = Z + Z*tau has discriminant
D.  Field elements are integer triples (p, q, d) meaning (p + q*tau)/d with
d > 0 and gcd(p, q, d) = 1, computed by direct integer formulas with one
normalization per result.  An oriented (fractional) ideal is a rank-2
S-submodule of the field with a sign mu; its basis is read as integer rows
over one common denominator (_int_rows) and is ordered so the determinant
of the coordinate matrix over (1, tau) has sign mu, making the signed norm
equal to that determinant.  Fractions appear only as accepted input and as
the values of coords(), norm() and trace().
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import exact
from .exact import InputError


class QuadraticRing:
    """The ring of discriminant D; immutable, compared by D."""

    __slots__ = ("D", "eps", "m")

    def __init__(self, D: int):
        D = exact._as_int(D)
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
        return KElem._of(self, 0, 0, 1)

    def one(self) -> "KElem":
        return KElem._of(self, 1, 0, 1)

    def tau(self) -> "KElem":
        return KElem._of(self, 0, 1, 1)


def _ratio(x):
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return exact._as_int(x), 1


_set = object.__setattr__


def _fill(x, ring, p, q, d):
    """Store (p + q*tau)/d in x in lowest terms, with d > 0; returns x."""
    g = gcd(p, q, d)
    if d < 0:
        g = -g
    _set(x, "ring", ring)
    _set(x, "p", p // g)
    _set(x, "q", q // g)
    _set(x, "d", d // g)
    return x


class KElem:
    """Element (p + q*tau)/d of the fraction field of S(D), in lowest terms."""

    __slots__ = ("ring", "p", "q", "d")

    def __init__(self, ring: QuadraticRing, p, q=0, d=1):
        if not isinstance(ring, QuadraticRing):
            raise InputError("ring must be a QuadraticRing")
        (pn, pd), (qn, qd), (dn, dd) = _ratio(p), _ratio(q), _ratio(d)
        if dn == 0:
            raise InputError("zero denominator")
        _fill(self, ring, pn * qd * dd, qn * pd * dd, pd * qd * dn)

    @classmethod
    def _of(cls, ring: QuadraticRing, p: int, q: int, d: int) -> "KElem":
        """(p + q*tau)/d from integers with d != 0, put in lowest terms."""
        return _fill(object.__new__(cls), ring, p, q, d)

    def __setattr__(self, name, value):
        raise AttributeError("KElem is immutable")

    # -- structure ---------------------------------------------------------

    def coords(self):
        """(rational coefficient of 1, rational coefficient of tau)."""
        return (Fraction(self.p, self.d), Fraction(self.q, self.d))

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

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
            if other.ring is not self.ring and other.ring != self.ring:
                raise InputError("mixed rings")
            return other
        if isinstance(other, (int, Fraction)):
            return KElem(self.ring, other)
        raise InputError(f"cannot coerce {other!r} into the field")

    def __add__(self, other) -> "KElem":
        o = self._coerce(other)
        d1, d2 = self.d, o.d
        return KElem._of(
            self.ring, self.p * d2 + o.p * d1, self.q * d2 + o.q * d1, d1 * d2
        )

    __radd__ = __add__

    def __neg__(self) -> "KElem":
        return KElem._of(self.ring, -self.p, -self.q, self.d)

    def __sub__(self, other) -> "KElem":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "KElem":
        return self._coerce(other) - self

    def __mul__(self, other) -> "KElem":
        o = self._coerce(other)
        r = self.ring
        p1, q1, p2, q2 = self.p, self.q, o.p, o.q
        qq = q1 * q2
        return KElem._of(
            r, p1 * p2 + r.m * qq, p1 * q2 + q1 * p2 + r.eps * qq, self.d * o.d
        )

    __rmul__ = __mul__

    def _norm_num(self) -> int:
        """d^2 times the norm: p^2 + eps*p*q - m*q^2."""
        p, q, r = self.p, self.q, self.ring
        return p * p + r.eps * p * q - r.m * q * q

    def conj(self) -> "KElem":
        # conjugation swaps the roots of tau^2 - eps*tau - m
        return KElem._of(self.ring, self.p + self.ring.eps * self.q, -self.q, self.d)

    def norm(self) -> Fraction:
        return Fraction(self._norm_num(), self.d * self.d)

    def trace(self) -> Fraction:
        return Fraction(2 * self.p + self.ring.eps * self.q, self.d)

    def inverse(self) -> "KElem":
        # 1/x = conj(x)/N(x) = d*(p + eps*q - q*tau) / (d^2 N(x))
        n = self._norm_num()
        if n == 0:
            raise InputError("division by a zero-norm element")
        d, p, q = self.d, self.p, self.q
        return KElem._of(self.ring, d * (p + self.ring.eps * q), -d * q, n)

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


def _hnf_rows(rows):
    """Hermite form of the row span of an integer k x 2 matrix.

    Returns ((d1, 0), (x, d2)) with d1, d2 > 0 and 0 <= x < d1, or raises
    if the span has rank < 2.
    """
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
        u, v = exact._bezout(a, b)
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


def _int_rows(elems):
    """Coordinate rows of field elements as integers over one denominator.

    Returns ([(P_1, Q_1), ...], den) with elems[i] = (P_i + Q_i*tau)/den and
    den the least common denominator.
    """
    den = lcm(*(e.d for e in elems))
    return [(e.p * (den // e.d), e.q * (den // e.d)) for e in elems], den


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
        if not self._in_span(t * b1, t * b2):
            raise InputError("lattice is not a module over the ring")

    def __setattr__(self, name, value):
        raise AttributeError("OrientedIdeal is immutable")

    @staticmethod
    def _coord_det(b1: KElem, b2: KElem) -> int:
        """d1*d2 times the determinant of the coordinate matrix: an integer
        with its sign, zero exactly when it is."""
        return b1.p * b2.q - b1.q * b2.p

    def _in_span(self, *xs: KElem) -> bool:
        """Whether every x lies in the Z-span of the basis."""
        (r1, r2), den = _int_rows(self.basis)
        det = r1[0] * r2[1] - r1[1] * r2[0]
        for x in xs:
            # x*den = u*r1 + v*r2, solved with the adjugate of the rows
            X, Y, k = x.p * den, x.q * den, x.d * det
            if (X * r2[1] - Y * r2[0]) % k or (Y * r1[0] - X * r1[1]) % k:
                return False
        return True

    @classmethod
    def unit_ideal(cls, ring: QuadraticRing) -> "OrientedIdeal":
        return cls(ring, (ring.one(), ring.tau()), 1)

    @classmethod
    def from_ordered_basis(cls, ring: QuadraticRing, basis) -> "OrientedIdeal":
        """Ideal whose orientation is read off the given basis order."""
        b1, b2 = basis
        return cls(ring, (b1, b2), 1 if cls._coord_det(b1, b2) > 0 else -1)

    def norm(self) -> Fraction:
        """Signed norm; its absolute value is the covolume relative to S."""
        b1, b2 = self.basis
        return Fraction(self._coord_det(b1, b2), b1.d * b2.d)

    def module_key(self):
        """Canonical invariant of the underlying module (orientation-free):
        (a, x, c, den) in lowest terms, where (a, 0) and (x, c) over den are
        the coordinates of its Hermite basis, a, c > 0 and 0 <= x < a."""
        rows, den = _int_rows(self.basis)
        (a, _), (x, c) = _hnf_rows(rows)
        g = gcd(a, x, c, den)
        return (a // g, x // g, c // g, den // g)

    def hnf_basis(self) -> "OrientedIdeal":
        """Same oriented ideal with the canonical triangular basis."""
        a, x, c, den = self.module_key()
        r = self.ring
        basis = (KElem._of(r, a, 0, den), KElem._of(r, x, c, den))
        return OrientedIdeal(r, basis, self.mu)

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
        return self._in_span(self.basis[0]._coerce(x))

    def scale(self, k: KElem) -> "OrientedIdeal":
        k = self.basis[0]._coerce(k)
        n = k._norm_num()
        if n == 0:
            raise InputError("scaling by a zero-norm element")
        mu = self.mu if n > 0 else -self.mu
        return OrientedIdeal(self.ring, (k * self.basis[0], k * self.basis[1]), mu)

    def __mul__(self, other: "OrientedIdeal") -> "OrientedIdeal":
        """The product ideal, already in its canonical Hermite basis: the
        same basis hnf_basis() would return."""
        if not isinstance(other, OrientedIdeal) or other.ring != self.ring:
            raise InputError("can only multiply ideals over the same ring")
        rows, den = _int_rows([a * b for a in self.basis for b in other.basis])
        (a, _), (x, c) = _hnf_rows(rows)
        r = self.ring
        basis = (KElem._of(r, a, 0, den), KElem._of(r, x, c, den))
        return OrientedIdeal(r, basis, self.mu * other.mu)

    def inverse(self) -> "OrientedIdeal":
        b1, b2 = self.basis
        # 1/|N(I)| * conj(I); reciprocal keeps the sign, so mu is unchanged
        k = KElem._of(self.ring, b1.d * b2.d, 0, abs(self._coord_det(b1, b2)))
        inv = OrientedIdeal(self.ring, (b1.conj() * k, b2.conj() * k), self.mu)
        if not (self * inv).same_module(OrientedIdeal.unit_ideal(self.ring)):
            raise InputError("ideal is not invertible in its ring")
        return inv

