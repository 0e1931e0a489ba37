"""Exact arithmetic substrate shared by every other module.

All arithmetic is on plain Python ints.  _as_int is the one coercion rule
of every constructor: ints and Fractions with denominator 1 pass, anything
else is an InputError.  It, the correctness check _ensure (InternalError,
which python -O cannot strip) and the shared helpers _bezout and _mat_mul
are called as ``exact._name``, so the benchmark tracer, which spans every
function one module imports from another by name, leaves them out.  The
base _Value derives immutability, equality, hash and repr from __slots__
for the form, cube, cubic, pair, quat, senary and result classes.  On top
sits the point-evaluation engine every composition-law verifier runs on.
No floating point anywhere.

MultiForm (dense multilinear forms) and Poly (sparse integer polynomials)
are the tests' reference constructions: no other module uses them, since
every form space works on its coefficient tuples.  They stay here because
the benchmark tracer wraps both classes and their methods by name.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import prod
from operator import attrgetter
from typing import Iterable, Sequence


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class UnsupportedDomainError(Exception):
    """Requested operation lies outside the supported domain.

    The one such domain is a square discriminant, 0 included, where S(D) is
    not a domain and forms have no reduction theory.  One guard,
    bqf._require_nonsquare, raises it: the walk of the reduced cycle that
    reduce and principal_generator share calls it, and so do form and
    class composition, class-group enumeration and the dual solver.
    """


class InternalError(Exception):
    """A correctness check on the library's own construction failed."""


def _ensure(ok: bool, what: str) -> None:
    """Raise InternalError(what) unless ok: a check python -O keeps."""
    if not ok:
        raise InternalError(what)


class _Value:
    """Immutable value semantics derived from the subclass's __slots__.

    Equality holds for the same type with equal slot values, the hash is
    that of the slot values, and the repr is the class name followed by
    the slot tuple, or by the value itself when there is one slot.  The
    base has no __init__ on purpose: each constructor stores its slots
    directly with object.__setattr__, which is cheaper than a generic
    __init__ that loops over the slots.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # one name gives the value itself, several give their tuple
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        values = self._values
        return type(other) is type(self) and values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return type(self).__name__ + repr(self._values(self))


def _as_int(x) -> int:
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise InputError("booleans are not coefficients")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise InputError(f"expected an exact integer, got {x!r}")


def _bezout(a: int, b: int):
    """(u, v) with u*a + v*b = gcd(a, b) >= 0."""
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


def _mat_mul(g, h):
    """Product of two 2x2 matrices given as row pairs."""
    (a, b), (c, d) = g
    (p, q), (r, s) = h
    return ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))


class MultiForm:
    """Dense integer multilinear form.

    ``dims`` lists the dimension of each vector slot; ``coeffs`` is the flat
    coefficient array in row-major order (last slot index varies fastest):

        f(v_1, ..., v_k) = sum_{(i_1..i_k)} coeffs[i_1..i_k] * v_1[i_1] * ... * v_k[i_k]

    Values are immutable; every operation returns a new form.
    """

    __slots__ = ("dims", "coeffs")

    def __init__(self, dims: Iterable[int], coeffs: Iterable):
        dims = tuple(_as_int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise InputError("every slot dimension must be >= 1")
        coeffs = tuple(_as_int(c) for c in coeffs)
        if len(coeffs) != prod(dims, start=1):
            raise InputError("coefficient count does not match dims")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("MultiForm is immutable")

    @classmethod
    def zero(cls, dims: Iterable[int]) -> "MultiForm":
        dims = tuple(dims)
        return cls(dims, [0] * prod(dims, start=1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiForm)
            and self.dims == other.dims
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dims, self.coeffs))

    def __repr__(self):
        return f"MultiForm(dims={self.dims}, coeffs={self.coeffs})"

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __getitem__(self, idx: Sequence[int]) -> int:
        idx = tuple(idx)
        if len(idx) != len(self.dims):
            raise InputError("index arity mismatch")
        flat = 0
        for i, d in zip(idx, self.dims):
            if not 0 <= i < d:
                raise InputError("index out of range")
            flat = flat * d + i
        return self.coeffs[flat]

    def eval(self, vectors: Sequence[Sequence]) -> int:
        """Multilinear evaluation, one vector per slot."""
        if len(vectors) != len(self.dims):
            raise InputError("wrong number of argument vectors")
        for d, v in zip(self.dims, vectors):
            if len(v) != d:
                raise InputError("argument vector length does not match slot dimension")
        # contract slots right to left
        cur = list(self.coeffs)
        for dim, vec in zip(reversed(self.dims), reversed(list(vectors))):
            cur = [
                sum(cur[base + t] * vec[t] for t in range(dim))
                for base in range(0, len(cur), dim)
            ]
        return cur[0]

    def substitute(self, slot: int, matrix: Sequence[Sequence]) -> "MultiForm":
        """Compose one slot with a linear map.

        Returns g with g(..., v, ...) = f(..., matrix @ v, ...) at ``slot``.
        ``matrix`` needs dims[slot] rows; a rectangular matrix re-embeds the
        slot, the new dimension being the column count.
        """
        if not 0 <= slot < len(self.dims):
            raise InputError("slot out of range")
        n = self.dims[slot]
        rows = [[_as_int(x) for x in row] for row in matrix]
        if len(rows) != n or any(len(r) != len(rows[0]) for r in rows):
            raise InputError("substitution matrix shape mismatch")
        n2 = len(rows[0])
        if n2 < 1:
            raise InputError("substitution matrix needs at least one column")
        pre = prod(self.dims[:slot], start=1)
        post = prod(self.dims[slot + 1 :], start=1)
        out = [0] * (pre * n2 * post)
        for a in range(pre):
            for s in range(n):
                row = rows[s]
                base_in = (a * n + s) * post
                for b in range(post):
                    c = self.coeffs[base_in + b]
                    if c:
                        for t in range(n2):
                            if row[t]:
                                out[(a * n2 + t) * post + b] += c * row[t]
        return MultiForm(self.dims[:slot] + (n2,) + self.dims[slot + 1 :], out)

    def tensor(self, other: "MultiForm") -> "MultiForm":
        """Product over disjoint variable groups; dims concatenate."""
        out = []
        for c in self.coeffs:
            if c:
                out.extend(c * d for d in other.coeffs)
            else:
                out.extend([0] * len(other.coeffs))
        return MultiForm(self.dims + other.dims, out)

    def _same_shape(self, other):
        if not isinstance(other, MultiForm) or self.dims != other.dims:
            raise InputError("shape mismatch")

    def __add__(self, other: "MultiForm") -> "MultiForm":
        self._same_shape(other)
        return MultiForm(self.dims, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "MultiForm") -> "MultiForm":
        self._same_shape(other)
        return MultiForm(self.dims, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "MultiForm":
        return MultiForm(self.dims, [-a for a in self.coeffs])

    def scale(self, k: int) -> "MultiForm":
        k = _as_int(k)
        return MultiForm(self.dims, [k * a for a in self.coeffs])


class Poly:
    """Sparse multivariate polynomial with integer coefficients.

    ``terms`` maps exponent tuples (one entry per variable) to nonzero
    coefficients; the tests' reference expansion for verify_at_points.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        object.__setattr__(self, "nvars", int(nvars))
        clean = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise InputError("exponent tuple arity mismatch")
                if c:
                    clean[tuple(e)] = clean.get(tuple(e), 0) + c
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, nvars: int, c: int) -> "Poly":
        c = _as_int(c)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise InputError("variable index out of range")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def variables(cls, nvars: int) -> list:
        return [cls.var(nvars, i) for i in range(nvars)]

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly(nvars={self.nvars}, {len(self.terms)} terms)"

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise InputError("variable count mismatch")
            return other
        return Poly.const(self.nvars, _as_int(other))

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            k = _as_int(other)
            return Poly(self.nvars, {e: k * c for e, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise InputError("negative power")
        out = Poly.const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def eval(self, values: Sequence) -> int:
        total = 0
        for e, c in self.terms.items():
            t = c
            for x, k in zip(values, e):
                if k:
                    t *= x**k
            total += t
        return total


class VerifyResult(_Value):
    """Outcome of an identity verification, with reasons on failure.

    Truthiness equals the verdict, so callers may use it directly in
    assertions while still having diagnostics to print.
    """

    __slots__ = ("ok", "reasons")

    def __init__(self, ok: bool, reasons=()):
        object.__setattr__(self, "ok", bool(ok))
        object.__setattr__(self, "reasons", tuple(reasons))

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self):
        if self.ok:
            return "VerifyResult(ok)"
        return f"VerifyResult(failed: {'; '.join(self.reasons)})"


# Any d + 1 of these are pairwise non-proportional, so a binary form of
# degree d that vanishes at the first d + 1 of them is the zero form.
BINARY_POINTS = ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5))


def verify_at_points(lhs, rhs, slots, names: str, reasons=()) -> VerifyResult:
    """Compare lhs(*p) with rhs(*p) at every p in the product of ``slots``.

    ``slots`` holds one point set per argument, visited in row-major order.
    The check is exact when each set decides its slot: the basis indices
    of a multilinear slot, or BINARY_POINTS[:d + 1] for a slot where both
    sides are binary forms of degree d (by induction over the slots).
    ``reasons`` are the caller's failed side conditions and lead the
    result; a disagreement adds the first point, labelled by ``names``.
    """
    for point in iter_product(*slots):
        left, right = lhs(*point), rhs(*point)
        if left != right:
            fail = f"identity fails at {names}={point}: {left} != {right}"
            return VerifyResult(False, (*reasons, fail))
    return VerifyResult(not reasons, reasons)

