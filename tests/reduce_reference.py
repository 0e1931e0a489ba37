"""The lap-and-keep-every-transform reduction, kept as an oracle.

This is how cubecomp reduced indefinite forms and decided principality
before one walk did both: reduction walks the whole reduced cycle, keeps
the SL2 transform of every form on it and takes the lexicographically least
form; principality reduces the norm form and the principal form and
compares the canonical forms.  Its memory grows with the square of the
cycle length, so use it on short cycles only.  At D > 0 it has its own rho
step and shares only BQF and the norm form with cubecomp.bqf; at D < 0 it
defers to bqf.reduce, whose definite reduction it does not check.
"""

from math import isqrt

from cubecomp import exact
from cubecomp.bqf import BQF, _is_square, ideal_to_bqf, principal_form, reduce
from cubecomp.exact import UnsupportedDomainError


def _indef_reduced(Q: BQF, s: int) -> bool:
    a, b, c = Q.coeffs()
    return 1 <= b <= s and s - b + 1 <= 2 * abs(a) <= s + b


def _rho(Q: BQF, s: int):
    a, b, c = Q.coeffs()
    ac = abs(c)
    lo = -ac + 1 if ac > s else s - 2 * ac + 1
    r = lo + ((-b - lo) % (2 * ac))
    d = (r + b) // (2 * c)
    return BQF(c, 2 * c * d - b, a - b * d + c * d * d), ((0, -1), (1, d))


def reference_reduce(Q: BQF):
    """(canonical, transform, cycle); at D < 0 it defers to bqf.reduce."""
    D = Q.disc()
    if _is_square(D):
        raise UnsupportedDomainError("square discriminant")
    if D < 0:
        r = reduce(Q)
        return r.canonical, r.transform, None
    s = isqrt(D)
    g = ((1, 0), (0, 1))
    cur = Q
    while not _indef_reduced(cur, s):
        cur, step = _rho(cur, s)
        g = exact._mat_mul(g, step)
    cycle, transforms = [cur], [g]
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


def reference_principal_generator(I):
    """kappa with I = kappa*S, from M = r.transform * r0.transform^-1 where
    r and r0 reduce the norm form and the principal form; or None."""
    canonical, g, _ = reference_reduce(ideal_to_bqf(I))
    canonical0, g0, _ = reference_reduce(principal_form(I.ring.D))
    if canonical != canonical0:
        return None
    (p, q), (s, t) = g0
    (x, _), (y, _) = exact._mat_mul(g, ((t, -q), (-s, p)))
    b1, b2 = I.basis
    return b1 * x - b2 * y
