"""The united-forms recipe for Dirichlet composition, kept as an oracle.

This is the composition cubecomp used before the gcd formula: search a box
for an SL2-equivalent of Q2 whose leading coefficient is coprime to Q1's,
lift the middle coefficient by CRT, and at D < 0 reduce every pair of signs
to two positive definite factors.  It shares only reduce and sl2_act with
bqf.compose_dirichlet, so the two can check each other.
"""

from math import gcd

from cubecomp import exact
from cubecomp.bqf import BQF, _is_square, reduce, sl2_act
from cubecomp.exact import InputError, UnsupportedDomainError


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


def united_forms_compose(Q1: BQF, Q2: BQF) -> BQF:
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
            pos = united_forms_compose(P1, P2)
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
