"""Differential tests of the point-evaluation engine against full expansion.

Each identity is rebuilt here as a pair of Poly expansions, the oracle, and
the engine's verdict on the identity must match polynomial equality, on
true instances and on perturbed ones.
"""

import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cubecomp import altforms
from cubecomp.altforms import (
    SenaryAlt3,
    phi,
    senary_eval,
    verify_quaternary_composition,
    verify_senary_identity,
    wedge222,
)
from cubecomp.bqf import BQF, GaussBilinearData, verify_gauss_identity
from cubecomp.cli import main
from cubecomp.cubes import (
    Cube,
    _bilinear_pair,
    companion_cube,
    cube_disc,
    cube_variants,
    identity_cube,
    lemmermeyer_identity,
    verify_cube_composition,
)
from cubecomp.exact import (
    BINARY_POINTS,
    InternalError,
    MultiForm,
    Poly,
    verify_at_points,
)
from cubecomp.symspaces import (
    BinaryCubic,
    PairBQF,
    cubic_companion,
    cubic_disc,
    cubic_embed,
    cubic_q,
    pair_companion,
    pair_disc,
    pair_embed,
    syzygy_check,
    verify_cubic_composition,
    verify_pair_composition,
)
from tests.worked_examples import (
    CUBE_A,
    CUBE_B,
    CUBE_C,
    CUBE_R,
    CUBE_S,
    CUBE_T,
    CUBIC_F,
    CUBIC_G,
    CUBIC_H,
    CUBIC_R,
    PAIR_F,
    PAIR_G,
    PAIR_H,
    PAIR_R,
    PAIR_S,
    QUAT_A,
    QUAT_B,
    QUAT_C,
    QUAT_R,
    QUAT_S,
    QUAT_T,
)

EXAMPLES = settings(
    max_examples=200, deadline=None, database=None, derandomize=True
)
small = st.integers(-20, 20)
nonzero_delta = st.integers(-3, 3).filter(bool)


def _identity_holds(res) -> bool:
    return not any(r.startswith("identity fails") for r in res.reasons)


def _bqf_poly(Q, x, y):
    return Q.a * x * x + Q.b * x * y + Q.c * y * y


def _cubic_poly(f, x, y):
    a0, a1, a2, a3 = f.coeffs
    return a0 * x**3 + 3 * a1 * x**2 * y + 3 * a2 * x * y**2 + a3 * y**3


def _pair_poly(P, x, y):
    return x[0] * _bqf_poly(P.f1, *y) + x[1] * _bqf_poly(P.f2, *y)


def _sigma_pair_poly(X, a, b):
    V = cube_variants(X)[1]
    return tuple(
        sum(V.coeff(i, s, t) * a[s] * b[t] for s in (0, 1) for t in (0, 1))
        for i in (0, 1)
    )


def _bump(values, pos, delta):
    out = list(values)
    out[pos] += delta
    return out


# SL2 matrices (1 + st, s; t, 1), products of two shears
sl2 = st.builds(
    lambda s, t: ((1 + s * t, s), (t, 1)), st.integers(-3, 3), st.integers(-3, 3)
)


def _substituted(X: Cube, mats) -> Cube:
    """X with mats[i] substituted into slot i, where it is not None."""
    f = MultiForm((2, 2, 2), X.coeffs)
    for slot, m in enumerate(mats):
        if m is not None:
            f = f.substitute(slot, m)
    return Cube(f.coeffs)


def _moved_witness(X: Cube, mats) -> Cube:
    """The witness whose sigma image is X's with mats substituted: moving
    a form's variables by SL2 moves the witness slot they feed."""
    c = _substituted(cube_variants(X)[1], mats).coeffs
    return Cube((*c[4:], *(-t for t in c[:4])))


# ----- gauss ----------------------------------------------------------------


@st.composite
def gauss_instances(draw):
    """lemmermeyer_identity data of a random cube, half of them with one
    coefficient of a form or of the bilinear data moved."""
    A = Cube(draw(st.lists(small, min_size=8, max_size=8)))
    (Q1, Q2, Q3), data, _ = lemmermeyer_identity(A)
    if draw(st.booleans()):
        flat = [*Q1.coeffs(), *Q2.coeffs(), *Q3.coeffs()]
        flat += [t for m in (data.amat, data.bmat) for row in m for t in row]
        flat = _bump(flat, draw(st.integers(0, 16)), draw(nonzero_delta))
        Q1, Q2, Q3 = BQF(*flat[0:3]), BQF(*flat[3:6]), BQF(*flat[6:9])
        a, b = flat[9:13], flat[13:17]
        data = GaussBilinearData((a[:2], a[2:]), (b[:2], b[2:]))
    return Q1, Q2, Q3, data


@EXAMPLES
@given(gauss_instances())
def test_gauss_engine_matches_expansion(inst):
    Q1, Q2, Q3, data = inst
    x1, x2, y1, y2 = Poly.variables(4)

    def z(m):
        return sum(
            m[i][j] * (x1, x2)[i] * (y1, y2)[j] for i in (0, 1) for j in (0, 1)
        )

    lhs = _bqf_poly(Q1, x1, x2) * _bqf_poly(Q2, y1, y2)
    rhs = _bqf_poly(Q3, z(data.amat), z(data.bmat))
    assert _identity_holds(verify_gauss_identity(Q1, Q2, Q3, data)) == (
        lhs == rhs
    )


# ----- syzygy ---------------------------------------------------------------


@st.composite
def cubics(draw):
    """Random cubics, a third of them degenerate: perfect cubes (px+qy)^3
    and multiples of x^2 y, both of discriminant zero."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return BinaryCubic(*draw(st.lists(small, min_size=4, max_size=4)))
    p, q = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    if kind == 1:
        return BinaryCubic(p**3, p * p * q, p * q * q, q**3)
    return BinaryCubic(0, p, 0, 0)


def _syzygy_polys(f, fp):
    x, y = Poly.variables(2)
    d = cubic_disc(f)
    eps, q = d % 4, cubic_q(f)
    u, v = _cubic_poly(f, x, y), _cubic_poly(fp, x, y)
    m = (d - eps) // 4
    return v * v + eps * u * v - m * u * u, _bqf_poly(q, x, -y) ** 3


@EXAMPLES
@given(cubics())
def test_syzygy_engine_matches_expansion(f):
    lhs, rhs = _syzygy_polys(f, cubic_companion(f))
    assert syzygy_check(f).ok == (lhs == rhs)


@EXAMPLES
@given(cubics(), st.integers(0, 3), nonzero_delta, st.booleans())
def test_perturbed_syzygy_sides_match_expansion(f, pos, delta, perturb):
    # the same sextic identity with the companion optionally moved off
    # f's, so that both verdicts occur; the engine sees the same sides
    fp = cubic_companion(f)
    if perturb:
        fp = BinaryCubic(*_bump(fp.coeffs, pos, delta))
    lhs, rhs = _syzygy_polys(f, fp)
    d = cubic_disc(f)
    eps, q = d % 4, cubic_q(f)

    def left(p):
        u, v = f(*p), fp(*p)
        return v * v + eps * u * v - (d - eps) // 4 * u * u

    res = verify_at_points(
        left, lambda p: q(p[0], -p[1]) ** 3, (BINARY_POINTS,), "((x, y),)"
    )
    assert res.ok == (lhs == rhs)


# ----- cube and quat ---------------------------------------------------------


def _trilinear_poly(coeffs, a, b, c):
    """sum of coeffs[n] a_i b_j c_k, n running over (i, j, k) row-major."""
    idx = product(range(len(a)), range(len(b)), range(len(c)))
    return sum(
        (t * a[i] * b[j] * c[k] for t, (i, j, k) in zip(coeffs, idx) if t),
        Poly(a[0].nvars),
    )


TUPLE_FAILURE = re.compile(
    r"identity fails at basis tuple \(x,y,z,u,v,w\)=\(([\d, ]+)\): "
    r"-?\d+ != -?\d+"
)


def _check_against_expansion(res, lhs, rhs, dims):
    """The engine's identity verdict is polynomial equality, and a failure
    names the first basis tuple, in row-major order, where the two
    six-slot multilinear expansions differ: the least tuple of slot
    indices among the monomials of lhs - rhs."""
    diff = (lhs - rhs).terms
    fails = [r for r in res.reasons if r.startswith("identity fails")]
    assert (not fails) == (not diff)
    if diff:
        offsets = [sum(dims[:n]) for n in range(len(dims))]
        first = min(
            tuple(e[o : o + d].index(1) for o, d in zip(offsets, dims))
            for e in diff
        )
        (reason,) = fails
        match = TUPLE_FAILURE.fullmatch(reason)
        assert match
        assert tuple(map(int, match.group(1).split(", "))) == first


def _moved_law(draw, objs, a_positions):
    """A worked cube-shaped composition (A, B, C, R, S, T) with one slot of
    B or C moved by SL2, moving the witness that slot feeds with it, half
    of them then with one coefficient of a cube moved (A only at
    a_positions, B, C and the witnesses anywhere)."""
    objs = list(objs)
    side, slot, m = draw(st.integers(1, 2)), draw(st.integers(0, 2)), draw(sl2)
    mats = [None] * 3
    mats[slot] = m
    objs[side] = _substituted(objs[side], mats)
    # B's slot feeds its witness's slot 1, C's its slot 2
    mats = [None] * 3
    mats[side] = m
    objs[3 + slot] = _moved_witness(objs[3 + slot], mats)
    if draw(st.booleans()):
        k = draw(st.integers(0, 5))
        pos = draw(st.sampled_from(a_positions if k == 0 else range(8)))
        objs[k] = Cube(_bump(objs[k].coeffs, pos, draw(nonzero_delta)))
    return objs


@st.composite
def cube_instances(draw):
    """The worked composition at discriminant -47, moved and perturbed."""
    return _moved_law(
        draw, (CUBE_A, CUBE_B, CUBE_C, CUBE_R, CUBE_S, CUBE_T), range(8)
    )


@st.composite
def quat_instances(draw):
    """The worked quaternary composition at -47, moved and perturbed; A
    is moved off its doubly symmetric positions only."""
    return _moved_law(
        draw, (QUAT_A, QUAT_B, QUAT_C, QUAT_R, QUAT_S, QUAT_T), (0, 3, 4, 7)
    )


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(cube_instances())
def test_cube_engine_matches_expansion(inst):
    A, B, C, R, S, T = inst
    res = verify_cube_composition(A, B, C, R, S, T)
    if cube_disc(B) != cube_disc(C):
        # no product form across discriminants, so no identity to check
        assert not res.ok and _identity_holds(res)
        return
    V = Poly.variables(12)
    x, y, z, u, v, w = (V[n : n + 2] for n in range(0, 12, 2))
    eps = cube_disc(B) % 4
    bp = _trilinear_poly(B.coeffs, x, y, z)
    cp = _trilinear_poly(C.coeffs, u, v, w)
    bcp = _trilinear_poly(companion_cube(B).coeffs, x, y, z)
    ccp = _trilinear_poly(companion_cube(C).coeffs, u, v, w)
    lhs = bp * ccp + bcp * cp + eps * bp * cp
    rhs = _trilinear_poly(
        A.coeffs,
        _sigma_pair_poly(R, x, u),
        _sigma_pair_poly(S, y, v),
        _sigma_pair_poly(T, z, w),
    )
    _check_against_expansion(res, lhs, rhs, (2,) * 6)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(quat_instances())
def test_quat_engine_matches_expansion(inst):
    A, B, C, R, S, T = inst
    res = verify_quaternary_composition(A, B, C, R, S, T)
    if cube_disc(B) != cube_disc(C):
        assert not res.ok and _identity_holds(res)
        return
    V = Poly.variables(20)
    x, y, z, u, v, w = V[0:2], V[2:6], V[6:10], V[10:12], V[12:16], V[16:20]
    eps = cube_disc(B) % 4

    def alt(X, a, b, c):
        # phi(X) as the trilinear form x1 yF1z + x2 yF2z
        P = phi(X)
        flat = [t for m in (P.f1, P.f2) for row in m for t in row]
        return _trilinear_poly(flat, a, b, c)

    gp, hp = alt(B, x, y, z), alt(C, u, v, w)
    gcp = alt(companion_cube(B), x, y, z)
    hcp = alt(companion_cube(C), u, v, w)
    lhs = gp * hcp + gcp * hp + eps * gp * hp

    def column(a, b):
        # S-sigma(a1, b1) + T-sigma(a2, b2) for a = (a1, a2), b = (b1, b2)
        s = _sigma_pair_poly(S, a[:2], b[:2])
        t = _sigma_pair_poly(T, a[2:], b[2:])
        return [p + q for p, q in zip(s, t)]

    rhs = alt(
        A,
        _sigma_pair_poly(R, x, u),
        column(y, v) + column(y, w),
        column(z, v) + column(z, w),
    )
    _check_against_expansion(res, lhs, rhs, (2, 4, 4, 2, 4, 4))


# ----- cubic ----------------------------------------------------------------


@st.composite
def cubic_instances(draw):
    """The worked composition at discriminant 8 with g's variables moved
    by SL2 (and the witness with them, so the identity still holds), half
    of them then with one coefficient of f, g, h or the witness moved."""
    m = draw(sl2)
    c = _substituted(cubic_embed(CUBIC_G), (m, m, m)).coeffs
    g = BinaryCubic(c[0], c[1], c[3], c[7])
    objs = [CUBIC_F, g, CUBIC_H, _moved_witness(CUBIC_R, (None, m, None))]
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        pos = draw(st.integers(0, 7 if k == 3 else 3))
        co = _bump(objs[k].coeffs, pos, draw(nonzero_delta))
        objs[k] = Cube(co) if k == 3 else BinaryCubic(*co)
    return objs


@EXAMPLES
@given(cubic_instances())
def test_cubic_engine_matches_expansion(inst):
    f, g, h, R = inst
    x, y, u, v = Poly.variables(4)
    eps = cubic_disc(f) % 4
    gp, hp = _cubic_poly(g, x, y), _cubic_poly(h, u, v)
    gcp = _cubic_poly(cubic_companion(g), x, y)
    hcp = _cubic_poly(cubic_companion(h), u, v)
    lhs = gp * hcp + gcp * hp + eps * gp * hp
    rhs = _cubic_poly(f, *_sigma_pair_poly(R, (x, y), (u, v)))
    res = verify_cubic_composition(f, g, h, R)
    assert _identity_holds(res) == (lhs == rhs)


# ----- pair -----------------------------------------------------------------


@st.composite
def pair_instances(draw):
    """The worked composition at discriminant -31 with G's two variable
    pairs moved by SL2 (and the witnesses with them), half of them then
    with one coefficient of F, G, H or a witness moved (middle terms by an
    even amount, so the pair stays well formed)."""
    mx, my = draw(sl2), draw(sl2)
    c = _substituted(pair_embed(PAIR_G), (mx, my, my)).coeffs
    G = PairBQF(BQF(c[0], 2 * c[1], c[3]), BQF(c[4], 2 * c[5], c[7]))
    R = _moved_witness(PAIR_R, (None, mx, None))
    S = _moved_witness(PAIR_S, (None, my, None))
    objs = [PAIR_F, G, PAIR_H, R, S]
    if draw(st.booleans()):
        k = draw(st.integers(0, 4))
        delta = draw(nonzero_delta)
        if k >= 3:
            pos = draw(st.integers(0, 7))
            objs[k] = Cube(_bump(objs[k].coeffs, pos, delta))
        else:
            pos = draw(st.integers(0, 5))
            co = [*objs[k].f1.coeffs(), *objs[k].f2.coeffs()]
            co = _bump(co, pos, 2 * delta if pos in (1, 4) else delta)
            objs[k] = PairBQF(BQF(*co[:3]), BQF(*co[3:]))
    return objs


@EXAMPLES
@given(pair_instances())
def test_pair_engine_matches_expansion(inst):
    F, G, H, R, S = inst
    V = Poly.variables(8)
    x, y, u, v = V[0:2], V[2:4], V[4:6], V[6:8]
    eps = pair_disc(F) % 4
    gp, hp = _pair_poly(G, x, y), _pair_poly(H, u, v)
    gcp = _pair_poly(pair_companion(G), x, y)
    hcp = _pair_poly(pair_companion(H), u, v)
    lhs = gp * hcp + gcp * hp + eps * gp * hp
    rhs = _pair_poly(
        F, _sigma_pair_poly(R, x, u), _sigma_pair_poly(S, y, v)
    )
    res = verify_pair_composition(F, G, H, R, S)
    assert _identity_holds(res) == (lhs == rhs)


# ----- senary ---------------------------------------------------------------


def _senary_sides(D):
    """The two 36-variable polynomials the senary identity compares, from
    whatever altforms.senary_identity_pair returns."""
    E, Ep = altforms.senary_identity_pair(D)
    eps = D % 4
    # the cube whose bilinear pair multiplies out (x1 + x2 tau)(u1 + u2 tau)
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


@pytest.mark.parametrize("D", (-47, -31, -4, 5, 8, 13))
def test_senary_engine_matches_expansion(D):
    lhs, rhs = _senary_sides(D)
    assert verify_senary_identity(D).ok == (lhs == rhs)


SENARY_FAILURE = re.compile(
    r"identity fails at basis triples \(\(x,y,z\),\(u,v,w\)\)="
    r"\(\((\d), (\d), (\d)\), \((\d), (\d), (\d)\)\): -?\d+ != -?\d+"
)


# E' moved on a block-transversal triple and on one inside two blocks
@pytest.mark.parametrize("D, triple", [(-47, (0, 2, 4)), (8, (0, 1, 2))])
def test_perturbed_senary_companion_is_rejected(monkeypatch, D, triple):
    pair = altforms.senary_identity_pair
    pos = altforms._TRIPLES.index(triple)

    def perturbed(disc):
        E, Ep = pair(disc)
        return E, SenaryAlt3(_bump(Ep.coeffs, pos, 1))

    monkeypatch.setattr(altforms, "senary_identity_pair", perturbed)
    lhs, rhs = _senary_sides(D)
    res = verify_senary_identity(D)
    assert lhs != rhs and not res.ok
    (reason,) = res.reasons
    match = SENARY_FAILURE.fullmatch(reason)
    assert match
    # the named pair of basis triples is a point where the expansions differ
    point = [0] * 36
    for slot, n in enumerate(map(int, match.groups())):
        point[6 * slot + n] = 1
    assert lhs.eval(point) != rhs.eval(point)


# a112 += 1 breaks E's sign change under the block swap 1<->2 only, a211 += 1
# under the swap 0<->1 only; E stays on block-transversal triples
@pytest.mark.parametrize("pos", (1, 4))
def test_senary_form_without_block_sign_change_is_internal_error(
    monkeypatch, capsys, pos
):
    pair = altforms.senary_identity_pair

    def skewed(disc):
        E, Ep = pair(disc)
        return wedge222(Cube(_bump(identity_cube(disc).coeffs, pos, 1))), Ep

    monkeypatch.setattr(altforms, "senary_identity_pair", skewed)
    with pytest.raises(InternalError, match="block swap"):
        verify_senary_identity(-47)
    code = main(["verify", "--law", "senary", "--discriminant", "-47"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


# ----- the binary point sets ------------------------------------------------


@st.composite
def binary_forms(draw):
    """(d, form): a nonzero binary form of degree d <= 6.  Half are random;
    the rest are the worst case, a multiple of the linear forms through
    all of the first d + 1 points but one."""
    d = draw(st.integers(0, 6))
    if draw(st.booleans()):
        cofactor = draw(
            st.lists(small, min_size=d + 1, max_size=d + 1).filter(any)
        )
        roots = []
    else:
        cofactor = [draw(small.filter(bool))]
        skip = draw(st.integers(0, d))
        roots = [p for i, p in enumerate(BINARY_POINTS[: d + 1]) if i != skip]

    def form(x, y):
        e = len(cofactor) - 1
        value = sum(c * x ** (e - k) * y**k for k, c in enumerate(cofactor))
        for px, py in roots:
            value *= py * x - px * y
        return value

    return d, form


@EXAMPLES
@given(binary_forms())
def test_nonzero_binary_form_is_seen_by_its_point_set(case):
    d, form = case
    assert any(form(x, y) for x, y in BINARY_POINTS[: d + 1])
