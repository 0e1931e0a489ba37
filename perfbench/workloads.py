"""Seeded inputs for the three benchmark workloads.

`generate(workload, seed, root)` returns the operations of one workload:
each is a `cubecomp` argv (files named relative to the work directory) plus
what the checker needs to judge the output.  `write(ops, files, workdir)`
puts the manifest and the envelope files on disk; the same seed always gives
byte-identical files.  The program under test only ever sees these argv and
envelope files.

Costs are controlled, not left to chance, because the metrics of runs at
different seeds are compared: every workload has the same op mix at every
seed, and where an input's cost would swing with the seed, the generator
draws until the property that sets the cost lies in a fixed band (the class
count of a D < 0 table, the narrow class number and form count of a D > 0
table, the principal cycle length of a D > 0 chain, the residue of a
senary D).
"""

from __future__ import annotations

import json
import os
import random
from math import gcd, isqrt

from cubecomp.cubes import (
    Cube,
    cube_class_compose,
    cube_disc,
    cube_variants,
    dual_cubes_solve,
    gamma_act,
    is_projective,
)

# dual-ladder: base triples per seed, and the SL2 entry size that lifts each
# rung's coefficients to about 10^3 (no conjugation), 10^12 and 10^30.  With
# 20 triples the 11th costliest op (op_tail_ms) is inside the 10^30 duals.
DUAL_TRIPLES = 20
DUAL_RUNGS = (("1e3", 0), ("1e12", 10**3), ("1e30", 10**9))
BASE_COEFF_MAX = 1000

# classgroup-ladder rungs: (|D| low end, D < 0 per seed, band of positive
# definite class counts accepted there, D > 0 per seed, narrow class number
# required there, band of reduced form counts accepted there).  A table
# costs h^2 compositions, and at D > 0 each walks a whole cycle, so the
# bands fix each rung's cost and memory; at 10^4 and 10^5 they are single
# values, since there the eight and three tables set op_tail_ms and a share
# of ops_per_s.  The one D ~ -10^6 table dominates ops_per_s; the three
# D ~ -10^5 tables dilute it.  The eight D ~ -10^4 tables rank 7th to 14th
# by cost, so op_tail_ms (the 11th costliest op) falls mid-group.
CLASSGROUP_RUNGS = (
    (1_000, 2, (8, 10), 2, 1, (22, 26)),
    (10_000, 8, (24, 24), 2, 3, (70, 90)),
    (100_000, 3, (36, 36), 2, 3, (346, 402)),
    (1_000_000, 1, (118, 122), 2, 1, (600, 1300)),
)
# bqf compose chains: many cheap ones at D near -10^40, so that the median
# op is a big-integer composition from the middle of their cost range, and
# a few at D near 10^7
CHAINS_NEG = 120
CHAINS_POS = 8
CHAIN_LEN = 6
CHAIN_CYCLE_BAND = (150, 170)

FIXTURES = (
    ("cube", "cube_disc_m47.json"),
    ("cubic", "cubic_disc_8.json"),
    ("pair", "pair_disc_m31.json"),
    ("quat", "quat_disc_m47.json"),
)
SENARY_ACCEPTANCE = (-47, -31, -4, 5, 8, 13)
# seeded senary D per sign at D = 0 and 1 mod 4.  Senary costs about 40 ms
# at D = 0 mod 4 and 120 ms at D = 1 mod 4, so the six costly ones rank
# first and the eight cheap ones 7th to 14th: op_tail_ms, the 11th costliest
# op, falls mid-group.
SENARY_SEEDED = (3, 1)
# enough 1-3 ms verifications that op_p50_ms, a quantile of their costs, is
# steady from seed to seed
GAUSS_CUBES = 30
CUBE_LAW_TUPLES = 30


def envelope_text(space: str, D: int, objects) -> str:
    """An envelope in the wire format, written by the benchmark's own code."""
    objs = []
    for kind, coeffs in objects:
        objs.append({"kind": kind, "coeffs": [str(c) for c in coeffs]})
    return json.dumps(
        {"space": space, "discriminant": str(D), "objects": objs}, indent=2
    ) + "\n"


def _bezout(a: int, b: int):
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def random_sl2(rng: random.Random, size: int):
    """A matrix of determinant 1 whose first row has entries near `size`."""
    while True:
        a = rng.randint(size // 2 + 1, size) * rng.choice((1, -1))
        b = rng.randint(size // 2 + 1, size) * rng.choice((1, -1))
        if gcd(a, b) == 1:
            u, v = _bezout(a, b)
            return ((a, b), (-v, u))


def _max_coeff(cubes) -> int:
    return max(abs(c) for X in cubes for c in X.coeffs)


def composable_triple(rng: random.Random):
    """(A, B, C) with [A] + [B] + [C] = 0: B = A + A, C = tilde(A + B)."""
    while True:
        A = Cube([rng.randint(-6, 6) for _ in range(8)])
        if cube_disc(A) >= 0 or not is_projective(A):
            continue
        B = cube_class_compose(A, A)
        C = cube_variants(cube_class_compose(A, B))[2]
        if _max_coeff((A, B, C)) <= BASE_COEFF_MAX:
            return A, B, C


def conjugate(rng: random.Random, X: Cube, size: int) -> Cube:
    if size == 0:
        return X
    return gamma_act(X, *(random_sl2(rng, size) for _ in range(3)))


def _op(kind, argv, **expect):
    return {"kind": kind, "argv": argv, "exit": expect.pop("exit", 0),
            "verdict": expect.pop("verdict", None), **expect}


# -- dual-ladder -----------------------------------------------------------


def _dual_ladder(rng):
    ops, files = [], {}
    for t in range(DUAL_TRIPLES):
        base = composable_triple(rng)
        for rung, size in DUAL_RUNGS:
            A, B, C = (conjugate(rng, X, size) for X in base)
            D = cube_disc(A)
            name = f"triple{t:02d}_{rung}.json"
            files[name] = envelope_text(
                "cube", D, [("cube", X.coeffs) for X in (A, B, C)]
            )
            ops.append(_op("dual", ["dual", "--in", name, "--json"],
                           verdict="verified", rung=rung))
            # two compositions per dual solve keep the median op inside the
            # compose group rather than on the edge between the two groups
            for tag, pair in (("ab", (A, B)), ("bc", (B, C))):
                name = f"pair{t:02d}_{rung}_{tag}.json"
                files[name] = envelope_text(
                    "cube", D, [("cube", X.coeffs) for X in pair]
                )
                ops.append(_op("compose-cube",
                               ["compose", "--in", name, "--json"], rung=rung))
    return ops, files


# -- classgroup-ladder -------------------------------------------------------


def posdef_class_count(D: int) -> int:
    """Number of primitive reduced positive definite forms of discriminant
    D < 0, counted by b and the divisors of (b^2 - D)/4; independent of the
    library's enumeration."""
    count = 0
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        n = (b * b - D) // 4
        for a in range(max(b, 1), isqrt(n) + 1):
            if n % a:
                continue
            c = n // a
            if gcd(gcd(a, b), c) != 1:
                continue
            # b and -b are distinct reduced forms unless b = 0, |b| = a or a = c
            count += 1 if b in (0, a) or a == c else 2
    return count


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _negative_disc(rng, lo: int, band) -> int:
    """A fundamental D = 1 mod 4 in [-1.1 lo, -lo] whose positive definite
    class count lies in the band, so that the h^2 table cost is the same at
    every seed."""
    while True:
        m = rng.randint(lo, lo + lo // 10)
        if m % 4 != 3 or not _squarefree(m):
            continue
        if band[0] <= posdef_class_count(-m) <= band[1]:
            return -m


def _rho(form, D: int, s: int):
    """One reduction step of an indefinite form, s = isqrt(D)."""
    _, b, c = form
    ac = abs(c)
    lo = -ac + 1 if ac > s else s - 2 * ac + 1
    r = lo + ((-b - lo) % (2 * ac))
    return (c, r, (r * r - D) // (4 * c))


def narrow_class_number(D: int):
    """(h+(D), number of forms) for D > 0 nonsquare: the number of cycles
    among the primitive reduced forms (1 <= b <= s, s - b < 2|a| <= s + b),
    walked with the benchmark's own reduction step, and how many such forms
    there are."""
    s = isqrt(D)
    reduced = set()
    for b in range(1, s + 1):
        if (b - D) % 2:
            continue
        n = (D - b * b) // 4
        for a in range((s - b + 2) // 2, (s + b) // 2 + 1):
            if n % a == 0 and gcd(gcd(a, b), n // a) == 1:
                reduced.update(((a, b, -(n // a)), (-a, b, n // a)))
    cycles, forms = 0, len(reduced)
    while reduced:
        start = form = reduced.pop()
        cycles += 1
        while (form := _rho(form, D, s)) != start:
            reduced.discard(form)
    return cycles, forms


def _positive_disc(rng, lo: int, h_plus: int, forms_band) -> int:
    """A prime D = 1 mod 4 in [lo, 1.1 lo] with narrow class number h_plus
    and a reduced form count in forms_band.  The O(D) scan for reduced forms
    then costs the same at every seed, and so do the h_plus^2 table
    compositions, each walking a whole cycle, whose length the form count
    fixes."""
    while True:
        D = rng.randint(lo, lo + lo // 10)
        if D % 4 != 1 or not _is_prime(D):
            continue
        h, forms = narrow_class_number(D)
        if h == h_plus and forms_band[0] <= forms <= forms_band[1]:
            return D


def _split_form(rng, D: int):
    """A primitive form (p, b, c) of discriminant D with p a small split
    prime."""
    while True:
        p = rng.randrange(3, 2000, 2)
        if not _is_prime(p) or D % p == 0 or pow(D % p, (p - 1) // 2, p) != 1:
            continue
        b = next(x for x in range(p) if (x * x - D) % p == 0)
        if (b - D) % 2:
            b += p
        return (p, b, (b * b - D) // (4 * p))


def _chain(rng, D: int):
    """CHAIN_LEN split forms; at D < 0 exactly one is negative definite, so
    every chain takes the orientation path once."""
    chain = [_split_form(rng, D) for _ in range(CHAIN_LEN)]
    if D < 0:
        k = rng.randrange(CHAIN_LEN)
        chain[k] = tuple(-x for x in chain[k])
    return chain


def principal_cycle_length(D: int) -> int:
    """Length of the cycle of reduced forms through the principal form at
    D > 0 nonsquare, by the benchmark's own reduction step rho."""
    s = isqrt(D)
    b = s if (s - D) % 2 == 0 else s - 1
    start = form = (1, b, (b * b - D) // 4)
    length = 0
    while True:
        form = _rho(form, D, s)
        length += 1
        if form == start:
            return length


def _chain_disc(rng, sign: int, digits: int) -> int:
    """D near sign * 10^digits, D = 1 mod 4 and nonsquare; at D > 0 the
    principal cycle length must lie in CHAIN_CYCLE_BAND, since every
    composition walks a whole cycle."""
    while True:
        D = sign * rng.randint(10**digits, 2 * 10**digits)
        if D % 4 != 1 or _is_square(D):
            continue
        lo, hi = CHAIN_CYCLE_BAND
        if D < 0 or lo <= principal_cycle_length(D) <= hi:
            return D


def _classgroup_ladder(rng):
    ops, files = [], {}
    for lo, n_neg, band, n_pos, h_plus, forms_band in CLASSGROUP_RUNGS:
        for _ in range(n_neg):
            D = _negative_disc(rng, lo, band)
            ops.append(_op(
                "classgroup",
                ["classgroup", "--discriminant", str(D), "--json"],
                D=D, rung=f"-{lo:.0e}",
            ))
        for _ in range(n_pos):
            D = _positive_disc(rng, lo, h_plus, forms_band)
            ops.append(_op(
                "classgroup",
                ["classgroup", "--discriminant", str(D), "--json"],
                D=D, rung=f"+{lo:.0e}", classes=h_plus,
            ))
    for n, (count, sign, digits) in enumerate(
        ((CHAINS_NEG, -1, 40), (CHAINS_POS, 1, 7))
    ):
        for i in range(count):
            D = _chain_disc(rng, sign, digits)
            name = f"chain{n}_{i:03d}.json"
            files[name] = envelope_text(
                "bqf", D, [("bqf", f) for f in _chain(rng, D)]
            )
            ops.append(_op("compose-bqf", ["compose", "--in", name, "--json"],
                           D=D, rung=f"{'-' if D < 0 else '+'}1e{digits}"))
    return ops, files


# -- verify-laws -----------------------------------------------------------


def _senary_discs(rng):
    """The acceptance discriminants plus, per sign, SENARY_SEEDED[eps]
    seeded D = eps mod 4 with |D| in [100, 10000): the residue sets the
    senary cost."""
    out = list(SENARY_ACCEPTANCE)
    for sign in (-1, 1):
        for eps, count in enumerate(SENARY_SEEDED):
            for _ in range(count):
                while True:
                    D = sign * rng.randint(100, 9999)
                    if D % 4 == eps and not _is_square(D):
                        out.append(D)
                        break
    return out


def _perturbed(rng, cubes):
    """The tuple with one witness coefficient moved by one, chosen so that
    the witness's discriminant changes: the verdict must be 'failed'."""
    D = cube_disc(cubes[0])
    while True:
        w = rng.randrange(3, 6)
        k = rng.randrange(8)
        coeffs = list(cubes[w].coeffs)
        coeffs[k] += 1
        X = Cube(coeffs)
        if cube_disc(X) != D:
            out = list(cubes)
            out[w] = X
            return out


def _verify_laws(rng, root):
    ops, files = [], {}
    fixture_dir = os.path.join(root, "src", "cubecomp", "fixtures")
    for law, name in FIXTURES:
        with open(os.path.join(fixture_dir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
        ops.append(_op(f"verify-{law}",
                       ["verify", "--law", law, "--in", name, "--json"],
                       verdict="verified"))
    ops.append(_op("examples", ["examples", "--json"], verdict="verified"))
    for i in range(GAUSS_CUBES):
        A = Cube([rng.randint(-20, 20) for _ in range(8)])
        name = f"gauss{i:02d}.json"
        files[name] = envelope_text("cube", cube_disc(A), [("cube", A.coeffs)])
        ops.append(_op("verify-gauss",
                       ["verify", "--law", "gauss", "--in", name, "--json"],
                       verdict="verified"))
    for i in range(CUBE_LAW_TUPLES):
        _, size = DUAL_RUNGS[i % len(DUAL_RUNGS)]
        A, B, C = (conjugate(rng, X, size) for X in composable_triple(rng))
        six = [A, B, C, *dual_cubes_solve(A, B, C).cubes()]
        for tag, cubes, exit_code, verdict in (
            ("ok", six, 0, "verified"),
            ("bad", _perturbed(rng, six), 1, "failed"),
        ):
            name = f"cubelaw{i:02d}_{tag}.json"
            files[name] = envelope_text(
                "cube", cube_disc(A), [("cube", X.coeffs) for X in cubes]
            )
            ops.append(_op(f"verify-cube-{tag}",
                           ["verify", "--law", "cube", "--in", name, "--json"],
                           exit=exit_code, verdict=verdict))
    for D in _senary_discs(rng):
        ops.append(_op("verify-senary",
                       ["verify", "--law", "senary", "--discriminant", str(D),
                        "--json"],
                       verdict="verified", D=D))
    return ops, files


def generate(workload: str, seed: int, root: str):
    """(ops, files) for one workload and seed; `root` is the checkout."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dual-ladder":
        return _dual_ladder(rng)
    if workload == "classgroup-ladder":
        return _classgroup_ladder(rng)
    if workload == "verify-laws":
        return _verify_laws(rng, root)
    raise ValueError(f"unknown workload {workload!r}")


def write(ops, files, workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(workdir, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump(ops, fh, indent=1, sort_keys=True)
        fh.write("\n")


def resolve_argv(argv, workdir: str):
    """argv with the file after each --in made a path under workdir."""
    out = list(argv)
    for i, arg in enumerate(out[:-1]):
        if arg == "--in":
            out[i + 1] = os.path.join(workdir, out[i + 1])
    return out
