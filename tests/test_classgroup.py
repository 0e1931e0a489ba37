"""Class-group tables against a brute-force oracle and at large |D|.

The oracle is the h^2 construction the Cayley-graph builder replaced:
reduced forms by a scan over (a, b), indefinite cycles walked by reduce,
and one composition per table entry by the united-forms recipe
(tests/compose_reference.py), not by the compose_dirichlet under test.
"""

import random
from math import isqrt

import pytest

from cubecomp import bqf
from cubecomp.bqf import (
    BQF,
    bqf_to_ideal,
    compose_dirichlet,
    enumerate_class_group,
    ideal_to_bqf,
    reduce,
)
from cubecomp.cli import main
from cubecomp.exact import InternalError
from tests.compose_reference import united_forms_compose


def _oracle_posdef_forms(D):
    out = []
    amax = isqrt(-D // 3) if D < -3 else 1
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2 != 0:
                continue
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            Q = BQF(a, b, c)
            if Q.is_primitive():
                out.append(Q)
    return sorted(out, key=BQF.coeffs)


def _oracle_indefinite_forms(D):
    s = isqrt(D)
    out = []
    for b in range(1, s + 1):
        if (b - D) % 2 != 0:
            continue
        for two_a in range(s - b + 1, s + b + 1):
            if two_a % 2 != 0:
                continue
            aa = two_a // 2
            for a in (aa, -aa):
                num = b * b - D
                if num % (4 * a) != 0:
                    continue
                Q = BQF(a, b, num // (4 * a))
                if Q.is_primitive():
                    out.append(Q)
    return sorted(set(out), key=BQF.coeffs)


def oracle_class_group(D):
    """(representatives, table) with one united-forms composition per entry."""
    if D < 0:
        pos = _oracle_posdef_forms(D)
        reps = pos + [-Q for Q in pos]
    else:
        reps, seen = [], set()
        for Q in _oracle_indefinite_forms(D):
            if Q in seen:
                continue
            res = reduce(Q)
            seen.update(res.cycle)
            reps.append(res.canonical)
        reps = sorted(reps, key=BQF.coeffs)
    index = {reduce(rep).canonical: i for i, rep in enumerate(reps)}
    table = [[index[united_forms_compose(Qi, Qj)] for Qj in reps] for Qi in reps]
    return tuple(reps), tuple(tuple(row) for row in table)


def _nonsquare_discs(bound):
    for m in range(1, bound):
        for D in (-m, m):
            if D % 4 in (0, 1) and not (D > 0 and isqrt(D) ** 2 == D):
                yield D


def _check_against_oracle(bound):
    n = 0
    for D in _nonsquare_discs(bound):
        tbl = enumerate_class_group(D)
        reps, table = oracle_class_group(D)
        assert tbl.representatives == reps, D
        assert tbl.table == table, D
        assert tbl.representatives[tbl.identity_index()] == reduce(
            bqf.principal_form(D)
        ).canonical, D
        n += 1
    return n


def test_tables_match_the_brute_force_oracle():
    assert _check_against_oracle(400) == 379


@pytest.mark.slow
def test_tables_match_the_brute_force_oracle_to_2000():
    assert _check_against_oracle(2000) == 1954


def test_large_negative_discriminant():
    D = -4000003
    tbl = enumerate_class_group(D)
    n = len(tbl)
    assert n == 496
    assert sum(1 for Q in tbl.representatives if Q.a > 0) == 248
    e = tbl.identity_index()
    assert tbl.representatives[e] == BQF(1, 1, 1000001)
    t = tbl.table
    assert t[e] == tuple(range(n))
    assert all(t[i][e] == i for i in range(n))
    assert all(t[i][j] == t[j][i] for i in range(n) for j in range(i))
    rng = random.Random(4000003)
    for _ in range(200):
        i, j, k = (rng.randrange(n) for _ in range(3))
        assert t[t[i][j]][k] == t[i][t[j][k]]
    reps = tbl.representatives
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        prod = bqf_to_ideal(reps[i]) * bqf_to_ideal(reps[j])
        assert tbl.index_of(ideal_to_bqf(prod)) == t[i][j]


def _corrupt_one_composition(monkeypatch, which):
    """Make the which-th compose_dirichlet call return [Q1][Q2]^2 in place
    of [Q1][Q2]: a wrong Cayley entry, since no generator is the identity."""
    real = compose_dirichlet
    calls = []

    def corrupted(Q1, Q2):
        calls.append(None)
        out = real(Q1, Q2)
        return real(out, Q2) if len(calls) == which else out

    monkeypatch.setattr(bqf, "compose_dirichlet", corrupted)
    return calls


@pytest.mark.parametrize("D", [-47, -84, 229, 1000001, -4000003])
def test_corrupted_cayley_entry_trips_the_internal_check(monkeypatch, D):
    clean = _corrupt_one_composition(monkeypatch, 0)
    enumerate_class_group(D)
    n = len(clean)
    # every entry of the small groups, a spread of the large ones
    whichs = range(1, n + 1) if n <= 12 else sorted({1, 2, n // 3, n // 2, n})
    for which in whichs:
        calls = _corrupt_one_composition(monkeypatch, which)
        with pytest.raises(InternalError, match="Cayley graph"):
            enumerate_class_group(D)
        assert len(calls) >= which


def test_corrupted_cayley_entry_exits_4(monkeypatch, capsys):
    _corrupt_one_composition(monkeypatch, 3)
    assert main(["classgroup", "--discriminant", "-47"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: internal check failed:")
