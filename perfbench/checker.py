"""Judges one operation's exit code and JSON report.

Runs outside the timed region.  Beyond the exit code and verdict every op
declares, the checks are:

- dual: the witness cubes re-verify with `verify_cube_composition`;
- compose (cube space): the product's three associated forms agree, class by
  class, with ideal multiplication of the factors' forms;
- compose (bqf space): the product is reduced and agrees with the ideal
  product of the chain (`bqf_to_ideal`, `*`, `ideal_class_equal`);
- classgroup: the table is a commutative Latin square with the principal
  class as identity, every class has an inverse, seeded triples associate,
  seeded entries agree with ideal multiplication, and the class count
  equals the benchmark's own count: of primitive reduced forms at D < 0,
  of cycles of reduced forms at D > 0;
- examples: every bundled fixture verified.
"""

from __future__ import annotations

import json
import os
import random
import re

from cubecomp.bqf import (
    BQF,
    bqf_to_ideal,
    ideal_class_equal,
    principal_form,
    reduce,
)
from cubecomp.cubes import Cube, assoc_forms, cube_disc, verify_cube_composition

from workloads import posdef_class_count

_ELAPSED = re.compile(r'"elapsed_seconds": "[^"]*"')
ASSOC_SAMPLES = 200
ORACLE_SAMPLES = 6


def normalize(stdout: str) -> str:
    """The report with its wall-clock field blanked, for comparing repeats."""
    return _ELAPSED.sub('"elapsed_seconds": ""', stdout)


def _ints(values):
    return [int(v) for v in values]


def _objects(envelope: dict):
    out = []
    for obj in envelope["objects"]:
        coeffs = _ints(obj["coeffs"])
        out.append(Cube(coeffs) if obj["kind"] == "cube" else BQF(*coeffs))
    return out


def _input_objects(op: dict, workdir: str):
    name = op["argv"][op["argv"].index("--in") + 1]
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        return _objects(json.load(fh))


def _ideal_product(forms):
    ideal = bqf_to_ideal(forms[0])
    for Q in forms[1:]:
        ideal = ideal * bqf_to_ideal(Q, ideal.ring)
    return ideal


def _check_dual(op, report, workdir):
    A, B, C = _input_objects(op, workdir)
    R, S, T = _objects(report["artifacts"][0])
    res = verify_cube_composition(A, B, C, R, S, T)
    return [] if res.ok else [f"witness does not verify: {res.reasons}"]


def _check_compose_cube(op, report, workdir):
    A, B = _input_objects(op, workdir)
    (P,) = _objects(report["artifacts"][0])
    if cube_disc(P) != cube_disc(A):
        return ["product cube has the wrong discriminant"]
    problems = []
    for i, (QA, QB, QP) in enumerate(zip(assoc_forms(A), assoc_forms(B),
                                         assoc_forms(P))):
        if not ideal_class_equal(_ideal_product([QA, QB]), bqf_to_ideal(QP)):
            problems.append(f"Q{i + 1} of the product is not [Q{i + 1}(A)][Q{i + 1}(B)]")
    return problems


def _check_compose_bqf(op, report, workdir):
    forms = _input_objects(op, workdir)
    (P,) = _objects(report["artifacts"][0])
    if P.disc() != forms[0].disc():
        return ["product form has the wrong discriminant"]
    if reduce(P).canonical != P:
        return ["product form is not the canonical reduced form"]
    if not ideal_class_equal(_ideal_product(forms), bqf_to_ideal(P)):
        return ["product disagrees with the ideal-multiplication oracle"]
    return []


def _check_classgroup(op, report, workdir):
    D = op["D"]
    art = report["artifacts"][0]
    reps = _objects(art["representatives"])
    table = [_ints(row) for row in art["table"]]
    n = len(reps)
    e = int(art["identity_index"])
    if int(art["class_count"]) != n or len(table) != n:
        return ["class count does not match the table"]
    if any(Q.disc() != D for Q in reps):
        return ["a representative has the wrong discriminant"]
    if D < 0:
        own = posdef_class_count(D)
        if int(art["posdef_count"]) != own or n != 2 * own:
            return [f"class count {n} disagrees with {own} reduced forms"]
    elif "classes" in op and n != op["classes"]:
        return [f"class count {n} disagrees with {op['classes']} cycles"]
    full = list(range(n))
    if any(sorted(row) != full for row in table):
        return ["a table row is not a permutation"]
    if any(sorted(row[j] for row in table) != full for j in range(n)):
        return ["a table column is not a permutation"]
    if reps[e] != reduce(principal_form(D)).canonical:
        return ["identity index is not the principal class"]
    if table[e] != full or [row[e] for row in table] != full:
        return ["identity row or column is wrong"]
    if any(table[i][j] != table[j][i] for i in range(n) for j in range(i)):
        return ["table is not commutative"]
    if any(e not in row for row in table):
        return ["a class has no inverse"]
    rng = random.Random(D)
    for _ in range(ASSOC_SAMPLES):
        i, j, k = (rng.randrange(n) for _ in range(3))
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return [f"associativity fails at {(i, j, k)}"]
    for _ in range(ORACLE_SAMPLES):
        i, j = rng.randrange(n), rng.randrange(n)
        prod = _ideal_product([reps[i], reps[j]])
        if not ideal_class_equal(prod, bqf_to_ideal(reps[table[i][j]])):
            return [f"table entry {(i, j)} disagrees with ideal multiplication"]
    return []


def _check_examples(op, report, workdir):
    if [a.get("verdict") for a in report["artifacts"]] != ["verified"] * 4:
        return ["not every bundled example verified"]
    return []


KIND_CHECKS = {
    "dual": _check_dual,
    "compose-cube": _check_compose_cube,
    "compose-bqf": _check_compose_bqf,
    "classgroup": _check_classgroup,
    "examples": _check_examples,
}


def check(op: dict, exit_code, stdout: str, workdir: str) -> list[str]:
    """Problems with one op's result; an empty list means correct."""
    if exit_code != op["exit"]:
        return [f"exit code {exit_code}, expected {op['exit']}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not one JSON report"]
    if report.get("verdict") != op["verdict"]:
        return [f"verdict {report.get('verdict')!r}, expected {op['verdict']!r}"]
    extra = KIND_CHECKS.get(op["kind"])
    if extra is None:
        return []
    try:
        return extra(op, report, workdir)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"report is malformed: {type(exc).__name__}: {exc}"]
