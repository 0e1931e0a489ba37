"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

They cover what the numbers rest on: the same seed gives byte-identical
inputs, the checker catches a tampered verdict, witness or table entry, and
the traced counts repeat exactly.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cubecomp  # noqa: E402
import cubecomp.cli  # noqa: E402
import checker  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Each workload at SEED, generated and written twice."""
    out = {}
    for wl in run.WORKLOADS:
        dirs = []
        for n in range(2):
            d = str(tmp_path_factory.mktemp(f"{wl}-{n}"))
            ops, files = workloads.generate(wl, SEED, ROOT)
            workloads.write(ops, files, d)
            dirs.append(d)
        out[wl] = (ops, dirs)
    return out


@pytest.mark.parametrize("wl", run.WORKLOADS)
def test_same_seed_gives_identical_files(generated, wl):
    _, (a, b) = generated[wl]
    fa, fb = _files(a), _files(b)
    assert "ops.json" in fa and len(fa) > 1
    assert fa == fb


def test_other_seed_gives_other_inputs(generated):
    ops, _ = workloads.generate("classgroup-ladder", SEED + 1, ROOT)
    assert ops != generated["classgroup-ladder"][0]


def _run_one(op, workdir):
    runner = harness.Runner(cubecomp.cli, [op], str(workdir))
    code, stdout, _ = runner.call(0)
    return code, stdout


def _dual_op(tmp_path):
    A, B, C = workloads.composable_triple(random.Random(SEED))
    text = workloads.envelope_text(
        "cube", workloads.cube_disc(A), [("cube", X.coeffs) for X in (A, B, C)])
    (tmp_path / "t.json").write_text(text)
    return {"kind": "dual", "argv": ["dual", "--in", "t.json", "--json"],
            "exit": 0, "verdict": "verified"}


def test_checker_accepts_then_flags_tampered_dual(tmp_path):
    op = _dual_op(tmp_path)
    code, out = _run_one(op, tmp_path)
    assert checker.check(op, code, out, str(tmp_path)) == []
    assert checker.check(op, 1, out, str(tmp_path))  # exit code
    report = json.loads(out)
    report["verdict"] = "failed"
    assert checker.check(op, code, json.dumps(report), str(tmp_path))
    report = json.loads(out)
    coeffs = report["artifacts"][0]["objects"][0]["coeffs"]
    coeffs[3] = str(int(coeffs[3]) + 1)
    assert checker.check(op, code, json.dumps(report), str(tmp_path))


def test_checker_flags_tampered_class_table(tmp_path):
    D = -1003
    op = {"kind": "classgroup", "D": D, "exit": 0, "verdict": None,
          "argv": ["classgroup", "--discriminant", str(D), "--json"]}
    code, out = _run_one(op, tmp_path)
    assert checker.check(op, code, out, str(tmp_path)) == []
    report = json.loads(out)
    row = report["artifacts"][0]["table"][1]
    row[2], row[3] = row[3], row[2]  # the row stays a permutation
    assert checker.check(op, code, json.dumps(report), str(tmp_path))
    report = json.loads(out)
    report["artifacts"][0]["posdef_count"] = "1"
    assert checker.check(op, code, json.dumps(report), str(tmp_path))


def test_traced_counts_repeat_exactly(generated, tmp_path):
    # two cheap ops of each of these kinds, with their inputs
    kinds = {"dual@1e3": 2, "compose-cube@1e3": 2, "compose-bqf@+1e7": 2,
             "compose-bqf@-1e40": 2, "verify-gauss": 2, "verify-cube-bad": 2}
    ops = []
    for wl in run.WORKLOADS:
        wl_ops, (workdir, _) = generated[wl]
        for op in wl_ops:
            kind = harness._kind(op)
            if kinds.get(kind, 0):
                kinds[kind] -= 1
                ops.append(dict(op, argv=workloads.resolve_argv(op["argv"], workdir)))
    assert not any(kinds.values())
    counts = []
    for n in range(2):
        runner = harness.Runner(cubecomp.cli, ops, str(tmp_path))
        metrics, detail = harness.per_layer(
            runner, list(range(len(ops))), 0, str(tmp_path / f"s{n}.gz"))
        assert runner.failed == 0, runner.problems
        assert detail["self_sum_equals_op_time"]
        counts.append({k: v for k, (v, _, _) in metrics.items()
                       if k.endswith(".calls")
                       or k in ("bqf.cycle_forms", "cubes.shears_per_triple")})
    assert counts[0] == counts[1]
    assert counts[0]["qring.kelem_mul.calls"] > 0
    assert counts[0]["bqf.cycle_forms"] > 0


def test_latencies_scale_to_the_reference_host():
    ref = harness.PROBE_REF_S
    assert harness.to_reference(0.010, ref, ref) == pytest.approx(0.010)
    # a host running at half speed slows the probes around the op as much
    assert harness.to_reference(0.020, 2 * ref, 2 * ref) == pytest.approx(0.010)
    # one op per pass with 21 ops: the tail is the 11th slowest op's median
    passes = [[0.001 * (k + 1) * (1 + p) for k in range(21)] for p in range(3)]
    metrics, per_op, pct = harness.latency_metrics(passes)
    assert per_op == pytest.approx([0.002 * (k + 1) for k in range(21)])
    assert metrics["op_tail_ms"][0] == pytest.approx(22.0)
    assert metrics["op_p50_ms"][0] == pytest.approx(22.0)
    assert pct == pytest.approx(100 * 11 / 21)


def _namespaces():
    spaces = [vars(cubecomp)] + [vars(getattr(cubecomp, m)) for m in tracer.MODULES]
    spaces += [vars(getattr(getattr(cubecomp, m), cls))
               for m, cls in tracer.HOT_METHODS]
    return [dict(ns) for ns in spaces]


def test_tracer_restores_every_original():
    before = _namespaces()
    tr = tracer.Tracer()
    tr.install()
    assert cubecomp.bqf.reduce is not before[0]["reduce"]
    tr.uninstall()
    assert _namespaces() == before


def _run_script(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def test_refuses_optimized_interpreter():
    res = _run_script(["-O", "perfbench/run.py", "--workload", "dual-ladder",
                       "--seed", "1", "--seconds", "1"], ROOT)
    assert res.returncode != 0 and res.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = _run_script(["perfbench/run.py", "--workload", "dual-ladder",
                       "--seed", "1", "--seconds", "1"], tmp_path)
    assert res.returncode != 0 and res.stdout == ""
