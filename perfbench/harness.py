"""Measuring core of the benchmark: the closed loop, the metrics and the
result record.  `run.py` is the entry point; it puts the checkout's `src/`
on the import path before this module is imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checker
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_FIRST = 3  # set-up samples before the first pass
SETUP_PER_PASS = 1  # and after each pass
TAIL_BEYOND = 10  # samples the tail percentile leaves beyond it
# The host probe is fixed pure Python of the benchmark's own, doing the
# three kinds of work the library does: integer loops (a class count),
# tuples and sets (a cycle walk) and JSON (the envelope format).
# PROBE_REF_S is its time on the reference host, a 2-vCPU Linux VM with
# Python 3.11, idle.
PROBE_JSON = {"table": [[str(i * j % 97) for j in range(40)] for i in range(40)]}
PROBE_REF_S = 500e-6


def _git_sha():
    """The checkout's commit from .git, or None outside a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": sys.version,
        "flags": {k: getattr(sys.flags, k) for k in dir(sys.flags)
                  if not k.startswith("_") and k not in ("count", "index")},
    }


def probe_host() -> float:
    """Seconds one host probe takes: the host's speed at this moment."""
    t0 = time.perf_counter()
    workloads.posdef_class_count(-100003)
    workloads.narrow_class_number(5009)
    json.loads(json.dumps(PROBE_JSON))
    return time.perf_counter() - t0


def to_reference(dt: float, before: float, after: float) -> float:
    """`dt` as it would read on the reference host, by the mean of the
    probes run just before and just after it.  A shared host runs at a speed
    that drifts by half or more over minutes as its neighbours' load comes
    and goes; the probe slows with it, so the ratio keeps the program's own
    cost."""
    return dt * 2 * PROBE_REF_S / (before + after)


class SetupTimer:
    """Seconds from a fresh interpreter to the end of
    `python -m cubecomp.cli --help`.  Samples are taken a few at a time
    between passes, so that a burst of load on the machine touches few,
    each between two host probes."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.cmd = [sys.executable, "-m", "cubecomp.cli", "--help"]
        self.times: list[float] = []  # at the reference host
        self.raw: list[float] = []
        self._spawn()  # warms the file cache and byte-compiles; not counted

    def _spawn(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, cwd=ROOT, env=self.env,
                       stdout=subprocess.DEVNULL, check=True)
        return time.perf_counter() - t0

    def sample(self, k: int) -> None:
        for _ in range(k):
            before = probe_host()
            dt = self._spawn()
            self.times.append(to_reference(dt, before, probe_host()))
            self.raw.append(dt)


class Runner:
    """Runs ops through cli.main, checking every result outside the clock."""

    def __init__(self, cli, ops, workdir):
        self.cli = cli
        self.ops = ops
        self.workdir = workdir
        self.argv = [workloads.resolve_argv(op["argv"], workdir) for op in ops]
        self.expected: dict[int, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def call(self, i: int):
        """(exit code, stdout, seconds) of op i; only cli.main is timed."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(self.argv[i])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed op, not a crashed run
                code = f"uncaught {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        return code, out.getvalue(), t1 - t0

    def record(self, i: int, code, stdout: str) -> None:
        """Check op i's result: fully the first time, by comparison after."""
        self.attempted += 1
        seen = self.expected.get(i)
        if seen is None:
            problems = checker.check(self.ops[i], code, stdout, self.workdir)
            if not problems:
                self.expected[i] = f"{code}\n{checker.normalize(stdout)}"
        elif seen == f"{code}\n{checker.normalize(stdout)}":
            problems = []
        else:
            problems = ["output differs from the first, checked run"]
        if problems:
            self.failed += 1
            self.problems.append(f"op {i} {self.ops[i]['argv']}: {problems[0]}")


def _order(n: int, seed: int):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def _pass(runner: Runner, order, call, probes=None) -> list[float]:
    """One pass over `order` through `call`; each op's cli.main latency.
    With a `probes` list, the host is probed after every op, untimed."""
    lat = []
    for i in order:
        code, stdout, dt = call(i)
        runner.record(i, code, stdout)
        lat.append(dt)
        if probes is not None:
            probes.append(probe_host())
    return lat


def run_untraced(runner: Runner, order, seconds: float, between_passes):
    """Closed loop of whole passes over `order`, as many as fit in
    `seconds` of op time (at least one), so that every run measures the same
    op mix.  Returns each pass's op latencies, in `order`, and its host
    probes: one before the first op and one after each op."""
    passes, probes = [], []
    busy = 0.0
    while not passes or busy * (len(passes) + 1) / len(passes) <= seconds:
        probes.append([probe_host()])
        passes.append(_pass(runner, order, runner.call, probes[-1]))
        busy += sum(passes[-1])
        between_passes()
    return passes, probes


def _percentile_tail(lat):
    """(value, percentile) of the highest percentile leaving TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    s = sorted(lat)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _kind(op) -> str:
    return f"{op['kind']}@{op['rung']}" if "rung" in op else op["kind"]


def latency_metrics(passes):
    """ops_per_s, op_p50_ms and op_tail_ms over each op's median latency
    across the passes, one sample per op, so that every op weighs the same
    in every run; also those per-op latencies and the tail percentile."""
    per_op = [statistics.median(p[k] for p in passes)
              for k in range(len(passes[0]))]
    tail, pct = _percentile_tail(per_op)
    n = len(passes) * len(per_op)
    return {
        "ops_per_s": (len(per_op) / sum(per_op), "op/s", n),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms", n),
        "op_tail_ms": (tail * 1e3, "ms", n),
    }, per_op, pct


def end_to_end(runner, order, seconds):
    setup = SetupTimer()
    setup.sample(SETUP_FIRST)
    passes, probes = run_untraced(runner, order, seconds,
                                  lambda: setup.sample(SETUP_PER_PASS))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    at_ref = [[to_reference(dt, pr[k], pr[k + 1]) for k, dt in enumerate(p)]
              for p, pr in zip(passes, probes)]
    metrics, per_op, pct = latency_metrics(at_ref)
    metrics["setup_s"] = (statistics.median(setup.times), "s",
                          len(setup.times))
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MiB", 1)
    raw, _, _ = latency_metrics(passes)
    raw["setup_s"] = (statistics.median(setup.raw), "s", len(setup.raw))
    by_kind = {}
    for i, dt in zip(order, per_op):
        by_kind.setdefault(_kind(runner.ops[i]), []).append(dt * 1e3)
    all_probes = [x for pr in probes for x in pr]
    detail = {
        "raw_metrics": {k: {"value": v, "unit": u, "n": n}
                        for k, (v, u, n) in raw.items()},
        "probe_ms": {"reference": PROBE_REF_S * 1e3, "n": len(all_probes),
                     "min": min(all_probes) * 1e3,
                     "median": statistics.median(all_probes) * 1e3},
        "latencies_ms": {str(i): [p[k] * 1e3 for p in passes]
                         for k, i in enumerate(order)},
        "probes_ms": [[x * 1e3 for x in pr] for pr in probes],
        "passes": len(passes),
        "op_tail_percentile": pct,
        "op_tail_samples": len(per_op),
        "fail_ratio": runner.failed / runner.attempted,
        "by_kind_ms": {k: {"n": len(v), "min": min(v),
                           "median": statistics.median(v), "max": max(v)}
                       for k, v in sorted(by_kind.items())},
    }
    return metrics, detail


# per-layer metric -> the span whose calls, or whose self time, it reports
CALLS = {
    "exact.poly_mul.calls": "exact.Poly.__mul__",
    "exact.substitute.calls": "exact.MultiForm.substitute",
    "exact.lagrange_gauss.calls": "exact.lagrange_gauss_reduce",
    "qring.kelem_mul.calls": "qring.KElem.__mul__",
    "qring.kelem_inverse.calls": "qring.KElem.inverse",
    "qring.ideal_mul.calls": "qring.OrientedIdeal.__mul__",
    "qring.hnf.calls": "qring._hnf_rows",
    "qring.principal_generator.calls": "qring.principal_generator",
    "bqf.reduce.calls": "bqf.reduce",
    "bqf.compose.calls": "bqf.compose_dirichlet",
    "cubes.cube_to_triple.calls": "cubes.cube_to_triple",
    "cubes.companion.calls": "cubes.companion_cube",
}
SELF_MS = {
    "bqf.enumerate.self_ms": "bqf.enumerate_class_group",
    "cubes.dual_solve.self_ms": "cubes.dual_cubes_solve",
    "cubes.verify.self_ms": "cubes.verify_cube_composition",
    "symspaces.verify_cubic.self_ms": "symspaces.verify_cubic_composition",
    "symspaces.verify_pair.self_ms": "symspaces.verify_pair_composition",
    "altforms.senary.self_ms": "altforms.verify_senary_identity",
    "altforms.quat.self_ms": "altforms.verify_quaternary_composition",
    "bench.self_ms": tracer.OP_SPAN,
}
LAYERS = ("cli", "wire", "exact", "qring", "bqf", "cubes", "symspaces",
          "altforms")


def layer_metrics(by_name: dict, shears: int, n_ops: int) -> dict:
    """Per-op means of the per-layer metrics, from summarized spans."""
    def span(name, field):
        return by_name.get(name, {}).get(field, 0)

    def layer(name, field):
        return sum(v[field] for k, v in by_name.items()
                   if k.split(".", 1)[0] == name)

    out = {}
    for name in LAYERS:
        out[f"{name}.self_ms"] = (layer(name, "self_ns") / 1e6 / n_ops, "ms")
    out["wire.calls"] = (layer("wire", "calls") / n_ops, "count")
    for metric, name in CALLS.items():
        out[metric] = (span(name, "calls") / n_ops, "count")
    for metric, name in SELF_MS.items():
        out[metric] = (span(name, "self_ns") / 1e6 / n_ops, "ms")
    out["bqf.cycle_forms"] = (span("bqf.reduce", "value") / n_ops, "count")
    c2t = span("cubes.cube_to_triple", "calls")
    out["cubes.shears_per_triple"] = (shears / c2t if c2t else 0.0, "ratio")
    return out


def per_layer(runner, order, seconds, spans_path):
    """Pairs of one untraced and one traced pass over every op, the side
    that runs first alternating, until `seconds` have gone by (at least one
    pair); per-layer means per op."""
    tr = tracer.Tracer()
    untraced_busy = traced_busy = 0.0
    passes = 0
    start = time.perf_counter()
    def traced_pass():
        tr.install()
        try:
            return sum(_pass(runner, order,
                             lambda i: tr.run_op(i, runner.call, i)))
        finally:
            tr.uninstall()

    while True:
        if passes % 2:
            traced_busy += traced_pass()
            untraced_busy += sum(_pass(runner, order, runner.call))
        else:
            untraced_busy += sum(_pass(runner, order, runner.call))
            traced_busy += traced_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    n_ops = passes * len(order)
    by_name, shears = tracer.summarize(tr)
    metrics = layer_metrics(by_name, shears, n_ops)
    op_ns = sum(t1 - t0 for name, t0, t1, *_ in tr.rows()
                if name == tracer.OP_SPAN)
    self_total = sum(v["self_ns"] for v in by_name.values())
    metrics["trace.op_ms"] = (op_ns / 1e6 / n_ops, "ms")
    metrics["trace.overhead_ratio"] = (traced_busy / untraced_busy, "ratio")
    tr.write(spans_path)
    detail = {
        "passes": passes,
        "ops_per_pass": len(order),
        "spans": len(tr.spans) // tracer.FIELDS,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "self_sum_equals_op_time": self_total == op_ns,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "by_name": by_name,
    }
    return {k: (v, u, n_ops) for k, (v, u) in metrics.items()}, detail


def run(cli, args) -> None:
    """One benchmark run; prints the summary line and the result line."""
    tag = f"{args.workload}-s{args.seed}"
    workdir = os.path.join(OUT, "work", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    ops, files = workloads.generate(args.workload, args.seed, ROOT)
    workloads.write(ops, files, workdir)
    generate_s = time.perf_counter() - t0

    runner = Runner(cli, ops, workdir)
    order = _order(len(ops), args.seed)
    if args.trace:
        metrics, detail = per_layer(
            runner, order, args.seconds,
            os.path.join(OUT, f"{tag}.spans.tsv.gz"))
    else:
        metrics, detail = end_to_end(runner, order, args.seconds)
    fail_ratio = runner.failed / runner.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "generate_s": generate_s,
        "environment": _environment(),
        "metrics": {k: {"value": v, "unit": u, "n": n}
                    for k, (v, u, n) in metrics.items()},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        **detail,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    env = record["environment"]
    print(f"git {env['git_sha']}; python {sys.version.split()[0]}; "
          f"optimize {sys.flags.optimize}")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    summary = [f"{k}={v:.6g} {u} (n={n})" for k, (v, u, n) in metrics.items()]
    if not args.trace:
        summary.append(f"fail_ratio={fail_ratio:.6g} 1 (n={runner.attempted})")
        summary.append(f"op_tail_ms is p{detail['op_tail_percentile']:.2f} "
                       f"of {detail['op_tail_samples']} ops")
    print(f"{args.workload} seed={args.seed}: " + "; ".join(summary))
    if not args.trace:
        probe = detail["probe_ms"]
        raw = [f"{k}={m['value']:.6g} {m['unit']}"
               for k, m in detail["raw_metrics"].items()]
        print(f"as timed, before scaling to the reference host (probe median "
              f"{probe['median']:.4g} ms, reference {probe['reference']:.4g}"
              f" ms): " + "; ".join(raw))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, n) in metrics.items()},
    }
    print(json.dumps(result))
