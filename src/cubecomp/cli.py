"""Command line front end.

Subcommands: classgroup, compose, verify, dual, examples.  compose folds
the objects of a bqf, cube, cubic or pair envelope into one product of the
same space.  Every run prints a report (human text by default, a JSON
document with --json) carrying the verdict, the reasons for any failure, the
computed artifacts, and the wall time.  Exit codes: 0 for verified or
composed, 1 when a verification comes back false, 2 for malformed input, 3
for a square discriminant (0 included), which the routines that reduce
forms do not cover, 4 when one of the library's own correctness checks
fails or the library crashes, 130 when interrupted (Ctrl-C, SIGINT).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import reduce
from importlib import resources

from .altforms import verify_quaternary_composition, verify_senary_identity
from .bqf import BQF, compose_dirichlet, enumerate_class_group
from .cubes import (
    Cube,
    cube_class_compose,
    cube_disc,
    dual_cubes_solve,
    lemmermeyer_identity,
    verify_cube_composition,
)
from .exact import InputError, InternalError, UnsupportedDomainError
from .symspaces import (
    BinaryCubic,
    PairBQF,
    cubic_class_compose,
    cubic_disc,
    pair_class_compose,
    pair_disc,
    verify_cubic_composition,
    verify_pair_composition,
)
from .wire import (
    Envelope,
    _emit_int,
    _parse_int,
    encode_envelope,
    parse_envelope,
)

FIXTURES = (
    "cube_disc_m47.json",
    "cubic_disc_8.json",
    "pair_disc_m31.json",
    "quat_disc_m47.json",
)

class Report:
    """What a subcommand computed, ready for either output mode."""

    def __init__(self, command: str):
        self.command = command
        self.verdict: bool | None = None
        self.reasons: list[str] = []
        self.artifacts: list = []
        self.lines: list[str] = []
        self.elapsed: float = 0.0

    def exit_code(self) -> int:
        return 1 if self.verdict is False else 0

    def to_json(self) -> dict:
        if self.verdict is None:
            verdict = None
        else:
            verdict = "verified" if self.verdict else "failed"
        return {
            "command": self.command,
            "verdict": verdict,
            "reasons": list(self.reasons),
            "artifacts": list(self.artifacts),
            "elapsed_seconds": f"{self.elapsed:.6f}",
        }

    def print_human(self, out) -> None:
        for line in self.lines:
            print(line, file=out)
        if self.verdict is not None:
            print(
                f"{self.command}: {'verified' if self.verdict else 'FAILED'}",
                file=out,
            )
        for r in self.reasons:
            print(f"  - {r}", file=out)
        print(f"elapsed: {self.elapsed:.3f}s", file=out)


def _read_envelope(path: str) -> Envelope:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_envelope(text)


def _split(env: Envelope, spec):
    """Partition env.objects by type per spec [(type, count, what), ...],
    preserving file order inside each group and rejecting leftovers."""
    groups = []
    used = 0
    for kind_type, count, what in spec:
        picked = [o for o in env.objects if isinstance(o, kind_type)]
        if len(picked) != count:
            raise InputError(f"expected {count} {what}, got {len(picked)}")
        groups.append(picked)
        used += count
    if len(env.objects) != used:
        raise InputError("envelope carries objects of an unexpected kind")
    return groups


def _check_disc(env: Envelope, discs) -> None:
    for d in discs:
        if d != env.discriminant:
            raise InputError(
                f"envelope says discriminant {env.discriminant}, "
                f"objects have {d}"
            )


def _form_str(Q: BQF) -> str:
    return f"[{Q.a}, {Q.b}, {Q.c}]"


# -- subcommand bodies -----------------------------------------------------


def cmd_classgroup(args) -> Report:
    rep = Report("classgroup")
    table = enumerate_class_group(_parse_int(args.discriminant))
    D = table.D
    reps = table.representatives
    posdef = [Q for Q in reps if D < 0 and Q.a > 0]
    if D < 0:
        rep.lines.append(
            f"discriminant {D}: {len(reps)} narrow classes, "
            f"{len(posdef)} positive definite"
        )
    else:
        rep.lines.append(f"discriminant {D}: {len(reps)} narrow classes")
    for i, Q in enumerate(reps):
        tag = "  positive definite" if D < 0 and Q.a > 0 else ""
        rep.lines.append(f"  [{i}] {_form_str(Q)}{tag}")
    rep.lines.append(f"identity: index {table.identity_index()}")
    rep.artifacts.append(
        {
            "class_count": _emit_int(len(reps)),
            "posdef_count": _emit_int(len(posdef)) if D < 0 else None,
            "identity_index": _emit_int(table.identity_index()),
            "representatives": encode_envelope("bqf", D, reps),
            "table": [[_emit_int(v) for v in row] for row in table.table],
        }
    )
    return rep


# space -> (object type, class composition, discriminant)
_COMPOSE = {
    "bqf": (BQF, compose_dirichlet, BQF.disc),
    "cube": (Cube, cube_class_compose, cube_disc),
    "cubic": (BinaryCubic, cubic_class_compose, cubic_disc),
    "pair": (PairBQF, pair_class_compose, pair_disc),
}


def cmd_compose(args) -> Report:
    rep = Report("compose")
    env = _read_envelope(args.infile)
    if env.space not in _COMPOSE:
        raise InputError(
            f"composition is not implemented in the {env.space!r} space; "
            "compose in the cube space instead"
        )
    kind, compose, disc = _COMPOSE[env.space]
    objs = env.objects
    if len(objs) < 2 or not all(isinstance(o, kind) for o in objs):
        raise InputError(f"composition needs at least two {env.space} objects")
    _check_disc(env, map(disc, objs))
    product = encode_envelope(
        env.space, env.discriminant, [reduce(compose, objs)], ["product"]
    )
    obj = product["objects"][0]
    # the wire's decimal strings, unquoted: [1, 1, 12], or [[...], [...]]
    coeffs = json.dumps(obj.get("coeffs") or obj["forms"]).replace('"', "")
    rep.lines.append(f"composed class: {coeffs}")
    rep.artifacts.append(product)
    return rep


def _verify_envelope(law: str, env: Envelope):
    """Run one composition-law verification; (VerifyResult, artifacts)."""
    if law == "gauss":
        ((A,),) = _split(env, ((Cube, 1, "cube"),))
        _check_disc(env, (cube_disc(A),))
        forms, data, res = lemmermeyer_identity(A)
        artifacts = [
            encode_envelope(
                "bqf",
                env.discriminant,
                list(forms),
                ["factor1", "factor2", "product"],
            )
        ]
        return res, artifacts
    if law == "cube":
        (cubes,) = _split(env, ((Cube, 6, "cubes"),))
        _check_disc(env, (cube_disc(cubes[0]),))
        return verify_cube_composition(*cubes), []
    if law == "cubic":
        (fgh, (R,)) = _split(
            env, ((BinaryCubic, 3, "cubics"), (Cube, 1, "witness cube"))
        )
        _check_disc(env, (cubic_disc(fgh[0]),))
        return verify_cubic_composition(fgh[0], fgh[1], fgh[2], R), []
    if law == "pair":
        (FGH, RS) = _split(
            env, ((PairBQF, 3, "form pairs"), (Cube, 2, "witness cubes"))
        )
        _check_disc(env, (pair_disc(FGH[0]),))
        return verify_pair_composition(*FGH, *RS), []
    if law == "quat":
        (cubes,) = _split(env, ((Cube, 6, "cubes"),))
        _check_disc(env, (cube_disc(cubes[0]),))
        return verify_quaternary_composition(*cubes), []
    raise InputError(f"unknown law {law!r}")


def cmd_verify(args) -> Report:
    rep = Report(f"verify {args.law}")
    if args.law == "senary":
        if args.discriminant is None:
            raise InputError("the senary law takes --discriminant")
        res = verify_senary_identity(_parse_int(args.discriminant))
    else:
        if args.infile is None:
            raise InputError("this law takes --in with an envelope file")
        res, rep.artifacts = _verify_envelope(
            args.law, _read_envelope(args.infile)
        )
    rep.verdict = res.ok
    rep.reasons = list(res.reasons)
    return rep


def cmd_dual(args) -> Report:
    rep = Report("dual")
    env = _read_envelope(args.infile)
    ((A, B, C),) = _split(env, ((Cube, 3, "cubes"),))
    _check_disc(env, (cube_disc(A), cube_disc(B), cube_disc(C)))
    witness = dual_cubes_solve(A, B, C)
    res = verify_cube_composition(A, B, C, *witness.cubes())
    rep.verdict = res.ok
    rep.reasons = list(res.reasons)
    for name, X in zip("RST", witness.cubes()):
        rep.lines.append(f"witness {name}: {list(X.coeffs)}")
    rep.artifacts.append(
        encode_envelope(
            "cube", env.discriminant, list(witness.cubes()), ["R", "S", "T"]
        )
    )
    return rep


def _fixture_text(name: str) -> str:
    return (
        resources.files("cubecomp").joinpath("fixtures").joinpath(name)
        .read_text(encoding="utf-8")
    )


def cmd_examples(args) -> Report:
    rep = Report("examples")
    passed = 0
    for name in FIXTURES:
        env = parse_envelope(_fixture_text(name))
        # each fixture's space names the law it exercises
        res, _ = _verify_envelope(env.space, env)
        rep.lines.append(f"{name}: {'PASS' if res.ok else 'FAIL'}")
        rep.artifacts.append(
            {"fixture": name, "verdict": "verified" if res.ok else "failed"}
        )
        if res.ok:
            passed += 1
        else:
            rep.reasons.extend(f"{name}: {r}" for r in res.reasons)
    rep.lines.append(f"{passed}/{len(FIXTURES)} worked examples verified")
    rep.verdict = passed == len(FIXTURES)
    return rep


# -- wiring ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input (exit 2); --help still exits 0."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="cubecomp",
        description="exact composition laws for forms, cubes and their relatives",
    )
    sub = p.add_subparsers(dest="command", required=True)

    cg = sub.add_parser(
        "classgroup", help="list the narrow class group at a discriminant"
    )
    # discriminants parse by the envelopes' rule, in the command body, so
    # that a bad one is one error line and exit 2
    cg.add_argument("--discriminant", required=True)
    cg.add_argument("--json", action="store_true")
    cg.set_defaults(func=cmd_classgroup)

    co = sub.add_parser(
        "compose", help="compose classes from an envelope of objects"
    )
    co.add_argument("--in", dest="infile", required=True, metavar="FILE")
    co.add_argument("--json", action="store_true")
    co.set_defaults(func=cmd_compose)

    ve = sub.add_parser("verify", help="check a composition identity exactly")
    ve.add_argument(
        "--law",
        required=True,
        choices=("gauss", "cube", "cubic", "pair", "quat", "senary"),
    )
    ve.add_argument("--in", dest="infile", metavar="FILE")
    ve.add_argument("--discriminant")
    ve.add_argument("--json", action="store_true")
    ve.set_defaults(func=cmd_verify)

    du = sub.add_parser(
        "dual", help="solve for witness cubes dual to three composable cubes"
    )
    du.add_argument("--in", dest="infile", required=True, metavar="FILE")
    du.add_argument("--json", action="store_true")
    du.set_defaults(func=cmd_dual)

    ex = sub.add_parser(
        "examples", help="replay the bundled worked examples"
    )
    ex.add_argument("--json", action="store_true")
    ex.set_defaults(func=cmd_examples)

    return p


def main(argv=None) -> int:
    # integers of any size parse and print; interpreters with an int/str
    # digit limit (3.10.7+, 3.11+) get it lifted for this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        t0 = time.perf_counter()
        rep = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        # a crash is a bug in cubecomp: one line and exit 4, never the
        # traceback and exit 1 of a false verdict
        msg = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 4
    rep.elapsed = time.perf_counter() - t0
    try:
        if args.json:
            print(json.dumps(rep.to_json(), indent=2))
        else:
            rep.print_human(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head`), which changes no verdict; the
        # rest of the report goes to devnull so the exit flush stays quiet
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    return rep.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
