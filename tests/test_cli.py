import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from importlib import resources

import pytest

from cubecomp.bqf import BQF, compose_dirichlet, reduce
from cubecomp.cli import main
from cubecomp.cubes import Cube, assoc_form, identity_cube
from cubecomp.symspaces import (
    BinaryCubic,
    cubic_identity,
    cubic_q,
    pair_embed,
    pair_identity,
)
from cubecomp.wire import dumps_envelope, parse_envelope
from tests.test_cubes import _corrupt_alpha1
from tests.worked_examples import (
    CUBE_A,
    CUBE_B,
    CUBE_C,
    CUBIC_F,
    CUBIC_G,
    CUBIC_H,
    PAIR_F,
    PAIR_G,
)


def _fixture_path(name):
    return str(resources.files("cubecomp").joinpath("fixtures").joinpath(name))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----- classgroup ---------------------------------------------------------


def test_classgroup_disc_m47(capsys):
    code, out, err = _run(capsys, ["classgroup", "--discriminant", "-47"])
    assert code == 0
    assert "10 narrow classes, 5 positive definite" in out
    assert out.count("  positive definite") == 5
    assert "[1, 1, 12]" in out


def test_classgroup_disc_m4(capsys):
    code, out, err = _run(capsys, ["classgroup", "--discriminant", "-4"])
    assert code == 0
    assert "[1, 0, 1]" in out
    assert "1 positive definite" in out


def test_classgroup_rejects_disc_3_mod_4(capsys):
    code, out, err = _run(capsys, ["classgroup", "--discriminant", "7"])
    assert code == 2
    assert "error:" in err


def test_classgroup_rejects_square_disc(capsys):
    code, out, err = _run(capsys, ["classgroup", "--discriminant", "16"])
    assert code == 3


def test_classgroup_json_artifact(capsys):
    code, out, err = _run(
        capsys, ["classgroup", "--discriminant", "-23", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    art = data["artifacts"][0]
    assert art["class_count"] == "6"
    assert art["posdef_count"] == "3"
    reps = art["representatives"]["objects"]
    assert len(reps) == 6
    assert len(art["table"]) == 6


# ----- compose ------------------------------------------------------------


def test_compose_bqf(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("bqf", -47, [BQF(2, 1, 6), BQF(2, -1, 6)]))
    code, out, err = _run(capsys, ["compose", "--in", str(p)])
    assert code == 0
    assert "[1, 1, 12]" in out


def test_compose_cube(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("cube", -47, [CUBE_A, CUBE_B]))
    code, out, err = _run(capsys, ["compose", "--in", str(p), "--json"])
    assert code == 0
    data = json.loads(out)
    art = data["artifacts"][0]
    assert art["objects"][0]["coeffs"] == ["0", "1", "4", "1", "1", "1", "4", "-2"]
    assert art["objects"][0]["role"] == "product"


def _compose_product(tmp_path, capsys, space, D, objects):
    """The one object of a successful compose run's product envelope."""
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope(space, D, objects))
    code, out, err = _run(capsys, ["compose", "--in", str(p), "--json"])
    assert (code, err) == (0, "")
    (art,) = json.loads(out)["artifacts"]
    product = parse_envelope(art)
    assert (product.space, product.discriminant) == (space, D)
    assert [role for role, _ in product.entries] == ["product"]
    return product.objects[0]


def test_compose_cubic_disc_m23(tmp_path, capsys):
    f = BinaryCubic(-3, -2, 0, 1)
    k = _compose_product(
        tmp_path, capsys, "cubic", -23, [cubic_identity(-23), f]
    )
    assert reduce(cubic_q(k)).canonical == reduce(cubic_q(f)).canonical


def test_compose_cubic_disc_8(tmp_path, capsys):
    # the three cubics of the worked D = 8 composition, folded left
    fs = [CUBIC_F, CUBIC_G, CUBIC_H]
    k = _compose_product(tmp_path, capsys, "cubic", 8, fs)
    Qf, Qg, Qh = map(cubic_q, fs)
    expected = compose_dirichlet(compose_dirichlet(Qf, Qg), Qh)
    assert reduce(cubic_q(k)).canonical == expected


def test_compose_pair_space(tmp_path, capsys):
    G = _compose_product(tmp_path, capsys, "pair", -31, [PAIR_F, PAIR_G])
    A, B, C = pair_embed(PAIR_F), pair_embed(PAIR_G), pair_embed(G)
    for i in (1, 2, 3):
        expected = compose_dirichlet(assoc_form(A, i), assoc_form(B, i))
        assert reduce(assoc_form(C, i)).canonical == expected


def test_compose_pair_human_line(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("pair", -31, [PAIR_F, pair_identity(-31)]))
    code, out, err = _run(capsys, ["compose", "--in", str(p)])
    assert code == 0
    assert out.startswith("composed class: [[") and "]]\n" in out


def test_compose_quat_space_is_one_line_exit_2(capsys):
    code, out, err = _run(
        capsys, ["compose", "--in", _fixture_path("quat_disc_m47.json")]
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cube space" in err


def test_compose_square_disc_exits_3(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("cubic", 4, [cubic_identity(4)] * 2))
    code, out, err = _run(capsys, ["compose", "--in", str(p)])
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


def test_corrupted_cubic_composition_exits_4(tmp_path, capsys, monkeypatch):
    # twice delta unbalances the triple cubic_class_compose builds: the
    # library's fault, so exit 4 and not 2
    import cubecomp.symspaces

    real = cubecomp.symspaces._cubic_ideal_data

    def doubled_delta(f):
        ring, ideal, delta = real(f)
        return ring, ideal, 2 * delta

    monkeypatch.setattr(cubecomp.symspaces, "_cubic_ideal_data", doubled_delta)
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("cubic", -23, [cubic_identity(-23)] * 2))
    code, out, err = _run(capsys, ["compose", "--in", str(p)])
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "norms multiply to 1/16" in err


def test_compose_rejects_disc_mismatch(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("bqf", -47, [BQF(1, 1, 6), BQF(1, 1, 6)]))
    code, out, err = _run(capsys, ["compose", "--in", str(p)])
    assert code == 2


def test_compose_rejects_non_ascii_digits(tmp_path, capsys):
    # "²".isdigit() is true, but int() rejects it
    env = json.loads(dumps_envelope("bqf", -47, [BQF(2, 1, 6), BQF(2, -1, 6)]))
    env["discriminant"] = "\u00b2"
    p = tmp_path / "in.json"
    p.write_text(json.dumps(env))
    code, out, err = _run(capsys, ["compose", "--in", str(p)])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_compose_needs_two_forms(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("bqf", -47, [BQF(1, 1, 12)]))
    code, out, err = _run(capsys, ["compose", "--in", str(p)])
    assert code == 2


# ----- verify -------------------------------------------------------------


@pytest.mark.parametrize(
    "law,fixture",
    [
        ("cube", "cube_disc_m47.json"),
        ("cubic", "cubic_disc_8.json"),
        ("pair", "pair_disc_m31.json"),
        ("quat", "quat_disc_m47.json"),
    ],
)
def test_verify_bundled_fixture(law, fixture, capsys):
    code, out, err = _run(
        capsys, ["verify", "--law", law, "--in", _fixture_path(fixture)]
    )
    assert code == 0
    assert "verified" in out


def test_verify_gauss_single_cube(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("cube", -47, [CUBE_A]))
    code, out, err = _run(capsys, ["verify", "--law", "gauss", "--in", str(p)])
    assert code == 0


def test_verify_perturbed_witness_reports_tuple(tmp_path, capsys):
    env = parse_envelope(open(_fixture_path("cube_disc_m47.json")).read())
    objs = env.objects
    co = list(objs[3].coeffs)
    co[0] += 1
    objs[3] = type(objs[3])(tuple(co))
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("cube", -47, objs))
    code, out, err = _run(
        capsys, ["verify", "--law", "cube", "--in", str(p), "--json"]
    )
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "failed"
    assert any("basis tuple" in r for r in data["reasons"])


@pytest.mark.parametrize(
    "law,fixture,witness",
    [
        ("cubic", "cubic_disc_8.json", 3),
        ("pair", "pair_disc_m31.json", 4),
        ("quat", "quat_disc_m47.json", 5),
    ],
)
def test_verify_perturbed_witness_names_the_failure(
    law, fixture, witness, tmp_path, capsys
):
    env = parse_envelope(open(_fixture_path(fixture)).read())
    objs = env.objects
    co = list(objs[witness].coeffs)
    co[7] += 1
    objs[witness] = type(objs[witness])(tuple(co))
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope(env.space, env.discriminant, objs))
    code, out, err = _run(
        capsys, ["verify", "--law", law, "--in", str(p), "--json"]
    )
    assert code == 1
    reasons = json.loads(out)["reasons"]
    assert any(r.startswith("disc(") for r in reasons)
    assert any(r.startswith("identity fails at ") for r in reasons)


def test_verify_gauss_names_the_failure(tmp_path, capsys, monkeypatch):
    # every cube carries a true Gauss instance, so the bilinear data is
    # perturbed on its way from the cube to the verifier
    import cubecomp.cubes

    real = cubecomp.cubes.GaussBilinearData

    def perturbed(amat, bmat):
        (a, b), row = amat
        return real(((a + 1, b), row), bmat)

    monkeypatch.setattr(cubecomp.cubes, "GaussBilinearData", perturbed)
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("cube", -47, [CUBE_A]))
    code, out, err = _run(
        capsys, ["verify", "--law", "gauss", "--in", str(p), "--json"]
    )
    assert code == 1
    reasons = json.loads(out)["reasons"]
    assert any(r.startswith("normalization fails") for r in reasons)
    assert any(r.startswith("identity fails at (x, y)=") for r in reasons)


def test_verify_senary(capsys):
    code, out, err = _run(
        capsys, ["verify", "--law", "senary", "--discriminant", "-47"]
    )
    assert code == 0


def test_verify_senary_needs_discriminant(capsys):
    code, out, err = _run(capsys, ["verify", "--law", "senary"])
    assert code == 2


def test_verify_needs_infile(capsys):
    code, out, err = _run(capsys, ["verify", "--law", "cube"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["verify", "--law", "nope"],
        ["dual"],
        ["classgroup", "--discriminant", "-47", "--bogus"],
    ],
)
def test_usage_errors_are_one_line(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["dual", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: cubecomp")
    assert captured.err == ""


def test_quat_pair_object_is_an_unknown_kind(tmp_path, capsys):
    p = tmp_path / "in.json"
    matrix = [["0"] * 4] * 4
    p.write_text(json.dumps({
        "space": "quat",
        "discriminant": "-47",
        "objects": [{"kind": "quat_pair", "matrices": [matrix, matrix]}],
    }))
    code, out, err = _run(capsys, ["verify", "--law", "quat", "--in", str(p)])
    assert code == 2
    assert out == ""
    assert err == "error: unknown object kind 'quat_pair'\n"


def test_verify_rejects_malformed_json(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text("{oops")
    code, out, err = _run(capsys, ["verify", "--law", "cube", "--in", str(p)])
    assert code == 2


def test_verify_missing_file(capsys):
    code, out, err = _run(
        capsys, ["verify", "--law", "cube", "--in", "/nonexistent/x.json"]
    )
    assert code == 2


def test_verify_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(dumps_envelope("cube", -47, [CUBE_A]))
    )
    code, out, err = _run(capsys, ["verify", "--law", "gauss", "--in", "-"])
    assert code == 0


# ----- dual ---------------------------------------------------------------


def test_dual_worked_triple(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("cube", -47, [CUBE_A, CUBE_B, CUBE_C]))
    code, out, err = _run(capsys, ["dual", "--in", str(p)])
    assert code == 0
    assert "witness R:" in out and "witness T:" in out
    assert "verified" in out


def test_internal_check_failure_exits_4(tmp_path, capsys, monkeypatch):
    # a broken L_1 makes the companion disagree across slots, which the
    # library checks on every call, python -O or not
    import cubecomp.cubes

    real = cubecomp.cubes.companion_L

    def broken(A):
        ((a, b), row), L2, L3 = real(A)
        return ((a + 1, b), row), L2, L3

    monkeypatch.setattr(cubecomp.cubes, "companion_L", broken)
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("cube", -47, [CUBE_A, CUBE_B, CUBE_C]))
    code, out, err = _run(capsys, ["dual", "--in", str(p)])
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "companion construction disagrees" in err


def test_corrupted_triple_corner_exits_4(tmp_path, capsys, monkeypatch):
    # alpha_1 + 1 unbalances the triple cube_to_triple builds; that is the
    # library's fault, not the input's, so exit 4 and not 2
    _corrupt_alpha1(monkeypatch, lambda ring: 1)
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("cube", -47, [CUBE_A, CUBE_B, CUBE_C]))
    code, out, err = _run(capsys, ["dual", "--in", str(p)])
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "norms multiply to 1/2" in err


# a D = 12 triple outside the principal narrow class (h+(12) = 2)
CUBES_12 = (
    Cube((-2, -1, 0, 3, -1, -1, 1, 2)),
    Cube((0, 1, 1, 0, 1, 0, 0, 3)),
    Cube((0, 1, -2, 1, -1, 1, -1, 2)),
)


def test_dual_at_positive_disc(tmp_path, capsys):
    p = tmp_path / "in.json"
    A = identity_cube(8)
    for D, cubes in ((8, [A, A, A]), (12, CUBES_12)):
        p.write_text(dumps_envelope("cube", D, cubes))
        code, out, err = _run(capsys, ["dual", "--in", str(p)])
        assert code == 0, err
        assert "witness T:" in out and "verified" in out
    p.write_text(dumps_envelope("cube", 12, [CUBES_12[0]] * 3))
    code, out, err = _run(capsys, ["dual", "--in", str(p)])
    assert code == 2
    assert "not composable" in err


# D = 8,452,304,329, whose principal cycle has 159,164 reduced forms: a
# transform kept per form needs gigabytes, and one walk stops early
CUBES_LONG_CYCLE = (
    Cube((0, 7, 1, 4, 1, -3, 0, 301868010)),
    Cube((0, 1, 7, -3, 1, 0, 4, 301868010)),
    Cube((0, 1, 1, 0, 7, 4, -3, 301868010)),
)


def test_dual_on_a_long_principal_cycle(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("cube", 8452304329, CUBES_LONG_CYCLE))
    code, out, err = _run(capsys, ["dual", "--in", str(p)])
    assert code == 0, err
    assert "witness T:" in out and "dual: verified" in out


def test_dual_square_disc_exits_3(tmp_path, capsys):
    p = tmp_path / "in.json"
    for D in (0, 4):
        A = identity_cube(D)
        p.write_text(dumps_envelope("cube", D, [A, A, A]))
        code, out, err = _run(capsys, ["dual", "--in", str(p)])
        assert code == 3
        assert out == "" and err.count("\n") == 1


def test_dual_rejects_noncomposable_classes(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(dumps_envelope("cube", -47, [CUBE_A, CUBE_A, CUBE_A]))
    code, out, err = _run(capsys, ["dual", "--in", str(p)])
    assert code == 2
    assert "not composable" in err


# ----- examples and output modes ------------------------------------------


def test_examples_all_pass(capsys):
    code, out, err = _run(capsys, ["examples"])
    assert code == 0
    assert "4/4 worked examples verified" in out
    assert out.count("PASS") == 4


def test_examples_json(capsys):
    code, out, err = _run(capsys, ["examples", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "verified"
    assert len(data["artifacts"]) == 4
    assert all(a["verdict"] == "verified" for a in data["artifacts"])


def test_json_report_shape(capsys):
    code, out, err = _run(
        capsys,
        ["verify", "--law", "cube", "--in", _fixture_path("cube_disc_m47.json"),
         "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "command", "verdict", "reasons", "artifacts", "elapsed_seconds",
    }
    assert data["command"] == "verify cube"
    assert data["verdict"] == "verified"
    assert data["reasons"] == []
    float(data["elapsed_seconds"])


def test_output_is_deterministic(capsys):
    def one_run():
        code, out, err = _run(
            capsys, ["classgroup", "--discriminant", "-47", "--json"]
        )
        assert code == 0
        data = json.loads(out)
        data.pop("elapsed_seconds")
        return data

    assert one_run() == one_run()


@pytest.mark.parametrize("as_json", [True, False])
def test_compose_beyond_the_int_str_digit_limit(tmp_path, capsys, as_json):
    # [1, 1, 10^4400] has D = 1 - 4*10^4400 = -(3 followed by 4,400 nines),
    # past CPython's default limit of 4,300 digits; the text is built by
    # hand because this process keeps its limit
    c = "1" + "0" * 4400
    form = {"kind": "bqf", "coeffs": ["1", "1", c]}
    env = {"space": "bqf", "discriminant": "-3" + "9" * 4400,
           "objects": [form, form]}
    p = tmp_path / "in.json"
    p.write_text(json.dumps(env))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    argv = ["compose", "--in", str(p)] + (["--json"] if as_json else [])
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert err == ""
    if as_json:
        product = json.loads(out)["artifacts"][0]["objects"][0]["coeffs"]
        assert product == ["1", "1", c]
    else:
        assert f"composed class: [1, 1, {c}]" in out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# ----- hostile input and crashes -----------------------------------------

HOSTILE = {"utf16_bom": b"\xff\xfe{}", "deep_nesting": b"[" * 100_000}


@pytest.mark.parametrize("kind", sorted(HOSTILE))
@pytest.mark.parametrize("from_stdin", [False, True])
def test_undecodable_or_deeply_nested_envelope_exits_2(
    tmp_path, capsys, monkeypatch, kind, from_stdin
):
    data = HOSTILE[kind]
    if from_stdin:
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        path = "-"
    else:
        p = tmp_path / "in.json"
        p.write_bytes(data)
        path = str(p)
    code, out, err = _run(capsys, ["compose", "--in", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["classgroup", "--discriminant", "-٤٧"],
        ["classgroup", "--discriminant", "٤٧"],
        ["verify", "--law", "senary", "--discriminant", "-٤٧"],
    ],
)
def test_discriminant_arguments_take_ascii_digits_only(capsys, argv):
    # Arabic-Indic -47: int() accepts it, the envelopes' rule does not
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: not an integer") and err.count("\n") == 1


def test_crash_exits_4_with_one_line(capsys, monkeypatch):
    import cubecomp.cli

    def crash(args):
        raise ValueError("boom\non two lines")

    monkeypatch.setattr(cubecomp.cli, "cmd_classgroup", crash)
    code, out, err = _run(capsys, ["classgroup", "--discriminant", "-47"])
    assert code == 4
    assert out == ""
    assert err == "error: internal error: ValueError: boom on two lines\n"


def test_crash_exits_4_under_python_O():
    script = (
        "import sys\n"
        "import cubecomp.cli as cli\n"
        "def crash(args):\n"
        "    raise ValueError('boom')\n"
        "cli.cmd_classgroup = crash\n"
        "sys.exit(cli.main(['classgroup', '--discriminant', '-47']))\n"
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )
    assert res.returncode == 4
    assert res.stdout == ""
    assert res.stderr == "error: internal error: ValueError: boom\n"


def _subprocess_env():
    """The environment with this checkout's cubecomp first on PYTHONPATH."""
    import cubecomp

    src = str(pathlib.Path(cubecomp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def test_reader_closing_early_is_not_an_error():
    # about 760 kB of JSON, far more than a pipe buffers, so the writes
    # after the reader has gone fail with a broken pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "cubecomp.cli", "classgroup",
         "--discriminant", "-1000003", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(),
    )
    assert proc.stdout.read(100).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_interrupt_is_one_line_and_exit_130():
    # the class group at |D| about 1e11 runs far longer than the wait
    proc = subprocess.Popen(
        [sys.executable, "-m", "cubecomp.cli", "classgroup",
         "--discriminant", "-100000000003"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(),
    )
    try:
        time.sleep(1)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert out == b""
    assert err == b"error: interrupted\n"
