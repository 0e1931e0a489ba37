"""Property test of the CLI contract: whatever the envelope or argument
list, ``cli.main`` returns an exit code from 0 to 4, prints no traceback, and
writes at most one line to stderr, none at all unless the exit code is 2, 3
or 4.

Inputs are the worked envelopes of every subcommand that reads one, the same
envelopes with a few mutations, raw bytes, and the worked argument lists with
one token dropped or replaced.
"""

import contextlib
import copy
import io
import json
from importlib import resources

from hypothesis import HealthCheck, given, settings, strategies as st

from cubecomp.bqf import BQF
from cubecomp.cli import main
from cubecomp.cubes import identity_cube
from cubecomp.symspaces import BinaryCubic, cubic_identity, pair_identity
from cubecomp.wire import encode_envelope
from tests.worked_examples import (
    CUBE_A,
    CUBE_B,
    CUBE_C,
    CUBIC_F,
    CUBIC_G,
    CUBIC_H,
    CUBIC_R,
    PAIR_F,
    PAIR_G,
    SENARY_DISCS,
)


def _fixture(name):
    text = resources.files("cubecomp").joinpath("fixtures", name).read_text()
    return json.loads(text)


# (argv before --in, envelope) for every worked input
WORKED = (
    (["dual"], encode_envelope("cube", -47, [CUBE_A, CUBE_B, CUBE_C])),
    (["compose"], encode_envelope("cube", -47, [CUBE_A, CUBE_B])),
    (["compose"], encode_envelope("bqf", -47, [BQF(2, 1, 6), BQF(2, -1, 6)])),
    (
        ["compose"],
        encode_envelope(
            "cubic", -23, [cubic_identity(-23), BinaryCubic(-3, -2, 0, 1)]
        ),
    ),
    (["compose"], encode_envelope("pair", -31, [PAIR_F, PAIR_G])),
    # D > 0
    (["compose"], encode_envelope("cubic", 8, [CUBIC_F, CUBIC_G, CUBIC_H])),
    (["compose"], encode_envelope("cube", 8, [CUBIC_R, identity_cube(8)])),
    (["compose"], encode_envelope("pair", 8, [pair_identity(8)] * 2)),
    (["verify", "--law", "gauss"], encode_envelope("cube", -47, [CUBE_A])),
    (["verify", "--law", "cube"], _fixture("cube_disc_m47.json")),
    (["verify", "--law", "cubic"], _fixture("cubic_disc_8.json")),
    (["verify", "--law", "pair"], _fixture("pair_disc_m31.json")),
    (["verify", "--law", "quat"], _fixture("quat_disc_m47.json")),
)
# quat_pair and senary are kinds no envelope may carry
KINDS = ("bqf", "cube", "cubic", "pair", "quat_pair", "senary")


def _int_leaves(node, path=()):
    """Paths to every integer string inside a JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _int_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _int_leaves(value, path + (i,))
    elif isinstance(node, str) and node.lstrip("-").isdigit():
        yield path


@st.composite
def _mutated(draw):
    argv, env = draw(st.sampled_from(WORKED))
    env = copy.deepcopy(env)
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(
            ("coeff", "drop", "duplicate", "kind", "space", "discriminant")
        ))
        objs = env["objects"]
        if op == "coeff" and objs:
            obj = draw(st.sampled_from(objs))
            *parent, last = draw(st.sampled_from(list(_int_leaves(obj))))
            for key in parent:
                obj = obj[key]
            obj[last] = str(int(obj[last]) + draw(st.sampled_from((-1, 1))))
        elif op == "drop" and objs:
            objs.pop(draw(st.integers(0, len(objs) - 1)))
        elif op == "duplicate" and objs:
            objs.append(copy.deepcopy(draw(st.sampled_from(objs))))
        elif op == "kind" and objs:
            draw(st.sampled_from(objs))["kind"] = draw(st.sampled_from(KINDS))
        elif op == "space":
            env["space"] = draw(st.sampled_from(KINDS[:4] + ("quat", "nope")))
        elif op == "discriminant":
            D = int(env["discriminant"]) + draw(st.sampled_from((-4, -1, 1, 4)))
            env["discriminant"] = str(D)
    return argv, json.dumps(env).encode()


_senary = st.builds(
    lambda D, shift: (
        ["verify", "--law", "senary", "--discriminant", str(D + shift)], None
    ),
    st.sampled_from(SENARY_DISCS),
    st.sampled_from((-4, -1, 0, 1, 4)),
)

@st.composite
def _usage(draw):
    argv, _ = draw(st.sampled_from(WORKED))
    argv = list(argv)
    i = draw(st.integers(0, len(argv) - 1))
    if draw(st.booleans()):
        del argv[i]
    else:
        argv[i] = draw(st.sampled_from(("nope", "--nope", "--json")))
    return argv, None


_raw = st.tuples(
    st.sampled_from([argv for argv, _ in WORKED]), st.binary(max_size=64)
)


@settings(
    max_examples=200, deadline=None, database=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(_mutated(), _senary, _usage(), _raw), st.booleans())
def test_cli_exit_contract(tmp_path_factory, case, as_json):
    argv, data = case
    if data is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_bytes(data)
        argv = argv + ["--in", str(path)]
    if as_json:
        argv = argv + ["--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in out + err
    if code in (0, 1):
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""
