import json

import pytest

from cubecomp.altforms import QuatAltPair, SenaryAlt3
from cubecomp.bqf import BQF
from cubecomp.cubes import Cube
from cubecomp.exact import InputError
from cubecomp.symspaces import BinaryCubic, PairBQF
from cubecomp.wire import (
    dumps_envelope,
    encode_envelope,
    encode_object,
    parse_envelope,
    parse_object,
)

SAMPLES = (
    BQF(2, 1, 6),
    Cube((0, -1, -2, -1, -1, 0, 0, 6)),
    BinaryCubic(1, 1, 2, 2),
    PairBQF(BQF(0, 80, -63), BQF(1, -30, 23)),
    QuatAltPair(
        ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0)),
        ((0, 0, 0, 2), (0, 0, -2, 0), (0, 2, 0, 0), (-2, 0, 0, 0)),
    ),
    SenaryAlt3(tuple(range(-10, 10))),
)


def test_round_trip_every_kind():
    for obj in SAMPLES:
        assert parse_object(encode_object(obj)) == obj


def test_integers_emitted_as_strings():
    d = encode_object(BQF(10**40, -3, 1))
    assert d["coeffs"][0] == str(10**40)
    assert all(isinstance(c, str) for c in d["coeffs"])
    assert parse_object(d) == BQF(10**40, -3, 1)


def test_plain_ints_accepted_on_input():
    assert parse_object({"kind": "bqf", "coeffs": [2, 1, 6]}) == BQF(2, 1, 6)
    assert parse_object({"kind": "bqf", "coeffs": ["2", 1, "6"]}) == BQF(2, 1, 6)


def test_booleans_rejected():
    with pytest.raises(InputError):
        parse_object({"kind": "bqf", "coeffs": [True, 1, 6]})


def test_non_integer_strings_rejected():
    for bad in ("2.5", "1e3", "", "seven", "--2"):
        with pytest.raises(InputError):
            parse_object({"kind": "bqf", "coeffs": [bad, 1, 6]})


def test_wrong_arity_rejected():
    with pytest.raises(InputError):
        parse_object({"kind": "cube", "coeffs": [1, 2, 3]})
    with pytest.raises(InputError):
        parse_object({"kind": "senary", "coeffs": [0] * 19})
    with pytest.raises(InputError):
        parse_object({"kind": "pair", "forms": [[1, 2, 3]]})


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        parse_object({"kind": "octonion", "coeffs": [1]})
    with pytest.raises(InputError):
        parse_object(["not", "a", "dict"])


def test_envelope_round_trip_with_roles():
    objs = [Cube((0, 1, 1, 1, 1, 1, 1, 12)), BQF(1, 1, 12)]
    env = parse_envelope(
        dumps_envelope("cube", -47, objs, roles=["A", "Q"])
    )
    assert env.space == "cube"
    assert env.discriminant == -47
    assert env.objects == objs
    assert env.entries == [("A", objs[0]), ("Q", objs[1])]


def test_envelope_accepts_plain_int_discriminant():
    env = parse_envelope(
        {"space": "bqf", "discriminant": -47, "objects": []}
    )
    assert env.discriminant == -47


def test_envelope_rejects_malformed():
    with pytest.raises(InputError):
        parse_envelope("{not json")
    with pytest.raises(InputError):
        parse_envelope('["array"]')
    with pytest.raises(InputError):
        parse_envelope({"space": "widget", "discriminant": "0", "objects": []})
    with pytest.raises(InputError):
        parse_envelope({"space": "bqf", "objects": []})
    with pytest.raises(InputError):
        parse_envelope({"space": "bqf", "discriminant": "-47", "objects": "no"})


def test_unknown_space_rejected_on_encode():
    with pytest.raises(InputError):
        encode_envelope("widget", -47, [])


def test_dumps_is_valid_json():
    text = dumps_envelope("bqf", 8, [BQF(1, 0, -2)])
    data = json.loads(text)
    assert data["space"] == "bqf"
    assert data["discriminant"] == "8"
    assert data["objects"][0]["coeffs"] == ["1", "0", "-2"]
