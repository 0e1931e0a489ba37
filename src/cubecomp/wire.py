"""JSON wire format for the objects the command line moves around.

One envelope shape serves files, fixtures and reports: {"space": ...,
"discriminant": ..., "objects": [...]}.  Integers are emitted as decimal
strings so coefficients of any size survive every JSON reader; plain
integers are accepted on input.  parse(emit(x)) is the identity on each
supported object type.
"""

from __future__ import annotations

import json

from .altforms import QuatAltPair, SenaryAlt3
from .bqf import BQF
from .cubes import Cube
from .exact import InputError
from .symspaces import BinaryCubic, PairBQF

SPACES = ("bqf", "cube", "cubic", "pair", "quat", "senary")


def _emit_int(n: int) -> str:
    return str(int(n))


def _parse_int(v) -> int:
    if isinstance(v, bool):
        raise InputError("booleans are not integers here")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        s = v.strip()
        digits = s[1:] if s.startswith("-") else s
        # str.isdigit also admits digits int() rejects, such as "²"
        if digits.isascii() and digits.isdigit():
            return int(s)
    raise InputError(f"not an integer: {v!r}")


def _parse_int_list(v, count=None):
    if not isinstance(v, (list, tuple)):
        raise InputError("expected a list of integers")
    out = [_parse_int(x) for x in v]
    if count is not None and len(out) != count:
        raise InputError(f"expected {count} integers, got {len(out)}")
    return out


def encode_object(obj, role: str | None = None) -> dict:
    if isinstance(obj, BQF):
        d = {"kind": "bqf", "coeffs": [_emit_int(c) for c in obj.coeffs()]}
    elif isinstance(obj, Cube):
        d = {"kind": "cube", "coeffs": [_emit_int(c) for c in obj.coeffs]}
    elif isinstance(obj, BinaryCubic):
        d = {"kind": "cubic", "coeffs": [_emit_int(c) for c in obj.coeffs]}
    elif isinstance(obj, PairBQF):
        d = {
            "kind": "pair",
            "forms": [
                [_emit_int(c) for c in obj.f1.coeffs()],
                [_emit_int(c) for c in obj.f2.coeffs()],
            ],
        }
    elif isinstance(obj, QuatAltPair):
        d = {
            "kind": "quat_pair",
            "matrices": [
                [[_emit_int(c) for c in row] for row in obj.f1],
                [[_emit_int(c) for c in row] for row in obj.f2],
            ],
        }
    elif isinstance(obj, SenaryAlt3):
        d = {"kind": "senary", "coeffs": [_emit_int(c) for c in obj.coeffs]}
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
    if role is not None:
        d["role"] = str(role)
    return d


def parse_object(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise InputError("object entries need a 'kind' field")
    kind = d["kind"]
    if kind == "bqf":
        return BQF(*_parse_int_list(d.get("coeffs"), 3))
    if kind == "cube":
        return Cube(_parse_int_list(d.get("coeffs"), 8))
    if kind == "cubic":
        return BinaryCubic(*_parse_int_list(d.get("coeffs"), 4))
    if kind == "pair":
        forms = d.get("forms")
        if not isinstance(forms, list) or len(forms) != 2:
            raise InputError("a pair carries exactly two forms")
        return PairBQF(
            BQF(*_parse_int_list(forms[0], 3)),
            BQF(*_parse_int_list(forms[1], 3)),
        )
    if kind == "quat_pair":
        mats = d.get("matrices")
        if not isinstance(mats, list) or len(mats) != 2:
            raise InputError("a quaternary pair carries exactly two matrices")
        parsed = []
        for m in mats:
            if not isinstance(m, list) or len(m) != 4:
                raise InputError("expected a 4x4 matrix")
            parsed.append(tuple(tuple(_parse_int_list(row, 4)) for row in m))
        return QuatAltPair(*parsed)
    if kind == "senary":
        return SenaryAlt3(_parse_int_list(d.get("coeffs"), 20))
    raise InputError(f"unknown object kind {kind!r}")


class Envelope:
    """Parsed wire envelope: a space label, a discriminant, and a list of
    (role, object) entries in file order."""

    __slots__ = ("space", "discriminant", "entries")

    def __init__(self, space, discriminant, entries):
        self.space = space
        self.discriminant = discriminant
        self.entries = list(entries)

    @property
    def objects(self):
        return [obj for _, obj in self.entries]


def encode_envelope(space: str, discriminant: int, objects, roles=None) -> dict:
    if space not in SPACES:
        raise InputError(f"unknown space {space!r}")
    if roles is None:
        roles = [None] * len(objects)
    return {
        "space": space,
        "discriminant": _emit_int(discriminant),
        "objects": [
            encode_object(obj, role) for obj, role in zip(objects, roles)
        ],
    }


def parse_envelope(data) -> Envelope:
    if isinstance(data, (str, bytes)):
        # bytes in no Unicode encoding raise ValueError, deep nesting
        # RecursionError
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("envelope must be a JSON object")
    space = data.get("space")
    if space not in SPACES:
        raise InputError(f"unknown or missing space {space!r}")
    if "discriminant" not in data:
        raise InputError("envelope needs a discriminant")
    disc = _parse_int(data["discriminant"])
    raw = data.get("objects")
    if not isinstance(raw, list):
        raise InputError("envelope needs an object list")
    entries = []
    for d in raw:
        obj = parse_object(d)
        role = d.get("role") if isinstance(d, dict) else None
        entries.append((role, obj))
    return Envelope(space, disc, entries)


def dumps_envelope(space, discriminant, objects, roles=None) -> str:
    return json.dumps(
        encode_envelope(space, discriminant, objects, roles), indent=2
    )
