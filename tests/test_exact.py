import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import cubecomp
from cubecomp.altforms import QuatAltPair, SenaryAlt3
from cubecomp.bqf import BQF, ClassGroupTable, GaussBilinearData, ReduceResult
from cubecomp.bqf import sl2_act
from cubecomp.cubes import BalancedTriple, Cube, DualWitness, cube_to_triple
from cubecomp.cubes import gamma_act
from cubecomp.exact import (
    InputError,
    MultiForm,
    Poly,
    VerifyResult,
    _Value,
)
from cubecomp.qring import QuadraticRing
from cubecomp.symspaces import BinaryCubic, PairBQF

_ID = ((1, 0), (0, 1))
_ALT = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


def test_poly_binomial_cube():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    lhs = (x + y) ** 3
    rhs = x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
    assert lhs == rhs
    assert lhs - rhs == Poly.const(2, 0)


def test_poly_eval_matches_symbolic():
    rng = random.Random(3)
    x, y, z = Poly.variables(3)
    p = 2 * x * y - z**2 + 5 * x - 7
    for _ in range(40):
        a, b, c = (rng.randint(-30, 30) for _ in range(3))
        assert p.eval((a, b, c)) == 2 * a * b - c * c + 5 * a - 7


def test_poly_scalar_ops():
    x = Poly.var(1, 0)
    assert 3 * x == x + x + x
    assert (0 * x).is_zero()
    assert x - x == Poly.const(1, 0)
    with pytest.raises(InputError):
        x ** -1


def test_multiform_eval_is_multilinear():
    # trilinear form on (2, 2, 2): value at sums = sum of values slot-wise
    rng = random.Random(9)
    f = MultiForm((2, 2, 2), [rng.randint(-5, 5) for _ in range(8)])
    u1, u2 = (1, -2), (3, 1)
    v, w = (2, 5), (-1, 4)
    s = (u1[0] + u2[0], u1[1] + u2[1])
    assert f.eval((s, v, w)) == f.eval((u1, v, w)) + f.eval((u2, v, w))


def test_multiform_substitute_then_eval():
    f = MultiForm((2, 2), [1, 2, 3, 4])
    g = f.substitute(0, ((0, 1), (1, 0)))  # swap the first-slot basis
    for x in ((1, 0), (0, 1), (2, -3)):
        for y in ((1, 0), (5, 1)):
            assert g.eval((x, y)) == f.eval(((x[1], x[0]), y))


def test_multiform_tensor_shape_and_values():
    a = MultiForm((2,), [2, 3])
    b = MultiForm((2,), [5, 7])
    t = a.tensor(b)
    assert t.dims == (2, 2)
    assert t.eval(((1, 1), (1, 1))) == (2 + 3) * (5 + 7)


def test_multiform_shape_mismatch():
    with pytest.raises(InputError):
        MultiForm((2, 2), [1, 2, 3])
    with pytest.raises(InputError):
        MultiForm((2,), [1, 2]) + MultiForm((3,), [1, 2, 3])


def test_verify_result_truthiness():
    assert VerifyResult(True)
    res = VerifyResult(False, ["because"])
    assert not res
    assert res.reasons == ("because",)


def _quat_pair(k):
    f2 = ((0, 1 + k, 0, 0), (-1 - k, 0, 0, 0), (0,) * 4, (0,) * 4)
    return QuatAltPair(_ALT, f2)


# (class, instance with one coefficient moved by k, repr at k = 0)
_VALUES = [
    (BQF, lambda k: BQF(1, 2, 3 + k), "BQF(1, 2, 3)"),
    (
        ReduceResult,
        lambda k: ReduceResult(BQF(1, 1, 6), ((1, k), (0, 1))),
        "ReduceResult(BQF(1, 1, 6))",
    ),
    (
        GaussBilinearData,
        lambda k: GaussBilinearData(_ID, ((0, 1), (1, k))),
        "GaussBilinearData(((1, 0), (0, 1)), ((0, 1), (1, 0)))",
    ),
    (
        ClassGroupTable,
        lambda k: ClassGroupTable(-4, [BQF(1, 0, 1 + k)], [[0]], 0),
        "ClassGroupTable(D=-4, 1 classes)",
    ),
    (Cube, lambda k: Cube((k, 1, 2, 3, 4, 5, 6, 7)),
     "Cube(0, 1, 2, 3, 4, 5, 6, 7)"),
    (
        BalancedTriple,
        lambda k: cube_to_triple(Cube((0, 1, 1, 1, 1, 1, 1, k - 5))),
        "BalancedTriple(D=-23)",
    ),
    (
        DualWitness,
        lambda k: DualWitness(Cube([0] * 8), Cube([1] * 8), Cube([k] * 8)),
        "DualWitness(Cube(0, 0, 0, 0, 0, 0, 0, 0), Cube(1, 1, 1, 1, 1, 1, 1, 1),"
        " Cube(0, 0, 0, 0, 0, 0, 0, 0))",
    ),
    (BinaryCubic, lambda k: BinaryCubic(0, 1, 0, 2 + k),
     "BinaryCubic(0, 1, 0, 2)"),
    (
        PairBQF,
        lambda k: PairBQF(BQF(1, 0, 2), BQF(3, 2, 1 + k)),
        "PairBQF(BQF(1, 0, 2), BQF(3, 2, 1))",
    ),
    (
        QuatAltPair,
        _quat_pair,
        "QuatAltPair(((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)),"
        " ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))",
    ),
    (
        SenaryAlt3,
        lambda k: SenaryAlt3((k, *range(1, 20))),
        f"SenaryAlt3({tuple(range(20))})",
    ),
    (
        VerifyResult,
        lambda k: VerifyResult(False, [f"point {k}"]),
        "VerifyResult(failed: point 0)",
    ),
]


@pytest.mark.parametrize(
    "cls, make, text", _VALUES, ids=[cls.__name__ for cls, _, _ in _VALUES]
)
def test_value_classes_share_one_immutable_base(cls, make, text):
    x, y, moved = make(0), make(0), make(1)
    assert isinstance(x, _Value)
    for name in ("__setattr__", "__eq__", "__hash__"):
        assert name not in vars(cls)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        setattr(x, cls.__slots__[0], None)
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != moved
    assert repr(x) == text


def test_value_equality_needs_the_same_type():
    class Left(_Value):
        __slots__ = ("p", "q")

        def __init__(self, p, q):
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "q", q)

    class Right(_Value):
        __slots__ = ("p", "q")
        __init__ = Left.__init__

    assert Left(1, 2) == Left(1, 2)
    assert Left(1, 2) != Right(1, 2)
    assert repr(Right(1, 2)) == "Right(1, 2)"


@pytest.mark.parametrize(
    "build",
    [
        lambda: BQF(1.5, 1, 6),
        lambda: Cube([0.9] * 8),
        lambda: QuadraticRing(-23.9),
        lambda: BinaryCubic(1, 0, 0, 1.0),
        lambda: SenaryAlt3([0.5] + [0] * 19),
        lambda: GaussBilinearData(((1, 0), (0, 1)), ((0, 1), (1, 0.5))),
        lambda: sl2_act(BQF(1, 1, 6), ((1, 0.5), (0, 1))),
        lambda: gamma_act(Cube([1] * 8), ((1, 0), (0, 1.0)), _ID, _ID),
        lambda: QuatAltPair(_ALT, [[0, 0.5, 0, 0], [-0.5, 0, 0, 0],
                                   [0, 0, 0, 0], [0, 0, 0, 0]]),
        lambda: MultiForm((2.0,), [1, 2]),
        lambda: BQF(True, 1, 6),
        lambda: BQF("1", 1, 6),
    ],
    ids=["bqf", "cube", "ring", "cubic", "senary", "gauss-data", "sl2_act",
         "gamma_act", "quat-pair", "multiform-dims", "bool", "str"],
)
def test_constructors_reject_inexact_integers(build):
    with pytest.raises(InputError):
        build()


def test_constructors_accept_integral_fractions():
    six = Fraction(6, 1)
    assert BQF(1, 1, six) == BQF(1, 1, 6)
    assert Cube([six] * 8) == Cube([6] * 8)
    assert QuadraticRing(Fraction(-23)) == QuadraticRing(-23)
    assert MultiForm((Fraction(2),), [six, 1]).dims == (2,)


def test_library_code_has_no_assert_statements():
    # python -O strips asserts; correctness checks go through exact._ensure
    src = Path(cubecomp.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(src.glob("*.py"))) >= 9
    assert found == []


def test_only_exact_names_poly_and_multiform():
    # every verifier runs on verify_at_points and every cube on its eight
    # coefficients; Poly and MultiForm are the tests' reference, and no
    # other module, the package root included, names either
    src = Path(cubecomp.__file__).parent
    found = {
        (path.name, name)
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in ("Poly", "MultiForm")
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    }
    assert {("exact.py", "Poly"), ("exact.py", "MultiForm")} <= found
    assert {path for path, _ in found} == {"exact.py"}
