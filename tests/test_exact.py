import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import cubecomp
from cubecomp.altforms import QuatAltPair, SenaryAlt3
from cubecomp.bqf import BQF, GaussBilinearData, sl2_act
from cubecomp.cubes import Cube, gamma_act
from cubecomp.exact import (
    InputError,
    MultiForm,
    Poly,
    VerifyResult,
)
from cubecomp.qring import QuadraticRing
from cubecomp.symspaces import BinaryCubic

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
