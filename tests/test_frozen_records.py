"""Every record class against its `dataclass(frozen=True)` twin.

The records of k3arith are built by `errors.frozen`, so that no `k3`
process imports `dataclasses`.  Each class decorated `@frozen` under
`src/` is compiled a second time from its own source, in its own module's
namespace, with `frozen` bound to the stdlib's `dataclass(frozen=True)`;
the two must agree on repr, equality, hashing, defaults, refusals and
`__post_init__` validation.
"""

import ast
import importlib
import inspect
import pkgutil
from dataclasses import dataclass, fields
from fractions import Fraction

import pytest

import k3arith
from k3arith import errors
from k3arith.bqf import BinaryQuadraticForm, class_group
from k3arith.cmmod import ModularityEntry
from k3arith.count import Quartic
from k3arith.ellsurf import KodairaFiberType
from k3arith.errors import (DomainError, InconsistencyError, UsageError,
                            frozen)
from k3arith.ff import FieldCtx
from k3arith.singk3 import QuadIrr


def _twins():
    """{name: (class, its dataclass twin)} for every @frozen class."""
    twins = {}
    for info in pkgutil.iter_modules(k3arith.__path__):
        module = importlib.import_module(f"k3arith.{info.name}")
        with open(module.__file__) as f:
            tree = ast.parse(f.read())
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "frozen"
                    for d in node.decorator_list)):
                continue
            namespace = dict(vars(module), frozen=dataclass(frozen=True))
            exec(compile(ast.Module([node], []), module.__file__, "exec"),
                 namespace)
            twins[node.name] = (getattr(module, node.name),
                                namespace[node.name])
    return twins


TWINS = _twins()
F5 = FieldCtx(5)
CL20 = class_group(-20)
TAU = QuadIrr(-4, Fraction(0), Fraction(1, 2))
# name: (field values, field values that __post_init__ refuses and the
# error it raises, or None where the class validates nothing)
SAMPLES = {
    "BinaryQuadraticForm": ((2, 1, 3), ((0, 0, 1), DomainError)),
    "ClassGroup": ((CL20.d, CL20.forms, CL20.table, CL20.identity_index),
                   None),
    "CountRecord": (("fermat", 5, 1, 0), None),
    "QSeries": (((1, 0, -6), 3, 16), None),
    "ModularityEntry": ((5, 0, 0), None),
    "ModularityReport": (((ModularityEntry(5, 0, 0),),), None),
    "SieveCandidate": ((5, 0, 1, 10), None),
    "SieveSurvivors": (({5: [0]}, {5: [[0]]}, [0]), None),
    "_DenseModel": (((),), (((1,),), UsageError)),
    "KodairaFiberType": (("I_2",), (("I_x",), UsageError)),
    "FiberConfiguration": ((((KodairaFiberType("I2"), 3),),), None),
    "CyclotomicInt": ((4, (1, 2)), None),
    "MultChar": ((F5, 4), ((F5, 3), DomainError)),
    "QuadIrr": ((-4, Fraction(1), Fraction(2)),
                ((4, Fraction(1), Fraction(2)), DomainError)),
    "PeriodPair": ((TAU, TAU), None),
    "InosePencil": ((1j, 2 + 0j, 3.0, 4 + 1j), None),
    "TraceVector": ((5, (1, 2)), ((5, (1000,)), InconsistencyError)),
    "FrobeniusPoly": ((5, (1, -6, 25)), ((5, (2, 1)), UsageError)),
}


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as e:
        return type(e)


def test_every_record_class_has_a_sample():
    assert sorted(TWINS) == sorted(SAMPLES)
    assert len(TWINS) == 18


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_matches_its_dataclass_twin(name):
    cls, twin = TWINS[name]
    args, refused = SAMPLES[name]
    ours, theirs = cls(*args), twin(*args)
    assert repr(ours) == repr(theirs)
    assert ours == cls(*args) and not ours != cls(*args)
    assert _hash(ours) == _hash(cls(*args)) == _hash(theirs)
    # equal field values in another class are unequal, both ways round
    assert ours != theirs and theirs != ours
    # fields and defaults
    names = [f.name for f in fields(twin)]
    assert [(p.name, p.default) for p in
            inspect.signature(cls).parameters.values()] == [
        (p.name, p.default) for p in
        inspect.signature(twin).parameters.values()]
    required = len(names) - len(cls.__init__.__defaults__ or ())
    assert repr(cls(*args[:required])) == repr(twin(*args[:required]))
    for build in (cls, twin):
        with pytest.raises(TypeError):
            build()
        with pytest.raises(TypeError):
            build(*args, unknown=0)
        for obj in (ours, theirs):
            with pytest.raises(AttributeError):
                setattr(obj, names[0], getattr(obj, names[0]))
            with pytest.raises(AttributeError):
                delattr(obj, names[-1])
        if refused is not None:
            with pytest.raises(refused[1]):
                build(*refused[0])
    with pytest.raises(errors.FrozenInstanceError):
        setattr(ours, "unknown", 0)


def test_other_classes_with_equal_fields_are_unequal():
    assert ModularityEntry(2, 1, 3) != BinaryQuadraticForm(2, 1, 3)
    assert BinaryQuadraticForm(2, 1, 3) != (2, 1, 3)

    class Other(Quartic):
        MODEL = "other"
    coeffs = (0,) * (len(Quartic.EXPONENTS) - 1) + (1,)
    assert Quartic(coeffs) == Quartic(coeffs)
    assert Other(coeffs) != Quartic(coeffs)
    assert repr(Other(coeffs)) == f"{Other.__qualname__}(coeffs={coeffs!r})"


def _twin_classes(namespace):
    return (frozen(type("R", (), dict(namespace))),
            dataclass(frozen=True)(type("R", (), dict(namespace))))


def test_an_own_eq_gets_the_field_hash_unless_hash_is_set_too():
    eq = {"__annotations__": {"a": int}, "__eq__": lambda s, o: True}
    for cls in _twin_classes(eq):
        assert cls(1) == cls(2) and hash(cls(1)) == hash((1,))
    for cls in _twin_classes(dict(eq, __hash__=lambda s: 7)):
        assert hash(cls(1)) == 7
    for cls in _twin_classes({"__annotations__": {"a": int},
                              "__hash__": None}):
        with pytest.raises(TypeError):
            hash(cls(1))


def test_a_field_without_a_default_may_not_follow_one_with():
    namespace = {"__annotations__": {"a": int, "b": int}, "a": 0}
    with pytest.raises(TypeError):
        frozen(type("R", (), namespace))
    with pytest.raises(TypeError):
        dataclass(frozen=True)(type("R", (), namespace))

