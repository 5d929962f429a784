"""The immutable value types keep the behaviour of the frozen dataclasses they replace.

Eight types are slotted classes over core._Value; Matrix2 and ConvergentRecord
stay dataclasses, so dataclasses.replace and friends still apply to them.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import recurseq
from recurseq import (
    ConvergentRecord,
    IndexSequenceParams,
    LinRecSequence,
    PeriodicQuadCF,
    QuadraticABC,
    QuadraticPQ,
    RationalCF,
    RecurrenceParams,
    companion_power,
    core,
)
from recurseq.cli import OutputFormat

# (type, fields, another value's fields, repr)
CASES = [
    (RecurrenceParams, (1, -1), (1, 2), "RecurrenceParams(p=1, q=-1)"),
    (
        LinRecSequence,
        (0, 1, RecurrenceParams(1, -1)),
        (0, 1, RecurrenceParams(1, 2)),
        "LinRecSequence(a0=0, a1=1, params=RecurrenceParams(p=1, q=-1))",
    ),
    (OutputFormat, ("decimal", 5), ("decimal", 6), "OutputFormat(mode='decimal', digits=5)"),
    (IndexSequenceParams, (2, 4, 2, 0), (2, 4, 2, -1), "IndexSequenceParams(i=2, j=4, s=2, t=0)"),
    (QuadraticABC, (1, 1, 1), (2, 1, 1), "QuadraticABC(a=1, b=1, c=1)"),
    (QuadraticPQ, (1, -1), (-1, 1), "QuadraticPQ(p=1, q=-1)"),
    (RationalCF, (((1, 2), (3, 4)), 1), (((1, 2), (3, 4)), 2), "RationalCF(quotients=((1, 2), (3, 4)), period=1)"),
    (PeriodicQuadCF, (1, 2, 3), (1, 2, -3), "PeriodicQuadCF(a=1, b=2, c=3)"),
]


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_type_contract(cls, fields, other, text):
    value = cls(*fields)
    names = cls.__match_args__
    assert tuple(getattr(value, name) for name in names) == fields

    assert value == cls(*fields) and not value != cls(*fields)
    assert value != cls(*other)
    assert value != fields and value != object()
    assert hash(value) == hash(fields)
    assert repr(value) == text

    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields

    assert cls(**dict(zip(names, fields))) == value
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is cls and clone == value

    match value:
        case cls(a, b) if len(fields) == 2:
            matched = (a, b)
        case cls(a, b, c) if len(fields) == 3:
            matched = (a, b, c)
        case cls(a, b, c, d):
            matched = (a, b, c, d)
    assert matched == fields


def test_types_with_the_same_fields_differ():
    assert RecurrenceParams(1, 2) != QuadraticPQ(1, 2)
    assert QuadraticABC(1, 2, 3) != PeriodicQuadCF(1, 2, 3)
    assert len({RecurrenceParams(1, 2), QuadraticPQ(1, 2)}) == 2


def test_defaults():
    assert OutputFormat() == OutputFormat("rational", None) == OutputFormat(mode="rational")
    assert RationalCF(((1, 1),)).period is None


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QuadraticABC(0, 1, 1), "leading coefficient a must be nonzero"),
        (lambda: PeriodicQuadCF(1, 0, 1), "a, b, c must all be nonzero"),
        (lambda: RationalCF(()), "a continued fraction needs at least one partial quotient"),
        (lambda: RationalCF(((1, 1), (2, 0))), "partial quotient 1 is 2/0; zeros are not allowed"),
        (lambda: RationalCF(((1, 1),), 2), "period 2 out of range for 1 quotients"),
        (lambda: RationalCF(quotients=((1, 1),), period=0), "period 0 out of range for 1 quotients"),
    ],
)
def test_init_validation(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_matrix2_and_convergent_record_stay_dataclasses():
    from recurseq.core import Matrix2

    assert Matrix2 is recurseq.Matrix2 is core.Matrix2
    m = companion_power(RecurrenceParams(1, -1), 3)
    assert type(m) is Matrix2 and dataclasses.is_dataclass(m)
    assert dataclasses.replace(m, e22=0) == Matrix2(1, 2, 2, 0)
    record = ConvergentRecord(0, Fraction(1), s=1)
    assert dataclasses.is_dataclass(record)
    assert dataclasses.replace(record, value=Fraction(2)) == ConvergentRecord(0, Fraction(2), s=1)
    with pytest.raises(AttributeError) as info:
        core.Matrix3
    assert str(info.value) == "module 'recurseq.core' has no attribute 'Matrix3'"
