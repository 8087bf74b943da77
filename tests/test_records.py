"""The package's records behave as the dataclasses they replaced.

Every record is frozen.  Each is checked against a frozen dataclass twin made
here with the same fields: repr text, equality, hash, immutability,
positional and keyword construction.
"""

import copy
import dataclasses
import pickle

import pytest

from paritylab import (
    BiasProfile,
    BoundaryData,
    CheckResult,
    EmfReport,
    EstimateTerms,
    LogScaledValue,
    NormalizedHistogram,
    ParitySpec,
    Partition,
    PdDistribution,
)

SPEC = ParitySpec(2, 1, 2)
LSV = LogScaledValue(1, 2.5)


# (record, sample fields, the same record with one field changed)
RECORDS = [
    (Partition, ((3, 1), 4), ((4,), 4)),
    (ParitySpec, (5, 1, 2), (5, 2, 1)),
    (PdDistribution, (5, SPEC, {0: 2, 1: 1}), (5, SPEC, {0: 3})),
    (NormalizedHistogram, (10, SPEC, [(0.5, 0.25)], 0.5), (10, SPEC, [(0.5, 0.25)], -0.5)),
    (BiasProfile, (10, SPEC, [(0, 0), (1, 2)], 2), (11, SPEC, [(0, 0), (1, 2)], 2)),
    (EmfReport, (1j, 2j, 0.5, [0.25j], 1e-3), (1j, 2j, 0.5, [], 1e-3)),
    (LogScaledValue, (1, 2.5), (-1, 2.5)),
    (EstimateTerms, (LSV, LSV, LSV), (LSV, LSV, LogScaledValue.zero())),
    (BoundaryData, (0.25, 1.25, 3, 2), (0.25, 1.25, 3, 3)),
    (CheckResult, ("check_x", True, 0.5, 1.0, 3, "notes"), ("check_x", False, 1.5, 1.0, 3, "notes")),
]


def _twin(record):
    twin = dataclasses.make_dataclass(record.__name__, record.__slots__, frozen=True)
    twin.__qualname__ = record.__qualname__
    return twin


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "record, values, other", RECORDS, ids=[entry[0].__name__ for entry in RECORDS]
)
def test_record_behaves_as_its_dataclass_twin(record, values, other):
    # the annotations document the fields' types, in the fields' order
    assert tuple(record.__annotations__) == record.__slots__
    twin = _twin(record)
    rec = record(*values)
    assert repr(rec) == repr(twin(*values))
    # keyword construction, equality by value, not by identity or class
    assert record(**dict(zip(record.__slots__, values))) == rec
    assert record(*values) == rec and not record(*values) != rec
    assert record(*other) != rec
    assert rec != twin(*values) and rec != values
    # a record hashes its fields, or fails on an unhashable one, as the twin does
    assert _hash_or_error(rec) == _hash_or_error(twin(*values))
    field = record.__slots__[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(rec, field, values[0])
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(rec, field)
    assert rec == record(*values)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize(
    "record, values",
    [(record, values) for record, values, _ in RECORDS],
    ids=[entry[0].__name__ for entry in RECORDS],
)
def test_record_survives_pickle_and_copy(record, values):
    rec = record(*values)
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec


def test_record_construction_errors():
    with pytest.raises(TypeError, match="missing argument 'beta'"):
        ParitySpec(2, 1)
    with pytest.raises(TypeError, match="takes 3 positional arguments but 4"):
        ParitySpec(2, 1, 2, 3)
    with pytest.raises(TypeError, match=r"\['N'\]"):
        ParitySpec(2, 1, 2, N=3)
    with pytest.raises(TypeError, match=r"\['gamma'\]"):
        ParitySpec(2, 1, 2, gamma=3)
    with pytest.raises(TypeError, match="missing argument 'parts'"):
        Partition(n=3)
    # validation still runs on keyword construction
    with pytest.raises(ValueError, match="must differ"):
        ParitySpec(N=2, alpha=1, beta=1)
    with pytest.raises(ValueError, match="sign must be"):
        LogScaledValue(sign=2, log_abs=0.0)
