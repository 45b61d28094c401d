"""coincalc's records are plain ``__slots__`` classes that behave as frozen
dataclasses of the same fields.  Each is checked here against a dataclass
twin built from its field names and defaults."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from coincalc.errors import DescriptorError
from coincalc.lattice import IntMatrix
from coincalc.projective import ProjectiveField, ProjectivePairDescriptor
from coincalc.spaceform import SpaceFormPairDescriptor
from coincalc.sphere import SphereClassDescriptor
from coincalc.stiefel import StiefelQuery
from coincalc.tables import PinpointGroupFact
from coincalc.torus import TorusPairDescriptor
from coincalc.verdict import (
    INFINITE,
    UNKNOWN,
    Fact,
    InvariantBundle,
    Record,
    Truth,
    Verdict,
    user_fact,
)
from coincalc.wecken import TargetFamily, WeckenQuery

YES, NO, UNK = user_fact("yes"), user_fact("no"), user_fact("unknown")
DIAG = IntMatrix(2, 2, (2, 0, 0, 3))

# each record class with two valid argument tuples, which differ, and, for
# a class that validates its fields, arguments it rejects with their error
CASES = {
    Fact: ([Truth.YES, "Thm1.10"], [Truth.NO, ""],
           ([Truth.YES, "no-such-rule"], KeyError)),
    Verdict: ([3, ("Thm1.10", "Thm1.8")], [UNKNOWN],
              ([-1, ("Thm1.10",)], DescriptorError)),
    InvariantBundle: ([], [Verdict.finite(0, ["Thm1.10"]),
                           Verdict.infinite(["Thm1.8"])], None),
    IntMatrix: ([2, 2, (1, 2, 3, 4)], [1, 3, (0, 5, -7)],
                ([2, 2, (1, 2, 3)], DescriptorError)),
    PinpointGroupFact: (["pi_10_S^6", False, 24], ["key", True, INFINITE],
                        None),
    SphereClassDescriptor: ([3, 3, (1, 2)], [5, 3, None, YES, NO, UNK, YES],
                            ([4, 3, (1, 2)], DescriptorError)),
    ProjectivePairDescriptor: (
        [ProjectiveField.R, 3, 5],
        [ProjectiveField.H, 2, 9, YES, NO, UNK, UNK, UNK, YES],
        ([ProjectiveField.C, 1, 5], DescriptorError)),
    WeckenQuery: ([11, 6], [5, 3, TargetFamily.GENERAL, YES],
                  ([0, 3], DescriptorError)),
    StiefelQuery: ([7, 3], [8, 2, True], ([3, 2], DescriptorError)),
    SpaceFormPairDescriptor: (
        [5, 3, 2], [7, 3, 4, YES, YES, UNK, UNK, 2, YES],
        ([5, 4, 3], DescriptorError)),
    TorusPairDescriptor: ([2, 2, DIAG, True], [3, 2, DIAG, False, YES, NO],
                          ([2, 3, DIAG, True], DescriptorError)),
}
RECORDS = list(CASES)
IDS = [cls.__name__ for cls in RECORDS]


def twin(cls):
    """A frozen dataclass with the fields and defaults of ``cls``."""
    params = inspect.signature(cls).parameters.values()
    return dataclasses.make_dataclass(cls.__name__, [
        (p.name, object) if p.default is p.empty
        else (p.name, object, dataclasses.field(default=p.default))
        for p in params], frozen=True)


def names(cls):
    return tuple(inspect.signature(cls).parameters)


def defaults(cls):
    return [p.default for p in inspect.signature(cls).parameters.values()
            if p.default is not p.empty]


def test_every_record_is_covered():
    # this module imports every module of the package that defines a record
    assert set(Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_are_the_slots_in_parameter_order(cls):
    assert names(cls) == cls.__slots__
    assert len(names(cls)) >= 2  # Record._values is a tuple only then
    assert not hasattr(cls(*CASES[cls][0]), "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_matches_its_dataclass_twin(cls):
    twin_cls = twin(cls)
    first, second, _ = CASES[cls]
    for args in (first, second):
        ours, theirs = cls(*args), twin_cls(*args)
        assert repr(ours) == repr(theirs)
        assert hash(ours) == hash(theirs)
        assert (ours == cls(*args)) is (theirs == twin_cls(*args)) is True
        assert (ours != cls(*args)) is (theirs != twin_cls(*args)) is False
    assert (cls(*first) == cls(*second)) is False
    assert (twin_cls(*first) == twin_cls(*second)) is False
    assert cls(*first) != cls(*second)
    # records of different classes never compare equal, as dataclasses
    assert cls(*first) != twin_cls(*first)
    assert cls(*first) != tuple(first)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_construction_by_position_keyword_and_default(cls):
    twin_cls = twin(cls)
    fields, filled = len(names(cls)), defaults(cls)
    cases = CASES[cls][:2]
    for args in cases:
        keywords = dict(zip(names(cls), args))
        assert cls(**keywords) == cls(*args)
        assert repr(cls(**keywords)) == repr(twin_cls(**keywords))
        # a case shorter than the fields leaves the rest to their defaults
        full = list(args) + filled[len(filled) - fields + len(args):]
        assert cls(*full) == cls(*args)
        assert repr(cls(*full)) == repr(twin_cls(*args))
    assert any(len(args) < fields for args in cases) == bool(filled)
    for obj in (cls, twin_cls):
        with pytest.raises(TypeError):
            obj(*range(fields + 1))  # one argument too many


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls):
    ours, theirs = cls(*CASES[cls][0]), twin(cls)(*CASES[cls][0])
    for name in names(cls) + ("not_a_field",):
        for obj in (ours, theirs):
            with pytest.raises(dataclasses.FrozenInstanceError) as info:
                setattr(obj, name, None)
            messages = [str(info.value)]
            with pytest.raises(dataclasses.FrozenInstanceError) as info:
                delattr(obj, name)
            messages.append(str(info.value))
            assert messages == [f"cannot assign to field {name!r}",
                                f"cannot delete field {name!r}"]
    assert ours == cls(*CASES[cls][0])


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(cls):
    for args in CASES[cls][:2]:
        record = cls(*args)
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is cls
            assert other == record and hash(other) == hash(record)
            assert repr(other) == repr(record)


@pytest.mark.parametrize("cls", [c for c in RECORDS if CASES[c][2]],
                         ids=[c.__name__ for c in RECORDS if CASES[c][2]])
def test_validation_runs_on_construction(cls):
    args, error = CASES[cls][2]
    with pytest.raises(error):
        cls(*args)
    # the twin holds no checks: the rejection is the record's own
    twin(cls)(*args)
