"""The frozen result records: an ``__init__`` that stores each field through
its slot, with the behaviour of the frozen dataclass it replaced."""
import copy
import dataclasses
import pickle
import tracemalloc

import pytest

from tunnelkit import (
    ActionResult,
    DoubleOscillator,
    LevelShifts,
    QuantizationResult,
    SplittingResult,
    WellAnalysis,
    compute_splitting,
)

RESULT = compute_splitting(DoubleOscillator(1.0, 1.2, 0.05, 8.0))
RECORDS = {
    WellAnalysis: RESULT.analysis,
    ActionResult: RESULT.action,
    LevelShifts: RESULT.shifts,
    QuantizationResult: RESULT.roots,
    SplittingResult: RESULT,
}
CLASSES = list(RECORDS)
IDS = [cls.__name__ for cls in CLASSES]


def _plain(cls):
    # the frozen dataclass of cls's fields, with its generated __init__,
    # under cls's qualified name
    plain = dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True
    )
    plain.__qualname__ = cls.__qualname__
    return plain


def _values(record):
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
class TestRecord:
    def test_equality_hash_repr_and_fields_are_the_dataclasses(self, cls):
        values = _values(RECORDS[cls])
        record, plain = cls(*values), _plain(cls)(*values)
        assert record == RECORDS[cls] and record != cls(*values[1:], values[0])
        assert hash(record) == hash(plain) == hash(RECORDS[cls])
        assert repr(record) == repr(plain)
        assert [(f.name, f.type) for f in dataclasses.fields(record)] == [
            (f.name, f.type) for f in dataclasses.fields(plain)
        ]
        assert dataclasses.asdict(record) == dataclasses.asdict(plain)
        assert cls(**dict(zip([f.name for f in dataclasses.fields(cls)], values))) == record

    def test_pickle_copy_and_replace_give_an_equal_record(self, cls):
        record = RECORDS[cls]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is cls and back == record
        assert copy.copy(record) == record and copy.deepcopy(record) == record
        names, values = [f.name for f in dataclasses.fields(cls)], _values(record)
        changed = dataclasses.replace(record, **{names[-1]: values[0]})
        assert changed == cls(*values[:-1], values[0])
        assert dataclasses.replace(record) == record

    def test_assignment_and_deletion_raise_the_dataclasses_errors(self, cls):
        record, plain = RECORDS[cls], _plain(cls)(*_values(RECORDS[cls]))
        for name in [f.name for f in dataclasses.fields(cls)] + ["extra"]:
            for target in (record, plain):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(target, name, 1.0)
            assert _raised(lambda: setattr(record, name, 1.0)) == _raised(
                lambda: setattr(plain, name, 1.0)
            )
            if name != "extra":
                assert _raised(lambda: delattr(record, name)) == _raised(
                    lambda: delattr(plain, name)
                )

    def test_missing_and_extra_arguments_raise_the_dataclasses_type_error(self, cls):
        values, plain = _values(RECORDS[cls]), _plain(cls)
        first = dataclasses.fields(cls)[0].name
        calls = [
            lambda c: c(),
            lambda c: c(*values[:-1]),
            lambda c: c(*values, 1.0),
            lambda c: c(*values, extra=1.0),
            lambda c: c(*values, **{first: values[0]}),
        ]
        for call in calls:
            got = _raised(lambda: call(cls))
            assert got[0] is TypeError and got == _raised(lambda: call(plain))

    def test_fields_live_in_slots_in_no_more_memory(self, cls):
        values, plain = _values(RECORDS[cls]), _plain(cls)
        assert not hasattr(RECORDS[cls], "__dict__")
        sizes = []
        for make in (cls, plain):
            tracemalloc.start()
            try:
                kept = [make(*values) for _ in range(1000)]
                sizes.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            del kept
        assert sizes[0] < sizes[1]
