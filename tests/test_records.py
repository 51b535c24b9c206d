"""The package's immutable records: printing, value equality, construction."""

import copy
import inspect
import pickle

import pytest

from idelink import (
    AbelianInvariants,
    BraidWord,
    CheckRecord,
    IdeleVector,
    IntMatrix,
    LinkUniverse,
    SplitRecord,
    SubLattice,
    SuiteResult,
    VerificationReport,
    lift_braid,
)
from idelink._record import Record
from idelink.cli import Scenario

from oracles import replaced

BRAID = BraidWord(2, (1,))
HOPF = IntMatrix([[0, 2], [2, 0]])


def _records():
    """(record, its repr) for every record class; built afresh on each call."""
    return [
        (BraidWord(2, (1,)), "BraidWord(strands=2, letters=(1,))"),
        (
            LinkUniverse(("K",), IntMatrix([[0]])),
            "LinkUniverse(labels=('K',), linking=IntMatrix([[0]], cols=1), axis_index=None)",
        ),
        (
            LinkUniverse(("A", "K1"), HOPF, 0),
            "LinkUniverse(labels=('A', 'K1'), linking=IntMatrix([[0, 2], [2, 0]], cols=2), "
            "axis_index=0)",
        ),
        (AbelianInvariants(1, (2, 4)), "AbelianInvariants(free_rank=1, torsion=(2, 4))"),
        (
            SubLattice.from_columns(2, [(2, 0), (1, 3)]),
            "SubLattice(ambient_rank=2, columns=((1, 3), (0, 6)))",
        ),
        (
            IdeleVector((0, 1), (1, -2, 0, 3)),
            "IdeleVector(components=(0, 1), coeffs=(1, -2, 0, 3))",
        ),
        (SplitRecord(a=0, b=1, e=1, d=1, w=1, r=2), "SplitRecord(a=0, b=1, e=1, d=1, w=1, r=2)"),
        (
            lift_braid(BraidWord(1, ()), 2),
            "CoverData(degree=2, base=LinkUniverse(labels=('A', 'K1'), linking=IntMatrix("
            "[[0, 1], [1, 0]], cols=2), axis_index=0), total=LinkUniverse(labels=('A~', 'J1'), "
            "linking=IntMatrix([[0, 1], [1, 0]], cols=2), axis_index=0), fiber_map=(0, 1), "
            "splitting=(SplitRecord(a=1, b=0, e=2, d=2, w=1, r=1), SplitRecord(a=0, b=1, e=1, "
            "d=2, w=2, r=1)), pushforward=(((2, 0), (0, 1)), ((1, 0), (0, 2))), deck=(0, 1))",
        ),
        (
            CheckRecord("norm_principle", True, 0.5),
            "CheckRecord(name='norm_principle', passed=True, millis=0.5, witness=None)",
        ),
        (
            VerificationReport(2, (1,), 2, (CheckRecord("a", True, 0.0),)),
            "VerificationReport(strands=2, word=(1,), degree=2, checks=(CheckRecord(name='a', "
            "passed=True, millis=0.0, witness=None),))",
        ),
        (
            SuiteResult(1, 0, (2,), reports=(), complete=True),
            "SuiteResult(max_strands=1, max_length=0, degrees=(2,), reports=(), complete=True)",
        ),
        (
            Scenario(BraidWord(2, (1,)), 2, None),
            "Scenario(braid=BraidWord(strands=2, letters=(1,)), cover_degree=2, checks=None)",
        ),
        (IntMatrix([[1, 2], [3, 4]]), "IntMatrix([[1, 2], [3, 4]], cols=2)"),
        (IntMatrix([], cols=3), "IntMatrix([], cols=3)"),
    ]


RECORD_IDS = [f"{type(r).__name__}{i}" for i, (r, _) in enumerate(_records())]


def _arguments(record):
    """The record's constructor arguments, read back from its attributes."""
    return {name: getattr(record, name) for name in inspect.signature(type(record)).parameters}


@pytest.mark.parametrize("i", range(len(RECORD_IDS)), ids=RECORD_IDS)
class TestEveryRecord:
    def test_repr_is_pinned(self, i):
        record, text = _records()[i]
        assert repr(record) == text

    def test_equal_values_hash_equal(self, i):
        a, b = _records()[i][0], _records()[i][0]
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert replaced(a) == a and hash(replaced(a)) == hash(a)

    def test_never_equals_a_tuple_of_its_fields(self, i):
        record = _records()[i][0]
        fields = tuple(_arguments(record).values())
        assert record != fields and fields != record
        assert record != list(fields)

    def test_assignment_and_deletion_raise(self, i):
        record = _records()[i][0]
        for name in _arguments(record):
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_has_no_instance_dict(self, i):
        assert not hasattr(_records()[i][0], "__dict__")

    def test_trusted_rebuild_from_its_slots(self, i):
        record = _records()[i][0]
        cls = type(record)
        values = [getattr(record, name) for name in cls.__slots__]
        clone = cls._trusted(*values)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)
        assert [getattr(clone, name) for name in cls.__slots__] == values

    def test_trusted_refuses_a_wrong_value_count(self, i):
        record = _records()[i][0]
        cls = type(record)
        values = [getattr(record, name) for name in cls.__slots__]
        with pytest.raises(TypeError):
            cls._trusted(*values[:-1])
        with pytest.raises(TypeError):
            cls._trusted(*values, None)

    def test_copies_and_pickles_by_value(self, i):
        record = _records()[i][0]
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record)
            assert repr(clone) == repr(record)


def _record_classes(cls=Record):
    """Every subclass of ``cls`` defined in the package, at any depth."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("idelink."):
            found.add(sub)
        found |= _record_classes(sub)
    return found


def test_every_record_class_is_covered():
    assert {type(record) for record, _ in _records()} == _record_classes()


class TestConstruction:
    def test_by_position_and_by_keyword(self):
        for record, _ in _records():
            args = _arguments(record)
            if type(record) is IntMatrix:
                by_position = IntMatrix(args["entries"], cols=args["cols"])
            else:
                by_position = type(record)(*args.values())
            assert by_position == type(record)(**args) == record

    def test_defaults(self):
        assert CheckRecord("x", True, 1.0).witness is None
        assert CheckRecord("x", True, 1.0) == CheckRecord("x", True, 1.0, None)
        u = LinkUniverse(("K",), IntMatrix([[0]]))
        assert u.axis_index is None and u == LinkUniverse(("K",), IntMatrix([[0]]), None)

    def test_suite_result_as_the_benchmark_builds_it(self):
        bounds = (3, 4, (2, 3))
        reports = (VerificationReport(1, (), 2, (CheckRecord("a", True, 0.1),)),)
        result = SuiteResult(*bounds, reports=reports, complete=True)
        assert (result.max_strands, result.max_length, result.degrees) == bounds
        assert result.reports is reports and result.complete is True
        assert result.summary() == {
            "scenarios": 1, "checks": 1, "passes": 1, "failures": 0, "total_millis": 0.1,
        }

    def test_generators_are_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            LinkUniverse(("A", "K1"), HOPF, 0, ((0, 1, -2, 0), (-2, 0, 0, 1)))
        with pytest.raises(TypeError):
            LinkUniverse(("A", "K1"), HOPF, 0, _generators=())

    def test_a_slot_count_without_a_builder_is_refused(self):
        with pytest.raises(TypeError, match="no record builder for 7 slots"):

            class Seven(Record):
                __slots__ = _fields = tuple("abcdefg")

    def test_missing_and_unknown_arguments_are_type_errors(self):
        with pytest.raises(TypeError):
            CheckRecord("x", True)
        with pytest.raises(TypeError):
            SplitRecord(a=0, b=1, e=1, d=1, w=1, r=2, s=3)
        with pytest.raises(TypeError):
            replaced(BRAID, degree=2)


class TestEquality:
    def test_differs_in_any_field(self):
        # One field moved at a time; built unchecked, since d = e*w ties three of them.
        rec = SplitRecord(a=0, b=1, e=1, d=1, w=1, r=2)
        for i in range(6):
            values = [rec.a, rec.b, rec.e, rec.d, rec.w, rec.r]
            values[i] = 5
            assert SplitRecord._trusted(*values) != rec

    def test_another_class_is_not_implemented(self):
        rec = SplitRecord(a=0, b=1, e=1, d=1, w=1, r=2)
        assert rec.__eq__(CheckRecord("x", True, 1.0)) is NotImplemented
        assert rec.__eq__((0, 1, 1, 1, 1, 2)) is NotImplemented
        assert BRAID.__eq__(BRAID) is True

    def test_a_subclass_is_another_class(self):
        class Marked(BraidWord):
            pass

        assert Marked(2, (1,)) != BRAID and BRAID != Marked(2, (1,))
        assert Marked(2, (1,)) == Marked(2, (1,))
        assert repr(Marked(2, (1,))).endswith("Marked(strands=2, letters=(1,))")

    def test_derived_generators_stay_out_of_value_and_repr(self):
        u = LinkUniverse(("A", "K1"), HOPF, 0)
        # A universe built with other stored rows still equals and hashes as u.
        trusted = LinkUniverse._trusted(("A", "K1"), HOPF, 0, ())
        assert u == trusted and hash(u) == hash(trusted) and repr(u) == repr(trusted)
        assert u._generators == ((0, 1, -2, 0), (-2, 0, 0, 1))
        assert "_generators" not in repr(u)

    def test_pushed_generators_stay_out_of_value_repr_and_arguments(self):
        c = lift_braid(BraidWord(2, (1,)), 2)
        assert c._pushed and "_pushed" not in repr(c)
        assert "_pushed" not in _arguments(c) and "_pushed" not in type(c)._fields
        with pytest.raises(TypeError):
            replaced(c, _pushed=())
        # A cover whose stored images differ still equals and hashes as c.
        other = replaced(c)
        object.__setattr__(other, "_pushed", ())
        assert other == c and hash(other) == hash(c) and repr(other) == repr(c)

    def test_pushed_generators_survive_copy_and_pickle(self):
        c = lift_braid(BraidWord(3, (1, -2)), 3)
        for clone in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert clone == c and clone._pushed == c._pushed

    def test_unhashable_fields_make_an_unhashable_record(self):
        with pytest.raises(TypeError):
            hash(CheckRecord("x", False, 1.0, {"v": [1]}))
        with pytest.raises(TypeError):
            hash(Scenario(BRAID, 2, ["norm_principle"]))

    def test_trusted_matrix_equals_the_checked_one(self):
        m = IntMatrix._trusted(2, 2, ((1, 2), (3, 4)))
        assert m == IntMatrix([[1, 2], [3, 4]]) and hash(m) == hash(IntMatrix([[1, 2], [3, 4]]))
        assert m != IntMatrix([[1, 2, 3, 4]]) and IntMatrix([], cols=2) != IntMatrix([], cols=3)

    def test_list_built_equals_tuple_built(self):
        pairs = [
            (LinkUniverse(["A", "K1"], HOPF, 0), LinkUniverse(("A", "K1"), HOPF, 0)),
            (IdeleVector([0], [1, 2]), IdeleVector((0,), (1, 2))),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
