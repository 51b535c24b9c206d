"""The package's public surface: every exported name resolves, once; bad arguments are refused."""

import os
import subprocess
import sys

import pytest

import idelink
from idelink import covers, hasse, ideles, links, zlattice

from oracles import replaced

SRC = os.path.dirname(os.path.dirname(os.path.abspath(idelink.__file__)))

# Standard-library modules whose import costs more than the package's own
# code; `dataclasses` alone pulls in `inspect`, `ast`, `dis` and `tokenize`.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")

_IMPORT_PROBE = f"""
import sys
heavy = {HEAVY!r}
before = [m for m in heavy if m in sys.modules]
sys.path.insert(0, {SRC!r})
import idelink
import idelink.cli
print(before, [m for m in heavy if m in sys.modules])
"""


def test_all_names_resolve_on_the_package():
    missing = [name for name in idelink.__all__ if not hasattr(idelink, name)]
    assert missing == []


def test_all_has_no_duplicates():
    seen = set()
    repeated = [name for name in idelink.__all__ if name in seen or seen.add(name)]
    assert repeated == []


def test_import_loads_no_heavy_stdlib_module():
    # A fresh interpreter without `site`: nothing heavy is loaded before
    # the import, so the check means something, and nothing after it.
    out = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[] []"



# Each public entry of links, ideles, covers and hasse given an argument
# of the wrong kind: a tuple where a record belongs, a list where an
# IntMatrix belongs, a non-string check name, or an int where check
# names, degrees, a sublink or a component order belong; and each field
# of the report records given a value of the wrong kind.
BAD = (2, (1,))
BRAID = links.BraidWord(2, (1,))
COVER = covers.lift_braid(BRAID, 2)
LATTICE = idelink.SubLattice.full(2)
CHECK = hasse.CheckRecord("norm_principle", True, 0.1)
REPORT = hasse.VerificationReport(2, (1,), 2, (CHECK,))
WRONG_KIND = {
    "links.universe_from_braid": lambda: links.universe_from_braid(BAD),
    "links.relabeled_universe": lambda: links.relabeled_universe(BAD, (0, 1)),
    "links.LinkUniverse.labels_str": lambda: links.LinkUniverse(
        "AK", zlattice.IntMatrix([[0, 1], [1, 0]]), 0
    ),
    "ideles.IdeleVector.format": lambda: ideles.IdeleVector((0,), (1, 0)).format(BAD),
    "ideles.principal_generators": lambda: ideles.principal_generators(BAD),
    "ideles.principal_lattice": lambda: ideles.principal_lattice(BAD),
    "ideles.meridian_subgroup": lambda: ideles.meridian_subgroup(BAD, ()),
    "ideles.class_quotient": lambda: ideles.class_quotient(BAD, ()),
    "ideles.meridian_subgroup.sublink": lambda: ideles.meridian_subgroup(COVER.base, 5),
    "ideles.class_quotient.sublink": lambda: ideles.class_quotient(COVER.base, 5),
    "links.relabeled_universe.order": lambda: links.relabeled_universe(COVER.base, 5),
    "covers.relabeled_cover.order": lambda: covers.relabeled_cover(COVER, 5, (0, 1, 2)),
    "covers.lift_braid": lambda: covers.lift_braid(BAD, 2),
    "covers.pushforward_matrix": lambda: covers.pushforward_matrix(BAD),
    "covers.pushforward_image": lambda: covers.pushforward_image(BAD),
    "covers.deck_matrix": lambda: covers.deck_matrix(BAD),
    "covers.principal_pushforward": lambda: covers.principal_pushforward(BAD),
    "covers.relabeled_cover": lambda: covers.relabeled_cover(BAD, (0, 1), (0, 1, 2)),
    "covers.branched_cover_order": lambda: covers.branched_cover_order([[1]], 2),
    "covers.CoverData.base": lambda: replaced(COVER, base=BAD),
    "covers.CoverData.total": lambda: replaced(COVER, total=BAD),
    "covers.CoverData.splitting": lambda: replaced(COVER, splitting=list(COVER.splitting)),
    "covers.CoverData.splitting_entry": lambda: replaced(COVER, splitting=(BAD, BAD)),
    "covers.CoverData.fiber_map": lambda: replaced(COVER, fiber_map=[0, 1, 1]),
    "covers.CoverData.fiber_map_entry": lambda: replaced(COVER, fiber_map=(0, 1.0, 1)),
    "covers.CoverData.fiber_map_bool": lambda: replaced(COVER, fiber_map=(0, True, 1)),
    "covers.CoverData.pushforward": lambda: replaced(COVER, pushforward=list(COVER.pushforward)),
    "covers.CoverData.pushforward_lists": lambda: replaced(
        COVER, pushforward=([[2, 0], [0, 1]],) + COVER.pushforward[1:]
    ),
    "covers.CoverData.pushforward_float": lambda: replaced(
        COVER, pushforward=(((2.0, 0), (0, 1)),) + COVER.pushforward[1:]
    ),
    "covers.CoverData.deck": lambda: replaced(COVER, deck=[0, 2, 1]),
    "covers.SplitRecord.float": lambda: covers.SplitRecord(1.5, "x", None, 4, 5, 6),
    "covers.SplitRecord.bool": lambda: covers.SplitRecord(0, 1, True, 1, 1, 2),
    "hasse.equality_witness.a": lambda: hasse.equality_witness(BAD, LATTICE),
    "hasse.equality_witness.b": lambda: hasse.equality_witness(LATTICE, BAD),
    "hasse.resolve_checks": lambda: hasse.resolve_checks([1]),
    "hasse.resolve_checks.int": lambda: hasse.resolve_checks(5),
    "hasse.run_scenario": lambda: hasse.run_scenario(BAD, 2),
    "hasse.run_scenario.checks": lambda: hasse.run_scenario(BRAID, 2, [1]),
    "hasse.run_scenario.checks_int": lambda: hasse.run_scenario(BRAID, 2, 7),
    "hasse.run_suite.degrees_int": lambda: hasse.run_suite(1, 1, 5),
    "hasse.run_suite.checks_int": lambda: hasse.run_suite(1, 1, (2,), 7),
    "hasse.count_scenarios.degrees_int": lambda: hasse.count_scenarios(1, 1, 5),
    "hasse.scenario_report_json": lambda: hasse.scenario_report_json(BAD),
    "hasse.CheckRecord.name": lambda: hasse.CheckRecord(5, True, 0.1),
    "hasse.CheckRecord.passed": lambda: hasse.CheckRecord("x", "no", 0.1),
    "hasse.CheckRecord.passed_int": lambda: hasse.CheckRecord("x", 1, 0.1),
    "hasse.CheckRecord.millis_negative": lambda: hasse.CheckRecord("x", True, -5),
    "hasse.CheckRecord.millis_bool": lambda: hasse.CheckRecord("x", True, True),
    "hasse.CheckRecord.millis_str": lambda: hasse.CheckRecord("x", True, "0.1"),
    "hasse.CheckRecord.millis_nan": lambda: hasse.CheckRecord("x", True, float("nan")),
    "hasse.CheckRecord.millis_inf": lambda: hasse.CheckRecord("x", True, float("inf")),
    "hasse.CheckRecord.witness": lambda: hasse.CheckRecord("x", False, 0.1, [1, -2]),
    "hasse.VerificationReport.strands": lambda: hasse.VerificationReport(2.0, (1,), 2, ()),
    "hasse.VerificationReport.degree": lambda: hasse.VerificationReport(2, (1,), True, ()),
    "hasse.VerificationReport.word": lambda: hasse.VerificationReport(2, [1], 2, ()),
    "hasse.VerificationReport.word_entry": lambda: hasse.VerificationReport(2, (1.0,), 2, ()),
    "hasse.VerificationReport.checks": lambda: hasse.VerificationReport(2, (1,), 2, [CHECK]),
    "hasse.VerificationReport.checks_entry": lambda: hasse.VerificationReport(2, (1,), 2, (BAD,)),
    "hasse.SuiteResult.degrees": lambda: hasse.SuiteResult(1, 0, 2, (), True),
    "hasse.SuiteResult.reports": lambda: hasse.SuiteResult(1, 0, (2,), [REPORT], True),
    "hasse.SuiteResult.reports_entry": lambda: hasse.SuiteResult(1, 0, (2,), (REPORT, "x"), True),
    "hasse.SuiteResult.complete": lambda: hasse.SuiteResult(1, 0, (2,), (REPORT,), 1),
    **{f"hasse.{fn.__name__}": (lambda fn=fn: fn(BAD)) for fn in hasse.CHECKS.values()},
}


@pytest.mark.parametrize("name", WRONG_KIND)
def test_wrong_kind_argument_raises_value_error(name):
    with pytest.raises(ValueError, match="must be (a [^AEIOU]|an [AEIOU])"):
        WRONG_KIND[name]()


# Each shape check of the public constructors and operations, with its
# message: (call, message).  The component orders of ``relabeled_universe``
# and the deck of a ``CoverData`` go through the one permutation check.
_HOPF = links.universe_from_braid(links.BraidWord(2, (1, 1)))
_I2 = zlattice.IntMatrix.identity(2)
BAD_SHAPE = {
    "LinkUniverse.shape": (
        lambda: links.LinkUniverse(("A", "K"), zlattice.IntMatrix([[0]])),
        "linking matrix shape does not match components",
    ),
    "LinkUniverse.axis": (
        lambda: links.LinkUniverse(("A", "K"), zlattice.IntMatrix([[0, 1], [1, 0]]), 2),
        "axis index out of range",
    ),
    "sublink.repeated": (
        lambda: ideles.meridian_subgroup(_HOPF, (1, 1)),
        "sublink has repeated components",
    ),
    "IntMatrix.ragged": (lambda: zlattice.IntMatrix([[1, 2], [3]]), "ragged rows"),
    "IntMatrix.cols": (
        lambda: zlattice.IntMatrix([[1, 2]], cols=3), "cols does not match row width"
    ),
    "IntMatrix.__matmul__": (
        lambda: _I2 @ zlattice.IntMatrix.identity(3), "shape mismatch: (2, 2) @ (3, 3)"
    ),
    "IntMatrix.apply": (
        lambda: _I2.apply((1,)), "vector length does not match column count"
    ),
    "IntMatrix.column.negative": (
        lambda: _I2.column(-1), "column index -1 is not a plain int in [0, 2)"
    ),
    "IntMatrix.column.bool": (
        lambda: _I2.column(True), "column index True is not a plain int in [0, 2)"
    ),
    "IntMatrix.column.cols": (
        lambda: _I2.column(2), "column index 2 is not a plain int in [0, 2)"
    ),
    "IntMatrix.column.no_rows": (
        lambda: zlattice.IntMatrix([], cols=2).column(2),
        "column index 2 is not a plain int in [0, 2)",
    ),
    "IntMatrix.det": (
        lambda: zlattice.IntMatrix([[1, 2]]).det(), "determinant of a non-square matrix"
    ),
    "SubLattice.from_columns": (
        lambda: zlattice.SubLattice.from_columns(2, [(1,)]),
        "column length does not match ambient rank",
    ),
    "preimage_lattice": (
        lambda: zlattice.preimage_lattice(_I2, zlattice.SubLattice.full(3)),
        "matrix rows must match target ambient rank",
    ),
    "quotient_invariants": (
        lambda: zlattice.quotient_invariants(3, zlattice.SubLattice.full(2)),
        "relations do not lie in the ambient group",
    ),
    "relabeled_universe.out_of_range": (
        lambda: links.relabeled_universe(_HOPF, (0, 1, 3)),
        "order (0, 1, 3) is not a permutation of 0..2",
    ),
    "relabeled_universe.not_an_int": (
        lambda: links.relabeled_universe(_HOPF, (2, (1,), 0)),
        "order (2, (1,), 0) is not a permutation of 0..2",
    ),
    "relabeled_universe.repeated": (
        lambda: links.relabeled_universe(_HOPF, (0, 0, 1)),
        "order (0, 0, 1) is not a permutation of 0..2",
    ),
    "relabeled_universe.bool": (
        lambda: links.relabeled_universe(_HOPF, (True, False, 2)),
        "order (True, False, 2) is not a permutation of 0..2",
    ),
    "CoverData.degree_float": (
        lambda: replaced(COVER, degree=2.5), "cover degree 2.5 is not a plain int"
    ),
    "CoverData.degree_bool": (
        lambda: replaced(COVER, degree=True), "cover degree True is not a plain int"
    ),
    "CoverData.splitting_short": (
        lambda: replaced(COVER, splitting=COVER.splitting[:1]),
        "splitting length 1 does not match 2 components",
    ),
    "CoverData.fiber_map_short": (
        lambda: replaced(COVER, fiber_map=(0, 1)), "fiber map length 2 does not match 3 components"
    ),
    "CoverData.fiber_map_range": (
        lambda: replaced(COVER, fiber_map=(0, 1, 2)),
        "fiber map entry 2 is not a base component 0..1",
    ),
    "CoverData.pushforward_short": (
        lambda: replaced(COVER, pushforward=COVER.pushforward[:2]),
        "pushforward length 2 does not match 3 components",
    ),
    "CoverData.deck_short": (
        # The deck of every sweep cover that moves its last component,
        # short of that entry, passed every check before it was refused.
        lambda: replaced(COVER, deck=(0, 2)), "deck length 2 does not match 3 components"
    ),
    "CoverData.deck_not_a_permutation": (
        lambda: replaced(COVER, deck=(0, 1, 1)), "deck (0, 1, 1) is not a permutation of 0..2"
    ),
    "SplitRecord.below_one": (
        lambda: covers.SplitRecord(0, 0, 1, 1, 1, 0),
        "split record e=1, d=1, w=1, r=0 must all be >= 1",
    ),
    "SuiteResult.bounds": (
        lambda: hasse.SuiteResult(1.0, 0, (2,), (), True), "bounds must be plain ints"
    ),
    "SuiteResult.degrees_repeated": (
        lambda: hasse.SuiteResult(1, 0, (2, 2), (), True), "names a degree more than once"
    ),
    "SplitRecord.d_not_e_times_w": (
        lambda: covers.SplitRecord(0, 1, 1, 2, 1, 1), "split record d=2 is not e*w = 1"
    ),
}


@pytest.mark.parametrize("name", BAD_SHAPE)
def test_bad_shape_raises_value_error_with_its_message(name):
    call, message = BAD_SHAPE[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
