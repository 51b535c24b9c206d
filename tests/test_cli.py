"""End-to-end CLI behavior: commands, formats, exit codes."""

import hashlib
import json
import random
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idelink import __version__, cli, hasse
from idelink.cli import main
from idelink.ideles import IdeleVector
from idelink.links import universe_from_braid

from oracles import surface_boundary


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {"schema": 1, "braid": {"strands": 2, "word": [1]}, "cover_degree": 2}
        )
    )
    return str(path)


def write_scenario(tmp_path, **fields):
    doc = {"schema": 1, "braid": {"strands": 2, "word": [1]}, "cover_degree": 2}
    doc.update(fields)
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_usage_error(argv, capsys):
    """Exit 2 with a one-line ``idelink:`` message and nothing on stdout."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("idelink: ") and "Traceback" not in err
    return err


@pytest.fixture()
def hopf_scenario(tmp_path):
    path = tmp_path / "hopf.json"
    path.write_text(
        json.dumps(
            {"schema": 1, "braid": {"strands": 2, "word": [1, 1]}, "cover_degree": 2}
        )
    )
    return str(path)


LIFT_SIGMA1_DEGREE_2 = """\
cover degree: 2
base universe (2 components)
  A axis  lk-row: [0 2]
  K1 winding=2  lk-row: [2 0]
cover universe (3 components)
  A~ axis  lk-row: [0 1 1]
  J1 winding=1  lk-row: [1 0 1]
  J2 winding=1  lk-row: [1 1 0]
splitting (per base component)
  component  a  b  e  d  w  r
  A          1  0  2  2  1  1
  K1         0  0  1  1  1  2
pushforward (per cover component)
  μ_A~ -> 2μ_A;  λ_A~ -> λ_A
  μ_J1 -> μ_K1;  λ_J1 -> μ_K1 + λ_K1
  μ_J2 -> μ_K1;  λ_J2 -> μ_K1 + λ_K1
deck rotation: (A~) (J1 J2)
"""

# c = -3 on J1 and J2; K1 has w = 3 and r = 2, K2 has w = 6.
LIFT_THREE_STRAND_DEGREE_6 = """\
cover degree: 6
base universe (3 components)
  A axis  lk-row: [0 2 1]
  K1 winding=2  lk-row: [2 0 1]
  K2 winding=1  lk-row: [1 1 0]
cover universe (4 components)
  A~ axis  lk-row: [0 1 1 1]
  J1 winding=1  lk-row: [1 0 -3 3]
  J2 winding=1  lk-row: [1 -3 0 3]
  J3 winding=1  lk-row: [1 3 3 0]
splitting (per base component)
  component  a  b  e  d  w  r
  A          1  0  6  6  1  1
  K1         0  2  1  3  3  2
  K2         0  1  1  6  6  1
pushforward (per cover component)
  μ_A~ -> 6μ_A;  λ_A~ -> λ_A
  μ_J1 -> μ_K1;  λ_J1 -> -3μ_K1 + 3λ_K1
  μ_J2 -> μ_K1;  λ_J2 -> -3μ_K1 + 3λ_K1
  μ_J3 -> μ_K2;  λ_J3 -> 6λ_K2
deck rotation: (A~) (J1 J2) (J3)
"""


# Every ``lift`` text of the words with <=4 strands and <=4 letters, at
# degrees 1-12, in both alphabets, each followed by a newline, in suite
# order: 1,928 words, 46,272 texts.
LIFT_SHA256 = "e7c31c6e832ee9c1b0e595f9167ce6bd1090e65599142a0715b7f59a0e93ee81"


class TestLift:
    def test_every_small_lift_is_pinned(self, small_lifts):
        # The bytes of every lift the CLI prints for these words: a
        # changed linking row, label order, splitting record, pushforward
        # pair or deck cycle changes the digest.
        digest = hashlib.sha256()
        count = 0
        for _, _, c in small_lifts:
            for ascii_flag in (False, True):
                digest.update(cli._format_lift(c, ascii_flag).encode() + b"\n")
                count += 1
        assert count == 46272
        assert digest.hexdigest() == LIFT_SHA256

    def test_prints_splitting_table(self, scenario_file, capsys):
        assert main(["lift", "--input", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "J1" in out and "J2" in out
        assert "deck rotation: (A~) (J1 J2)" in out
        assert "μ_J1" in out

    def test_degree_override_and_ascii(self, scenario_file, capsys):
        assert main(["lift", "--input", scenario_file, "--degree", "3", "--ascii"]) == 0
        out = capsys.readouterr().out
        assert "lam_J1 -> 3lam_K1" in out
        assert "μ" not in out

    def test_out_file(self, scenario_file, tmp_path):
        target = tmp_path / "lift.txt"
        assert main(["lift", "--input", scenario_file, "--out", str(target)]) == 0
        assert "deck rotation" in target.read_text()

    @pytest.mark.parametrize("ascii_flag", [False, True])
    @pytest.mark.parametrize("braid, degree, expected", [
        ({"strands": 2, "word": [1]}, 2, LIFT_SIGMA1_DEGREE_2),
        ({"strands": 3, "word": [2, 2, -1]}, 6, LIFT_THREE_STRAND_DEGREE_6),
    ])
    def test_whole_output(self, braid, degree, expected, ascii_flag, tmp_path, capsys):
        # --ascii changes only the idele coordinate prefixes.
        if ascii_flag:
            expected = expected.replace("μ_", "mu_").replace("λ_", "lam_")
        path = write_scenario(tmp_path, braid=braid, cover_degree=degree)
        argv = ["lift", "--input", path] + (["--ascii"] if ascii_flag else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_invalid_letter_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"schema": 1, "braid": {"strands": 2, "word": [5]}, "cover_degree": 2}
            )
        )
        assert main(["lift", "--input", str(path)]) == 2


# Every ``delta`` output of TestDelta.test_seeded_classes_are_pinned, in order.
DELTA_SHA256 = "abdc3a7b5b3f2f189f351aecbdb5b81d6140c0b85242351dda2d45dcecb6d10d"


class TestDelta:
    def test_hopf_generator(self, hopf_scenario, capsys):
        assert main(["delta", "--input", hopf_scenario, "1", "0"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "-μ_A + λ_K1 - μ_K2"

    def test_zero_class(self, hopf_scenario, capsys):
        assert main(["delta", "--input", hopf_scenario, "0", "0"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_winding_two(self, scenario_file, capsys):
        assert main(["delta", "--input", scenario_file, "--ascii", "1"]) == 0
        assert capsys.readouterr().out.strip() == "-2*mu_A + lam_K1"

    def test_full_flag(self, scenario_file, capsys):
        assert main(["delta", "--input", scenario_file, "--full", "1", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "-2·μ_A + λ_A - 2·μ_K1 + λ_K1"

    def test_wrong_count_rejected(self, hopf_scenario):
        assert main(["delta", "--input", hopf_scenario, "1"]) == 2
        assert main(["delta", "--input", hopf_scenario, "--full", "1"]) == 2

    def test_seeded_classes_are_pinned(self, tmp_path, capsys):
        # 300 words drawn from those with <=4 strands and <=4 letters, one
        # class each, coefficients in -3..3 on every component or on the
        # non-axis ones, printed in both alphabets: a changed generator
        # row, label, sign or term order changes the digest.
        rng = random.Random(13)
        path = tmp_path / "delta.json"
        digest = hashlib.sha256()
        for b in rng.sample(list(hasse.iter_braid_words(4, 4)), 300):
            doc = {"schema": 1, "braid": {"strands": b.strands, "word": list(b.letters)}, "cover_degree": 2}
            path.write_text(json.dumps(doc))
            full = rng.random() < 0.5
            size = universe_from_braid(b).size
            coeffs = [str(rng.randint(-3, 3)) for _ in range(size if full else size - 1)]
            for ascii_flag in (False, True):
                argv = ["delta", "--input", str(path)] + ["--ascii"] * ascii_flag
                assert main(argv + ["--full"] * full + ["--"] + coeffs) == 0
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == DELTA_SHA256


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("strands", [1, 2, 3])
def test_delta_sums_to_the_oracle_boundary(strands, full, tmp_path, capsys, monkeypatch):
    # Every universe of <=3 strands and length <=4, three seeded classes
    # each: delta's coefficients are the oracle's boundary of the class,
    # built from the linking matrix, and it prints their format().
    seen = []

    class Recording(IdeleVector):
        def __init__(self, components, coeffs):
            super().__init__(components, coeffs)
            seen.append((self.components, self.coeffs))

    monkeypatch.setattr(cli, "IdeleVector", Recording)
    rng = random.Random(strands)
    path = tmp_path / "delta.json"
    words = [b for b in hasse.iter_braid_words(strands, 4) if b.strands == strands]
    for b in words:
        u = universe_from_braid(b)
        doc = {"schema": 1, "braid": {"strands": strands, "word": list(b.letters)}, "cover_degree": 2}
        path.write_text(json.dumps(doc))
        for trial in range(3):
            ascii_labels = trial == 1
            coeffs = [rng.randint(-3, 3) for _ in range(u.size)]
            if full:
                argv = ["--full", "--"] + [str(x) for x in coeffs]
            else:
                coeffs[u.axis_index] = 0
                argv = ["--"] + [str(coeffs[k]) for k in u.non_axis()]
            argv = ["delta", "--input", str(path)] + ["--ascii"] * ascii_labels + argv
            assert main(argv) == 0
            expected = IdeleVector(
                tuple(range(u.size)), surface_boundary(u, range(u.size), coeffs)
            )
            assert seen.pop() == (expected.components, expected.coeffs)
            assert capsys.readouterr().out == expected.format(u, ascii_labels) + "\n"
    assert len(words) == {1: 1, 2: 31, 3: 341}[strands]


class TestVerify:
    def test_text_output_passes(self, scenario_file, capsys):
        assert main(["verify", "--input", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "result: all checks passed" in out
        for name in hasse.CHECKS:
            assert f"PASS  {name}" in out

    def test_json_output(self, scenario_file, capsys):
        assert main(["verify", "--input", scenario_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == set(hasse.CHECKS)

    def test_checks_subset(self, scenario_file, capsys):
        assert (
            main(
                [
                    "verify",
                    "--input",
                    scenario_file,
                    "--checks",
                    "norm_principle,meridian_pushforward",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["checks"]] == [
            "norm_principle",
            "meridian_pushforward",
        ]

    def test_unknown_check_rejected(self, scenario_file):
        assert main(["verify", "--input", scenario_file, "--checks", "bogus"]) == 2

    def test_repeated_check_rejected(self, scenario_file, capsys):
        checks = "norm_principle,norm_principle"
        assert_usage_error(["verify", "--input", scenario_file, "--checks", checks], capsys)

    def test_repeated_scenario_check_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path, checks=["norm_principle", "norm_principle"])
        assert_usage_error(["verify", "--input", path], capsys)

    def test_empty_check_list_rejected(self, scenario_file, tmp_path, capsys):
        for raw in (",", "", " , "):
            assert_usage_error(["verify", "--input", scenario_file, "--checks", raw], capsys)
        assert_usage_error(["verify", "--input", write_scenario(tmp_path, checks=[])], capsys)

    def test_scenario_checks_field(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "braid": {"strands": 1, "word": []},
                    "cover_degree": 2,
                    "checks": ["norm_principle"],
                }
            )
        )
        assert main(["verify", "--input", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["checks"]] == ["norm_principle"]

    def test_failure_exit_code(self, scenario_file, monkeypatch):
        monkeypatch.setitem(
            hasse.CHECKS,
            "always_red",
            lambda cover: (False, {"why": "test"}),
        )
        assert main(["verify", "--input", scenario_file, "--checks", "always_red"]) == 1

    def test_determinism_modulo_timing(self, scenario_file, capsys):
        main(["verify", "--input", scenario_file, "--format", "json"])
        first = json.loads(capsys.readouterr().out)
        main(["verify", "--input", scenario_file, "--format", "json"])
        second = json.loads(capsys.readouterr().out)
        for doc in (first, second):
            for check in doc["checks"]:
                check["millis"] = 0
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_missing_file_is_io_error(self):
        assert main(["verify", "--input", "/no/such/file.json"]) == 3

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["verify", "--input", str(path)]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",
            b"[" * 100_000 + b"]" * 100_000,
            b'{"schema": 1, "braid": {"strands": 2, "word": [1]}, "cover_degree": '
            + b"1" * 5000
            + b"}",
        ],
        ids=["not-utf8", "nested-too-deep", "integer-past-digit-limit"],
    )
    def test_undecodable_file_is_parse_error(self, content, tmp_path, capsys):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        assert_usage_error(["verify", "--input", str(path)], capsys)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "braid": {"strands": 1, "word": []},
                    "cover_degree": 2,
                    "surprise": True,
                }
            )
        )
        assert main(["verify", "--input", str(path)]) == 2
        assert main(["verify", "--input", write_scenario(tmp_path, options={})]) == 2

    def test_unknown_braid_field_rejected(self, tmp_path, capsys):
        braid = {"strands": 2, "word": [1], "wrod": [1, 1, 1]}
        path = write_scenario(tmp_path, braid=braid)
        assert main(["verify", "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("idelink: ")
        assert f"{path}.braid: unknown fields ['wrod']" in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"braid": {"strands": 2, "word": ["a"]}}, "braid.word[0]: letters must be integers"),
            ({"checks": [1]}, "checks[0]: names must be strings"),
        ],
        ids=["word-letter-not-an-integer", "check-name-not-a-string"],
    )
    def test_field_of_the_wrong_type_rejected(self, fields, message, tmp_path, capsys):
        err = assert_usage_error(["verify", "--input", write_scenario(tmp_path, **fields)], capsys)
        assert message in err

    def test_bad_schema_version(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(
            json.dumps(
                {"schema": 9, "braid": {"strands": 1, "word": []}, "cover_degree": 2}
            )
        )
        assert main(["verify", "--input", str(path)]) == 2


def _frozen_clock(monkeypatch):
    """Every check takes 0.0 ms, so whole reports are reproducible byte for byte."""
    monkeypatch.setattr(hasse, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))


def _failing_norm_principle(monkeypatch):
    monkeypatch.setitem(
        hasse.CHECKS, "norm_principle", lambda cover: (False, {"vector": [1, -2], "why": "test"})
    )


VERIFY_FAILURE_JSON = f"""\
{{
  "checks": [
    {{
      "millis": 0.0,
      "name": "norm_principle",
      "verdict": "fail",
      "witness": {{
        "vector": [
          1,
          -2
        ],
        "why": "test"
      }}
    }}
  ],
  "passed": false,
  "scenario": {{
    "degree": 2,
    "strands": 2,
    "word": [
      1
    ]
  }},
  "schema": 1,
  "version": "{__version__}"
}}
"""

# The same check record inside a suite report, four levels deeper.
SUITE_FAILURE_RECORD = """\
        {
          "millis": 0.0,
          "name": "norm_principle",
          "verdict": "fail",
          "witness": {
            "vector": [
              1,
              -2
            ],
            "why": "test"
          }
        }
"""


class TestWitnessReports:
    def test_verify_json_serializes_the_witness(self, scenario_file, monkeypatch, capsys):
        _frozen_clock(monkeypatch)
        _failing_norm_principle(monkeypatch)
        argv = ["verify", "--input", scenario_file, "--checks", "norm_principle",
                "--format", "json"]
        assert main(argv) == 1
        assert capsys.readouterr().out == VERIFY_FAILURE_JSON

    def test_suite_report_serializes_the_witness(self, tmp_path, monkeypatch, capsys):
        _frozen_clock(monkeypatch)
        _failing_norm_principle(monkeypatch)
        out_path = tmp_path / "report.json"
        argv = ["suite", "--max-strands", "1", "--max-length", "0", "--degrees", "2",
                "--checks", "norm_principle", "--out", str(out_path)]
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            "scenarios: 1  checks: 1  passes: 0  failures: 1  time: 0.0 ms  [complete]\n"
        )
        assert SUITE_FAILURE_RECORD in out_path.read_text()


class TestSuite:
    def test_summary_and_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        rc = main(
            [
                "suite",
                "--max-strands",
                "2",
                "--max-length",
                "2",
                "--degrees",
                "2,3",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        summary_line = capsys.readouterr().out
        assert "failures: 0" in summary_line and "[complete]" in summary_line
        doc = json.loads(out_path.read_text())
        assert doc["summary"]["scenarios"] == len(doc["scenarios"])
        recounted = sum(len(s["checks"]) for s in doc["scenarios"])
        assert recounted == doc["summary"]["checks"]

    def test_round_trip_report_matches_summary(self, tmp_path):
        out_path = tmp_path / "r.json"
        main(
            [
                "suite",
                "--max-strands",
                "2",
                "--max-length",
                "1",
                "--degrees",
                "2",
                "--out",
                str(out_path),
            ]
        )
        doc = json.loads(out_path.read_text())
        passes = sum(
            1 for s in doc["scenarios"] for c in s["checks"] if c["verdict"] == "pass"
        )
        assert passes == doc["summary"]["passes"]

    def test_json_to_stdout_matches_out_file(self, tmp_path, monkeypatch, capsys):
        _frozen_clock(monkeypatch)
        bounds = ["suite", "--max-strands", "2", "--max-length", "1", "--degrees", "2,3"]
        out_path = tmp_path / "report.json"
        assert main(bounds + ["--out", str(out_path)]) == 0
        summary_line = capsys.readouterr().out
        assert main(bounds + ["--format", "json"]) == 0
        printed = capsys.readouterr().out
        assert printed == summary_line + out_path.read_text()
        assert printed.endswith("}\n")

    def test_bounds_rejected_before_running(self, capsys):
        assert main(["suite", "--max-strands", "9", "--max-length", "1", "--degrees", "2"]) == 2
        assert main(["suite", "--max-strands", "2", "--max-length", "99", "--degrees", "2"]) == 2
        assert main(["suite", "--max-strands", "2", "--max-length", "1", "--degrees", "0"]) == 2
        assert main(["suite", "--max-strands", "4", "--max-length", "8", "--degrees",
                     ",".join(str(d) for d in range(2, 13))]) == 2

    def test_empty_degthan_list_runs_nothing(self, capsys):
        bounds = ["suite", "--max-strands", "2", "--max-length", "1"]
        assert_usage_error(bounds + ["--degrees", ","], capsys)
        assert_usage_error(bounds + ["--degrees", "2", "--checks", ","], capsys)

    def test_repeated_degree_rejected(self, capsys):
        bounds = ["suite", "--max-strands", "1", "--max-length", "0"]
        assert_usage_error(bounds + ["--degrees", "2,2"], capsys)
        assert_usage_error(bounds + ["--degrees", "2,3,2"], capsys)

    def test_repeated_check_rejected(self, capsys):
        bounds = ["suite", "--max-strands", "1", "--max-length", "0", "--degrees", "2"]
        assert_usage_error(bounds + ["--checks", "norm_principle,norm_principle"], capsys)

    def test_degree_that_is_not_an_integer_rejected(self, capsys):
        bounds = ["suite", "--max-strands", "1", "--max-length", "0"]
        err = assert_usage_error(bounds + ["--degrees", "2,x"], capsys)
        assert "--degrees: invalid literal" in err

    def test_unwritable_out_is_io_error(self, capsys):
        rc = main(
            [
                "suite",
                "--max-strands",
                "1",
                "--max-length",
                "0",
                "--degrees",
                "2",
                "--out",
                "/no/such/dir/report.json",
            ]
        )
        assert rc == 3


class TestLimits:
    # delta needs one coefficient per non-axis component: every braid
    # below closes up to a single knot.
    @pytest.mark.parametrize("command", [["lift"], ["delta", "1"], ["verify"]], ids=lambda c: c[0])
    def test_degree_limits_on_every_command(self, command, scenario_file, tmp_path, capsys):
        # One message for a degree below the limit and above it.
        errs = set()
        for degree in (0, -3, 13, 400):
            path = write_scenario(tmp_path, cover_degree=degree)
            errs.add(assert_usage_error(command + ["--input", path], capsys))
        assert errs == {f"idelink: {path}.cover_degree: must be in 1..12\n"}
        out = str(tmp_path / "ok.txt")
        path = write_scenario(tmp_path, cover_degree=12)
        assert main(command + ["--input", path, "--out", out]) == 0
        if command[0] == "delta":
            return  # delta has no --degree: it prints in the base universe
        errs = {
            assert_usage_error(command + ["--input", scenario_file, "--degree", degree], capsys)
            for degree in ("0", "-3", "13", "400")
        }
        assert errs == {"idelink: --degree must be in 1..12\n"}
        assert main(command + ["--input", scenario_file, "--degree", "12", "--out", out]) == 0

    def test_degree_limit_on_suite(self, capsys):
        bounds = ["suite", "--max-strands", "1", "--max-length", "0", "--degrees"]
        for degrees in ("13", "2,13", "0", "-1", "2,-3", "400"):
            err = assert_usage_error(bounds + [degrees], capsys)
            assert err == "idelink: --degrees entries must be in 1..12\n"
        assert main(bounds + ["12"]) == 0
        assert capsys.readouterr().out.startswith("scenarios: 1 ")

    @pytest.mark.parametrize("command", [["lift"], ["delta", "1"], ["verify"]], ids=lambda c: c[0])
    def test_length_limit_on_every_command(self, command, tmp_path, capsys):
        path = write_scenario(tmp_path, braid={"strands": 2, "word": [1] * 9})
        assert_usage_error(command + ["--input", path], capsys)
        # The length is checked before any letter is.
        path = write_scenario(tmp_path, braid={"strands": 2, "word": [1] * 52 + [7]})
        err = assert_usage_error(command + ["--input", path], capsys)
        assert "at most 8 letters" in err
        path = write_scenario(tmp_path, braid={"strands": 3, "word": [1, 2] * 4})
        assert main(command + ["--input", path, "--out", str(tmp_path / "ok.txt")]) == 0

    @pytest.mark.parametrize("command", [["lift"], ["delta", "1"], ["verify"]], ids=lambda c: c[0])
    def test_strand_limit_on_every_command(self, command, tmp_path, capsys):
        path = write_scenario(tmp_path, braid={"strands": 5, "word": [1, 2, 3, 4]})
        assert_usage_error(command + ["--input", path], capsys)
        path = write_scenario(tmp_path, braid={"strands": 4, "word": [1, 2, 3]})
        assert main(command + ["--input", path, "--out", str(tmp_path / "ok.txt")]) == 0


class TestIntegerLiterals:
    """Integer arguments are ASCII digits after at most one ``-``, though ``int`` reads more."""

    # Each of these is an int() literal for 12, 3 or 1.
    NOT_DIGITS = ["1_2", "\u0663", "\u0661\u0662", "+3", "\uff11"]

    @pytest.mark.parametrize("literal", NOT_DIGITS + [" 3", "3\n"], ids=ascii)
    def test_integer_arguments_refuse(self, literal, scenario_file, capsys):
        suite = ["suite", "--degrees", "2"]
        for argv in (
            ["lift", "--input", scenario_file, "--degree", literal],
            ["verify", "--input", scenario_file, "--degree", literal],
            ["delta", "--input", scenario_file, literal],
            suite + ["--max-strands", literal, "--max-length", "0"],
            suite + ["--max-strands", "1", "--max-length", literal],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage: idelink")
            assert f"not an integer of ASCII digits: {literal!r}" in err

    @pytest.mark.parametrize("literal", NOT_DIGITS, ids=ascii)
    def test_degrees_entries_refuse(self, literal, capsys):
        bounds = ["suite", "--max-strands", "1", "--max-length", "0", "--degrees"]
        for degrees in (literal, f"2,{literal}", f"{literal},2"):
            err = assert_usage_error(bounds + [degrees], capsys)
            assert err == (
                f"idelink: --degrees: invalid literal {literal!r}: not an integer of ASCII digits\n"
            )

    def test_plain_literals_still_read(self, scenario_file, capsys):
        assert main(["delta", "--input", scenario_file, "-3"]) == 0
        assert main(["lift", "--input", scenario_file, "--degree", "03"]) == 0
        assert capsys.readouterr().out.count("cover degree: 3\n") == 1
        # Space around a --degrees entry is not part of its literal.
        assert main(["suite", "--max-strands", "1", "--max-length", "0", "--degrees", " 2, 3 "]) == 0
        assert capsys.readouterr().out.startswith("scenarios: 2 ")


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "--input", None, "--format", "json"],
        ["delta", "--input", None, "--format", "json", "1"],
        ["delta", "--input", None, "--degree", "3", "1"],
        ["verify", "--input", None, "--ascii"],
        ["suite", "--max-strands", "1", "--max-length", "0", "--degrees", "2", "--ascii"],
    ],
    ids=["lift-format", "delta-format", "delta-degree", "verify-ascii", "suite-ascii"],
)
def test_flag_the_command_does_not_read_is_usage_error(argv, scenario_file):
    with pytest.raises(SystemExit) as exc:
        main([scenario_file if a is None else a for a in argv])
    assert exc.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing --input
    assert exc.value.code == 2


# Random scenario documents: valid ones up to the limits, wrong types and
# values in every field, arbitrary JSON, and arbitrary bytes.
_valid_braid = st.integers(1, 4).flatmap(
    lambda k: st.fixed_dictionaries(
        {
            "strands": st.just(k),
            "word": st.lists(st.sampled_from([g for g in range(1 - k, k) if g]), max_size=8)
            if k > 1
            else st.just([]),
        }
    )
)
_valid_document = st.fixed_dictionaries(
    {"schema": st.just(1), "braid": _valid_braid, "cover_degree": st.integers(1, 12)},
    optional={"checks": st.lists(st.sampled_from(list(hasse.CHECKS)), min_size=1, unique=True)},
)
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-20, 20), st.floats(), st.text(max_size=5)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=6), kids, max_size=4)
    ),
    max_leaves=12,
)
_braid = st.one_of(
    st.fixed_dictionaries(
        {"strands": st.integers(1, 4), "word": st.lists(st.integers(-3, 3), max_size=8)}
    ),
    st.fixed_dictionaries(
        {"strands": st.integers(-1, 6), "word": st.lists(st.integers(-6, 6), max_size=10)},
        optional={"extra": _json},
    ),
    _json,
)
_document = st.fixed_dictionaries(
    {
        "schema": st.one_of(st.just(1), _json),
        "braid": _braid,
        "cover_degree": st.one_of(st.integers(-1, 14), _json),
    },
    optional={
        "checks": st.one_of(st.lists(st.sampled_from([*hasse.CHECKS, "nope"]), max_size=7), _json),
        "extra": _json,
    },
)
_contents = st.one_of(
    _valid_document.map(lambda d: json.dumps(d).encode()),
    _document.map(lambda d: json.dumps(d).encode()),
    _json.map(lambda d: json.dumps(d).encode()),
    st.text(max_size=40).map(str.encode),
    st.binary(max_size=40),
)


@st.composite
def _command(draw):
    """argv after ``--input FILE``: lift, verify or delta with flags they read."""
    command = draw(st.sampled_from(["lift", "verify", "delta"]))
    if command == "delta":
        flags = ["--full"] if draw(st.booleans()) else []
        flags += ["--ascii"] if draw(st.booleans()) else []
        return command, flags + [str(c) for c in draw(st.lists(st.integers(-3, 3), max_size=4))]
    degree = draw(st.one_of(st.none(), st.integers(-2, 14)))
    flags = [] if degree is None else ["--degree", str(degree)]
    if command == "verify":
        flags += ["--format", draw(st.sampled_from(["text", "json"]))]
    elif draw(st.booleans()):
        flags.append("--ascii")
    return command, flags


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(contents=_contents, command=_command())
def test_random_scenario_documents_never_crash(contents, command, tmp_path, capsys):
    path = tmp_path / "fuzz.json"
    path.write_bytes(contents)
    name, flags = command
    rc = main([name, "--input", str(path), *flags])
    _, err = capsys.readouterr()
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err
