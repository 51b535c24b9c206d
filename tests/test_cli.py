"""End-to-end CLI behavior: commands, formats, exit codes."""

import json

import pytest

from idelink import hasse
from idelink.cli import main
from idelink.hasse import CheckRecord


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


@pytest.fixture()
def hopf_scenario(tmp_path):
    path = tmp_path / "hopf.json"
    path.write_text(
        json.dumps(
            {"schema": 1, "braid": {"strands": 2, "word": [1, 1]}, "cover_degree": 2}
        )
    )
    return str(path)


class TestLift:
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

    def test_invalid_letter_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"schema": 1, "braid": {"strands": 2, "word": [5]}, "cover_degree": 2}
            )
        )
        assert main(["lift", "--input", str(path)]) == 2


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
            lambda cover: CheckRecord("always_red", False, 0.0, {"why": "test"}),
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

    def test_bad_schema_version(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(
            json.dumps(
                {"schema": 9, "braid": {"strands": 1, "word": []}, "cover_degree": 2}
            )
        )
        assert main(["verify", "--input", str(path)]) == 2


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
        for degree in (0, 13, 400):
            path = write_scenario(tmp_path, cover_degree=degree)
            assert_usage_error(command + ["--input", path], capsys)
        out = str(tmp_path / "ok.txt")
        path = write_scenario(tmp_path, cover_degree=12)
        assert main(command + ["--input", path, "--out", out]) == 0
        if command[0] == "delta":
            return  # delta has no --degree: it prints in the base universe
        for degree in ("0", "-3", "13", "400"):
            assert_usage_error(command + ["--input", scenario_file, "--degree", degree], capsys)
        assert main(command + ["--input", scenario_file, "--degree", "12", "--out", out]) == 0

    @pytest.mark.parametrize("command", [["lift"], ["delta", "1"], ["verify"]], ids=lambda c: c[0])
    def test_length_limit_on_every_command(self, command, tmp_path, capsys):
        path = write_scenario(tmp_path, braid={"strands": 2, "word": [1] * 9})
        assert_usage_error(command + ["--input", path], capsys)
        path = write_scenario(tmp_path, braid={"strands": 3, "word": [1, 2] * 4})
        assert main(command + ["--input", path, "--out", str(tmp_path / "ok.txt")]) == 0

    @pytest.mark.parametrize("command", [["lift"], ["delta", "1"], ["verify"]], ids=lambda c: c[0])
    def test_strand_limit_on_every_command(self, command, tmp_path, capsys):
        path = write_scenario(tmp_path, braid={"strands": 5, "word": [1, 2, 3, 4]})
        assert_usage_error(command + ["--input", path], capsys)
        path = write_scenario(tmp_path, braid={"strands": 4, "word": [1, 2, 3]})
        assert main(command + ["--input", path, "--out", str(tmp_path / "ok.txt")]) == 0


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
