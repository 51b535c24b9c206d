"""Command-line front end: lift, delta, verify, and suite.

Scenarios come from JSON files (see ``load_scenario`` for the schema).
Exit codes: 0 all requested checks pass, 1 verification failure,
2 usage or scenario-parse error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__
from .covers import CoverData, lift_braid
from .hasse import (
    CHECKS,
    count_scenarios,
    resolve_checks,
    run_scenario,
    run_suite,
    scenario_report_json,
)
from .ideles import SurfaceClass, _label_prefixes, diagonal_map
from .links import BraidWord, universe_from_braid

SCENARIO_SCHEMA = 1

# Documented resource limits, reported before any scenario runs.  Cover
# degree, word length and strands bound every command; scenario count
# bounds the suite.
MAX_DEGREE = 12
MAX_LENGTH = 8
MAX_STRANDS = 4
MAX_SUITE_SCENARIOS = 200_000


class ScenarioError(ValueError):
    """A scenario file failed validation; message names the bad field."""


@dataclass(frozen=True)
class Scenario:
    braid: BraidWord
    cover_degree: int
    checks: list[str] | None


def _expect(mapping: dict, key: str, types, where: str):
    if key not in mapping:
        raise ScenarioError(f"{where}: missing field {key!r}")
    value = mapping[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ScenarioError(f"{where}: field {key!r} has the wrong type")
    return value


def _resolve_checks(names: list[str], where: str) -> list[str]:
    """``resolve_checks`` with its error wrapped as a scenario error."""
    try:
        return resolve_checks(names)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def parse_scenario(data: object, where: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: top level must be a JSON object")
    known = {"schema", "braid", "cover_degree", "checks"}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"{where}: unknown fields {sorted(unknown)}")
    schema = _expect(data, "schema", int, where)
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(f"{where}: unsupported schema {schema}")
    braid_obj = _expect(data, "braid", dict, where)
    unknown = set(braid_obj) - {"strands", "word"}
    if unknown:
        raise ScenarioError(f"{where}.braid: unknown fields {sorted(unknown)}")
    strands = _expect(braid_obj, "strands", int, f"{where}.braid")
    if strands > MAX_STRANDS:
        raise ScenarioError(f"{where}.braid.strands: at most {MAX_STRANDS} strands")
    word = _expect(braid_obj, "word", list, f"{where}.braid")
    for i, g in enumerate(word):
        if not isinstance(g, int) or isinstance(g, bool):
            raise ScenarioError(f"{where}.braid.word[{i}]: letters must be integers")
    try:
        braid = BraidWord(strands, tuple(word))
    except ValueError as exc:
        raise ScenarioError(f"{where}.braid: {exc}") from exc
    if len(word) > MAX_LENGTH:
        raise ScenarioError(f"{where}.braid.word: at most {MAX_LENGTH} letters")
    degree = _expect(data, "cover_degree", int, where)
    if not 1 <= degree <= MAX_DEGREE:
        raise ScenarioError(f"{where}.cover_degree: must be in 1..{MAX_DEGREE}")
    checks = None
    if "checks" in data:
        raw = _expect(data, "checks", list, where)
        for i, name in enumerate(raw):
            if not isinstance(name, str):
                raise ScenarioError(f"{where}.checks[{i}]: names must be strings")
        checks = _resolve_checks(raw, f"{where}.checks")
    return Scenario(braid=braid, cover_degree=degree, checks=checks)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # Nesting past the recursion limit, or an integer past Python's digit limit.
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario(data, where=path)


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _format_lift(cover: CoverData, ascii_flag: bool) -> str:
    base = cover.spec.base
    total = cover.total
    mu, lam = _label_prefixes(ascii_flag)
    lines = [f"cover degree: {cover.spec.degree}"]

    def universe_block(title, u):
        lines.append(f"{title} ({u.size} components)")
        for i, name in enumerate(u.labels):
            tag = " axis" if i == u.axis_index else ""
            winding = "" if i == u.axis_index else f" winding={u.windings[i]}"
            row = " ".join(str(x) for x in u.linking.entries[i])
            lines.append(f"  {name}{tag}{winding}  lk-row: [{row}]")

    universe_block("base universe", base)
    universe_block("cover universe", total)
    lines.append("splitting (per base component)")
    lines.append("  component  a  b  e  d  w  r")
    for k, rec in enumerate(cover.splitting.records):
        lines.append(
            f"  {base.labels[k]:<9}  {rec.a}  {rec.b}  {rec.e}  {rec.d}  {rec.w}  {rec.r}"
        )
    lines.append("pushforward (per cover component)")
    for j in range(total.size):
        k = cover.fiber_map[j]
        m = cover.pushforward[j]
        jn, kn = total.labels[j], base.labels[k]
        mu_img = f"{m[0][0]}{mu}{kn}" if m[0][0] != 1 else f"{mu}{kn}"
        lam_terms = []
        if m[0][1]:
            c = m[0][1]
            lam_terms.append(f"{c}{mu}{kn}" if abs(c) != 1 else (f"-{mu}{kn}" if c < 0 else f"{mu}{kn}"))
        w = m[1][1]
        lam_terms.append(f"{w}{lam}{kn}" if w != 1 else f"{lam}{kn}")
        lines.append(f"  {mu}{jn} -> {mu_img};  {lam}{jn} -> {' + '.join(lam_terms)}")
    cycles = []
    seen = set()
    for j in range(total.size):
        if j in seen:
            continue
        cyc = [j]
        seen.add(j)
        t = cover.deck[j]
        while t not in seen:
            cyc.append(t)
            seen.add(t)
            t = cover.deck[t]
        cycles.append("(" + " ".join(total.labels[x] for x in cyc) + ")")
    lines.append("deck rotation: " + " ".join(cycles))
    return "\n".join(lines)


def _load(args) -> tuple[Scenario, int]:
    """The ``--input`` scenario and its cover degree, ``--degree`` applied, within limits."""
    scenario = load_scenario(args.input)
    if args.degree is None:
        return scenario, scenario.cover_degree
    if not 1 <= args.degree <= MAX_DEGREE:
        raise ScenarioError(f"--degree must be in 1..{MAX_DEGREE}")
    return scenario, args.degree


def cmd_lift(args) -> int:
    scenario, degree = _load(args)
    cover = lift_braid(scenario.braid, degree)
    _emit(_format_lift(cover, args.ascii), args.out)
    return 0


def cmd_delta(args) -> int:
    u = universe_from_braid(load_scenario(args.input).braid)
    coeffs = args.coefficients
    if args.full:
        if len(coeffs) != u.size:
            raise ScenarioError(
                f"expected {u.size} coefficients (all components), got {len(coeffs)}"
            )
        full = list(coeffs)
    else:
        non_axis = u.non_axis()
        if len(coeffs) != len(non_axis):
            raise ScenarioError(
                f"expected {len(non_axis)} coefficients (non-axis components), got {len(coeffs)}"
            )
        full = [0] * u.size
        for k, c in zip(non_axis, coeffs):
            full[k] = c
    s = SurfaceClass(tuple(range(u.size)), tuple(full))
    _emit(diagonal_map(u, s).format(u, ascii_labels=args.ascii), args.out)
    return 0


def _resolve_cli_checks(raw: str) -> list[str]:
    return _resolve_checks([c.strip() for c in raw.split(",") if c.strip()], "--checks")


def cmd_verify(args) -> int:
    scenario, degree = _load(args)
    checks = scenario.checks
    if args.checks is not None:
        checks = _resolve_cli_checks(args.checks)
    report = run_scenario(scenario.braid, degree, checks)
    if args.format == "json":
        _emit(json.dumps(scenario_report_json(report), indent=2, sort_keys=True), args.out)
    else:
        lines = [
            f"scenario: strands={scenario.braid.strands} "
            f"word={list(scenario.braid.letters)} degree={degree}"
        ]
        for rec in report.checks:
            status = "PASS" if rec.passed else "FAIL"
            lines.append(f"{status}  {rec.name}  ({rec.millis} ms)")
            if rec.witness is not None:
                lines.append(f"      witness: {json.dumps(rec.witness, sort_keys=True)}")
        lines.append("result: " + ("all checks passed" if report.passed else "FAILURES"))
        _emit("\n".join(lines), args.out)
    return 0 if report.passed else 1


def _parse_degrees(raw: str) -> tuple[int, ...]:
    try:
        degrees = tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError as exc:
        raise ScenarioError(f"--degrees: {exc}") from exc
    if not degrees:
        raise ScenarioError("--degrees: names no degree")
    if len(set(degrees)) != len(degrees):
        raise ScenarioError("--degrees: names a degree more than once")
    return degrees


def cmd_suite(args) -> int:
    degrees = _parse_degrees(args.degrees)
    if args.max_strands < 1 or args.max_strands > MAX_STRANDS:
        raise ScenarioError(f"--max-strands must be in 1..{MAX_STRANDS}")
    if args.max_length < 0 or args.max_length > MAX_LENGTH:
        raise ScenarioError(f"--max-length must be in 0..{MAX_LENGTH}")
    for n in degrees:
        if n < 1 or n > MAX_DEGREE:
            raise ScenarioError(f"--degrees entries must be in 1..{MAX_DEGREE}")
    planned = count_scenarios(args.max_strands, args.max_length, degrees)
    if planned > MAX_SUITE_SCENARIOS:
        raise ScenarioError(
            f"suite would run {planned} scenarios; limit is {MAX_SUITE_SCENARIOS}"
        )
    checks = None
    if args.checks is not None:
        checks = _resolve_cli_checks(args.checks)
    result = run_suite(args.max_strands, args.max_length, degrees, checks)
    doc = result.to_json_dict()
    summary = doc["summary"]
    sys.stdout.write(
        f"scenarios: {summary['scenarios']}  checks: {summary['checks']}  "
        f"passes: {summary['passes']}  failures: {summary['failures']}  "
        f"time: {summary['total_millis']} ms  [complete]\n"
    )
    if args.out is not None:
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    elif args.format == "json":
        _emit(json.dumps(doc, indent=2, sort_keys=True), None)
    return 0 if result.failure_count == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idelink",
        description="Exact lattice verification for cyclic branched covers of closed braids.",
    )
    parser.add_argument("--version", action="version", version=f"idelink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command declares only the flags it reads.
    flags = {
        "--input": dict(required=True, metavar="FILE", help="scenario JSON file"),
        "--degree": dict(type=int, default=None, metavar="N",
                         help="override the scenario's cover degree"),
        "--format": dict(choices=("json", "text"), default="text"),
        "--out": dict(default=None, metavar="FILE", help="write output to FILE"),
        "--ascii": dict(action="store_true", help="plain-text mu/lam labels instead of unicode"),
        "--checks": dict(default=None, metavar="LIST",
                         help=f"comma-separated check names (default all: {','.join(CHECKS)})"),
    }

    def add_flags(p, *names):
        for name in names:
            p.add_argument(name, **flags[name])

    p_lift = sub.add_parser("lift", help="print the lifted universe and covering data")
    add_flags(p_lift, "--input", "--degree", "--out", "--ascii")
    p_lift.set_defaults(func=cmd_lift)

    p_delta = sub.add_parser("delta", help="print the boundary of a surface class")
    add_flags(p_delta, "--input", "--out", "--ascii")
    p_delta.add_argument("coefficients", type=int, nargs="*", metavar="C",
                         help="surface coefficients, one per non-axis component")
    p_delta.add_argument("--full", action="store_true",
                         help="coefficients cover every component, axis included")
    p_delta.set_defaults(func=cmd_delta)

    p_verify = sub.add_parser("verify", help="run checks on one scenario")
    add_flags(p_verify, "--input", "--degree", "--format", "--out", "--checks")
    p_verify.set_defaults(func=cmd_verify)

    p_suite = sub.add_parser("suite", help="run checks over all braid words within bounds")
    add_flags(p_suite, "--format", "--out")
    p_suite.add_argument("--max-strands", type=int, required=True)
    p_suite.add_argument("--max-length", type=int, required=True)
    p_suite.add_argument("--degrees", required=True, metavar="LIST",
                         help="comma-separated cover degrees")
    add_flags(p_suite, "--checks")
    p_suite.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        sys.stderr.write(f"idelink: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"idelink: i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
