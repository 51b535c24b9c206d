"""idelink benchmark: one closed loop, one client, one item at a time.

Usage:
  python3 perfbench/run.py --workload sweep3|wide4|lattice|all --seed N
                           [--seconds S] [--trace 0|1]

With ``--trace 0`` each workload runs in one child process for about S
seconds, in whole passes (see workloads.py), preceded by SETUP_SAMPLES
fresh interpreters that time ``import idelink`` plus the first item.
It prints every end-to-end metric by name and unit, with times
calibrated against a reference loop (calibrate.py) and the raw values
beside them.  With ``--trace 1`` it runs one untraced and one traced
pass (two children) and prints the per-layer metrics, including the
tracing overhead.  Every output is
checked against a known answer; a wrong verdict, invariant or report
digest makes the exit code 1.  The last line of stdout is the JSON
result; a copy with the machine stamp is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEADLINE = time.monotonic() + 170  # children are killed past this; the run stays under 180 s

sys.path.insert(0, HERE)
import spec  # noqa: E402
from calibrate import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def child(args) -> str:
    """Run a child interpreter to completion; return its last stdout line."""
    # Bytecode caches go to perfbench/out, so set-up times read cached
    # bytecode whatever the caller's environment says, and src/ stays as is.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, DEADLINE - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and calibrated set-up times; interpreter j runs item j of pass 0."""
    probe = [os.path.join(HERE, "setup_probe.py"), SRC, workload, str(seed)]
    child(probe + ["0"])  # untimed: writes bytecode caches on a fresh checkout
    raw, calibrated = [], []
    for j in range(spec.SETUP_SAMPLES):
        setup, ref = map(float, child(probe + [str(j)]).split())
        raw.append(setup)
        calibrated.append(setup * NOMINAL_S / ref)
    return raw, calibrated


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    raw_setup, setup = setup_seconds(workload, seed)
    r = json.loads(child([os.path.join(HERE, "child.py"), "measure", SRC, workload, str(seed), str(seconds), "0"]))
    metrics = {name: r[name] for name in ("items_per_s", "item_ms.p50", "wall_s")}
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = r["peak_rss_mb"]
    r["raw"]["setup_s"] = statistics.median(raw_setup)
    if r["tracing_loaded"]:
        r["errors"].append("the untraced run loaded tracing code")
    r["setup_samples"] = raw_setup
    return metrics, r


def layer_metrics(t: dict, untraced_wall: float) -> dict:
    s = t["summary"]
    calls, incl, self_s = s["calls"], s["incl"], s["self"]
    entries_in, max_bits = t["counts"][2], t["counts"][3]
    out = {}
    kernel_calls = 0
    for f in ("col_hnf", "col_hnf_with_kernel", "smith"):
        out[f"kernel.{f}.calls"] = calls.get(f"kernel.{f}", 0)
        out[f"kernel.{f}.s"] = incl.get(f"kernel.{f}", 0.0)
        kernel_calls += out[f"kernel.{f}.calls"]
    out["kernel.s"] = sum(out[f"kernel.{f}.s"] for f in ("col_hnf", "col_hnf_with_kernel", "smith"))
    out["kernel.share"] = out["kernel.s"] / s["item_s"]
    out["kernel.max_entry_bits"] = max_bits
    out["kernel.entries_in"] = entries_in
    smith = out["kernel.smith.calls"]
    out["kernel.smith.transform_use_ratio"] = s["smith_kept"] / smith if smith else 0.0
    for name, unit, _, _ in spec.PER_LAYER:
        if name in out:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(base, 0)
        elif kind == "s" and base in incl:
            out[name] = incl[base]
        elif kind == "s" and unit == "s":
            out[name] = 0.0
    out["zlattice.self_s"] = sum(v for k, v in self_s.items() if k.startswith("zlattice."))
    out["zlattice.IntMatrix.new"] = t["counts"][0]
    out["zlattice.from_columns_per_kernel_call"] = (
        calls.get("zlattice.from_columns", 0) / kernel_calls if kernel_calls else 0.0
    )
    out["ideles.IdeleVector.new"] = t["counts"][1]
    out["hasse.run_scenario.self_s"] = self_s.get("hasse.run_scenario", 0.0)
    out["hasse.report.s"] = incl.get("hasse.report", 0.0)
    out["hasse.report.bytes"] = t["report_bytes"]
    out["covers.pushforward.s"] = s["pushforward_s"]
    out["trace.spans"] = s["spans"]
    out["trace.item_s"] = s["item_s"]
    out["trace.overhead_s"] = t["wall_s"] - untraced_wall
    out["trace.overhead_ratio"] = out["trace.overhead_s"] / untraced_wall
    expected = [name for name, *_ in spec.PER_LAYER]
    if sorted(out) != sorted(expected):
        raise KeyError(f"per-layer metrics differ from spec: {sorted(set(out) ^ set(expected))}")
    return {name: out[name] for name in expected}


def run_traced(workload: str, seed: int) -> tuple[dict, dict]:
    u = json.loads(child([os.path.join(HERE, "child.py"), "measure", SRC, workload, str(seed), "0", "1"]))
    prefix = os.path.join(OUT, f"spans-{workload}")
    t = json.loads(child([os.path.join(HERE, "child.py"), "trace", SRC, workload, str(seed), prefix]))
    untraced_wall = u["wall_s"]
    metrics = layer_metrics(t, untraced_wall)
    if u["tracing_loaded"]:
        t["errors"].append("the untraced run loaded tracing code")
    t["errors"] += u["errors"]
    t["items"] += u["items"]
    t["failed"] += u["failed"]
    t["digest_ok"] = t["digest_ok"] and u["digest_ok"]
    t["untraced_wall_s"] = untraced_wall
    return metrics, t


def stamp(seed: int, backends: set) -> dict:
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "idelink")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src_hash.update(name.encode() + b"\0" + f.read())
    return {
        "kernel_backend": sorted(backends),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "idelink", "__init__.py")):
        print(f"perfbench: no idelink sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER + spec.REPORTED}
    all_metrics, details = {}, {}
    attempted = failed = 0
    correct = True
    for w in workloads:
        try:
            if args.trace:
                metrics, detail = run_traced(w, args.seed)
            else:
                metrics, detail = run_untraced(w, args.seed, args.seconds)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"perfbench: {w} did not complete: {exc}", file=sys.stderr)
            return 1
        attempted += detail["items"]
        failed += detail["failed"]
        ok = detail["failed"] == 0 and detail["digest_ok"] and not detail["errors"]
        correct = correct and ok
        details[w] = detail
        for e in detail["errors"]:
            print(f"{w} ERROR {e}")
        if not args.trace:
            print(f"{w} failed_ratio {detail['failed'] / detail['items']:.6g} ratio "
                  f"({detail['failed']} of {detail['items']} items)")
            print(f"{w} item_ms.p99 {detail['item_ms.p99']:.6g} ms (reported, no bound)")
            print(f"{w} samples {detail['items']} items in {detail['passes']} passes, "
                  f"{detail['beyond_p99']} beyond p99; setup {len(detail['setup_samples'])} interpreters; "
                  f"{detail['calibration_samples']} calibrations, median {detail['reference_s'] * 1e3:.3f} ms")
            for name, value in detail["raw"].items():
                if name in units:
                    print(f"{w} raw {name} {value:.6g} {units[name]}")
        for name, value in metrics.items():
            print(f"{w} {name} {value:.6g} {units[name]}")
            all_metrics[name if len(workloads) == 1 else f"{w}.{name}"] = {"value": value, "unit": units[name]}

    st = stamp(args.seed, {d["backend"] for d in details.values()})
    print("stamp " + json.dumps(st, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": all_metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump({**result, "stamp": st, "details": details}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
