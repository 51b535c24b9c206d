"""One workload run in its own process; prints one JSON line.

Usage:
  python3 perfbench/child.py measure SRC_DIR WORKLOAD SEED SECONDS PASSES
  python3 perfbench/child.py trace   SRC_DIR WORKLOAD SEED OUT_PREFIX

``measure`` runs whole passes, one item at a time, until SECONDS have
gone by and at least MIN_ITEMS items were timed (or exactly PASSES
passes when PASSES > 0).  Only the program calls are timed; inputs are
built before a pass and outputs checked after it.  ``trace`` runs the
kernel-count self-test and then pass 0 with spans on every layer.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time

from calibrate import Calibration, reference_median
from workloads import MIN_ITEMS, SWEEP3_REPORT_SHA256, Runner, report_digest

WARMUP_ITEMS = 10
SELFTEST_ITEMS = 8


def run_pass(runner, prepared, tracer=None, cal=None):
    """Run one pass and build its report.

    Returns (outputs, item seconds, calibration interval of each item,
    report seconds, report text).
    """
    clock = time.perf_counter
    outputs, times, marks = [], [], []
    for index, x in prepared:
        if cal is not None:
            cal.tick()
        if tracer is not None:
            tracer.item[0] = index
            span = tracer.open("bench.item")
        t = clock()
        try:
            out = runner.run(x)
        except Exception as exc:  # a raised item is a failed item, not a crash
            out = exc
        dt = clock() - t
        if tracer is not None:
            tracer.close(span)
        times.append(dt)
        marks.append(cal.index if cal is not None else 0)
        outputs.append((index, x, out))
    ok = [(i, out) for i, _, out in outputs if not isinstance(out, Exception)]
    if tracer is not None:
        tracer.item[0] = -1
        span = tracer.open("hasse.report")
    t = clock()
    report = runner.report(ok)
    report_s = clock() - t
    if tracer is not None:
        tracer.close(span)
    return outputs, times, marks, report_s, report


def check_pass(runner, outputs, report, errors):
    """Count wrong or raised items; compare the sweep3 report digest."""
    failed = 0
    for index, x, out in outputs:
        err = f"raised {out!r}" if isinstance(out, Exception) else runner.check(x, out)
        if err is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{runner.workload} item {index}: {err}")
    digest_ok = True
    if runner.workload == "sweep3" and len(outputs) == runner.count():
        digest_ok = report_digest(report) == SWEEP3_REPORT_SHA256
        if not digest_ok:
            errors.append("sweep3 report digest differs from the recorded one")
    return failed, digest_ok


def rank(n, q):
    """0-based index of the nearest-rank q-th percentile of n sorted samples."""
    return max(0, math.ceil(q / 100 * n) - 1)


def summarize_times(times, walls):
    times = sorted(times)
    p99 = rank(len(times), 99)
    return {
        "items_per_s": len(times) / sum(times),
        "item_ms.p50": times[rank(len(times), 50)] * 1e3,
        "item_ms.p99": times[p99] * 1e3,
        "beyond_p99": len(times) - 1 - p99,
        "wall_s": statistics.median(walls),
    }


def warm_up(runner, seed):
    for item in runner.inputs(seed, 0)[:WARMUP_ITEMS]:
        runner.run(runner.prepare(item)[1])
    reference_median()


def calibrate_times(cal, times, marks, pass_parts):
    """Calibrated item times, and pass walls from (first, end, report_s, interval)."""
    cal.close()
    factors = cal.factors()
    calibrated = [x * factors[k] for x, k in zip(times, marks)]
    walls = [sum(calibrated[a:b]) + r * factors[k] for a, b, r, k in pass_parts]
    return calibrated, walls


def measure(runner, seed, seconds, passes):
    """Whole passes until ``seconds`` and MIN_ITEMS are reached, or ``passes`` passes.

    Item and report times are reported raw and calibrated (calibrate.py).
    """
    il = runner.il
    warm_up(runner, seed)
    cal = Calibration()
    errors, times, marks, pass_parts = [], [], [], []
    failed = 0
    digest_ok = True
    report_bytes = 0
    start = time.perf_counter()
    p = 0
    while True:
        prepared = [runner.prepare(item) for item in runner.inputs(seed, p)]
        outputs, t, m, report_s, report = run_pass(runner, prepared, cal=cal)
        pass_parts.append((len(times), len(times) + len(t), report_s, cal.index))
        times += t
        marks += m
        report_bytes = len(report.encode())
        f, d = check_pass(runner, outputs, report, errors)
        failed += f
        digest_ok = digest_ok and d
        p += 1
        if passes > 0:
            if p >= passes:
                break
        elif time.perf_counter() - start >= seconds and len(times) >= MIN_ITEMS:
            break
    calibrated, walls = calibrate_times(cal, times, marks, pass_parts)
    raw_walls = [sum(times[a:b]) + r for a, b, r, _ in pass_parts]
    return {
        "items": len(times),
        "failed": failed,
        "errors": errors,
        "digest_ok": digest_ok,
        "passes": p,
        **summarize_times(calibrated, walls),
        "raw": summarize_times(times, raw_walls),
        "raw_pass_walls": raw_walls,
        "reference_s": statistics.median(cal.refs),
        "calibration_samples": len(cal.refs),
        "report_bytes": report_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": il.KERNEL_BACKEND,
        "tracing_loaded": "tracer" in sys.modules
        or sys.getprofile() is not None
        or hasattr(il.run_scenario, "__wrapped__")
        or hasattr(il.kernel.col_hnf, "__wrapped__"),
    }


def trace(runner, seed, out_prefix):
    import tracer as tr

    originals = tr.kernel_originals()
    t = tr.Tracer()
    replaced = tr.install(t)

    prepared = [runner.prepare(item) for item in runner.inputs(seed, 0)]
    independent = tr.independent_kernel_counts(
        originals, lambda: [runner.run(x) for _, x in prepared[:SELFTEST_ITEMS]]
    )
    traced = tr.span_counts(t)
    selftest = {name: (traced.get(f"kernel.{name}", 0), n) for name, n in independent.items()}
    selftest_ok = all(a == b for a, b in selftest.values()) and sum(independent.values()) > 0

    t.reset()
    reference_median()
    cal = Calibration()
    outputs, times, marks, report_s, report = run_pass(runner, prepared, t, cal)
    _, (wall,) = calibrate_times(cal, times, marks, [(0, len(times), report_s, cal.index)])
    errors = []
    if not selftest_ok:
        errors.append(f"kernel call counts, traced vs profiler: {selftest}")
    failed, digest_ok = check_pass(runner, outputs, report, errors)
    summary = tr.summarize(t)
    if summary["items_not_adding_up"]:
        errors.append(f"{summary['items_not_adding_up']} items whose span self times do not add up")
    tr.write_spans(t, out_prefix)
    return {
        "items": len(times),
        "failed": failed,
        "errors": errors,
        "digest_ok": digest_ok,
        "selftest": selftest,
        "selftest_ok": selftest_ok,
        "bindings_replaced": replaced,
        "wall_s": wall,
        "raw_wall_s": sum(times) + report_s,
        "report_s": report_s,
        "report_bytes": len(report.encode()),
        "summary": summary,
        "counts": list(t.counts),
        "backend": runner.il.KERNEL_BACKEND,
    }


def main(argv):
    mode, src, workload, seed = argv[0], argv[1], argv[2], int(argv[3])
    sys.path.insert(0, src)
    import idelink

    runner = Runner(workload, idelink)
    if mode == "measure":
        result = measure(runner, seed, float(argv[4]), int(argv[5]))
    elif mode == "trace":
        result = trace(runner, seed, argv[4])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
