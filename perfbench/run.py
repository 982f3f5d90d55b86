"""Benchmark of invspec's forward solver and inverse pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload sl_low --seed 1 --seconds 20 --trace 0

Workloads are sl_low, sl_high, roundtrip and det_files (workloads.py says
what one item is; BENCHMARK.json says why each is there). With --trace 0
the run measures the end-to-end metrics with tracing off: items_per_s and
item_p50_ms are rescaled to a reference CPU speed (see CALIBRATION_REF_S),
and the unscaled values are printed on the cpu_speed line. With --trace 1
it makes the separate traced run that gives the per-layer metrics and
checks that every work counter repeats exactly across two traced passes.
Every answer goes through the correctness gate outside the timed region;
the gate must also reject one corrupted answer before timing starts.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every item
passed the gate. --inject-wrong corrupts the first timed answer, to show
that such a run reports the failure and exits non-zero. Spans and results
are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import COUNTERS, LAYER_PROBE, CountingPotential, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# BLAS and OpenMP read these once, when numpy loads.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The machine's CPU speed drifts by +-20% over minutes, the same for the
# program and for a plain Python loop. So the timed metrics are rescaled to a
# reference CPU, one that runs the calibration loop in CALIBRATION_REF_S, by
# the median calibration time measured in the same run.
CALIBRATION_LOOPS = 50_000
CALIBRATION_REF_S = 0.010
CALIBRATION_EVERY_S = 0.5

SETUP_REPEATS = 3
LADDER = (("lam1e2", 1e2), ("lam1e4", 1e4), ("lam1e6", 1e6))
LADDER_REPEATS = 5
WINDING_REPEATS = 3
CHILD_TIMEOUT_S = 170
# The probe for a layer a workload does not enter is this item of the workload
# that does: the first timed item, a grid potential or a degree-1 polynomial.
PROBE_INDEX = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt the first timed answer; the run must then fail")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: import, build item 0, run it once, exit")
    return ap.parse_args(argv)


def gate(wl, item, answer) -> str | None:
    """None when the answer is correct, else why not."""
    if isinstance(answer, Exception):
        return f"raised {type(answer).__name__}: {answer}"
    try:
        return wl.check(item, answer)
    except Exception as exc:  # a malformed answer fails its item, not the run
        return f"check raised {type(exc).__name__}: {exc}"


def warm_up_and_self_test(wl, seed) -> list[str]:
    """Run the warm-up item; the gate must pass it and reject a corrupted copy."""
    item = wl.item(seed, 0)
    answer = wl.run(item)
    problems = []
    verdict = gate(wl, item, answer)
    if verdict is not None:
        problems.append(f"{wl.name} warm-up item: {verdict}")
    elif gate(wl, item, wl.corrupt(answer)) is None:
        problems.append(f"{wl.name}: the gate accepted a corrupted answer")
    return problems


def median_hd(values) -> float:
    """Harrell-Davis estimate of the median: a beta-weighted mean of the order statistics.

    Item times cluster by potential kind, and the sample median falls in the
    gap between two clusters, where it jumps with the slowest item of one
    and the fastest of the other. This estimate averages the order
    statistics around the middle instead.
    """
    from scipy.special import betainc

    xs = sorted(values)
    a = (len(xs) + 1) / 2
    cdf = betainc(a, a, [i / len(xs) for i in range(len(xs) + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs)))


def calibration_s() -> float:
    """Time a fixed pure-Python float loop that shares no code with invspec."""
    start = time.perf_counter()
    x = acc = 0.0
    for i in range(CALIBRATION_LOOPS):
        x = math.cos(x) * 0.9 + math.sqrt(i + 1.0) * 1e-6
        acc += x * x
    return time.perf_counter() - start


@dataclass
class Timed:
    durations: list[float]
    calibrations: list[float]
    answered: list[tuple]

    def speed(self) -> float:
        """How much faster than the reference CPU this run's CPU ran."""
        return CALIBRATION_REF_S / statistics.median(self.calibrations)

    def failures(self, wl) -> list[str]:
        verdicts = ((item.index, gate(wl, item, answer)) for item, answer in self.answered)
        return [f"{wl.name} item {i}: {v}" for i, v in verdicts if v is not None]


def run_items(wl, seed, *, seconds=math.inf, count=None, tracer=None, pass_no=0,
              inject_wrong=False) -> Timed:
    """Closed loop over items 1, 2, ... (item 0 is the warm-up).

    Stops once the items' own time reaches `seconds`, or after `count`
    items. Item generation and the calibration loop, run after every
    CALIBRATION_EVERY_S of item time, stay outside the timed region. The
    caller gates the answers afterwards, so the gate's memory stays out of a
    peak RSS taken in between.
    """
    timed = Timed([], [calibration_s()], [])
    busy = since_calibration = 0.0
    index = 1
    while busy < seconds and (count is None or index <= count):
        item = wl.item(seed, index)
        if tracer is not None:
            tracer.begin(("own", index, pass_no), item.useful_roots)
        start = time.perf_counter()
        try:
            answer = wl.run(item, tracer)
        except Exception as exc:  # a raising item is a failed item
            answer = exc
        elapsed = time.perf_counter() - start
        timed.durations.append(elapsed)
        timed.answered.append((item, answer))
        busy += elapsed
        since_calibration += elapsed
        if since_calibration >= CALIBRATION_EVERY_S:
            timed.calibrations.append(calibration_s())
            since_calibration = 0.0
        index += 1
    if inject_wrong and not isinstance(timed.answered[0][1], Exception):
        item, answer = timed.answered[0]
        timed.answered[0] = (item, wl.corrupt(answer))
    return timed


def measure_setup(args) -> float:
    """Median time from process start to the end of the warm-up item."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(wl, args, registry):
    setup_s = measure_setup(args)
    problems = warm_up_and_self_test(wl, args.seed)
    timed = run_items(wl, args.seed, seconds=args.seconds, inject_wrong=args.inject_wrong)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = timed.failures(wl)
    attempted = len(timed.durations)
    items_per_s = (attempted - len(failures)) / sum(timed.durations)
    item_p50_ms = median_hd(timed.durations) * 1e3
    speed = timed.speed()
    metrics = {
        "setup_s": setup_s,
        "items_per_s": items_per_s / speed,
        "item_p50_ms": item_p50_ms * speed,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    print(f"{wl.name} fail_frac {len(failures) / attempted:.6g} ratio")
    print(f"{wl.name} cpu_speed {speed:.6g} x reference "
          f"(unscaled: items_per_s {items_per_s:.6g} 1/s, item_p50_ms {item_p50_ms:.6g} ms)")
    return metrics, attempted, failures, problems, []


def ladder_potentials(seed, registry):
    """One potential of each kind: items 0-3 of the spectrum workloads."""
    return [registry["sl_low"].item(seed, i).program_input[0] for i in range(4)]


def shot_ladder(seed, registry):
    """Median shot and phase-shot time per lambda."""
    from invspec import sl_forward

    def median_ms(fn, lam):
        times = []
        for q in ladder_potentials(seed, registry):
            for _ in range(LADDER_REPEATS):
                start = time.perf_counter()
                fn(q, lam)
                times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    out = {}
    for tag, lam in LADDER:
        out[f"sl_forward.shot_ms.{tag}"] = median_ms(sl_forward.shoot_miss, lam)
    out["sl_forward.phase_shot_ms.lam1e4"] = median_ms(sl_forward.eigenvalue_count_below, 1e4)
    return out


def shot_points(seed, registry):
    """Mean q evaluation points per shot, per lambda."""
    from invspec import sl_forward

    out = {}
    for tag, lam in LADDER:
        pots = [CountingPotential(q) for q in ladder_potentials(seed, registry)]
        for q in pots:
            sl_forward.shoot_miss(q, lam)
        out[f"sl_forward.shot_q_points.{tag}"] = sum(q.points for q in pots) / len(pots)
    return out


def winding_ms(wl, seed, registry):
    """Median count_zeros over the workload's whole search box."""
    from invspec import BoundaryPolynomialProblem, Polynomial, count_zeros

    times = []
    for i in range(4):
        coeffs = registry["roundtrip"].item(seed, i).params["coeffs"]
        prob = BoundaryPolynomialProblem(Polynomial(tuple(coeffs)))
        for _ in range(WINDING_REPEATS):
            start = time.perf_counter()
            count_zeros(prob, wl.search_box)
            times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def traced(wl, args, registry):
    problems = warm_up_and_self_test(wl, args.seed)
    base = run_items(wl, args.seed, seconds=args.seconds / 3)
    failures = base.failures(wl)
    n = len(base.durations)
    probes = sorted({probe for layer, probe in LAYER_PROBE.items() if layer not in wl.layers})
    tracers, traced_busy, per_pass = [], 0.0, []
    attempted = n
    for pass_no in (1, 2):
        tracer = Tracer()
        with tracer.installed():
            timed = run_items(wl, args.seed, count=n, tracer=tracer, pass_no=pass_no)
            for name in probes:
                probe_wl = registry[name]
                item = probe_wl.item(args.seed, PROBE_INDEX)
                tracer.begin(("probe", name, pass_no), item.useful_roots)
                try:
                    answer = probe_wl.run(item, tracer)
                except Exception as exc:  # a raising probe is a failed item
                    answer = exc
                verdict = gate(probe_wl, item, answer)
                if verdict is not None:
                    failures.append(f"probe {name}: {verdict}")
        attempted += n + len(probes)
        failures += timed.failures(wl)
        traced_busy += sum(timed.durations)
        tracers.append(tracer)
        counts = {k: v for k, v in layer_metrics([tracer], wl.layers).items() if k in COUNTERS}
        per_pass.append({**counts, **shot_points(args.seed, registry)})
    for name, value in per_pass[0].items():
        if per_pass[1][name] != value:
            problems.append(f"counter {name} differs across traced passes: "
                            f"{value!r} vs {per_pass[1][name]!r}")
    metrics = {
        **layer_metrics(tracers, wl.layers),
        **per_pass[0],
        **shot_ladder(args.seed, registry),
        "char_det.winding_ms": winding_ms(wl, args.seed, registry),
        "trace.overhead_frac": (n / sum(base.durations)) / (2 * n / traced_busy) - 1.0,
    }
    return metrics, attempted, failures, problems, tracers


def environment(seed) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in PINNED_THREADS},
    }


def write_spans(path, tracers):
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for s in tracer.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "item": list(s.item), "note": s.note,
                }) + "\n")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "invspec" / "__init__.py").is_file():
        print(f"error: no invspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    from workloads import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        registry = workloads(str(workdir))
        if args.workload not in registry:
            print(f"error: unknown workload {args.workload!r}; "
                  f"choose from {sorted(registry)}", file=sys.stderr)
            return 2
        wl = registry[args.workload]
        if args.setup_probe:
            wl.run(wl.item(args.seed, 0))
            return 0
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        env = environment(args.seed)
        print("environment " + json.dumps(env, sort_keys=True))
        run = traced if args.trace else end_to_end
        values, attempted, failures, problems, tracers = run(wl, args, registry)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for spec in declared["per_layer" if args.trace else "end_to_end"]:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"{wl.name} {spec['name']} {values[spec['name']]:.6g} {spec['unit']}")
    for line in (problems + failures)[:20]:
        print("FAIL " + line, file=sys.stderr)
    result = {"correct": not (failures or problems), "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"environment": env, "problems": problems, "failures": failures, **result},
        indent=2) + "\n")
    if tracers:
        write_spans(OUT / f"{stem}.spans.jsonl", tracers)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
