#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ii-ba --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up is repeated and
its median reported, then ops run back to back for ``--seconds`` with
each op timed on its own; every op's output is checked outside its
timed interval.  Times are scaled to a reference machine speed by
probes taken around them (``pace.py``); the unscaled medians are
printed as ``raw_*``.  ``--trace 1`` is the separate traced run for the
per-layer metrics: the same ops run once untraced and once with every
layer call wrapped in a span, the outputs of the two are asserted
equal, and the spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable table and a ``detail`` line (sample counts, the
supported tail percentile, ``failed_ratio``) read by ``steady.py``.
The program is imported from ``src/`` next to this directory; without
it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXIT_NO_PROGRAM = 2
#: probes taken before the first set-up, while no program state exists
CLEAN_PROBES = 5
THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _import_program() -> None:
    """Pin thread pools, then make ``repro`` (from ``src/``) and ``perfbench`` importable.

    The pools must be pinned before NumPy is first imported, which is
    why nothing above this point imports it.
    """
    for var in THREAD_POOL_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program at {SRC}/repro; nothing to measure\n")
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {SRC}\n")
        raise SystemExit(EXIT_NO_PROGRAM)


class Pass:
    """What one pass over the ops recorded.

    ``results`` holds ``(index, arg, out)`` per op started (``out`` is
    :data:`RAISED` for an op that raised); ``raw`` the wall time of each
    op that returned and ``scaled`` that time at the probe's reference
    speed (:mod:`perfbench.pace`); ``probes`` the probe times taken
    between the ops.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.probes: list[float] = []
        self.results: list = []


#: stands in for the output of an op that raised
RAISED = object()


def measure(wl, state, ops, seconds: float | None, tracer=None) -> Pass:
    """Run ops back to back, timing each on its own.

    With ``seconds``, no new op starts once that much wall time has
    passed (at least one op always runs); otherwise every op in ``ops``
    runs.  The machine is probed between ops, outside the timed
    intervals, and each op's time scaled by the probes around it.  Each
    output is reduced by ``wl.summarize`` right after its op, outside
    the timed interval; the caller checks the summaries against
    references after the loop (in a traced run, after the wrappers are
    removed, so references never run traced).
    """
    from perfbench.pace import Pace
    from perfbench.spans import SETUP

    p = Pass()
    pace = Pace()
    starts: list[float] = []
    run = wl.run if tracer is None else tracer.wrap(wl.run, f"op:{wl.name}")
    clock = time.perf_counter
    gc.collect()
    deadline = None if seconds is None else clock() + seconds
    for i, arg in enumerate(ops):
        if deadline is not None and i and clock() >= deadline:
            break
        pace.maybe()
        if wl.collect_per_op:
            gc.collect()
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = run(state, arg)
        except Exception:  # an op that raises is a failed op; keep serving
            traceback.print_exc(file=sys.stderr)
            out = RAISED
        else:
            p.raw.append(clock() - t0)
            starts.append(t0)
            if tracer is not None:
                wl.observe(state, arg, out, tracer)
        if tracer is not None:
            tracer.op = SETUP
        if out is not RAISED:
            out = wl.summarize(state, i, arg, out)
        p.results.append((i, arg, out))
    pace.probe()
    p.scaled = pace.scale(starts, p.raw)
    p.probes = pace.took
    return p


def check_all(wl, state, p: Pass) -> list:
    """Digest per op (``None`` where the op raised or its check failed)."""
    digests = []
    for i, arg, out in p.results:
        ok, digest = (False, None) if out is RAISED else wl.check(state, i, arg, out)
        digests.append(digest if ok else None)
    return digests


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(wl, seed: int, seconds: float, repeats: int):
    """End-to-end metrics, ``(attempted, failed)`` and the detail record."""
    from perfbench.pace import Pace
    from perfbench.stats import median, samples_beyond, tail_percentile

    pace = Pace()
    for _ in range(CLEAN_PROBES):  # the probe before any program state exists
        pace.probe()
    clean_probe = median(pace.took)
    raw_setup, starts = [], []
    state = None
    for _ in range(repeats):
        state = None  # free the previous set-up before timing the next
        gc.collect()
        pace.probe()
        starts.append(time.perf_counter())
        state = wl.setup(seed, None)
        raw_setup.append(time.perf_counter() - starts[-1])
    pace.probe()
    setup_times = pace.scale(starts, raw_setup)
    wl.reference(state)
    p = measure(wl, state, wl.ops(state), seconds)
    peak = _peak_rss_mib()
    failed = sum(d is None for d in check_all(wl, state, p))
    ops = len(p.scaled)
    p99 = tail_percentile(p.scaled, 99)
    metrics = {
        "setup_s": median(setup_times),
        "op_p50_ms": median(p.scaled) * 1e3,
        "ops_per_s": ops / sum(p.scaled),
        "peak_rss_mib": peak,
    }
    detail = {
        "ops": ops,
        "setup_samples": len(raw_setup),
        "raw_setup_s": median(raw_setup),
        "raw_op_p50_ms": median(p.raw) * 1e3,
        "raw_ops_per_s": ops / sum(p.raw),
        "probe_median_ms": median(p.probes) * 1e3,
        "probe_clean_ms": clean_probe * 1e3,
        "op_p99_ms": None if p99 is None else p99 * 1e3,
        "op_p99_beyond": samples_beyond(ops, 99),
        "failed_ratio": failed / len(p.results),
    }
    return metrics, (len(p.results), failed), detail


def traced_run(wl, seed: int, seconds: float, out_dir: Path):
    """Per-layer metrics, ``(attempted, failed)`` and the detail record.

    The ops of an untraced pass (``seconds / 2`` of them) are replayed
    traced on a fresh set-up; an op fails if either pass fails it or
    the two outputs differ.
    """
    from perfbench import layers
    from perfbench.spans import Tracer, patched
    from perfbench.stats import median

    state = wl.setup(seed, None)
    wl.reference(state)
    plain = measure(wl, state, wl.ops(state), seconds / 2)
    want = check_all(wl, state, plain)
    state = None
    gc.collect()
    tracer = Tracer()
    with patched(tracer, layers.sites()):
        state = wl.setup(seed, tracer)
        traced = measure(wl, state, (arg for _, arg, _ in plain.results), None, tracer)
    wl.reference(state)
    got = check_all(wl, state, traced)
    failed = sum(a is None or a != b for a, b in zip(want, got))
    ops = len(traced.raw)
    metrics = layers.metrics(tracer, ops)
    untraced_p50 = median(plain.scaled)
    traced_p50 = median(traced.scaled)
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{seed}.npz"
    tracer.save(str(spans_path))
    detail = {
        "ops": ops,
        "untraced_op_p50_ms": untraced_p50 * 1e3,
        "traced_op_p50_ms": traced_p50 * 1e3,
        "outputs_equal": failed == 0,
        "spans": len(tracer.start),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "failed_ratio": failed / len(want),
    }
    return metrics, (len(want), failed), detail


def _declared(section: str) -> dict[str, str]:
    """Metric name → unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    _import_program()
    from perfbench import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    cat = workloads.catalog()
    wl = workloads.make(args.workload)
    if args.trace:
        metrics, (attempted, failed), detail = traced_run(
            wl, args.seed, args.seconds, ROOT / "perfbench" / "out")
        units = _declared("per_layer")
    else:
        metrics, (attempted, failed), detail = untraced_run(
            wl, args.seed, args.seconds, cat["workloads"][args.workload]["setup_repeats"])
        units = _declared("end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: computed metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")

    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:>16.6g} {unit}")
    if detail.get("op_p99_ms") is not None:
        print(f"{'op_p99_ms':<34} {detail['op_p99_ms']:>16.6g} ms"
              f"  ({detail['op_p99_beyond']} samples beyond)")
    if "raw_op_p50_ms" in detail:
        print(f"{'raw_op_p50_ms':<34} {detail['raw_op_p50_ms']:>16.6g} ms  (unscaled wall time)")
    print(f"{'failed_ratio':<34} {detail['failed_ratio']:>16.6g} ratio")
    print("detail " + json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
