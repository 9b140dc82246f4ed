#!/usr/bin/env python3
"""Steadiness mode: run every workload repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 --sets 2 --out perfbench/results/steadiness.txt

Each run is a fresh ``run.py`` process (one at a time, never two at
once).  Runs of different workloads are interleaved — round ``i`` runs
every workload once, in an order rotated by ``i`` — so drift of the
machine spreads over all workloads instead of landing on one.  Every
run uses its own seed.

Per set and workload, each end-to-end metric gets its median, quartiles
(``statistics.quantiles(n=4)``), relative spread ``(q3 − q1) / median``
and the sample count behind it; the op counts behind ``op_p50_ms`` and
the samples beyond the tail percentile are listed too.  A metric whose
spread exceeds its bound in ``BENCHMARK.json`` is flagged ``FAIL``,
one above a third of its bound ``warn``.  The probe that scales the
times (``pace.py``) is listed per workload twice: its median between
the ops and its median before any set-up; the two agree when the probe
does not follow the program's state.  With two or more sets, every later set's median
is compared with the first's and a change for the worse beyond the
bound is flagged ``FAIL``.  The exit code is 1 when anything failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402

RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One ``run.py`` process; its result line and detail record."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "wall": wall, "error": proc.stderr.strip()[-400:]}
    result = json.loads(lines[-1])
    detail = next((json.loads(x[len("detail "):]) for x in lines if x.startswith("detail ")), {})
    return {"ok": result["correct"], "wall": wall, "result": result, "detail": detail}


def _worse(first: float, later: float, better: str) -> float:
    """Relative change of ``later`` against ``first``, positive when worse."""
    if not first:
        return 0.0
    change = (later - first) / abs(first)
    return change if better == "lower" else -change


def report(spec: dict, sets: list[dict[str, list[dict]]], out) -> bool:
    """Print the spread tables (and drift across sets); True if all passed."""
    ok = True
    metrics = spec["end_to_end"]
    medians: list[dict] = []
    for k, runs in enumerate(sets, 1):
        med_k = {}
        print(f"\n== set {k} ==", file=out)
        for w, recs in runs.items():
            good = [r for r in recs if r["ok"]]
            walls = [r["wall"] for r in recs]
            print(f"\n[{w}] runs={len(recs)} ok={len(good)} "
                  f"wall_s max={max(walls):.1f} mean={sum(walls) / len(walls):.1f}", file=out)
            if len(good) < len(recs):
                ok = False
                for r in recs:
                    if not r["ok"]:
                        print(f"  FAILED RUN: {r.get('error', 'incorrect output')}", file=out)
            if not good:
                continue
            print(f"  {'metric':<14}{'n':>3}{'median':>14}{'q1':>14}{'q3':>14}"
                  f"{'spread':>9}{'bound':>7}  flag", file=out)
            for m in metrics:
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in good]
                med, q1, q3, rel = spread(vals)
                med_k[(w, m["name"])] = med
                flag = ""
                if rel > m["bound"]:
                    flag = "FAIL"
                    ok = False
                elif rel > m["bound"] / 3:
                    flag = "warn"
                print(f"  {m['name']:<14}{len(vals):>3}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{rel:>9.4f}{m['bound']:>7.2f}  {flag}", file=out)
            # unscaled wall times and the probe, for comparison (not gated)
            for key in ("raw_setup_s", "raw_op_p50_ms", "probe_median_ms", "probe_clean_ms"):
                med, q1, q3, rel = spread([r["detail"][key] for r in good])
                print(f"  {key:<16}median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                      f"spread={rel:.4f}", file=out)
            ops = [r["detail"].get("ops", 0) for r in good]
            print(f"  op_p50_ms rests on {min(ops)}..{max(ops)} ops per run", file=out)
            p99 = [r["detail"]["op_p99_ms"] for r in good if r["detail"].get("op_p99_ms") is not None]
            if p99:
                med, q1, q3, rel = spread(p99)
                beyond = [r["detail"]["op_p99_beyond"] for r in good]
                print(f"  op_p99_ms      n={len(p99)} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                      f"spread={rel:.4f}; {min(beyond)}..{max(beyond)} samples beyond p99",
                      file=out)
            else:
                print("  op_p99_ms      not reported: fewer than 10 samples beyond p99", file=out)
            fr = [r["detail"].get("failed_ratio", 0.0) for r in good]
            print(f"  failed_ratio   max={max(fr):.6g}", file=out)
        medians.append(med_k)
        _probe_table(runs, out)
    for k in range(1, len(medians)):
        print(f"\n== set {k + 1} median vs set 1 median (positive = worse) ==", file=out)
        for (w, name), first in medians[0].items():
            later = medians[k].get((w, name))
            if later is None:
                continue
            m = next(x for x in metrics if x["name"] == name)
            worse = _worse(first, later, m["better"])
            flag = "FAIL" if worse > m["bound"] else ("warn" if worse > m["bound"] / 3 else "")
            ok = ok and flag != "FAIL"
            print(f"  {w:<14}{name:<14}{first:>14.6g}{later:>14.6g}{worse:>+9.4f}"
                  f"{m['bound']:>7.2f}  {flag}", file=out)
    return ok


def _probe_table(runs: dict[str, list[dict]], out) -> None:
    """Per workload: the probe between ops against the probe before set-up."""
    print("\n  probe (ms)      between ops   before set-up   ratio", file=out)
    for w, recs in runs.items():
        good = [r["detail"] for r in recs if r["ok"]]
        if not good:
            continue
        during = spread([d["probe_median_ms"] for d in good])[0]
        clean = spread([d["probe_clean_ms"] for d in good])[0]
        print(f"  {w:<14}{during:>14.4g}{clean:>16.4g}{during / clean:>8.3f}", file=out)


class _Tee:
    """Writes to several text files at once."""

    def __init__(self, *files) -> None:
        self.files = files

    def write(self, s: str) -> None:
        for f in self.files:
            f.write(s)
            f.flush()

    def flush(self) -> None:
        for f in self.files:
            f.flush()


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, help="also write the report here")
    args = ap.parse_args(argv)
    chosen = args.workloads.split(",")
    unknown = set(chosen) - set(names)
    if unknown or args.runs < 1 or args.sets < 1:
        ap.error(f"unknown workloads {sorted(unknown)}" if unknown else "--runs/--sets must be >= 1")

    sets = []
    seed = args.first_seed
    for k in range(args.sets):
        runs: dict[str, list[dict]] = {w: [] for w in chosen}
        for i in range(args.runs):
            order = chosen[i % len(chosen):] + chosen[:i % len(chosen)]
            for w in order:
                rec = run_once(w, seed, args.seconds)
                runs[w].append(rec)
                status = "ok" if rec["ok"] else "FAILED"
                print(f"set {k + 1} run {i + 1} {w} seed={seed} {status} {rec['wall']:.1f}s",
                      file=sys.stderr, flush=True)
                seed += 1
        sets.append(runs)

    header = (f"steadiness: {args.sets} set(s) x {args.runs} runs x {len(chosen)} workloads, "
              f"--seconds {args.seconds}, seeds {args.first_seed}..{seed - 1}")
    files = [sys.stdout]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        files.append(args.out.open("w"))
    try:
        out = _Tee(*files)
        print(header, file=out)
        ok = report(spec, sets, out)
        print(f"\nverdict: {'steady' if ok else 'NOT steady'}", file=out)
    finally:
        for f in files[1:]:
            f.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
