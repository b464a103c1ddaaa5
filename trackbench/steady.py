"""Steadiness check: run workloads N times each and compare the spread of
each end-to-end metric with its bound in BENCHMARK.json.

    python3 trackbench/steady.py --workload drift_square,lap_files --runs 10 \
        --first-seed 1 [--save set1.json] [--compare set0.json]

Runs ``run.py`` for BENCHMARK.json's ``run_seconds`` once per seed and
workload, one after another, taking the workloads in turn for each seed so
that a slow spell of the host falls on all of them alike.  Prints for
each workload and end-to-end metric the median, the quartiles
(``statistics.quantiles``, n=4), the spread (q3 - q1) / median and its
share of the bound, and the max/min ratio.
``--compare`` reads a set saved earlier with ``--save`` and reports how far
this set's medians moved from that one's, against the bound; a move counts
as worse in the metric's ``better`` direction only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summarize(results: list[dict], spec: dict) -> list[str]:
    out = [f"{'metric':<15} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} "
           f"{'/bound':>7} {'max/min':>8}"]
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        out.append(f"{m['name']:<15} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} {spread:>7.3f} "
                   f"{spread / m['bound']:>7.2f} {max(vals) / min(vals):>8.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    out.append(f"failed share per run: {sorted(shares)}; "
               f"correct in every run: {all(r['correct'] for r in results)}")
    return out


def compare(results: list[dict], earlier: list[dict], spec: dict) -> list[str]:
    out = []
    for m in spec["end_to_end"]:
        a = statistics.median(r["metrics"][m["name"]]["value"] for r in earlier)
        b = statistics.median(r["metrics"][m["name"]]["value"] for r in results)
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
        out.append(f"{m['name']:<15} median {a:.4f} -> {b:.4f}: worse by {worse:+.3f} "
                   f"(bound {m['bound']}) {verdict}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="one name or a comma-separated list")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write the runs' JSON results here")
    ap.add_argument("--compare", help="a set saved earlier with --save")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workload.split(",")
    results: dict[str, list[dict]] = {w: [] for w in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in names:
            r = run_once(w, seed, seconds)
            results[w].append(r)
            shown = " ".join(f"{k}={v['value']:.4f}" for k, v in r["metrics"].items())
            print(f"{w} seed {seed}: {shown}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results))
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    for w in names:
        print(f"== {w}, {args.runs} runs of {seconds} s")
        print("\n".join(summarize(results[w], spec)))
        if w in earlier:
            print("\n".join(compare(results[w], earlier[w], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
