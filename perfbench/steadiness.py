"""A/A steadiness study of the benchmark.

Runs each workload once per seed over two disjoint seed sets (set A: seeds
1-5, then set B: seeds 6-10) with ``--trace 0`` and reports, for every end-to-end metric: each
set's median and IQR/median spread, the spread over all runs next to the
metric's bound in ``BENCHMARK.json``, and how far set B's median moved from
set A's, in either direction.  The median host-probe reading of each set
tells host drift from program change::

    python3 perfbench/steadiness.py --workloads heavy light --seconds 20

Writes ``.bench_build/perfbench/steadiness.json`` and prints a table.  A
metric is ``ok`` when its all-run spread is within a third of its bound and
set B's median is within the bound of set A's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import iqr_spread
from prepare import CACHE_ROOT, ROOT

RUN_TIMEOUT_SECONDS = 900
SET_A = (1, 2, 3, 4, 5)
SET_B = (6, 7, 8, 9, 10)
OUT = CACHE_ROOT / "steadiness.json"


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_SECONDS, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    report = json.loads(lines[-2])
    report["summary"] = json.loads(lines[-1])
    return report


def summarize(spec: dict, runs_a: list[dict], runs_b: list[dict]) -> dict:
    rows = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        a = [run["metrics"][name]["value"] for run in runs_a]
        b = [run["metrics"][name]["value"] for run in runs_b]
        both = a + b
        median_a, median_b = statistics.median(a), statistics.median(b)
        spread = iqr_spread(both) if len(both) >= 2 else 0.0
        worse_shift = sign * (median_b - median_a) / median_a
        rows[name] = {
            "bound": bound,
            "median_a": median_a,
            "median_b": median_b,
            "spread_a": iqr_spread(a) if len(a) >= 2 else 0.0,
            "spread_b": iqr_spread(b) if len(b) >= 2 else 0.0,
            "spread_all": spread,
            "worse_shift_b": worse_shift,
            "ok": abs(worse_shift) <= bound and spread <= bound / 3,
        }
    return rows


def host_summary(runs: list[dict]) -> float:
    """The median over runs of each run's median host-probe reading (ms)."""
    return statistics.median(run["host_reference"]["probe_ms"]["median"] for run in runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    study = {"seconds": args.seconds, "set_a": SET_A, "set_b": SET_B, "workloads": {}}
    all_ok = True
    for workload in args.workloads:
        runs_a = [run_once(workload, seed, args.seconds) for seed in SET_A]
        runs_b = [run_once(workload, seed, args.seconds) for seed in SET_B]
        rows = summarize(spec, runs_a, runs_b)
        entry = {
            "metrics": rows,
            "host_a": host_summary(runs_a),
            "host_b": host_summary(runs_b),
            "all_correct": all(run["correct"] for run in runs_a + runs_b),
            "failed": sum(run["failed"] for run in runs_a + runs_b),
            "comb_avg_values": sorted({run["metrics"]["comb_avg"]["value"] for run in runs_a + runs_b}),
            "fit_counts": sorted({json.dumps(run["info"]["fits"]) for run in runs_a + runs_b}),
        }
        study["workloads"][workload] = entry
        all_ok &= entry["all_correct"] and all(row["ok"] for row in rows.values())
        print(f"{workload}: correct={entry['all_correct']} failed={entry['failed']} "
              f"host probe A {entry['host_a']:.3f} ms, B {entry['host_b']:.3f} ms")
        for name, row in rows.items():
            print(f"  {name:14s} A {row['median_a']:11.4f}  B {row['median_b']:11.4f}  "
                  f"spread {row['spread_all']:6.1%} (bound/3 {row['bound'] / 3:5.1%})  "
                  f"B worse by {row['worse_shift_b']:+6.1%}  {'ok' if row['ok'] else 'NOT OK'}")
        sys.stdout.flush()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(study, indent=1))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
