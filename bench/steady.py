"""Steadiness of the benchmark: repeated runs, with their spread against the bounds.

    python3 bench/steady.py [--runs 10] [--seconds 30] [--seed 100]
                            [--workloads report_cli order_lattice galois_dims]
                            [--trace-runs 2]

Runs `run.py` `--runs` times per workload, each run with the next seed, and
alternates the workload order from one repetition to the next.  For every
end-to-end metric it prints the median, the quartiles and the spread (the
interquartile distance as a share of the median) beside the bound in
BENCHMARK.json; a spread is steady below a third of its bound.  It also
prints the share of failed operations per workload, which must be the same
in every run.  Then it makes `--trace-runs` traced runs on distinct seeds and
checks that every per-layer count agrees exactly.  Raw results go to
bench/results/steady-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit_code"] = proc.returncode
    if proc.returncode != 0:
        print(f"  {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-1000:]}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace-runs", type=int, default=2)
    args = ap.parse_args()

    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        for workload in order:
            results[workload].append(run(workload, args.seed + i, args.seconds, 0))
            m = results[workload][-1].get("metrics", {})
            print(f"run {i} {workload}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in m.items()), flush=True)

    ok = True
    print(f"\n{'workload':14} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  steady")
    for workload, runs in results.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs if "metrics" in r]
            if len(values) < 2:
                print(f"{workload:14} {metric['name']:12} too few runs")
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = spread < metric["bound"] / 3
            ok &= steady or metric["name"] == "setup_s"
            print(f"{workload:14} {metric['name']:12} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {metric['bound']:6.2f}  {'yes' if steady else 'NO'}")
        shares = {(r.get("failed"), r.get("attempted")) for r in runs}
        fail_shares = {f / a for f, a in shares if a}
        print(f"{workload:14} failed/attempted: {sorted(shares)}; exit codes "
              f"{sorted({r['exit_code'] for r in runs})}")
        ok &= len(fail_shares) == 1 and all(r["exit_code"] == 0 for r in runs)

    traced = [run(args.workloads[0], args.seed + i, args.seconds, 1) for i in range(args.trace_runs)]
    if traced:
        counts = [{k: v["value"] for k, v in t.get("metrics", {}).items()
                   if v["unit"] in ("count", "bits")} for t in traced]
        same = all(c == counts[0] for c in counts) and counts[0]
        print(f"\nper-layer counts of {len(traced)} traced runs agree exactly: {bool(same)}")
        ok &= bool(same) and all(t["exit_code"] == 0 for t in traced)

    out = BENCH / "results" / f"steady-{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "runs": results, "traced": traced}, indent=1))
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
