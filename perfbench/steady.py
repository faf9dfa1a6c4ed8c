"""Steadiness check: run every workload repeatedly and report the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py [--runs 10] [--workloads serve,figures,deep]

Runs ``perfbench/run.py`` ``--runs`` times per workload, one process at a
time, alternating between workloads, with seeds ``1, 2, ...``.  For each
end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) /
median`` and the metric's bound from ``BENCHMARK.json``.  Raw results go
to ``.perfbench/steady-<time>.json``.  Exit status 1 when a run fails, a
check fails, the share of failed operations differs between runs, or a
spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to have quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    runs = {w: [] for w in names}
    for seed in range(1, args.runs + 1):
        for w in names:
            res = run_once(w, seed, spec["run_seconds"])
            runs[w].append(res)
            print(f"[{w} seed {seed}: {res['wall_s']:.1f} s wall, "
                  f"correct={res['correct']} failed={res['failed']}/{res['attempted']}]", flush=True)

    ok, summary = True, {}
    for w in names:
        rs = runs[w]
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"\n== {w}: {len(rs)} runs, correct in {sum(r['correct'] for r in rs)}, "
              f"failed share {sorted(shares)}")
        ok &= all(r["correct"] for r in rs) and len(shares) == 1
        print(f"{'metric':28} {'unit':9} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        summary[w] = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            med, q1, q3, spread = summarize(vals)
            summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = m["bound"]
            flag = ""
            if spread > bound:
                flag, ok = " SPREAD", False
            line = (f"{m['name']:28} {m['unit']:9} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                    f"{spread:8.4f} {bound:>6}")
            print(line + flag)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    print(f"\n[raw results in {path}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
