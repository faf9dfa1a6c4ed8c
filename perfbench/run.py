"""Two-clock benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve|figures|deep --seed N \\
        --seconds S --trace 0|1

Runs the workload's fixed set of operations in whole rounds until
``--seconds`` have passed (at least one round), all in this one
single-threaded process, and checks every output.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0`` gives the end-to-end metrics: host wall time and peak
  memory of the simulator, and the modeled time, DRAM traffic and
  latency of the simulated GPUs;
* ``--trace 1`` then runs one more set-up and one more round in which
  the public entry points of every layer are wrapped with timing spans,
  and gives the per-layer metrics (over that set-up and round) plus the
  tracing overhead.

The reference outputs the checks compare against are computed in a
process of their own before set-up, so neither their time nor their
memory is the program's.  ``setup_s`` is the median of ``SETUP_REPS``
cold set-ups, each in a fresh interpreter: this process's own and, after
the rounds, ``SETUP_REPS - 1`` more that only set up.

Details of each run (per-operation rows, the span table, and with
``--trace 1`` every span) are written under ``.perfbench/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: cold set-ups per untraced run, each in a fresh interpreter; their
#: median is ``setup_s``
SETUP_REPS = 5


def span_metrics(tracer) -> dict:
    """Per-layer host metrics of one traced set-up and round, from its
    spans (the names and units are listed in ``BENCHMARK.json``)."""
    addresses = tracer.counters.get("perfmodel.addresses", 0.0)
    raw = tracer.counters.get("frontier.vector_raw", 0.0)
    distinct = tracer.counters.get("frontier.vector_distinct", 0.0)
    charge = tracer.inclusive_s("perfmodel.charge")
    out = {
        "graph.build_s": tracer.self_s("graph.build"),
        "service.scheduler_self_s": tracer.self_s("service.scheduler"),
        "service.dispatch_s": tracer.inclusive_s("service.dispatch"),
        "dist.bsp_s": tracer.inclusive_s("dist.bsp"),
        "algorithms.self_s": tracer.self_s("algorithms"),
        "exec.self_s": tracer.self_s("exec"),
        "exec.iterations": tracer.counters.get("exec.iterations", 0.0),
        "operators.self_s": tracer.self_s("operators"),
        "frontier.self_s": tracer.self_s("frontier"),
        "frontier.vector_dup_ratio": raw / distinct if distinct else 0.0,
        "sycl.submit_self_s": tracer.self_s("sycl.submit"),
        "sycl.kernels": float(tracer.n_calls("sycl.submit")),
        "sycl.profile_sum_s": tracer.inclusive_s("sycl.profile_sum"),
        "perfmodel.charge_s": charge,
        "perfmodel.cache_s": tracer.inclusive_s("perfmodel.cache"),
        "perfmodel.maddr": addresses / 1e6,
        "perfmodel.ns_per_addr": charge * 1e9 / addresses if addresses else 0.0,
    }
    for fw in ("sygraph", "gunrock", "tigr", "sep"):
        out[f"baselines.{fw}_s"] = tracer.inclusive_s(f"baselines.{fw}")
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one part of a run, in a process of its own (see the module notes)
    p.add_argument("--part", choices=("references", "setup"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_part(args, part: str) -> str:
    """Run ``part`` of this run in a fresh interpreter; its standard output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--part", part]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench: {part} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports repro in the order that works)

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import checks

    wl = workloads.WORKLOADS[args.workload](args.seed)
    refs_path = OUT / f"{args.workload}-seed{args.seed}-refs.pkl"
    if args.part == "references":
        OUT.mkdir(exist_ok=True)
        with open(refs_path, "wb") as fh:
            pickle.dump(wl.reference_outputs(), fh)
        return 0
    if args.part == "setup":
        wl.setup()
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    t0 = time.perf_counter()
    run_part(args, "references")
    with open(refs_path, "rb") as fh:
        wl.refs = {name: checks.References.precomputed(out) for name, out in pickle.load(fh).items()}
    refs_path.unlink()
    references_s = time.perf_counter() - t0
    wl.setup()
    setups = [time.perf_counter() - T_START - references_s]

    rounds, traced, tracer = [], [], None
    deadline = time.perf_counter() + args.seconds
    while True:
        rounds.append(wl.run_round())
        if time.perf_counter() >= deadline:
            break
    if args.trace:
        import tracing

        # the untraced rounds are the reference for the tracing overhead;
        # the traced pass repeats set-up too, where graph builds happen
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
        try:
            wl.setup()
            traced.append(wl.run_round(tracer))
        finally:
            tracer.uninstall()

    if not args.trace:
        for _ in range(SETUP_REPS - 1):
            setups.append(json.loads(run_part(args, "setup").splitlines()[-1])["setup_s"])

    every = rounds + traced
    attempted = wl.ops_per_round * len(every)
    failed = sum(r.failed for r in every)
    errors = [e for r in every for e in r.errors]
    wrong = [w for r in every for w in r.wrong]
    first = every[0]
    for r in every[1:]:
        if r.modeled != first.modeled or r.layer != first.layer:
            wrong.append("modeled values differ between rounds (or between traced and untraced rounds)")
            break

    # per-operation medians over the rounds, summed: one slow stretch of
    # a shared machine moves one sample of each operation, not the total
    host_s = sum(statistics.median(ops) for ops in zip(*(r.op_s for r in rounds)))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        traced_host = traced[0].host_s
        metrics = {
            **{k: 0.0 for k in units},
            **first.layer,
            **span_metrics(tracer),
            "trace.host_s": traced_host,
            "trace.overhead_s": traced_host - host_s,
        }
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "host_s": host_s,
            "host_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            **first.modeled,
        }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "references_s": references_s,
        "setup_s": setups,
        "round_host_s": [r.host_s for r in rounds],
        "traced_round_host_s": [r.host_s for r in traced],
        "errors": errors[:50],
        "wrong": wrong[:50],
        "modeled": first.modeled,
        "layer": first.layer,
        "metrics": metrics,
        **first.details,
    }
    if tracer is not None:
        details["spans"] = tracer.table()
        tracer.write(f"{stem}-spans.npz")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, default=str)

    for line in errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
