"""The benchmark's three workloads: ``serve``, ``figures`` and ``deep``.

Each workload generates its inputs from the seed in :meth:`make_inputs`
and builds what it runs on in :meth:`setup`, then runs rounds of a fixed
set of operations.  :meth:`run_round` times every operation on the host
clock, reads the modeled cost of what it ran from state the program
already keeps (queue ``ProfileLog``s, BSP results, the scheduler report)
and checks every output with :mod:`checks` against the reference outputs
in ``refs``, which :meth:`reference_outputs` computes (in another
process) from the same inputs.

Where the seed enters:

* ``serve`` and ``figures`` put ``k < 32`` isolated vertices, ``k``
  drawn from the seed, in front of every graph (``v -> v + k``), sources
  moving with them.  Vertex order, locality and every traversal from a
  source are unchanged (PageRank sees ``k`` more dangling vertices);
  arrays grow by ``k`` entries and every address moves, so modeled
  values differ slightly between seeds while the host clock measures
  nearly the same work;
* ``deep`` takes the length of its path from the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

# repro.algorithms / repro.service first: importing repro.perfmodel or
# repro.obs before them raises ImportError (perfmodel -> sycl -> obs ->
# frontier -> perfmodel import cycle)
import repro.algorithms as algorithms
import repro.service as service
from repro.graph.coo import COOGraph

import checks


#: isolated vertices put in front of each graph: fewer than this
MAX_PAD = 32


def pad(coo: COOGraph, k: int) -> COOGraph:
    """The same graph behind ``k`` isolated vertices (``v -> v + k``)."""
    return COOGraph(coo.n_vertices + k, coo.src + k, coo.dst + k, coo.weights)


def percentile(values, pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile.

    A Beta-weighted mean of all order statistics.  Nearest rank picks one
    sample, and on ``serve`` a perturbation that reorders the tail moves
    it from one side of a gap to the other: over six paddings of the
    same trace the nearest-rank p95 ranged 0.179-0.221 ms, this estimate
    0.215-0.232 ms.
    """
    from scipy.special import betainc  # the Beta CDF

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    p = pct / 100.0
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


class ModeledTally:
    """Sums over kernel costs: DRAM bytes, launch and binding terms, cache hits."""

    def __init__(self) -> None:
        self.dram_bytes = 0
        self.launch_ns = 0.0
        self.bound_ns = {"compute": 0.0, "memory": 0.0, "dispatch": 0.0}
        self.l1 = [0, 0]  # accesses, hits
        self.l2 = [0, 0]

    def add(self, costs) -> None:
        bound = self.bound_ns
        for c in costs:
            self.dram_bytes += c.dram_bytes
            self.launch_ns += c.launch_ns
            rest = c.time_ns - c.launch_ns
            # dispatch binds when time - launch exceeds both other terms
            if rest > c.compute_ns and rest > c.memory_ns:
                bound["dispatch"] += rest
            elif c.compute_ns >= c.memory_ns:
                bound["compute"] += rest
            else:
                bound["memory"] += rest
            self.l1[0] += c.l1.accesses
            self.l1[1] += c.l1.hits
            self.l2[0] += c.l2.accesses
            self.l2[1] += c.l2.hits

    def layer_metrics(self) -> Dict[str, float]:
        return {
            "modeled.launch_ms": self.launch_ns / 1e6,
            "modeled.compute_bound_ms": self.bound_ns["compute"] / 1e6,
            "modeled.memory_bound_ms": self.bound_ns["memory"] / 1e6,
            "modeled.dispatch_bound_ms": self.bound_ns["dispatch"] / 1e6,
            "modeled.l1_hit_rate": self.l1[1] / self.l1[0] if self.l1[0] else 0.0,
            "modeled.l2_hit_rate": self.l2[1] / self.l2[0] if self.l2[0] else 0.0,
        }


@dataclass
class Round:
    """What one round of a workload measured and found."""

    op_s: List[float] = field(default_factory=list)
    #: operations that raised instead of returning, one line each
    errors: List[str] = field(default_factory=list)
    #: wrong outputs and broken properties, one line each
    wrong: List[str] = field(default_factory=list)
    #: modeled end-to-end values (identical in every round and mode)
    modeled: Dict[str, float] = field(default_factory=dict)
    #: modeled per-layer values and workload-level counts
    layer: Dict[str, float] = field(default_factory=dict)
    #: anything else worth writing to the run's details file
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def host_s(self) -> float:
        return float(sum(self.op_s))

    @property
    def failed(self) -> int:
        return len(self.errors)

    def op(self, what: str, fn):
        """Run and time one operation; None when it raised."""
        t0 = time.perf_counter()
        try:
            return fn()
        except Exception as exc:  # counted in ``failed``, the run goes on
            self.errors.append(f"{what} raised {exc!r}")
            return None
        finally:
            self.op_s.append(time.perf_counter() - t0)

    def fail(self, what: str, problem: Optional[str]) -> None:
        if problem is not None:
            self.wrong.append(f"{what}: {problem}")


class Workload:
    name = ""
    #: operations attempted per round
    ops_per_round = 0

    def __init__(self, seed: int):
        self.seed = seed
        #: reference outputs by host graph name, set before the first round
        self.refs: Dict[str, checks.References] = {}

    def make_inputs(self) -> Dict[str, COOGraph]:
        """Generate the inputs from the seed; return the host graphs whose
        outputs are checked against references, by name."""
        raise NotImplementedError

    def checked(self) -> List[tuple]:
        """``(graph name, algorithm, source)`` of every output a round
        checks against a reference (after :meth:`make_inputs`)."""
        return []

    def setup(self) -> None:
        """Generate the inputs and build everything the rounds run on."""
        raise NotImplementedError

    def reference_outputs(self) -> Dict[str, dict]:
        """Every reference output a round needs, by host graph name."""
        refs = {name: checks.References(coo) for name, coo in self.make_inputs().items()}
        for name, algorithm, source in self.checked():
            checks.REFERENCE[algorithm](refs[name], source)
        return {name: ref.outputs() for name, ref in refs.items()}

    def run_round(self, tracer=None) -> Round:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# serve                                                                 #
# --------------------------------------------------------------------- #
class _RecordingRegistry(service.DispatchRegistry):
    """The default dispatch table, keeping each request's result and its
    host time per (algorithm, layout, graph)."""

    def __init__(self) -> None:
        super().__init__()
        self._inner = service.default_registry()
        self.results: Dict[int, np.ndarray] = {}
        self.host_by_key: Dict[tuple, float] = {}

    def names(self):
        return self._inner.names()

    def prepare(self, bundle, request) -> None:
        self._inner.prepare(bundle, request)

    def run(self, bundle, request):
        t0 = time.perf_counter()
        result = self._inner.run(bundle, request)
        key = (request.algorithm, request.layout, request.graph)
        self.host_by_key[key] = self.host_by_key.get(key, 0.0) + time.perf_counter() - t0
        self.results[request.req_id] = np.array(result, copy=True)
        return result


class Serve(Workload):
    """``python -m repro serve-sim`` defaults plus three gang requests.

    Open loop: seed-0 Poisson arrivals every 2 us of modeled time; the
    host drives the scheduler as fast as it can.  Pool v100s:2,mi100:1.
    The seed only pads the three catalog graphs (see the module notes):
    the trace stays the seed-0 one, where the vector-layout duplicate
    fault shows.
    """

    name = "serve"
    POOL = ("v100s", "v100s", "mi100")
    N_REQUESTS = 200
    ops_per_round = N_REQUESTS + 3

    def make_inputs(self) -> Dict[str, COOGraph]:
        from repro.faults.chaos import GANG_JOBS
        from repro.service import GraphSpec, Request, WorkloadConfig, default_catalog, generate_workload

        rng = np.random.default_rng(self.seed)
        catalog = default_catalog(seed=0, scale="small")
        requests = generate_workload(
            catalog, WorkloadConfig(n_requests=self.N_REQUESTS, mean_interarrival_ns=2_000.0), seed=0
        )
        self.shift = {s.name: int(rng.integers(0, MAX_PAD)) for s in catalog}
        self.catalog = [GraphSpec(s.name, pad(s.coo, self.shift[s.name])) for s in catalog]
        for r in requests:
            r.source += self.shift[r.graph]
        # trailing gang jobs, built like the chaos harness builds them
        last = max(r.arrival_ns for r in requests)
        gang_graph = self.catalog[0]
        for k, (algorithm, devices) in enumerate(GANG_JOBS):
            requests.append(
                Request(
                    req_id=len(requests), algorithm=algorithm, graph=gang_graph.name,
                    source=self.shift[gang_graph.name],
                    layout="2lb", priority=1, arrival_ns=last + 50_000.0 * (k + 1), devices=devices,
                )
            )
        self.requests = requests
        return {s.name: s.coo for s in self.catalog}

    def checked(self) -> List[tuple]:
        return [(r.graph, r.algorithm, r.source) for r in self.requests]

    def setup(self) -> None:
        # the scheduler's workers build their device graphs lazily
        self.make_inputs()

    def by_name(self, name: str):
        return next(s for s in self.catalog if s.name == name)

    def run_round(self, tracer=None) -> Round:
        import repro.dist as dist
        import repro.dist.bsp as bsp
        from tracing import rebind

        rnd = Round()
        registry = _RecordingRegistry()
        gang_results = {}
        bsp_queues = []

        class RecordingQueue(bsp.Queue):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                bsp_queues.append(self)

        undo = []

        def capture(fn):
            def wrapper(coo, n_devices, *args, **kwargs):
                res = fn(coo, n_devices, *args, **kwargs)
                gang_results[len(gang_results)] = res
                return res
            return wrapper

        for fn in ("distributed_bfs", "distributed_sssp", "distributed_cc"):
            orig = getattr(dist, fn)
            undo += rebind(orig, capture(orig))
        orig_queue = bsp.Queue
        bsp.Queue = RecordingQueue
        try:
            scheduler = service.QueryScheduler(
                pool=self.POOL, catalog=self.catalog, config=service.SchedulerConfig(), registry=registry
            )
            report = rnd.op("scheduler.run", lambda: scheduler.run(self.requests))
        finally:
            bsp.Queue = orig_queue
            for u in reversed(undo):
                u()

        if report is None:  # every request of the round failed with it
            rnd.errors *= self.ops_per_round
            return rnd

        # ---- modeled values, read from the report and the queues ------
        tally = ModeledTally()
        for w in scheduler.workers:
            tally.add(w.queue.profile.costs)
        for q in bsp_queues:
            tally.add(q.profile.costs)
        done = report.completed()
        lat = [r.latency_ns / 1e6 for r in done] or [0.0]
        rnd.modeled = {
            "modeled_ms": sum(r.service_ns for r in report.records) / 1e6,
            "modeled_dram_mb": tally.dram_bytes / 1e6,
            "modeled_p50_ms": percentile(lat, 50),
            "modeled_p95_ms": percentile(lat, 95),
        }
        counters = {m.name: m.value for m in report.metrics.counters()}
        batches = counters.get("service.batches", 0.0)
        results = [gang_results[i] for i in sorted(gang_results)]
        wire = sum(r.wire_bytes for r in results)
        idlist = sum(r.idlist_bytes for r in results)
        rnd.layer = {
            **tally.layer_metrics(),
            "service.batch_mean": (batches + counters.get("service.batched_requests", 0.0)) / batches if batches else 0.0,
            "dist.supersteps": float(sum(len(r.supersteps) for r in results)),
            "dist.wire_mb": wire / 1e6,
            "dist.wire_per_idlist": wire / idlist if idlist else 0.0,
            "modeled.exchange_ms": sum(r.exchange_ns for r in results) / 1e6,
        }
        total = sum(registry.host_by_key.values()) or 1.0
        rnd.details = {
            "requests": len(report.records),
            "makespan_ms": report.makespan_ns / 1e6,
            "serialized_ms": report.serialized_ns / 1e6,
            "dispatch_host_share": sorted(
                ({"algorithm": a, "layout": lay, "graph": g, "host_s": s, "share": s / total}
                 for (a, lay, g), s in registry.host_by_key.items()),
                key=lambda row: -row["host_s"],
            ),
        }

        # ---- checks -------------------------------------------------
        if tracer is not None:
            tracer.uninstall()  # the single-device re-runs below are checks
        rnd.fail("requests", checks.check_all_completed(report))
        rnd.fail("makespan", checks.check_makespan(report))
        gang_reqs = [r for r in self.requests if r.devices > 1]
        if len(results) != len(gang_reqs):
            rnd.wrong.append(f"gang: {len(results)} BSP runs for {len(gang_reqs)} gang requests")
        for req, res in zip(gang_reqs, results):
            rnd.fail(f"gang {req.req_id} wire", checks.check_wire(res))
            single = self._single_device(req)
            rnd.fail(f"gang {req.req_id} vs single device", checks.check_same(single, res.values))
            rnd.fail(f"gang {req.req_id}", checks.check_output(self.refs[req.graph], req.algorithm, req.source, res.values))
        for req in self.requests:
            if req.devices > 1:
                continue
            got = registry.results.get(req.req_id)
            if got is None:
                rnd.wrong.append(f"request {req.req_id}: no result")
                continue
            rnd.fail(
                f"request {req.req_id} {req.algorithm}/{req.layout}/{req.graph}",
                checks.check_output(self.refs[req.graph], req.algorithm, req.source, got),
            )
        return rnd

    def _single_device(self, req) -> np.ndarray:
        from repro.service import GraphBundle, Request
        from repro.sycl.queue import Queue

        spec = self.by_name(req.graph)
        bundle = GraphBundle(spec.name, spec.coo, Queue(capacity_limit=0, enable_profiling=False))
        solo = Request(req_id=req.req_id, algorithm=req.algorithm, graph=req.graph,
                       source=req.source, layout=req.layout, bits=req.bits)
        registry = service.default_registry()
        registry.prepare(bundle, solo)
        return np.asarray(registry.run(bundle, solo))


# --------------------------------------------------------------------- #
# figures                                                               #
# --------------------------------------------------------------------- #
class Figures(Workload):
    """The Fig 8 / Table 6 cells on ``kron`` and ``usa`` at ``small`` scale.

    One fixed source per graph, drawn as ``repro.bench.harness.measure``
    draws it (``pick_sources`` with its default seed); one timed run per
    cell.  Runners are built once per (framework, graph, weighted) in
    set-up: ``measure`` would rebuild one per cell and discard outputs.
    """

    name = "figures"
    DATASETS = ("kron", "usa")
    FRAMEWORKS = ("sygraph", "gunrock", "tigr", "sep")
    ALGORITHMS = ("bfs", "sssp", "cc", "bc")
    #: SSSP weights are uniform(1, 10) like load_dataset's, from a fixed
    #: stream (load_dataset seeds them from hash(), which changes per
    #: process)
    WEIGHT_SEED = 1
    ops_per_round = 2 * (4 * 4 - 1)  # sep has no CC
    CALLS = {
        "bfs": lambda runner, s: runner.bfs(s).distances,
        "sssp": lambda runner, s: runner.sssp(s).distances,
        "cc": lambda runner, s: runner.cc().labels,
        "bc": lambda runner, s: runner.bc([s]).scores,
    }

    def make_inputs(self) -> Dict[str, COOGraph]:
        from repro.bench.harness import pick_sources
        from repro.graph.datasets import load_dataset

        rng = np.random.default_rng(self.seed)
        self.sources, self.graphs = {}, {}
        for ds in self.DATASETS:
            coo = load_dataset(ds, "small")
            n = coo.n_vertices
            k = int(rng.integers(0, MAX_PAD))
            source = pick_sources(n, 1, out_degrees=np.bincount(coo.src.astype(np.int64), minlength=n))[0]
            weights = np.random.default_rng(self.WEIGHT_SEED).uniform(1.0, 10.0, size=coo.n_edges)
            plain = pad(coo, k)
            weighted = COOGraph(plain.n_vertices, plain.src, plain.dst, weights)
            self.sources[ds] = source + k
            self.graphs[ds] = plain, weighted
        return {ds: weighted for ds, (_, weighted) in self.graphs.items()}

    def checked(self) -> List[tuple]:
        return [(ds, algo, self.sources[ds]) for ds in self.DATASETS for algo in self.ALGORITHMS]

    def setup(self) -> None:
        from repro.baselines import make_runner

        self.make_inputs()
        self.runners = {}
        for ds, (plain, weighted) in self.graphs.items():
            for fw in self.FRAMEWORKS:
                self.runners[fw, ds, False] = make_runner(fw, plain)
                self.runners[fw, ds, True] = make_runner(fw, weighted)

    def run_round(self, tracer=None) -> Round:
        rnd = Round()
        tally = ModeledTally()
        sygraph_ms, baseline_ms, cells = [], {fw: 0.0 for fw in self.FRAMEWORKS[1:]}, []
        for ds in self.DATASETS:
            s, ref = self.sources[ds], self.refs[ds]
            for algo in self.ALGORITHMS:
                for fw in self.FRAMEWORKS:
                    runner = self.runners[fw, ds, algo == "sssp"]
                    if not runner.supports(algo):
                        continue
                    runner.reset_timers()
                    out = rnd.op(f"{fw}/{ds}/{algo}", lambda: self.CALLS[algo](runner, s))
                    if out is None:
                        continue
                    ms = runner.elapsed_ns / 1e6
                    cells.append({"framework": fw, "dataset": ds, "algorithm": algo, "modeled_ms": ms,
                                  "host_s": rnd.op_s[-1]})
                    if fw == "sygraph":
                        sygraph_ms.append(ms)
                        tally.add(runner.queue.profile.costs)
                    else:
                        baseline_ms[fw] += ms
                    rnd.fail(f"{fw}/{ds}/{algo}", checks.check_output(ref, algo, s, out))
        rnd.modeled = {
            "modeled_ms": sum(sygraph_ms),
            "modeled_dram_mb": tally.dram_bytes / 1e6,
            "modeled_p50_ms": percentile(sygraph_ms, 50) if sygraph_ms else 0.0,
            "modeled_p95_ms": percentile(sygraph_ms, 95) if sygraph_ms else 0.0,
        }
        rnd.layer = {**tally.layer_metrics(), **{f"modeled.{fw}_ms": v for fw, v in baseline_ms.items()}}
        rnd.details = {"cells": cells}
        return rnd


# --------------------------------------------------------------------- #
# deep                                                                  #
# --------------------------------------------------------------------- #
class Deep(Workload):
    """BFS and SSSP from the head of a long unit-weight path graph.

    Every iteration's frontier holds one vertex, so host time is the
    fixed cost per kernel and per iteration, not per address.
    """

    name = "deep"
    LAYOUTS = ("2lb", "bitmap")
    BASE_LENGTH = 2000
    ops_per_round = 4

    def make_inputs(self) -> Dict[str, COOGraph]:
        # the outputs are checked against the path's own property
        rng = np.random.default_rng(self.seed)
        self.n = self.BASE_LENGTH + int(rng.integers(0, 32))
        return {}

    def setup(self) -> None:
        from repro.graph.builder import GraphBuilder
        from repro.graph.generators import path_graph
        from repro.sycl.queue import Queue

        self.make_inputs()
        self.queue = Queue()
        self.graph = GraphBuilder(self.queue).to_csr(path_graph(self.n).with_unit_weights())
        # warm-up: first calls of each algorithm and layout on a short path
        warm_q = Queue()
        warm = GraphBuilder(warm_q).to_csr(path_graph(8).with_unit_weights())
        for layout in self.LAYOUTS:
            algorithms.bfs(warm, 0, layout=layout)
            algorithms.sssp(warm, 0, layout=layout)

    def run_round(self, tracer=None) -> Round:
        rnd = Round()
        tally = ModeledTally()
        op_ms = []
        for name, fn in (("bfs", algorithms.bfs), ("sssp", algorithms.sssp)):
            for layout in self.LAYOUTS:
                self.queue.reset_profile()
                res = rnd.op(f"{name}/{layout}", lambda: fn(self.graph, 0, layout=layout))
                if res is None:
                    continue
                op_ms.append(self.queue.elapsed_ns / 1e6)
                tally.add(self.queue.profile.costs)
                rnd.fail(f"{name}/{layout}", checks.check_path(res.distances))
        rnd.modeled = {
            "modeled_ms": sum(op_ms),
            "modeled_dram_mb": tally.dram_bytes / 1e6,
            "modeled_p50_ms": percentile(op_ms, 50) if op_ms else 0.0,
            "modeled_p95_ms": percentile(op_ms, 95) if op_ms else 0.0,
        }
        rnd.layer = tally.layer_metrics()
        rnd.details = {"path_vertices": self.n, "op_modeled_ms": op_ms}
        return rnd


WORKLOADS = {w.name: w for w in (Serve, Figures, Deep)}
