"""In-memory span tracer that wraps the public entry points of each layer.

The tracer never edits the program: it replaces a layer's public
function or method with a timing wrapper for the length of one traced
round, then puts the original back.  Every call becomes one span
``(name, start, end, parent)`` kept in flat in-memory arrays and
written out once, when the run ends.  Modeled state is only read, so a
traced round charges exactly the kernels an untraced one does.

Self time of a span is its duration minus the durations of the wrapped
calls nested directly inside it.  Inclusive time of a name counts only
its outermost spans, so recursion is not counted twice.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List

import numpy as np


class Tracer:
    """Collects spans and per-name totals for one traced round."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.incl_ns: List[int] = []
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        self._depth: List[int] = []
        #: open spans, innermost last: [span index, name id, covered ns]
        self._stack: List[list] = []
        #: counts gathered at the same boundaries as the spans
        self.counters: Dict[str, float] = {}
        self._t0 = time.perf_counter_ns()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.incl_ns.append(0)
            self.self_ns.append(0)
            self.calls.append(0)
            self._depth.append(0)
        return nid

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def hidden(self, fn: Callable, *args) -> None:
        """Run bookkeeping ``fn`` so that no open span is charged for it."""
        t0 = time.perf_counter_ns()
        fn(*args)
        if self._stack:
            self._stack[-1][2] += time.perf_counter_ns() - t0

    def timed(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """Return ``fn`` wrapped so that each call records one span.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` are
        bookkeeping hooks; their time is excluded from every span's self
        time.
        """
        nid = self._nid(name)
        stack, depth = self._stack, self._depth
        name_arr, start_arr, end_arr = self.name_id, self.start, self.end
        parent_arr = self.parent
        incl, selfns, calls = self.incl_ns, self.self_ns, self.calls
        clock, base = time.perf_counter_ns, self._t0

        def wrapper(*args, **kwargs):
            if before is not None:
                self.hidden(before, args, kwargs)
            idx = len(start_arr)
            name_arr.append(nid)
            start_arr.append(0)
            end_arr.append(0)
            parent_arr.append(stack[-1][0] if stack else -1)
            frame = [idx, nid, 0]
            stack.append(frame)
            depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[nid] -= 1
                dur = t1 - t0
                start_arr[idx] = t0 - base
                end_arr[idx] = t1 - base
                selfns[nid] += dur - frame[2]
                calls[nid] += 1
                if depth[nid] == 0:
                    incl[nid] += dur
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                self.hidden(after, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------ #
    def wrap_attr(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Wrap ``owner.attr`` (a class attribute or a module function).

        A property is wrapped through its getter.  A module-level
        function is also replaced wherever another ``repro`` module bound
        it by name (``from x import f``) or stored it in a module-level
        dict, so every caller goes through the wrapper.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(orig, property):
            new = property(self.timed(name, orig.fget, before, after))
            setattr(owner, attr, new)
            self._undo.append(lambda: setattr(owner, attr, orig))
            return
        new = self.timed(name, orig, before, after)
        if isinstance(owner, type):
            setattr(owner, attr, new)
            self._undo.append(lambda: setattr(owner, attr, orig))
            return
        self._undo.extend(rebind(orig, new))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first (idempotent)."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------ #
    def inclusive_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.incl_ns[nid] / 1e9 if nid is not None else 0.0

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.self_ns[nid] / 1e9 if nid is not None else 0.0

    def n_calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def table(self) -> List[dict]:
        """Per-name totals, largest self time first."""
        rows = [
            {
                "name": n,
                "calls": self.calls[i],
                "inclusive_s": self.incl_ns[i] / 1e9,
                "self_s": self.self_ns[i] / 1e9,
            }
            for i, n in enumerate(self.names)
        ]
        return sorted(rows, key=lambda r: -r["self_s"])

    def write(self, path) -> None:
        """Write every span as compressed columns (one row per span)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach.

    Layer names follow the modules under ``src/repro``.  The caller must
    already have imported ``repro.algorithms`` and ``repro.service`` (the
    import order that avoids the perfmodel/sycl/obs/frontier cycle).
    """
    import repro.algorithms as algorithms
    import repro.dist as dist
    from repro.baselines import GunrockRunner, SepGraphRunner, SYgraphRunner, TigrRunner
    from repro.exec.executor import PlanExecutor
    from repro.frontier import ops as frontier_ops
    from repro.frontier.base import Frontier
    from repro.frontier.vector import VectorFrontier
    from repro.graph.builder import GraphBuilder
    from repro.operators import advance, compute
    from repro.operators import filter as filter_op
    from repro.perfmodel import cache as pm_cache
    from repro.perfmodel.cost import CostModel
    from repro.service.dispatch import DispatchRegistry
    from repro.service.scheduler import QueryScheduler
    from repro.sycl.profiling import ProfileLog
    from repro.sycl.queue import Queue

    w = tracer.wrap_attr
    w(GraphBuilder, "to_csr", "graph.build")
    w(GraphBuilder, "to_csc", "graph.build")
    w(QueryScheduler, "run", "service.scheduler")
    w(DispatchRegistry, "prepare", "service.dispatch")
    w(DispatchRegistry, "run", "service.dispatch")
    for fn in ("distributed_bfs", "distributed_sssp", "distributed_cc"):
        w(dist, fn, "dist.bsp")
    for cls in (SYgraphRunner, GunrockRunner, TigrRunner, SepGraphRunner):
        for method in ("bfs", "sssp", "cc", "bc"):
            if method in cls.__dict__:
                w(cls, method, f"baselines.{cls.name}")
    for fn in ("bfs", "direction_optimizing_bfs", "sssp", "delta_stepping", "cc", "bc", "pagerank"):
        w(algorithms, fn, "algorithms")

    def count_iterations(args, kwargs, ctx):
        plan = args[1] if len(args) > 1 else kwargs["plan"]
        tracer.count("exec.iterations", ctx.iteration - plan.start_iteration)

    w(PlanExecutor, "run", "exec", after=count_iterations)
    w(PlanExecutor, "run_steps", "exec", after=lambda a, k, r: tracer.count("exec.iterations"))

    raw_active = VectorFrontier.active_elements

    def count_duplicates(args, kwargs):
        fin = args[1] if len(args) > 1 else kwargs.get("in_frontier")
        if isinstance(fin, VectorFrontier):
            tracer.count("frontier.vector_raw", fin.size_with_duplicates)
            tracer.count("frontier.vector_distinct", raw_active(fin).size)

    w(advance, "frontier", "operators", before=count_duplicates)
    for fn in ("vertices", "frontier_pull"):
        w(advance, fn, "operators")
    w(compute, "execute", "operators")
    w(compute, "execute_all", "operators")
    w(filter_op, "inplace", "operators")
    w(filter_op, "external", "operators")

    public = ("insert", "remove", "clear", "count", "empty", "active_elements",
              "contains", "compute_offsets")
    frontier_classes = [Frontier] + _subclasses(Frontier)
    for cls in frontier_classes:
        for method in public:
            if method in cls.__dict__ and not getattr(cls.__dict__[method], "__isabstractmethod__", False):
                w(cls, method, "frontier")
    for fn in ("swap", "frontier_union", "frontier_intersection", "frontier_subtraction"):
        w(frontier_ops, fn, "frontier")

    w(Queue, "submit", "sycl.submit")
    w(ProfileLog, "total_ns", "sycl.profile_sum")

    def count_addresses(args, kwargs):
        wl = args[1] if len(args) > 1 else kwargs["wl"]
        tracer.count("perfmodel.addresses", sum(s.count for s in wl.streams))

    w(CostModel, "charge", "perfmodel.charge", before=count_addresses)
    w(pm_cache, "estimate_cache_hits", "perfmodel.cache")


def rebind(orig, new) -> List[Callable[[], None]]:
    """Replace function ``orig`` by ``new`` wherever a ``repro`` module
    holds it: as a module global or as a value of a module-level dict.
    Returns the callables that undo each replacement."""
    undo: List[Callable[[], None]] = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
                undo.append(lambda m=mod, k=key: setattr(m, k, orig))
            elif isinstance(value, dict):
                for dk, dv in list(value.items()):
                    if dv is orig:
                        value[dk] = new
                        undo.append(lambda d=value, k=dk: d.__setitem__(k, orig))
    return undo


def _subclasses(cls) -> list:
    out = {}
    for sub in cls.__subclasses__():
        out[sub] = None
        out.update(dict.fromkeys(_subclasses(sub)))
    return list(out)
