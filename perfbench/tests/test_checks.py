"""Each output check passes on the program's output and fails once that
output is perturbed; tracing leaves modeled values and the program as
they were.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.algorithms as algorithms  # noqa: F401  (import order, see workloads.py)
import repro.service  # noqa: F401
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph
from repro.graph.generators import path_graph, rmat
from repro.sycl.queue import Queue

import checks
import tracing


@pytest.fixture(scope="module")
def graph():
    coo = rmat(6, 6, seed=3, weighted=True)
    csr = GraphBuilder(Queue(capacity_limit=0)).to_csr(coo)
    source = int(np.argmax(np.bincount(coo.src, minlength=coo.n_vertices)))
    return coo, csr, source, checks.References(coo)


def _reached(dist) -> int:
    """A vertex other than the source with a finite distance."""
    d = np.asarray(dist, dtype=float)
    return int(np.nonzero((d > 0) & np.isfinite(d))[0][0])


def test_hops(graph):
    coo, csr, s, ref = graph
    got = algorithms.bfs(csr, s, layout="2lb").distances
    assert checks.check_hops(ref, s, got) is None
    bad = got.copy()
    bad[_reached(got)] += 1
    assert checks.check_hops(ref, s, bad) is not None
    assert checks.check_output(ref, "dobfs", s, bad) is not None


def test_distances(graph):
    coo, csr, s, ref = graph
    got = algorithms.sssp(csr, s, layout="bitmap").distances
    assert checks.check_distances(ref, s, got) is None
    bad = got.copy()
    bad[_reached(got)] += 0.5
    assert checks.check_distances(ref, s, bad) is not None
    assert checks.check_output(ref, "delta_stepping", s, bad) is not None


def test_components():
    coo = COOGraph(6, np.array([0, 1, 3]), np.array([1, 2, 4]))
    csr = GraphBuilder(Queue(capacity_limit=0)).to_csr(coo.symmetrized())
    ref = checks.References(coo)
    got = algorithms.cc(csr, layout="2lb").labels
    assert checks.check_components(ref, got) is None
    # renaming the parts is still the same partition
    assert checks.check_components(ref, np.asarray(got) + 100) is None
    merged = np.asarray(got).copy()
    merged[3] = merged[0]  # vertex 3 moved into the part of vertex 0
    assert checks.check_components(ref, merged) is not None


def test_dependency(graph):
    coo, csr, s, ref = graph
    got = algorithms.bc(csr, sources=[s], layout="2lb").scores
    assert checks.check_dependency(ref, s, got) is None
    bad = np.asarray(got, dtype=float).copy()
    v = int(np.argmax(bad))
    bad[v] *= 1.01
    assert checks.check_dependency(ref, s, bad) is not None


def test_dependency_with_parallel_arcs():
    # two arcs 0->1 make two shortest paths 0->1->2; networkx would see one
    coo = COOGraph(3, np.array([0, 0, 1]), np.array([1, 1, 2]))
    csr = GraphBuilder(Queue(capacity_limit=0)).to_csr(coo)
    ref = checks.References(coo)
    assert ref.has_parallel_arcs()
    got = algorithms.bc(csr, sources=[0], layout="bitmap").scores
    assert checks.check_dependency(ref, 0, got) is None
    bad = np.asarray(got, dtype=float).copy()
    bad[1] += 1.0
    assert checks.check_dependency(ref, 0, bad) is not None


def test_pagerank(graph):
    coo, csr, s, ref = graph
    got = algorithms.pagerank(csr).ranks
    assert checks.check_pagerank(ref, got) is None
    bad = np.asarray(got, dtype=float).copy()
    bad[0] += 5e-5
    bad[1] -= 5e-5
    assert checks.check_pagerank(ref, bad) is not None


def test_path():
    assert checks.check_path(np.arange(5)) is None
    assert checks.check_path(np.array([0, 1, 3, 2, 4])) is not None


def test_same():
    a = np.array([0.0, 1.0, np.inf])
    assert checks.check_same(a, a.copy()) is None
    assert checks.check_same(a, np.array([0.0, 2.0, np.inf])) is not None


def test_wire():
    step = SimpleNamespace(index=0, wire_bytes=10, idlist_bytes=12)
    good = SimpleNamespace(supersteps=[step], wire_bytes=10, idlist_bytes=12)
    assert checks.check_wire(good) is None
    bad_step = SimpleNamespace(index=1, wire_bytes=13, idlist_bytes=12)
    assert checks.check_wire(SimpleNamespace(supersteps=[step, bad_step], wire_bytes=23, idlist_bytes=24)) is not None
    assert checks.check_wire(SimpleNamespace(supersteps=[], wire_bytes=13, idlist_bytes=12)) is not None


def test_makespan():
    assert checks.check_makespan(SimpleNamespace(makespan_ns=5.0, serialized_ns=5.0)) is None
    assert checks.check_makespan(SimpleNamespace(makespan_ns=6.0, serialized_ns=5.0)) is not None


def test_all_completed():
    from repro.service import RequestStatus

    done = SimpleNamespace(req_id=0, status=RequestStatus.COMPLETED, reason="")
    shed = SimpleNamespace(req_id=1, status=RequestStatus.SHED, reason="queue full")
    assert checks.check_all_completed(SimpleNamespace(records=[done])) is None
    assert checks.check_all_completed(SimpleNamespace(records=[done, shed])) is not None


def test_tracing_keeps_modeled_values_and_restores_the_program():
    from repro.perfmodel.cost import CostModel
    from repro.sycl.profiling import ProfileLog

    def run():
        q = Queue()
        g = GraphBuilder(q).to_csr(path_graph(50))
        dist = algorithms.bfs(g, 0, layout="2lb").distances
        return q.elapsed_ns, [c.time_ns for c in q.profile.costs], dist

    before = (algorithms.bfs, CostModel.charge, ProfileLog.__dict__["total_ns"])
    plain = run()
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert (algorithms.bfs, CostModel.charge, ProfileLog.__dict__["total_ns"]) == before
    assert traced[0] == plain[0] and traced[1] == plain[1]
    assert np.array_equal(traced[2], plain[2])
    assert tracer.n_calls("sycl.submit") == len(plain[1])
    assert tracer.counters["exec.iterations"] > 0
    # self times never exceed inclusive times, and spans nest in time
    for row in tracer.table():
        assert row["self_s"] <= row["inclusive_s"] + 1e-9 or row["calls"] == 0
    start, end, parent = (np.frombuffer(a, dtype=np.int64) for a in (tracer.start, tracer.end, tracer.parent))
    inner = parent >= 0
    assert np.all(start[inner] >= start[parent[inner]]) and np.all(end[inner] <= end[parent[inner]])


def test_a_raising_operation_counts_as_failed_not_wrong():
    import workloads

    rnd = workloads.Round()
    assert rnd.op("ok", lambda: 7) == 7
    assert rnd.op("boom", lambda: 1 / 0) is None
    assert rnd.failed == 1 and not rnd.wrong and len(rnd.op_s) == 2


def test_precomputed_references_check_alike_and_compute_nothing(graph):
    coo, csr, s, ref = graph
    got = algorithms.bfs(csr, s, layout="2lb").distances
    computed = checks.References(coo)
    checks.REFERENCE["bfs"](computed, s)
    copy = checks.References.precomputed(computed.outputs())
    assert checks.check_output(copy, "bfs", s, got) is None
    bad = got.copy()
    bad[_reached(got)] += 1
    assert checks.check_output(copy, "bfs", s, bad) is not None
    # an output that was not computed beforehand is reported, not computed
    assert "no reference output" in checks.check_output(copy, "cc", s, got)
