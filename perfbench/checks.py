"""Output checks computed apart from the program under test.

BFS hop counts, SSSP distances and CC partitions come from
``scipy.sparse.csgraph``; BC and PageRank from networkx.  networkx's
Brandes counts a parallel arc once while the program counts each arc as
its own shortest path, so on graphs with parallel arcs BC falls back to
``repro.checking.oracle`` with the differential checker's tolerances.

Every check returns ``None`` when the output is right and a one-line
description of the first difference otherwise.  No check reads a saved
copy of an earlier output.  The benchmark computes the reference
outputs in a process of their own (``References.outputs``) and checks
against ``References.precomputed``, so neither their time nor the memory
of scipy's and networkx's graphs counts as the program's.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

#: BC tolerances of the differential checker (repro.checking.differential)
BC_RTOL, BC_ATOL = 1e-6, 1e-9
#: SSSP tolerances of the differential checker
SSSP_RTOL, SSSP_ATOL = 1e-9, 1e-12
#: PageRank stops once an iteration moves the ranks by <= 1e-6 in L1;
#: the damped update is a 0.85-contraction in L1, so the stopped vector
#: lies within 0.85 / 0.15 * 1e-6 ~= 5.7e-6 of the fixed point
PAGERANK_L1 = 1e-5


def _first_diff(bad: np.ndarray, want, got) -> str:
    v = int(bad[0])
    return f"{bad.size} vertices differ, first {v}: want {want[v]!r}, got {got[v]!r}"


class References:
    """Reference outputs of one host COO graph, computed on demand."""

    def __init__(self, coo):
        self.n = int(coo.n_vertices)
        self.src = np.asarray(coo.src, dtype=np.int64)
        self.dst = np.asarray(coo.dst, dtype=np.int64)
        self.weights = None if coo.weights is None else np.asarray(coo.weights, dtype=np.float64)
        self._cache: Dict[Tuple, np.ndarray] = {}

    @classmethod
    def precomputed(cls, outputs: Dict[Tuple, np.ndarray]) -> "References":
        """Reference outputs computed elsewhere (by :meth:`outputs` in
        another process); asking for one that is missing raises
        LookupError instead of computing it here."""
        ref = cls.__new__(cls)
        ref.src = None
        ref._cache = dict(outputs)
        return ref

    def outputs(self) -> Dict[Tuple, np.ndarray]:
        """The reference outputs computed so far, adjacency matrices left out."""
        return {k: v for k, v in self._cache.items() if k[0] != "matrix"}

    def _get(self, key: Tuple, compute) -> np.ndarray:
        if key not in self._cache:
            if self.src is None:
                raise LookupError(f"no reference output {key}")
            self._cache[key] = compute()
        return self._cache[key]

    def _matrix(self, weighted: bool):
        """Adjacency matrix keeping the lightest of parallel arcs
        (scipy would sum them)."""
        import scipy.sparse as sp

        def build():
            w = self.weights if weighted else np.ones(self.src.size)
            order = np.lexsort((w, self.dst, self.src))
            s, d, w = self.src[order], self.dst[order], w[order]
            first = np.ones(s.size, dtype=bool)
            first[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
            return sp.csr_matrix((w[first], (s[first], d[first])), shape=(self.n, self.n))

        return self._get(("matrix", weighted), build)

    def hops(self, source: int) -> np.ndarray:
        from scipy.sparse import csgraph

        def compute():
            d = csgraph.dijkstra(self._matrix(False), indices=source, unweighted=True)
            return np.where(np.isinf(d), -1, d).astype(np.int64)

        return self._get(("hops", source), compute)

    def distances(self, source: int) -> np.ndarray:
        from scipy.sparse import csgraph

        def compute():
            if self.weights is None:
                raise ValueError("SSSP reference needs a weighted graph")
            return csgraph.dijkstra(self._matrix(True), indices=source)

        return self._get(("dist", source), compute)

    def components(self) -> np.ndarray:
        """Weakly connected components as min-member labels."""
        from scipy.sparse import csgraph

        def compute():
            _, labels = csgraph.connected_components(self._matrix(False), directed=True, connection="weak")
            return canonical_labels(labels)

        return self._get(("cc",), compute)

    def has_parallel_arcs(self) -> bool:
        pairs = self.src * max(1, self.n) + self.dst
        return np.unique(pairs).size != pairs.size

    def dependency(self, source: int) -> np.ndarray:
        """Single-source Brandes dependency (directed, unnormalized)."""
        def compute():
            if self.has_parallel_arcs():
                from repro.checking.oracle import oracle_bc

                return oracle_bc(self.n, self.src, self.dst, [source])
            import networkx as nx

            g = nx.DiGraph()
            g.add_nodes_from(range(self.n))
            g.add_edges_from(zip(self.src.tolist(), self.dst.tolist()))
            scores = nx.betweenness_centrality_subset(g, sources=[source], targets=list(g), normalized=False)
            return np.array([scores[v] for v in range(self.n)], dtype=np.float64)

        return self._get(("bc", source), compute)

    def pagerank(self) -> np.ndarray:
        import networkx as nx

        def compute():
            # a multigraph gives every parallel arc its own share of the
            # out-degree, as the program does
            g = nx.MultiDiGraph()
            g.add_nodes_from(range(self.n))
            g.add_edges_from(zip(self.src.tolist(), self.dst.tolist()))
            ranks = nx.pagerank(g, alpha=0.85, tol=1e-13, max_iter=10_000)
            return np.array([ranks[v] for v in range(self.n)], dtype=np.float64)

        return self._get(("pr",), compute)


def canonical_labels(labels) -> np.ndarray:
    """Relabel a partition by the smallest vertex id of each part."""
    labels = np.asarray(labels)
    uniq, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)].astype(np.int64)


def check_hops(ref: References, source: int, got) -> Optional[str]:
    want, got = ref.hops(source), np.asarray(got)
    if got.shape != want.shape:
        return f"shape {got.shape}, want {want.shape}"
    bad = np.nonzero(got.astype(np.int64) != want)[0]
    return _first_diff(bad, want, got) if bad.size else None


def check_distances(ref: References, source: int, got) -> Optional[str]:
    want, got = ref.distances(source), np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return f"shape {got.shape}, want {want.shape}"
    bad = np.nonzero(~np.isclose(got, want, rtol=SSSP_RTOL, atol=SSSP_ATOL, equal_nan=True))[0]
    return _first_diff(bad, want, got) if bad.size else None


def check_components(ref: References, got) -> Optional[str]:
    want = ref.components()
    got = np.asarray(got)
    if got.shape != want.shape:
        return f"shape {got.shape}, want {want.shape}"
    got = canonical_labels(got)
    bad = np.nonzero(got != want)[0]
    return _first_diff(bad, want, got) if bad.size else None


def check_dependency(ref: References, source: int, got) -> Optional[str]:
    want, got = ref.dependency(source), np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return f"shape {got.shape}, want {want.shape}"
    bad = np.nonzero(~np.isclose(got, want, rtol=BC_RTOL, atol=BC_ATOL))[0]
    return _first_diff(bad, want, got) if bad.size else None


def check_pagerank(ref: References, got) -> Optional[str]:
    want, got = ref.pagerank(), np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return f"shape {got.shape}, want {want.shape}"
    l1 = float(np.abs(got - want).sum())
    return None if l1 <= PAGERANK_L1 else f"L1 distance {l1:.3g} from networkx > {PAGERANK_L1:g}"


#: the check of each algorithm (the serving layer's algorithm names)
CHECKS = {
    "bfs": lambda ref, s, got: check_hops(ref, s, got),
    "dobfs": lambda ref, s, got: check_hops(ref, s, got),
    "sssp": lambda ref, s, got: check_distances(ref, s, got),
    "delta_stepping": lambda ref, s, got: check_distances(ref, s, got),
    "cc": lambda ref, s, got: check_components(ref, got),
    "bc": lambda ref, s, got: check_dependency(ref, s, got),
    "pagerank": lambda ref, s, got: check_pagerank(ref, got),
}
#: the reference output each check reads
REFERENCE = {
    "bfs": lambda ref, s: ref.hops(s),
    "dobfs": lambda ref, s: ref.hops(s),
    "sssp": lambda ref, s: ref.distances(s),
    "delta_stepping": lambda ref, s: ref.distances(s),
    "cc": lambda ref, s: ref.components(),
    "bc": lambda ref, s: ref.dependency(s),
    "pagerank": lambda ref, s: ref.pagerank(),
}


def check_output(ref: References, algorithm: str, source: int, got) -> Optional[str]:
    """Check one algorithm output (the serving layer's algorithm names)."""
    check = CHECKS.get(algorithm)
    if check is None:
        return f"no check for algorithm {algorithm!r}"
    try:
        return check(ref, source, got)
    except LookupError as exc:
        return f"{exc}"


# --------------------------------------------------------------------- #
# property checks                                                       #
# --------------------------------------------------------------------- #
def check_path(got) -> Optional[str]:
    """On the path 0 -> 1 -> ... with unit weights, vertex i is at distance i."""
    got = np.asarray(got)
    want = np.arange(got.size, dtype=np.float64)
    if got.ndim != 1:
        return f"shape {got.shape}, want {want.shape}"
    bad = np.nonzero(got.astype(np.float64) != want)[0]
    return _first_diff(bad, want, got) if bad.size else None


def check_same(single, gang) -> Optional[str]:
    """A gang (multi-device) result equals the single-device result."""
    single, gang = np.asarray(single), np.asarray(gang)
    if single.shape != gang.shape:
        return f"shape {gang.shape}, single-device {single.shape}"
    bad = np.nonzero(single != gang)[0]
    return _first_diff(bad, single, gang) if bad.size else None


def check_wire(result) -> Optional[str]:
    """Ghost-exchange wire bytes never exceed the id-list encoding."""
    for st in result.supersteps:
        if st.wire_bytes > st.idlist_bytes:
            return f"superstep {st.index}: wire {st.wire_bytes} B > id-list {st.idlist_bytes} B"
    if result.wire_bytes > result.idlist_bytes:
        return f"run: wire {result.wire_bytes} B > id-list {result.idlist_bytes} B"
    return None


def check_makespan(report) -> Optional[str]:
    """The pool's modeled makespan is at most the one-queue makespan."""
    if report.makespan_ns > report.serialized_ns:
        return f"makespan {report.makespan_ns} ns > serialized {report.serialized_ns} ns"
    return None


def check_all_completed(report) -> Optional[str]:
    from repro.service import RequestStatus

    left = [r for r in report.records if r.status is not RequestStatus.COMPLETED]
    if left:
        r = left[0]
        return f"{len(left)} requests did not complete, first {r.req_id}: {r.status.value} ({r.reason})"
    return None
