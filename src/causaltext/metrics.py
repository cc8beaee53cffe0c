"""Edge-wise graph metrics, structural distances, and deterministic DAG projection.

``sid`` implements a parent-set disagreement count: for every ordered pair
(i, j), i != j, it checks whether the parent set of j after cutting all edges
into i differs between the two graphs.  Because cutting edges into i leaves
Pa(j) untouched for j != i, this reduces to (n-1) times the number of nodes
whose parent sets differ.  This is NOT the adjustment-set-based structural
intervention distance from the causal-inference literature; it is a
direction-sensitive disagreement count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CyclicInput, ShapeMismatch
from .graphs import Dag, as_adjacency, is_acyclic


@dataclass
class MetricReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    shd: int = 0
    sid: int = 0

    def to_json(self) -> dict:
        # a shallow copy, not asdict: this runs once per evaluated sample
        return dict(vars(self))


@dataclass
class SupportGraph:
    """Real-valued edge supports in [0, 1]; an edge is present iff s >= threshold."""

    n: int
    support: np.ndarray

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=float)
        if self.support.shape != (self.n, self.n):
            raise ShapeMismatch(f"support must be {self.n}x{self.n}")
        np.fill_diagonal(self.support, 0.0)


@dataclass
class ErrorDecomposition:
    missed: list  # FN edges present in target, absent in prediction
    spurious: list  # FP edges absent in target, present in prediction


def _pair(target, predicted):
    # a Dag was checked when it was built; only raw arrays are checked here
    t = target.edges if isinstance(target, Dag) else as_adjacency(target, "target")
    p = predicted.edges if isinstance(predicted, Dag) else as_adjacency(predicted, "predicted")
    if t.shape != p.shape:
        raise ShapeMismatch(f"node counts differ: {t.shape[0]} vs {p.shape[0]}")
    return t, p


def edge_prf(target, predicted) -> MetricReport:
    """Edge-wise TP/FP/FN counts with precision, recall, and F1.

    Conventions at the undefined corners: if both graphs are empty, P = R =
    F1 = 1; if TP = 0 but errors exist, all three are 0.
    """
    t, p = _pair(target, predicted)
    tp = int(np.count_nonzero(t & p))
    fp = int(np.count_nonzero(p)) - tp
    fn = int(np.count_nonzero(t)) - tp
    if tp == 0 and fp == 0 and fn == 0:
        prec = rec = f1 = 1.0
    elif tp == 0:
        prec = rec = f1 = 0.0
    else:
        prec = tp / (tp + fp)
        rec = tp / (tp + fn)
        f1 = 2 * prec * rec / (prec + rec)
    return MetricReport(tp=tp, fp=fp, fn=fn, precision=prec, recall=rec, f1=f1)


def shd(g1, g2) -> int:
    """Edge-wise Hamming distance between two binary adjacency matrices."""
    a, b = _pair(g1, g2)
    return int(np.count_nonzero(a != b))


def sid(g, g_hat) -> int:
    """Parent-set disagreement count over ordered node pairs (see module docstring)."""
    a, b = _pair(g, g_hat)
    if not all(isinstance(x, Dag) or is_acyclic(x) for x in (g, g_hat)):
        raise CyclicInput("sid requires acyclic inputs; project cyclic graphs first")
    n = a.shape[0]
    differing = int(np.count_nonzero((a != b).any(axis=0)))  # nodes whose parent sets differ
    return (n - 1) * differing


def decompose_errors(target, predicted) -> ErrorDecomposition:
    """Explicit lists of missed-required (FN) and spurious (FP) edges."""
    t, p = _pair(target, predicted)
    missed = [(int(i), int(j)) for i, j in zip(*np.nonzero(t > p))]
    spurious = [(int(i), int(j)) for i, j in zip(*np.nonzero(p > t))]
    return ErrorDecomposition(missed=missed, spurious=spurious)


def _reaches(children: list, src: int, dst: int) -> bool:
    """Whether a directed path src -> ... -> dst exists; ``children[u]`` is u's child set as an int bit set."""
    seen = frontier = 1 << src
    target = 1 << dst
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= children[low.bit_length() - 1]
            frontier ^= low
        if reached & target:
            return True
        frontier = reached & ~seen
        seen |= frontier
    return False


def project_dag(sg: SupportGraph, threshold: float = 0.5):
    """Deterministic cycle removal by deleting the lowest-support cycle edge.

    Starts from the edge set {(i, j): s_ij >= threshold}.  While a directed
    cycle exists, among edges lying on at least one cycle the single
    lowest-support edge is removed; ties break by lexicographic (i, j) order.
    Returns (Dag, removal_log) where removal_log is the ordered list of
    removed edges.

    This takes one scan over the edges in ascending (support, i, j) order,
    removing each edge (u, v) whose head v still reaches its tail u.
    Removing an edge only breaks cycles, so the set of edges on a cycle only
    shrinks: an edge on no cycle when the scan reaches it never lies on one
    later, and an edge still on a cycle when the scan reaches it is the
    lowest-keyed cycle edge left, the one the rule removes next.
    """
    edges = (sg.support >= threshold).astype(np.int8)
    np.fill_diagonal(edges, 0)
    us, vs = (ix.tolist() for ix in np.nonzero(edges))
    children = [0] * sg.n
    for u, v in zip(us, vs):
        children[u] |= 1 << v
    removed: list[tuple[int, int]] = []
    for _, u, v in sorted(zip(sg.support[us, vs].tolist(), us, vs)):
        if _reaches(children, v, u):
            children[u] &= ~(1 << v)
            edges[u, v] = 0
            removed.append((u, v))
    return Dag(n=sg.n, edges=edges), removed
