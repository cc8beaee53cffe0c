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

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, or_, xor

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
        self.support = np.array(self.support, dtype=float)  # a copy: the diagonal is zeroed below
        if self.support.shape != (self.n, self.n):
            raise ShapeMismatch(f"support must be {self.n}x{self.n}")
        np.fill_diagonal(self.support, 0.0)


@dataclass
class ErrorDecomposition:
    missed: list  # FN edges present in target, absent in prediction
    spurious: list  # FP edges absent in target, present in prediction


def _pair(target, predicted):
    """The child bit sets of two graphs on as many nodes; a Dag brings its ``rows``, a raw matrix is checked here."""
    t = target.rows if isinstance(target, Dag) else as_adjacency(target, "target")
    p = predicted.rows if isinstance(predicted, Dag) else as_adjacency(predicted, "predicted")
    if len(t) != len(p):
        raise ShapeMismatch(f"node counts differ: {len(t)} vs {len(p)}")
    return t, p


def _count(rows) -> int:
    """The number of edges in a list of child bit sets."""
    return sum(map(int.bit_count, rows))


def edge_prf(target, predicted) -> MetricReport:
    """Edge-wise TP/FP/FN counts with precision, recall, and F1.

    Conventions at the undefined corners: if both graphs are empty, P = R =
    F1 = 1; if TP = 0 but errors exist, all three are 0.
    """
    t, p = _pair(target, predicted)
    tp = _count(map(and_, t, p))
    fp = _count(p) - tp
    fn = _count(t) - tp
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
    return _count(map(xor, a, b))


def sid(g, g_hat) -> int:
    """Parent-set disagreement count over ordered node pairs (see module docstring)."""
    a, b = _pair(g, g_hat)
    if not all(isinstance(x, Dag) or is_acyclic(rows) for x, rows in ((g, a), (g_hat, b))):
        raise CyclicInput("sid requires acyclic inputs; project cyclic graphs first")
    differing = reduce(or_, map(xor, a, b), 0).bit_count()  # nodes whose parent sets differ
    return (len(a) - 1) * differing


def decompose_errors(target, predicted) -> ErrorDecomposition:
    """Explicit lists of missed-required (FN) and spurious (FP) edges."""
    t, p = _pair(target, predicted)
    cols = range(len(t))
    missed = [(i, j) for i, (a, b) in enumerate(zip(t, p)) for j in cols if (a & ~b) >> j & 1]
    spurious = [(i, j) for i, (a, b) in enumerate(zip(t, p)) for j in cols if (b & ~a) >> j & 1]
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


def project_dag(sg, threshold: float = 0.5):
    """Deterministic cycle removal by deleting the lowest-support cycle edge.

    ``sg`` is a ``SupportGraph``, whose edge set is {(i, j): s_ij >= threshold},
    or the child bit sets of a binary matrix, as ``as_adjacency`` returns them,
    whose edges all have the same support (``threshold`` is not read).  While a
    directed cycle exists, among edges lying on at least one cycle the single
    lowest-support edge is removed; ties break by lexicographic (i, j) order.
    Returns (Dag, removal_log) where removal_log is the ordered list of
    removed edges; an acyclic edge set comes back as it is, with no removals.

    A cyclic edge set takes one scan over its edges in ascending
    (support, i, j) order, removing each edge (u, v) whose head v still
    reaches its tail u.  Removing an edge only breaks cycles, so the set of
    edges on a cycle only shrinks: an edge on no cycle when the scan reaches
    it never lies on one later, and an edge still on a cycle when the scan
    reaches it is the lowest-keyed cycle edge left, the one the rule removes
    next.  So the scan leaves no cycle, and its rows need no further check.
    """
    if isinstance(sg, SupportGraph):
        n = sg.n
        support = sg.support.ravel().tolist()  # cell k is the pair (k // n, k % n)
        present = list(map(float(threshold).__le__, support))
        present[::n + 1] = [False] * n  # no self-loops
        cells = list(compress(range(n * n), present))
        rows = [0] * n  # child bit sets
        for k in cells:
            u, v = divmod(k, n)
            rows[u] |= 1 << v
    else:
        rows = list(sg)
        n = len(rows)
    removed: list[tuple[int, int]] = []
    if is_acyclic(rows):
        return Dag._from_rows(rows), removed
    if isinstance(sg, SupportGraph):
        # k = u * n + v orders the pairs as (u, v) does
        scan = [k for _, k in sorted(zip(compress(support, present), cells))]
    else:
        scan = [u * n + v for u, row in enumerate(rows) for v in range(n) if row >> v & 1]
    for k in scan:
        u, v = divmod(k, n)
        if _reaches(rows, v, u):
            rows[u] &= ~(1 << v)
            removed.append((u, v))
    return Dag._from_rows(rows), removed
