"""Parameterized DAG sampling: density-controlled base edges plus motif injection.

The generator draws a uniform random topological order, includes each
order-respecting pair with probability ``p`` (subject to per-node degree caps),
and then injects confounders, colliders, and mediator chains as subgraph
patterns that respect the same order, so every output is acyclic by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress
from operator import or_

import numpy as np

from .errors import CyclicInput, InvalidSpec, ShapeMismatch

MOTIF_RETRY_BUDGET = 20
# each motif kind, in injection order: the two edges it adds among three nodes
# sorted by topological order (confounder c -> a, c -> b; collider a -> v,
# b -> v; chain i -> m -> j).  Its JSON key is the kind's plural.
MOTIFS = {
    "confounder": ((0, 1), (0, 2)),
    "collider": ((0, 2), (1, 2)),
    "mediator_chain": ((0, 1), (1, 2)),
}


@dataclass(frozen=True)
class GraphSpec:
    """Control parameters for one sampled DAG.

    ``mediator_chains`` is serialized under the JSON key ``"lambda"`` (the
    Python keyword prevents using it as an attribute name).
    """

    n: int
    p: float
    max_parents: int
    max_children: int
    gamma_c: float
    gamma_v: float
    mediator_chains: int
    seed: int = 0

    def validate(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise InvalidSpec(f"n must be an integer >= 2, got {self.n!r}")
        if not 0.0 < self.p < 1.0 and self.p != 1.0:
            # p=1.0 is admitted for the degenerate complete-DAG case used in tests
            raise InvalidSpec(f"p must lie in (0, 1], got {self.p!r}")
        for name, v in (("max_parents", self.max_parents), ("max_children", self.max_children)):
            if not 0 <= v <= self.n - 1:
                raise InvalidSpec(f"{name} must lie in 0..n-1, got {v!r}")
        for name, v in (("gamma_c", self.gamma_c), ("gamma_v", self.gamma_v)):
            if not 0.0 <= v <= 1.0:
                raise InvalidSpec(f"{name} must lie in [0, 1], got {v!r}")
        if not 0 <= self.mediator_chains <= self.n - 2:
            raise InvalidSpec(
                f"mediator_chains must lie in 0..n-2, got {self.mediator_chains!r}"
            )

    def to_json(self) -> dict:
        return {
            "n": int(self.n),
            "p": float(self.p),
            "max_parents": int(self.max_parents),
            "max_children": int(self.max_children),
            "gamma_c": float(self.gamma_c),
            "gamma_v": float(self.gamma_v),
            "lambda": int(self.mediator_chains),
            "seed": int(self.seed),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GraphSpec":
        return cls(
            n=int(obj["n"]),
            p=float(obj["p"]),
            max_parents=int(obj["max_parents"]),
            max_children=int(obj["max_children"]),
            gamma_c=float(obj["gamma_c"]),
            gamma_v=float(obj["gamma_v"]),
            mediator_chains=int(obj["lambda"]),
            seed=int(obj.get("seed", 0)),
        )


_BINARY = frozenset((0, 1))  # False, True, 0.0 and 1.0 are in it too
_BIT = (1).__lshift__  # j -> the bit set {j}


def as_adjacency(adj, name="adjacency") -> list:
    """Check that ``adj`` is square, binary and zero on the diagonal; return its rows as child bit sets.

    Bit j of row i is the edge i -> j.  One pass over the Python rows checks
    and packs them: a JSON list is read as given, an ndarray through
    ``.tolist()``.  A refused matrix is described by numpy: the error names
    its numpy shape, and a ragged list raises numpy's own ValueError.
    """
    rows = adj.tolist() if isinstance(adj, np.ndarray) else adj
    try:
        n = len(rows)
        cols = range(n)
        bits = [sum(map(_BIT, compress(cols, row))) for row in rows if len(row) == n and _BINARY.issuperset(row)]
    except TypeError:  # a scalar, a row that is one, or an entry that is a sequence
        bits = None
    # no rows is square only for a (0, 0) array: an empty list has shape (0,)
    if bits is None or len(bits) != n or not n and np.shape(adj) != (0, 0):
        a = np.asarray(adj)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeMismatch(f"{name} must be square, got shape {a.shape}")
        raise ShapeMismatch(f"{name} must be binary")
    if any(b >> i & 1 for i, b in enumerate(bits)):
        raise ShapeMismatch(f"{name} must have a zero diagonal")
    return bits


class Dag:
    """A directed acyclic graph on ``n`` nodes, kept as its child bit sets.

    Bit j of ``rows[i]`` is the edge i -> j.  Built from an n x n binary
    adjacency matrix, which is checked once and packed into ``rows``; the
    metrics and the projection read only ``rows``.  ``edges``, the int8 matrix
    with ``edges[i, j] == 1`` for the edge i -> j, is unpacked from ``rows``
    the first time it is read and kept from then on.  It is the Dag's own
    read-only array: a later write to the matrix the Dag was built from
    changes neither, and a write to ``edges`` raises ValueError.
    """

    def __init__(self, n: int, edges):
        rows = as_adjacency(edges)
        if len(rows) != n:
            raise ShapeMismatch(f"adjacency must be {n}x{n}, got shape {np.shape(edges)}")
        if not is_acyclic(rows):
            raise CyclicInput("adjacency has a directed cycle")
        self.n, self.rows = n, rows

    @classmethod
    def _from_rows(cls, rows: list) -> "Dag":
        """The DAG whose child bit sets are ``rows``, unchecked: the caller knows they are acyclic and square with a zero diagonal."""
        dag = cls.__new__(cls)
        dag.n, dag.rows = len(rows), rows
        return dag

    @cached_property
    def edges(self) -> np.ndarray:
        n, width = self.n, (self.n + 7) // 8
        packed = np.frombuffer(b"".join([r.to_bytes(width, "little") for r in self.rows]), dtype=np.uint8)
        edges = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(np.int8)
        edges.flags.writeable = False  # a write would leave ``rows``, which the metrics read, behind
        return edges

    def to_json(self) -> dict:
        return {"n": self.n, "edges": self.edges.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Dag":
        return cls(n=int(obj["n"]), edges=obj["edges"])

    def __eq__(self, other) -> bool:
        return isinstance(other, Dag) and self.n == other.n and self.rows == other.rows


@dataclass
class MotifReport:
    """Outcome of the best-effort motif injection pass: counts per kind of ``MOTIFS``."""

    requested: dict = field(default_factory=dict)
    injected: dict = field(default_factory=dict)
    motifs: list = field(default_factory=list)  # (kind, nodes) for verification

    def to_json(self) -> dict:
        return {f"{kind}s": {"requested": self.requested[kind], "injected": self.injected[kind]} for kind in MOTIFS}


def is_acyclic(adj) -> bool:
    """Check acyclicity by peeling the sources of what is left until nothing, or no source, is left.

    ``adj`` is a list of child bit sets, as ``Dag.rows`` keeps them, or a
    square matrix whose nonzero entries are the edges.
    """
    if not isinstance(adj, list) or adj and not isinstance(adj[0], int):
        adj = [sum(map(_BIT, compress(range(len(row)), row))) for row in np.asarray(adj, dtype=bool).tolist()]
    rows = list(adj)  # a peeled node's row is cleared
    left = (1 << len(rows)) - 1
    while left:
        sources = left & ~reduce(or_, rows, 0)
        if not sources:
            return False
        left ^= sources
        while sources:
            low = sources & -sources
            rows[low.bit_length() - 1] = 0
            sources ^= low
    return True


def sample_spec_space(n: int, seed: int) -> GraphSpec:
    """Draw non-n control parameters uniformly from the tested parameter space.

    p ~ Unif(0.05, 0.80); degree caps ~ Unif{1..n-1}; motif ratios
    ~ Unif(0.00, 0.80); mediator chains ~ Unif{0..n-2}.
    """
    if not 3 <= n <= 10:
        raise InvalidSpec(f"n must lie in 3..10 for spec-space sampling, got {n!r}")
    rng = np.random.default_rng(seed)
    spec = GraphSpec(
        n=n,
        p=float(rng.uniform(0.05, 0.80)),
        max_parents=int(rng.integers(1, n)),
        max_children=int(rng.integers(1, n)),
        gamma_c=float(rng.uniform(0.0, 0.80)),
        gamma_v=float(rng.uniform(0.0, 0.80)),
        mediator_chains=int(rng.integers(0, n - 1)),
        seed=seed,
    )
    spec.validate()
    return spec


def _add_edges(adj, edges, in_deg, out_deg, max_parents, max_children) -> bool:
    """Add each edge of ``edges`` that ``adj`` lacks, in turn.  If a full degree
    cap refuses one, undo the edges added and return False."""
    added = []
    for u, v in edges:
        if adj[u][v]:
            continue
        if in_deg[v] >= max_parents or out_deg[u] >= max_children:
            for x, y in added:
                adj[x][y] = 0
                in_deg[y] -= 1
                out_deg[x] -= 1
            return False
        adj[u][v] = 1
        in_deg[v] += 1
        out_deg[u] += 1
        added.append((u, v))
    return True


def _has_room(kind, order, adj, in_deg, out_deg, max_parents, max_children) -> bool:
    """Whether some three nodes, taken in topological order, can still take a motif of ``kind``.

    Exact: False only when every draw of three nodes would fail.  An edge that
    exists always fits; a missing one needs room under both degree caps.
    """
    if kind == "mediator_chain":
        # i -> m -> j: the two edges count against different degrees, so any
        # earlier i and any later j that fit on their own fit together
        return any(
            any(adj[i][m] or (in_deg[m] < max_parents and out_deg[i] < max_children) for i in order[:pos])
            and any(adj[m][j] or (in_deg[j] < max_parents and out_deg[m] < max_children) for j in order[pos + 1:])
            for pos, m in enumerate(order)
        )
    # both edges meet at a hub: c -> a, c -> b from a confounder's first node,
    # a -> v, b -> v into a collider's last; each missing edge takes one of the hub's free slots
    for pos, hub in enumerate(order):
        # (edge present, room at the other end) for each node the hub can join
        if kind == "confounder":
            free = max_children - out_deg[hub]
            ends = [(adj[hub][y], in_deg[y] < max_parents) for y in order[pos + 1:]]
        else:
            free = max_parents - in_deg[hub]
            ends = [(adj[x][hub], out_deg[x] < max_children) for x in order[:pos]]
        need = max(0, 2 - sum(edge for edge, _ in ends))
        if free >= need and sum(1 for edge, room in ends if not edge and room) >= need:
            return True
    return False


def sample_dag(spec: GraphSpec) -> tuple[Dag, MotifReport]:
    """Sample a DAG from the given control parameters.

    Deterministic given the spec (including seed): the seed is split into
    independent child streams for the topological order, the base edges, and
    each motif subroutine, so changing one subroutine's draws never perturbs
    the others.  A motif kind stops drawing from its stream once no three
    nodes can take it.
    """
    spec.validate()
    n, max_parents, max_children = spec.n, spec.max_parents, spec.max_children
    seed_order, seed_base, *seed_motifs = np.random.SeedSequence(spec.seed).spawn(2 + len(MOTIFS))

    order = np.random.default_rng(seed_order).permutation(n).tolist()
    adj = [[0] * n for _ in range(n)]
    in_deg = [0] * n
    out_deg = [0] * n

    # one draw per order-respecting pair, in the order the pairs are visited
    draws = iter(np.random.default_rng(seed_base).random(n * (n - 1) // 2).tolist())
    for a, u in enumerate(order):
        for v in order[a + 1:]:
            if next(draws) < spec.p and in_deg[v] < max_parents and out_deg[u] < max_children:
                adj[u][v] = 1
                in_deg[v] += 1
                out_deg[u] += 1

    counts = (int(spec.gamma_c * n), int(spec.gamma_v * n), spec.mediator_chains)
    report = MotifReport(requested=dict(zip(MOTIFS, counts)), injected=dict.fromkeys(MOTIFS, 0))
    for (kind, pairs), seed in zip(MOTIFS.items(), seed_motifs):
        rng = None
        for _ in range(report.requested[kind]):
            # the edges and degrees only grow, so a kind with no room now never has room again
            if not _has_room(kind, order, adj, in_deg, out_deg, max_parents, max_children):
                break
            if rng is None:
                rng = np.random.default_rng(seed)
            for _attempt in range(MOTIF_RETRY_BUDGET):
                # each motif is added all or nothing
                nodes = [order[k] for k in sorted(rng.choice(n, size=3, replace=False))]
                if _add_edges(adj, [(nodes[s], nodes[t]) for s, t in pairs],
                              in_deg, out_deg, max_parents, max_children):
                    report.injected[kind] += 1
                    report.motifs.append((kind, tuple(nodes)))
                    break

    return Dag(n=n, edges=adj), report
