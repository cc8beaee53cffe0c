"""Parameterized DAG sampling: density-controlled base edges plus motif injection.

The generator draws a uniform random topological order, includes each
order-respecting pair with probability ``p`` (subject to per-node degree caps),
and then injects confounders, colliders, and mediator chains as subgraph
patterns that respect the same order, so every output is acyclic by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec

MOTIF_RETRY_BUDGET = 20


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


@dataclass
class Dag:
    """A directed acyclic graph given as an n x n binary adjacency matrix.

    Entry ``edges[i, j] == 1`` means a directed edge i -> j.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int8)
        if self.edges.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be {self.n}x{self.n}")

    def parents(self, j: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.edges[:, j])]

    def children(self, i: int) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.edges[i, :])]

    @property
    def edge_count(self) -> int:
        return int(self.edges.sum())

    def edge_list(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.edges))]

    def is_acyclic(self) -> bool:
        return is_acyclic(self.edges)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": self.edges.astype(int).tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Dag":
        return cls(n=int(obj["n"]), edges=np.asarray(obj["edges"], dtype=np.int8))

    def __eq__(self, other) -> bool:
        return isinstance(other, Dag) and self.n == other.n and np.array_equal(
            self.edges, other.edges
        )


@dataclass
class MotifReport:
    """Outcome of the best-effort motif injection pass."""

    confounders_requested: int = 0
    confounders_injected: int = 0
    colliders_requested: int = 0
    colliders_injected: int = 0
    mediator_chains_requested: int = 0
    mediator_chains_injected: int = 0
    motifs: list = field(default_factory=list)  # (kind, nodes) for verification

    def to_json(self) -> dict:
        return {
            "confounders": {"requested": self.confounders_requested, "injected": self.confounders_injected},
            "colliders": {"requested": self.colliders_requested, "injected": self.colliders_injected},
            "mediator_chains": {
                "requested": self.mediator_chains_requested,
                "injected": self.mediator_chains_injected,
            },
        }


def is_acyclic(adj: np.ndarray) -> bool:
    """Check acyclicity by iteratively peeling nodes with zero in-degree."""
    rows = np.asarray(adj, dtype=bool).tolist()
    children = [[v for v, edge in enumerate(row) if edge] for row in rows]
    indeg = [sum(col) for col in zip(*rows)]
    stack = [v for v, d in enumerate(indeg) if d == 0]
    peeled = 0
    while stack:
        u = stack.pop()
        peeled += 1
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    return peeled == len(indeg)


def topological_order(adj: np.ndarray) -> list[int]:
    """Kahn's algorithm; raises ValueError on a cyclic input."""
    a = np.asarray(adj, dtype=bool).copy()
    n = a.shape[0]
    indeg = a.sum(axis=0).astype(int)
    frontier = sorted(np.flatnonzero(indeg == 0).tolist())
    order = []
    while frontier:
        u = frontier.pop(0)
        order.append(u)
        for v in np.flatnonzero(a[u]):
            a[u, v] = False
            indeg[v] -= 1
            if indeg[v] == 0:
                frontier.append(int(v))
    if len(order) != n:
        raise ValueError("graph contains a directed cycle")
    return order


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


def _try_add_edge(edges, u, v, in_deg, out_deg, max_parents, max_children) -> bool:
    if edges[u, v]:
        return True
    if in_deg[v] >= max_parents or out_deg[u] >= max_children:
        return False
    edges[u, v] = 1
    in_deg[v] += 1
    out_deg[u] += 1
    return True


def sample_dag(spec: GraphSpec) -> tuple[Dag, MotifReport]:
    """Sample a DAG from the given control parameters.

    Deterministic given the spec (including seed): the seed is split into
    independent child streams for the topological order, the base edges, and
    each motif subroutine, so changing one subroutine's draws never perturbs
    the others.
    """
    spec.validate()
    n = spec.n
    ss = np.random.SeedSequence(spec.seed)
    rng_order, rng_base, rng_conf, rng_coll, rng_chain = (
        np.random.default_rng(s) for s in ss.spawn(5)
    )

    order = rng_order.permutation(n)
    pos = np.empty(n, dtype=int)  # pos[node] = position in topological order
    pos[order] = np.arange(n)

    edges = np.zeros((n, n), dtype=np.int8)
    in_deg = np.zeros(n, dtype=int)
    out_deg = np.zeros(n, dtype=int)

    for a in range(n):
        for b in range(a + 1, n):
            u, v = order[a], order[b]
            if rng_base.random() < spec.p:
                _try_add_edge(edges, u, v, in_deg, out_deg, spec.max_parents, spec.max_children)

    report = MotifReport(
        confounders_requested=int(spec.gamma_c * n),
        colliders_requested=int(spec.gamma_v * n),
        mediator_chains_requested=spec.mediator_chains,
    )

    def inject(kind, count, rng, pairs):
        # each motif adds the two edges ``pairs`` among three nodes sorted by
        # topological order, all or nothing
        injected = 0
        for _ in range(count if n >= 3 else 0):
            for _attempt in range(MOTIF_RETRY_BUDGET):
                nodes = [order[k] for k in sorted(rng.choice(n, size=3, replace=False))]
                snapshot = (edges.copy(), in_deg.copy(), out_deg.copy())
                if all(
                    _try_add_edge(edges, nodes[s], nodes[t], in_deg, out_deg, spec.max_parents, spec.max_children)
                    for s, t in pairs
                ):
                    injected += 1
                    report.motifs.append((kind, tuple(int(v) for v in nodes)))
                    break
                edges[:], in_deg[:], out_deg[:] = snapshot
        return injected

    # confounder c -> a, c -> b; collider a -> v, b -> v; chain i -> m -> j
    report.confounders_injected = inject("confounder", report.confounders_requested, rng_conf, ((0, 1), (0, 2)))
    report.colliders_injected = inject("collider", report.colliders_requested, rng_coll, ((0, 2), (1, 2)))
    report.mediator_chains_injected = inject(
        "mediator_chain", report.mediator_chains_requested, rng_chain, ((0, 1), (1, 2))
    )

    return Dag(n=n, edges=edges), report
