import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext.errors import CyclicInput, InvalidSpec, ShapeMismatch
from causaltext.graphs import (
    MOTIF_RETRY_BUDGET,
    MOTIFS,
    Dag,
    GraphSpec,
    MotifReport,
    is_acyclic,
    sample_dag,
    sample_spec_space,
)


def matrix_peel_is_acyclic(adj):
    """Reference: peel every zero in-degree node of the live subgraph at once."""
    a = np.asarray(adj, dtype=bool).copy()
    alive = np.ones(a.shape[0], dtype=bool)
    while alive.any():
        indeg = a[alive][:, alive].sum(axis=0)
        sources = np.flatnonzero(alive)[indeg == 0]
        if sources.size == 0:
            return False
        alive[sources] = False
        a[sources, :] = False
    return True


@st.composite
def adjacency(draw):
    """A 0/1 matrix on 1..10 nodes: random, or an order-respecting DAG."""
    n = draw(st.integers(1, 10))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    a = np.array(bits, dtype=np.int8).reshape(n, n)
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        a = np.triu(a, 1)[np.ix_(order, order)]
    return a


def reference_sample_dag(spec):
    """The sampler on numpy arrays, run literally: one base-edge draw per pair,
    and every motif makes all its attempts, each from a copy of the arrays."""
    spec.validate()
    n = spec.n
    ss = np.random.SeedSequence(spec.seed)
    rng_order, rng_base, *rng_motifs = (np.random.default_rng(s) for s in ss.spawn(2 + len(MOTIFS)))
    order = rng_order.permutation(n)
    edges = np.zeros((n, n), dtype=np.int8)
    in_deg = np.zeros(n, dtype=int)
    out_deg = np.zeros(n, dtype=int)

    def try_add_edge(u, v):
        if edges[u, v]:
            return True
        if in_deg[v] >= spec.max_parents or out_deg[u] >= spec.max_children:
            return False
        edges[u, v] = 1
        in_deg[v] += 1
        out_deg[u] += 1
        return True

    for a in range(n):
        for b in range(a + 1, n):
            if rng_base.random() < spec.p:
                try_add_edge(order[a], order[b])
    counts = (int(spec.gamma_c * n), int(spec.gamma_v * n), spec.mediator_chains)
    report = MotifReport(requested=dict(zip(MOTIFS, counts)))
    for (kind, pairs), rng in zip(MOTIFS.items(), rng_motifs):
        report.injected[kind] = 0
        for _ in range(report.requested[kind] if n >= 3 else 0):
            for _attempt in range(MOTIF_RETRY_BUDGET):
                nodes = [order[k] for k in sorted(rng.choice(n, size=3, replace=False))]
                snapshot = (edges.copy(), in_deg.copy(), out_deg.copy())
                if all(try_add_edge(nodes[s], nodes[t]) for s, t in pairs):
                    report.injected[kind] += 1
                    report.motifs.append((kind, tuple(int(v) for v in nodes)))
                    break
                edges[:], in_deg[:], out_deg[:] = snapshot
    return Dag(n=n, edges=edges), report


def edge_case_specs():
    """Specs at the edges of the domain: n = 2, p = 1, zero and full caps, gamma 0 or 1, lambda = n - 2."""
    for n in (2, 3, 5, 10):
        for p in (0.3, 1.0):
            for caps in ((0, 0), (0, n - 1), (n - 1, 0), (1, 1), (2, 1), (n - 1, n - 1)):
                for gammas in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5)):
                    for seed in range(3):
                        yield GraphSpec(n, p, min(caps[0], n - 1), min(caps[1], n - 1), *gammas,
                                        mediator_chains=n - 2, seed=seed)


def make_spec(**kw):
    base = dict(n=5, p=0.4, max_parents=4, max_children=4, gamma_c=0.0, gamma_v=0.0, mediator_chains=0, seed=0)
    base.update(kw)
    return GraphSpec(**base)


class TestSpecValidation:
    def test_valid_spec_passes(self):
        make_spec().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            {"n": 1},
            {"p": 0.0},
            {"p": 1.5},
            {"p": -0.1},
            {"max_parents": 5},
            {"max_parents": -1},
            {"max_children": 5},
            {"gamma_c": 1.2},
            {"gamma_v": -0.5},
            {"mediator_chains": 4},
            {"mediator_chains": -1},
        ],
    )
    def test_out_of_domain_rejected(self, kw):
        with pytest.raises(InvalidSpec):
            make_spec(**kw).validate()

    def test_json_roundtrip(self):
        spec = make_spec(mediator_chains=2, seed=7)
        obj = spec.to_json()
        assert obj["lambda"] == 2
        assert GraphSpec.from_json(obj) == spec


class TestAcyclicity:
    def test_empty_graph(self):
        assert is_acyclic(np.zeros((4, 4), dtype=int))

    def test_two_cycle(self):
        a = np.array([[0, 1], [1, 0]])
        assert not is_acyclic(a)

    def test_chain(self):
        a = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert is_acyclic(a)

    @given(adjacency())
    @settings(max_examples=300, deadline=None)
    def test_matches_matrix_peel(self, a):
        assert is_acyclic(a) == matrix_peel_is_acyclic(a)


class TestSampler:
    def test_deterministic_given_seed(self):
        spec = make_spec(gamma_c=0.5, gamma_v=0.5, mediator_chains=2, seed=123)
        d1, r1 = sample_dag(spec)
        d2, r2 = sample_dag(spec)
        assert json.dumps(d1.to_json()) == json.dumps(d2.to_json())
        assert r1.to_json() == r2.to_json()

    def test_different_seeds_differ(self):
        outs = {json.dumps(sample_dag(make_spec(seed=s))[0].to_json()) for s in range(20)}
        assert len(outs) > 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_acyclic_and_caps(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        spec = sample_spec_space(n, seed)
        dag, _ = sample_dag(spec)
        assert is_acyclic(dag.edges)
        assert not np.diagonal(dag.edges).any()
        assert dag.edges.sum(axis=0).max() <= spec.max_parents
        assert dag.edges.sum(axis=1).max() <= spec.max_children

    def test_base_density_tracks_p(self):
        p = 0.3
        total = 0
        possible = 0
        for s in range(600):
            spec = make_spec(n=8, p=p, max_parents=7, max_children=7, seed=s)
            dag, _ = sample_dag(spec)
            total += int(dag.edges.sum())
            possible += 8 * 7 // 2
        assert abs(total / possible - p) < 0.02

    def test_motif_report_counts(self):
        spec = make_spec(n=8, p=0.1, max_parents=7, max_children=7, gamma_c=0.5, gamma_v=0.5, mediator_chains=3, seed=11)
        dag, report = sample_dag(spec)
        assert report.requested == {"confounder": int(0.5 * 8), "collider": 4, "mediator_chain": 3}
        assert all(report.injected[kind] <= report.requested[kind] for kind in report.requested)
        assert sum(report.injected.values()) == len(report.motifs)
        assert set(report.to_json()) == {"confounders", "colliders", "mediator_chains"}
        assert is_acyclic(dag.edges)

    def test_injected_motifs_present_in_graph(self):
        spec = make_spec(n=7, p=0.05, max_parents=6, max_children=6, gamma_c=0.6, gamma_v=0.6, mediator_chains=2, seed=3)
        dag, report = sample_dag(spec)
        for kind, nodes in report.motifs:
            if kind == "confounder":
                c, x, y = nodes
                assert dag.edges[c, x] and dag.edges[c, y]
            elif kind == "collider":
                x, y, v = nodes
                assert dag.edges[x, v] and dag.edges[y, v]
            else:
                i, m, j = nodes
                assert dag.edges[i, m] and dag.edges[m, j]


class TestReferenceSampler:
    """``sample_dag`` gives what the array sampler gives: the same edges, motif counts and motif nodes."""

    def assert_same(self, spec):
        dag, report = sample_dag(spec)
        want_dag, want = reference_sample_dag(spec)
        assert dag.edges.dtype == np.int8 and np.array_equal(dag.edges, want_dag.edges), spec
        assert (report.requested, report.injected, report.motifs) == (want.requested, want.injected, want.motifs), spec
        assert all(type(v) is int for _, nodes in report.motifs for v in nodes)

    def test_spec_space(self):
        for k in range(2_000):
            self.assert_same(sample_spec_space(3 + k % 8, seed=k))

    def test_edge_case_specs(self):
        for spec in edge_case_specs():
            self.assert_same(spec)


class TestSpecSpace:
    def test_sampled_ranges(self):
        for seed in range(50):
            spec = sample_spec_space(6, seed)
            assert 0.05 <= spec.p <= 0.80
            assert 1 <= spec.max_parents <= 5
            assert 1 <= spec.max_children <= 5
            assert 0.0 <= spec.gamma_c <= 0.80
            assert 0.0 <= spec.gamma_v <= 0.80
            assert 0 <= spec.mediator_chains <= 4

    def test_n_out_of_range(self):
        with pytest.raises(InvalidSpec):
            sample_spec_space(2, 0)
        with pytest.raises(InvalidSpec):
            sample_spec_space(11, 0)


class TestDag:
    def test_json_roundtrip(self):
        dag = Dag(n=2, edges=np.array([[0, 1], [0, 0]]))
        assert Dag.from_json(dag.to_json()) == dag

    def test_cycle_rejected(self):
        with pytest.raises(CyclicInput):
            Dag(n=3, edges=np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))

    @pytest.mark.parametrize(
        "n, edges",
        [
            (2, [[0, 2], [0, 0]]),  # non-binary entry
            (2, [[1, 0], [0, 0]]),  # self-loop
            (2, [[0, 1, 0], [0, 0, 0]]),  # not square
            (3, [[0, 1], [0, 0]]),  # square, but not n x n
        ],
        ids=["non-binary", "self-loop", "non-square", "wrong-n"],
    )
    def test_malformed_adjacency_rejected(self, n, edges):
        with pytest.raises(ShapeMismatch):
            Dag(n=n, edges=np.array(edges))
        with pytest.raises(ShapeMismatch):
            Dag.from_json({"n": n, "edges": edges})
