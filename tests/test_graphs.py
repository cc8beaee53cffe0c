import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext.errors import InvalidSpec
from causaltext.graphs import (
    Dag,
    GraphSpec,
    is_acyclic,
    sample_dag,
    sample_spec_space,
    topological_order,
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
        assert topological_order(a) == [0, 1, 2]

    @given(adjacency())
    @settings(max_examples=300, deadline=None)
    def test_matches_matrix_peel(self, a):
        assert is_acyclic(a) == matrix_peel_is_acyclic(a)

    def test_topological_order_rejects_cycles(self):
        with pytest.raises(ValueError):
            topological_order(np.array([[0, 1], [1, 0]]))


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
        assert dag.is_acyclic()
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
            total += dag.edge_count
            possible += 8 * 7 // 2
        assert abs(total / possible - p) < 0.02

    def test_motif_report_counts(self):
        spec = make_spec(n=8, p=0.1, max_parents=7, max_children=7, gamma_c=0.5, gamma_v=0.5, mediator_chains=3, seed=11)
        dag, report = sample_dag(spec)
        assert report.confounders_requested == int(0.5 * 8)
        assert report.colliders_requested == 4
        assert report.mediator_chains_requested == 3
        assert report.confounders_injected <= report.confounders_requested
        assert dag.is_acyclic()

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
    def test_parents_children(self):
        dag = Dag(n=3, edges=np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]]))
        assert dag.parents(1) == [0]
        assert dag.children(0) == [1, 2]
        assert dag.edge_list() == [(0, 1), (0, 2)]

    def test_json_roundtrip(self):
        dag = Dag(n=2, edges=np.array([[0, 1], [0, 0]]))
        assert Dag.from_json(dag.to_json()) == dag
