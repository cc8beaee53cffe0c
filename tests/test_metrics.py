import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext import metrics
from causaltext.errors import CyclicInput, ShapeMismatch
from causaltext.graphs import Dag, is_acyclic
from causaltext.metrics import (
    SupportGraph,
    decompose_errors,
    edge_prf,
    project_dag,
    shd,
    sid,
)


def adj(n, edges):
    a = np.zeros((n, n), dtype=np.int8)
    for i, j in edges:
        a[i, j] = 1
    return a


class TestEdgePrf:
    def test_identity(self):
        a = adj(3, [(0, 1), (1, 2)])
        r = edge_prf(a, a)
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_counts(self):
        target = adj(4, [(0, 1), (1, 2), (2, 3)])
        pred = adj(4, [(0, 1), (1, 2), (0, 3)])
        r = edge_prf(target, pred)
        assert (r.tp, r.fp, r.fn) == (2, 1, 1)
        assert r.precision == pytest.approx(2 / 3)
        assert r.recall == pytest.approx(2 / 3)
        assert r.f1 == pytest.approx(2 / 3)

    def test_reversed_edge(self):
        r = edge_prf(adj(2, [(0, 1)]), adj(2, [(1, 0)]))
        assert (r.tp, r.fp, r.fn) == (0, 1, 1)
        assert r.f1 == 0.0

    def test_both_empty_convention(self):
        r = edge_prf(adj(3, []), adj(3, []))
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            edge_prf(adj(3, []), adj(2, []))

    def test_nonbinary_rejected(self):
        with pytest.raises(ShapeMismatch):
            edge_prf(np.full((2, 2), 2), adj(2, []))

    def test_diagonal_rejected(self):
        a = np.eye(3, dtype=int)
        with pytest.raises(ShapeMismatch):
            edge_prf(a, adj(3, []))


class TestShd:
    def test_identity(self):
        a = adj(3, [(0, 1)])
        assert shd(a, a) == 0

    def test_reversed(self):
        assert shd(adj(2, [(0, 1)]), adj(2, [(1, 0)])) == 2

    def test_missing_plus_extra(self):
        assert shd(adj(3, [(0, 1), (1, 2)]), adj(3, [(0, 1), (0, 2)])) == 2

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = np.triu((rng.random((4, 4)) < 0.5).astype(int), 1)
            b = np.triu((rng.random((4, 4)) < 0.5).astype(int), 1)
            assert shd(a, b) == shd(b, a)


class TestSid:
    def test_identity(self):
        a = adj(3, [(0, 1), (1, 2)])
        assert sid(a, a) == 0

    def test_single_differing_node(self):
        assert sid(adj(3, [(0, 1)]), adj(3, [])) == 2

    def test_two_children(self):
        assert sid(adj(3, [(0, 1), (0, 2)]), adj(3, [(0, 1)])) == 2

    def test_asymmetric_witness(self):
        g = adj(3, [(0, 1), (0, 2), (1, 2)])
        h = adj(3, [(0, 1)])
        # symmetric count here, but the formula is directional: check a pair
        # where reversal changes which parent sets differ
        g2 = adj(3, [(0, 1)])
        h2 = adj(3, [(1, 0), (2, 0)])
        assert sid(g2, h2) != 0
        assert sid(g, h) == sid(h, g)  # parent-set disagreement count is symmetric

    def test_cyclic_rejected(self):
        cyc = np.array([[0, 1], [1, 0]], dtype=np.int8)
        with pytest.raises(CyclicInput):
            sid(cyc, adj(2, []))

    def test_scaled_parent_set_count(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = np.triu((rng.random((5, 5)) < 0.4).astype(int), 1)
            b = np.triu((rng.random((5, 5)) < 0.4).astype(int), 1)
            differing = sum(1 for j in range(5) if not np.array_equal(a[:, j], b[:, j]))
            assert sid(a, b) == 4 * differing


class TestDagInputsTrusted:
    def count_checks(self, monkeypatch):
        calls = []
        for name in ("is_acyclic", "as_adjacency"):
            real = getattr(metrics, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(metrics, name, counting)
        return calls

    def test_two_dags_rechecked_nowhere(self, monkeypatch):
        g = Dag(n=3, edges=adj(3, [(0, 1), (1, 2)]))
        h = Dag(n=3, edges=adj(3, [(0, 1), (0, 2)]))
        calls = self.count_checks(monkeypatch)
        assert edge_prf(g, h).tp == 1
        assert shd(g, h) == 2
        assert sid(g, h) == 2  # only the parents of node 2 differ
        assert calls == []

    def test_raw_arrays_still_checked(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        sid(adj(3, [(0, 1)]), Dag(n=3, edges=adj(3, [])))
        assert calls == ["as_adjacency", "is_acyclic"]


class TestDecompose:
    def test_sets(self):
        d = decompose_errors(adj(3, [(0, 1), (1, 2)]), adj(3, [(0, 1), (0, 2)]))
        assert d.missed == [(1, 2)]
        assert d.spurious == [(0, 2)]

    def test_identity_empty(self):
        a = adj(3, [(0, 1)])
        d = decompose_errors(a, a)
        assert d.missed == [] and d.spurious == []

    def test_vacuous_prediction(self):
        d = decompose_errors(adj(3, [(0, 1), (1, 2)]), adj(3, []))
        assert set(d.missed) == {(0, 1), (1, 2)}
        assert len(d.missed) == 2 and len(d.spurious) == 0

    def test_counts_match_prf(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = np.triu((rng.random((5, 5)) < 0.4).astype(int), 1)
            b = np.triu((rng.random((5, 5)) < 0.4).astype(int), 1)
            r = edge_prf(a, b)
            d = decompose_errors(a, b)
            assert len(d.missed) == r.fn and len(d.spurious) == r.fp


def closure_projection(sg, threshold):
    """The projection rule run literally: recompute every cycle edge by
    transitive closure and remove the lowest (support, i, j) one, until none is left."""
    edges = (sg.support >= threshold).astype(np.int8)
    np.fill_diagonal(edges, 0)
    removed = []
    while True:
        on_cycle = cycle_edges(edges)
        if not on_cycle.any():
            break
        us, vs = np.nonzero(on_cycle)
        best = np.lexsort((vs, us, sg.support[us, vs]))[0]
        u, v = int(us[best]), int(vs[best])
        edges[u, v] = 0
        removed.append((u, v))
    return edges, removed


def cycle_edges(edges):
    """Boolean matrix of the edges (u, v) that lie on a directed cycle, i.e. v reaches u."""
    r = edges.astype(bool)
    reach = r.copy()
    for _ in range(r.shape[0] - 1):
        reach |= reach @ r
    return r & reach.T


THRESHOLDS = (0.3, 0.5, 0.6, np.nextafter(0.0, 1.0))


def projection_inputs():
    """Seeded supports over n = 1..15: tied, float, int8 and bool, each with the four thresholds."""
    rng = np.random.default_rng(19)
    for n in range(1, 16):
        for _ in range(3):
            present = rng.random((n, n)) < rng.uniform(0.2, 0.8)
            kinds = {
                "tied": rng.choice([0.3, 0.5, 0.6, 1.0], size=(n, n)) * present,
                "float": rng.random((n, n)) * present,
                "int8": present.astype(np.int8),
                "bool": present,
            }
            for kind, support in kinds.items():
                for threshold in THRESHOLDS:
                    yield kind, threshold, SupportGraph(n=n, support=support)


class TestProjection:
    def support(self, n, entries):
        s = np.zeros((n, n))
        for (i, j), v in entries.items():
            s[i, j] = v
        return SupportGraph(n=n, support=s)

    def test_acyclic_unchanged(self):
        sg = self.support(3, {(0, 1): 0.9, (1, 2): 0.8})
        dag, removed = project_dag(sg, threshold=0.5)
        assert removed == []
        assert dag.edges[0, 1] == 1 and dag.edges[1, 2] == 1

    def test_lowest_support_removed(self):
        sg = self.support(3, {(0, 1): 0.7, (1, 2): 0.8, (2, 0): 0.55})
        dag, removed = project_dag(sg, threshold=0.5)
        assert removed == [(2, 0)]
        assert is_acyclic(dag.edges)
        assert dag.edges[0, 1] == 1 and dag.edges[1, 2] == 1

    def test_lexicographic_tie_break(self):
        sg = self.support(3, {(1, 2): 0.55, (2, 1): 0.55})
        dag, removed = project_dag(sg, threshold=0.5)
        assert removed == [(1, 2)]
        assert dag.edges[2, 1] == 1

    def test_below_threshold_dropped(self):
        sg = self.support(2, {(0, 1): 0.4})
        dag, removed = project_dag(sg, threshold=0.5)
        assert int(dag.edges.sum()) == 0 and removed == []

    @given(st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_always_acyclic_and_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        s = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(s, 0)
        sg = SupportGraph(n=n, support=s)
        d1, r1 = project_dag(sg, threshold=0.3)
        d2, r2 = project_dag(SupportGraph(n=n, support=s.copy()), threshold=0.3)
        assert is_acyclic(d1.edges)
        assert d1 == d2 and r1 == r2

    def test_matches_the_closure_loop_on_seeded_inputs(self):
        cyclic = 0
        for kind, threshold, sg in projection_inputs():
            dag, removed = project_dag(sg, threshold=threshold)
            edges, expected = closure_projection(sg, threshold)
            assert removed == expected, (kind, threshold, sg.support)
            assert np.array_equal(dag.edges, edges), (kind, threshold, sg.support)
            cyclic += bool(expected)
        assert cyclic > 400  # most of the 720 inputs are cyclic

    def test_matches_the_closure_loop_on_a_dense_graph(self):
        rng = np.random.default_rng(40)
        sg = SupportGraph(n=40, support=rng.random((40, 40)) * (rng.random((40, 40)) < 0.6))
        dag, removed = project_dag(sg, threshold=0.3)
        edges, expected = closure_projection(sg, 0.3)
        assert len(removed) > 100
        assert removed == expected and np.array_equal(dag.edges, edges)

    def test_each_removal_is_the_lowest_cycle_edge_of_its_step(self):
        for kind, threshold, sg in projection_inputs():
            dag, removed = project_dag(sg, threshold=threshold)
            edges = (sg.support >= threshold).astype(np.int8)
            np.fill_diagonal(edges, 0)
            for u, v in removed:
                on_cycle = list(zip(*np.nonzero(cycle_edges(edges))))
                assert (u, v) in on_cycle, (kind, threshold, sg.support)
                assert min(on_cycle, key=lambda e: (sg.support[e], e)) == (u, v), (kind, threshold, sg.support)
                edges[u, v] = 0
            assert not cycle_edges(edges).any() and np.array_equal(dag.edges, edges)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (9,)])
    def test_support_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ShapeMismatch, match="support must be 3x3"):
            SupportGraph(n=3, support=np.zeros(shape))

    def test_support_diagonal_zeroed(self):
        sg = SupportGraph(n=2, support=np.array([[0.9, 0.2], [0.1, 0.8]]))
        assert sg.support[0, 0] == 0.0 and sg.support[1, 1] == 0.0
