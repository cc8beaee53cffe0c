"""The bit-row checks, metrics and projection against copies of the numpy formulas they replaced.

Each ``numpy_*`` function below is the formula the package computed on
int8 arrays before it moved to child bit sets (bit j of row i is the edge
i -> j).  Inputs cover n = 1..12 as int8, bool and float 0/1 arrays and as
nested Python lists.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext.errors import CyclicInput, ShapeMismatch
from causaltext.graphs import Dag, as_adjacency, is_acyclic
from causaltext.metrics import SupportGraph, edge_prf, project_dag, shd, sid

KINDS = ("int8", "bool", "float", "list")


def numpy_as_adjacency(adj, name="adjacency"):
    a = np.asarray(adj)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got shape {a.shape}")
    if not ((a == 0) | (a == 1)).all():
        raise ShapeMismatch(f"{name} must be binary")
    if np.diagonal(a).any():
        raise ShapeMismatch(f"{name} must have a zero diagonal")
    return a.astype(np.int8, copy=False)


def numpy_is_acyclic(adj):
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


def numpy_dag(n, edges):
    edges = numpy_as_adjacency(edges)
    if edges.shape != (n, n):
        raise ShapeMismatch(f"adjacency must be {n}x{n}, got shape {edges.shape}")
    if not numpy_is_acyclic(edges):
        raise CyclicInput("adjacency has a directed cycle")
    return edges


def numpy_pair(target, predicted):
    t, p = numpy_as_adjacency(target, "target"), numpy_as_adjacency(predicted, "predicted")
    if t.shape != p.shape:
        raise ShapeMismatch(f"node counts differ: {t.shape[0]} vs {p.shape[0]}")
    return t, p


def numpy_counts(target, predicted):
    t, p = numpy_pair(target, predicted)
    tp = int(np.count_nonzero(t & p))
    return tp, int(np.count_nonzero(p)) - tp, int(np.count_nonzero(t)) - tp


def numpy_shd(g1, g2):
    a, b = numpy_pair(g1, g2)
    return int(np.count_nonzero(a != b))


def numpy_sid(g, g_hat):
    a, b = numpy_pair(g, g_hat)
    if not all(numpy_is_acyclic(x) for x in (a, b)):
        raise CyclicInput("sid requires acyclic inputs; project cyclic graphs first")
    return (a.shape[0] - 1) * int(np.count_nonzero((a != b).any(axis=0)))


def numpy_project_dag(sg, threshold):
    edges = (sg.support >= threshold).astype(np.int8)
    np.fill_diagonal(edges, 0)
    us, vs = (ix.tolist() for ix in np.nonzero(edges))
    removed = []
    for _, u, v in sorted(zip(sg.support[us, vs].tolist(), us, vs)):
        reached, frontier = {v}, [v]  # does v still reach u?
        while frontier:
            frontier = [w for x in frontier for w in np.flatnonzero(edges[x]).tolist() if w not in reached]
            reached.update(frontier)
        if u in reached:
            edges[u, v] = 0
            removed.append((u, v))
    return edges, removed


def as_kind(a, kind):
    """The 0/1 matrix ``a`` as an int8, bool or float array, or as nested Python ints."""
    if kind == "list":
        return a.tolist()
    return a.astype({"int8": np.int8, "bool": bool, "float": float}[kind])


def outcome(fn, *args):
    """What ``fn(*args)`` gives: ("ok", value), or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the numpy copies raise numpy's own errors too
        return type(exc), str(exc)


@st.composite
def matrices(draw):
    """A 0/1 matrix on 1..12 nodes, diagonal included: random, or an order-respecting DAG."""
    n = draw(st.integers(1, 12))
    a = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), dtype=np.int8).reshape(n, n)
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        a = np.triu(a, 1)[np.ix_(order, order)]
    return a


@st.composite
def dags(draw, n):
    """A 0/1 int8 DAG on ``n`` nodes whose edges respect a random order."""
    order = draw(st.permutations(range(n)))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.triu(np.array(bits, dtype=np.int8).reshape(n, n), 1)[np.ix_(order, order)]


@st.composite
def dag_pairs(draw):
    """Two DAGs on one node count, each as a random kind."""
    n = draw(st.integers(1, 12))
    return [as_kind(draw(dags(n)), draw(st.sampled_from(KINDS))) for _ in range(2)]


def bit_rows(a):
    return [sum(1 << j for j, x in enumerate(row) if x) for row in np.asarray(a).tolist()]


class TestChecks:
    @given(matrices(), st.sampled_from(KINDS))
    @settings(max_examples=300, deadline=None)
    def test_as_adjacency_and_dag_match_the_numpy_check(self, a, kind):
        x = as_kind(a, kind)
        want = outcome(numpy_as_adjacency, x, "target")
        got = outcome(as_adjacency, x, "target")
        if want[0] == "ok":
            assert got == ("ok", bit_rows(want[1]))
        else:
            assert got == want
        want, got = outcome(numpy_dag, len(a), x), outcome(Dag, len(a), x)
        if want[0] == "ok":
            assert got[0] == "ok" and got[1].rows == bit_rows(a)
            assert got[1].edges.dtype == np.int8 and np.array_equal(got[1].edges, want[1])
        else:
            assert got == want

    @given(matrices(), st.sampled_from(KINDS))
    @settings(max_examples=300, deadline=None)
    def test_is_acyclic_matches_the_numpy_peel(self, a, kind):
        want = numpy_is_acyclic(as_kind(a, kind))
        assert is_acyclic(as_kind(a, kind)) == want
        assert is_acyclic(bit_rows(a)) == want

    @given(matrices(), st.sampled_from(["non-square", "ragged", "2", "0.5", "'1'", "diagonal", "cyclic"]),
           st.sampled_from(["list", "array"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_refused_matrix_raises_what_the_numpy_check_raised(self, a, defect, container, data):
        n = len(a)
        rows = a.tolist()
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if defect == "non-square":
            rows = [row + [0] for row in rows]
        elif defect == "ragged":
            rows[i] = rows[i] + [0]
            container = "list"
        elif defect == "diagonal":
            rows[i][i] = 1
        elif defect == "cyclic":
            if n == 1:
                return
            k = (i + 1 + j % (n - 1)) % n  # some node other than i
            rows[i][k] = rows[k][i] = 1
            rows[i][i] = rows[k][k] = 0
        else:
            rows[i][j] = {"2": 2, "0.5": 0.5, "'1'": "1"}[defect]
        x = rows if container == "list" else np.array(rows)
        valid = np.zeros((n, n), dtype=np.int8)
        for fn, args, reference in [
            (as_adjacency, (x,), numpy_as_adjacency),
            (Dag, (n, x), numpy_dag),
            (edge_prf, (x, valid), numpy_counts),
            (shd, (valid, x), numpy_shd),
            (sid, (x, valid), numpy_sid),
        ]:
            want = outcome(reference, *args)
            if want[0] != "ok":
                assert outcome(fn, *args) == want, (fn.__name__, rows)
        assert outcome(numpy_sid, x, valid)[0] != "ok"  # every defect is refused somewhere


class TestMetrics:
    @given(dag_pairs())
    @settings(max_examples=300, deadline=None)
    def test_edge_prf_shd_and_sid_match_the_numpy_formulas(self, pair):
        g, h = pair
        for x, y in [(g, h), (Dag(len(g), g), Dag(len(h), h)), (g, Dag(len(h), h))]:
            report = edge_prf(x, y)
            assert (report.tp, report.fp, report.fn) == numpy_counts(g, h)
            assert shd(x, y) == numpy_shd(g, h)
            assert sid(x, y) == numpy_sid(g, h)

    @given(st.integers(1, 12), st.data(), st.sampled_from(KINDS),
           st.sampled_from([0.3, 0.5, 0.6, np.nextafter(0.0, 1.0), 0.0, -1.0]))
    @settings(max_examples=300, deadline=None)
    def test_project_dag_matches_the_numpy_scan(self, n, data, kind, threshold):
        levels = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.6, 1.0]), min_size=n * n, max_size=n * n))
        support = np.array(levels).reshape(n, n)
        if kind in ("int8", "bool"):
            support = support >= 0.5
        sg = SupportGraph(n=n, support=as_kind(support, kind))
        dag, removed = project_dag(sg, threshold)
        edges, want = numpy_project_dag(sg, threshold)
        assert removed == want
        assert dag.edges.dtype == np.int8 and np.array_equal(dag.edges, edges)
        assert dag.rows == bit_rows(edges) and dag.n == n


class TestDag:
    @given(st.integers(1, 12).flatmap(dags), st.sampled_from(KINDS))
    @settings(max_examples=300, deadline=None)
    def test_edges_read_late_are_the_int8_matrix_and_to_json_is_unchanged(self, a, kind):
        n = len(a)
        want = np.asarray(as_kind(a, kind), dtype=np.int8)
        for dag in (Dag(n, as_kind(a, kind)), Dag._from_rows(bit_rows(a))):
            assert "edges" not in vars(dag)  # not unpacked until read
            edges = dag.edges
            assert edges.dtype == np.int8 and edges.shape == want.shape and np.array_equal(edges, want)
            assert dag.edges is edges
            # the bytes the parent's to_json wrote: n and the int8 array's nested lists
            assert json.dumps(dag.to_json()) == json.dumps({"n": n, "edges": want.tolist()})

    @given(st.integers(2, 12).flatmap(dags), st.sampled_from(KINDS), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_later_write_to_the_callers_matrix_moves_neither_edges_nor_a_metric(self, a, kind, read_first, data):
        n = len(a)
        x = as_kind(a, kind)
        dag, same = Dag(n, x), Dag(n, a.copy())
        if read_first:
            assert np.array_equal(dag.edges, a)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
        x[i][j] = 0 if x[i][j] else 1
        assert np.array_equal(dag.edges, a) and dag.rows == bit_rows(a)
        with pytest.raises(ValueError, match="read-only"):
            dag.edges[i, j] = 1
        report = edge_prf(dag, same)
        assert (report.fp, report.fn, shd(dag, same), sid(dag, same)) == (0, 0, 0, 0)

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(dags(n), dags(n))))
    @settings(max_examples=200, deadline=None)
    def test_eq_compares_the_graphs_whatever_built_them(self, pair):
        a, b = pair
        n = len(a)

        def builds(m):
            return [Dag(n, as_kind(m, kind)) for kind in KINDS] + [
                Dag._from_rows(bit_rows(m)),
                project_dag(bit_rows(m))[0],
                project_dag(SupportGraph(n, m), 0.5)[0],
            ]

        same = np.array_equal(a, b)
        for x in builds(a):
            assert all(x == y for y in builds(a))
            assert all((x == y) == same for y in builds(b))
            assert x != a and x != Dag(n + 1, np.zeros((n + 1, n + 1)))


class TestProjectionOnBitRows:
    @given(matrices())
    @settings(max_examples=300, deadline=None)
    def test_bit_rows_project_as_the_binary_support_graph_does(self, a):
        n = len(a)
        np.fill_diagonal(a, 0)  # as_adjacency refuses a self-loop
        rows = bit_rows(a)
        dag, removed = project_dag(rows)
        want, want_removed = project_dag(SupportGraph(n, a), 0.5)
        assert dag.rows == want.rows and removed == want_removed
        edges, numpy_removed = numpy_project_dag(SupportGraph(n, a), 0.5)
        assert removed == numpy_removed and np.array_equal(dag.edges, edges)
        assert rows == bit_rows(a)  # the caller's list is left as it is
        if numpy_is_acyclic(a):
            assert removed == [] and dag.rows == rows
        else:
            assert removed and is_acyclic(dag.rows)


@pytest.mark.parametrize("x", [[[0, 1], [0]], [[0, 1, 0], [0, 0, 1]], [[0, 2], [0, 0]], [[0, 0.5], [0, 0]],
                               [[0, "1"], [0, 0]], [[1, 0], [0, 0]], [], 5, None, [[[0], [1]], [[1], [0]]]])
def test_odd_inputs_raise_what_the_numpy_check_raised(x):
    assert outcome(as_adjacency, x, "target") == outcome(numpy_as_adjacency, x, "target")
