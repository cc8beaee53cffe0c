"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Each test prints "[PASS]"/"[FAIL] criterion N: ..." before asserting, so a
plain pytest run doubles as a checklist.  Every expected value is computed
by an independent in-test oracle.  The paper's published agreement tables
are kept below and reported against, but they are not a pass condition.
"""

import csv
import itertools
import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from causaltext.assignment import (
    ASSIGNMENT_KEY,
    RelationSets,
    VoteTable,
    quantify_mismatch,
    run_loop,
)
from causaltext.cli import main
from causaltext.consensus import RatingMatrix, krippendorff_alpha
from causaltext.gateway import BackendProfile, Gateway, OracleMockBackend
from causaltext.graphs import Dag, is_acyclic, sample_dag, sample_spec_space
from causaltext.metrics import SupportGraph, edge_prf, project_dag, shd, sid
from causaltext.store import SampleStore
from causaltext.transfer import ScoreTable, agreement, leave_one_out

DATA = os.path.join(os.path.dirname(__file__), "data")

SCORE_FILES = {
    "gpt5": "scores_gpt5.csv",
    "deepseek": "scores_deepseek.csv",
    "qwen": "scores_qwen.csv",
}

# The paper's published agreement table: backbone -> metric -> (pearson,
# spearman, r2).  It and REFERENCE_LOO below are not determined by the per-n
# score fixtures in tests/data: for 7 of the 9 (backbone, metric) blocks the
# pair identity (see `PAIR_IDENTITY_RULED_OUT`), weighted by these fixtures,
# turns the published leave-one-out Pearsons into a full-grid Pearson other
# than the published one, whatever the fixtures' cross-products.  Criterion 1
# reports how many entries the fixtures reproduce, for information only.
REFERENCE_AGREEMENT = {
    "gpt5": {
        "f1": (0.923, 0.891, 0.851),
        "shd": (0.924, 0.877, 0.855),
        "sid": (0.929, 0.931, 0.864),
        "average": (0.925, 0.900, 0.856),
    },
    "deepseek": {
        "f1": (0.862, 0.842, 0.743),
        "shd": (0.901, 0.879, 0.811),
        "sid": (0.893, 0.865, 0.797),
        "average": (0.885, 0.862, 0.784),
    },
    "qwen": {
        "f1": (0.879, 0.845, 0.773),
        "shd": (0.874, 0.845, 0.765),
        "sid": (0.885, 0.856, 0.783),
        "average": (0.879, 0.849, 0.774),
    },
}

# The paper's published leave-one-out table: backbone -> metric -> dropped
# algorithm -> (pearson, spearman, r2).
REFERENCE_LOO = {
    "gpt5": {
        "f1": {
            "RuleBayes": (0.801, 0.908, 0.641),
            "SCITE": (0.893, 0.675, 0.798),
            "LLM-CG": (0.970, 0.971, 0.940),
        },
        "shd": {
            "RuleBayes": (0.953, 0.945, 0.909),
            "SCITE": (0.836, 0.796, 0.699),
            "LLM-CG": (0.957, 0.970, 0.916),
        },
        "sid": {
            "RuleBayes": (0.938, 0.927, 0.880),
            "SCITE": (0.904, 0.911, 0.817),
            "LLM-CG": (0.964, 0.973, 0.929),
        },
        "average": {
            "RuleBayes": (0.897, 0.927, 0.810),
            "SCITE": (0.878, 0.794, 0.771),
            "LLM-CG": (0.964, 0.971, 0.928),
        },
    },
    "deepseek": {
        "f1": {
            "RuleBayes": (0.775, 0.869, 0.600),
            "SCITE": (0.940, 0.934, 0.883),
            "LLM-CG": (0.863, 0.963, 0.745),
        },
        "shd": {
            "RuleBayes": (0.903, 0.891, 0.816),
            "SCITE": (0.874, 0.879, 0.764),
            "LLM-CG": (0.959, 0.939, 0.919),
        },
        "sid": {
            "RuleBayes": (0.916, 0.945, 0.839),
            "SCITE": (0.876, 0.870, 0.767),
            "LLM-CG": (0.923, 0.934, 0.852),
        },
        "average": {
            "RuleBayes": (0.865, 0.902, 0.752),
            "SCITE": (0.897, 0.894, 0.805),
            "LLM-CG": (0.915, 0.945, 0.839),
        },
    },
    "qwen": {
        "f1": {
            "RuleBayes": (0.856, 0.554, 0.732),
            "SCITE": (0.940, 0.898, 0.884),
            "LLM-CG": (0.960, 0.942, 0.922),
        },
        "shd": {
            "RuleBayes": (0.884, 0.839, 0.782),
            "SCITE": (0.880, 0.844, 0.774),
            "LLM-CG": (0.930, 0.917, 0.864),
        },
        "sid": {
            "RuleBayes": (0.923, 0.904, 0.852),
            "SCITE": (0.821, 0.870, 0.674),
            "LLM-CG": (0.947, 0.935, 0.897),
        },
        "average": {
            "RuleBayes": (0.888, 0.766, 0.789),
            "SCITE": (0.880, 0.871, 0.777),
            "LLM-CG": (0.946, 0.931, 0.894),
        },
    },
}


def _stats_triplet(stats, metric):
    if metric == "average":
        avg = stats.average
        return (avg["pearson"], avg["spearman"], avg["r_squared"])
    pm = stats.per_metric[metric]
    return (pm.pearson, pm.spearman, pm.r_squared)


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    return line


ORACLE_METRICS = ("f1", "shd", "sid")

# (backbone, metric) blocks whose published full-grid Pearson breaks the pair
# identity checked in tests/test_transfer.py::TestLeaveOneOut::test_pair_identity:
# weighted by these fixtures, the published leave-one-out Pearsons (each
# +-0.0005) imply a full-grid Pearson that excludes the published one.  The
# fixtures fail to reproduce gpt5/f1 and qwen/sid too, but the identity does
# not rule those two out.  Derivation in CHANGES.md.
PAIR_IDENTITY_RULED_OUT = (
    "gpt5/shd", "gpt5/sid", "deepseek/f1", "deepseek/shd", "deepseek/sid", "qwen/f1", "qwen/shd",
)


def oracle_read_scores(path):
    """(algorithm, n, corpus) -> {metric: value}, exact rationals of the CSV decimals."""
    with open(path, newline="") as fh:
        return {
            (row["algorithm"], int(row["n"]), row["corpus"]): {
                m: Fraction(row[m]) for m in ORACLE_METRICS
            }
            for row in csv.DictReader(fh)
        }


def oracle_centered(rows, algorithms, metric, corpus):
    """Scores minus their mean over `algorithms` in each n bucket, pooled."""
    out = []
    for n in sorted({n for _, n, _ in rows}):
        vals = [rows[(a, n, corpus)][metric] for a in algorithms]
        mean = sum(vals) / len(vals)
        out.extend(v - mean for v in vals)
    return out


def oracle_pearson(x, y):
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return float(sxy) / math.sqrt(float(sxx * syy))


def oracle_tie_groups(values):
    """Indices of `values` in ascending order, grouped by exactly equal value."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return [list(g) for _, g in itertools.groupby(order, key=values.__getitem__)]


def oracle_average_ranks(values):
    """1-based ranks; tied values share the mean of the ranks they span."""
    ranks, first = [0] * len(values), 1
    for group in oracle_tie_groups(values):
        for k in group:
            ranks[k] = first + Fraction(len(group) - 1, 2)
        first += len(group)
    return ranks


def oracle_strict_rankings(values):
    """Every 1-based ranking of `values` that puts tied values in some strict order."""
    groups = oracle_tie_groups(values)
    for orders in itertools.product(*(itertools.permutations(g) for g in groups)):
        ranks = [0] * len(values)
        for rank, k in enumerate(itertools.chain.from_iterable(orders), 1):
            ranks[k] = rank
        yield ranks


def oracle_r_squared(x, y):
    """Coefficient of determination of the least-squares fit y ~ 1 + x."""
    mx, my = sum(x) / len(x), sum(y) / len(y)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)
    intercept = my - slope * mx
    resid = sum((b - intercept - slope * a) ** 2 for a, b in zip(x, y))
    return float(1 - resid / sum((b - my) ** 2 for b in y))


def oracle_agreement(rows, algorithms):
    """metric -> {statistic: (value, low, high)} on the grid of `algorithms`.

    Follows the `causaltext.transfer` docstrings, in exact rational
    arithmetic: scores are centred across algorithms within each n bucket and
    pooled; Pearson and Spearman (the Pearson of average ranks) compare
    generated with real; R^2 is that of the least-squares fit of centred real
    on centred generated scores; the "average" row is each statistic's mean
    over the three metrics.  `value` is the documented statistic.  Pearson and
    R^2 have low == high == value.  Where centred values tie exactly, the
    Spearman a floating-point stack reports depends on how rounding orders
    the tied values, so [low, high] spans the Spearman over every strict
    order of the tied values and over the shared average ranks; without ties
    it is the single value.
    """
    out = {}
    for metric in ORACLE_METRICS:
        x = oracle_centered(rows, algorithms, metric, "generated")
        y = oracle_centered(rows, algorithms, metric, "real")
        pearson, r2 = oracle_pearson(x, y), oracle_r_squared(x, y)
        spearman = oracle_pearson(oracle_average_ranks(x), oracle_average_ranks(y))
        y_rankings = list(oracle_strict_rankings(y))
        tie_broken = [oracle_pearson(rx, ry) for rx in oracle_strict_rankings(x) for ry in y_rankings]
        out[metric] = {
            "pearson": (pearson, pearson, pearson),
            "spearman": (spearman, min(spearman, *tie_broken), max(spearman, *tie_broken)),
            "r2": (r2, r2, r2),
        }
    out["average"] = {
        stat: tuple(sum(col) / len(col) for col in zip(*(out[m][stat] for m in ORACLE_METRICS)))
        for stat in ("pearson", "spearman", "r2")
    }
    return out


def test_criterion_1_statistics_reproduction():
    t0 = time.perf_counter()
    mismatches = []
    checked = reproduced = banded = departed = 0
    departure = 0.0
    run = dict(b_permutations=100, seed=0, exhaustive=False, with_bootstrap=False)
    for backbone, fname in SCORE_FILES.items():
        path = os.path.join(DATA, fname)
        table = ScoreTable.from_csv(path)
        rows = oracle_read_scores(path)
        algorithms = list(dict.fromkeys(a for a, _, _ in rows))
        for dropped in (None, *algorithms):
            if dropped is None:
                stats = agreement(table, **run)
                published, tol, label = REFERENCE_AGREEMENT[backbone], 0.005, backbone
            else:
                stats = leave_one_out(table, dropped, **run)
                published = {m: loo[dropped] for m, loo in REFERENCE_LOO[backbone].items()}
                tol, label = 0.01, f"{backbone}/wo-{dropped}"
            grid = [a for a in algorithms if a != dropped]
            for metric, expected in oracle_agreement(rows, grid).items():
                got = _stats_triplet(stats, metric)
                for name, g, p in zip(("pearson", "spearman", "r2"), got, published[metric]):
                    e, lo, hi = expected[name]
                    checked += 1
                    if not lo - 1e-9 <= g <= hi + 1e-9:
                        mismatches.append(f"{label}/{metric}/{name}: {g!r} vs oracle {e!r} [{lo!r}, {hi!r}]")
                    reproduced += abs(p - e) <= tol
                    if name == "spearman" and metric != "average":
                        banded += hi > lo
                        departed += abs(g - e) > 1e-9
                        departure = max(departure, abs(g - e))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and checked == 144 and elapsed < 10
    detail = (
        f"{checked} agreement and leave-one-out values match the in-test oracle within 1e-9 "
        f"of its value or, for Spearman, of its tie-order range ({elapsed:.1f}s)"
        if ok
        else f"{len(mismatches)} of {checked} values differ from the oracle, runtime "
        f"{elapsed:.1f}s: " + "; ".join(mismatches)
    )
    detail += (
        f"; {banded} of 36 per-metric Spearmans have exactly tied centred values and are "
        f"checked against the range over tie orders; {departed} differ from the average-rank "
        f"value, by up to {departure:.4f}"
        f"; published table (information only): {reproduced}/{checked} entries within "
        f"0.005 (full grid) / 0.01 (leave-one-out); the pair identity rules out "
        f"{len(PAIR_IDENTITY_RULED_OUT)} of 9 published full-grid Pearsons "
        f"({', '.join(PAIR_IDENTITY_RULED_OUT)})"
    )
    report(1, ok, detail)
    assert ok, detail


def test_criterion_2_permutation_soundness():
    t0 = time.perf_counter()
    table = ScoreTable.from_csv(os.path.join(DATA, SCORE_FILES["gpt5"]))
    problems = []
    ex1 = agreement(table, exhaustive=True, with_bootstrap=False)
    ex2 = agreement(table, exhaustive=True, with_bootstrap=False)
    b = 10_000
    sampled = agreement(table, exhaustive=False, b_permutations=b, seed=7, with_bootstrap=False)
    for m in ("f1", "shd", "sid"):
        pe1, pe2 = ex1.per_metric[m].p_pearson, ex2.per_metric[m].p_pearson
        if pe1 != pe2:
            problems.append(f"{m}: exhaustive p not deterministic ({pe1} vs {pe2})")
        if ex1.per_metric[m].n_permutations != 6**8:
            problems.append(f"{m}: expected 6^8 combinations, saw {ex1.per_metric[m].n_permutations}")
        if pe1 >= 1e-3:
            problems.append(f"{m}: exhaustive p {pe1} not < 1e-3")
        ps = sampled.per_metric[m].p_pearson
        if ps >= 1e-3:
            problems.append(f"{m}: sampled p {ps} not < 1e-3")
        # the sampled estimator (1 + count) / (B + 1) cannot resolve below
        # 1/(B+1), so that floor is added to the 3-SE band
        band = 3 * math.sqrt(pe1 * (1 - pe1) / b) + 1 / (b + 1)
        if abs(ps - pe1) > band:
            problems.append(f"{m}: |{ps} - {pe1}| > {band}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.1f}s >= 120s")
    ok = not problems
    detail = (
        f"exhaustive 6^8 deterministic, sampled within band, all p < 1e-3 ({elapsed:.1f}s)"
        if ok
        else "; ".join(problems)
    )
    report(2, ok, detail)
    assert ok, detail


def enumerate_dags(n):
    """All labeled DAGs on n nodes as adjacency matrices."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in itertools.product((0, 1), repeat=len(cells)):
        a = np.zeros((n, n), dtype=np.int8)
        for (i, j), b in zip(cells, bits):
            a[i, j] = b
        if is_acyclic(a):
            out.append(a)
    return out


def oracle_metric_tables(dags):
    """Brute-force reference values for every ordered pair, vectorized.

    Counts follow the definitions directly: TP/FP/FN over off-diagonal
    cells, SHD as the cell-wise Hamming distance, and SID as the number of
    ordered pairs (i, j) whose post-intervention parent sets differ (do(i)
    severs i's incoming edges, leaving Pa(j) untouched for every j != i, so
    each differing column j contributes one disagreement per intervention
    node i != j).
    """
    n = dags[0].shape[0]
    off = ~np.eye(n, dtype=bool)
    flat = np.array([d[off] for d in dags], dtype=np.int64)  # (m, n*(n-1))
    tp = flat @ flat.T
    fp = (1 - flat) @ flat.T
    fn = flat @ (1 - flat.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
    both_empty = (tp + fp + fn) == 0
    precision[both_empty] = recall[both_empty] = f1[both_empty] = 1.0
    shd_table = (flat[:, None, :] != flat[None, :, :]).sum(axis=2)
    cols = np.array([d.T for d in dags])  # (m, n, n): cols[g, j] = parents of j
    differs = (cols[:, None, :, :] != cols[None, :, :, :]).any(axis=3)  # (m, m, n)
    sid_table = (n - 1) * differs.sum(axis=2)
    return precision, recall, f1, shd_table, sid_table


def test_criterion_3_metric_oracle_equivalence():
    t0 = time.perf_counter()
    dags = enumerate_dags(4)
    assert len(dags) == 543
    o_p, o_r, o_f1, o_shd, o_sid = oracle_metric_tables(dags)
    wrapped = [Dag(n=4, edges=a) for a in dags]
    mismatches = 0
    checked = 0
    for ia, a in enumerate(wrapped):
        for ib, b in enumerate(wrapped):
            r = edge_prf(a, b)
            if not (
                abs(r.precision - o_p[ia, ib]) < 1e-12
                and abs(r.recall - o_r[ia, ib]) < 1e-12
                and abs(r.f1 - o_f1[ia, ib]) < 1e-12
                and shd(a, b) == o_shd[ia, ib]
                and sid(a, b) == o_sid[ia, ib]
            ):
                mismatches += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and checked == 543 * 543 and elapsed < 60
    detail = (
        f"{checked} ordered DAG pairs match brute-force oracles exactly ({elapsed:.1f}s)"
        if ok
        else f"{mismatches} mismatching pairs of {checked}, runtime {elapsed:.1f}s"
    )
    report(3, ok, detail)
    assert ok, detail


def oracle_project(support, threshold):
    """Step-by-step reimplementation of the cycle-removal procedure."""
    n = support.shape[0]
    edges = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and support[i, j] >= threshold
    }

    def reaches(a, b, es):
        seen, stack = {a}, [a]
        while stack:
            x = stack.pop()
            if x == b:
                return True
            for (u, v) in es:
                if u == x and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    removed = []
    while True:
        on_cycle = sorted(
            (e for e in edges if reaches(e[1], e[0], edges)),
            key=lambda e: (support[e], e[0], e[1]),
        )
        if not on_cycle:
            break
        e = on_cycle[0]
        edges.remove(e)
        removed.append(e)
    adj = np.zeros((n, n), dtype=np.int8)
    for i, j in edges:
        adj[i, j] = 1
    return adj, removed


def test_criterion_4_dag_projection():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n = int(rng.integers(2, 11))
        s = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(s, 0)
        sg = SupportGraph(n=n, support=s)
        d1, r1 = project_dag(sg, threshold=0.3)
        d2, r2 = project_dag(SupportGraph(n=n, support=s.copy()), threshold=0.3)
        if not is_acyclic(d1.edges):
            problems.append("cyclic output")
            break
        if d1 != d2 or r1 != r2:
            problems.append("nondeterministic output")
            break
    cyclic_checked = 0
    for n in (2, 3, 4):
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in itertools.product((0, 1), repeat=len(cells)):
            a = np.zeros((n, n), dtype=np.int8)
            for (i, j), b in zip(cells, bits):
                a[i, j] = b
            if is_acyclic(a):
                continue
            cyclic_checked += 1
            # uniform supports exercise pure lexicographic tie-breaking;
            # distinct supports exercise lowest-support-first ordering
            graded = a * (0.5 + 0.5 * np.linspace(1, 0.02, n * n).reshape(n, n))
            for support in (a.astype(float), graded):
                dag, removed = project_dag(SupportGraph(n=n, support=support), threshold=0.5)
                oadj, oremoved = oracle_project(support, 0.5)
                if not np.array_equal(dag.edges, oadj) or removed != oremoved:
                    problems.append(f"trace divergence on n={n} graph {bits}")
    elapsed = time.perf_counter() - t0
    ok = not problems and cyclic_checked == 1 + 39 + 3553
    detail = (
        f"10,000 projections acyclic and deterministic; {cyclic_checked} cyclic graphs "
        f"match the trace oracle ({elapsed:.1f}s)"
        if ok
        else f"{len(problems)} problems (cyclic graphs checked: {cyclic_checked}): "
        + "; ".join(problems[:5])
    )
    report(4, ok, detail)
    assert ok, detail


def test_criterion_5_generator_properties():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(1)
    for k in range(10_000):
        n = int(rng.integers(3, 11))
        spec = sample_spec_space(n, seed=k)
        dag, _ = sample_dag(spec)
        if not is_acyclic(dag.edges):
            problems.append(f"cyclic graph at seed {k}")
            break
        if np.diagonal(dag.edges).any():
            problems.append(f"self-loop at seed {k}")
            break
        if dag.edges.sum(axis=0).max() > spec.max_parents:
            problems.append(f"parent cap violated at seed {k}")
            break
        if dag.edges.sum(axis=1).max() > spec.max_children:
            problems.append(f"child cap violated at seed {k}")
            break
    # base density with motifs disabled and caps slack
    from causaltext.graphs import GraphSpec

    p = 0.35
    total = possible = 0
    for s in range(800):
        spec = GraphSpec(n=8, p=p, max_parents=7, max_children=7,
                         gamma_c=0.0, gamma_v=0.0, mediator_chains=0, seed=s)
        dag, _ = sample_dag(spec)
        total += int(dag.edges.sum())
        possible += 8 * 7 // 2
    density = total / possible
    if abs(density - p) > 0.02:
        problems.append(f"base density {density:.3f} not within 0.02 of {p}")
    # byte-exact seed determinism
    for s in (0, 17, 4096):
        spec = sample_spec_space(7, seed=s)
        d1, m1 = sample_dag(spec)
        d2, m2 = sample_dag(spec)
        if json.dumps(d1.to_json()) != json.dumps(d2.to_json()) or json.dumps(
            m1.to_json()
        ) != json.dumps(m2.to_json()):
            problems.append(f"seed {s} not byte-exact deterministic")
    elapsed = time.perf_counter() - t0
    ok = not problems
    detail = (
        f"10,000 sampled graphs valid; density {density:.3f} vs p={p}; "
        f"seed determinism byte-exact ({elapsed:.1f}s)"
        if ok
        else "; ".join(problems)
    )
    report(5, ok, detail)
    assert ok, detail


class ScriptedLoopBackend:
    """Mock proposer/verifier with per-version scripted vote counts."""

    def __init__(self, n, vote_script, m):
        self.n = n
        self.vote_script = vote_script
        self.m = m
        self.version = -1
        self.counters = {}

    def complete(self, payload, meta=None):
        import re

        template = (meta or {}).get("template")
        prompt = payload["messages"][1]["content"]
        if template in ("phase2", "refine"):
            self.version += 1
            reply = {
                ASSIGNMENT_KEY: [
                    f"Node {i}: Version {self.version} factor {i}" for i in range(self.n)
                ]
            }
        elif template == "verify":
            mv = re.search(r"Cause candidate:\s*Version (\d+) factor (\d+)", prompt)
            me = re.search(r"Effect candidate:\s*Version \d+ factor (\d+)", prompt)
            ver, i, j = int(mv.group(1)), int(mv.group(2)), int(me.group(1))
            script = self.vote_script[min(ver, len(self.vote_script) - 1)]
            k = self.counters.get((ver, i, j), 0)
            self.counters[(ver, i, j)] = k + 1
            reply = {"direct cause": "yes" if k < script.get((i, j), 0) else "no"}
        else:
            raise AssertionError(template)
        return json.dumps(reply), {"input_tokens": 1, "output_tokens": 1}


def test_criterion_6_loop_contract():
    problems = []
    proposer = BackendProfile.for_role("mock-a", "proposer")
    verifier = BackendProfile.for_role("mock-b", "verifier")

    def make_dag(n, edges):
        a = np.zeros((n, n), dtype=np.int8)
        for i, j in edges:
            a[i, j] = 1
        return Dag(n=n, edges=a)

    # perfect verifier: exactly one iteration
    result = run_loop(
        make_dag(4, [(0, 1), (1, 2), (1, 3)]), "business",
        Gateway(OracleMockBackend()), proposer, verifier,
    )
    if not (result.status == "Success" and result.iterations == 1 and result.best_l_b == 0.0):
        problems.append(f"perfect script: {result.status} in {result.iterations} iterations")

    # scripted descent 0.8, 0.3, 0.5, then never clean
    dag = make_dag(3, [(0, 1)])
    script = [
        {(0, 1): 5, (1, 0): 6, (0, 2): 3, (2, 0): 3, (1, 2): 3},
        {(0, 1): 9, (1, 0): 6, (0, 2): 4},
        {(0, 1): 7, (1, 0): 6, (0, 2): 4},
        {(0, 1): 5, (1, 0): 6},
    ]
    from causaltext.assignment import LoopConfig

    result = run_loop(
        dag, "d", Gateway(ScriptedLoopBackend(3, script, m=10)), proposer, verifier,
        config=LoopConfig(m=10),
    )
    trace_lbs = [t["mismatch"].l_b for t in result.trace]
    if result.status != "Fail" or result.iterations != 10:
        problems.append(f"never-clean script: {result.status} in {result.iterations}")
    if abs(result.best_l_b - 0.3) > 1e-9:
        problems.append(f"best L_b {result.best_l_b} != 0.3")
    if abs(result.best_l_b - min(trace_lbs)) > 1e-12:
        problems.append("returned L_b is not the trace minimum")
    if not all("Version 1" in c for c in result.assignment.concepts):
        problems.append("returned assignment is not the 0.3 iterate")
    # Success iff fallacies empty: every non-final iterate above had fallacies
    if any(t["fallacies"].empty() for t in result.trace):
        problems.append("an iterate with empty fallacies did not end the loop")

    # additivity on random vote tables
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        mask = rng.random(len(pairs)) < 0.5
        rel = RelationSets(
            e_plus=[p for p, m in zip(pairs, mask) if m],
            e_minus=[p for p, m in zip(pairs, mask) if not m],
        )
        votes = VoteTable(s={p: float(rng.random()) for p in pairs}, m=5)
        rep = quantify_mismatch(votes, rel, alpha=float(rng.random() * 2))
        worst = max(worst, abs(rep.l_b - (rep.l_b_miss + rep.l_b_spur)))
    if worst > 1e-12:
        problems.append(f"additivity error {worst}")

    ok = not problems
    detail = (
        "success iff fallacy-free, perfect script in 1 iteration, scripted descent "
        f"returns the 0.3 iterate, additivity within {worst:.1e}"
        if ok
        else "; ".join(problems)
    )
    report(6, ok, detail)
    assert ok, detail


def test_criterion_7_alpha():
    problems = []
    rows = []
    for r in range(3):
        rows.append(("t", 0, 1, r, 1))
        rows.append(("t", 1, 0, r, 0))
    a = krippendorff_alpha(RatingMatrix.from_rows(rows, raters=3))
    if a != pytest.approx(1.0):
        problems.append(f"perfect agreement gave {a}")
    rows = [("t", 0, 1, 0, 1), ("t", 0, 1, 1, 1), ("t", 1, 0, 0, 0), ("t", 1, 0, 1, 1)]
    a = krippendorff_alpha(RatingMatrix.from_rows(rows, raters=2))
    if abs(a - 0.0) > 1e-9:
        problems.append(f"two-item two-rater case gave {a}")
    rng = np.random.default_rng(3)
    for _ in range(100):
        n_items, n_raters = int(rng.integers(2, 9)), int(rng.integers(2, 7))
        ratings = rng.integers(0, 2, size=(n_items, n_raters))
        items = [("t", 0, k + 1) for k in range(n_items)]
        base = krippendorff_alpha(RatingMatrix(items=items, ratings=ratings.tolist()))
        rp, ip = rng.permutation(n_raters), rng.permutation(n_items)
        permuted = krippendorff_alpha(
            RatingMatrix(items=[items[i] for i in ip], ratings=ratings[np.ix_(ip, rp)].tolist())
        )
        if abs(base - permuted) > 1e-12:
            problems.append("alpha not invariant under rater/item permutation")
            break
    ok = not problems
    detail = (
        "perfect -> 1.0, derived two-rater case -> 0.0, permutation invariant on 100 matrices"
        if ok
        else "; ".join(problems)
    )
    report(7, ok, detail)
    assert ok, detail


def test_criterion_8_end_to_end_mock(tmp_path):
    t0 = time.perf_counter()
    problems = []
    runner = CliRunner()
    graphs = str(tmp_path / "graphs")
    store_path = str(tmp_path / "samples.jsonl")
    eval_path = str(tmp_path / "eval.json")
    r = runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "10", "--seed", "0"])
    if r.exit_code != 0:
        problems.append(f"graphgen failed: {r.output}")
    elif len(os.listdir(graphs)) != 80:
        problems.append(f"expected 80 graph files, got {len(os.listdir(graphs))}")
    if not problems:
        r = runner.invoke(
            main,
            ["generate", "--graphs", graphs, "--out", store_path,
             "--mock-script", '{"mode": "oracle"}'],
        )
        if r.exit_code != 0:
            problems.append(f"generate failed: {r.output}")
    if not problems:
        with open(store_path) as fh:
            lines = [line for line in fh if line.strip()]
        if len(lines) != 80:
            problems.append(f"store has {len(lines)} records")
        for line in lines:
            json.loads(line)  # raises on invalid JSONL
        per_n = {}
        for rec in SampleStore(store_path):
            per_n[rec.spec.n] = per_n.get(rec.spec.n, 0) + 1
            if rec.error is not None:
                problems.append(f"{rec.id}: {rec.error}")
        if per_n != {n: 10 for n in range(3, 11)}:
            problems.append(f"per-n counts {per_n}")
    if not problems:
        r = runner.invoke(main, ["evaluate", "--store", store_path, "--out", eval_path])
        if r.exit_code != 0:
            problems.append(f"evaluate failed: {r.output}")
        else:
            result = json.load(open(eval_path))
            for row in result["samples"]:
                if not (row["f1"] == 1.0 and row["shd"] == 0 and row["sid"] == 0):
                    problems.append(f"{row['id']}: f1={row['f1']} shd={row['shd']} sid={row['sid']}")
                if not row["coverage_ok"]:
                    problems.append(f"{row['id']}: coverage failed")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    ok = not problems
    detail = (
        f"80 samples generated, JSONL valid, full coverage, F1=1 and SHD=SID=0 ({elapsed:.1f}s)"
        if ok
        else "; ".join(problems[:5])
    )
    report(8, ok, detail)
    assert ok, detail
