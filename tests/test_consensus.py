import itertools
import re
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from causaltext.consensus import (
    RatingMatrix,
    flag_low_agreement,
    krippendorff_alpha,
    majority_consensus,
)
from causaltext.errors import EmptyRatings, InsufficientData
from causaltext.graphs import is_acyclic
from causaltext.metrics import SupportGraph, project_dag


# Reference implementations: per-text, per-cell, per-rater loops over the
# rating lists, kept independent of RatingMatrix.counts.

def loop_majority_consensus(rm):
    per_text_nodes = defaultdict(int)
    for text_id, i, j in rm.items:
        per_text_nodes[text_id] = max(per_text_nodes[text_id], i + 1, j + 1)
    votes = {item: row for item, row in zip(rm.items, rm.ratings)}
    out = {}
    for text_id, n in per_text_nodes.items():
        support = np.zeros((n, n), dtype=float)
        consensus = np.zeros((n, n), dtype=np.int8)
        for i in range(n):
            for j in range(n):
                row = votes.get((text_id, i, j))
                if i == j or row is None:
                    continue
                present = [r for r in row if r is not None]
                if not present:
                    continue
                yes = sum(present)
                support[i, j] = yes / len(present)
                if yes >= len(present) // 2 + 1:
                    consensus[i, j] = 1
        masked = support * consensus
        dag, removed = project_dag(SupportGraph(n=n, support=masked), threshold=np.nextafter(0.0, 1.0))
        out[text_id] = {"support": SupportGraph(n=n, support=support), "consensus": dag, "removed": removed}
    return out


def loop_krippendorff_alpha(rm):
    pairable = [[r for r in row if r is not None] for row in rm.ratings]
    pairable = [vals for vals in pairable if len(vals) >= 2]
    if not pairable:
        raise InsufficientData("need at least one item with >= 2 ratings")
    o = np.zeros((2, 2), dtype=float)
    for vals in pairable:
        m = len(vals)
        counts = np.bincount(vals, minlength=2).astype(float)
        for c in range(2):
            for k in range(2):
                if c == k:
                    o[c, k] += counts[c] * (counts[c] - 1) / (m - 1)
                else:
                    o[c, k] += counts[c] * counts[k] / (m - 1)
    n_c = o.sum(axis=1)
    n_total = o.sum()
    d_o = o[0, 1] + o[1, 0]
    d_e = 2 * n_c[0] * n_c[1] / (n_total - 1)
    if d_e == 0:
        return 1.0
    return float(1.0 - d_o / d_e)


def loop_flag_low_agreement(supports, raters, graph_quantile=0.9):
    band = {Fraction(raters // 2, raters), Fraction(raters // 2 + 1, raters)} - {0, 1}
    edges = []
    fractions = {}
    for text_id, sg in supports.items():
        n = sg.n
        hits = 0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                s = sg.support[i, j]
                if any(abs(s - float(b)) < 1e-9 for b in band):
                    edges.append((text_id, i, j, float(s)))
                    hits += 1
        fractions[text_id] = hits / (n * (n - 1)) if n > 1 else 0.0
    if fractions:
        cutoff = float(np.quantile(list(fractions.values()), graph_quantile))
        flagged = [t for t, f in fractions.items() if f > cutoff and f > 0]
    else:
        flagged = []
    return edges, flagged


def loop_from_rows(rows, raters=11):
    """RatingMatrix.from_rows as a per-row loop: every row is cast and checked on its own."""
    by_item = defaultdict(lambda: [None] * raters)
    for text_id, i, j, rater, label in rows:
        i, j, rater, label = int(i), int(j), int(rater), int(label)
        if not 0 <= rater < raters:
            raise ValueError(f"rater_id {rater} is not a rater id in 0..{raters - 1}")
        if label not in (0, 1):
            raise ValueError(f"label {label} is not 0 or 1")
        if i < 0 or j < 0 or i == j:
            raise ValueError(f"pair ({i}, {j}) needs i != j, both >= 0")
        by_item[text_id, i, j][rater] = label
    return RatingMatrix(items=list(by_item), ratings=list(by_item.values()))


SPELLINGS = ["0", "1", "01", " 1", "+1", "1_0", "\u0661", "2", "11", "-1", "x", "", "1.0"]


def spelled_rows(rng, raters, wild):
    """Endless (text_id, i, j, rater_id, label) rows with fields drawn from SPELLINGS.

    With probability ``wild`` a row is any draw; otherwise it is drawn again
    until it passes the row rules, so bad rows come at seeded places.
    """
    while True:
        free = rng.random() < wild
        while True:
            row = ("tu"[int(rng.integers(2))], *(SPELLINGS[k] for k in rng.integers(len(SPELLINGS), size=4)))
            try:
                loop_from_rows([row], raters=raters)
            except ValueError:
                if not free:
                    continue
            break
        yield row


def rows_outcome(from_rows, rows, raters):
    """(items, ratings) or (exception type, message), with the number of rows read before it."""
    consumed = 0

    def counted():
        nonlocal consumed
        for row in rows:
            consumed += 1
            yield row

    try:
        rm = from_rows(counted(), raters=raters)
    except Exception as exc:
        return type(exc), str(exc), consumed
    return rm.items, rm.ratings, consumed


def random_panel(rng, raters):
    """Shuffled rows over a few texts with missing ratings, one repeated
    (text, i, j, rater) row, and a likely cyclic majority 0 -> 1 -> 2 -> 0."""
    rows = []
    for t in range(int(rng.integers(1, 6))):
        n = int(rng.integers(3, 7))
        for i in range(n):
            for j in range(n):
                if i == j or rng.random() < 0.2:
                    continue
                cyclic = (i, j) in ((0, 1), (1, 2), (2, 0))
                p_yes = 0.85 if cyclic else rng.random()
                for r in range(raters):
                    if rng.random() < 0.75:
                        rows.append((f"t{t}", i, j, r, int(rng.random() < p_yes)))
    rows = [rows[k] for k in rng.permutation(len(rows))]
    t, i, j, r, label = rows[int(rng.integers(len(rows)))]
    rows.append((t, i, j, r, 1 - label))
    return rows


def full_panel_rows(text_id, n, yes_counts, raters=11):
    """Rows for every ordered pair; yes_counts maps (i,j) -> number of 1 votes."""
    rows = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            yes = yes_counts.get((i, j), 0)
            for r in range(raters):
                rows.append((text_id, i, j, r, 1 if r < yes else 0))
    return rows


class TestMajority:
    def test_six_of_eleven_present(self):
        rm = RatingMatrix.from_rows(full_panel_rows("t", 2, {(0, 1): 6}))
        out = majority_consensus(rm)
        assert out["t"]["consensus"].edges[0, 1] == 1

    def test_five_of_eleven_absent(self):
        rm = RatingMatrix.from_rows(full_panel_rows("t", 2, {(0, 1): 5}))
        out = majority_consensus(rm)
        assert out["t"]["consensus"].edges[0, 1] == 0

    def test_unanimous_no(self):
        rm = RatingMatrix.from_rows(full_panel_rows("t", 2, {}))
        out = majority_consensus(rm)
        assert out["t"]["support"].support[0, 1] == 0.0
        assert int(out["t"]["consensus"].edges.sum()) == 0

    def test_missing_ratings_use_proportional_majority(self):
        # 3 of 5 present ratings is a strict majority
        rows = [("t", 0, 1, r, 1) for r in range(3)] + [("t", 0, 1, r, 0) for r in (3, 4)]
        rows += [("t", 1, 0, 0, 0), ("t", 1, 0, 1, 0)]
        rm = RatingMatrix.from_rows(rows)
        out = majority_consensus(rm)
        assert out["t"]["consensus"].edges[0, 1] == 1

    def test_cyclic_consensus_projected(self):
        counts = {(0, 1): 8, (1, 0): 7}
        rm = RatingMatrix.from_rows(full_panel_rows("t", 2, counts))
        out = majority_consensus(rm)
        dag = out["t"]["consensus"]
        assert is_acyclic(dag.edges)
        # lower-support direction removed
        assert out["t"]["removed"] == [(1, 0)]
        assert dag.edges[0, 1] == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyRatings):
            majority_consensus(RatingMatrix(items=[], ratings=[]))

    def test_flip_one_vote_only_matters_at_boundary(self):
        for yes in range(12):
            rm1 = RatingMatrix.from_rows(full_panel_rows("t", 2, {(0, 1): yes}))
            e1 = majority_consensus(rm1)["t"]["consensus"].edges[0, 1]
            assert e1 == (1 if yes >= 6 else 0)


class TestAlpha:
    def test_perfect_agreement_mixed_items(self):
        rows = []
        for r in range(3):
            rows.append(("t", 0, 1, r, 1))
            rows.append(("t", 1, 0, r, 0))
        assert krippendorff_alpha(RatingMatrix.from_rows(rows, raters=3)) == pytest.approx(1.0)

    def test_two_item_two_rater_case(self):
        # item1 = (1, 1), item2 = (0, 1) -> alpha = 0
        rows = [("t", 0, 1, 0, 1), ("t", 0, 1, 1, 1), ("t", 1, 0, 0, 0), ("t", 1, 0, 1, 1)]
        assert krippendorff_alpha(RatingMatrix.from_rows(rows, raters=2)) == pytest.approx(0.0, abs=1e-9)

    def test_all_identical_defined_as_one(self):
        rows = [("t", 0, 1, r, 1) for r in range(4)]
        assert krippendorff_alpha(RatingMatrix.from_rows(rows, raters=4)) == 1.0

    def test_insufficient_data(self):
        rows = [("t", 0, 1, 0, 1)]
        with pytest.raises(InsufficientData):
            krippendorff_alpha(RatingMatrix.from_rows(rows, raters=11))

    def test_invariance_under_rater_and_item_permutation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n_items, n_raters = int(rng.integers(2, 8)), int(rng.integers(2, 6))
            ratings = rng.integers(0, 2, size=(n_items, n_raters))
            items = [("t", 0, k + 1) for k in range(n_items)]
            rm = RatingMatrix(items=items, ratings=ratings.tolist())
            a0 = krippendorff_alpha(rm)
            rp = rng.permutation(n_raters)
            ip = rng.permutation(n_items)
            rm2 = RatingMatrix(
                items=[items[i] for i in ip],
                ratings=ratings[np.ix_(ip, rp)].tolist(),
            )
            assert krippendorff_alpha(rm2) == pytest.approx(a0, abs=1e-12)


class TestFlags:
    def support_graph(self, s01):
        from causaltext.metrics import SupportGraph

        sup = np.zeros((2, 2))
        sup[0, 1] = s01
        return SupportGraph(n=2, support=sup)

    def test_borderline_flagged(self):
        flags = flag_low_agreement({"t": self.support_graph(5 / 11)})
        assert [(t, i, j) for t, i, j, _ in flags.borderline_edges] == [("t", 0, 1)]
        flags = flag_low_agreement({"t": self.support_graph(6 / 11)})
        assert len(flags.borderline_edges) == 1

    def test_outside_band_not_flagged(self):
        flags = flag_low_agreement({"t": self.support_graph(7 / 11)})
        assert flags.borderline_edges == []

    def test_unanimous_no_flags(self):
        flags = flag_low_agreement({"t": self.support_graph(1.0), "u": self.support_graph(0.0)})
        assert flags.borderline_edges == [] and flags.flagged_texts == []

    @pytest.mark.parametrize("raters", [1, 2])
    def test_unanimous_supports_are_not_borderline_on_a_small_panel(self, raters):
        flags = flag_low_agreement({"t": self.support_graph(1.0), "u": self.support_graph(0.0)}, raters=raters)
        assert flags.borderline_edges == [] and flags.flagged_texts == []

    def test_graph_level_flag(self):
        heavy = self.support_graph(5 / 11)
        clean = self.support_graph(1.0)
        flags = flag_low_agreement(
            {"bad": heavy, **{f"ok{k}": clean for k in range(9)}}, graph_quantile=0.5
        )
        assert flags.flagged_texts == ["bad"]


def assert_same_consensus(got, want):
    assert list(got) == list(want)
    for t in want:
        assert got[t]["support"].n == want[t]["support"].n
        assert got[t]["support"].support.tobytes() == want[t]["support"].support.tobytes()
        assert got[t]["consensus"].edges.tolist() == want[t]["consensus"].edges.tolist()
        assert got[t]["removed"] == want[t]["removed"]


class TestAgainstLoopReference:
    @pytest.mark.parametrize("raters", [2, 3, 4, 5, 10, 11])
    def test_random_panels_exact(self, raters):
        rng = np.random.default_rng(1000 + raters)
        for _ in range(25):
            rm = RatingMatrix.from_rows(random_panel(rng, raters), raters=raters)
            got, want = majority_consensus(rm), loop_majority_consensus(rm)
            assert_same_consensus(got, want)
            assert krippendorff_alpha(rm) == loop_krippendorff_alpha(rm)
            supports = {t: v["support"] for t, v in got.items()}
            flags = flag_low_agreement(supports, raters=raters)
            assert (flags.borderline_edges, flags.flagged_texts) == loop_flag_low_agreement(supports, raters)

    def test_panels_include_cycles_and_missing_ratings(self):
        rng = np.random.default_rng(1011)
        projected = missing = 0
        for _ in range(25):
            rm = RatingMatrix.from_rows(random_panel(rng, 11), raters=11)
            projected += sum(bool(v["removed"]) for v in majority_consensus(rm).values())
            missing += sum(None in row for row in rm.ratings)
        assert projected > 0 and missing > 0

    def test_repeated_row_last_label_wins(self):
        rows = [("t", 0, 1, r, 1) for r in range(3)] + [("t", 0, 1, 0, 0)]
        rm = RatingMatrix.from_rows(rows, raters=3)
        assert rm.ratings == [[0, 1, 1]]
        assert [c.tolist() for c in rm.counts()] == [[2], [3]]

    def test_direct_matrix_with_odd_items(self):
        # a repeated item (last wins), a diagonal item and a negative index:
        # the consensus skips the last two, alpha counts every item
        items = [("t", 0, 1), ("t", 1, 1), ("t", -1, 0), ("t", 0, 1), ("u", 1, 0)]
        ratings = [[1, 1, 0], [1, 1, 1], [0, 1, None], [0, 0, 1], [None, None, None]]
        rm = RatingMatrix(items=items, ratings=ratings)
        assert_same_consensus(majority_consensus(rm), loop_majority_consensus(rm))
        assert majority_consensus(rm)["t"]["support"].support[0, 1] == 1 / 3
        assert krippendorff_alpha(rm) == loop_krippendorff_alpha(rm)

    @pytest.mark.parametrize("raters", [1, 2, 5, 11])
    def test_flags_on_supports_near_the_band(self, raters):
        rng = np.random.default_rng(2000 + raters)
        band = [raters // 2 / raters, (raters // 2 + 1) / raters]
        values = [0.0, 0.3, 1.0] + [min(1.0, max(0.0, b + d)) for b in band for d in (-1e-3, -1e-10, 0, 1e-10, 1e-3)]
        supports = {}
        for t in range(12):
            n = int(rng.integers(0, 5))
            supports[f"t{t}"] = SupportGraph(n=n, support=rng.choice(values, size=(n, n)))
        flags = flag_low_agreement(supports, raters=raters, graph_quantile=0.5)
        assert (flags.borderline_edges, flags.flagged_texts) == loop_flag_low_agreement(supports, raters, 0.5)


class TestFromRows:
    @pytest.mark.parametrize("rater", [-1, 3, 11])
    def test_rater_out_of_range_rejected(self, rater):
        with pytest.raises(ValueError, match="rater id"):
            RatingMatrix.from_rows([("t", 0, 1, rater, 1)], raters=3)

    @pytest.mark.parametrize("row, why", [
        (("t", "0", "1", "11", "1"), "rater_id 11 is not a rater id in 0..10"),
        (("t", "0", "1", "-1", "1"), "rater_id -1"),
        (("t", "0", "1", "0", "2"), "label 2 is not 0 or 1"),
        (("t", "-1", "1", "0", "1"), "pair (-1, 1) needs"),
        (("t", "1", "1", "0", "1"), "pair (1, 1) needs"),
        (("t", "0", "one", "0", "1"), "invalid literal"),
    ])
    def test_bad_row_rejected(self, row, why):
        rows = [("t", "0", "1", "0", "1"), row]
        with pytest.raises(ValueError, match=re.escape(why)):
            RatingMatrix.from_rows(iter(rows), raters=11)

    @pytest.mark.parametrize("items, ratings, why", [
        ([("t", 0, 1), ("t", 1, 0)], [[1, 0]], "items and ratings must align"),
        ([("t", 0, 1)], [[1, 2]], "ratings must be 0/1/None, got 2"),
        ([("t", 0, 1)], [[True, 0.5]], "ratings must be 0/1/None, got 0.5"),
    ])
    def test_a_matrix_built_directly_is_checked(self, items, ratings, why):
        with pytest.raises(ValueError, match=re.escape(why)):
            RatingMatrix(items=items, ratings=ratings)

    def test_checks_each_distinct_row_as_the_per_row_loop_does(self):
        """Seeded streams of spelled fields, some with bad rows, under several
        panel sizes: the same items and ratings, or the same error after the
        same number of rows.  Each stream is read twice, so a checked tuple
        kept from one call to the next shows."""
        rng = np.random.default_rng(26)
        outcomes = []
        for _ in range(250):
            raters = int(rng.choice([2, 3, 11, 12]))
            rows = list(itertools.islice(spelled_rows(rng, raters, wild=rng.choice([0.0, 0.02, 0.1])),
                                         int(rng.integers(1, 60))))
            got = rows_outcome(RatingMatrix.from_rows, rows, raters)
            assert got == rows_outcome(loop_from_rows, rows, raters), rows
            assert rows_outcome(RatingMatrix.from_rows, rows, raters) == got
            outcomes.append(got)
        errors = [o for o in outcomes if isinstance(o[0], type)]
        assert {o[1].split()[0] for o in errors} >= {"invalid", "rater_id", "label", "pair"}
        assert len(errors) > 50 and sum(o[2] > 20 for o in outcomes if not isinstance(o[0], type)) > 50

    def test_rows_are_cast_to_int(self):
        rm = RatingMatrix.from_rows(iter([("t", "0", "1", "1", "1")]), raters=2)
        assert rm.items == [("t", 0, 1)] and rm.ratings == [[None, 1]]

    def test_counts(self):
        rm = RatingMatrix(items=[("t", 0, 1), ("t", 1, 0)], ratings=[[1, None, 1], [0, 1, None]])
        yes, present = rm.counts()
        assert yes.tolist() == [2, 1] and present.tolist() == [2, 2]
