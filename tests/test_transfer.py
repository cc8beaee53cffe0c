import itertools
import math
import os
import re

import numpy as np
import pytest
from scipy import stats as sps

from causaltext.errors import (
    CorruptLine,
    DegenerateGroups,
    IncompleteGrid,
    PoolTooSmall,
    TooFewAlgorithms,
)
from causaltext import transfer
from causaltext.transfer import (
    ScoreTable,
    agreement,
    benjamini_hochberg,
    center_within_n,
    leave_one_out,
    permutation_anova,
    permutation_anova_report,
    stability_curve,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def toy_table(values):
    """values: {(alg, n, corpus): (f1, shd, sid)}"""
    algorithms = list(dict.fromkeys(a for a, _, _ in values))
    ns = sorted({n for _, n, _ in values})
    scores = np.empty((len(transfer.CORPORA), len(transfer.METRICS), len(ns), len(algorithms)))
    for (a, n, c), cell in values.items():
        scores[transfer.CORPORA.index(c), :, ns.index(n), algorithms.index(a)] = cell
    return ScoreTable(algorithms=algorithms, ns=ns, scores=scores)


class TestCentering:
    def test_mean_subtraction(self):
        out = center_within_n(np.array([[0.9, 0.7, 0.5]]))
        assert np.allclose(out, [[0.2, 0.0, -0.2]])

    def test_single_column(self):
        assert np.allclose(center_within_n(np.array([[0.4], [0.9]])), 0.0)

    def test_constant_bucket(self):
        assert np.allclose(center_within_n(np.full((3, 4), 0.7)), 0.0)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        x = rng.random((8, 3))
        assert np.abs(center_within_n(x).sum(axis=1)).max() < 1e-12


def correlation_inputs():
    """Vector pairs of 2 to 39 entries: plain, rounded (with ties), centred."""
    rng = np.random.default_rng(21)
    pairs = []
    for k in range(300):
        x = rng.normal(size=int(rng.integers(2, 40))) * 10 ** rng.uniform(-4, 4)
        y = 0.3 * x + rng.normal(size=len(x))
        if k % 3 == 1:
            x, y = np.round(x, 1), np.round(y, 0)
        if k % 3 == 2:
            x, y = x - x.mean(), y - y.mean()
        pairs.append((x, y))
    return pairs


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.filterwarnings("ignore:An input array is constant")
class TestCorrelations:
    """The numpy statistics against scipy.stats, to the last bit."""

    def test_pearson_matches_scipy(self):
        for x, y in correlation_inputs():
            assert same_float(float(transfer._pearson(x, y)), sps.pearsonr(x, y)[0])

    def test_spearman_matches_scipy(self):
        for x, y in correlation_inputs():
            rx, ry = transfer._rank(np.stack((x, y)))
            (rho,) = transfer._spearman_of_ranks([rx], [ry])
            assert same_float(rho, sps.spearmanr(x, y)[0])

    def test_ranks_match_scipy(self):
        for x, y in correlation_inputs():
            assert (transfer._rank(y) == sps.rankdata(y)).all()
        rows = np.round(np.random.default_rng(3).normal(size=(50, 24)), 1)
        assert (transfer._rank(rows) == sps.rankdata(rows, axis=1)).all()

    def test_row_wise_pearson_matches_scipy(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(50, 24)), rng.normal(size=(50, 24))
        want = [sps.pearsonr(a, b)[0] for a, b in zip(x, y)]
        assert (transfer._pearson(x, y) == want).all()

    def test_constant_input_gives_nan(self):
        x, y = np.full(5, 0.3), np.arange(5.0)
        assert math.isnan(transfer._pearson(x, y)) and math.isnan(transfer._pearson(y, x))
        rx, ry = transfer._rank(np.stack((x, y)))
        assert all(math.isnan(rho) for rho in transfer._spearman_of_ranks([rx, ry], [ry, rx]))


def accumulate_rank(values):
    """Reference: the rank kernel the flat run bookkeeping replaced (stable sort, two accumulates)."""
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    n = values.shape[-1]
    pos = np.broadcast_to(np.arange(n), values.shape)
    starts = np.ones(values.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.roll(starts, -1, axis=-1)
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, (first + last) / 2 + 1, axis=-1)
    return ranks


RANK_SHAPES = [(24,), (400, 24), (2, 3, 50, 24), (5, 1), (4, 2), (3, 0)]


def rank_inputs(shape, seed):
    """Heavily tied rows, signed zeros, infinities and nans, and rows that carry a run into the next."""
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    specials = rng.choice([-0.0, 0.0, 0.0, -math.inf, math.inf, math.nan, 1.0], size=shape)
    # in index order, runs of five equal values that go on from one row into the
    # next; shuffled within rows, each row still ends (sorted) with the value the next starts with
    carried = rng.permuted((np.arange(size) // 5).astype(float).reshape(shape), axis=-1)
    return {
        "integers": rng.integers(0, 4, size=shape).astype(float),
        "rounded": np.round(rng.normal(size=shape), 1),
        "specials": specials,
        "specials_without_nan": np.where(np.isnan(specials), -0.0, specials),
        "carried": carried,
    }


class TestRank:
    @pytest.mark.parametrize("shape", RANK_SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_accumulate_rank_exactly(self, shape, seed):
        for kind, values in rank_inputs(shape, seed).items():
            got, want = transfer._rank(values), accumulate_rank(values)
            assert got.shape == want.shape and got.dtype == want.dtype, kind
            assert np.array_equal(got, want), kind

    def test_inputs_carry_runs_across_rows(self):
        """The carried block has a sorted row end equal to the next row's start, where a run must not cross."""
        rows = np.sort(rank_inputs((400, 24), 0)["carried"], axis=-1)
        assert (rows[:-1, -1] == rows[1:, 0]).sum() > 100


class TestScoreTable:
    def test_incomplete_grid(self, tmp_path):
        p = tmp_path / "hole.csv"
        p.write_text("algorithm,n,corpus,f1,shd,sid\na,3,generated,1,0,0\na,3,real,1,0,0\nb,3,generated,1,0,0\n")
        with pytest.raises(IncompleteGrid) as info:
            ScoreTable.from_csv(p)
        assert str(info.value) == f"{p}: missing cell ('b', 3, 'real')"

    def test_scores_stay_one_c_contiguous_array(self):
        # a strided BLAS dot can round differently, so a dropped table is contiguous too
        t = ScoreTable.from_csv(os.path.join(DATA, "scores_gpt5.csv"))
        for table in (t, *(t.drop(alg) for alg in t.algorithms)):
            assert table.scores.flags.c_contiguous
            assert table.scores.shape == (2, 3, len(table.ns), len(table.algorithms))

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("algorithm,n,corpus,f1\nx,3,real,0.5\n")
        with pytest.raises(IncompleteGrid, match=f"^{re.escape(str(p))}:1: score CSV must carry columns"):
            ScoreTable.from_csv(p)

    # the bad row sits on physical line 4, after a good row and a blank line
    @pytest.mark.parametrize("bad_row, why", [
        ("a,abc,real,0.5,1,1", "n must be an integer, got 'abc'"),
        ("a,3.5,real,0.5,1,1", "n must be an integer, got '3.5'"),
        ("a,4,real,abc,1,1", "f1 must be a finite number, got 'abc'"),
        ("a,4,real,0.5,,1", "shd must be a finite number, got ''"),
        ("a,4,real,0.5,1,nan", "sid must be a finite number, got 'nan'"),
        ("a,4,real,inf,1,1", "f1 must be a finite number, got 'inf'"),
        ("a,4,real,0.5,-Infinity,1", "shd must be a finite number, got '-Infinity'"),
        ("a,3,generated,0.1,1,1", "duplicate cell ('a', 3, 'generated')"),
        ("a,4,synthetic,0.5,1,1", "unknown corpus 'synthetic'"),
        ("a,4,real", "row has fewer cells than the header"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, bad_row, why):
        p = tmp_path / "bad.csv"
        p.write_text(f"algorithm,n,corpus,f1,shd,sid\na,3,generated,0.5,1,1\n\n{bad_row}\n")
        with pytest.raises(IncompleteGrid) as info:
            ScoreTable.from_csv(p)
        assert str(info.value) == f"{p}:4: {why}"

    def test_non_utf8_byte_past_the_first_read_names_its_line(self, tmp_path):
        # text is decoded in chunks of several kB, so the byte sits well beyond the first one
        rows = "".join(f"a{k},3,real,0.5,1,1\n" for k in range(2, 2000))
        p = tmp_path / "bad.csv"
        p.write_bytes(b"algorithm,n,corpus,f1,shd,sid\n" + rows.encode() + b"\xe9,3,real,0.5,1,1\n")
        with pytest.raises(CorruptLine) as info:
            ScoreTable.from_csv(p)
        assert str(info.value) == f"{p}:2000: not UTF-8 text (invalid continuation byte)"

    def test_short_row_may_leave_an_extra_column_empty(self, tmp_path):
        p = tmp_path / "note.csv"
        p.write_text("algorithm,n,corpus,f1,shd,sid,note\na,3,real,0.5,1,1\na,3,generated,0.4,2,2,kept\n")
        t = ScoreTable.from_csv(p)
        # (f1, shd, sid) of the generated cell, then of the real one
        assert t.scores[:, :, 0, 0].tolist() == [[0.4, 2.0, 2.0], [0.5, 1.0, 1.0]]


def linear_table(noise=0.0, seed=0, algs=("a", "b", "c"), ns=range(3, 11)):
    rng = np.random.default_rng(seed)
    vals = {}
    for k, a in enumerate(algs):
        for n in ns:
            g = k * 0.3 + n * 0.05 + rng.normal(0, noise)
            r = g + rng.normal(0, noise)
            vals[(a, n, "generated")] = (g, g + 1, g + 2)
            vals[(a, n, "real")] = (r, r + 1, r + 2)
    return toy_table(vals)


class TestAgreement:
    def test_perfect_linear(self):
        t = linear_table(noise=0.0)
        st = agreement(t, seed=0, exhaustive=False, b_permutations=200, with_bootstrap=False)
        for m in ("f1", "shd", "sid"):
            assert st.per_metric[m].pearson == pytest.approx(1.0)
            assert st.per_metric[m].r_squared == pytest.approx(1.0)

    def test_p_floor_with_zero_exceedances(self):
        t = linear_table(noise=0.01, seed=1)
        st = agreement(t, seed=0, exhaustive=False, b_permutations=10_000, with_bootstrap=False)
        assert st.per_metric["f1"].p_pearson == pytest.approx(1 / 10_001)

    def test_exhaustive_matches_direct_enumeration(self):
        # tiny grid where a literal nested enumeration is feasible
        t = linear_table(noise=0.3, seed=2, algs=("a", "b"), ns=(3, 4, 5))
        st = agreement(t, exhaustive=True, with_bootstrap=False)
        xc = center_within_n(t.matrix("f1", "generated"))
        yc = center_within_n(t.matrix("f1", "real"))
        obs = abs(sps.pearsonr(xc.ravel(), yc.ravel())[0])
        count = total = 0
        pair_perms = list(itertools.permutations(range(2)))
        for perms in itertools.product(pair_perms, repeat=3):
            yp = np.array([yc[b, list(p)] for b, p in enumerate(perms)])
            r = sps.pearsonr(xc.ravel(), yp.ravel())[0]
            total += 1
            if abs(r) >= obs - 1e-12:
                count += 1
        assert st.per_metric["f1"].p_pearson == pytest.approx(count / total)
        assert st.per_metric["f1"].p_mode == "exhaustive"

    def test_sampled_near_exhaustive(self):
        t = linear_table(noise=0.5, seed=3, algs=("a", "b"), ns=(3, 4, 5, 6))
        ex = agreement(t, exhaustive=True, with_bootstrap=False)
        sp = agreement(t, exhaustive=False, seed=5, b_permutations=10_000, with_bootstrap=False)
        for m in ("f1", "shd", "sid"):
            pe = ex.per_metric[m].p_pearson
            ps = sp.per_metric[m].p_pearson
            se = math.sqrt(pe * (1 - pe) / 10_000)
            assert abs(ps - pe) <= 3 * se + 1 / 10_001

    def test_r_squared_is_ols_fit(self):
        t = linear_table(noise=0.4, seed=4)
        st = agreement(t, seed=0, exhaustive=False, b_permutations=100, with_bootstrap=False)
        x = center_within_n(t.matrix("f1", "generated")).ravel()
        y = center_within_n(t.matrix("f1", "real")).ravel()
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        r2 = 1 - resid @ resid / ((y - y.mean()) @ (y - y.mean()))
        assert st.per_metric["f1"].r_squared == pytest.approx(r2)

    def test_bootstrap_ci_brackets_point(self):
        t = ScoreTable.from_csv(os.path.join(DATA, "scores_gpt5.csv"))
        st = agreement(t, seed=0, exhaustive=False, b_permutations=200, b_bootstrap=800)
        for m in ("f1", "shd", "sid"):
            lo, hi = st.per_metric[m].ci["r_squared"]
            assert lo <= st.per_metric[m].r_squared <= hi

    def test_point_estimate_independent_of_b(self):
        t = ScoreTable.from_csv(os.path.join(DATA, "scores_gpt5.csv"))
        a1 = agreement(t, seed=0, exhaustive=False, b_permutations=100, b_bootstrap=50)
        a2 = agreement(t, seed=9, exhaustive=False, b_permutations=500, b_bootstrap=200)
        assert a1.per_metric["f1"].pearson == a2.per_metric["f1"].pearson

    def test_sampled_mode_lists_no_permutations(self, monkeypatch):
        # ten algorithms have 3.6M orders; only the exhaustive path may list them
        def refuse(*args):
            raise AssertionError("permutations listed")

        t = linear_table(noise=0.3, seed=6, algs=tuple("abcdefghij"), ns=(3, 4))
        monkeypatch.setattr(itertools, "permutations", refuse)
        st = agreement(t, seed=0, exhaustive=False, b_permutations=200, with_bootstrap=False)
        assert st.per_metric["f1"].p_mode == "sampled"
        assert agreement(t, seed=0, b_permutations=200, with_bootstrap=False).per_metric["f1"].p_mode == "sampled"
        with pytest.raises(ValueError, match="above cap"):
            agreement(t, exhaustive=True, with_bootstrap=False)

    def test_too_few_algorithms(self):
        t = linear_table(algs=("a",))
        with pytest.raises(TooFewAlgorithms):
            agreement(t, seed=0, exhaustive=False, with_bootstrap=False)


def full_fold_p(xc, yc):
    """Reference: the exhaustive p-value from the full distribution of arrangement sums.

    Builds every within-bucket arrangement's dot product with repeated outer
    sums, as the exhaustive mode did before it counted by meet in the middle.
    """
    buckets, a = xc.shape
    obs = float((xc * yc).sum())
    perms = list(itertools.permutations(range(a)))
    dots = np.zeros(1)
    for bkt in range(buckets):
        contrib = np.array([float(xc[bkt] @ yc[bkt, list(p)]) for p in perms])
        dots = (dots[:, None] + contrib[None, :]).ravel()
    return int((np.abs(dots) >= abs(obs) - 1e-12).sum()) / len(dots)


def exhaustive_p(xc, yc):
    p, mode, total = transfer._stratified_permutation_p(xc[None], yc[None], 0, None, True)
    assert mode == "exhaustive" and total == math.factorial(xc.shape[1]) ** xc.shape[0]
    return p[0]


def centred_pairs(x, y):
    """The centred scores and the centred pooled ranks, as ``agreement`` tests them."""
    xc, yc = center_within_n(x), center_within_n(y)
    ranks = (center_within_n(transfer._rank(m.ravel()).reshape(m.shape)) for m in (xc, yc))
    return [(xc, yc), tuple(ranks)]


def fixture_tables():
    for fname in ("scores_gpt5.csv", "scores_deepseek.csv", "scores_qwen.csv"):
        t = ScoreTable.from_csv(os.path.join(DATA, fname))
        yield fname, t
        for alg in t.algorithms:
            yield f"{fname} without {alg}", t.drop(alg)


def random_grid(seed):
    """A seeded grid of 1-8 buckets and 2-4 algorithms, scores rounded to 0-2 decimals."""
    rng = np.random.default_rng(seed)
    a = int(rng.integers(2, 5))
    max_buckets = {2: 8, 3: 8, 4: 4}[a]  # keeps a!^buckets under EXHAUSTIVE_CAP
    buckets = int(rng.integers(1, max_buckets + 1))
    decimals = int(rng.integers(0, 3))
    x, y = (np.round(rng.uniform(0, 5, size=(buckets, a)), decimals) for _ in range(2))
    return x, y


class TestMeetInTheMiddle:
    """The exhaustive count gives the full fold's p-value exactly."""

    @pytest.mark.parametrize("name, table", list(fixture_tables()), ids=lambda v: v if isinstance(v, str) else "")
    def test_fixture_and_leave_one_out_tables(self, name, table):
        for metric in ("f1", "shd", "sid"):
            x, y = table.matrix(metric, "generated"), table.matrix(metric, "real")
            for xc, yc in centred_pairs(x, y):
                assert exhaustive_p(xc, yc) == full_fold_p(xc, yc), (name, metric)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_rounded_grids(self, seed):
        x, y = random_grid(seed)
        for xc, yc in centred_pairs(x, y):
            if not (xc.any() and yc.any()):
                with pytest.raises(DegenerateGroups):
                    exhaustive_p(xc, yc)
                continue
            assert exhaustive_p(xc, yc) == full_fold_p(xc, yc)

    def test_random_grids_cover_every_shape(self):
        shapes = {random_grid(seed)[0].shape for seed in range(40)}
        assert {b for b, _ in shapes} == set(range(1, 9))
        assert {a for _, a in shapes} == {2, 3, 4}

    def test_one_bucket(self):
        # the left half holds no bucket, so its only sum is 0.0
        xc = center_within_n(np.array([[0.3, 0.1, 0.7, 0.2]]))
        yc = center_within_n(np.array([[0.5, 0.2, 0.4, 0.1]]))
        p = exhaustive_p(xc, yc)
        assert p == full_fold_p(xc, yc)
        assert 0 < p < 1

    def test_zero_statistic_counts_every_arrangement(self):
        xc = np.array([[1.0, -1.0, 0.0], [0.5, 0.0, -0.5]])
        yc = np.array([[1.0, 1.0, -2.0], [0.25, -0.5, 0.25]])
        assert float((xc * yc).sum()) == 0.0
        assert exhaustive_p(xc, yc) == full_fold_p(xc, yc) == 1.0

    def test_mirrored_sums_tie_the_statistic(self):
        # bucket 4 mirrors bucket 1 and 0.08 + 0.18 is the statistic 0.26, so
        # four arrangements sum to +-|obs| exactly, each on the count's boundary
        x = np.array([[0.1, -0.1], [0.2, -0.2], [0.3, -0.3], [0.1, -0.1]])
        y = x.copy()
        y[3] = -y[3]
        dots = [
            sum(float(x[k] @ y[k, list(p)]) for k, p in enumerate(perms))
            for perms in itertools.product([(0, 1), (1, 0)], repeat=4)
        ]
        obs = float((x * y).sum())
        assert [abs(d) for d in dots].count(abs(obs)) == 4  # +-|obs| to the last bit
        assert exhaustive_p(x, y) == full_fold_p(x, y) == 6 / 16  # the 4 ties and +-0.30
        for xc, yc in centred_pairs(np.tile(x, (1, 2)), np.tile(y, (1, 2))):
            assert exhaustive_p(xc, yc) == full_fold_p(xc, yc)

    def test_nan_is_degenerate(self):
        xc = np.array([[0.5, -0.5], [math.nan, 0.0]])
        yc = np.array([[0.5, -0.5], [0.25, -0.25]])
        for exhaustive in (True, False):
            with pytest.raises(DegenerateGroups):
                transfer._stratified_permutation_p(xc[None], yc[None], 10, 0, exhaustive)


# sampled p-values at seed=7, b=10_000 as (1 + exceedances) / 10_001; a change
# to how the sampled path draws its arrangements moves them:
# table -> (exceedances for p_pearson, for p_spearman) per metric f1, shd, sid
SAMPLED_AT_SEED_7 = {
    "scores_gpt5.csv": [(0, 0), (0, 0), (0, 0)],
    "scores_gpt5.csv without RuleBayes": [(66, 66), (66, 66), (66, 66)],
    "scores_gpt5.csv without SCITE": [(66, 66), (66, 66), (66, 66)],
    "scores_gpt5.csv without LLM-CG": [(66, 66), (66, 66), (66, 66)],
    "scores_qwen.csv": [(0, 0), (8, 0), (0, 0)],
    "linear 3 x 4": [(2629, 2790)] * 3,
    "linear 4 x 5": [(821, 533)] * 3,
}


def sampled_cases():
    gpt5 = ScoreTable.from_csv(os.path.join(DATA, "scores_gpt5.csv"))
    yield "scores_gpt5.csv", gpt5
    for alg in gpt5.algorithms:
        yield f"scores_gpt5.csv without {alg}", gpt5.drop(alg)
    yield "scores_qwen.csv", ScoreTable.from_csv(os.path.join(DATA, "scores_qwen.csv"))
    yield "linear 3 x 4", linear_table(noise=0.5, seed=3, ns=(3, 4, 5, 6))
    yield "linear 4 x 5", linear_table(noise=2.0, seed=5, algs=("a", "b", "c", "d"), ns=(3, 4, 5, 6, 7))


class TestSampledPValues:
    @pytest.mark.parametrize("name, table", list(sampled_cases()), ids=lambda v: v if isinstance(v, str) else "")
    def test_sampled_p_values_are_pinned(self, name, table):
        st = agreement(table, seed=7, b_permutations=10_000, exhaustive=False, with_bootstrap=False)
        for metric, (np_, ns_) in zip(("f1", "shd", "sid"), SAMPLED_AT_SEED_7[name]):
            got = st.per_metric[metric]
            assert got.p_mode == "sampled" and got.n_permutations == 10_000
            assert (got.p_pearson, got.p_spearman) == ((1 + np_) / 10_001, (1 + ns_) / 10_001)


def loop_permutation_p(xc, yc, b, seed, exhaustive):
    """Reference: the one-pair permutation test, re-seeded on every call."""
    buckets, a = xc.shape
    norm = math.sqrt((xc**2).sum() * (yc**2).sum())
    if not norm > 0:
        raise DegenerateGroups("zero or undefined variance after centering")
    obs = float((xc * yc).sum())
    threshold = abs(obs) - 1e-12
    total = math.factorial(a) ** buckets
    if exhaustive and total > transfer.EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive enumeration needs {total} combinations, above cap {transfer.EXHAUSTIVE_CAP}")
    if exhaustive:
        if threshold <= 0:
            return 1.0, "exhaustive", total
        perms = list(itertools.permutations(range(a)))
        contribs = [np.array([float(xc[bkt] @ yc[bkt, list(p)]) for p in perms]) for bkt in range(buckets)]
        left = transfer._fold_sums(contribs[: buckets // 2])
        right = np.sort(transfer._fold_sums(contribs[buckets // 2 :]))
        count = int(
            (len(right) - np.searchsorted(right, threshold - left, side="left")).sum()
            + np.searchsorted(right, -threshold - left, side="right").sum()
        )
        return count / total, "exhaustive", total
    rng = np.random.default_rng(seed)
    idx = np.argsort(rng.random((b, buckets, a)), axis=2)
    y_perm = np.take_along_axis(np.broadcast_to(yc, (b, buckets, a)), idx, axis=2)
    dots = np.einsum("ka,bka->b", xc, y_perm)
    return (1 + int((np.abs(dots) >= threshold).sum())) / (b + 1), "sampled", b


def loop_batched_bootstrap(x, y, b, seed):
    """Reference: one pair's batched bootstrap, re-seeded on every call."""
    rng = np.random.default_rng(seed)
    buckets, a = x.shape
    idx = rng.integers(0, a, size=(b, buckets, a))
    xbc, ybc = (center_within_n(np.take_along_axis(m[None], idx, axis=2)).reshape(b, buckets * a) for m in (x, y))
    keep = (xbc.std(axis=1) != 0) & (ybc.std(axis=1) != 0)
    if not keep.any():
        nan = (float("nan"), float("nan"))
        return {"pearson": nan, "spearman": nan, "r_squared": nan}
    xbc, ybc = xbc[keep], ybc[keep]
    r = transfer._pearson(xbc, ybc)
    rho = transfer._pearson(transfer._rank(xbc), transfer._rank(ybc))

    def ci(vals):
        lo, hi = np.percentile(vals, [2.5, 97.5])
        return (float(lo), float(hi))

    return {"pearson": ci(r), "spearman": ci(rho), "r_squared": ci(r * r)}


def loop_agreement(table, b_permutations, b_bootstrap, seed, exhaustive, with_bootstrap):
    """Reference: the per-metric loop ``agreement`` ran before its stacked pass.

    Each metric builds its two matrices, and each of its two permutation
    tests and its bootstrap draws from a fresh ``default_rng(seed)``.
    """
    if len(table.algorithms) < 2:
        raise TooFewAlgorithms("agreement needs at least two algorithms")
    buckets, a = len(table.ns), len(table.algorithms)
    if exhaustive == "auto":
        exhaustive = math.factorial(a) ** buckets <= transfer.EXHAUSTIVE_CAP
    per_metric = {}
    for metric in ("f1", "shd", "sid"):
        x = table.matrix(metric, "generated")
        y = table.matrix(metric, "real")
        xc, yc = center_within_n(x), center_within_n(y)
        xf, yf = xc.ravel(), yc.ravel()
        r = float(transfer._pearson(xf, yf))
        if (xf == xf[0]).all() or (yf == yf[0]).all():
            rho = math.nan
        else:
            ranked = np.apply_along_axis(transfer._rank, 0, np.column_stack((xf, yf)))
            rho = float(np.corrcoef(ranked, rowvar=False)[1, 0])
        p_pearson, mode, n_perm = loop_permutation_p(xc, yc, b_permutations, seed, exhaustive)
        rx, ry = (center_within_n(transfer._rank(m.ravel()).reshape(m.shape)) for m in (xc, yc))
        p_spearman, _, _ = loop_permutation_p(rx, ry, b_permutations, seed, exhaustive)
        ci = loop_batched_bootstrap(x, y, b_bootstrap, seed) if with_bootstrap else {}
        per_metric[metric] = transfer.MetricAgreement(
            pearson=r, spearman=rho, r_squared=r * r, p_pearson=p_pearson, p_spearman=p_spearman,
            p_mode=mode, n_permutations=n_perm, ci=ci,
        )
    average = {
        key: float(np.mean([getattr(per_metric[m], key) for m in ("f1", "shd", "sid")]))
        for key in ("pearson", "spearman", "r_squared")
    }
    return transfer.AgreementStats(per_metric=per_metric, average=average, seed=seed)


def same_value(got, want):
    """Equality that takes nan for nan, through dicts, tuples and lists."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(same_value(got[k], want[k]) for k in want)
    if isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(same_value(g, w) for g, w in zip(got, want))
    if isinstance(want, float):
        return isinstance(got, float) and same_float(got, want)
    return type(got) is type(want) and got == want


def stacking_table(a, buckets, seed, decimals=None, constant=None):
    """A seeded table of ``a`` algorithms and ``buckets`` buckets.

    ``decimals`` rounds the scores, which ties many of them; ``constant``
    names a metric whose scores are all 1.0.
    """
    rng = np.random.default_rng([a, buckets, seed])
    vals = {}
    for alg in range(a):
        for n in range(3, 3 + buckets):
            g = rng.uniform(0, 1, size=3)
            for corpus, v in (("generated", g), ("real", 0.6 * g + 0.4 * rng.uniform(0, 1, size=3))):
                if decimals is not None:
                    v = np.round(v, decimals)
                if constant is not None:
                    v[("f1", "shd", "sid").index(constant)] = 1.0
                vals[(f"alg{alg}", n, corpus)] = tuple(v.tolist())
    return toy_table(vals)


class TestStackedAgreement:
    """``agreement`` gives every field the per-metric loop gave, to the last bit."""

    @pytest.mark.parametrize("a", range(2, 6))
    @pytest.mark.parametrize("buckets", range(1, 9))
    def test_matches_the_per_metric_loop(self, a, buckets):
        for decimals, exhaustive, with_bootstrap in itertools.product((None, 1), (True, False, "auto"), (True, False)):
            table = stacking_table(a, buckets, seed=0, decimals=decimals)
            kw = dict(b_permutations=300, b_bootstrap=200, seed=11, exhaustive=exhaustive, with_bootstrap=with_bootstrap)
            try:
                want = loop_agreement(table, **kw)
            except (ValueError, DegenerateGroups) as exc:  # exhaustive above the cap, or a tie-made constant metric
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    agreement(table, **kw)
                continue
            got = agreement(table, **kw)
            case = (decimals, exhaustive, with_bootstrap)
            assert got.per_metric.keys() == want.per_metric.keys()
            for metric, w in want.per_metric.items():
                assert same_value(vars(got.per_metric[metric]), vars(w)), (case, metric)
            assert same_value(got.average, want.average), case
            assert got.seed == want.seed

    def test_cases_cover_ties_and_both_modes(self):
        table = stacking_table(3, 8, seed=0, decimals=1)
        f1 = table.matrix("f1", "generated")
        assert len(np.unique(f1)) < f1.size
        modes = {agreement(stacking_table(a, 8, seed=0), b_permutations=10, with_bootstrap=False).per_metric["f1"].p_mode
                 for a in (3, 4)}
        assert modes == {"exhaustive", "sampled"}

    @pytest.mark.parametrize("constant", ["f1", "shd", "sid"])
    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_constant_metric_is_degenerate(self, constant, exhaustive):
        table = stacking_table(3, 4, seed=1, constant=constant)
        kw = dict(b_permutations=100, b_bootstrap=50, seed=0, exhaustive=exhaustive, with_bootstrap=True)
        with pytest.raises(DegenerateGroups) as want:
            loop_agreement(table, **kw)
        with pytest.raises(DegenerateGroups) as got:
            agreement(table, **kw)
        assert str(got.value) == str(want.value)

    def test_stacked_helpers_match_one_pair_calls(self):
        table = stacking_table(3, 5, seed=2, decimals=1)
        x, y = (np.stack([table.matrix(m, c) for m in ("f1", "shd", "sid")]) for c in ("generated", "real"))
        xc, yc = center_within_n(x), center_within_n(y)
        for exhaustive in (True, False):
            p, mode, n = transfer._stratified_permutation_p(xc, yc, 500, 3, exhaustive)
            assert [transfer._stratified_permutation_p(u[None], v[None], 500, 3, exhaustive) for u, v in zip(xc, yc)] == [
                ([pk], mode, n) for pk in p
            ]
        cis = transfer._stratified_bootstrap(x, y, 300, 3)
        assert all(same_value(ci, transfer._stratified_bootstrap(u[None], v[None], 300, 3)[0]) for ci, u, v in zip(cis, x, y))


def pearson_1d(x, y):
    xm, ym = x - x.mean(), y - y.mean()
    return float(xm @ ym / math.sqrt((xm @ xm) * (ym @ ym)))


def average_ranks(v):
    """1-based ranks, tied values sharing the mean of their positions."""
    first, last = {}, {}
    for i, u in enumerate(sorted(v.tolist())):
        first.setdefault(u, i)
        last[u] = i
    return np.array([(first[u] + last[u]) / 2 + 1 for u in v.tolist()])


def loop_bootstrap(x, y, b, seed):
    """Reference: the per-replicate bootstrap loop, one draw per replicate.

    Returns the CIs and the number of replicates kept.  A 1-D Pearson and a
    Pearson of average ranks stand in for scipy's pearsonr and spearmanr,
    which cost about 0.3 ms a call and would put half a minute of loops into
    the suite.
    """
    rng = np.random.default_rng(seed)
    buckets, a = x.shape
    rs, rhos = [], []
    for _ in range(b):
        idx = rng.integers(0, a, size=(buckets, a))
        xb = np.take_along_axis(x, idx, axis=1)
        yb = np.take_along_axis(y, idx, axis=1)
        xbc = (xb - xb.mean(axis=1, keepdims=True)).ravel()
        ybc = (yb - yb.mean(axis=1, keepdims=True)).ravel()
        if xbc.std() == 0 or ybc.std() == 0:
            continue
        rs.append(pearson_1d(xbc, ybc))
        rhos.append(pearson_1d(average_ranks(xbc), average_ranks(ybc)))

    def ci(vals):
        if not vals:
            return (float("nan"), float("nan"))
        lo, hi = np.percentile(vals, [2.5, 97.5])
        return (float(lo), float(hi))

    cis = {"pearson": ci(rs), "spearman": ci(rhos), "r_squared": ci([r * r for r in rs])}
    return cis, len(rs)


def assert_cis_close(got, want, tol=1e-12):
    assert got.keys() == want.keys()
    for key in want:
        for g, w in zip(got[key], want[key]):
            assert (math.isnan(g) and math.isnan(w)) or abs(g - w) <= tol, (key, got, want)


class TestBatchedBootstrap:
    @pytest.mark.parametrize("fname", ["scores_gpt5.csv", "scores_deepseek.csv", "scores_qwen.csv"])
    @pytest.mark.parametrize("drop", [None, 0, 1, 2])
    def test_matches_loop_on_fixtures(self, fname, drop):
        t = ScoreTable.from_csv(os.path.join(DATA, fname))
        if drop is not None:
            t = t.drop(t.algorithms[drop])
        for metric in ("f1", "shd", "sid"):
            x, y = t.matrix(metric, "generated"), t.matrix(metric, "real")
            for seed in (0, 1, 7):
                want, kept = loop_bootstrap(x, y, 400, seed)
                assert kept > 0
                assert_cis_close(transfer._stratified_bootstrap(x[None], y[None], 400, seed)[0], want)

    def test_skips_constant_replicates(self):
        # two algorithms in one bucket: a replicate that draws one algorithm
        # twice has constant centred scores and is skipped
        x, y = np.array([[0.1, 0.5]]), np.array([[0.3, 0.2]])
        want, kept = loop_bootstrap(x, y, 200, 3)
        assert 0 < kept < 200
        assert_cis_close(transfer._stratified_bootstrap(x[None], y[None], 200, 3)[0], want)

    def test_all_replicates_skipped_gives_nan(self):
        x, y = np.array([[0.4, 0.4]]), np.array([[0.3, 0.2]])
        assert loop_bootstrap(x, y, 50, 0)[1] == 0
        cis = transfer._stratified_bootstrap(x[None], y[None], 50, 0)[0]
        assert all(math.isnan(v) for pair in cis.values() for v in pair)


class TestLeaveOneOut:
    def test_drop_to_one_rejected(self):
        t = linear_table(algs=("a", "b"))
        with pytest.raises(TooFewAlgorithms):
            leave_one_out(t, "a")

    def test_reduced_grid(self):
        t = ScoreTable.from_csv(os.path.join(DATA, "scores_gpt5.csv"))
        st = leave_one_out(t, "LLM-CG", seed=0, exhaustive=False, b_permutations=100, with_bootstrap=False)
        assert st.per_metric["f1"].pearson == pytest.approx(0.970, abs=0.01)

    @pytest.mark.parametrize("fname", ["scores_gpt5.csv", "scores_deepseek.csv", "scores_qwen.csv"])
    def test_pair_identity(self, fname):
        # With three algorithms per bucket the centred cross-product is a third
        # of the sum of pairwise gap products, so the full-grid Pearson is
        # sum_c w_c * (Pearson without c), w_c = sqrt(X_c Y_c / (sum X sum Y)),
        # X_c and Y_c being the summed squared gaps of the remaining pair.
        t = ScoreTable.from_csv(os.path.join(DATA, fname))
        assert len(t.algorithms) == 3
        kw = dict(seed=0, exhaustive=False, b_permutations=10, with_bootstrap=False)
        full = agreement(t, **kw)
        loo = {c: leave_one_out(t, c, **kw) for c in t.algorithms}
        for m in ("f1", "shd", "sid"):
            gaps = {}
            for c in t.algorithms:
                a, b = (t.algorithms.index(k) for k in t.algorithms if k != c)
                gaps[c] = [
                    ((t.matrix(m, corpus)[:, a] - t.matrix(m, corpus)[:, b]) ** 2).sum()
                    for corpus in ("generated", "real")
                ]
            total_x = sum(x for x, _ in gaps.values())
            total_y = sum(y for _, y in gaps.values())
            implied = sum(
                math.sqrt(x * y / (total_x * total_y)) * loo[c].per_metric[m].pearson
                for c, (x, y) in gaps.items()
            )
            assert abs(full.per_metric[m].pearson - implied) <= 1e-12


class TestBenjaminiHochberg:
    def test_known_example(self):
        p = {"a": 0.01, "b": 0.02, "c": 0.04}
        adj = benjamini_hochberg(p)
        assert adj["a"] == pytest.approx(0.03)
        assert adj["b"] == pytest.approx(0.03)
        assert adj["c"] == pytest.approx(0.04)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(0)
        p = {f"k{i}": float(v) for i, v in enumerate(rng.random(10))}
        adj = benjamini_hochberg(p)
        for k in p:
            assert p[k] <= adj[k] + 1e-12 and adj[k] <= 1.0


def loop_anova_f(values, levels):
    """Reference: the scalar one-way ANOVA F the batched one replaced."""
    grand = values.mean()
    ss_effect = 0.0
    ss_error = 0.0
    for lv in np.unique(levels):
        grp = values[levels == lv]
        ss_effect += len(grp) * (grp.mean() - grand) ** 2
        ss_error += ((grp - grp.mean()) ** 2).sum()
    k = len(np.unique(levels))
    n = len(values)
    df1, df2 = k - 1, n - k
    if df1 == 0 or df2 == 0 or ss_error == 0:
        f = math.inf if ss_effect > 0 else 0.0
    else:
        f = (ss_effect / df1) / (ss_error / df2)
    eta = ss_effect / (ss_effect + ss_error) if (ss_effect + ss_error) > 0 else 0.0
    return f, eta


def loop_permutation_anova(groups, b, seed, exhaustive_cap):
    """Reference: one relabelling and one F statistic per arrangement.

    Returns (p_value, partial_eta_squared, f_statistic, mode, n_permutations).
    """
    strata = sorted({n for n, _ in groups})
    values, levels, stratum_of = [], [], []
    for (n, lv), vals in groups.items():
        for v in vals:
            values.append(float(v))
            levels.append(lv)
            stratum_of.append(n)
    values = np.array(values)
    levels = np.array(levels, dtype=object)
    stratum_of = np.array(stratum_of)
    resid = values.copy()
    for n in strata:
        mask = stratum_of == n
        resid[mask] -= resid[mask].mean()
    f_obs, eta = loop_anova_f(resid, levels)
    per_stratum = [np.flatnonzero(stratum_of == n) for n in strata]
    total = math.prod(math.factorial(len(ix)) for ix in per_stratum)
    count = 0
    if total <= exhaustive_cap:
        for combo in itertools.product(*[itertools.permutations(range(len(ix))) for ix in per_stratum]):
            perm_levels = levels.copy()
            for ix, p in zip(per_stratum, combo):
                perm_levels[ix] = levels[ix][list(p)]
            count += loop_anova_f(resid, perm_levels)[0] >= f_obs - 1e-12
        return count / total, eta, f_obs, "exhaustive", total
    rng = np.random.default_rng(seed)
    for _ in range(b):
        perm_levels = levels.copy()
        for ix in per_stratum:
            perm_levels[ix] = levels[ix][rng.permutation(len(ix))]
        count += loop_anova_f(resid, perm_levels)[0] >= f_obs - 1e-12
    return (1 + count) / (b + 1), eta, f_obs, "sampled", b


def anova_cases():
    rng = np.random.default_rng(11)
    noisy = {(n, lv): rng.normal(size=3) for n in (3, 4, 5) for lv in ("a", "b", "c")}
    # levels a large constant apart: F near 1e10, so equal-F arrangements must
    # match the observed F to the last bit to be counted
    separated = {(n, lv): rng.normal(size=2) * 1e-3 + 1e3 * k for n in (3, 4) for k, lv in enumerate("xy")}
    rounded = {(n, lv): np.round(rng.normal(size=2), 1) for n in (3, 4) for lv in ("lo", "hi")}
    one_each = {(3, lv): [float(k)] for k, lv in enumerate("pqr")}  # df2 = 0
    no_error = {(n, lv): [k, k] for n in (3, 4) for k, lv in enumerate("uv")}  # ss_error = 0
    # a group mean whose squared distance from the grand mean numpy's array
    # square and Python's float power round differently
    rng = np.random.default_rng(148)
    power_rounding = {(n, lv): rng.normal(size=3) for n in (3, 4) for lv in ("a", "b", "c")}
    # keys alternate strata and levels, with unequal level sizes, so that a
    # level's columns are neither contiguous nor in one stratum
    rng = np.random.default_rng(23)
    interleaved = {(n, lv): rng.normal(size=size)
                   for lv, n, size in (("a", 3, 2), ("b", 4, 2), ("b", 3, 1), ("a", 4, 1), ("c", 3, 2), ("c", 4, 1))}
    return {"noisy": noisy, "separated": separated, "rounded": rounded, "one_each": one_each,
            "no_error": no_error, "power_rounding": power_rounding, "interleaved": interleaved}


def many_levels_groups():
    """Two strata x 300 levels, so that a level code needs 16 bits; levels of one and two values."""
    rng = np.random.default_rng(31)
    return {(n, f"l{k:03d}"): rng.normal(size=1 + (k + n) % 2) for n in (3, 4) for k in range(300)}


class TestBatchedAnova:
    @pytest.mark.parametrize("case", sorted(anova_cases()))
    @pytest.mark.parametrize("batch", [None, 7])
    @pytest.mark.parametrize("cap", [0, 200_000])
    def test_matches_loop_exactly(self, case, batch, cap, monkeypatch):
        if batch is not None:  # several batches, the last one partial
            monkeypatch.setattr(transfer, "_ANOVA_BATCH", batch)
        monkeypatch.setattr(transfer, "ANOVA_EXHAUSTIVE_CAP", cap)
        groups = anova_cases()[case]
        want = loop_permutation_anova(groups, b=300, seed=4, exhaustive_cap=cap)
        res = permutation_anova(groups, b=300, seed=4)
        got = (res.p_value, res.partial_eta_squared, res.f_statistic, res.mode, res.n_permutations)
        assert got == want
        assert res.mode == ("sampled" if cap == 0 or case in ("noisy", "power_rounding") else "exhaustive")

    @pytest.mark.parametrize("batch", [None, 7])
    def test_many_levels_match_loop_exactly(self, batch, monkeypatch):
        if batch is not None:  # one arrangement per batch
            monkeypatch.setattr(transfer, "_ANOVA_BATCH", batch)
        groups = many_levels_groups()
        want = loop_permutation_anova(groups, b=20, seed=4, exhaustive_cap=transfer.ANOVA_EXHAUSTIVE_CAP)
        res = permutation_anova(groups, b=20, seed=4)
        assert (res.p_value, res.partial_eta_squared, res.f_statistic, res.mode, res.n_permutations) == want
        assert res.mode == "sampled"

    @pytest.mark.parametrize("dtype, k", [(np.uint8, 3), (np.uint8, 256), (np.uint16, 300), (np.uint16, 65536)])
    def test_stable_sort_of_small_codes_keeps_index_order(self, dtype, k):
        """The grouping relies on a stable sort of 8- and 16-bit codes listing equal codes in index order."""
        codes = np.random.default_rng(k).integers(0, k, size=(20, 700)).astype(dtype)
        order = np.argsort(codes, axis=1, kind="stable")
        want = [np.concatenate([np.flatnonzero(row == lv) for lv in np.unique(row)]) for row in codes]
        assert np.array_equal(order, want)


def unequal_strata_cases():
    rng = np.random.default_rng(22)  # p-values near the middle, where a wrong draw shows
    # stratum sizes 4, 6, 4: the size changes twice within each replicate
    # and the last stratum's run goes on into the first of the next
    changing = {(3, "a"): rng.normal(size=2), (3, "b"): rng.normal(size=2),
                (4, "a"): rng.normal(size=2), (4, "b"): rng.normal(size=2), (4, "c"): rng.normal(size=2),
                (5, "a"): rng.normal(size=1), (5, "b"): rng.normal(size=3)}
    # sizes 4, 6, 6, 4: after the first draw, runs of two, and each size-4
    # run spans two replicates
    wrapping = {(n, lv): rng.normal(size=size // 2) for n, size in zip((3, 4, 5, 6), (4, 6, 6, 4)) for lv in "xy"}
    return {"changing": changing, "wrapping": wrapping}


class TestSampledDraws:
    @pytest.mark.parametrize("k", [1, 2, 3, 12])
    def test_permuted_rows_are_successive_permutations(self, k):
        """``Generator.permuted`` shuffles rows as that many ``permutation`` calls would, from the same stream."""
        batched, looped = np.random.default_rng(7), np.random.default_rng(7)
        rows = batched.permuted(np.tile(np.arange(k), (5, 1)), axis=1)
        assert rows.tolist() == [looped.permutation(k).tolist() for _ in range(5)]
        assert batched.random() == looped.random()

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_random_block_is_successive_random_calls(self, seed):
        """``Generator.random(k)`` gives what k ``random()`` calls would, from the same stream:
        ``sample_dag`` takes its n(n-1)/2 base-edge draws (up to 45) in one call."""
        for k in range(1, 46):
            batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
            assert batched.random(k).tolist() == [looped.random() for _ in range(k)]
            assert batched.random() == looped.random()

    @pytest.mark.parametrize("case", sorted(unequal_strata_cases()))
    @pytest.mark.parametrize("batch", [None, 7, 50])
    def test_unequal_strata_match_loop_exactly(self, case, batch, monkeypatch):
        if batch is not None:  # one replicate per batch at 7, two or three at 50
            monkeypatch.setattr(transfer, "_ANOVA_BATCH", batch)
        monkeypatch.setattr(transfer, "ANOVA_EXHAUSTIVE_CAP", 0)
        groups = unequal_strata_cases()[case]
        want = loop_permutation_anova(groups, b=300, seed=4, exhaustive_cap=0)
        res = permutation_anova(groups, b=300, seed=4)
        assert (res.p_value, res.partial_eta_squared, res.f_statistic, res.mode, res.n_permutations) == want


class TestPermutationAnova:
    def test_null_case(self):
        rng = np.random.default_rng(0)
        groups = {
            (n, lv): rng.normal(0, 1, size=12)
            for n in (3, 4)
            for lv in ("lo", "hi")
        }
        res = permutation_anova(groups, b=500, seed=0)
        assert res.p_value > 0.05
        assert res.partial_eta_squared < 0.2

    def test_extreme_effect_hits_floor(self, monkeypatch):
        rng = np.random.default_rng(1)
        groups = {}
        for n in (3, 4):
            groups[(n, "lo")] = rng.normal(0, 0.01, size=10)
            groups[(n, "hi")] = rng.normal(5, 0.01, size=10)
        monkeypatch.setattr(transfer, "ANOVA_EXHAUSTIVE_CAP", 0)
        res = permutation_anova(groups, b=999, seed=0)
        assert res.p_value == pytest.approx(1 / 1000)
        assert res.partial_eta_squared > 0.99

    def test_matches_exhaustive_enumeration(self, monkeypatch):
        groups = {(3, "a"): [0.1, 0.5], (3, "b"): [0.9, 0.4]}
        res = permutation_anova(groups, seed=0)
        assert res.mode == "exhaustive"
        monkeypatch.setattr(transfer, "ANOVA_EXHAUSTIVE_CAP", 0)
        sampled = permutation_anova(groups, b=20_000, seed=0)
        assert abs(sampled.p_value - res.p_value) < 0.02

    def test_degenerate_groups(self):
        with pytest.raises(DegenerateGroups):
            permutation_anova({(3, "only"): [1.0, 2.0]})
        with pytest.raises(DegenerateGroups):
            permutation_anova({(3, "a"): [1.0], (3, "b"): [2.0], (4, "a"): [1.0]})

    def test_report_applies_bh(self):
        rng = np.random.default_rng(2)
        per_param = {
            p: {(n, lv): rng.normal(0, 1, size=6) for n in (3,) for lv in ("x", "y")}
            for p in ("alpha", "beta")
        }
        report = permutation_anova_report(per_param, b=200, seed=0)
        for p in per_param:
            assert report.corrected_p[p] >= report.per_parameter[p].p_value


class TestStability:
    def test_constant_pool(self):
        report = stability_curve({3: np.full(600, 0.5)}, seed=0)
        assert report.delta == 0.0
        assert report.curves[3][500] == pytest.approx(0.5)

    def test_pool_too_small(self):
        with pytest.raises(PoolTooSmall):
            stability_curve({3: np.zeros(400)})

    def test_hand_computed_delta(self):
        # full-pool subsamples at k = pool size make M_n(k) the pool mean
        pool_a = np.concatenate([np.zeros(150), np.ones(150)])
        report = stability_curve(
            {3: pool_a}, ks=(100, 300), r_trials=5, seed=0, delta_ks=(100, 300)
        )
        assert report.curves[3][300] == pytest.approx(0.5)
        assert report.delta == pytest.approx(abs(report.curves[3][300] - report.curves[3][100]))

    def test_delta_k_not_in_ks_is_named(self):
        with pytest.raises(ValueError, match="delta_ks value 700 "):
            stability_curve({3: np.full(600, 0.5)}, seed=0, delta_ks=(300, 700))


class TestPaperTables:
    def test_gpt5_pearson_row(self):
        t = ScoreTable.from_csv(os.path.join(DATA, "scores_gpt5.csv"))
        st = agreement(t, seed=0, exhaustive=False, b_permutations=100, with_bootstrap=False)
        assert st.per_metric["f1"].pearson == pytest.approx(0.923, abs=0.005)
        assert st.average["pearson"] == pytest.approx(0.925, abs=0.005)
        assert st.average["spearman"] == pytest.approx(0.900, abs=0.005)
        assert st.average["r_squared"] == pytest.approx(0.856, abs=0.005)
