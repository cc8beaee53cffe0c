import itertools
import math
import os

import numpy as np
import pytest
from scipy import stats as sps

from causaltext.errors import (
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
    algorithms, ns = [], []
    table = {}
    for (a, n, c), (f1, sh, si) in values.items():
        if a not in algorithms:
            algorithms.append(a)
        if n not in ns:
            ns.append(n)
        table[(a, n, c)] = {"f1": f1, "shd": sh, "sid": si}
    return ScoreTable(algorithms=algorithms, ns=sorted(ns), values=table)


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
            assert same_float(transfer._spearman(x, y), sps.spearmanr(x, y)[0])

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
        assert math.isnan(transfer._spearman(x, y))


class TestScoreTable:
    def test_csv_roundtrip(self, tmp_path):
        t = ScoreTable.from_csv(os.path.join(DATA, "scores_gpt5.csv"))
        out = tmp_path / "again.csv"
        t.to_csv(out)
        t2 = ScoreTable.from_csv(out)
        assert t2.values == t.values and t2.algorithms == t.algorithms

    def test_incomplete_grid(self):
        t = toy_table({("a", 3, "generated"): (1, 0, 0), ("a", 3, "real"): (1, 0, 0)})
        del t.values[("a", 3, "real")]
        with pytest.raises(IncompleteGrid):
            t.check_grid()

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("algorithm,n,corpus,f1\nx,3,real,0.5\n")
        with pytest.raises(IncompleteGrid):
            ScoreTable.from_csv(p)


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

    def test_too_few_algorithms(self):
        t = linear_table(algs=("a",))
        with pytest.raises(TooFewAlgorithms):
            agreement(t, seed=0, exhaustive=False, with_bootstrap=False)


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
                assert_cis_close(transfer._stratified_bootstrap(x, y, 400, seed), want)

    def test_skips_constant_replicates(self):
        # two algorithms in one bucket: a replicate that draws one algorithm
        # twice has constant centred scores and is skipped
        x, y = np.array([[0.1, 0.5]]), np.array([[0.3, 0.2]])
        want, kept = loop_bootstrap(x, y, 200, 3)
        assert 0 < kept < 200
        assert_cis_close(transfer._stratified_bootstrap(x, y, 200, 3), want)

    def test_all_replicates_skipped_gives_nan(self):
        x, y = np.array([[0.4, 0.4]]), np.array([[0.3, 0.2]])
        assert loop_bootstrap(x, y, 50, 0)[1] == 0
        cis = transfer._stratified_bootstrap(x, y, 50, 0)
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
    return {"noisy": noisy, "separated": separated, "rounded": rounded,
            "one_each": one_each, "no_error": no_error, "power_rounding": power_rounding}


class TestBatchedAnova:
    @pytest.mark.parametrize("case", sorted(anova_cases()))
    @pytest.mark.parametrize("batch", [None, 7])
    @pytest.mark.parametrize("cap", [0, 200_000])
    def test_matches_loop_exactly(self, case, batch, cap, monkeypatch):
        if batch is not None:  # several batches, the last one partial
            monkeypatch.setattr(transfer, "_ANOVA_BATCH", batch)
        groups = anova_cases()[case]
        want = loop_permutation_anova(groups, b=300, seed=4, exhaustive_cap=cap)
        res = permutation_anova(groups, b=300, seed=4, exhaustive_cap=cap)
        got = (res.p_value, res.partial_eta_squared, res.f_statistic, res.mode, res.n_permutations)
        assert got == want
        assert res.mode == ("sampled" if cap == 0 or case in ("noisy", "power_rounding") else "exhaustive")


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

    def test_extreme_effect_hits_floor(self):
        rng = np.random.default_rng(1)
        groups = {}
        for n in (3, 4):
            groups[(n, "lo")] = rng.normal(0, 0.01, size=10)
            groups[(n, "hi")] = rng.normal(5, 0.01, size=10)
        res = permutation_anova(groups, b=999, seed=0, exhaustive_cap=0)
        assert res.p_value == pytest.approx(1 / 1000)
        assert res.partial_eta_squared > 0.99

    def test_matches_exhaustive_enumeration(self):
        groups = {(3, "a"): [0.1, 0.5], (3, "b"): [0.9, 0.4]}
        res = permutation_anova(groups, seed=0)
        assert res.mode == "exhaustive"
        sampled = permutation_anova(groups, b=20_000, seed=0, exhaustive_cap=0)
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


class TestPaperTables:
    def test_gpt5_pearson_row(self):
        t = ScoreTable.from_csv(os.path.join(DATA, "scores_gpt5.csv"))
        st = agreement(t, seed=0, exhaustive=False, b_permutations=100, with_bootstrap=False)
        assert st.per_metric["f1"].pearson == pytest.approx(0.923, abs=0.005)
        assert st.average["pearson"] == pytest.approx(0.925, abs=0.005)
        assert st.average["spearman"] == pytest.approx(0.900, abs=0.005)
        assert st.average["r_squared"] == pytest.approx(0.856, abs=0.005)
