"""Transferability statistics: within-n centering, agreement, permutation tests.

The agreement between scores on generated and real corpora is computed on
algorithm-size pairs after subtracting, inside every graph-size bucket, the
across-algorithm mean ("within-n centering").  Significance comes from a
stratified permutation test that shuffles algorithm identity independently
within each bucket; confidence intervals from a stratified bootstrap that
resamples pairs within each bucket.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateGroups,
    IncompleteGrid,
    PoolTooSmall,
    TooFewAlgorithms,
)

METRICS = ("f1", "shd", "sid")
CORPORA = ("generated", "real")
DEFAULT_NS = tuple(range(3, 11))
EXHAUSTIVE_CAP = 2_000_000
_ANOVA_BATCH = 1 << 18  # level codes per batch of null ANOVA F statistics


@dataclass
class ScoreTable:
    """Per-(algorithm, n, corpus) metric values."""

    algorithms: list
    ns: list
    values: dict  # (algorithm, n, corpus) -> {"f1": ..., "shd": ..., "sid": ...}

    @classmethod
    def from_csv(cls, path) -> "ScoreTable":
        algorithms, ns, values = [], [], {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"algorithm", "n", "corpus", "f1", "shd", "sid"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise IncompleteGrid(f"score CSV must carry columns {sorted(required)}")
            for row in reader:
                alg = row["algorithm"].strip()
                n = int(row["n"])
                corpus = row["corpus"].strip()
                if corpus not in CORPORA:
                    raise IncompleteGrid(f"unknown corpus {corpus!r}")
                if alg not in algorithms:
                    algorithms.append(alg)
                if n not in ns:
                    ns.append(n)
                values[(alg, n, corpus)] = {m: float(row[m]) for m in METRICS}
        return cls(algorithms=algorithms, ns=sorted(ns), values=values)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "n", "corpus", "f1", "shd", "sid"])
            for alg in self.algorithms:
                for n in self.ns:
                    for corpus in CORPORA:
                        v = self.values[(alg, n, corpus)]
                        writer.writerow([alg, n, corpus, v["f1"], v["shd"], v["sid"]])

    def check_grid(self) -> None:
        for alg in self.algorithms:
            for n in self.ns:
                for corpus in CORPORA:
                    if (alg, n, corpus) not in self.values:
                        raise IncompleteGrid(f"missing cell {(alg, n, corpus)}")

    def matrix(self, metric: str, corpus: str) -> np.ndarray:
        """Scores as an (n-buckets x algorithms) array."""
        self.check_grid()
        return np.array(
            [[self.values[(a, n, corpus)][metric] for a in self.algorithms] for n in self.ns]
        )

    def drop(self, algorithm: str) -> "ScoreTable":
        if algorithm not in self.algorithms:
            raise KeyError(algorithm)
        remaining = [a for a in self.algorithms if a != algorithm]
        if len(remaining) < 2:
            raise TooFewAlgorithms("need at least two algorithms after dropping")
        values = {k: v for k, v in self.values.items() if k[0] != algorithm}
        return ScoreTable(algorithms=remaining, ns=list(self.ns), values=values)


def center_within_n(scores: np.ndarray) -> np.ndarray:
    """Subtract the across-algorithm mean inside each bucket (along the last axis)."""
    scores = np.asarray(scores, dtype=float)
    return scores - scores.mean(axis=-1, keepdims=True)


def _pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson correlation along the last axis; nan where an input is constant.

    Takes the steps of ``scipy.stats.pearsonr`` in its order (centre, scale
    by the largest deviation, norm, dot product, clip), so the values agree
    with it to the last bit.
    """
    xm = x - x.mean(axis=-1, keepdims=True)
    ym = y - y.mean(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        xmax = np.abs(xm).max(axis=-1, keepdims=True)
        ymax = np.abs(ym).max(axis=-1, keepdims=True)
        normxm = xmax * np.linalg.norm(xm / xmax, ord=2, axis=-1, keepdims=True)
        normym = ymax * np.linalg.norm(ym / ymax, ord=2, axis=-1, keepdims=True)
        r = np.clip(np.vecdot(xm / normxm, ym / normym, axis=-1), -1.0, 1.0)
    if x.shape[-1] == 2:
        r = np.round(r)
    constant = (x == x[..., :1]).all(axis=-1) | (y == y[..., :1]).all(axis=-1)
    return np.where(constant, np.nan, r)


def _rank(values: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis, tied values sharing their mean rank."""
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    n = values.shape[-1]
    pos = np.broadcast_to(np.arange(n), values.shape)
    # sorted positions where a run of equal values starts, and where one ends
    starts = np.ones(values.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.roll(starts, -1, axis=-1)
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, (first + last) / 2 + 1, axis=-1)
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman correlation of two vectors, as ``scipy.stats.spearmanr`` computes it."""
    if (x == x[0]).all() or (y == y[0]).all():
        return math.nan
    ranked = np.apply_along_axis(_rank, 0, np.column_stack((x, y)))
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def _stratified_permutation_p(
    xc: np.ndarray,
    yc: np.ndarray,
    b: int,
    seed,
    exhaustive: bool,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
):
    """Two-sided permutation p-value for the pooled Pearson correlation.

    ``xc`` and ``yc`` are (buckets x algorithms) arrays whose rows each sum to
    zero (already centered), so within-bucket permutations of ``yc`` leave the
    pooled mean and variance unchanged and the correlation statistic reduces
    to a normalized sum of per-bucket dot products.

    Returns (p, mode, n_permutations).
    """
    xc = np.asarray(xc, float)
    yc = np.asarray(yc, float)
    buckets, a = xc.shape
    norm = math.sqrt((xc**2).sum() * (yc**2).sum())
    if norm == 0:
        raise DegenerateGroups("zero variance after centering")
    obs = float((xc * yc).sum())

    perms = list(itertools.permutations(range(a)))
    total = len(perms) ** buckets
    if exhaustive and total > exhaustive_cap:
        raise ValueError(
            f"exhaustive enumeration needs {total} combinations, above cap {exhaustive_cap}"
        )

    if exhaustive:
        # per-bucket dot contributions for each within-bucket permutation,
        # folded into the full distribution with outer sums
        dots = np.zeros(1)
        for bkt in range(buckets):
            contrib = np.array([float(xc[bkt] @ yc[bkt, list(p)]) for p in perms])
            dots = (dots[:, None] + contrib[None, :]).ravel()
        count = int((np.abs(dots) >= abs(obs) - 1e-12).sum())
        return count / total, "exhaustive", total

    if seed is None:
        raise ValueError("seed required for sampled permutation mode")
    rng = np.random.default_rng(seed)
    keys = rng.random((b, buckets, a))
    idx = np.argsort(keys, axis=2)
    y_perm = np.take_along_axis(np.broadcast_to(yc, (b, buckets, a)), idx, axis=2)
    dots = np.einsum("ka,bka->b", xc, y_perm)
    count = int((np.abs(dots) >= abs(obs) - 1e-12).sum())
    return (1 + count) / (b + 1), "sampled", b


def _rank_matrix(values: np.ndarray) -> np.ndarray:
    """Ranks of the pooled entries, reshaped back to (buckets x algorithms)."""
    return _rank(values.ravel()).reshape(values.shape)


def _stratified_bootstrap(
    x: np.ndarray,
    y: np.ndarray,
    b: int,
    seed,
):
    """Percentile CIs for (pearson, spearman, r^2) under within-bucket resampling.

    Resamples algorithm indices with replacement inside each bucket and
    recomputes the within-n centered statistics on each replicate, all
    replicates at once.  A replicate whose centered scores are constant in
    either corpus is skipped; with none left the CIs are NaN.
    """
    rng = np.random.default_rng(seed)
    buckets, a = x.shape
    # one draw of b replicates consumes the stream like b draws of one each
    idx = rng.integers(0, a, size=(b, buckets, a))
    xbc, ybc = (
        center_within_n(np.take_along_axis(m[None], idx, axis=2)).reshape(b, buckets * a)
        for m in (x, y)
    )
    keep = (xbc.std(axis=1) != 0) & (ybc.std(axis=1) != 0)
    if not keep.any():
        nan = (float("nan"), float("nan"))
        return {"pearson": nan, "spearman": nan, "r_squared": nan}
    xbc, ybc = xbc[keep], ybc[keep]
    r = _pearson(xbc, ybc)
    rho = _pearson(_rank(xbc), _rank(ybc))

    def ci(vals):
        lo, hi = np.percentile(vals, [2.5, 97.5])
        return (float(lo), float(hi))

    return {"pearson": ci(r), "spearman": ci(rho), "r_squared": ci(r * r)}


@dataclass
class MetricAgreement:
    pearson: float
    spearman: float
    r_squared: float
    p_pearson: float
    p_spearman: float | None = None
    p_mode: str = "sampled"
    n_permutations: int = 0
    ci: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "pearson": self.pearson,
            "spearman": self.spearman,
            "r_squared": self.r_squared,
            "p_pearson": self.p_pearson,
            "p_spearman": self.p_spearman,
            "p_mode": self.p_mode,
            "n_permutations": self.n_permutations,
            "ci": self.ci,
        }


@dataclass
class AgreementStats:
    per_metric: dict  # metric -> MetricAgreement
    average: dict  # {"pearson": ..., "spearman": ..., "r_squared": ...}
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "per_metric": {m: a.to_json() for m, a in self.per_metric.items()},
            "average": self.average,
            "seed": self.seed,
        }

    def format_table(self) -> str:
        lines = [f"{'metric':<8} {'pearson':>8} {'spearman':>9} {'r2':>7} {'p':>12}"]
        for m, a in self.per_metric.items():
            lines.append(
                f"{m:<8} {a.pearson:>8.3f} {a.spearman:>9.3f} {a.r_squared:>7.3f} {a.p_pearson:>12.3e}"
            )
        avg = self.average
        lines.append(
            f"{'average':<8} {avg['pearson']:>8.3f} {avg['spearman']:>9.3f} {avg['r_squared']:>7.3f} {'/':>12}"
        )
        return "\n".join(lines)


def agreement(
    table: ScoreTable,
    b_permutations: int = 10_000,
    b_bootstrap: int = 10_000,
    seed: int | None = 0,
    exhaustive: bool | str = "auto",
    with_bootstrap: bool = True,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
) -> AgreementStats:
    """Centered agreement statistics for every metric plus the averages row.

    ``exhaustive`` may be True, False, or "auto" (exhaustive when the number
    of within-bucket permutation combinations fits under the cap).  R^2 is the
    coefficient of determination of the least-squares fit of centered real
    scores on centered generated scores, which for a simple regression equals
    the squared Pearson correlation.
    """
    table.check_grid()
    if len(table.algorithms) < 2:
        raise TooFewAlgorithms("agreement needs at least two algorithms")
    buckets, a = len(table.ns), len(table.algorithms)
    if exhaustive == "auto":
        exhaustive = math.factorial(a) ** buckets <= exhaustive_cap
    per_metric = {}
    for metric in METRICS:
        x = table.matrix(metric, "generated")
        y = table.matrix(metric, "real")
        xc, yc = center_within_n(x), center_within_n(y)
        xf, yf = xc.ravel(), yc.ravel()
        r = float(_pearson(xf, yf))
        rho = _spearman(xf, yf)
        p_pearson, mode, n_perm = _stratified_permutation_p(
            xc, yc, b_permutations, seed, exhaustive, exhaustive_cap
        )
        # Spearman significance through the same stratified scheme, on pooled
        # ranks (a within-bucket shuffle of scores permutes their ranks in place)
        rx = center_within_n(_rank_matrix(xc))
        ry = center_within_n(_rank_matrix(yc))
        p_spearman, _, _ = _stratified_permutation_p(
            rx, ry, b_permutations, seed, exhaustive, exhaustive_cap
        )
        ci = (
            _stratified_bootstrap(x, y, b_bootstrap, seed)
            if with_bootstrap
            else {}
        )
        per_metric[metric] = MetricAgreement(
            pearson=r,
            spearman=rho,
            r_squared=r * r,
            p_pearson=p_pearson,
            p_spearman=p_spearman,
            p_mode=mode,
            n_permutations=n_perm,
            ci=ci,
        )
    average = {
        key: float(np.mean([getattr(per_metric[m], key) for m in METRICS]))
        for key in ("pearson", "spearman", "r_squared")
    }
    return AgreementStats(per_metric=per_metric, average=average, seed=seed)


def leave_one_out(
    table: ScoreTable,
    drop: str,
    **kwargs,
) -> AgreementStats:
    """Agreement on the grid with one algorithm removed."""
    return agreement(table.drop(drop), **kwargs)


def benjamini_hochberg(pvals: dict) -> dict:
    """BH-corrected p-values (step-up), keyed like the input."""
    keys = list(pvals)
    p = np.array([pvals[k] for k in keys], dtype=float)
    order = np.argsort(p)
    m = len(p)
    adj = np.empty(m)
    prev = 1.0
    for rank_idx in range(m - 1, -1, -1):
        i = order[rank_idx]
        val = min(prev, p[i] * m / (rank_idx + 1))
        adj[i] = val
        prev = val
    return {k: float(adj[i]) for i, k in enumerate(keys)}


@dataclass
class AnovaResult:
    p_value: float
    partial_eta_squared: float
    f_statistic: float
    mode: str
    n_permutations: int


def _anova_f_rows(values: np.ndarray, codes: np.ndarray):
    """One-way ANOVA (F, partial eta^2) of ``values`` for each row of level codes.

    ``codes`` is (rows x len(values)); every row holds the same multiset of
    codes 0..k-1.  Each group is summed in index order and with the same
    operations a scalar loop over the groups uses, so every row gives the
    same floating-point result as a one-row call with that labelling.  F is
    inf when there is an effect but no error term (df1 or df2 zero, or zero
    within-group variance), else 0.
    """
    grand = values.mean()
    counts = np.bincount(codes[0])
    ss_effect = np.zeros(len(codes))
    ss_error = np.zeros(len(codes))
    for lv, size in enumerate(counts):
        grp = values[np.nonzero(codes == lv)[1].reshape(len(codes), size)]
        mean = grp.mean(axis=1)
        # Python's float power, not numpy's array square: the two round
        # differently in about one case in a thousand
        ss_effect += size * ((mean - grand).astype(object) ** 2).astype(float)
        ss_error += ((grp - mean[:, None]) ** 2).sum(axis=1)
    df1, df2 = len(counts) - 1, codes.shape[1] - len(counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (ss_effect / df1) / (ss_error / df2)
        eta = ss_effect / (ss_effect + ss_error)
    no_error = (ss_error == 0) | (df1 == 0) | (df2 == 0)
    f = np.where(no_error, np.where(ss_effect > 0, math.inf, 0.0), f)
    eta = np.where(ss_effect + ss_error > 0, eta, 0.0)
    return f, eta


def _sampled_arrangements(per_stratum: list, b: int, rows: int, rng):
    """Batches of ``b`` random within-stratum label arrangements.

    Draws one permutation per stratum per replicate, in that order.
    """
    for start in range(0, b, rows):
        batch = [np.empty((min(rows, b - start), len(ix)), dtype=np.intp) for ix in per_stratum]
        for r in range(len(batch[0])):
            for perm, ix in zip(batch, per_stratum):
                perm[r] = rng.permutation(len(ix))
        yield batch


def _all_arrangements(per_stratum: list, rows: int):
    """Batches of every within-stratum label arrangement, last stratum fastest."""
    tables = [
        np.array(list(itertools.permutations(range(len(ix)))), dtype=np.intp)
        for ix in per_stratum
    ]
    sizes = [len(t) for t in tables]
    total = math.prod(sizes)
    for start in range(0, total, rows):
        digits = np.unravel_index(np.arange(start, min(start + rows, total)), sizes)
        yield [t[d] for t, d in zip(tables, digits)]


def permutation_anova(
    groups: dict,
    b: int = 10_000,
    seed: int | None = 0,
    exhaustive_cap: int = 200_000,
) -> AnovaResult:
    """Stratified (within-n) permutation ANOVA for one factor.

    ``groups`` maps (n, level) -> array of metric values.  The F statistic is
    the one-way ANOVA F across levels computed on stratum-demeaned values;
    the null distribution shuffles level labels independently within each n
    stratum.  Falls back to exhaustive enumeration when the number of
    distinct within-stratum label arrangements fits under the cap.
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
    if len(np.unique(levels)) < 2:
        raise DegenerateGroups("need at least two factor levels")
    for n in strata:
        if len(np.unique(levels[stratum_of == n])) < 2:
            raise DegenerateGroups(f"stratum n={n} has fewer than two levels")

    # remove stratum means so the factor effect is judged after controlling for n
    resid = values.copy()
    for n in strata:
        mask = stratum_of == n
        resid[mask] -= resid[mask].mean()

    codes = np.unique(levels, return_inverse=True)[1].astype(np.intp)
    f_obs, eta = (float(v[0]) for v in _anova_f_rows(resid, codes[None]))

    per_stratum = [np.flatnonzero(stratum_of == n) for n in strata]
    rows = max(1, _ANOVA_BATCH // len(codes))
    total = math.prod(math.factorial(len(ix)) for ix in per_stratum)
    exhaustive = total <= exhaustive_cap
    if exhaustive:
        batches = _all_arrangements(per_stratum, rows)
    elif seed is None:
        raise ValueError("seed required for sampled permutation mode")
    else:
        batches = _sampled_arrangements(per_stratum, b, rows, np.random.default_rng(seed))
    count = 0
    for perms in batches:
        null_codes = np.empty((len(perms[0]), len(codes)), dtype=np.intp)
        for ix, perm in zip(per_stratum, perms):
            null_codes[:, ix] = codes[ix][perm]
        f_b, _ = _anova_f_rows(resid, null_codes)
        count += int((f_b >= f_obs - 1e-12).sum())
    if exhaustive:
        return AnovaResult(count / total, eta, f_obs, "exhaustive", total)
    return AnovaResult((1 + count) / (b + 1), eta, f_obs, "sampled", b)


@dataclass
class AnovaReport:
    per_parameter: dict  # parameter -> AnovaResult
    corrected_p: dict  # parameter -> BH-adjusted p

    def to_json(self) -> dict:
        return {
            "per_parameter": {
                k: {
                    "p_value": r.p_value,
                    "partial_eta_squared": r.partial_eta_squared,
                    "f_statistic": r.f_statistic,
                    "mode": r.mode,
                }
                for k, r in self.per_parameter.items()
            },
            "corrected_p": self.corrected_p,
        }


def permutation_anova_report(
    per_parameter_groups: dict,
    b: int = 10_000,
    seed: int | None = 0,
) -> AnovaReport:
    """Run the stratified permutation ANOVA per parameter with BH correction."""
    results = {
        param: permutation_anova(groups, b=b, seed=seed)
        for param, groups in per_parameter_groups.items()
    }
    corrected = benjamini_hochberg({k: r.p_value for k, r in results.items()})
    return AnovaReport(per_parameter=results, corrected_p=corrected)


@dataclass
class StabilityReport:
    curves: dict  # n -> {k: mean metric over trials}
    delta: float  # max over n of |M_n(k_hi) - M_n(k_lo)|
    k_lo: int
    k_hi: int
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "curves": {str(n): {str(k): v for k, v in c.items()} for n, c in self.curves.items()},
            "delta": self.delta,
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
            "seed": self.seed,
        }


def stability_curve(
    values_by_n: dict,
    ks=(50, 100, 200, 300, 400, 500),
    r_trials: int = 20,
    seed: int | None = 0,
    delta_ks=(300, 500),
) -> StabilityReport:
    """Subsampling convergence curves M_n(k) and the max |M_n(k_hi) - M_n(k_lo)|.

    For each bucket and each k, averages ``r_trials`` subsample means drawn
    without replacement from that bucket's pool.
    """
    ks = sorted(ks)
    k_lo, k_hi = delta_ks
    rng = np.random.default_rng(seed)
    curves = {}
    for n, pool in values_by_n.items():
        pool = np.asarray(pool, dtype=float)
        if len(pool) < max(ks):
            raise PoolTooSmall(f"bucket n={n} has {len(pool)} samples, needs {max(ks)}")
        curves[n] = {}
        for k in ks:
            means = [
                pool[rng.choice(len(pool), size=k, replace=False)].mean()
                for _ in range(r_trials)
            ]
            curves[n][k] = float(np.mean(means))
    delta = max(abs(curves[n][k_hi] - curves[n][k_lo]) for n in curves)
    return StabilityReport(curves=curves, delta=float(delta), k_lo=k_lo, k_hi=k_hi, seed=seed)
