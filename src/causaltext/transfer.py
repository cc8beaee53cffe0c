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
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DegenerateGroups,
    EnumerationTooLarge,
    IncompleteGrid,
    PoolTooSmall,
    TooFewAlgorithms,
    open_utf8,
)

METRICS = ("f1", "shd", "sid")
CORPORA = ("generated", "real")
# arrangements the exhaustive permutation test may count; they are counted by
# meet in the middle, so the cap bounds enumeration time, and memory grows
# only as the square root of the count
EXHAUSTIVE_CAP = 2_000_000
# arrangements the permutation ANOVA enumerates instead of sampling
ANOVA_EXHAUSTIVE_CAP = 200_000
_ANOVA_BATCH = 1 << 18  # level codes per batch of null ANOVA F statistics


@dataclass
class ScoreTable:
    """Metric values of every (algorithm, n, corpus) cell.

    ``scores`` is a C-contiguous (corpora x metrics x buckets x algorithms)
    float array, in ``CORPORA``, ``METRICS``, ``ns`` and ``algorithms`` order.
    """

    algorithms: list
    ns: list
    scores: np.ndarray

    @classmethod
    def from_csv(cls, path) -> "ScoreTable":
        """Read a score CSV; a bad row raises IncompleteGrid as ``FILE:LINE: ...``.

        LINE is the physical line in the file, blank lines included.  A row
        is bad when a required cell is missing, ``n`` is not an integer, a metric is
        not a finite number, its corpus is unknown, or its (algorithm, n,
        corpus) cell was already given.  A byte that is not UTF-8 raises
        CorruptLine, also as ``FILE:LINE: ...``.  A cell that no row gives
        raises IncompleteGrid as ``FILE: missing cell (alg, n, corpus)``.
        """
        cells = {}
        with open_utf8(path) as fh:
            reader = csv.DictReader(fh)
            required = {"algorithm", "n", "corpus", *METRICS}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise IncompleteGrid(f"{path}:1: score CSV must carry columns {sorted(required)}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if any(row[c] is None for c in required):
                    raise IncompleteGrid(f"{where}: row has fewer cells than the header")
                try:
                    n = int(row["n"])
                except ValueError:
                    raise IncompleteGrid(f"{where}: n must be an integer, got {row['n']!r}") from None
                scores = []
                for m in METRICS:
                    try:
                        scores.append(float(row[m]))
                    except ValueError:
                        scores.append(math.nan)  # reported with nan and inf just below
                    if not math.isfinite(scores[-1]):
                        raise IncompleteGrid(f"{where}: {m} must be a finite number, got {row[m]!r}")
                alg = row["algorithm"].strip()
                corpus = row["corpus"].strip()
                if corpus not in CORPORA:
                    raise IncompleteGrid(f"{where}: unknown corpus {corpus!r}")
                key = (alg, n, corpus)
                if key in cells:
                    raise IncompleteGrid(f"{where}: duplicate cell {key}")
                cells[key] = scores
        algorithms = list(dict.fromkeys(alg for alg, _, _ in cells))
        ns = sorted({n for _, n, _ in cells})
        grid = np.empty((len(CORPORA), len(METRICS), len(ns), len(algorithms)))
        for alg, n, corpus in itertools.product(algorithms, ns, CORPORA):
            if (alg, n, corpus) not in cells:
                raise IncompleteGrid(f"{path}: missing cell {(alg, n, corpus)}")
            grid[CORPORA.index(corpus), :, ns.index(n), algorithms.index(alg)] = cells[(alg, n, corpus)]
        return cls(algorithms=algorithms, ns=ns, scores=grid)

    def matrix(self, metric: str, corpus: str) -> np.ndarray:
        """Scores as an (n-buckets x algorithms) array, a view into ``scores``."""
        return self.scores[CORPORA.index(corpus), METRICS.index(metric)]

    def drop(self, algorithm: str) -> "ScoreTable":
        if algorithm not in self.algorithms:
            raise KeyError(algorithm)
        if len(self.algorithms) < 3:
            raise TooFewAlgorithms("need at least two algorithms after dropping")
        # np.delete copies into a new C-contiguous array
        scores = np.delete(self.scores, self.algorithms.index(algorithm), axis=-1)
        return ScoreTable(algorithms=[a for a in self.algorithms if a != algorithm], ns=list(self.ns), scores=scores)


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
    """1-based ranks along the last axis, tied values sharing their mean rank.

    Each nan is a run of its own (nan != nan), ranked after the numbers of
    its row in index order.
    """
    if values.size == 0:
        return np.empty(values.shape)
    n = values.shape[-1]
    # tied values share one rank, so any order among them does; nans are not
    # tied, and only a stable sort lists them in index order
    order = np.argsort(values, axis=-1, kind="stable" if np.isnan(values).any() else None)
    # flat positions of the sorted rows, row after row
    flat = (order.reshape(-1, n) + np.arange(0, values.size, n)[:, None]).ravel()
    ordered = values.ravel()[flat]
    # sorted positions where a run of equal values starts; every row starts one
    starts = np.empty(values.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    starts[::n] = True
    first = np.flatnonzero(starts)
    lengths = np.diff(first, append=values.size)
    ranks = np.empty(values.size)
    ranks[flat] = np.repeat(first % n + (lengths + 1) / 2, lengths)
    return ranks.reshape(values.shape)


def _spearman_of_ranks(rx: np.ndarray, ry: np.ndarray) -> list:
    """Spearman correlation of each pair of rank rows, as ``scipy.stats.spearmanr`` computes it.

    The rows hold average ranks; each value is ``np.corrcoef`` of the two
    rows, nan where either row is constant.
    """
    return [
        math.nan if (u == u[0]).all() or (v == v[0]).all() else float(np.corrcoef(u, v)[1, 0])
        for u, v in zip(rx, ry)
    ]


def _fold_sums(contribs: np.ndarray) -> np.ndarray:
    """Every sum of one entry from each array; ``[0.0]`` for no arrays."""
    sums = np.zeros(1)
    for c in contribs:
        sums = (sums[:, None] + c[None, :]).ravel()
    return sums


def _stratified_permutation_p(
    xc: np.ndarray,
    yc: np.ndarray,
    b: int,
    seed,
    exhaustive: bool,
):
    """Two-sided permutation p-values for the pooled Pearson correlation of each test.

    ``xc`` and ``yc`` are (tests x buckets x algorithms) stacks whose rows
    each sum to zero (already centered), so within-bucket permutations of
    ``yc`` leave the pooled mean and variance unchanged and each correlation
    statistic reduces to a normalized sum of per-bucket dot products.  All
    tests are counted against the same arrangements, and a test takes the
    p-value a stack of that test alone gives.

    The exhaustive mode counts all a!^buckets arrangements by meet in the
    middle (Horowitz & Sahni, JACM 1974): the first half of the buckets is
    folded into the sums ``left``, the rest into the sorted sums ``right``,
    and the pairs with |l + r| >= |obs| are counted by binary search.  Time
    and memory are O(sqrt(total) log total), not O(total); the caller keeps
    ``total`` under ``EXHAUSTIVE_CAP``.  The sampled mode draws ``b``
    arrangements from ``seed`` once for all tests.

    Returns (p, mode, n_permutations), with a list of one p per test.
    """
    tests, buckets, a = xc.shape
    flat_x, flat_y = xc.reshape(tests, -1), yc.reshape(tests, -1)
    norms = np.sqrt((flat_x**2).sum(axis=1) * (flat_y**2).sum(axis=1))
    if not (norms > 0).all():
        raise DegenerateGroups("zero or undefined variance after centering")
    thresholds = (np.abs((flat_x * flat_y).sum(axis=1)) - 1e-12).tolist()

    if exhaustive:
        total = math.factorial(a) ** buckets
        perms = np.array(list(itertools.permutations(range(a))), dtype=np.intp)
        p = []
        for x, y, threshold in zip(xc, yc, thresholds):
            if threshold <= 0:  # every arrangement counts; the two searches below would overlap
                p.append(1.0)
                continue
            # per-bucket dot contributions for each within-bucket permutation; the
            # permuted rows are made contiguous because a strided BLAS dot can
            # round differently from the dot of two contiguous rows
            contribs = np.vecdot(x[:, None, :], np.ascontiguousarray(y[:, perms]))
            left = _fold_sums(contribs[: buckets // 2])
            right = np.sort(_fold_sums(contribs[buckets // 2 :]))
            # pairs with l + r >= threshold, then pairs with l + r <= -threshold
            count = int(
                (len(right) - np.searchsorted(right, threshold - left, side="left")).sum()
                + np.searchsorted(right, -threshold - left, side="right").sum()
            )
            p.append(count / total)
        return p, "exhaustive", total

    if seed is None:
        raise ValueError("seed required for sampled permutation mode")
    rng = np.random.default_rng(seed)
    idx = np.argsort(rng.random((b, buckets, a)), axis=2)
    p = []
    for x, y, threshold in zip(xc, yc, thresholds):
        y_perm = np.take_along_axis(np.broadcast_to(y, (b, buckets, a)), idx, axis=2)
        dots = np.einsum("ka,bka->b", x, y_perm)
        p.append((1 + int((np.abs(dots) >= threshold).sum())) / (b + 1))
    return p, "sampled", b


def _stratified_bootstrap(
    x: np.ndarray,
    y: np.ndarray,
    b: int,
    seed,
):
    """Percentile CIs for (pearson, spearman, r^2) under within-bucket resampling.

    ``x`` and ``y`` are (pairs x buckets x algorithms) stacks.  Resamples
    algorithm indices with replacement inside each bucket and recomputes the
    within-n centered statistics on each replicate, all replicates at once.
    A replicate whose centered scores are constant in either corpus is
    skipped; with none left the CIs are NaN.  All pairs share one draw of
    indices, and the list holds one dict per pair, each the dict a stack of
    that pair alone gives.
    """
    rng = np.random.default_rng(seed)
    _, buckets, a = x.shape
    # one draw of b replicates consumes the stream like b draws of one each
    idx = rng.integers(0, a, size=(b, buckets, a))
    return [_bootstrap_cis(xm, ym, idx) for xm, ym in zip(x, y)]


def _bootstrap_cis(x: np.ndarray, y: np.ndarray, idx: np.ndarray) -> dict:
    """The CIs of one pair over the replicates that ``idx`` (b x buckets x algorithms) draws."""
    b = len(idx)
    xbc, ybc = (
        center_within_n(np.take_along_axis(m[None], idx, axis=2)).reshape(b, -1)
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
        return asdict(self)


@dataclass
class AgreementStats:
    per_metric: dict  # metric -> MetricAgreement
    average: dict  # {"pearson": ..., "spearman": ..., "r_squared": ...}
    seed: int | None = None

    def to_json(self) -> dict:
        return asdict(self)

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
) -> AgreementStats:
    """Centered agreement statistics for every metric plus the averages row.

    ``exhaustive`` may be True, False, or "auto" (exhaustive when the number
    of within-bucket permutation combinations fits under the cap); True
    above the cap raises EnumerationTooLarge before any statistic.  R^2 is
    the coefficient of determination of the least-squares fit of centered
    real scores on centered generated scores, which for a simple regression
    equals the squared Pearson correlation.

    The three metrics go through one stacked pass over ``table.scores``,
    whose (metrics x buckets x algorithms) block per corpus is centred once,
    with pooled ranks taken once for the point Spearman and its permutation
    test.  The six permutation tests (each metric's scores and its centred
    ranks) share one set of arrangements, and the three bootstraps one draw
    of indices: the draws that re-seeding each test and bootstrap from
    ``seed`` would give.
    """
    algorithms, ns = table.algorithms, table.ns
    if len(algorithms) < 2:
        raise TooFewAlgorithms("agreement needs at least two algorithms")
    total = math.factorial(len(algorithms)) ** len(ns)
    if exhaustive == "auto":
        exhaustive = total <= EXHAUSTIVE_CAP
    elif exhaustive and total > EXHAUSTIVE_CAP:
        raise EnumerationTooLarge(
            f"exhaustive enumeration needs {total} combinations, above cap {EXHAUSTIVE_CAP}"
        )
    x, y = table.scores
    xc, yc = center_within_n(x), center_within_n(y)
    xf, yf = xc.reshape(len(METRICS), -1), yc.reshape(len(METRICS), -1)
    r = _pearson(xf, yf).tolist()
    rx, ry = _rank(xf), _rank(yf)
    rho = _spearman_of_ranks(rx, ry)
    # Spearman significance through the same stratified scheme, on pooled
    # ranks (a within-bucket shuffle of scores permutes their ranks in place)
    tests_x = np.concatenate((xc, center_within_n(rx.reshape(xc.shape))))
    tests_y = np.concatenate((yc, center_within_n(ry.reshape(yc.shape))))
    p, mode, n_perm = _stratified_permutation_p(tests_x, tests_y, b_permutations, seed, exhaustive)
    cis = _stratified_bootstrap(x, y, b_bootstrap, seed) if with_bootstrap else [{} for _ in METRICS]
    per_metric = {
        metric: MetricAgreement(
            pearson=r[k],
            spearman=rho[k],
            r_squared=r[k] * r[k],
            p_pearson=p[k],
            p_spearman=p[len(METRICS) + k],
            p_mode=mode,
            n_permutations=n_perm,
            ci=cis[k],
        )
        for k, metric in enumerate(METRICS)
    }
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

    One stable sort of each row's codes lists every level's columns in index
    order, so each group is a column slice of the sorted values.  numpy
    sorts 8- and 16-bit codes by radix, far faster than ``intp`` ones.
    """
    grand = values.mean()
    counts = np.bincount(codes[0])
    ss_effect = np.zeros(len(codes))
    ss_error = np.zeros(len(codes))
    grouped = values[np.argsort(codes, axis=1, kind="stable")]
    for size, end in zip(counts.tolist(), np.cumsum(counts).tolist()):
        grp = grouped[:, end - size : end]
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


def _sampled_arrangements(codes, per_stratum: list, b: int, rows: int, rng):
    """Batches of ``b`` rows of ``codes``, each shuffled at random within every stratum.

    The draws are those of one ``rng.permutation(len(ix))`` per stratum per
    replicate, replicate by replicate and strata in order, applied to the
    stratum's codes.  ``Generator.permuted(axis=1)`` shuffles row after row
    with the Fisher-Yates routine ``permutation`` uses, whose swaps do not
    depend on what a row holds, so one call per run of consecutive
    equal-size draws takes the same numbers from the stream as that loop
    and gives the same arrangements.  With strata of one size, a batch is
    one run.  The rows are shuffled as ``intp``, on which ``permuted`` is
    fastest, and come out in the type of ``codes``.
    """
    sizes = [len(ix) for ix in per_stratum]
    # the columns of each size's strata, stratum after stratum
    cols = {k: np.concatenate([ix for ix in per_stratum if len(ix) == k]) for k in set(sizes)}
    for start in range(0, b, rows):
        n = min(rows, b - start)
        # per size, one row for each draw of that size, in draw order; each run
        # of consecutive equal-size draws is the next slice of its size's rows
        draws = {k: np.tile(codes[c].astype(np.intp), n).reshape(-1, k) for k, c in cols.items()}
        used = dict.fromkeys(cols, 0)
        edges = (np.flatnonzero(np.diff(np.tile(sizes, n))) + 1).tolist()
        for lo, hi in zip([0, *edges], [*edges, n * len(sizes)]):
            k = sizes[lo % len(sizes)]
            run = draws[k][used[k] : used[k] + hi - lo]
            used[k] += hi - lo
            rng.permuted(run, axis=1, out=run)
        out = np.empty((n, len(codes)), dtype=codes.dtype)
        for k, c in cols.items():
            out[:, c] = draws[k].reshape(n, -1)
        yield out


def _all_arrangements(codes, per_stratum: list, rows: int):
    """Batches of every within-stratum arrangement of ``codes``, last stratum fastest."""
    tables = [
        np.array(list(itertools.permutations(codes[ix].tolist())), dtype=codes.dtype)
        for ix in per_stratum
    ]
    sizes = [len(t) for t in tables]
    total = math.prod(sizes)
    for start in range(0, total, rows):
        digits = np.unravel_index(np.arange(start, min(start + rows, total)), sizes)
        out = np.empty((len(digits[0]), len(codes)), dtype=codes.dtype)
        for ix, t, d in zip(per_stratum, tables, digits):
            out[:, ix] = t[d]
        yield out


def permutation_anova(groups: dict, b: int = 10_000, seed: int | None = 0) -> AnovaResult:
    """Stratified (within-n) permutation ANOVA for one factor.

    ``groups`` maps (n, level) -> array of metric values.  The F statistic is
    the one-way ANOVA F across levels computed on stratum-demeaned values;
    the null distribution shuffles level labels independently within each n
    stratum.  Falls back to exhaustive enumeration when the number of
    distinct within-stratum label arrangements fits under ``ANOVA_EXHAUSTIVE_CAP``.

    In sampled mode, the arrangements are those of a loop that draws
    ``rng.permutation(len(stratum))`` for each stratum in order, replicate by
    replicate, from ``np.random.default_rng(seed)``.  They are drawn in
    batches that take the same numbers from that stream, so the p-value does
    not depend on the batch size.
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

    names, codes = np.unique(levels, return_inverse=True)
    # the smallest unsigned type that holds the codes, so that they sort by radix
    codes = codes.astype(np.min_scalar_type(len(names) - 1))
    f_obs, eta = (float(v[0]) for v in _anova_f_rows(resid, codes[None]))

    per_stratum = [np.flatnonzero(stratum_of == n) for n in strata]
    rows = max(1, _ANOVA_BATCH // len(codes))
    total = math.prod(math.factorial(len(ix)) for ix in per_stratum)
    exhaustive = total <= ANOVA_EXHAUSTIVE_CAP
    if exhaustive:
        batches = _all_arrangements(codes, per_stratum, rows)
    elif seed is None:
        raise ValueError("seed required for sampled permutation mode")
    else:
        batches = _sampled_arrangements(codes, per_stratum, b, rows, np.random.default_rng(seed))
    count = 0
    for null_codes in batches:
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
        return asdict(self)


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
    # curve keys, k_lo, k_hi and seed are Python ints, which JSON writes
    ks = sorted(map(int, ks))
    k_lo, k_hi = map(int, delta_ks)
    for k in (k_lo, k_hi):
        if k not in ks:
            raise ValueError(f"delta_ks value {k} is not one of ks {ks}")
    seed = None if seed is None else int(seed)
    rng = np.random.default_rng(seed)
    curves = {}
    for n, pool in values_by_n.items():
        pool = np.asarray(pool, dtype=float)
        if len(pool) < max(ks):
            raise PoolTooSmall(f"bucket n={n} has {len(pool)} samples, needs {max(ks)}")
        curve = curves[int(n)] = {}
        for k in ks:
            means = [
                pool[rng.choice(len(pool), size=k, replace=False)].mean()
                for _ in range(r_trials)
            ]
            curve[k] = float(np.mean(means))
    delta = max(abs(curves[n][k_hi] - curves[n][k_lo]) for n in curves)
    return StabilityReport(curves=curves, delta=float(delta), k_lo=k_lo, k_hi=k_hi, seed=seed)
