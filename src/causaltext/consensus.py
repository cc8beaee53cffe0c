"""Majority-vote consensus graphs, Krippendorff's alpha, and low-agreement flags."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRatings, InsufficientData
from .metrics import SupportGraph, project_dag

DEFAULT_RATERS = 11


def _checked_fields(i, j, rater, label, raters: int) -> tuple[int, int, int, int]:
    """One rating row's i, j, rater_id and label cast with ``int``, or the ValueError that rejects the row."""
    i, j, rater, label = int(i), int(j), int(rater), int(label)
    if not 0 <= rater < raters:
        raise ValueError(f"rater_id {rater} is not a rater id in 0..{raters - 1}")
    if label not in (0, 1):
        raise ValueError(f"label {label} is not 0 or 1")
    if i < 0 or j < 0 or i == j:
        raise ValueError(f"pair ({i}, {j}) needs i != j, both >= 0")
    return i, j, rater, label


@dataclass
class RatingMatrix:
    """Binary edge ratings: items are (text_id, i, j) triples, columns are raters.

    ``ratings[item_index][rater_index]`` is 0, 1, or None for a missing rating.
    """

    items: list  # list of (text_id, i, j)
    ratings: list  # list of per-item rating lists

    def __post_init__(self):
        if len(self.items) != len(self.ratings):
            raise ValueError("items and ratings must align")
        for row in self.ratings:
            for r in row:
                if r not in (0, 1, None):
                    raise ValueError(f"ratings must be 0/1/None, got {r!r}")

    @classmethod
    def from_rows(cls, rows, raters: int = DEFAULT_RATERS) -> "RatingMatrix":
        """Build from (text_id, i, j, rater_id, label) rows, read one at a time.

        i, j, rater_id and label are cast with ``int``.  A row raises
        ``ValueError`` unless its rater id is in 0..raters-1, its label is 0
        or 1, i != j and both indices are >= 0.  A repeated (text_id, i, j,
        rater_id) row overwrites the earlier label.  Items are keyed on the
        cast indices, so ``1``, ``01`` and `` 1`` name one node.

        Each distinct (i, j, rater_id, label) is cast and checked once: a
        panel repeats few of them over many rows.  Only tuples that pass are
        kept, so a bad row raises at its own position with the same message.
        The four fields must be hashable, as the CSV's strings are.
        """
        by_item = defaultdict(lambda: [None] * raters)
        checked = {}  # raw (i, j, rater_id, label) -> their checked ints
        for text_id, i, j, rater, label in rows:
            key = i, j, rater, label
            try:
                i, j, rater, label = checked[key]
            except KeyError:
                i, j, rater, label = checked[key] = _checked_fields(*key, raters)
            by_item[text_id, i, j][rater] = label
        return cls(items=list(by_item), ratings=list(by_item.values()))

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-item yes votes and ratings present, as int arrays in item order; every statistic uses only these."""
        yes = np.array([list(row).count(1) for row in self.ratings], dtype=np.int64)
        present = np.array([len(row) - list(row).count(None) for row in self.ratings], dtype=np.int64)
        return yes, present


def majority_consensus(rm: RatingMatrix) -> dict:
    """Per-text support graphs and majority-vote consensus DAGs.

    The consensus edge is present iff the yes-votes form a strict majority of
    the ratings present for that item (s >= 6/11 with a full panel of 11).
    Cyclic consensus graphs are projected deterministically; the removal log
    is returned alongside each graph.
    """
    if not rm.items:
        raise EmptyRatings("no rated items")
    yes, present = rm.counts()
    share = np.divide(yes, present, out=np.zeros(len(yes)), where=present > 0)
    # projection sees only the consensus edges, with their vote proportions as supports
    kept = np.where(2 * yes > present, share, 0.0)
    sizes: dict = {}
    cells: dict = defaultdict(dict)  # text_id -> {(i, j): index of the last item for the pair}
    for k, (text_id, i, j) in enumerate(rm.items):
        sizes[text_id] = max(sizes.get(text_id, 0), i + 1, j + 1)
        if i != j and i >= 0 and j >= 0:
            cells[text_id][i, j] = k
    out = {}
    for text_id, n in sizes.items():
        support, masked = np.zeros((n, n)), np.zeros((n, n))
        for (i, j), k in cells[text_id].items():
            support[i, j], masked[i, j] = share[k], kept[k]
        dag, removed = project_dag(SupportGraph(n=n, support=masked), threshold=np.nextafter(0.0, 1.0))
        out[text_id] = {"support": SupportGraph(n=n, support=support), "consensus": dag, "removed": removed}
    return out


def krippendorff_alpha(rm: RatingMatrix) -> float:
    """Krippendorff's alpha for nominal binary ratings via coincidence matrices.

    Items with fewer than two ratings are excluded.  If every usable rating
    in the matrix carries the same label, expected disagreement is zero and
    alpha is defined as 1.0.
    """
    yes, present = rm.counts()
    usable = present >= 2
    if not usable.any():
        raise InsufficientData("need at least one item with >= 2 ratings")
    c1 = yes[usable].astype(float)
    c0 = present[usable] - c1
    m1 = present[usable] - 1
    # coincidence counts o[c][k] over value pairs within items, summed in item
    # order: np.cumsum adds sequentially, np.sum pairwise, which rounds differently
    per_item = np.stack([c0 * (c0 - 1) / m1, c0 * c1 / m1, c1 * c0 / m1, c1 * (c1 - 1) / m1], axis=1)
    o = np.cumsum(per_item, axis=0)[-1].reshape(2, 2)
    n_c = o.sum(axis=1)
    n_total = o.sum()
    d_o = o[0, 1] + o[1, 0]
    d_e = 2 * n_c[0] * n_c[1] / (n_total - 1)
    if d_e == 0:
        return 1.0
    return float(1.0 - d_o / d_e)


@dataclass
class AgreementFlags:
    borderline_edges: list  # (text_id, i, j, s) with s in the borderline band
    flagged_texts: list  # text ids whose borderline fraction exceeds the quantile

    def to_json(self) -> dict:
        return {
            "borderline_edges": [
                {"text_id": t, "i": i, "j": j, "support": s}
                for t, i, j, s in self.borderline_edges
            ],
            "flagged_texts": list(self.flagged_texts),
        }


def flag_low_agreement(
    supports: dict,
    raters: int = DEFAULT_RATERS,
    graph_quantile: float = 0.9,
) -> AgreementFlags:
    """Flag borderline edges (s in {5/11, 6/11} for an 11-rater panel).

    The band is the two supports nearest one half; a unanimous support (0
    or 1, as in the band of a panel of one or two) is never borderline.
    ``supports`` maps text_id -> SupportGraph.  A text is flagged when its
    fraction of borderline ordered pairs exceeds the given quantile of that
    fraction across all texts.
    """
    band = np.array([raters // 2, raters // 2 + 1]) / raters
    band = band[(band > 0) & (band < 1)]
    edges = []
    fractions = {}
    for text_id, sg in supports.items():
        hit = (np.abs(sg.support[..., None] - band) < 1e-9).any(axis=-1)
        np.fill_diagonal(hit, False)
        edges += [(text_id, int(i), int(j), float(sg.support[i, j])) for i, j in zip(*np.nonzero(hit))]
        total = sg.n * (sg.n - 1)
        fractions[text_id] = int(hit.sum()) / total if total else 0.0
    cutoff = float(np.quantile(list(fractions.values()), graph_quantile)) if fractions else 0.0
    flagged = [t for t, f in fractions.items() if f > cutoff and f > 0]
    return AgreementFlags(borderline_edges=edges, flagged_texts=flagged)
