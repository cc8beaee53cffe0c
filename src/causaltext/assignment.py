"""Concept assignment for a target DAG: propose, verify, refine.

The inverse problem: pick real-world concepts for the graph nodes so that
an independent verifier, asked about every ordered pair, supports exactly
the edges the matrix requires.  Verifier judgments are aggregated by
self-consistency voting; disagreement is summarized by the normalized
mismatch L_b and thresholded into a fallacy set that drives refinement.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CacheIoError, MalformedOutput, SchemaViolation, VerificationError
from .gateway import (
    TEMPLATE_SPECS,
    CacheGet,
    CachePut,
    Request,
    ask_steps,
    load_template,
    make_cache_key,
    render_prompt,
)
from .graphs import Dag

DETERMINERS = ("a", "an", "the")


def normalize_concept(s: str) -> str:
    """Lowercase, strip punctuation, drop leading determiners."""
    s = re.sub(r"[^\w\s]", " ", s.lower())
    tokens = s.split()
    while tokens and tokens[0] in DETERMINERS:
        tokens.pop(0)
    return " ".join(tokens)


@dataclass
class ConceptAssignment:
    concepts: list
    domain: str

    def validate(self, n: int) -> None:
        """Raise SchemaViolation on a count other than ``n`` or on concepts that collide after normalization."""
        if len(self.concepts) != n:
            raise SchemaViolation(f"expected {n} concepts, got {len(self.concepts)}")
        seen: dict = {}
        clashes = []
        for idx, c in enumerate(self.concepts):
            key = normalize_concept(c)
            if key in seen:
                clashes.extend([seen[key], idx])
            else:
                seen[key] = idx
        if clashes:
            raise SchemaViolation(
                "overlapping concepts after normalization: "
                + ", ".join(repr(self.concepts[i]) for i in sorted(set(clashes)))
            )

    def to_json(self) -> dict:
        return {"concepts": list(self.concepts), "domain": self.domain}

    @classmethod
    def from_json(cls, obj: dict) -> "ConceptAssignment":
        return cls(concepts=list(obj["concepts"]), domain=obj["domain"])


@dataclass
class RelationSets:
    e_plus: list  # ordered pairs with a required direct edge
    e_minus: list  # ordered pairs that must not be direct causes


def analyze_causal_structure(dag: Dag) -> RelationSets:
    """Partition ordered non-diagonal pairs into required edges and non-edges."""
    e_plus, e_minus = [], []
    for i, row in enumerate(dag.edges.tolist()):
        for j, edge in enumerate(row):
            if i != j:
                (e_plus if edge else e_minus).append((i, j))
    return RelationSets(e_plus=e_plus, e_minus=e_minus)


@dataclass
class VoteTable:
    s: dict  # (i, j) -> vote proportion
    m: int
    votes: dict = field(default_factory=dict)  # (i, j) -> raw 0/1 votes

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "s": {f"{i},{j}": v for (i, j), v in self.s.items()},
            "votes": {f"{i},{j}": list(v) for (i, j), v in self.votes.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VoteTable":
        return cls(
            m=int(obj["m"]),
            s={_pair_of_key(k): float(v) for k, v in obj["s"].items()},
            votes={_pair_of_key(k): list(v) for k, v in obj.get("votes", {}).items()},
        )


@lru_cache(maxsize=4096)
def _pair_of_key(key: str) -> tuple:
    """``"i,j"`` -> ``(i, j)``; a key that does not parse raises, and is not remembered."""
    i, j = key.split(",")
    return (int(i), int(j))


@dataclass
class FallacySet:
    missed: list
    spurious: list
    tau: float

    def empty(self) -> bool:
        return not self.missed and not self.spurious

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class MismatchReport:
    l_b: float
    l_b_miss: float
    l_b_spur: float
    alpha: float

    def to_json(self) -> dict:
        return asdict(self)


def _parse_node_entries(entries, n: int) -> list:
    """Turn ["Node 0: X", ...] into an index-ordered concept list."""
    if not isinstance(entries, list):
        raise MalformedOutput("concept entries are not a list", raw_text=str(entries))
    found = {}
    for entry in entries:
        m = re.match(r"\s*Node\s+(\d+)\s*:\s*(.+?)\s*$", str(entry))
        if not m:
            raise MalformedOutput(f"cannot parse concept entry {entry!r}", raw_text=str(entries))
        found[int(m.group(1))] = m.group(2)
    if sorted(found) != list(range(n)):
        raise MalformedOutput(
            f"expected concepts for nodes 0..{n - 1}, got {sorted(found)}", raw_text=str(entries)
        )
    return [found[i] for i in range(n)]


(ASSIGNMENT_KEY,) = TEMPLATE_SPECS["phase2"][1]

REVISION_NOTE = (
    "\n\nThe following concepts in your previous assignment were duplicates or "
    "near-duplicates after normalization: {offenders}. Replace ONLY those concepts "
    "with semantically distinct alternatives from the same domain, keeping every "
    "other concept exactly as it was, and reply in the same JSON format."
)


# Each stage of a sample's pipeline is a generator of requests, ``X_steps``
# (see ``Gateway.run_samples``); ``X`` runs it for one sample through the
# gateway.


def _assign_steps(profile, template, bindings, domain, n):
    """Ask for an assignment; one minimal-revision re-ask on overlap, still overlapping -> error."""

    def request(note=""):
        entries = yield from ask_steps(profile, template, bindings, note)
        return ConceptAssignment(concepts=_parse_node_entries(entries, n), domain=domain)

    ca = yield from request()
    try:
        ca.validate(n)
        return ca
    except SchemaViolation as exc:
        revised = yield from request(REVISION_NOTE.format(offenders=str(exc)))
        revised.validate(n)
        return revised


def initial_assignment_steps(dag: Dag, domain: str, profile):
    bindings = {"Matrix": dag.edges, "N": dag.n, "domain/series of events": domain}
    return (yield from _assign_steps(profile, "phase2", bindings, domain, dag.n))


def initial_assignment(dag: Dag, domain: str, gateway, profile, sample_id=None) -> ConceptAssignment:
    return gateway.run_sample(initial_assignment_steps(dag, domain, profile), sample_id)


def counterfactual_verification_steps(
    assignment: ConceptAssignment, relations: RelationSets, dag: Dag, profile, m: int = 5
):
    key = make_cache_key(assignment.concepts, dag.edges, profile.model_id, "verify", m)
    table = yield CacheGet(key)
    if table is not None:
        return _cached_votes(table, relations, key, m)
    votes = yield from _vote_steps(assignment.concepts, relations, profile, m)
    yield CachePut(key, votes.to_json())
    return votes


def _cached_votes(table, relations: RelationSets, key: str, m: int) -> VoteTable:
    """The vote table cached under ``key``; a value that is not a table of m
    votes' proportions over exactly the graph's ordered pairs is a CacheIoError."""
    pairs = set(relations.e_plus + relations.e_minus)
    try:
        votes = VoteTable.from_json(table)
    except (AttributeError, KeyError, TypeError, ValueError):
        votes = None
    if votes is None or votes.m != m or votes.s.keys() != pairs or not all(0 <= v <= 1 for v in votes.s.values()):
        raise CacheIoError(f"cached value {key} is not a vote table over the graph's {len(pairs)} ordered pairs")
    return votes


def _vote_steps(concepts, relations: RelationSets, profile, m: int):
    template = load_template("verify")
    (reply_key,) = template.expected_json_keys
    required = min(3, m)
    pairs = relations.e_plus + relations.e_minus
    batch = []
    for (i, j) in pairs:
        bindings = {"Concepts": concepts, "Cause": concepts[i], "Effect": concepts[j]}
        batch += [Request(profile, render_prompt(template, bindings), template.expected_json_keys, "verify")] * m
    yield batch
    s, votes = {}, {}
    for (i, j) in pairs:
        pair_votes = []
        for reply in (yield m):
            if isinstance(reply, MalformedOutput):
                continue  # abstention
            verdict = str(reply[reply_key]).strip().lower()
            if verdict in ("yes", "no"):
                pair_votes.append(1 if verdict == "yes" else 0)
        if len(pair_votes) < required:
            raise VerificationError(f"pair ({i},{j}): only {len(pair_votes)} of {m} completions parsed")
        s[(i, j)] = sum(pair_votes) / len(pair_votes)
        votes[(i, j)] = pair_votes
    return VoteTable(s=s, m=m, votes=votes)


def counterfactual_verification(
    assignment: ConceptAssignment,
    relations: RelationSets,
    dag: Dag,
    gateway,
    profile,
    m: int = 5,
    sample_id=None,
) -> VoteTable:
    """Vote proportions s_ij from m independent verifier completions per pair.

    The whole table is cached under (assignment, adjacency, verifier model,
    template, m), so re-verifying an unchanged assignment costs zero calls,
    and tables at several m sit side by side.
    A completion that stays unparseable after the re-ask budget abstains;
    at least min(3, m) parsed completions are required per pair.  Each
    pair's prompt is rendered once, and all pair x vote requests form one
    batch, so a backend that can overlap requests gets several at once.
    """
    steps = counterfactual_verification_steps(assignment, relations, dag, profile, m)
    return gateway.run_sample(steps, sample_id)


def quantify_mismatch(votes: VoteTable, relations: RelationSets, alpha: float = 1.0) -> MismatchReport:
    """L_b = mean(1 - s) over required edges + alpha * mean(s) over non-edges.

    An empty relation class contributes 0 by convention.
    """
    miss = _mean([1.0 - votes.s[p] for p in relations.e_plus]) if relations.e_plus else 0.0
    spur = alpha * _mean([votes.s[p] for p in relations.e_minus]) if relations.e_minus else 0.0
    return MismatchReport(l_b=miss + spur, l_b_miss=miss, l_b_spur=spur, alpha=alpha)


def _mean(vals: list) -> float:
    # np.mean's bits without its overhead: numpy's pairwise sum (8 or more values
    # are not summed left to right, so neither sum nor math.fsum would do), then one division
    return float(np.add.reduce(np.asarray(vals, dtype=float)) / len(vals))


def fallacy_analysis(votes: VoteTable, relations: RelationSets, tau: float = 0.6) -> FallacySet:
    """Threshold votes into hard fallacies; s equal to tau counts as supported."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau!r}")
    missed = [p for p in relations.e_plus if votes.s[p] < tau]
    spurious = [p for p in relations.e_minus if votes.s[p] >= tau]
    return FallacySet(missed=missed, spurious=spurious, tau=tau)


def refine_assignment_steps(assignment: ConceptAssignment, fallacies: FallacySet, dag: Dag, profile):
    if fallacies.empty():
        raise ValueError("refine_assignment requires a nonempty fallacy set")

    def pairs(ps):
        if not ps:
            return "(none)"
        return "\n".join(
            f"{assignment.concepts[i]} -> {assignment.concepts[j]} (Node {i} -> Node {j})" for i, j in ps
        )

    bindings = {
        "Assignment": [f"Node {i}: {c}" for i, c in enumerate(assignment.concepts)],
        "Matrix": dag.edges,
        "Missed": pairs(fallacies.missed),
        "Spurious": pairs(fallacies.spurious),
    }
    return (yield from _assign_steps(profile, "refine", bindings, assignment.domain, dag.n))


def refine_assignment(
    assignment: ConceptAssignment,
    fallacies: FallacySet,
    dag: Dag,
    gateway,
    profile,
    sample_id=None,
) -> ConceptAssignment:
    return gateway.run_sample(refine_assignment_steps(assignment, fallacies, dag, profile), sample_id)


@dataclass
class LoopConfig:
    m: int = 5
    tau: float = 0.6
    alpha: float = 1.0
    k_max: int = 10

    def __post_init__(self):
        # written so that a NaN fails every comparison and is rejected
        if not (self.m >= 1 and 0 < self.tau <= 1 and 0 <= self.alpha < float("inf") and self.k_max >= 1):
            raise ValueError(f"loop settings need m >= 1, 0 < tau <= 1, 0 <= alpha < inf, k_max >= 1: {self}")


@dataclass
class LoopResult:
    status: str  # "Success" | "Fail"
    assignment: ConceptAssignment
    iterations: int
    best_l_b: float
    trace: list  # per-iteration {"votes", "fallacies", "mismatch"}

    def to_json(self) -> dict:
        # not asdict, which would write a VoteTable's (i, j) keys as they are
        return {**vars(self), "assignment": self.assignment.to_json(),
                "trace": [{k: v.to_json() for k, v in t.items()} for t in self.trace]}


def run_loop_steps(
    dag: Dag,
    domain: str,
    proposer_profile,
    verifier_profile,
    config: LoopConfig | None = None,
):
    """Pipeline steps of ``run_loop``."""
    config = config or LoopConfig()
    relations = analyze_causal_structure(dag)
    current = yield from initial_assignment_steps(dag, domain, proposer_profile)
    best_l_b = float("inf")
    best = current
    trace = []
    for t in range(1, config.k_max + 1):
        votes = yield from counterfactual_verification_steps(
            current, relations, dag, verifier_profile, m=config.m
        )
        mismatch = quantify_mismatch(votes, relations, alpha=config.alpha)
        fallacies = fallacy_analysis(votes, relations, tau=config.tau)
        trace.append({"votes": votes, "fallacies": fallacies, "mismatch": mismatch})
        if mismatch.l_b < best_l_b:
            best_l_b = mismatch.l_b
            best = current
        if fallacies.empty():
            return LoopResult(
                status="Success", assignment=current, iterations=t,
                best_l_b=best_l_b, trace=trace,
            )
        if t < config.k_max:
            current = yield from refine_assignment_steps(current, fallacies, dag, proposer_profile)
    return LoopResult(
        status="Fail", assignment=best, iterations=config.k_max,
        best_l_b=best_l_b, trace=trace,
    )


def run_loop(
    dag: Dag,
    domain: str,
    gateway,
    proposer_profile,
    verifier_profile,
    config: LoopConfig | None = None,
    sample_id=None,
) -> LoopResult:
    """Verify, score, and refine up to k_max iterations.

    Returns immediately with Success when a verification pass yields an
    empty fallacy set; otherwise returns the best-so-far assignment (the
    earliest iterate attaining the minimum L_b, since updates use a strict
    improvement test).
    """
    steps = run_loop_steps(dag, domain, proposer_profile, verifier_profile, config)
    return gateway.run_sample(steps, sample_id)
