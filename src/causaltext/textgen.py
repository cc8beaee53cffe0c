"""Text generation from annotated graphs and graph recovery from text.

Single-shot paragraph generation with a concept-coverage gate, the bounded
extract-diagnose-revise refinement loop, concept extraction for real texts,
and model-based causal discovery whose output matrix is allowed to be
cyclic (projection happens downstream).  Every model-calling function is a
``*_steps`` pipeline for ``Gateway.run_samples``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .assignment import ConceptAssignment, normalize_concept
from .errors import CoverageViolation, ExtractionFailed, MalformedOutput, ShapeMismatch
from .gateway import ask_steps
from .graphs import Dag
from .metrics import decompose_errors, shd

log = logging.getLogger(__name__)


@dataclass
class Paragraph:
    text: str
    source_concepts: ConceptAssignment

    def to_json(self) -> dict:
        return {"text": self.text, "source_concepts": self.source_concepts.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "Paragraph":
        return cls(text=obj["text"], source_concepts=ConceptAssignment.from_json(obj["source_concepts"]))


def concept_in_text(concept: str, text: str) -> bool:
    """Containment after normalization, allowing a plural s/es suffix."""
    return _stem(concept) in normalize_concept(text)


def missing_concepts(concepts, text: str) -> list:
    norm_text = normalize_concept(text)
    return [c for c in concepts if _stem(c) not in norm_text]


def _stem(concept: str) -> str:
    # a text holds the concept, or it with an s/es suffix added or removed, iff it holds this
    norm = normalize_concept(concept)
    return norm[:-2] if norm.endswith("es") else norm.removesuffix("s")


COVERAGE_REASK = (
    "\n\nYour previous paragraph did not mention the following concepts: {missing}. "
    "Rewrite the paragraph so that every concept appears explicitly, and reply in "
    "the same JSON format."
)


def generate_text_steps(dag: Dag, assignment: ConceptAssignment, profile):
    """Pipeline steps of ``generate_text`` (see ``Gateway.run_samples``)."""
    if dag.n < 2:
        raise ValueError("generation requires at least 2 nodes")
    if len(assignment.concepts) != dag.n:
        raise ShapeMismatch(f"{len(assignment.concepts)} concepts for {dag.n} nodes")
    bindings = {"Concepts": assignment.concepts, "Adjacency Matrix": dag.edges}
    text = str((yield from ask_steps(profile, "phase3", bindings)))
    gaps = missing_concepts(assignment.concepts, text)
    if gaps:
        note = COVERAGE_REASK.format(missing=", ".join(repr(c) for c in gaps))
        text = str((yield from ask_steps(profile, "phase3", bindings, note)))
        gaps = missing_concepts(assignment.concepts, text)
        if gaps:
            raise CoverageViolation(f"paragraph still missing concepts: {gaps}")
    return Paragraph(text=text, source_concepts=assignment)


def generate_text(dag: Dag, assignment: ConceptAssignment, gateway, profile, sample_id=None) -> Paragraph:
    """One-shot verbalization of the annotated graph, with a single re-ask
    if the paragraph fails to mention every concept."""
    return gateway.run_sample(generate_text_steps(dag, assignment, profile), sample_id)


def llm_causal_discovery_steps(text: str, concepts, profile):
    """Pipeline steps that infer a directed adjacency matrix over the given concepts from text.

    The result may contain cycles; nonzero diagonal entries are clamped to
    zero with a warning.
    """
    raw = yield from ask_steps(profile, "discovery", {"Text": text, "Important concepts": concepts})
    n = len(concepts)
    try:
        adj = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        adj = None
    if adj is None or np.isnan(adj).any():  # a None entry parses as NaN
        raise MalformedOutput("adjacency matrix is not a numeric array", raw_text=str(raw))
    if adj.shape != (n, n):
        raise ShapeMismatch(f"expected {n}x{n} adjacency, got {adj.shape}")
    if not ((adj == 0) | (adj == 1)).all():
        raise ShapeMismatch("adjacency entries must be 0/1")
    adj = adj.astype(np.int8)
    if np.diagonal(adj).any():
        log.warning("discovery output has nonzero diagonal entries; clamping to zero")
        np.fill_diagonal(adj, 0)
    return adj


REVISION_REQUEST = (
    "\n\nA previous paragraph for this task was:\n{paragraph}\n\n"
    "A reader inferred an incorrect causal structure from it. "
    "Relationships that should be conveyed but were not picked up: {missed}. "
    "Relationships that were wrongly read as direct causes: {spurious}. "
    "Minimally revise the paragraph to fix these problems without introducing "
    "any new concepts, and reply in the same JSON format."
)


def gen_id_refine_steps(dag: Dag, assignment: ConceptAssignment, paragraph: Paragraph, profile, discovery_profile, k_gen: int = 3):
    """Pipeline steps of the extract-diagnose-revise loop, bounded by k_gen revision iterations.

    Mismatch is the Hamming distance between the extracted matrix and the
    target.  Stops at mismatch zero, on non-decrease, or when the budget
    runs out; returns the last paragraph that lowered the mismatch, which is
    the lowest-mismatch paragraph seen.
    Returns (paragraph, revisions_performed, trace).
    """
    if k_gen < 0:
        raise ValueError("k_gen must be >= 0")
    if k_gen == 0:
        return paragraph, 0, []
    bindings = {"Concepts": assignment.concepts, "Adjacency Matrix": dag.edges}

    def name_edges(edges) -> str:
        return ", ".join(f"{assignment.concepts[i]} -> {assignment.concepts[j]}" for i, j in edges) or "(none)"

    trace = []

    def extract(p: Paragraph):
        adj = yield from llm_causal_discovery_steps(p.text, assignment.concepts, discovery_profile)
        trace.append({"mismatch": shd(dag, adj), "adjacency": adj.tolist()})
        return trace[-1]["mismatch"], adj

    current = paragraph
    mismatch, adj = yield from extract(current)
    revisions = 0
    while mismatch > 0 and revisions < k_gen:
        errors = decompose_errors(dag, adj)
        note = REVISION_REQUEST.format(
            paragraph=current.text,
            missed=name_edges(errors.missed),
            spurious=name_edges(errors.spurious),
        )
        reply = yield from ask_steps(profile, "phase3", bindings, note)
        candidate = Paragraph(text=str(reply), source_concepts=assignment)
        revisions += 1
        new_mismatch, new_adj = yield from extract(candidate)
        if new_mismatch >= mismatch:
            break
        current, mismatch, adj = candidate, new_mismatch, new_adj
    return current, revisions, trace


EXTRACTION_REASK = (
    "\n\nYour previous concept list did not satisfy the requirements "
    "({reason}). Reply again with between 3 and 10 distinct concepts, each of "
    "which appears in the text, in the same JSON format."
)


def extract_concepts_steps(text: str, profile):
    """Pipeline steps that pull 3..10 distinct concepts out of a real text.

    Deterministic post-processing: normalize-dedupe, drop concepts absent
    from the text, and re-ask once if the size constraint fails.
    """
    if not text.strip():
        raise ValueError("empty text")

    def clean(raw) -> list:
        if not isinstance(raw, list):
            raise MalformedOutput("concepts is not a list", raw_text=str(raw))
        seen, out = set(), []
        for c in raw:
            c = str(c).strip()
            key = normalize_concept(c)
            if not key or key in seen:
                continue
            if not concept_in_text(c, text):
                continue
            seen.add(key)
            out.append(c)
        return out

    concepts = clean((yield from ask_steps(profile, "extraction", {"Text": text})))
    if not 3 <= len(concepts) <= 10:
        note = EXTRACTION_REASK.format(reason=f"{len(concepts)} usable concepts after filtering")
        concepts = clean((yield from ask_steps(profile, "extraction", {"Text": text}, note)))
        if not 3 <= len(concepts) <= 10:
            raise ExtractionFailed(f"still {len(concepts)} usable concepts after re-ask")
    return concepts
