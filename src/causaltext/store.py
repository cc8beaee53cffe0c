"""Sample persistence: JSONL stores, id indexes, and run manifests."""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

from .assignment import ConceptAssignment
from .gateway import read_jsonl
from .graphs import Dag, GraphSpec
from .textgen import Paragraph


@dataclass
class SampleRecord:
    id: str
    spec: GraphSpec
    dag: Dag
    assignment: ConceptAssignment | None = None
    paragraph: Paragraph | None = None
    loop_status: str | None = None
    loop_iterations: int | None = None
    best_l_b: float | None = None
    backends: dict = field(default_factory=dict)
    tokens: dict = field(default_factory=dict)
    error: str | None = None
    created_at: float = field(default_factory=time.time)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "spec": self.spec.to_json(),
            "dag": self.dag.to_json(),
            "assignment": self.assignment.to_json() if self.assignment else None,
            "paragraph": self.paragraph.to_json() if self.paragraph else None,
            "loop_status": self.loop_status,
            "loop_iterations": self.loop_iterations,
            "best_l_b": self.best_l_b,
            "backends": self.backends,
            "tokens": self.tokens,
            "error": self.error,
            "created_at": self.created_at,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SampleRecord":
        return cls(
            id=obj["id"],
            spec=GraphSpec.from_json(obj["spec"]),
            dag=Dag.from_json(obj["dag"]),
            assignment=ConceptAssignment.from_json(obj["assignment"]) if obj.get("assignment") else None,
            paragraph=Paragraph.from_json(obj["paragraph"]) if obj.get("paragraph") else None,
            loop_status=obj.get("loop_status"),
            loop_iterations=obj.get("loop_iterations"),
            best_l_b=obj.get("best_l_b"),
            backends=obj.get("backends", {}),
            tokens=obj.get("tokens", {}),
            error=obj.get("error"),
            created_at=obj.get("created_at", 0.0),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, SampleRecord) and self.to_json() == other.to_json()


class SampleStore:
    """Append-only JSON Lines store with an in-memory id index.

    Safe to reopen mid-run: existing ids are loaded so interrupted batch
    jobs can resume without duplicates, and a record cut short by a kill
    is dropped so that it is generated again.  The index is read on first
    use, so a store that is only iterated is read once.
    """

    def __init__(self, path: str):
        self.path = path
        self._index: set | None = None

    @property
    def _ids(self) -> set:
        if self._index is None:
            self._index = {obj["id"] for obj in read_jsonl(self.path)}
        return self._index

    def __contains__(self, sample_id: str) -> bool:
        return sample_id in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> set:
        return set(self._ids)

    def append(self, record: SampleRecord) -> None:
        # the index read also drops a torn last line before this write
        if record.id in self._ids:
            raise ValueError(f"duplicate sample id {record.id!r}")
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record.to_json()) + "\n")
        self._ids.add(record.id)

    def __iter__(self):
        for obj in read_jsonl(self.path):
            yield SampleRecord.from_json(obj)


@dataclass
class RunManifest:
    config: dict
    seed: int
    per_n_counts: dict = field(default_factory=dict)
    success_rate: float | None = None
    median_iterations: float | None = None
    median_tokens: float | None = None
    total_tokens: int = 0
    errors: int = 0

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "per_n_counts": {str(k): v for k, v in self.per_n_counts.items()},
            "success_rate": self.success_rate,
            "median_iterations": self.median_iterations,
            "median_tokens": self.median_tokens,
            "total_tokens": self.total_tokens,
            "errors": self.errors,
        }

    @classmethod
    def from_store(cls, store: SampleStore, config: dict, seed: int) -> "RunManifest":
        """Recompute all aggregate statistics directly from the records."""
        per_n: dict = {}
        statuses, iterations, tokens = [], [], []
        errors = 0
        for rec in store:
            per_n[rec.spec.n] = per_n.get(rec.spec.n, 0) + 1
            if rec.error is not None:
                errors += 1
                continue
            if rec.loop_status is not None:
                statuses.append(rec.loop_status == "Success")
            if rec.loop_iterations is not None:
                iterations.append(rec.loop_iterations)
            if rec.tokens:
                tokens.append(rec.tokens.get("total", 0))
        return cls(
            config=config,
            seed=seed,
            per_n_counts=per_n,
            success_rate=(sum(statuses) / len(statuses)) if statuses else None,
            median_iterations=statistics.median(iterations) if iterations else None,
            median_tokens=statistics.median(tokens) if tokens else None,
            total_tokens=sum(tokens),
            errors=errors,
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
