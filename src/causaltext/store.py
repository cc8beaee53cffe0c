"""Sample persistence: JSONL stores, id indexes, and run manifests."""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field

from .assignment import ConceptAssignment
from .errors import CausaltextError, CorruptLine
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
        # each nested record writes its own form: a spec's "lambda" key, a dag's nested lists
        return {k: v.to_json() if hasattr(v, "to_json") else v for k, v in vars(self).items()}

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


def _records(path: str):
    """``(line number, JSON object)`` for each line of a store.

    An object without a string or integer ``id``, a ``spec`` object with an
    integer ``n`` and a ``dag`` object raises CorruptLine as ``FILE:LINE: ...``.
    So does one whose ``tokens`` is not an object with an integer ``total``
    (an empty object, as a failed sample has, passes), whose
    ``loop_iterations`` is not an integer or null, or whose ``loop_status``
    is not a string or null: the manifest reads them.
    """
    for num, obj in read_jsonl(path):
        spec = obj.get("spec")
        if not (isinstance(obj.get("id"), (str, int)) and isinstance(spec, dict) and type(spec.get("n")) is int
                and isinstance(obj.get("dag"), dict)):
            raise CorruptLine(f"{path}:{num}: not a sample record: it needs an id, a spec with n, and a dag")
        tokens = obj.get("tokens", {})
        if not (isinstance(tokens, dict) and type(tokens.get("total", 0)) is int
                and type(obj.get("loop_iterations")) in (int, type(None))
                and isinstance(obj.get("loop_status"), (str, type(None)))):
            raise CorruptLine(f"{path}:{num}: not a sample record: tokens needs an integer total, "
                              "loop_iterations an integer or null, loop_status a string or null")
        yield num, obj


class SampleStore:
    """Append-only JSON Lines store with an in-memory id index.

    Safe to reopen mid-run: existing ids are loaded so interrupted batch
    jobs can resume without duplicates, and a record cut short by a kill
    is dropped so that it is generated again.  A sample whose last record
    carries an error may be appended again, and its new record supersedes
    the old one; a finished sample may not.  The index is read on first
    use, so a store that is only iterated is read once.
    """

    def __init__(self, path: str):
        self.path = path
        self._index: dict | None = None

    @property
    def _ids(self) -> dict:
        """id -> whether its last record finished (carries no error)."""
        if self._index is None:
            self._index = {obj["id"]: obj.get("error") is None for _, obj in _records(self.path)}
        return self._index

    def __contains__(self, sample_id: str) -> bool:
        return sample_id in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def finished(self, sample_id: str) -> bool:
        return self._ids.get(sample_id, False)

    def append(self, record: SampleRecord) -> None:
        # the index read also drops a torn last line before this write
        if self.finished(record.id):
            raise ValueError(f"duplicate sample id {record.id!r}: it has finished")
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record.to_json()) + "\n")
        self._ids[record.id] = record.error is None

    def __iter__(self):
        for num, obj in _records(self.path):
            try:
                record = SampleRecord.from_json(obj)
            except (CausaltextError, AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CorruptLine(f"{self.path}:{num}: record {obj['id']!r}: {exc}") from None
            yield record


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
        return asdict(self)

    @classmethod
    def from_store(cls, store: SampleStore, config: dict, seed: int) -> "RunManifest":
        """Recompute all aggregate statistics directly from the records."""
        # the stored JSON is enough: a SampleRecord would check each graph again.
        # A retried id counts once, by the fields read of its last record.
        last = {obj["id"]: (obj["spec"]["n"], obj.get("error"), obj.get("loop_status"), obj.get("loop_iterations"),
                            obj.get("tokens")) for _, obj in _records(store.path)}
        per_n: dict = {}
        statuses, iterations, tokens = [], [], []
        errors = 0
        for n, error, status, iters, toks in last.values():
            per_n[n] = per_n.get(n, 0) + 1
            if error is not None:
                errors += 1
                continue
            if status is not None:
                statuses.append(status == "Success")
            if iters is not None:
                iterations.append(iters)
            if toks:
                tokens.append(toks.get("total", 0))
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
