"""Sample persistence: JSONL stores, id indexes, and run manifests."""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .assignment import ConceptAssignment
from .errors import CausaltextError, CorruptLine, InvalidSpec
from .gateway import read_jsonl
from .graphs import Dag, GraphSpec
from .textgen import Paragraph


def _nested(obj: dict, key: str, kind):
    """``kind.from_json(obj[key])``; a value it cannot load raises ValueError naming ``key``."""
    try:
        return kind.from_json(obj[key])
    except (CausaltextError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {type(exc).__name__}: {exc}") from None


@dataclass
class SampleRecord:
    _ID_TYPES = (str, int)  # not a field: the types an id may have; a bool is not an id

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

    def __post_init__(self):
        # the one place a record's rules live, for graph files and store lines alike; each error names its field
        if type(self.id) not in self._ID_TYPES:
            raise TypeError(f"id must be a string or an integer, got {self.id!r}")
        try:
            self.spec.validate()
        except InvalidSpec as exc:
            raise InvalidSpec(f"spec: {exc}") from None
        if self.dag.n != self.spec.n:
            raise ValueError(f"dag has {self.dag.n} nodes, spec says {self.spec.n}")
        if not (isinstance(self.tokens, dict) and type(self.tokens.get("total", 0)) is int):
            raise TypeError(f"tokens must be an object with an integer total, got {self.tokens!r}")
        for name, kind in (("loop_iterations", int), ("loop_status", str)):
            if type(getattr(self, name)) not in (kind, type(None)):
                raise TypeError(f"{name} must be {kind.__name__} or null, got {getattr(self, name)!r}")

    def to_json(self) -> dict:
        # each nested record writes its own form: a spec's "lambda" key, a dag's nested lists
        return {k: v.to_json() if hasattr(v, "to_json") else v for k, v in vars(self).items()}

    @classmethod
    def from_json(cls, obj: dict) -> "SampleRecord":
        """The record a store line holds; a broken field raises ValueError as ``record 'ID': KEY ...``."""
        try:
            return cls(
                id=obj.get("id"),
                spec=_nested(obj, "spec", GraphSpec),
                dag=_nested(obj, "dag", Dag),
                assignment=_nested(obj, "assignment", ConceptAssignment) if obj.get("assignment") else None,
                paragraph=_nested(obj, "paragraph", Paragraph) if obj.get("paragraph") else None,
                loop_status=obj.get("loop_status"),
                loop_iterations=obj.get("loop_iterations"),
                best_l_b=obj.get("best_l_b"),
                backends=obj.get("backends", {}),
                tokens=obj.get("tokens", {}),
                error=obj.get("error"),
                created_at=obj.get("created_at", 0.0),
            )
        except (CausaltextError, TypeError, ValueError) as exc:
            where = f"record {obj['id']!r}" if type(obj.get("id")) in cls._ID_TYPES else "not a sample record"
            raise ValueError(f"{where}: {exc}") from None


class _Entry(NamedTuple):
    """What the index keeps of an id's last record: its check and its manifest counts."""

    finished: bool  # carries no error
    n: int
    loop_status: str | None
    loop_iterations: int | None
    tokens: int | None  # the tokens total; None when the record has no tokens

    @classmethod
    def of(cls, rec: SampleRecord) -> "_Entry":
        tokens = rec.tokens.get("total", 0) if rec.tokens else None
        return cls(rec.error is None, rec.spec.n, rec.loop_status, rec.loop_iterations, tokens)


class SampleStore:
    """Append-only JSON Lines store with an in-memory id index.

    Safe to reopen mid-run: existing ids are loaded so interrupted batch
    jobs can resume without duplicates, and a record cut short by a kill
    is dropped so that it is generated again.  A sample whose last record
    carries an error may be appended again, and its new record supersedes
    the old one; a finished sample may not.  The index is read on first
    use, so a store that is only iterated is read once; it keeps a few
    fields of each id's last record, never the record.
    """

    def __init__(self, path: str):
        self.path = path
        self._index: dict | None = None

    @property
    def _ids(self) -> dict:
        """id -> the ``_Entry`` of its last record, in the order the ids first appear."""
        if self._index is None:
            self._index = {rec.id: _Entry.of(rec) for rec in self}
        return self._index

    def __contains__(self, sample_id: str) -> bool:
        return sample_id in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def finished(self, sample_id: str) -> bool:
        entry = self._ids.get(sample_id)
        return entry is not None and entry.finished

    def append(self, record: SampleRecord) -> None:
        # the index read also drops a torn last line before this write
        if self.finished(record.id):
            raise ValueError(f"duplicate sample id {record.id!r}: it has finished")
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record.to_json()) + "\n")
        self._ids[record.id] = _Entry.of(record)

    def __iter__(self):
        for num, obj in read_jsonl(self.path):
            try:
                record = SampleRecord.from_json(obj)
            except ValueError as exc:
                raise CorruptLine(f"{self.path}:{num}: {exc}") from None
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
        """Aggregate statistics counted from the store's index: the records
        this store object has read and appended, a retried id once, by its
        last record.  A store whose index is not yet read is read once here."""
        last = store._ids.values()
        done = [e for e in last if e.finished]
        statuses = [e.loop_status == "Success" for e in done if e.loop_status is not None]
        iterations = [e.loop_iterations for e in done if e.loop_iterations is not None]
        tokens = [e.tokens for e in done if e.tokens is not None]
        return cls(
            config=config,
            seed=seed,
            per_n_counts=dict(Counter(e.n for e in last)),
            success_rate=(sum(statuses) / len(statuses)) if statuses else None,
            median_iterations=statistics.median(iterations) if iterations else None,
            median_tokens=statistics.median(tokens) if tokens else None,
            total_tokens=sum(tokens),
            errors=len(last) - len(done),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
