"""Provider-agnostic chat-completion access.

Covers prompt-template rendering, the uniform request payload, transport
retries with exponential backoff, strict-JSON extraction with a bounded
re-ask budget, response caching, token accounting, and two mock backends
(a scriptable one for unit tests and an oracle that answers consistently
with the adjacency matrix it saw in the proposal prompt).
"""

from __future__ import annotations

import hashlib
import importlib.resources
import itertools
import json
import logging
import os
import random
import re
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    AuthError,
    BudgetExceeded,
    CacheIoError,
    MalformedOutput,
    TransportError,
    UnboundPlaceholder,
)

log = logging.getLogger(__name__)

SYSTEM_MESSAGE = "You are a helpful assistant. Follow the user's instructions exactly."

# decoding defaults per role: (temperature, top_p, max_tokens)
ROLE_DEFAULTS = {
    "proposer": (0.3, 0.95, 5000),
    "verifier": (0.2, 1.00, 5000),
    "phase3": (0.7, 0.95, 5000),
    "discovery": (0.0, 1.00, 5000),
}

# template name -> (declared placeholders, required top-level JSON keys)
TEMPLATE_SPECS = {
    "phase2": (["Matrix", "N", "domain/series of events"], ["Real concepts assigned to variables"]),
    "phase3": (["Concepts", "Adjacency Matrix"], ["Natural language description"]),
    "discovery": (["Text", "Important concepts"], ["adjacency matrix"]),
    "extraction": (["Text"], ["concepts"]),
    "verify": (["Concepts", "Cause", "Effect"], ["direct cause"]),
    "refine": (["Assignment", "Matrix", "Missed", "Spurious"], ["Real concepts assigned to variables"]),
}


@dataclass(frozen=True)
class BackendProfile:
    model_id: str
    role: str
    temperature: float
    top_p: float
    max_tokens: int
    endpoint: str = ""
    credential_env: str = ""

    @classmethod
    def for_role(cls, model_id: str, role: str, endpoint: str = "", credential_env: str = "", **overrides):
        if role not in ROLE_DEFAULTS:
            raise ValueError(f"unknown role {role!r}")
        temperature, top_p, max_tokens = ROLE_DEFAULTS[role]
        params = {"temperature": temperature, "top_p": top_p, "max_tokens": max_tokens}
        params.update(overrides)
        return cls(model_id=model_id, role=role, endpoint=endpoint, credential_env=credential_env, **params)


@dataclass
class PromptTemplate:
    name: str
    body: str
    placeholders: list
    expected_json_keys: list


def load_template(name: str) -> PromptTemplate:
    if name not in TEMPLATE_SPECS:
        raise KeyError(f"unknown template {name!r}")
    body = (
        importlib.resources.files("causaltext").joinpath(f"templates/{name}.txt").read_text(encoding="utf-8")
    )
    placeholders, keys = TEMPLATE_SPECS[name]
    return PromptTemplate(name=name, body=body, placeholders=list(placeholders), expected_json_keys=list(keys))


def format_matrix(adj) -> str:
    """Rows of 0/1 digits separated by newlines (the prompt-side serialization)."""
    a = np.asarray(adj, dtype=int)
    return "\n".join("".join(str(int(v)) for v in row) for row in a)


def _serialize_binding(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    arr = np.asarray(value, dtype=object)
    if arr.ndim == 2:
        return format_matrix(value)
    if arr.ndim == 1:
        return ", ".join(str(v) for v in value)
    return str(value)


def render_prompt(template: PromptTemplate, bindings: dict) -> str:
    """Fill every declared placeholder; any left unbound is an error.

    Only declared placeholders are treated as substitution targets, so
    literal bracketed phrases inside the template prose (e.g. the
    counterfactual paradigm's "[variable A]") survive untouched.
    """
    text = template.body
    for name in template.placeholders:
        if name not in bindings:
            raise UnboundPlaceholder(name)
        text = text.replace(f"[{name}]", _serialize_binding(bindings[name]))
    return text


def build_payload(profile: BackendProfile, prompt: str) -> dict:
    return {
        "model": profile.model_id,
        "temperature": profile.temperature,
        "top_p": profile.top_p,
        "max_tokens": profile.max_tokens,
        "messages": [
            {"role": "system", "content": SYSTEM_MESSAGE},
            {"role": "user", "content": prompt},
        ],
    }


class UsageLedger:
    """Running token and call counts, per sample and overall."""

    def __init__(self):
        self._per_sample: dict = {}
        self._totals = {"input": 0, "output": 0, "total": 0, "calls": 0}

    def record(self, sample_id, input_tokens: int, output_tokens: int) -> None:
        ti, to = int(input_tokens), int(output_tokens)
        acc = self._per_sample.setdefault(sample_id, dict.fromkeys(self._totals, 0))
        for counts in (acc, self._totals):
            counts["input"] += ti
            counts["output"] += to
            counts["total"] += ti + to
            counts["calls"] += 1

    def per_sample(self) -> dict:
        return {sid: dict(counts) for sid, counts in self._per_sample.items()}

    def sample(self, sample_id) -> dict:
        """One sample's counts as a fresh dict, zeros if it made no call."""
        return dict(self._per_sample.get(sample_id) or dict.fromkeys(self._totals, 0))

    def totals(self) -> dict:
        return dict(self._totals)


def _approx_tokens(text: str) -> int:
    return len(text.split())


class HttpBackend:
    """Chat-completion client over an OpenAI-style HTTP endpoint.

    Transient failures (connection errors, HTTP 429 and 5xx) are retried
    with jittered exponential backoff starting at ``backoff`` seconds.
    """

    def __init__(self, endpoint: str, credential_env: str, retries: int = 3, backoff: float = 1.0, timeout: float = 120.0):
        self.endpoint = endpoint
        self.credential_env = credential_env
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout

    def complete(self, payload: dict, meta: dict | None = None):
        import requests

        key = os.environ.get(self.credential_env)
        if not key:
            raise AuthError(f"no credential in ${self.credential_env}")
        headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        last_err = None
        for attempt in range(self.retries + 1):
            if attempt:
                delay = self.backoff * (2 ** (attempt - 1)) * (1 + random.random() * 0.25)
                time.sleep(delay)
            try:
                resp = requests.post(self.endpoint, json=payload, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                last_err = exc
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last_err = RuntimeError(f"HTTP {resp.status_code}")
                continue
            if resp.status_code in (401, 403):
                raise AuthError(f"HTTP {resp.status_code} from {self.endpoint}")
            if resp.status_code != 200:
                raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            try:
                body = resp.json()
                text = body["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise MalformedOutput(f"malformed response body: {exc!r}", raw_text=resp.text[:200])
            usage = body.get("usage", {})
            return text, {
                "input_tokens": usage.get("prompt_tokens", _approx_tokens(payload["messages"][1]["content"])),
                "output_tokens": usage.get("completion_tokens", _approx_tokens(text)),
            }
        raise TransportError(f"request failed after {self.retries} retries: {last_err}")


class ScriptedMockBackend:
    """Deterministic offline backend driven by a rule list or a reply queue.

    Rules are dicts with optional ``template`` (exact template-name match)
    and ``contains`` (prompt substring match), a ``reply`` (string or JSON
    value), and an optional ``times`` use count (default unlimited).
    A plain list of replies acts as a consume-in-order queue.
    """

    def __init__(self, script):
        self.calls = []
        if isinstance(script, dict) and "rules" in script:
            self.rules = [dict(r) for r in script["rules"]]
            self.queue = None
        elif isinstance(script, list):
            self.rules = []
            self.queue = list(script)
        else:
            raise ValueError("script must be {'rules': [...]} or a reply list")

    @staticmethod
    def _as_text(reply) -> str:
        return reply if isinstance(reply, str) else json.dumps(reply)

    def complete(self, payload: dict, meta: dict | None = None):
        meta = meta or {}
        prompt = payload["messages"][1]["content"]
        self.calls.append({"template": meta.get("template"), "prompt": prompt})
        if self.queue is not None:
            if not self.queue:
                raise TransportError("mock reply queue exhausted")
            text = self._as_text(self.queue.pop(0))
        else:
            for rule in self.rules:
                if rule.get("times", None) == 0:
                    continue
                if "template" in rule and rule["template"] != meta.get("template"):
                    continue
                if "contains" in rule and rule["contains"] not in prompt:
                    continue
                if "times" in rule:
                    rule["times"] -= 1
                text = self._as_text(rule["reply"])
                break
            else:
                raise TransportError(f"no mock rule matches template={meta.get('template')!r}")
        return text, {"input_tokens": _approx_tokens(prompt), "output_tokens": _approx_tokens(text)}


class OracleMockBackend:
    """Offline backend that plays the whole pipeline perfectly.

    It parses the adjacency matrix out of the proposal prompt, hands back
    concept names that encode node indices, answers verifier queries from
    the stored matrix, writes a paragraph containing every concept, and
    reproduces the stored matrix for discovery calls.  State is per
    proposal, so samples must be processed sequentially.
    """

    def __init__(self):
        self.calls = []
        self.matrix: list | None = None
        self.concepts: list | None = None

    @staticmethod
    def _parse_matrix(prompt: str):
        lines = prompt.splitlines()
        for k, line in enumerate(lines):
            if line.strip() in ("Adjacency Matrix:", "Adjacency matrix between concepts:"):
                rows = []
                for row in lines[k + 1:]:
                    row = row.strip()
                    if not row or not set(row) <= {"0", "1"}:
                        break
                    rows.append([int(ch) for ch in row])
                return rows
        return None

    def _index_of(self, concept: str) -> int:
        return self.concepts.index(concept.strip())

    def complete(self, payload: dict, meta: dict | None = None):
        meta = meta or {}
        prompt = payload["messages"][1]["content"]
        template = meta.get("template")
        self.calls.append({"template": template})
        reply = self._answer(template, prompt)
        text = json.dumps(reply)
        return text, {"input_tokens": _approx_tokens(prompt), "output_tokens": _approx_tokens(text)}

    def _answer(self, template, prompt):
        if template == "phase2":
            self.matrix = self._parse_matrix(prompt)
            n = len(self.matrix)
            self.concepts = [f"Factor {i}" for i in range(n)]
            exist = [f"Node {i} -> Node {j}" for i in range(n) for j in range(n) if self.matrix[i][j]]
            absent = [
                f"Node {i} -> Node {j}"
                for i in range(n)
                for j in range(n)
                if i != j and not self.matrix[i][j]
            ]
            return {
                "Existing causal relationships (values of 1 in the matrix)": exist,
                "Non-existing causal relationships (values of 0 in the matrix)": absent,
                "Real concepts assigned to variables": [
                    f"Node {i}: {c}" for i, c in enumerate(self.concepts)
                ],
                "Relationship verification": {
                    "Existing causal relationships": ["verified" for _ in exist],
                    "Non-existing causal relationships": ["verified" for _ in absent],
                },
            }
        if template == "verify":
            cause = re.search(r"Cause candidate: (.+)", prompt).group(1)
            effect = re.search(r"Effect candidate: (.+)", prompt).group(1)
            i, j = self._index_of(cause), self._index_of(effect)
            return {"direct cause": "yes" if self.matrix[i][j] else "no"}
        if template == "phase3":
            concepts_line = prompt.splitlines()[1]
            concepts = [c.strip() for c in concepts_line.split(",")]
            return {
                "Natural language description": "The situation unfolds through "
                + "; then ".join(concepts)
                + "."
            }
        if template == "discovery":
            return {"adjacency matrix": self.matrix}
        if template == "extraction":
            return {"concepts": list(self.concepts or [])}
        if template == "refine":
            return {
                "Real concepts assigned to variables": [
                    f"Node {i}: {c}" for i, c in enumerate(self.concepts or [])
                ]
            }
        raise TransportError(f"oracle mock cannot answer template {template!r}")


def make_mock_backend(script):
    """Build a mock backend from a CLI-style script value.

    ``{"mode": "oracle"}`` gives the perfect oracle; anything else is fed
    to :class:`ScriptedMockBackend`.
    """
    if isinstance(script, dict) and script.get("mode") == "oracle":
        return OracleMockBackend()
    return ScriptedMockBackend(script)


def make_cache_key(concepts, adjacency, backend_id: str, template_name: str) -> str:
    """Digest of (concept assignment, adjacency matrix, verifier backend, template)."""
    blob = json.dumps(
        {
            "concepts": list(concepts),
            "adjacency": np.asarray(adjacency, dtype=int).tolist(),
            "backend": backend_id,
            "template": template_name,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def read_jsonl(path: str):
    """Stream the JSON value of each line of a JSON Lines file, if it exists.

    Every complete line must parse.  A last line with no trailing newline
    is either a write cut short, which does not parse and is dropped with
    a warning, or a whole single-object file, which is kept.  Either way
    the file is left ending in a newline, so the next append starts a line
    of its own.
    """
    if not os.path.exists(path):
        return
    with open(path) as fh:
        for line in fh:
            if line.endswith("\n"):
                if line.strip():
                    yield json.loads(line)
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError:
                log.warning("dropping the torn last line of %s (%d characters)", path, len(line))
                os.truncate(path, os.path.getsize(path) - len(line.encode()))
            else:
                with open(path, "a") as out:
                    out.write("\n")
                yield value


class ResponseCache:
    """Key -> JSON value store, in memory with an optional append-only log.

    Each line of the log file is one ``{key: value}`` object and the last
    line for a key wins, so a single-object cache file reads as a one-line
    log.
    """

    def __init__(self, path=None):
        self.path = path
        self.data: dict = {}
        if path is not None:
            try:
                for entry in read_jsonl(path):
                    self.data.update(entry)
            except (OSError, ValueError) as exc:
                raise CacheIoError(f"cannot read cache at {path}: {exc}")

    def get(self, key: str):
        return self.data.get(key)

    def put(self, key: str, value) -> None:
        self.data[key] = value
        if self.path is not None:
            try:
                with open(self.path, "a") as fh:
                    fh.write(json.dumps({key: value}) + "\n")
            except OSError as exc:
                raise CacheIoError(f"cannot write cache at {self.path}: {exc}")

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def __len__(self) -> int:
        return len(self.data)

    def clear(self) -> None:
        self.data = {}
        if self.path is not None and os.path.exists(self.path):
            os.remove(self.path)


def choose_verifier(primary_model_id: str, pool: list) -> str:
    """Deterministically pick a verifier model different from the primary.

    Cycles through the pool in its fixed order, starting just after the
    primary; a primary outside the pool gets the pool's first entry.
    """
    if not pool:
        raise ValueError("empty backend pool")
    if primary_model_id in pool:
        k = pool.index(primary_model_id)
        for cand in itertools.islice(itertools.cycle(pool), k + 1, k + 1 + len(pool)):
            if cand != primary_model_id:
                return cand
        raise ValueError("pool contains no model distinct from the primary")
    return pool[0]


JSON_REASK = (
    "Your previous reply could not be parsed as valid JSON with the required keys. "
    "Reply again with ONLY a valid JSON object containing the keys: {keys}."
)


class Gateway:
    """Ties a backend, a usage ledger, and an optional response cache together."""

    def __init__(self, backend, ledger: UsageLedger | None = None, cache: ResponseCache | None = None, call_budget: int | None = None):
        self.backend = backend
        self.ledger = ledger if ledger is not None else UsageLedger()
        self.cache = cache
        self.call_budget = call_budget
        self.calls_made = 0

    def complete(self, profile: BackendProfile, prompt: str, template: str | None = None, sample_id=None):
        if self.call_budget is not None and self.calls_made >= self.call_budget:
            raise BudgetExceeded(f"call budget {self.call_budget} exhausted")
        payload = build_payload(profile, prompt)
        text, usage = self.backend.complete(payload, {"template": template, "role": profile.role})
        self.calls_made += 1
        self.ledger.record(sample_id, usage.get("input_tokens", 0), usage.get("output_tokens", 0))
        return text, usage

    def complete_json(self, profile: BackendProfile, prompt: str, expected_keys, retry_budget: int = 2, template: str | None = None, sample_id=None):
        if retry_budget < 1:
            raise ValueError("retry_budget must be >= 1")
        ask = prompt
        last_text = ""
        for attempt in range(1 + retry_budget):
            last_text, _ = self.complete(profile, ask, template=template, sample_id=sample_id)
            parsed = _extract_json(last_text)
            if parsed is not None and all(k in parsed for k in expected_keys):
                return parsed
            ask = prompt + "\n\n" + JSON_REASK.format(keys=", ".join(repr(k) for k in expected_keys))
        raise MalformedOutput(
            f"no valid JSON with keys {list(expected_keys)} after {retry_budget} re-asks",
            raw_text=last_text,
        )

    def cached(self, key: str, compute):
        """Return the cached value for ``key``, computing and storing on a miss."""
        if self.cache is not None and key in self.cache:
            return self.cache.get(key)
        value = compute()
        if self.cache is not None:
            self.cache.put(key, value)
        return value


def _extract_json(text: str):
    """Parse the reply as JSON, tolerating prose around a single object."""
    try:
        val = json.loads(text)
        return val if isinstance(val, dict) else None
    except json.JSONDecodeError:
        pass
    start, end = text.find("{"), text.rfind("}")
    if start == -1 or end <= start:
        return None
    try:
        val = json.loads(text[start : end + 1])
        return val if isinstance(val, dict) else None
    except json.JSONDecodeError:
        return None
