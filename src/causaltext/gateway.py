"""Provider-agnostic chat-completion access.

Covers prompt-template rendering, the uniform request payload, an HTTP
client over pooled keep-alive connections with transport retries and
exponential backoff, a single-threaded window of requests in flight,
strict-JSON extraction with a bounded re-ask budget, response caching,
token accounting, and two mock backends
(a scriptable one for unit tests and an oracle that answers consistently
with the adjacency matrix it saw in the proposal prompt).
"""

from __future__ import annotations

import collections
import functools
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
    "phase2": (("Matrix", "N", "domain/series of events"), ("Real concepts assigned to variables",)),
    "phase3": (("Concepts", "Adjacency Matrix"), ("Natural language description",)),
    "discovery": (("Text", "Important concepts"), ("adjacency matrix",)),
    "extraction": (("Text",), ("concepts",)),
    "verify": (("Concepts", "Cause", "Effect"), ("direct cause",)),
    "refine": (("Assignment", "Matrix", "Missed", "Spurious"), ("Real concepts assigned to variables",)),
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


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str
    placeholders: tuple
    expected_json_keys: tuple


@functools.cache
def load_template(name: str) -> PromptTemplate:
    """The named template, read once per process; the object is shared, hence frozen."""
    if name not in TEMPLATE_SPECS:
        raise KeyError(f"unknown template {name!r}")
    body = (
        importlib.resources.files("causaltext").joinpath(f"templates/{name}.txt").read_text(encoding="utf-8")
    )
    placeholders, keys = TEMPLATE_SPECS[name]
    return PromptTemplate(name=name, body=body, placeholders=placeholders, expected_json_keys=keys)


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

    Requests go out over persistent ``http.client`` connections, kept in a
    pool of idle ones.  ``submit`` writes a request and returns at once, so
    one thread can keep several requests in flight, one per connection;
    ``complete`` is ``submit(...).result()``.  The pool grows to the largest
    number of requests ever pending at once.  An idle connection the server
    has closed is replaced before it is used.

    Transient failures (connection errors, HTTP 429 and 5xx) are retried
    with jittered exponential backoff starting at ``backoff`` seconds.
    ``http_proxy``, ``https_proxy`` and ``no_proxy`` are honoured, and
    HTTPS verifies certificates with the default ``ssl`` context.
    """

    def __init__(self, endpoint: str, credential_env: str, retries: int = 3, backoff: float = 1.0, timeout: float = 120.0):
        self.endpoint = endpoint
        self.credential_env = credential_env
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self._idle: list = []  # connections with no reply left to read
        self._route = None  # (connection factory, request target, proxy headers), set on first use

    def complete(self, payload: dict, meta: dict | None = None):
        return self.submit(payload, meta).result()

    def submit(self, payload: dict, meta: dict | None = None) -> "PendingReply":
        """Write one request and return the handle that reads its reply."""
        key = os.environ.get(self.credential_env)
        if not key:
            raise AuthError(f"no credential in ${self.credential_env}")
        headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        return PendingReply(self, payload, headers)

    def _resolve_route(self):
        import http.client
        import urllib.parse
        import urllib.request

        url = urllib.parse.urlsplit(self.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise TransportError(f"endpoint must be an http:// or https:// URL, got {self.endpoint!r}")
        origin = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        port = url.port or origin.default_port
        path = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        proxy = None if urllib.request.proxy_bypass(url.hostname) else urllib.request.getproxies().get(url.scheme)
        if not proxy:
            return functools.partial(origin, url.hostname, port, timeout=self.timeout), path, {}
        purl = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
        if purl.scheme != "http" or not purl.hostname:
            raise TransportError(f"proxy must be an http:// URL, got {proxy!r}")
        proxy_headers = {}
        if purl.username:
            import base64

            creds = f"{urllib.parse.unquote(purl.username)}:{urllib.parse.unquote(purl.password or '')}"
            proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(creds.encode()).decode("ascii")
        if url.scheme == "http":
            # the proxy gets the absolute URL as the request target
            connect = functools.partial(http.client.HTTPConnection, purl.hostname, purl.port or 80, timeout=self.timeout)
            return connect, f"http://{url.hostname}:{port}{path}", proxy_headers

        def tunnel():
            conn = origin(purl.hostname, purl.port or 80, timeout=self.timeout)
            conn.set_tunnel(url.hostname, port, headers=proxy_headers)
            return conn

        return tunnel, path, {}

    def _checkout(self):
        """An idle connection whose server has not closed it, or a new one."""
        import select

        if self._route is None:
            self._route = self._resolve_route()
        while self._idle:
            conn = self._idle.pop()
            # a readable idle socket means the server closed it (or sent junk)
            if conn.sock is None or not select.select([conn.sock], [], [], 0)[0]:
                return conn
            conn.close()
        return self._route[0]()

    def close(self) -> None:
        """Close every idle connection."""
        while self._idle:
            self._idle.pop().close()


class PendingReply:
    """One request written by ``HttpBackend.submit``, its reply not yet read.

    ``result()`` reads the reply (retrying the request on a transient
    failure) and returns ``(text, usage)``; ``cancel()`` closes the
    connection the unread reply would arrive on.
    """

    def __init__(self, backend: HttpBackend, payload: dict, headers: dict):
        self._backend = backend
        self._prompt = payload["messages"][1]["content"]
        self._body = json.dumps(payload).encode("utf-8")
        self._headers = headers
        self._conn = None
        self._error: Exception | None = None
        self._send()

    def _send(self) -> None:
        import http.client

        conn = self._backend._checkout()
        _, target, proxy_headers = self._backend._route
        try:
            conn.request("POST", target, self._body, {**self._headers, **proxy_headers})
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            self._error = exc
        else:
            self._conn = conn

    def cancel(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def result(self):
        import http.client

        backend = self._backend
        for attempt in range(backend.retries + 1):
            if attempt:
                time.sleep(backend.backoff * (2 ** (attempt - 1)) * (1 + random.random() * 0.25))
                self._send()
            if self._conn is None:
                continue  # the request could not be written
            conn, self._conn = self._conn, None
            try:
                resp = conn.getresponse()
                data = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                self._error = exc
                continue
            backend._idle.append(conn)
            status = resp.status
            if status == 429 or status >= 500:
                self._error = RuntimeError(f"HTTP {status}")
                continue
            raw = data.decode("utf-8", errors="replace")
            if status in (401, 403):
                raise AuthError(f"HTTP {status} from {backend.endpoint}")
            if status != 200:
                raise TransportError(f"HTTP {status}: {raw[:200]}")
            try:
                body = json.loads(raw)
                text = body["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    # OpenAI-style APIs send "content": null on a refusal
                    raise TypeError(f"content is {text!r}, not a string")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise MalformedOutput(f"malformed response body: {exc!r}", raw_text=raw[:200])
            usage = body.get("usage")
            usage = usage if isinstance(usage, dict) else {}

            def count(key, words):
                # a count the server leaves out, or sends as anything but an int, is estimated
                value = usage.get(key)
                return value if type(value) is int else _approx_tokens(words)

            return text, {
                "input_tokens": count("prompt_tokens", self._prompt),
                "output_tokens": count("completion_tokens", text),
            }
        raise TransportError(f"request failed after {backend.retries} retries: {self._error}")


class ScriptedMockBackend:
    """Deterministic offline backend driven by a rule list or a reply queue.

    Rules are dicts with optional ``template`` (exact template-name match)
    and ``contains`` (prompt substring match), a ``reply`` (string or JSON
    value), and an optional ``times`` use count (default unlimited).
    A plain list of replies acts as a consume-in-order queue.
    """

    def __init__(self, script):
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
        reply = self._answer(meta.get("template"), prompt)
        text = json.dumps(reply)
        return text, {"input_tokens": _approx_tokens(prompt), "output_tokens": _approx_tokens(text)}

    def _answer(self, template, prompt):
        if template not in TEMPLATE_SPECS:
            raise TransportError(f"oracle mock cannot answer template {template!r}")
        (key,) = TEMPLATE_SPECS[template][1]
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
                key: [f"Node {i}: {c}" for i, c in enumerate(self.concepts)],
                "Relationship verification": {
                    "Existing causal relationships": ["verified" for _ in exist],
                    "Non-existing causal relationships": ["verified" for _ in absent],
                },
            }
        if template == "verify":
            cause = re.search(r"Cause candidate: (.+)", prompt).group(1)
            effect = re.search(r"Effect candidate: (.+)", prompt).group(1)
            i, j = self._index_of(cause), self._index_of(effect)
            return {key: "yes" if self.matrix[i][j] else "no"}
        if template == "phase3":
            concepts_line = prompt.splitlines()[1]
            concepts = [c.strip() for c in concepts_line.split(",")]
            return {key: "The situation unfolds through " + "; then ".join(concepts) + "."}
        if template == "discovery":
            return {key: self.matrix}
        if template == "extraction":
            return {key: list(self.concepts or [])}
        return {key: [f"Node {i}: {c}" for i, c in enumerate(self.concepts or [])]}  # refine


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
    """Ties a backend, a usage ledger, and an optional response cache together.

    ``max_in_flight`` bounds how many requests ``complete_json_many`` keeps
    pending at once on a backend that has ``submit``.  Idle keep-alive
    connections hold a server's handlers, so a window larger than the
    number of connections the server serves at once stalls.
    """

    def __init__(self, backend, ledger: UsageLedger | None = None, cache: ResponseCache | None = None,
                 call_budget: int | None = None, max_in_flight: int = 8):
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.backend = backend
        self.ledger = ledger if ledger is not None else UsageLedger()
        self.cache = cache
        self.call_budget = call_budget
        self.max_in_flight = max_in_flight
        self.calls_made = 0

    def _charge(self) -> None:
        if self.call_budget is not None and self.calls_made >= self.call_budget:
            raise BudgetExceeded(f"call budget {self.call_budget} exhausted")

    def complete(self, profile: BackendProfile, prompt: str, template: str | None = None, sample_id=None):
        self._charge()
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
            parsed = _reply_json(last_text, expected_keys)
            if parsed is not None:
                return parsed
            ask = prompt + _reask_note(expected_keys)
        raise _reasks_spent(expected_keys, retry_budget, last_text)

    def complete_json_many(self, profile: BackendProfile, prompts, expected_keys, retry_budget: int = 2,
                           template: str | None = None, sample_id=None):
        """Yield, in prompt order, what ``complete_json`` would return for each
        prompt, or the ``MalformedOutput`` it would raise.

        A backend with ``submit`` gets up to ``max_in_flight`` requests at
        once, all from this thread: requests are written on that many
        connections, the oldest reply is read, and the next request goes
        out on the connection it freed before that reply is yielded.  A
        re-ask is sent before any prompt not yet started, so its budget and
        text are those of ``complete_json``.  The call budget is checked at
        each submit and the ledger records each reply when it is read.
        Closing the generator early, or an exception from a read, cancels
        every request still pending.  A backend without ``submit`` is asked
        one prompt at a time through ``complete_json``.
        """
        if not hasattr(self.backend, "submit"):
            for prompt in prompts:
                try:
                    yield self.complete_json(profile, prompt, expected_keys, retry_budget, template, sample_id)
                except MalformedOutput as exc:
                    yield exc
            return
        if retry_budget < 1:
            raise ValueError("retry_budget must be >= 1")
        meta = {"template": template, "role": profile.role}
        note = _reask_note(expected_keys)
        reasks = collections.deque()  # (index, attempt) waiting to be sent
        pending = collections.deque()  # (index, attempt, handle) in submit order
        done: dict = {}  # index -> reply or MalformedOutput, until every earlier one is out
        fresh = next_out = 0
        try:
            while True:
                while len(pending) < self.max_in_flight and (reasks or fresh < len(prompts)):
                    if reasks:
                        index, attempt = reasks.popleft()
                    else:
                        index, attempt, fresh = fresh, 0, fresh + 1
                    self._charge()
                    ask = prompts[index] + note if attempt else prompts[index]
                    pending.append((index, attempt, self.backend.submit(build_payload(profile, ask), meta)))
                    self.calls_made += 1
                while next_out in done:
                    yield done.pop(next_out)
                    next_out += 1
                if not pending:
                    return
                index, attempt, handle = pending.popleft()
                try:
                    text, usage = handle.result()
                except MalformedOutput as exc:
                    done[index] = exc
                else:
                    self.ledger.record(sample_id, usage.get("input_tokens", 0), usage.get("output_tokens", 0))
                    parsed = _reply_json(text, expected_keys)
                    if parsed is not None:
                        done[index] = parsed
                    elif attempt < retry_budget:
                        reasks.append((index, attempt + 1))
                    else:
                        done[index] = _reasks_spent(expected_keys, retry_budget, text)
        finally:
            for _, _, handle in pending:
                handle.cancel()

    def ask(self, profile: BackendProfile, template: str, bindings: dict, note: str = "", sample_id=None):
        """Render ``template`` with ``bindings``, append ``note``, and return the
        value of the template's declared reply key (re-asking as ``complete_json`` does)."""
        spec = load_template(template)
        (key,) = spec.expected_json_keys
        reply = self.complete_json(
            profile, render_prompt(spec, bindings) + note, spec.expected_json_keys,
            template=template, sample_id=sample_id,
        )
        return reply[key]

    def cached(self, key: str, compute):
        """Return the cached value for ``key``, computing and storing on a miss."""
        if self.cache is not None and key in self.cache:
            return self.cache.get(key)
        value = compute()
        if self.cache is not None:
            self.cache.put(key, value)
        return value


def _reply_json(text: str, expected_keys):
    """The reply's JSON object if it has every expected key, else None."""
    parsed = _extract_json(text)
    return parsed if parsed is not None and all(k in parsed for k in expected_keys) else None


def _reask_note(expected_keys) -> str:
    return "\n\n" + JSON_REASK.format(keys=", ".join(repr(k) for k in expected_keys))


def _reasks_spent(expected_keys, retry_budget: int, last_text: str) -> MalformedOutput:
    return MalformedOutput(
        f"no valid JSON with keys {list(expected_keys)} after {retry_budget} re-asks",
        raw_text=last_text,
    )


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
