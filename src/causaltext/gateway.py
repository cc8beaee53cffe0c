"""Provider-agnostic chat-completion access.

Covers prompt-template rendering, the uniform request payload, an
HTTP/1.1 client over pooled keep-alive connections (one write per request,
with ``Accept-Encoding: identity``; replies framed by Content-Length, by
chunked encoding or by the server closing the connection; its own sockets,
with a proxy's CONNECT tunnel and one TLS context per backend) with transport
retries and exponential backoff, a single-threaded window of requests in flight,
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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AuthError,
    CacheIoError,
    CausaltextError,
    CorruptLine,
    MalformedOutput,
    TransportError,
    UnboundPlaceholder,
    open_utf8,
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
    temperature: float
    top_p: float
    max_tokens: int

    @classmethod
    def for_role(cls, model_id: str, role: str):
        if role not in ROLE_DEFAULTS:
            raise ValueError(f"unknown role {role!r}")
        return cls(model_id, *ROLE_DEFAULTS[role])


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str
    placeholders: tuple
    expected_json_keys: tuple


@functools.cache
def load_template(name: str) -> PromptTemplate:
    """The named template, read once per process; the object is shared, hence frozen."""
    placeholders, keys = TEMPLATE_SPECS[name]
    body = (
        importlib.resources.files("causaltext").joinpath(f"templates/{name}.txt").read_text(encoding="utf-8")
    )
    return PromptTemplate(name=name, body=body, placeholders=placeholders, expected_json_keys=keys)


def format_matrix(adj) -> str:
    """Rows of 0/1 digits separated by newlines (the prompt-side serialization)."""
    return "\n".join("".join(map(str, row)) for row in np.asarray(adj, dtype=int).tolist())


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

    def record(self, sample_id, input_tokens: int, output_tokens: int, *, calls: int = 1) -> None:
        """Add ``calls`` calls that together used these tokens to ``sample_id``'s counts."""
        ti, to = int(input_tokens), int(output_tokens)
        acc = self._per_sample.setdefault(sample_id, dict.fromkeys(self._totals, 0))
        for counts in (acc, self._totals):
            counts["input"] += ti
            counts["output"] += to
            counts["total"] += ti + to
            counts["calls"] += calls

    def per_sample(self) -> dict:
        return {sid: dict(counts) for sid, counts in self._per_sample.items()}

    def sample(self, sample_id) -> dict:
        """One sample's counts as a fresh dict, zeros if it made no call."""
        return dict(self._per_sample.get(sample_id) or dict.fromkeys(self._totals, 0))

    def totals(self) -> dict:
        return dict(self._totals)


@functools.lru_cache(maxsize=64)
def _approx_tokens(text: str) -> int:
    # the oracle's verify prompts repeat across the samples of one n, whose concept lists are equal: a cold
    # 200-graph run (graphgen --per-n 25 --seed 3) makes 12,801 hits in 17,056 calls
    return len(text.split())


class HttpBackend:
    """Chat-completion client over an OpenAI-style HTTP endpoint.

    It speaks HTTP/1.1 over persistent connections, kept in a pool of idle
    ones.  The request head (request line, ``Host``, ``Accept-Encoding:
    identity``, ``Authorization``, ``Content-Type`` and any proxy headers)
    is built and checked once, when the backend is built, and each request
    leaves in one write of head, ``Content-Length`` and body.  A reply's
    body may be framed by ``Content-Length``, by chunked encoding or by the
    server closing the connection; a connection goes back to the pool only
    when the reply allows keep-alive.  It opens its own connections: the
    TCP connect with TCP_NODELAY, a proxy's CONNECT tunnel and TLS.

    ``submit`` writes a request and returns at once, so one thread can keep
    several requests in flight, one per connection; ``complete`` is
    ``submit(...).result()``.  The pool grows to the largest number of
    requests ever pending at once.  An idle connection the server has
    closed is replaced before it is used.

    Transient failures (connection errors, malformed or cut-short replies,
    HTTP 429 and 5xx) are retried with jittered exponential backoff
    starting at ``backoff`` seconds.  ``http_proxy``, ``https_proxy`` and
    ``no_proxy`` are honoured; an HTTPS endpoint is reached through the
    proxy's CONNECT tunnel, and its certificate is verified with one default
    ``ssl`` context, made for the backend's first TLS connection.  A reply
    whose body would be over 16 MiB is refused.  The credential is read
    and the route resolved once, when the backend is built: a missing
    credential, or one that holds a control or non-ASCII character, raises
    AuthError there, and an endpoint or proxy that is not an http(s) URL
    TransportError.
    """

    def __init__(self, endpoint: str, credential_env: str, retries: int = 3, backoff: float = 1.0, timeout: float = 120.0):
        key = os.environ.get(credential_env)
        if not key:
            raise AuthError(f"no credential in ${credential_env}")
        if not (key.isascii() and key.isprintable()):
            raise AuthError(f"credential in ${credential_env} holds a control or non-ASCII character")
        self.endpoint = endpoint
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self._idle: list = []  # connections with no reply left to read
        self._tls = None  # the one TLS context, made when the first TLS connection is opened
        # where and how to open a connection, and the head of every request up to its Content-Length value
        self._address, self._tunnel, self._server_name, target, host, proxy_headers = self._resolve_route()
        fields = {"Host": host, "Accept-Encoding": "identity", "Authorization": f"Bearer {key}",
                  "Content-Type": "application/json", **proxy_headers}
        head = f"POST {target} HTTP/1.1\r\n" + "".join(f"{k}: {v}\r\n" for k, v in fields.items())
        self._head = (head + "Content-Length: ").encode("ascii")
        self._last_payload = self._last_request = None  # the last payload submitted, and its request bytes

    def complete(self, payload: dict, meta: dict | None = None):
        return self.submit(payload, meta).result()

    def submit(self, payload: dict, meta: dict | None = None) -> "PendingReply":
        """Write one request and return the handle that reads its reply.

        The request bytes of the last payload handed in are kept, so a
        payload sent several times in a row, as a pair's votes are, is
        encoded once.
        """
        if payload is not self._last_payload:
            body = json.dumps(payload).encode("utf-8")
            self._last_payload, self._last_request = payload, self._head + b"%d\r\n\r\n" % len(body) + body
        return PendingReply(self, payload, self._last_request)

    def _resolve_route(self):
        """The address to dial, the CONNECT request and TLS server name or None, the target, Host and proxy headers."""
        import urllib.parse
        import urllib.request

        url = urllib.parse.urlsplit(self.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise TransportError(f"endpoint must be an http:// or https:// URL, got {self.endpoint!r}")
        default_port = 443 if url.scheme == "https" else 80
        port = url.port or default_port
        path = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        host = url.hostname if url.hostname.isascii() else url.hostname.encode("idna").decode("ascii")
        authority = f"[{host}]" if ":" in host else host
        if re.search(r"[^\x21-\x7e]", authority + path):
            raise TransportError(f"endpoint must be an http:// or https:// URL without spaces or control characters, "
                                 f"got {self.endpoint!r}")
        # the port only when it is not the scheme's default
        host_field = authority if port == default_port else f"{authority}:{port}"
        proxy = None if urllib.request.proxy_bypass(url.hostname) else urllib.request.getproxies().get(url.scheme)
        if not proxy:
            return (host, port), None, host if url.scheme == "https" else None, path, host_field, {}
        purl = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
        if purl.scheme != "http" or not purl.hostname:
            raise TransportError(f"proxy must be an http:// URL, got {proxy!r}")
        proxy_headers = {}
        if purl.username:
            import base64

            creds = f"{urllib.parse.unquote(purl.username)}:{urllib.parse.unquote(purl.password or '')}"
            proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(creds.encode()).decode("ascii")
        address = (purl.hostname, purl.port or 80)
        if url.scheme == "http":
            # the proxy gets the absolute URL as the request target, and its authority as Host
            return address, None, None, f"http://{authority}:{port}{path}", f"{authority}:{port}", proxy_headers
        # an https endpoint is reached through a tunnel (RFC 9110, 9.3.6), and the proxy's headers go on its CONNECT alone
        fields = {"Host": f"{authority}:{port}", **proxy_headers}
        connect = f"CONNECT {authority}:{port} HTTP/1.1\r\n" + "".join(f"{k}: {v}\r\n" for k, v in fields.items())
        return address, (connect + "\r\n").encode("ascii"), host, path, host_field, {}

    def _checkout(self) -> "_Connection":
        """An idle connection whose server has not closed it, or a new one."""
        import select
        import socket
        import ssl

        while self._idle:
            conn = self._idle.pop()
            # a readable idle socket means the server closed it (or sent junk)
            if not select.select([conn.sock], [], [], 0)[0]:
                return conn
            conn.close()
        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel:
                sock.sendall(self._tunnel)
                with sock.makefile("rb", buffering=0) as reader:  # unbuffered, so it takes none of the TLS bytes
                    line = _read_line(reader, "proxy status line")
                    if line.split(None, 2)[1:2] != [b"200"]:
                        raise _BadReply(f"proxy refused the tunnel: {line[:40]!r}")
                    _read_fields(reader)
            if self._server_name:
                if self._tls is None:
                    self._tls = ssl.create_default_context()
                    self._tls.set_alpn_protocols(["http/1.1"])
                sock = self._tls.wrap_socket(sock, server_hostname=self._server_name)
        except OSError:
            sock.close()
            raise
        return _Connection(sock)

    def close(self) -> None:
        """Close every idle connection."""
        while self._idle:
            self._idle.pop().close()


class _Connection:
    """A pooled socket and the one buffered reader its replies are read through."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


# the bounds http.client puts on a reply's head, and one on its body, far above any chat reply,
# so that a bogus length is refused before it is read
_MAXLINE = 65536
_MAXHEADERS = 100
_MAXBODY = 16 * 1024 * 1024


class _BadReply(OSError):
    """A reply, or a proxy's answer to CONNECT, that breaks HTTP/1.1 framing or a bound; retried as an OSError is."""


def _read_line(reader, what: str) -> bytes:
    line = reader.readline(_MAXLINE + 1)
    if len(line) > _MAXLINE:
        raise _BadReply(f"got more than {_MAXLINE} bytes when reading {what}")
    return line


def _read_fields(reader, trailer: bool = False) -> dict:
    """The header (or ``trailer``) fields up to the empty line, by lower-cased name.

    A head cut before its empty line is refused; a trailer section may also
    end where the stream does, as ``http.client`` reads it, since the body
    it follows is whole.
    """
    fields = {}
    for _ in range(_MAXHEADERS + 1):
        line = _read_line(reader, "header line")
        if line in (b"\r\n", b"\n") or (trailer and not line):
            return fields
        if not line:
            raise _BadReply("connection closed before the end of the reply head")
        name, _, value = line.partition(b":")
        name, value = name.lower(), value.strip()
        if name == b"content-length" and fields.get(name, value) != value:
            raise _BadReply("differing Content-Length values")  # RFC 9112, 6.3
        fields[name] = value
    raise _BadReply(f"got more than {_MAXHEADERS} headers")


def _bounded(size: int) -> int:
    if size > _MAXBODY:
        raise _BadReply(f"reply body of more than {_MAXBODY} bytes")
    return size


def _read_exactly(reader, n: int) -> bytes:
    data = reader.read(n)
    if len(data) < n:
        raise _BadReply(f"reply cut short: got {len(data)} of {n} bytes")
    return data


def _read_chunked(reader) -> bytes:
    chunks, total = [], 0
    while True:
        line = _read_line(reader, "chunk size")
        size = line.split(b";", 1)[0].strip()  # a chunk extension is ignored
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise _BadReply(f"bad chunk size line {line[:40]!r}")
        size = int(size, 16)
        if not size:
            _read_fields(reader, trailer=True)
            return b"".join(chunks)
        total = _bounded(total + size)
        chunks.append(_read_exactly(reader, size + 2)[:size])  # the chunk and its CRLF


def _read_reply(reader):
    """Read one reply (RFC 9112): ``(status, body, keep_alive)``."""
    status = 100
    while status < 200:  # an interim 1xx reply has no body
        line = _read_line(reader, "status line")
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") or len(parts[1]) != 3 or not parts[1].isdigit():
            raise _BadReply(f"bad status line {line[:40]!r}" if line else "connection closed without a reply")
        status = int(parts[1])
        fields = _read_fields(reader)
    connection = fields.get(b"connection", b"").lower()
    keep = b"keep-alive" in connection if parts[0] == b"HTTP/1.0" else b"close" not in connection
    coding = fields.get(b"transfer-encoding")
    length = fields.get(b"content-length")
    if status in (204, 304):
        return status, b"", keep
    if coding is not None and coding.lower().rsplit(b",", 1)[-1].strip() == b"chunked":
        return status, _read_chunked(reader), keep
    if coding is None and length is not None:
        if not length.isdigit():
            raise _BadReply(f"bad Content-Length {length[:40]!r}")
        return status, _read_exactly(reader, _bounded(int(length))), keep
    body = reader.read(_MAXBODY + 1)  # the body ends where the server closes the connection
    _bounded(len(body))
    return status, body, False


class PendingReply:
    """One request written by ``HttpBackend.submit``, its reply not yet read.

    It owns the pooled connection its request went out on, with that
    connection's socket and buffered reader, until the reply is read.
    ``result()`` reads the reply (retrying the request on a transient
    failure) and returns ``(text, usage)``; ``cancel()`` closes the
    connection the unread reply would arrive on.
    """

    def __init__(self, backend: HttpBackend, payload: dict, request: bytes):
        self._backend = backend
        self._prompt = payload["messages"][1]["content"]
        self._request = request
        self._conn = None
        self._error: Exception | None = None
        self._send()

    def _send(self) -> None:
        conn = None
        try:
            conn = self._backend._checkout()
            conn.sock.sendall(self._request)
        except OSError as exc:
            if conn is not None:
                conn.close()
            self._error = exc
        else:
            self._conn = conn

    def cancel(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def result(self):
        backend = self._backend
        for attempt in range(backend.retries + 1):
            if attempt:
                time.sleep(backend.backoff * (2 ** (attempt - 1)) * (1 + random.random() * 0.25))
                self._send()
            if self._conn is None:
                continue  # the request could not be written
            conn, self._conn = self._conn, None
            try:
                status, data, keep = _read_reply(conn.reader)
            except OSError as exc:
                conn.close()
                self._error = exc
                continue
            if keep:
                backend._idle.append(conn)
            else:
                conn.close()
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
            except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
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
    """Offline backend that plays the generation pipeline perfectly.

    It answers the three templates ``generate`` sends: for ``phase2`` it
    parses the adjacency matrix out of the proposal prompt and hands back
    concept names that encode node indices, for ``verify`` it answers from
    the stored matrix, and for ``phase3`` it writes a paragraph containing
    every concept.  Any other template, a proposal prompt without an
    ``Adjacency Matrix:`` block, a verify prompt before any proposal, without
    both candidate lines or naming a concept it did not assign, and a phase3
    prompt of fewer than two lines are each a TransportError, which ends only
    the sample that sent it.  State is per proposal, so samples must be
    processed sequentially: it has no ``submit``, so a ``Gateway`` calls it
    when each reply is read, with a window of one, and runs one sample at a
    time.

    An answer depends only on the prompt and on the state that the last
    proposal prompt set, so a payload handed in again right after itself,
    as a pair's m votes are, gets the last reply back without being
    answered again; each call is still billed as a call.
    """

    def __init__(self):
        self.matrix: list | None = None
        self.concepts: list | None = None
        self._last_payload = self._last_meta = self._last_reply = None  # the last call answered, and its reply

    @staticmethod
    def _parse_matrix(prompt: str) -> list:
        lines = prompt.splitlines()
        for k, line in enumerate(lines):
            if line.strip() == "Adjacency Matrix:":
                rows = []
                for row in lines[k + 1:]:
                    row = row.strip()
                    if not row or not set(row) <= {"0", "1"}:
                        break
                    rows.append([int(ch) for ch in row])
                return rows
        raise TransportError("oracle mock found no 'Adjacency Matrix:' block in the phase2 prompt")

    def _index_of(self, prompt: str, role: str) -> int:
        """The node of the concept on the verify prompt's ``{role} candidate:`` line."""
        found = re.search(rf"{role} candidate: (.+)", prompt)
        if found is None:
            raise TransportError(f"oracle mock found no '{role} candidate:' line in the verify prompt")
        concept = found.group(1).strip()
        if concept not in self.concepts:
            raise TransportError(f"oracle mock did not assign the concept {concept!r}")
        return self.concepts.index(concept)

    def complete(self, payload: dict, meta: dict | None = None):
        if payload is self._last_payload and meta is self._last_meta:
            return self._last_reply
        prompt = payload["messages"][1]["content"]
        text = json.dumps(self._answer((meta or {}).get("template"), prompt))
        self._last_reply = text, {"input_tokens": _approx_tokens(prompt), "output_tokens": _approx_tokens(text)}
        self._last_payload, self._last_meta = payload, meta
        return self._last_reply

    def _answer(self, template, prompt):
        if template not in ("phase2", "verify", "phase3"):
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
            if self.concepts is None:
                raise TransportError("oracle mock got a verify prompt before any phase2 prompt")
            i, j = self._index_of(prompt, "Cause"), self._index_of(prompt, "Effect")
            return {key: "yes" if self.matrix[i][j] else "no"}
        lines = prompt.splitlines()  # phase3: the concepts are on the second line
        if len(lines) < 2:
            raise TransportError("oracle mock found no concept line in the phase3 prompt")
        concepts = [c.strip() for c in lines[1].split(",")]
        return {key: "The situation unfolds through " + "; then ".join(concepts) + "."}


def make_mock_backend(script):
    """Build a mock backend from a CLI-style script value.

    ``{"mode": "oracle"}`` gives the perfect oracle; anything else is fed
    to :class:`ScriptedMockBackend`.
    """
    if isinstance(script, dict) and script.get("mode") == "oracle":
        return OracleMockBackend()
    return ScriptedMockBackend(script)


def make_cache_key(concepts, adjacency, backend_id: str, template_name: str, m: int) -> str:
    """Digest of (concept assignment, adjacency matrix, verifier backend, template, votes per pair)."""
    blob = json.dumps(
        {
            "concepts": list(concepts),
            "adjacency": np.asarray(adjacency, dtype=int).tolist(),
            "backend": backend_id,
            "template": template_name,
            "m": m,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def read_jsonl(path: str):
    """Stream ``(line number, JSON object)`` for each line of a UTF-8 JSON Lines file, if it exists.

    Every complete line must hold one JSON object; one that does not parse,
    parses to another value or holds a byte that is not UTF-8 raises
    CorruptLine as ``FILE:LINE: ...``.  A last line with no trailing newline
    is either a write cut short, which does not parse and is dropped with a
    warning, or a whole single-object file, which is kept.  Either way the
    file is left ending in a newline, so the next append starts a line of
    its own.
    """
    if not os.path.exists(path):
        return
    # not csv's newline="": a line that ends in a lone "\r" must not pass for a torn last line
    with open_utf8(path, newline=None) as fh:
        for num, line in enumerate(fh, 1):
            if line.endswith("\n"):
                if line.strip():
                    try:
                        value = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise CorruptLine(f"{path}:{num}: not a JSON value ({exc})") from None
                    if not isinstance(value, dict):
                        raise CorruptLine(f"{path}:{num}: not a JSON object")
                    yield num, value
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError:
                log.warning("dropping the torn last line of %s (%d characters)", path, len(line))
                os.truncate(path, os.path.getsize(path) - len(line.encode()))
            else:
                if not isinstance(value, dict):
                    raise CorruptLine(f"{path}:{num}: not a JSON object")
                with open(path, "a") as out:
                    out.write("\n")
                yield num, value


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
                for _, entry in read_jsonl(path):
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
JSON_REASKS = 2  # re-asks of a reply that is not a JSON object with the expected keys


class Gateway:
    """Ties a backend, a usage ledger, and a response cache together.

    A request's payload is built once and handed to the backend on each of
    its sends (a pair's m votes send one request m times), so a backend must
    not change a payload it is handed.  A reply text read for a sample is
    parsed once while the sample's reads repeat it, and those reads share
    one parsed object, so a pipeline must not change a reply it is handed.
    The ledger is updated once per sample, when the sample ends, with every
    call read for it.

    Every request goes through one scheduler, ``run_samples``, which keeps up
    to ``max_in_flight`` requests pending at once, from any number of open
    sample pipelines, all on the calling thread.  The window is shared by
    every open sample, and the next sample is admitted while the window has
    room and no open sample has a request waiting to be sent.  A reply that
    needs a re-ask is re-asked at once, on the slot its read freed.  A backend
    without ``submit`` is called when its reply is read, with a window of
    one, so it serves one sample at a time in the order a sequential run
    would.  Idle keep-alive connections hold a server's handlers, so a
    window larger than the number of connections the server serves at once
    stalls.  ``complete_json`` runs one sample through the same scheduler.
    A gateway built without a cache keeps one in memory.
    """

    def __init__(self, backend, *, cache: ResponseCache | None = None, max_in_flight: int = 8):
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.backend = backend
        self.ledger = UsageLedger()
        self.cache = ResponseCache() if cache is None else cache
        self.calls_made = 0
        # a backend without submit is called when the reply is read, so it serves one request at a time
        submit = getattr(backend, "submit", None)
        self._submit = submit or functools.partial(_Deferred, backend)
        self._window = max_in_flight if submit else 1

    def _send(self, payload: dict, meta: dict):
        """Write one request; returns the handle its reply is read from."""
        handle = self._submit(payload, meta)
        self.calls_made += 1
        return handle

    def complete(self, profile: BackendProfile, prompt: str, template: str | None = None, sample_id=None):
        """One request's raw reply text and usage, recorded against ``sample_id``."""
        text, usage = self._send(build_payload(profile, prompt), {"template": template}).result()
        self.ledger.record(sample_id, usage.get("input_tokens", 0), usage.get("output_tokens", 0))
        return text, usage

    def run_samples(self, samples):
        """Run sample pipelines side by side through one window of requests.

        ``samples`` is an iterable of ``(sample_id, steps)``, read one pair
        at a time as samples are admitted; ``steps`` is a generator that
        yields what the sample needs next:

        * a list of :class:`Request`: queues them as the sample's batch and
          returns None at once;
        * an int k: returns the next k replies of the batch, in order, as a
          list, once all k are in.  A reply is the request's JSON object, or
          the ``MalformedOutput`` it ended in after its re-asks.  Yielding
          anything but an int, or ending, abandons the replies not yet asked
          for, and asking for more than the open batch holds is a
          ``TypeError``, as is a step of any other kind;
        * :class:`CacheGet`: returns the cached value, or None, after which
          the sample computes the value and yields :class:`CachePut`.  A key
          another open sample is computing is waited for, not computed
          twice; if that sample ends without storing it, the next waiter
          computes it.

        Yields ``(sample_id, result, error)`` for each sample, in admission
        order: ``result`` is what ``steps`` returned, or ``error`` the
        ``CausaltextError`` that ended it: raised in ``steps``, or by the
        first send or read to fail, in batch order, among the replies the
        steps asked for.  A failure fills its request's reply slot and no
        later request of the batch is sent, so the error is the same at
        every window.  Such an error ends only its own sample, whose pending
        requests are cancelled; any other exception cancels every pending
        request and propagates.  Usage is recorded against each sample's id
        in one ledger update per sample: when the sample ends, before it is
        yielded, or, for a sample still open, as an exception propagates.
        Each request's payload is built once and shared by its sends, so
        neither the backend nor the pipeline may change it.  A sample's
        consecutive reads of one reply text are parsed once, and the replies
        they give may be one shared object, so the pipeline must not change
        a reply; the key check, the re-asks and the usage stay per read.
        """
        return _Scheduler(self, samples).run()

    def run_sample(self, steps, sample_id=None):
        """Run one sample pipeline through the scheduler; return its result or raise its error."""
        for _, result, error in self.run_samples([(sample_id, steps)]):
            if error is not None:
                raise error
            return result

    def complete_json(self, profile: BackendProfile, prompt: str, expected_keys, template: str | None = None, sample_id=None):
        request = Request(profile, prompt, tuple(expected_keys), template)
        return self.run_sample(request_steps(request), sample_id)

    def cached(self, key: str, compute):
        """Return the cached value for ``key``, computing and storing on a miss."""
        if key in self.cache:
            return self.cache.get(key)
        value = compute()
        self.cache.put(key, value)
        return value


@dataclass(slots=True)
class Request:
    """One request of a sample pipeline: ``prompt`` is sent with ``profile``,
    and re-asked up to ``JSON_REASKS`` times until the reply is a JSON
    object with every one of ``expected_keys``.  Its payload is built once,
    when it is made, and every send of it hands the backend that one
    payload; a re-ask builds its own.  A batch may hold one request several
    times, so neither the request nor its payload is changed once made.
    Its copies' replies, like any of a sample's consecutive reads of one
    text, may be one parsed object, so a reply is not changed either."""

    profile: BackendProfile
    prompt: str
    expected_keys: tuple
    template: str | None = None
    _payload: dict = field(init=False, repr=False, compare=False)
    _meta: dict = field(init=False, repr=False, compare=False)
    _keys: frozenset = field(init=False, repr=False, compare=False)  # expected_keys, for the reply check

    def __post_init__(self):
        self._payload = build_payload(self.profile, self.prompt)
        self._meta = {"template": self.template}
        self._keys = frozenset(self.expected_keys)


@dataclass(frozen=True)
class CacheGet:
    """Pipeline step: the cached value for ``key``, or None if the sample is to compute it."""

    key: str


@dataclass(frozen=True)
class CachePut:
    """Pipeline step: store the value the sample computed for ``key``."""

    key: str
    value: object


def request_steps(request: Request):
    """Pipeline steps of one request: its JSON reply, or its ``MalformedOutput`` raised."""
    yield [request]
    (reply,) = yield 1
    if isinstance(reply, MalformedOutput):
        raise reply
    return reply


def ask_steps(profile: BackendProfile, template: str, bindings: dict, note: str = ""):
    """Pipeline steps of one request for ``template`` rendered with ``bindings``
    and ``note`` appended: the value of the template's declared reply key."""
    spec = load_template(template)
    (key,) = spec.expected_json_keys
    request = Request(profile, render_prompt(spec, bindings) + note, spec.expected_json_keys, template)
    return (yield from request_steps(request))[key]


class _Deferred:
    """The handle of a backend without ``submit``: the call is made when the reply is read."""

    __slots__ = ("_backend", "_payload", "_meta")

    def __init__(self, backend, payload: dict, meta: dict):
        self._backend, self._payload, self._meta = backend, payload, meta

    def result(self):
        return self._backend.complete(self._payload, self._meta)

    def cancel(self) -> None:
        pass


_UNREAD = object()  # a reply slot whose final reply has not been read yet
_Failed = collections.namedtuple("_Failed", "error")  # the reply slot of a request whose send or read failed


class _Sample:
    """An admitted pipeline and where it stands in its current batch."""

    __slots__ = ("sample_id", "steps", "batch", "replies", "given", "upto", "sent", "result", "error", "done",
                 "input_tokens", "output_tokens", "calls", "text", "parsed")

    def __init__(self, sample_id, steps):
        self.sample_id = sample_id
        self.steps = steps
        self.batch = None  # the list of requests last yielded; None once abandoned or ended
        self.replies: list = []  # the batch's final replies so far, by index
        self.given = 0  # replies handed to the steps
        self.upto = 0  # the steps wait for replies[given:upto]; 0 if they do not wait
        self.sent = 0  # requests of the batch written so far; all of them once one failed
        self.result = self.error = None
        self.done = False
        # the usage of every reply read for the sample, given to the ledger when it ends
        self.input_tokens = self.output_tokens = self.calls = 0
        # the last reply text read for the sample and what _extract_json made of it, reused while the text repeats
        self.text = self.parsed = None


class _Scheduler:
    """One run of ``Gateway.run_samples``: the shared window and every open sample.

    ``run()`` repeats three things until nothing is pending: fill the
    window, yield the samples finished so far that come next in admission
    order, and read the oldest pending reply and hand it on.  A reply that
    needs a re-ask is re-asked by that read, on the slot it just freed, so
    the re-ask goes out before any request not yet written.  Any other free
    slot goes to the oldest batch with requests not yet written, then to
    the next sample.  A failed send or read fills its request's reply
    slot, and only ``_step`` ends a sample.
    """

    def __init__(self, gateway: Gateway, samples):
        self.gw = gateway
        self.samples = iter(samples)
        self.window = gateway._window
        self.pending = collections.deque()  # (sample, index, attempt, handle), oldest first
        self.queued = collections.deque()  # samples whose batch has requests not yet written
        self.order = collections.deque()  # admitted samples not yet handed out
        self.ready = collections.deque()  # (sample, value) to resume with
        self.claims: dict = {}  # cache key -> deque of samples: the head computes it, the rest wait for it

    def run(self):
        pending, order = self.pending, self.order
        try:
            while True:
                if len(pending) < self.window:
                    self._fill()
                while order and order[0].done:
                    s = order.popleft()
                    yield s.sample_id, s.result, s.error
                if not pending:
                    return
                self._read(*pending.popleft())
        finally:
            for entry in pending:
                entry[3].cancel()
            pending.clear()
            for s in order:
                s.steps.close()
                if not s.done:  # the run stops with the sample open; what it read is billed all the same
                    self._bill(s)

    def _fill(self) -> None:
        pending, window, queued = self.pending, self.window, self.queued
        while len(pending) < window:
            if queued:
                s = queued[0]
                index = s.sent
                s.sent += 1
                if s.sent == len(s.batch):
                    queued.popleft()
                self._send(s, index, 0)
            else:
                admitted = next(self.samples, None)
                if admitted is None:
                    return
                s = _Sample(*admitted)
                self.order.append(s)
                self._step(s, None)
                self._drain()

    def _send(self, s: _Sample, index: int, attempt: int) -> None:
        """Write request ``index`` of the sample's batch, as its ``attempt``-th re-ask if not 0."""
        request = s.batch[index]
        payload = request._payload
        if attempt:
            note = JSON_REASK.format(keys=", ".join(repr(k) for k in request.expected_keys))
            payload = build_payload(request.profile, request.prompt + "\n\n" + note)
        try:
            self.pending.append((s, index, attempt, self.gw._send(payload, request._meta)))
        except CausaltextError as exc:
            self._settle(s, index, _Failed(exc))

    def _read(self, s: _Sample, index: int, attempt: int, handle) -> None:
        request = s.batch[index]  # a pending request's batch is its sample's current one
        try:
            text, usage = handle.result()
        except MalformedOutput as exc:
            reply = exc
        except CausaltextError as exc:
            reply = _Failed(exc)
        else:
            ti, to = int(usage.get("input_tokens", 0)), int(usage.get("output_tokens", 0))
            s.input_tokens += ti
            s.output_tokens += to
            s.calls += 1
            if text != s.text:
                s.text, s.parsed = text, _extract_json(text)
            reply = s.parsed
            if reply is None or not reply.keys() >= request._keys:
                if attempt < JSON_REASKS:
                    self._send(s, index, attempt + 1)  # on the slot this read freed
                    return
                reply = MalformedOutput(
                    f"no valid JSON with keys {list(request.expected_keys)} after {JSON_REASKS} re-asks",
                    raw_text=text,
                )
        self._settle(s, index, reply)

    def _settle(self, s: _Sample, index: int, reply) -> None:
        """Make ``reply`` request ``index``'s final reply; after a failure, send no later request of the batch."""
        s.replies[index] = reply
        if type(reply) is _Failed and s.sent < len(s.batch):
            self.queued.remove(s)
            s.sent = len(s.batch)
        if index < s.upto:
            self._step(s)
            self._drain()

    def _drain(self) -> None:
        while self.ready:
            self._step(*self.ready.popleft())

    def _step(self, s: _Sample, value=None) -> None:
        """Send the steps the replies they wait for, or else ``value``, and act on what they yield, until they wait.

        The sample ends instead at the first failed reply they wait for, once every reply before it is in.
        """
        while True:
            if s.upto:  # the steps wait for replies[given:upto]
                value = s.replies[s.given:s.upto]
                for reply in value:
                    if reply is _UNREAD:
                        return
                    if type(reply) is _Failed:
                        self._end(s, error=reply.error)
                        return
                s.given, s.upto = s.upto, 0
            try:
                step = s.steps.send(value)
            except StopIteration as stop:
                self._end(s, result=stop.value)
                return
            except CausaltextError as exc:
                self._end(s, error=exc)
                return
            if type(step) is int:  # the next `step` replies of the batch
                end = s.given + step
                if s.batch is None or not s.given <= end <= len(s.batch):
                    raise TypeError(f"a sample pipeline asked for {step} replies its open batch does not hold")
                s.upto, value = end, []  # [] for a step of 0 at the start of the batch
                continue
            self._drop(s)
            value = None
            if type(step) is list:
                s.batch, s.replies = step, [_UNREAD] * len(step)
                s.given = s.upto = s.sent = 0
                if step:
                    self.queued.append(s)
            elif type(step) is CacheGet:
                if step.key in self.gw.cache:
                    value = self.gw.cache.get(step.key)
                else:
                    claim = self.claims.setdefault(step.key, collections.deque())
                    claim.append(s)
                    if len(claim) > 1:
                        return
            elif type(step) is CachePut:
                try:
                    self.gw.cache.put(step.key, step.value)
                except CausaltextError as exc:
                    self._end(s, error=exc)
                    return
                # the samples behind the head of the key's claim wait for this value
                for waiter in itertools.islice(self.claims.pop(step.key, ()), 1, None):
                    self.ready.append((waiter, step.value))
            else:
                raise TypeError(f"a sample pipeline yielded {step!r}")

    def _drop(self, s: _Sample) -> None:
        """Abandon the rest of the sample's batch: unsent requests stay unsent, pending ones are cancelled."""
        if s.batch is None:
            return
        if s.sent < len(s.batch):
            self.queued.remove(s)
        for entry in [entry for entry in self.pending if entry[0] is s]:
            entry[3].cancel()
            self.pending.remove(entry)
        s.batch = None

    def _end(self, s: _Sample, result=None, error=None) -> None:
        self._drop(s)
        s.steps.close()
        s.result, s.error, s.done = result, error, True
        self._bill(s)
        for key, claim in list(self.claims.items()):
            if claim[0] is s:
                # the next waiter computes the key itself, as a sequential run would
                claim.popleft()
                if claim:
                    self.ready.append((claim[0], None))
                else:
                    del self.claims[key]

    def _bill(self, s: _Sample) -> None:
        """Record the usage of every reply read for the sample, in one ledger update."""
        if s.calls:
            self.gw.ledger.record(s.sample_id, s.input_tokens, s.output_tokens, calls=s.calls)


def _extract_json(text: str):
    """Parse the reply as JSON, tolerating prose around a single object."""
    try:
        val = json.loads(text)
        return val if isinstance(val, dict) else None
    except (json.JSONDecodeError, RecursionError):  # a value nested too deeply to parse is unparseable too
        pass
    start, end = text.find("{"), text.rfind("}")
    if start == -1 or end <= start:
        return None
    try:
        val = json.loads(text[start : end + 1])
        return val if isinstance(val, dict) else None
    except (json.JSONDecodeError, RecursionError):
        return None
