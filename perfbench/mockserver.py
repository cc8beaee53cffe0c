"""Localhost chat-completion server that stands in for a live LLM backend.

It speaks the OpenAI chat-completion shape that ``causaltext.gateway.HttpBackend``
parses and answers every request from the prompt text alone, so the same
prompt always gets the same reply whatever order the calls arrive in:

* concept names encode the adjacency row of their node and a revision
  counter, so the concept tuple a proposal or refinement issued determines
  the matrix that later verifier and text prompts are answered from;
* verifier errors are drawn per (concept tuple, ordered pair), not per vote:
  every first proposal has exactly one seeded pair on which all votes are
  wrong, which forces one refinement, and the refined tuples are judged
  correctly, so every sample costs the same number of passes whatever the
  seed;
* a seeded share of prompts gets a prose reply without JSON, which forces
  the client's JSON re-ask; the re-asked prompt is always answered properly.

The server adds a fixed latency to every call and counts requests, billed
tokens, its own handling time and the CPU time its handlers use.  It never answers 429 or 5xx.
"""

from __future__ import annotations

import hashlib
import http.server
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

WORKERS = 8  # handler threads; connections beyond this many wait for a free one
REASK_MARKER = "could not be parsed as valid JSON"
MALFORMED_REPLY = "Let me think about the relationships carefully before answering."
_CONCEPT = re.compile(r"^node(\d+) rev(\d+) row([01]+)$")


def unit(seed: int, *parts) -> float:
    """Deterministic uniform draw in [0, 1) from the seed and the given parts."""
    blob = json.dumps([seed, *parts], separators=(",", ":")).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2**64


def wrong_pair(seed: int, tuple_line: str, n: int) -> tuple:
    """The one ordered pair the verifier misjudges for a first-proposal tuple."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return pairs[int(unit(seed, "verify", tuple_line) * len(pairs))]


def concept_name(i: int, revision: int, row) -> str:
    return f"node{i} rev{revision} row{''.join(str(int(v)) for v in row)}"


def _matrix_after(lines, header: str):
    for k, line in enumerate(lines):
        if line.strip() == header:
            rows = []
            for row in lines[k + 1:]:
                row = row.strip()
                if not row or not set(row) <= {"0", "1"}:
                    break
                rows.append([int(ch) for ch in row])
            return rows
    raise ValueError(f"no matrix after {header!r}")


def _line_after(lines, header: str) -> str:
    for k, line in enumerate(lines):
        if line.strip() == header:
            return lines[k + 1].strip()
    raise ValueError(f"no line after {header!r}")


def _assignment(matrix, revision: int) -> dict:
    return {
        "Real concepts assigned to variables": [
            f"Node {i}: {concept_name(i, revision, row)}" for i, row in enumerate(matrix)
        ]
    }


def answer(prompt: str, seed: int, malformed_rate: float) -> str:
    """The reply text for one user prompt; a pure function of its arguments."""
    if REASK_MARKER not in prompt and unit(seed, "malformed", prompt) < malformed_rate:
        return MALFORMED_REPLY
    lines = prompt.splitlines()
    if "Pair to judge:" in prompt:
        tuple_line = _line_after(lines, "Concepts under consideration:")
        cause = re.search(r"Cause candidate: (.+)", prompt).group(1).strip()
        effect = re.search(r"Effect candidate: (.+)", prompt).group(1).strip()
        i, rev, row = _CONCEPT.match(cause).groups()
        j = int(_CONCEPT.match(effect).group(1))
        truth = row[j] == "1"
        if rev == "0" and (int(i), j) == wrong_pair(seed, tuple_line, len(row)):
            truth = not truth
        return json.dumps({"direct cause": "yes" if truth else "no"})
    if "Current concept assignment:" in prompt:
        first = _line_after(lines, "Current concept assignment:").split(",")[0]
        revision = int(_CONCEPT.match(first.split(":", 1)[1].strip()).group(2))
        return json.dumps(_assignment(_matrix_after(lines, "Adjacency Matrix:"), revision + 1))
    if "Adjacency matrix between concepts:" in prompt:
        concepts = [c.strip() for c in _line_after(lines, "Concepts:").split(",")]
        text = "The account follows " + ", then ".join(concepts) + "."
        return json.dumps({"Natural language description": text})
    if "Adjacency Matrix:" in prompt:
        matrix = _matrix_after(lines, "Adjacency Matrix:")
        reply = {
            "Existing causal relationships (values of 1 in the matrix)": [
                f"Node {i} -> Node {j}" for i, row in enumerate(matrix) for j, v in enumerate(row) if v
            ],
            **_assignment(matrix, 0),
        }
        return json.dumps(reply)
    raise ValueError("unrecognised prompt")


def completion_body(text: str, messages) -> dict:
    """The response envelope; tokens are billed as whitespace-separated words."""
    prompt_tokens = sum(len(str(m.get("content", "")).split()) for m in messages)
    completion_tokens = len(text.split())
    return {
        "object": "chat.completion",
        "choices": [{"index": 0, "message": {"role": "assistant", "content": text}, "finish_reason": "stop"}],
        "usage": {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
            "total_tokens": prompt_tokens + completion_tokens,
        },
    }


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 2.0  # idle keep-alive connections release their worker

    def log_message(self, format, *args):
        pass

    def _send(self, status: int, body: bytes) -> None:
        # status line, headers and body leave in one write
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Bad Request'}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_POST(self):
        start, cpu = time.perf_counter(), time.thread_time()
        srv = self.server.owner
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            messages = json.loads(raw)["messages"]
            text = answer(messages[-1]["content"], srv.seed, srv.malformed_rate)
        except (ValueError, KeyError, IndexError, AttributeError, TypeError) as exc:
            # counted before the reply leaves, so a client that has its reply sees the count
            srv.record(0, 0, time.perf_counter() - start, time.thread_time() - cpu, bad=True)
            self._send(400, json.dumps({"error": str(exc)}).encode())
            return
        body = completion_body(text, messages)
        payload = json.dumps(body).encode()
        time.sleep(srv.latency_s)
        usage = body["usage"]
        srv.record(usage["prompt_tokens"], usage["completion_tokens"], time.perf_counter() - start,
                   time.thread_time() - cpu)
        self._send(200, payload)


class _PooledServer(http.server.HTTPServer):
    """HTTPServer whose connections are served by a fixed pool of threads."""

    def __init__(self, owner):
        self.owner = owner
        self._pool = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="mockllm")
        super().__init__(("127.0.0.1", 0), _Handler)

    def process_request(self, request, client_address):
        self._pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def server_close(self):
        super().server_close()
        self._pool.shutdown(wait=True)


class MockChatServer:
    """Runs the mock on 127.0.0.1 with an OS-assigned port, in a background thread."""

    def __init__(self, seed: int, latency_s: float, malformed_rate: float):
        self.seed = seed
        self.latency_s = latency_s
        self.malformed_rate = malformed_rate
        self._lock = threading.Lock()
        self.requests = 0
        self.bad_requests = 0
        self.billed_tokens = 0
        self.handling_s = 0.0
        self.cpu_s = 0.0
        self._httpd = _PooledServer(self)
        self._thread = threading.Thread(target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05})

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self._httpd.server_address[1]}/v1/chat/completions"

    def record(self, prompt_tokens: int, completion_tokens: int, seconds: float, cpu_s: float,
               bad: bool = False) -> None:
        with self._lock:
            self.requests += 1
            self.bad_requests += bad
            self.billed_tokens += prompt_tokens + completion_tokens
            self.handling_s += seconds
            self.cpu_s += cpu_s

    def counters(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "bad_requests": self.bad_requests,
                "billed_tokens": self.billed_tokens,
                "handling_s": self.handling_s,
                "cpu_s": self.cpu_s,
            }

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)
