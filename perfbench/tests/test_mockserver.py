"""The localhost chat-completion mock: order-independent replies and its counters.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import random

import numpy as np
import pytest
import requests

from causaltext.assignment import LoopConfig, run_loop
from causaltext.gateway import BackendProfile, Gateway, HttpBackend, load_template, render_prompt
from causaltext.graphs import Dag
from mockserver import MockChatServer, answer, concept_name, wrong_pair

SEED = 7
MATRIX = np.array([[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]])


def concepts(revision):
    return [concept_name(i, revision, row) for i, row in enumerate(MATRIX)]


def prompts():
    out = [render_prompt(load_template("phase2"),
                         {"Matrix": MATRIX, "N": 4, "domain/series of events": "business"})]
    for revision in (0, 1):
        cs = concepts(revision)
        for i in range(4):
            for j in range(4):
                if i != j:
                    out.append(render_prompt(load_template("verify"),
                                             {"Concepts": cs, "Cause": cs[i], "Effect": cs[j]}))
        out.append(render_prompt(load_template("phase3"), {"Concepts": cs, "Adjacency Matrix": MATRIX}))
    out.append(render_prompt(load_template("refine"), {
        "Assignment": [f"Node {i}: {c}" for i, c in enumerate(concepts(0))],
        "Matrix": MATRIX, "Missed": "(none)", "Spurious": "(none)"}))
    return out


def post(server, prompt):
    body = {"model": "m", "messages": [{"role": "system", "content": "sys"}, {"role": "user", "content": prompt}]}
    resp = requests.post(server.endpoint, json=body, timeout=10)
    assert resp.status_code == 200
    return resp.json()["choices"][0]["message"]["content"]


def test_same_reply_whatever_the_order():
    ps = prompts()
    shuffled = list(ps)
    random.Random(3).shuffle(shuffled)
    with MockChatServer(seed=SEED, latency_s=0.0, malformed_rate=0.3) as server:
        first = {p: post(server, p) for p in ps}
        second = {p: post(server, p) for p in shuffled}
        counters = server.counters()
    assert first == second
    assert counters["requests"] == 2 * len(ps)
    assert counters["bad_requests"] == 0
    assert counters["billed_tokens"] > 0 and counters["handling_s"] > 0
    assert any(not r.startswith("{") for r in first.values())  # some replies are malformed


def test_a_first_proposal_has_exactly_one_wrong_pair():
    cs0, cs1 = concepts(0), concepts(1)
    tuple_line = ", ".join(cs0)
    bad = wrong_pair(SEED, tuple_line, 4)
    for revision, cs in ((0, cs0), (1, cs1)):
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                prompt = render_prompt(load_template("verify"), {"Concepts": cs, "Cause": cs[i], "Effect": cs[j]})
                verdict = json.loads(answer(prompt, SEED, malformed_rate=0.0))["direct cause"] == "yes"
                wrong = revision == 0 and (i, j) == bad
                assert verdict == (bool(MATRIX[i, j]) != wrong)


def test_reask_is_always_answered():
    ps = prompts()
    reask = "\n\nYour previous reply could not be parsed as valid JSON with the required keys."
    for p in ps:
        assert json.loads(answer(p + reask, SEED, malformed_rate=1.0))


def test_http_backend_loop_refines_once(monkeypatch):
    monkeypatch.setenv("BENCH_TEST_KEY", "k")
    with MockChatServer(seed=SEED, latency_s=0.0, malformed_rate=0.0) as server:
        gw = Gateway(HttpBackend(server.endpoint, "BENCH_TEST_KEY"))
        proposer = BackendProfile.for_role("p", "proposer")
        verifier = BackendProfile.for_role("v", "verifier")
        result = run_loop(Dag(n=4, edges=MATRIX), "business", gw, proposer, verifier,
                          config=LoopConfig(m=2, k_max=3), sample_id="s")
        counters = server.counters()
    assert result.status == "Success" and result.iterations == 2
    assert counters["requests"] == gw.calls_made
    assert counters["billed_tokens"] == gw.ledger.totals()["total"]


@pytest.mark.parametrize("prompt", ["hello", "Pair to judge:\nnothing"])
def test_unrecognised_prompt_is_a_400(prompt):
    with MockChatServer(seed=SEED, latency_s=0.0, malformed_rate=0.0) as server:
        resp = requests.post(server.endpoint, json={"messages": [{"role": "user", "content": prompt}]}, timeout=10)
        assert resp.status_code == 400
        assert server.counters()["bad_requests"] == 1
