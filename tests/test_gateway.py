import collections
import copy
import dataclasses
import functools
import hashlib
import http.server
import itertools
import json
import os
import random
import re
import shutil
import socket
import ssl
import subprocess
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from causaltext.assignment import (
    REVISION_NOTE,
    ConceptAssignment,
    FallacySet,
    LoopConfig,
    analyze_causal_structure,
    counterfactual_verification,
    initial_assignment,
    refine_assignment,
    run_loop_steps,
)
from causaltext.cli import main
from causaltext.errors import (
    AuthError,
    CacheIoError,
    MalformedOutput,
    TransportError,
    UnboundPlaceholder,
    VerificationError,
)
from causaltext.gateway import (
    JSON_REASK,
    ROLE_DEFAULTS,
    SYSTEM_MESSAGE,
    TEMPLATE_SPECS,
    BackendProfile,
    CacheGet,
    CachePut,
    Gateway,
    HttpBackend,
    OracleMockBackend,
    PromptTemplate,
    Request,
    ResponseCache,
    ScriptedMockBackend,
    ask_steps,
    UsageLedger,
    build_payload,
    choose_verifier,
    format_matrix,
    load_template,
    make_cache_key,
    make_mock_backend,
    render_prompt,
    request_steps,
)
from causaltext.graphs import Dag
from causaltext.store import RunManifest, SampleStore
from causaltext.textgen import (
    COVERAGE_REASK,
    EXTRACTION_REASK,
    REVISION_REQUEST,
    Paragraph,
    extract_concepts_steps,
    gen_id_refine_steps,
    generate_text,
    generate_text_steps,
    llm_causal_discovery_steps,
)


class TestTemplates:
    def test_phase2_matrix_substitution(self):
        t = load_template("phase2")
        out = render_prompt(
            t, {"Matrix": [[0, 1], [0, 0]], "N": 2, "domain/series of events": "business domain"}
        )
        assert "01\n00" in out
        assert "business domain" in out
        assert "[Matrix]" not in out
        # bracketed prose that is not a placeholder survives
        assert "[variable A]" in out

    def test_phase3_concepts(self):
        t = load_template("phase3")
        out = render_prompt(t, {"Concepts": ["Study", "Success"], "Adjacency Matrix": [[0, 1], [0, 0]]})
        assert "Study" in out and "Success" in out

    def test_unbound_placeholder(self):
        t = load_template("phase2")
        with pytest.raises(UnboundPlaceholder) as exc:
            render_prompt(t, {"N": 2, "domain/series of events": "x"})
        assert exc.value.name == "Matrix"

    def test_all_templates_load(self):
        for name in ("phase2", "phase3", "discovery", "extraction", "verify", "refine"):
            t = load_template(name)
            assert t.body and t.placeholders and t.expected_json_keys

    def test_format_matrix(self):
        assert format_matrix(np.array([[0, 1, 1], [0, 0, 0], [1, 0, 0]])) == "011\n000\n100"

    def test_unknown_template(self):
        with pytest.raises(KeyError):
            load_template("no-such-template")

    @pytest.mark.parametrize("value, text", [(2.5, "2.5"), (np.float64(0.25), "0.25")])
    def test_a_scalar_binding_renders_as_its_str(self, value, text):
        assert render_prompt(PromptTemplate("t", "N = [N]", ("N",), ()), {"N": value}) == f"N = {text}"


def reference_format_matrix(adj) -> str:
    """``format_matrix`` as it was, one ``str(int(v))`` per numpy scalar."""
    a = np.asarray(adj, dtype=int)
    return "\n".join("".join(str(int(v)) for v in row) for row in a)


def reference_serialize_binding(value) -> str:
    """``_serialize_binding`` as it was, every list through an object array."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    arr = np.asarray(value, dtype=object)
    if arr.ndim == 2:
        return reference_format_matrix(value)
    if arr.ndim == 1:
        return ", ".join(str(v) for v in value)
    return str(value)


def reference_render(template, bindings) -> str:
    text = template.body
    for name in template.placeholders:
        text = text.replace(f"[{name}]", reference_serialize_binding(bindings[name]))
    return text


class Label(str):
    pass


class TestReferenceRender:
    """Prompts render to the same text as the numpy-scalar serialization did."""

    MATRIX_NAMES = {"Matrix", "Adjacency Matrix"}
    LIST_NAMES = {"Concepts", "Important concepts", "Assignment"}
    CONCEPT_LISTS = [
        [], (), ("Rain", "Wet grass"), ["Rain", "Wet grass", "Slippery road"], ["Regen", "Nässe", "雨", "Glätte"],
        ["Node 0: Rain", "Node 1: Wet grass"], [Label("Rain"), "Wet grass"], ["Rain", 2], [""], ["a, b", "c"],
    ]

    def matrices(self):
        rng = np.random.default_rng(30)
        for n in range(1, 8):
            for _ in range(3):
                a = (rng.random((n, n)) < 0.4).astype(np.int8)
                np.fill_diagonal(a, 0)
                yield from (a, a.astype(bool), a.astype(np.int64), a.tolist(), a.astype(bool).tolist(), a.T)

    def test_format_matrix_matches_reference(self):
        for adj in self.matrices():
            assert format_matrix(adj) == reference_format_matrix(adj)

    @pytest.mark.parametrize("name", list(TEMPLATE_SPECS))
    def test_every_template_renders_as_the_reference(self, name):
        template = load_template(name)
        others = {"N": [3, np.int64(7), np.int8(2)], "Text": ["Rain falls.", "Regen fällt; 雨"]}
        for adj, concepts, other in itertools.product(self.matrices(), self.CONCEPT_LISTS, range(2)):
            bindings = {}
            for ph in template.placeholders:
                if ph in self.MATRIX_NAMES:
                    bindings[ph] = adj
                elif ph in self.LIST_NAMES:
                    bindings[ph] = concepts
                else:
                    choices = others.get(ph, ["Rain", "Wet grass -> Mud (Node 1 -> Node 2)"])
                    bindings[ph] = choices[other % len(choices)]
            assert render_prompt(template, bindings) == reference_render(template, bindings), bindings


class TestPayload:
    def test_skeleton_shape(self):
        p = BackendProfile.for_role("model-x", "verifier")
        payload = build_payload(p, "hello")
        assert payload == {
            "model": "model-x",
            "temperature": 0.2,
            "top_p": 1.00,
            "max_tokens": 5000,
            "messages": [
                {"role": "system", "content": SYSTEM_MESSAGE},
                {"role": "user", "content": "hello"},
            ],
        }

    @pytest.mark.parametrize(
        "role,temp,top_p",
        [("proposer", 0.3, 0.95), ("verifier", 0.2, 1.00), ("phase3", 0.7, 0.95), ("discovery", 0.0, 1.00)],
    )
    def test_role_defaults(self, role, temp, top_p):
        p = BackendProfile.for_role("m", role)
        assert (p.temperature, p.top_p, p.max_tokens) == (temp, top_p, 5000)
        assert ROLE_DEFAULTS[role] == (temp, top_p, 5000)

    def test_unknown_role(self):
        with pytest.raises(ValueError):
            BackendProfile.for_role("m", "narrator")


class TestScriptedMock:
    def test_queue_returns_verbatim(self):
        b = ScriptedMockBackend(["first", {"k": 1}])
        p = build_payload(BackendProfile.for_role("m", "proposer"), "q")
        assert b.complete(p)[0] == "first"
        assert json.loads(b.complete(p)[0]) == {"k": 1}
        with pytest.raises(TransportError):
            b.complete(p)

    def test_rules_by_template_and_substring(self):
        b = ScriptedMockBackend(
            {
                "rules": [
                    {"template": "verify", "contains": "Alpha", "reply": {"direct cause": "yes"}},
                    {"template": "verify", "reply": {"direct cause": "no"}},
                ]
            }
        )
        p1 = build_payload(BackendProfile.for_role("m", "verifier"), "Cause candidate: Alpha")
        p2 = build_payload(BackendProfile.for_role("m", "verifier"), "Cause candidate: Beta")
        assert json.loads(b.complete(p1, {"template": "verify"})[0])["direct cause"] == "yes"
        assert json.loads(b.complete(p2, {"template": "verify"})[0])["direct cause"] == "no"

    def test_rule_use_count(self):
        b = ScriptedMockBackend({"rules": [{"reply": "a", "times": 1}, {"reply": "b"}]})
        p = build_payload(BackendProfile.for_role("m", "proposer"), "q")
        assert b.complete(p)[0] == "a"
        assert b.complete(p)[0] == "b"

    def test_the_oracle_answers_a_payload_again_only_after_another(self):
        b = OracleMockBackend()
        proposer, verifier = BackendProfile.for_role("m", "proposer"), BackendProfile.for_role("m", "verifier")
        edge, empty = (build_payload(proposer, f"Adjacency Matrix:\n{rows}\n") for rows in ("01\n00", "00\n00"))
        pair, meta = build_payload(verifier, "Cause candidate: Factor 0\nEffect candidate: Factor 1"), {"template": "verify"}
        b.complete(edge, {"template": "phase2"})
        first = b.complete(pair, meta)
        assert b.complete(pair, meta) is first and json.loads(first[0]) == {"direct cause": "yes"}
        assert first[1] == {"input_tokens": 8, "output_tokens": 3}  # billed as a call each time
        back = build_payload(verifier, "Cause candidate: Factor 1\nEffect candidate: Factor 0")
        assert json.loads(b.complete(back, meta)[0]) == {"direct cause": "no"}
        b.complete(empty, {"template": "phase2"})  # a new proposal, so the same pair is answered afresh
        assert json.loads(b.complete(pair, meta)[0]) == {"direct cause": "no"}

    @pytest.mark.parametrize("template, prompt", [
        ("phase2", "Matrix:\n01\n00"),  # no "Adjacency Matrix:" block
        ("refine", "Adjacency Matrix:\n01\n00"),
        ("discovery", "Text: Rain wets the grass."),
        ("extraction", "Text: Rain wets the grass."),
        (None, "p"),
    ])
    def test_the_oracle_refuses_a_prompt_generate_does_not_send(self, template, prompt):
        b = OracleMockBackend()
        b.complete(build_payload(PROPOSER, "Adjacency Matrix:\n01\n00"), {"template": "phase2"})
        with pytest.raises(TransportError, match="oracle mock"):
            b.complete(build_payload(PROPOSER, prompt), {"template": template})

    def test_an_oracle_refusal_fails_only_its_own_sample(self):
        keys = TEMPLATE_SPECS["phase2"][1]
        prompts = {"a": "Matrix:\n01\n00", "b": "Adjacency Matrix:\n01\n00"}
        runs = Gateway(OracleMockBackend()).run_samples(
            (sid, request_steps(Request(PROPOSER, prompt, keys, "phase2"))) for sid, prompt in prompts.items())
        (a, _, refused), (b, reply, error) = runs
        assert (a, b) == ("a", "b") and isinstance(refused, TransportError) and error is None
        assert reply[ASSIGNED] == ["Node 0: Factor 0", "Node 1: Factor 1"]

    def test_factory(self):
        assert isinstance(make_mock_backend({"mode": "oracle"}), OracleMockBackend)
        assert isinstance(make_mock_backend(["x"]), ScriptedMockBackend)


class TestCompleteJson:
    def gw(self, replies):
        return Gateway(ScriptedMockBackend(replies))

    def test_well_formed(self):
        gw = self.gw([{"Natural language description": "x"}])
        out = gw.complete_json(
            BackendProfile.for_role("m", "phase3"), "p", ["Natural language description"]
        )
        assert out["Natural language description"] == "x"

    def test_reask_then_success(self):
        gw = self.gw(["not json", {"k": "v"}])
        out = gw.complete_json(BackendProfile.for_role("m", "phase3"), "p", ["k"])
        assert out == {"k": "v"}
        assert gw.calls_made == 2

    def test_persistent_garbage(self):
        gw = self.gw(["nope", "still nope", "never"])
        with pytest.raises(MalformedOutput) as exc:
            gw.complete_json(BackendProfile.for_role("m", "phase3"), "p", ["k"])
        assert exc.value.raw_text == "never"

    def test_json_with_surrounding_prose(self):
        gw = self.gw(['Sure! Here you go: {"k": 1} hope that helps'])
        assert gw.complete_json(BackendProfile.for_role("m", "phase3"), "p", ["k"]) == {"k": 1}

    def test_missing_key_triggers_reask(self):
        gw = self.gw([{"wrong": 1}, {"k": 2}])
        assert gw.complete_json(BackendProfile.for_role("m", "phase3"), "p", ["k"]) == {"k": 2}


class RecordingBackend(ScriptedMockBackend):
    """A scripted mock that also keeps every (template, prompt) it is sent."""

    def __init__(self, script):
        super().__init__(script)
        self.sent = []

    def complete(self, payload, meta=None):
        self.sent.append((meta["template"], payload["messages"][1]["content"]))
        return super().complete(payload, meta)


def sent_by(call, replies):
    backend = RecordingBackend(replies)
    call(Gateway(backend))
    return backend.sent


DESC = "Natural language description"
ASSIGNED = "Real concepts assigned to variables"
PHASE3_BINDINGS = {"Concepts": ["Rain", "Wet grass"], "Adjacency Matrix": [[0, 1], [0, 0]]}


class TestAsk:
    profile = BackendProfile.for_role("m", "phase3")

    def test_returns_declared_key_and_appends_note(self):
        backend = RecordingBackend([{DESC: "x", "other": 1}])
        out = Gateway(backend).run_sample(ask_steps(self.profile, "phase3", PHASE3_BINDINGS, "\n\nPS"))
        assert out == "x"
        assert backend.sent == [
            ("phase3", render_prompt(load_template("phase3"), PHASE3_BINDINGS) + "\n\nPS")
        ]

    def test_missing_key_reasked_then_budget_spent(self):
        prompt = render_prompt(load_template("phase3"), PHASE3_BINDINGS)
        reask = prompt + "\n\n" + JSON_REASK.format(keys=repr(DESC))
        backend = RecordingBackend([{"wrong": 1}, {DESC: "y"}])
        assert Gateway(backend).run_sample(ask_steps(self.profile, "phase3", PHASE3_BINDINGS)) == "y"
        assert backend.sent == [("phase3", prompt), ("phase3", reask)]

        backend = RecordingBackend([{"wrong": 1}] * 3)
        gw = Gateway(backend)
        with pytest.raises(MalformedOutput):
            gw.run_sample(ask_steps(self.profile, "phase3", PHASE3_BINDINGS))
        assert gw.calls_made == 3
        assert [p for _, p in backend.sent] == [prompt, reask, reask]

    def test_load_template_returns_one_frozen_object(self):
        t = load_template("verify")
        assert load_template("verify") is t
        assert isinstance(t.placeholders, tuple) and isinstance(t.expected_json_keys, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.body = "changed"


class TestPromptIdentity:
    """Every request the pipeline makes is its template rendered with the
    call's bindings, plus the module's note on a re-ask."""

    proposer = BackendProfile.for_role("m", "proposer")
    phase3 = BackendProfile.for_role("m", "phase3")
    discovery = BackendProfile.for_role("m", "discovery")
    dag = Dag(n=2, edges=np.array([[0, 1], [0, 0]], dtype=np.int8))
    concepts = ["Rain", "Wet grass"]

    def test_initial_assignment_with_overlap_revision(self):
        sent = sent_by(
            lambda gw: initial_assignment(self.dag, "weather", gw, self.proposer),
            [{ASSIGNED: ["Node 0: Skill", "Node 1: skill."]}, {ASSIGNED: ["Node 0: Skill", "Node 1: Luck"]}],
        )
        prompt = render_prompt(
            load_template("phase2"), {"Matrix": self.dag.edges, "N": 2, "domain/series of events": "weather"}
        )
        note = REVISION_NOTE.format(offenders="overlapping concepts after normalization: 'Skill', 'skill.'")
        assert sent == [("phase2", prompt), ("phase2", prompt + note)]

    def test_refine_assignment(self):
        fallacies = FallacySet(missed=[(0, 1)], spurious=[], tau=0.6)
        sent = sent_by(
            lambda gw: refine_assignment(
                ConceptAssignment(self.concepts, "weather"), fallacies, self.dag, gw, self.proposer
            ),
            [{ASSIGNED: ["Node 0: Rain", "Node 1: Wet grass"]}],
        )
        prompt = render_prompt(
            load_template("refine"),
            {
                "Assignment": ["Node 0: Rain", "Node 1: Wet grass"],
                "Matrix": self.dag.edges,
                "Missed": "Rain -> Wet grass (Node 0 -> Node 1)",
                "Spurious": "(none)",
            },
        )
        assert sent == [("refine", prompt)]

    def test_generate_text_with_coverage_reask(self):
        sent = sent_by(
            lambda gw: generate_text(self.dag, ConceptAssignment(self.concepts, "weather"), gw, self.phase3),
            [{DESC: "Rain fell."}, {DESC: "Rain soaks the wet grass."}],
        )
        prompt = render_prompt(load_template("phase3"), PHASE3_BINDINGS)
        assert sent == [("phase3", prompt), ("phase3", prompt + COVERAGE_REASK.format(missing="'Wet grass'"))]

    def test_gen_id_refine_with_one_revision(self):
        assignment = ConceptAssignment(self.concepts, "weather")
        sent = sent_by(
            lambda gw: gw.run_sample(
                gen_id_refine_steps(self.dag, assignment, Paragraph("Rain fell.", assignment), self.phase3, self.discovery)
            ),
            [
                {"adjacency matrix": [[0, 0], [0, 0]]},
                {DESC: "Rain soaks the wet grass."},
                {"adjacency matrix": [[0, 1], [0, 0]]},
            ],
        )
        discovery = load_template("discovery")
        revision = REVISION_REQUEST.format(paragraph="Rain fell.", missed="Rain -> Wet grass", spurious="(none)")
        assert sent == [
            ("discovery", render_prompt(discovery, {"Text": "Rain fell.", "Important concepts": self.concepts})),
            ("phase3", render_prompt(load_template("phase3"), PHASE3_BINDINGS) + revision),
            (
                "discovery",
                render_prompt(discovery, {"Text": "Rain soaks the wet grass.", "Important concepts": self.concepts}),
            ),
        ]

    def test_llm_causal_discovery(self):
        sent = sent_by(
            lambda gw: gw.run_sample(llm_causal_discovery_steps("Rain fell.", self.concepts, self.discovery)),
            [{"adjacency matrix": [[0, 1], [0, 0]]}],
        )
        bindings = {"Text": "Rain fell.", "Important concepts": self.concepts}
        assert sent == [("discovery", render_prompt(load_template("discovery"), bindings))]

    def test_extract_concepts_with_reask(self):
        text = "Heavy rain caused flooding, and the flooding raised food prices."
        sent = sent_by(
            lambda gw: gw.run_sample(extract_concepts_steps(text, self.discovery)),
            [{"concepts": ["flooding"]}, {"concepts": ["heavy rain", "flooding", "food prices"]}],
        )
        prompt = render_prompt(load_template("extraction"), {"Text": text})
        note = EXTRACTION_REASK.format(reason="1 usable concepts after filtering")
        assert sent == [("extraction", prompt), ("extraction", prompt + note)]


class TestCache:
    def test_hit_skips_compute(self):
        gw = Gateway(ScriptedMockBackend([]), cache=ResponseCache())
        key = make_cache_key(["a", "b"], [[0, 1], [0, 0]], "verifier-1", "verify", 5)
        calls = []
        assert gw.cached(key, lambda: calls.append(1) or {"v": 1}) == {"v": 1}
        assert gw.cached(key, lambda: calls.append(1) or {"v": 2}) == {"v": 1}
        assert len(calls) == 1

    def test_key_sensitivity(self):
        base = make_cache_key(["a", "b"], [[0, 1], [0, 0]], "be", "verify", 5)
        assert make_cache_key(["a", "c"], [[0, 1], [0, 0]], "be", "verify", 5) != base
        assert make_cache_key(["a", "b"], [[0, 0], [0, 0]], "be", "verify", 5) != base
        assert make_cache_key(["a", "b"], [[0, 1], [0, 0]], "other", "verify", 5) != base
        assert make_cache_key(["a", "b"], [[0, 1], [0, 0]], "be", "refine", 5) != base
        assert make_cache_key(["a", "b"], [[0, 1], [0, 0]], "be", "verify", 3) != base
        assert make_cache_key(["a", "b"], [[0, 1], [0, 0]], "be", "verify", 5) == base

    def test_disk_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        c1 = ResponseCache(path)
        c1.put("k", {"x": 1})
        c2 = ResponseCache(path)
        assert c2.get("k") == {"x": 1}

    def test_put_appends_one_line(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        c = ResponseCache(path)
        for k, (key, value) in enumerate([("a", 1), ("b", {"x": [1, 2]}), ("a", 3)], start=1):
            c.put(key, value)
            with open(path) as fh:
                lines = fh.readlines()
            assert len(lines) == k and lines[-1] == json.dumps({key: value}) + "\n"
        assert ResponseCache(path).data == {"a": 3, "b": {"x": [1, 2]}}  # the last line for a key wins

    def test_torn_last_line_dropped_with_warning(self, tmp_path, caplog):
        path = str(tmp_path / "cache.jsonl")
        c = ResponseCache(path)
        c.put("k1", {"v": 1})
        c.put("k2", {"v": 2})
        with open(path, "r+") as fh:
            fh.truncate(len(fh.read()) - 4)  # cut inside the k2 line
        with caplog.at_level("WARNING", logger="causaltext.gateway"):
            c2 = ResponseCache(path)
        assert c2.data == {"k1": {"v": 1}}
        assert any("torn last line" in r.message for r in caplog.records)
        c2.put("k3", {"v": 3})
        assert ResponseCache(path).data == {"k1": {"v": 1}, "k3": {"v": 3}}

    def test_a_cache_file_that_cannot_be_read_raises_cache_io_error(self, tmp_path):
        with pytest.raises(CacheIoError, match="cannot read cache at"):
            ResponseCache(str(tmp_path))  # a directory

    def test_a_cache_file_that_cannot_be_written_raises_cache_io_error(self, tmp_path):
        cache = ResponseCache(str(tmp_path / "missing" / "cache.jsonl"))
        with pytest.raises(CacheIoError, match="cannot write cache at"):
            cache.put("k", {"v": 1})

    def test_single_object_cache_file_is_read(self, tmp_path):
        path = str(tmp_path / "cache.json")
        old = {"a": {"x": 1}, "b": [1, 2]}
        with open(path, "w") as fh:
            json.dump(old, fh)  # one object, no trailing newline
        c = ResponseCache(path)
        assert c.data == old
        c.put("c", 3)
        assert ResponseCache(path).data == {**old, "c": 3}
        with open(path) as fh:
            assert fh.read() == json.dumps(old) + "\n" + json.dumps({"c": 3}) + "\n"


class TestLedger:
    def test_totals_equal_sum_over_samples(self):
        led = UsageLedger()
        led.record("s1", 10, 5)
        led.record("s1", 7, 3)
        led.record("s2", 1, 1)
        per = led.per_sample()
        assert per["s1"]["total"] == 25 and per["s1"]["calls"] == 2
        assert led.totals()["total"] == sum(v["total"] for v in per.values())

    def test_returned_counts_are_copies(self):
        led = UsageLedger()
        led.record("s", 2, 3)
        led.per_sample()["s"]["total"] = 99
        led.totals()["calls"] = 99
        led.record("s", 1, 1)
        assert led.per_sample() == {"s": {"input": 3, "output": 4, "total": 7, "calls": 2}}
        assert led.totals() == {"input": 3, "output": 4, "total": 7, "calls": 2}

    def test_sample_is_a_copy_of_one_samples_counts(self):
        led = UsageLedger()
        led.record("s1", 10, 5)
        led.record("s2", 1, 1)
        one = led.sample("s1")
        assert one == led.per_sample()["s1"]
        one["total"] = 99
        assert led.sample("s1") == {"input": 10, "output": 5, "total": 15, "calls": 1}
        assert led.sample("unseen") == {"input": 0, "output": 0, "total": 0, "calls": 0}
        led.sample("unseen")["calls"] = 1
        assert "unseen" not in led.per_sample()

    def test_gateway_records_usage(self):
        gw = Gateway(ScriptedMockBackend(["one two three"]))
        gw.complete(BackendProfile.for_role("m", "proposer"), "a b", sample_id="s")
        assert gw.ledger.per_sample()["s"]["total"] == 5


class TestVerifierChoice:
    def test_cycles_to_next(self):
        pool = ["m1", "m2", "m3"]
        assert choose_verifier("m1", pool) == "m2"
        assert choose_verifier("m2", pool) == "m3"
        assert choose_verifier("m3", pool) == "m1"

    def test_unknown_primary(self):
        assert choose_verifier("other", ["m1", "m2"]) == "m1"

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            choose_verifier("m", [])


@dataclasses.dataclass
class Raw:
    """A scripted reply that the stub writes as it is; with ``close`` the stub then ends the connection."""
    data: bytes
    close: bool = False


# a reply envelope whose content is the JSON text {"k": "raw"}
ENVELOPE = json.dumps({"choices": [{"message": {"content": '{"k": "raw"}'}}],
                       "usage": {"prompt_tokens": 1, "completion_tokens": 1}}).encode()


class TestHttpBackend:
    def test_missing_credential(self, monkeypatch):
        monkeypatch.delenv("NO_SUCH_KEY", raising=False)
        with pytest.raises(AuthError):
            HttpBackend("http://localhost:1/v1", "NO_SUCH_KEY")

    @pytest.mark.parametrize("env, key, named", [
        ("CAUSALTEXT_API_KEY", None, "no credential in $CAUSALTEXT_API_KEY"),  # no --config: the defaults
        ("SOME_KEY", None, "no credential in $SOME_KEY"),
        ("SOME_KEY", "secret", "endpoint must be an http:// or https:// URL, got ''"),
        ("SOME_KEY", "abc\n", "credential in $SOME_KEY holds a control or non-ASCII character"),
    ])
    def test_a_missing_credential_or_endpoint_stops_generate_before_the_store(self, monkeypatch, tmp_path, env, key,
                                                                              named):
        if key is None:
            monkeypatch.delenv(env, raising=False)
        else:
            monkeypatch.setenv(env, key)
        graphs, out, cfg = str(tmp_path / "graphs"), str(tmp_path / "s.jsonl"), tmp_path / "c.ini"
        assert CliRunner().invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        config = []
        if env != "CAUSALTEXT_API_KEY":
            cfg.write_text(f"[backends]\ncredential_env = {env}\n")  # and the default endpoint, none
            config = ["--config", str(cfg)]
        r = CliRunner().invoke(main, ["generate", *config, "--graphs", graphs, "--out", out])
        assert r.exit_code == 1 and r.output == f"Error: {named}\n"
        assert not os.path.exists(out) and not os.path.exists(out + ".manifest.json")

    @pytest.mark.parametrize("endpoint", ["http://localhost:1/v1/chat completions", "http://localhost:1/v1\x00"])
    def test_an_endpoint_that_cannot_go_in_a_request_line_is_refused(self, monkeypatch, endpoint):
        monkeypatch.setenv("SOME_KEY", "secret")
        with pytest.raises(TransportError, match="without spaces or control characters"):
            HttpBackend(endpoint, "SOME_KEY")

    def test_transport_error_after_retries(self, monkeypatch):
        monkeypatch.setenv("SOME_KEY", "secret")
        b = HttpBackend("http://localhost:1/v1", "SOME_KEY", retries=1, backoff=0.0)
        with pytest.raises(TransportError):
            b.complete(build_payload(BackendProfile.for_role("m", "proposer"), "p"))

    @pytest.mark.parametrize("content", [
        b"<html>bad gateway</html>",
        b'{"choices": []}',
        b'{"choices": [{"message": {"role": "assistant", "content": null, "refusal": "no"}}]}',
    ])
    def test_malformed_body_raises_malformed_output(self, monkeypatch, stub, content):
        stub.responses.append((200, content))
        monkeypatch.setenv("SOME_KEY", "secret")
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0)
        with pytest.raises(MalformedOutput) as exc:
            b.complete(build_payload(BackendProfile.for_role("m", "proposer"), "p"))
        assert exc.value.raw_text == content.decode()
        b.close()

    def test_a_body_nested_too_deeply_raises_malformed_output(self, stub):
        stub.responses.append((200, NESTED.encode()))
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0)
        with pytest.raises(MalformedOutput, match="RecursionError") as exc:
            b.complete(build_payload(VERIFIER, "p"))
        assert exc.value.raw_text == NESTED[:200]
        b.close()

    @pytest.mark.parametrize("usage", [
        {},
        {"usage": None},
        {"usage": {"prompt_tokens": "7", "completion_tokens": 2.0}},
        {"usage": {"prompt_tokens": None}},
    ])
    def test_unusable_token_counts_are_estimated(self, stub, usage):
        envelope = {"choices": [{"message": {"content": "two words"}}], **usage}
        stub.responses.append((200, json.dumps(envelope).encode()))
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0)
        text, counts = b.complete(build_payload(VERIFIER, "a b c"))
        b.close()
        assert text == "two words" and counts == {"input_tokens": 3, "output_tokens": 2}

    def test_null_content_fails_one_sample_and_the_manifest_is_written(self, stub, tmp_path):
        runner = CliRunner()
        graphs, out = str(tmp_path / "graphs"), str(tmp_path / "s.jsonl")
        assert runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        refusal = b'{"choices": [{"message": {"content": null}}], "usage": null}'
        stub.responses.extend([(200, refusal)] * 8)  # one phase-2 request per graph
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[backends]\nendpoint = {stub.endpoint}\ncredential_env = SOME_KEY\n")
        r = runner.invoke(main, ["generate", "--config", str(cfg), "--graphs", graphs, "--out", out])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
        assert "generated 0, failed 8, skipped 0" in r.stdout
        assert json.loads(Path(out + ".manifest.json").read_text())["errors"] == 8
        assert stub.requests == 8

    @pytest.mark.parametrize("status", [401, 403])
    def test_an_auth_refusal_fails_only_its_own_sample_and_the_manifest_is_written(self, stub, tmp_path, status):
        stub.reply = oracle_reply
        stub.responses.append((status, b'{"error": "bad key"}'))  # the first sample's phase-2 request
        graphs, out = TestGenerateInFlight().graphs(tmp_path, n_max=4), str(tmp_path / "s.jsonl")
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[backends]\nendpoint = {stub.endpoint}\ncredential_env = SOME_KEY\nmax_in_flight = 1\n")
        r = CliRunner().invoke(main, ["generate", "--config", str(cfg), "--graphs", graphs, "--out", out])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
        assert "generated 1, failed 1, skipped 0" in r.stdout
        first, second = SampleStore(out)
        assert first.error == f"AuthError: HTTP {status} from {stub.endpoint}"
        assert second.error is None and second.loop_status == "Success"
        assert json.loads(Path(out + ".manifest.json").read_text())["errors"] == 1

    @pytest.mark.parametrize("proxy", ["https://127.0.0.1:1", "socks5://127.0.0.1:1"])
    def test_a_proxy_that_is_not_http_stops_generate_before_the_store(self, monkeypatch, tmp_path, proxy):
        no_proxy_and_a_key(monkeypatch)
        monkeypatch.setenv("http_proxy", proxy)
        graphs, out, cfg = str(tmp_path / "graphs"), str(tmp_path / "s.jsonl"), tmp_path / "c.ini"
        assert CliRunner().invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        cfg.write_text("[backends]\nendpoint = http://llm.example/v1\ncredential_env = SOME_KEY\n")
        r = CliRunner().invoke(main, ["generate", "--config", str(cfg), "--graphs", graphs, "--out", out])
        assert r.exit_code == 1 and r.output == f"Error: proxy must be an http:// URL, got {proxy!r}\n"
        assert not os.path.exists(out) and not os.path.exists(out + ".manifest.json")

    def test_a_request_whose_write_fails_closes_its_connection_and_is_retried(self, monkeypatch, stub):
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=1, backoff=0.0)
        checkout, shut = b._checkout, []

        def checkout_shut_once():
            conn = checkout()
            if not shut:
                conn.sock.shutdown(socket.SHUT_WR)  # so the request's write fails
                shut.append(conn)
            return conn

        monkeypatch.setattr(b, "_checkout", checkout_shut_once)
        assert json.loads(b.complete(build_payload(VERIFIER, "p"))[0]) == {"k": "p"}
        b.close()
        assert shut[0].sock.fileno() == -1  # closed
        assert stub.requests == 1

    def test_many_calls_share_at_most_window_connections(self, stub):
        b = HttpBackend(stub.endpoint, "SOME_KEY")
        prompts = [f"p{k}" for k in range(40)]
        replies = Gateway(b, max_in_flight=4).run_sample(one_batch(prompts))
        b.close()
        assert replies == [{"k": p} for p in prompts]
        assert stub.requests == 40
        assert 1 <= stub.connections <= 4

    def test_idle_connection_closed_by_the_server_is_replaced_without_a_retry(self, stub):
        stub.close_after_reply = True
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0)  # any retry would fail the call
        payload = build_payload(VERIFIER, "first")
        assert json.loads(b.complete(payload)[0]) == {"k": "first"}
        assert stub.closed.wait(5)
        assert len(b._idle) == 1  # kept, as the reply did not say it would close
        assert json.loads(b.complete(build_payload(VERIFIER, "second"))[0]) == {"k": "second"}
        b.close()
        assert stub.requests == 2 and stub.connections == 2

    def test_429_then_200_succeeds(self, stub):
        stub.responses.append((429, b"slow down"))
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=1, backoff=0.0)
        text, usage = b.complete(build_payload(VERIFIER, "p"))
        b.close()
        assert json.loads(text) == {"k": "p"} and usage == {"input_tokens": 1, "output_tokens": 1}
        assert stub.requests == 2

    def test_http_proxy_gets_the_absolute_url(self, monkeypatch, stub):
        monkeypatch.setenv("http_proxy", f"http://user:pw@127.0.0.1:{stub.port}")
        b = HttpBackend("http://llm.example:8080/v1/chat/completions?x=1", "SOME_KEY", retries=0)
        assert json.loads(b.complete(build_payload(VERIFIER, "p"))[0]) == {"k": "p"}
        b.close()
        assert stub.targets == ["http://llm.example:8080/v1/chat/completions?x=1"]
        assert sorted(stub.headers[0].items()) == sorted([
            ("Host", "llm.example:8080"), ("Accept-Encoding", "identity"),
            ("Content-Length", str(len(stub.bodies[0]))), ("Authorization", "Bearer secret"),
            ("Content-Type", "application/json"), ("Proxy-Authorization", "Basic dXNlcjpwdw=="),  # user:pw
        ])

    def test_no_proxy_goes_direct(self, monkeypatch, stub):
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:1")  # nothing listens there
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0)
        assert json.loads(b.complete(build_payload(VERIFIER, "p"))[0]) == {"k": "p"}
        b.close()
        assert stub.targets == ["/v1/chat/completions"]

    @pytest.mark.parametrize("endpoint, host", [
        (None, "127.0.0.1:{port}"),
        ("http://llm.example/v1/chat/completions", "llm.example"),  # the default port is left out
    ], ids=["port", "default-port"])
    def test_the_direct_route_sends_the_expected_headers(self, monkeypatch, stub, endpoint, host):
        connect = socket.create_connection
        monkeypatch.setattr(socket, "create_connection", lambda address, *args: connect(("127.0.0.1", stub.port), *args))
        b = HttpBackend(endpoint or stub.endpoint, "SOME_KEY", retries=0)
        assert json.loads(b.complete(build_payload(VERIFIER, "p"))[0]) == {"k": "p"}
        b.close()
        assert stub.targets == ["/v1/chat/completions"]
        assert sorted(stub.headers[0].items()) == sorted([
            ("Host", host.format(port=stub.port)), ("Accept-Encoding", "identity"),
            ("Content-Length", str(len(stub.bodies[0]))), ("Authorization", "Bearer secret"),
            ("Content-Type", "application/json"),
        ])

    @pytest.mark.parametrize("raw", [
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"
        + b"a;name=value\r\n" + ENVELOPE[:10] + b"\r\n"
        + b"%x\r\n" % (len(ENVELOPE) - 10) + ENVELOPE[10:] + b"\r\n"
        + b"0\r\nX-Trailer: done\r\n\r\n",
        b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(ENVELOPE) + ENVELOPE,
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\ncontent-length: %d\r\n\r\n" % (len(ENVELOPE), len(ENVELOPE)) + ENVELOPE,
    ], ids=["chunked-with-extension-and-trailer", "interim-100", "equal-content-lengths"])
    def test_a_reply_is_read_whole_and_its_connection_kept(self, stub, raw):
        stub.responses.append(Raw(raw))
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0, timeout=5)  # any retry would fail the call
        assert b.complete(build_payload(VERIFIER, "first")) == ('{"k": "raw"}', {"input_tokens": 1, "output_tokens": 1})
        assert json.loads(b.complete(build_payload(VERIFIER, "second"))[0]) == {"k": "second"}
        b.close()
        assert stub.requests == 2 and stub.connections == 1

    @pytest.mark.parametrize("raw", [
        Raw(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + ENVELOPE, close=True),
        Raw(b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n" % len(ENVELOPE) + ENVELOPE),
        Raw(b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" % len(ENVELOPE) + ENVELOPE),
    ], ids=["ended-by-close", "connection-close", "http-1.0"])
    def test_a_reply_without_keep_alive_ends_its_connection(self, stub, raw):
        """The next call opens a new connection, without a retry, even where the server keeps the old one open."""
        stub.responses.append(raw)
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0, timeout=5)
        assert b.complete(build_payload(VERIFIER, "first"))[0] == '{"k": "raw"}'
        assert json.loads(b.complete(build_payload(VERIFIER, "second"))[0]) == {"k": "second"}
        b.close()
        assert stub.requests == 2 and stub.connections == 2

    @pytest.mark.parametrize("retries", [0, 1])
    @pytest.mark.parametrize("raw", [
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(ENVELOPE) + ENVELOPE[:20],
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n" % len(ENVELOPE) + ENVELOPE + b"\r\n",
    ], ids=["content-length", "chunked"])
    def test_a_body_cut_short_is_retried(self, stub, raw, retries):
        stub.responses.append(Raw(raw, close=True))
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=retries, backoff=0.0, timeout=5)
        payload = build_payload(VERIFIER, "p")
        if retries:
            assert json.loads(b.complete(payload)[0]) == {"k": "p"}
        else:
            with pytest.raises(TransportError):
                b.complete(payload)
        b.close()
        assert stub.requests == retries + 1

    @pytest.mark.parametrize("head, error", [
        (b"X-Long: " + b"a" * 65536 + b"\r\n", "got more than 65536 bytes when reading header line"),
        (b"".join(b"X-%d: v\r\n" % k for k in range(101)), "got more than 100 headers"),
    ], ids=["long-line", "101-headers"])
    def test_an_oversized_head_ends_in_transport_error(self, stub, head, error):
        """The server keeps the connection open, so a client that read on would wait for its timeout."""
        stub.responses.append(Raw(b"HTTP/1.1 200 OK\r\n" + head + b"Content-Length: 2\r\n\r\n{}"))
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0, timeout=30)
        with pytest.raises(TransportError, match=error):
            b.complete(build_payload(VERIFIER, "p"))
        b.close()

    @pytest.mark.parametrize("raw, error", [
        (b"Content-Length: 99999999999999\r\n\r\n", "reply body of more than 16777216 bytes"),
        (b"Transfer-Encoding: chunked\r\n\r\nfffffffffff\r\n", "reply body of more than 16777216 bytes"),
        (b"Transfer-Encoding: chunked\r\n\r\n" + b"%x\r\n%s\r\n" % (60, b"x" * 60) * 2,
         "reply body of more than 100 bytes"),
        (b"\r\n" + b"x" * 150, "reply body of more than 100 bytes"),  # to be ended by a close that never comes
        (b"Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}", "differing Content-Length values"),
    ], ids=["content-length", "chunk-size", "chunked-total", "close-delimited", "two-content-lengths"])
    def test_an_unbounded_or_ambiguous_body_ends_in_transport_error(self, monkeypatch, stub, raw, error):
        """Refused before it is read, while the server holds the connection open."""
        if "100 bytes" in error:
            monkeypatch.setattr("causaltext.gateway._MAXBODY", 100)
        stub.responses.append(Raw(b"HTTP/1.1 200 OK\r\n" + raw))
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0, timeout=30)
        with pytest.raises(TransportError, match=error):
            b.complete(build_payload(VERIFIER, "p"))
        b.close()

    def test_an_https_endpoint(self, tls_stub):
        b = HttpBackend(tls_stub.endpoint, "SOME_KEY", retries=0)
        assert json.loads(b.complete(build_payload(VERIFIER, "p"))[0]) == {"k": "p"}
        prompts = [f"p{k}" for k in range(20)]
        assert Gateway(b, max_in_flight=4).run_sample(one_batch(prompts)) == [{"k": p} for p in prompts]
        b.close()
        assert tls_stub.requests == 21 and 1 <= tls_stub.connections <= 4
        assert tls_stub.headers[0]["Host"] == f"127.0.0.1:{tls_stub.port}"

    def test_one_tls_context_serves_every_connection(self, monkeypatch, tls_stub):
        made, create = [], ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", lambda *args, **kw: made.append(args) or create(*args, **kw))
        tls_stub.close_after_reply = True  # so connections are opened again and again
        b = HttpBackend(tls_stub.endpoint, "SOME_KEY", retries=3, backoff=0.0)
        prompts = [f"p{k}" for k in range(12)]
        assert Gateway(b, max_in_flight=4).run_sample(one_batch(prompts)) == [{"k": p} for p in prompts]
        b.close()
        assert tls_stub.connections >= 12 and len(made) == 1

    @pytest.mark.parametrize("credentials", ["", "user:pw@"], ids=["anonymous", "credentials"])
    def test_an_https_endpoint_through_a_proxy_tunnel(self, monkeypatch, tmp_path, stub, credentials):
        stub.tunnel_tls = trusted_tls(monkeypatch, tmp_path)
        monkeypatch.setenv("https_proxy", f"http://{credentials}127.0.0.1:{stub.port}")
        b = HttpBackend("https://127.0.0.1:8443/v1/chat/completions", "SOME_KEY", retries=0)
        assert json.loads(b.complete(build_payload(VERIFIER, "p"))[0]) == {"k": "p"}
        prompts = [f"p{k}" for k in range(8)]
        assert Gateway(b, max_in_flight=4).run_sample(one_batch(prompts)) == [{"k": p} for p in prompts]
        b.close()
        connect = b"CONNECT 127.0.0.1:8443 HTTP/1.1\r\nHost: 127.0.0.1:8443\r\n"
        if credentials:
            connect += b"Proxy-Authorization: Basic dXNlcjpwdw==\r\n"  # user:pw
        assert stub.connects == [connect] * stub.connections and 1 <= stub.connections <= 4
        assert stub.requests == 9 and stub.targets == ["/v1/chat/completions"] * 9
        assert sorted(stub.headers[0].items()) == sorted([  # the proxy's credentials stay on the CONNECT
            ("Host", "127.0.0.1:8443"), ("Accept-Encoding", "identity"),
            ("Content-Length", str(len(stub.bodies[0]))), ("Authorization", "Bearer secret"),
            ("Content-Type", "application/json"),
        ])

    @pytest.mark.parametrize("endpoint, credentials, connect", [
        ("https://llm.example/v1", "", b"CONNECT llm.example:443 HTTP/1.1\r\nHost: llm.example:443\r\n"),
        ("https://llm.example/v1", "user:pw@", b"CONNECT llm.example:443 HTTP/1.1\r\nHost: llm.example:443\r\n"
                                               b"Proxy-Authorization: Basic dXNlcjpwdw==\r\n"),
        ("https://b\u00fccher.example/v1", "",
         b"CONNECT xn--bcher-kva.example:443 HTTP/1.1\r\nHost: xn--bcher-kva.example:443\r\n"),
        ("https://[::1]:8443/v1", "", b"CONNECT [::1]:8443 HTTP/1.1\r\nHost: [::1]:8443\r\n"),
    ], ids=["anonymous", "credentials", "non-ascii-host", "ipv6"])
    def test_the_connect_request_on_the_wire(self, monkeypatch, stub, endpoint, credentials, connect):
        """The same bytes on every Python; the stream through the tunnel then opens with a TLS handshake record."""
        monkeypatch.setenv("https_proxy", f"http://{credentials}127.0.0.1:{stub.port}")
        b = HttpBackend(endpoint, "SOME_KEY", retries=0, timeout=5)
        with pytest.raises(TransportError):  # the stub ends the tunnel after the handshake's first bytes
            b.complete(build_payload(VERIFIER, "p"))
        assert stub.connects == [connect] and stub.tunnelled == [b"\x16\x03"] and stub.requests == 0

    @pytest.mark.parametrize("status", [407, 502])
    def test_a_proxy_that_refuses_the_tunnel(self, monkeypatch, stub, status):
        stub.tunnel_status = status
        monkeypatch.setenv("https_proxy", f"http://127.0.0.1:{stub.port}")
        b = HttpBackend("https://llm.example/v1", "SOME_KEY", retries=1, backoff=0.0, timeout=5)
        with pytest.raises(TransportError, match=f"proxy refused the tunnel: b'HTTP/1.1 {status} "):
            b.complete(build_payload(VERIFIER, "p"))
        assert len(stub.connects) == 2 and stub.requests == 0

    def test_vote_tables_do_not_depend_on_the_window(self, stub):
        def verdict(prompt):
            digest = hashlib.sha256(prompt.encode()).digest()
            if digest[1] % 4 == 0 and "could not be parsed" not in prompt:
                return "let me think"  # re-asked
            return json.dumps({"direct cause": "yes" if digest[0] % 2 else "no"})

        stub.reply = verdict
        dag = Dag(n=4, edges=np.array([[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=np.int8))
        ca = ConceptAssignment(["Rain", "Wet grass", "Slippery road", "Accident"], "weather")
        tables, requests = [], []
        for window in (8, 1):
            before = stub.requests
            b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0)
            gw = Gateway(b, max_in_flight=window)
            tables.append(counterfactual_verification(ca, analyze_causal_structure(dag), dag, gw, VERIFIER, m=5))
            b.close()
            requests.append(stub.requests - before)
        assert tables[0] == tables[1]
        assert set(tables[0].s.values()) == {0.0, 1.0}
        assert requests[0] == requests[1] > 12 * 5  # some prompts were re-asked


VERIFIER = BackendProfile.for_role("v", "verifier")


class FakeHandle:
    def __init__(self, backend, prompt):
        self.backend, self.prompt = backend, prompt

    def result(self):
        self.backend.finish(self, "read")
        text = self.backend.reply(self.prompt)
        return text, {"input_tokens": 1, "output_tokens": 1}

    def cancel(self):
        self.backend.finish(self, "cancel")


class WindowBackend:
    """A backend with ``submit`` whose replies come from ``reply(prompt)``;
    it logs every submit, read and cancel, and the most requests pending at once."""

    def __init__(self, reply):
        self.reply = reply
        self.log = []
        self.pending = set()
        self.most_pending = 0

    def submit(self, payload, meta=None):
        handle = FakeHandle(self, payload["messages"][1]["content"])
        self.log.append(("submit", handle.prompt))
        self.pending.add(handle)
        self.most_pending = max(self.most_pending, len(self.pending))
        return handle

    def finish(self, handle, how):
        assert handle in self.pending, "a handle was read or cancelled twice"
        self.pending.discard(handle)
        self.log.append((how, handle.prompt))

    def submitted(self):
        return [p for event, p in self.log if event == "submit"]


class RefusingBackend(WindowBackend):
    """A WindowBackend whose ``submit`` raises AuthError from the ``refuse_at``-th send on,
    as a backend does when its credential stops being accepted."""

    def __init__(self, reply, refuse_at):
        super().__init__(reply)
        self.refuse_at = refuse_at

    def submit(self, payload, meta=None):
        if len(self.submitted()) + 1 >= self.refuse_at:
            raise AuthError("refused")
        return super().submit(payload, meta)


def flaky(bad):
    """Replies {"k": prompt}, except a first ask of a prompt in ``bad``, which gets prose."""

    def reply(prompt):
        if prompt in bad:
            return "no JSON here"
        return json.dumps({"k": prompt.split("\n\n")[0]})

    return reply


REASK_NOTE = "\n\n" + JSON_REASK.format(keys="'k'")


def one_batch(prompts, template=None, take=None):
    """A pipeline that sends ``prompts`` as one batch and returns the first ``take``
    replies (all by default), asking for them one at a time as they are read."""
    yield [Request(VERIFIER, p, ("k",), template) for p in prompts]
    replies = []
    for _ in range(len(prompts) if take is None else take):
        replies += yield 1
    return replies


class TestCompleteJsonMany:
    """One sample's batch of prompts through ``run_sample``: the window, the
    order of re-asks and what is cancelled."""

    prompts = [f"p{k}" for k in range(12)]

    def test_replies_in_prompt_order_within_the_window(self):
        backend = WindowBackend(flaky({"p1", "p5"}))
        out = Gateway(backend, max_in_flight=4).run_sample(one_batch(self.prompts))
        assert out == [{"k": p} for p in self.prompts]
        assert backend.most_pending == 4 and not backend.pending
        assert len(backend.submitted()) == 14

    def test_reask_goes_before_prompts_not_yet_started(self):
        backend = WindowBackend(flaky({"p0"}))
        Gateway(backend, max_in_flight=2).run_sample(one_batch(self.prompts[:4]))
        assert backend.log[:5] == [
            ("submit", "p0"), ("submit", "p1"), ("read", "p0"), ("submit", "p0" + REASK_NOTE), ("read", "p1"),
        ]
        assert backend.submitted() == ["p0", "p1", "p0" + REASK_NOTE, "p2", "p3"]

    def test_spent_reasks_yield_malformed_output(self):
        backend = WindowBackend(lambda prompt: "never JSON" if prompt.startswith("p2") else json.dumps({"k": 1}))
        out = Gateway(backend, max_in_flight=3).run_sample(one_batch(self.prompts[:4]))
        assert [type(r) for r in out] == [dict, dict, MalformedOutput, dict]
        assert out[2].raw_text == "never JSON"
        assert backend.submitted().count("p2" + REASK_NOTE) == 2

    def test_a_refused_send_stops_the_sample_at_exactly_that_send(self):
        backend = RefusingBackend(flaky(set()), refuse_at=6)
        gw = Gateway(backend, max_in_flight=4)
        with pytest.raises(AuthError):
            gw.run_sample(one_batch(self.prompts))
        assert len(backend.submitted()) == 5 and gw.calls_made == 5
        assert not backend.pending

    def test_closing_early_cancels_every_pending_request(self):
        backend = WindowBackend(flaky(set()))
        assert Gateway(backend, max_in_flight=4).run_sample(one_batch(self.prompts, take=1)) == [{"k": "p0"}]
        assert not backend.pending
        # the sample ends as the read of p0 frees a slot, before the slot is filled again
        assert [e for e in backend.log if e[0] == "cancel"] == [("cancel", p) for p in ("p1", "p2", "p3")]

    def test_failed_read_cancels_every_pending_request(self):
        def reply(prompt):
            if prompt == "p2":
                raise TransportError("gone")
            return json.dumps({"k": prompt})

        backend = WindowBackend(reply)
        with pytest.raises(TransportError):
            Gateway(backend, max_in_flight=4).run_sample(one_batch(self.prompts))
        assert not backend.pending

    def test_window_one_matches_sequential_complete_json(self):
        bad = {"p3", "p7", "p7" + REASK_NOTE}
        backend = WindowBackend(flaky(bad))
        windowed = Gateway(backend, max_in_flight=1).run_sample(one_batch(self.prompts))
        scripted = RecordingBackend([flaky(bad)(p) for p in backend.submitted()])
        gw = Gateway(scripted)
        sequential = []
        for p in self.prompts:
            try:
                sequential.append(gw.complete_json(VERIFIER, p, ["k"], template="verify"))
            except MalformedOutput as exc:
                sequential.append(exc)
        assert [p for _, p in scripted.sent] == backend.submitted()
        assert isinstance(windowed[7], MalformedOutput) and isinstance(sequential[7], MalformedOutput)
        assert windowed[7].args == sequential[7].args and windowed[7].raw_text == sequential[7].raw_text
        assert windowed[:7] + windowed[8:] == sequential[:7] + sequential[8:]
        assert backend.most_pending == 1

    def test_backend_without_submit_is_asked_one_prompt_at_a_time(self):
        backend = RecordingBackend([json.dumps({"k": 0}), "x", "x", "x", json.dumps({"k": 2})])
        out = Gateway(backend).run_sample(one_batch(["a", "b", "c"], template="verify"))
        assert out[0] == {"k": 0} and isinstance(out[1], MalformedOutput) and out[2] == {"k": 2}
        assert [p for _, p in backend.sent] == ["a", "b", "b" + REASK_NOTE, "b" + REASK_NOTE, "c"]


class _StubHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 5

    def log_message(self, format, *args):
        pass

    def setup(self):
        super().setup()
        with self.server.stub.lock:
            self.server.stub.connections += 1

    def do_POST(self):
        stub = self.server.stub
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        body = json.loads(raw)
        with stub.lock:
            stub.requests += 1
            stub.bodies.append(raw)
            stub.targets.append(self.path)
            stub.headers.append(self.headers)
            scripted = stub.responses.pop(0) if stub.responses else None
        if isinstance(scripted, Raw):
            self.wfile.write(scripted.data)
            self.close_connection = scripted.close
            return
        if scripted is None:
            text = stub.reply(body["messages"][-1]["content"])
            envelope = {"choices": [{"message": {"content": text}}], "usage": {"prompt_tokens": 1, "completion_tokens": 1}}
            status, payload = 200, json.dumps(envelope).encode()
        else:
            status, payload = scripted
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.close_connection = stub.close_after_reply

    def do_CONNECT(self):
        """Act as the proxy, and as the server at the far end of the tunnel."""
        stub = self.server.stub
        with stub.lock:
            stub.connects.append(self.raw_requestline + b"".join(
                f"{name}: {value}\r\n".encode("latin-1") for name, value in self.headers.items()))
        self.send_response(stub.tunnel_status)
        self.send_header("Content-Length", "0")
        self.end_headers()
        if stub.tunnel_status != 200:
            self.close_connection = True
        elif stub.tunnel_tls is None:
            stub.tunnelled.append(self.rfile.read(2))  # the first bytes through the tunnel
            self.close_connection = True
        else:
            self.rfile.close()
            self.connection = stub.tunnel_tls.wrap_socket(self.connection, server_side=True)
            self.rfile = self.connection.makefile("rb")
            self.wfile = self.connection.makefile("wb")

    def finish(self):
        super().finish()
        if self.connection is not self.request:  # the tunnel's TLS socket, which the server does not know of
            self.connection.close()


class _StubServer(http.server.ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 64  # a window's connections open at once; a full backlog drops one, for a 1 s retry

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.stub.closed.set()


class StubServer:
    """A keep-alive chat-completion stub on 127.0.0.1, one thread per connection.

    It replies ``reply(prompt)`` (by default ``{"k": prompt}``), or the next
    scripted ``(status, body)`` or ``Raw`` reply in ``responses``, counts connections and
    requests, and keeps each request's body, target and headers as received.  With ``close_after_reply`` it closes
    each connection after one reply without saying so in its headers.  Given an ``ssl.SSLContext`` it speaks HTTPS.

    It also acts as a proxy: it keeps each CONNECT request's line and fields, as received, in ``connects`` and
    answers ``tunnel_status``.  After a 200 it serves the tunnelled stream itself, over TLS with the server context
    ``tunnel_tls``; without one, it keeps the first two bytes the client sends through the tunnel in
    ``tunnelled`` and closes the connection.
    """

    def __init__(self, tls=None):
        self.lock = threading.Lock()
        self.reply = lambda prompt: json.dumps({"k": prompt})
        self.responses, self.targets, self.headers, self.bodies = [], [], [], []
        self.connects, self.tunnelled, self.tunnel_status, self.tunnel_tls = [], [], 200, None
        self.connections = self.requests = 0
        self.close_after_reply = False
        self.closed = threading.Event()
        self._httpd = _StubServer(("127.0.0.1", 0), _StubHandler)
        self._httpd.stub = self
        if tls is not None:
            self._httpd.socket = tls.wrap_socket(self._httpd.socket, server_side=True)
        self.port = self._httpd.server_address[1]
        self.endpoint = f"{'https' if tls else 'http'}://127.0.0.1:{self.port}/v1/chat/completions"
        self._thread = threading.Thread(target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05})

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


def no_proxy_and_a_key(monkeypatch):
    for var in ("http_proxy", "https_proxy", "no_proxy", "HTTP_PROXY", "HTTPS_PROXY", "NO_PROXY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("SOME_KEY", "secret")


@pytest.fixture
def stub(monkeypatch):
    no_proxy_and_a_key(monkeypatch)
    with StubServer() as server:
        yield server


@pytest.fixture
def tls_stub(monkeypatch, tmp_path):
    """The stub over HTTPS."""
    no_proxy_and_a_key(monkeypatch)
    with StubServer(trusted_tls(monkeypatch, tmp_path)) as server:
        yield server


def trusted_tls(monkeypatch, tmp_path):
    """A server context with a self-signed certificate for 127.0.0.1 that clients trust through ``SSL_CERT_FILE``."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("the openssl command, which makes the test certificate, is not installed")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run([openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1", "-nodes",
                    "-keyout", str(key), "-out", str(cert), "-days", "1", "-subj", "/CN=127.0.0.1",
                    "-addext", "subjectAltName=IP:127.0.0.1"], check=True, capture_output=True)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    context.options |= getattr(ssl, "OP_IGNORE_UNEXPECTED_EOF", 0)  # the client closes without a TLS close_notify
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    return context


def oracle_reply(prompt):
    """Answers the pipeline from the prompt alone: each concept names its node
    and the adjacency matrix, so verifier and text prompts need no memory of
    the proposal and samples can be served in any order."""
    lines = prompt.splitlines()
    if lines[0] == "Adjacency Matrix:":  # phase2
        rows = list(itertools.takewhile(lambda row: row and set(row) <= {"0", "1"}, lines[1:]))
        return json.dumps({ASSIGNED: [f"Node {i}: F{i} {'-'.join(rows)}" for i in range(len(rows))]})
    if lines[0] == "Concepts under consideration:":  # verify
        i, code = re.search(r"Cause candidate: F(\d+) ([01-]+)", prompt).groups()
        j = int(re.search(r"Effect candidate: F(\d+)", prompt).group(1))
        return json.dumps({"direct cause": "yes" if code.split("-")[int(i)][j] == "1" else "no"})
    if lines[0] == "Concepts:":  # phase3
        return json.dumps({DESC: f"We follow {lines[1]}."})
    raise AssertionError(f"unexpected prompt {lines[0]!r}")


def sample_of(prompt):
    """The adjacency matrix a prompt of ``oracle_reply``'s pipeline belongs to."""
    found = re.search(r"F\d+ ([01-]+)", prompt)
    if found:
        return found.group(1)
    return "-".join(itertools.takewhile(lambda row: row and set(row) <= {"0", "1"}, prompt.splitlines()[1:]))


class SampleWindowBackend(WindowBackend):
    """A ``WindowBackend`` that also counts the samples with requests pending at once."""

    most_samples = 0

    def submit(self, payload, meta=None):
        handle = super().submit(payload, meta)
        self.most_samples = max(self.most_samples, len({sample_of(h.prompt) for h in self.pending}))
        return handle


PROPOSER = BackendProfile.for_role("m", "proposer")
PHASE3 = BackendProfile.for_role("m", "phase3")
EDGES = {
    "a": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    "b": [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]],
    "c": [[0, 0, 1], [0, 0, 1], [0, 0, 0]],
}


# a JSON text nested past the parser's recursion limit
NESTED = '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}"


def loops(gw, edges, ids, config=None):
    """``run_samples`` over one ``run_loop_steps`` pipeline per id, as {id: (result, error)}."""
    dags = {sid: Dag(n=len(edges[sid]), edges=np.array(edges[sid], dtype=np.int8)) for sid in ids}
    samples = [(sid, run_loop_steps(dags[sid], "d", PROPOSER, VERIFIER, config)) for sid in ids]
    return {sid: (result, error) for sid, result, error in gw.run_samples(samples)}


class TestRunSamples:
    def test_samples_share_the_window_and_count_their_own_tokens(self):
        backend = SampleWindowBackend(oracle_reply)
        gw = Gateway(backend, max_in_flight=8)
        out = loops(gw, EDGES, ["a", "b", "c"])
        assert backend.most_samples == 3 and backend.most_pending == 8 and not backend.pending
        solo = SampleWindowBackend(oracle_reply)
        solo_gw = Gateway(solo, max_in_flight=1)
        alone = loops(solo_gw, EDGES, ["a", "b", "c"])
        assert solo.most_samples == 1
        for sid in "abc":
            result, error = out[sid]
            assert error is None and result.status == "Success"
            assert gw.ledger.sample(sid)["total"] > 0
            assert gw.ledger.sample(sid) == solo_gw.ledger.sample(sid)
            assert result.to_json() == alone[sid][0].to_json()
        assert sum(gw.ledger.sample(sid)["total"] for sid in "abc") == gw.ledger.totals()["total"]

    def test_results_come_out_in_admission_order(self):
        gw = Gateway(WindowBackend(oracle_reply), max_in_flight=8)
        # "b" has four nodes, so it finishes after "c" but is handed out before it
        assert list(loops(gw, EDGES, ["a", "b", "c"])) == ["a", "b", "c"]

    def test_a_key_in_flight_is_joined_not_computed_twice(self):
        twins = {"x": EDGES["b"], "y": EDGES["b"]}
        calls = {}
        for window in (8, 1):
            gw = Gateway(SampleWindowBackend(oracle_reply), cache=ResponseCache(), max_in_flight=window)
            out = loops(gw, twins, ["x", "y"])
            assert all(error is None for _, error in out.values())
            calls[window] = {sid: gw.ledger.sample(sid) for sid in twins}
        assert calls[8] == calls[1]
        assert calls[8]["y"]["calls"] == 1  # its phase-2 request; the votes came from "x"
        assert calls[8]["x"]["calls"] == 1 + 12 * 5

    def test_a_table_cached_at_another_m_is_recomputed_once(self):
        twins = {"x": EDGES["b"], "y": EDGES["b"]}
        calls = {}
        for window in (8, 1):
            gw = Gateway(SampleWindowBackend(oracle_reply), max_in_flight=window)
            loops(gw, {"w": EDGES["b"]}, ["w"])  # caches the table at m = 5
            out = loops(gw, twins, ["x", "y"], config=LoopConfig(m=3))
            assert all(error is None for _, error in out.values())
            assert out["x"][0].to_json() == out["y"][0].to_json()
            calls[window] = {sid: gw.ledger.sample(sid) for sid in twins}
        assert calls[8] == calls[1]
        assert calls[8]["x"]["calls"] == 1 + 12 * 3
        assert calls[8]["y"]["calls"] == 1  # its phase-2 request; it waited for the m = 3 votes of "x"

    def test_the_waiter_computes_the_key_when_its_owner_fails(self):
        seen = collections.Counter()

        def reply(prompt):
            # every vote on the first pair fails for the first sample to ask: 5 votes x 3 asks
            if "Cause candidate: F0" in prompt and "Effect candidate: F1" in prompt:
                seen["first pair"] += 1
                if seen["first pair"] <= 15:
                    return "no JSON"
            return oracle_reply(prompt)

        backend = WindowBackend(reply)
        gw = Gateway(backend, cache=ResponseCache(), max_in_flight=8)
        out = loops(gw, {"x": EDGES["b"], "y": EDGES["b"]}, ["x", "y"])
        assert isinstance(out["x"][1], VerificationError)
        assert out["y"][1] is None and out["y"][0].status == "Success"
        assert gw.ledger.sample("y")["calls"] == 1 + 12 * 5
        assert not backend.pending

    def test_a_passed_on_claim_keeps_its_waiters(self):
        seen = collections.Counter()

        def reply(prompt):
            # every vote on the first pair fails for the first sample to ask: 5 votes x 3 asks
            if "Cause candidate: F0" in prompt and "Effect candidate: F1" in prompt:
                seen["first pair"] += 1
                if seen["first pair"] <= 15:
                    return "no JSON"
            return oracle_reply(prompt)

        backend = WindowBackend(reply)
        gw = Gateway(backend, max_in_flight=8)
        out = loops(gw, {sid: EDGES["b"] for sid in "xyz"}, ["x", "y", "z"])
        assert isinstance(out["x"][1], VerificationError)
        assert out["y"][1] is None and out["y"][0].status == "Success"
        assert out["z"][1] is None and out["z"][0].to_json() == out["y"][0].to_json()
        assert gw.ledger.sample("y")["calls"] == 1 + 12 * 5
        assert gw.ledger.sample("z")["calls"] == 1  # its phase-2 request; it waited for the votes of "y"
        assert not backend.pending

    def test_an_error_fails_only_its_own_sample(self):
        def reply(prompt):
            if prompt.startswith("Adjacency Matrix:\n010\n001\n000\n"):
                return json.dumps({ASSIGNED: ["Node 0: x"]})  # wrong count for sample "a"
            return oracle_reply(prompt)

        backend = WindowBackend(reply)
        out = loops(Gateway(backend, max_in_flight=8), EDGES, ["a", "b", "c"])
        assert isinstance(out["a"][1], MalformedOutput)
        assert out["b"][1] is None and out["c"][1] is None
        assert not backend.pending

    @pytest.mark.parametrize("window", [1, 3, 8, None], ids=["window-1", "window-3", "window-8", "without-submit"])
    def test_a_reply_nested_too_deeply_fails_only_its_own_sample(self, window):
        def reply(prompt):
            return NESTED if sample_of(prompt) == "0110-0001-0001-0000" else oracle_reply(prompt)  # sample "b"

        class Sequential:
            def complete(self, payload, meta=None):
                return reply(payload["messages"][1]["content"]), {"input_tokens": 1, "output_tokens": 1}

        backend = Sequential() if window is None else WindowBackend(reply)
        out = loops(Gateway(backend, max_in_flight=window or 8), EDGES, ["a", "b", "c"])
        assert list(out) == ["a", "b", "c"]
        assert isinstance(out["b"][1], MalformedOutput) and "after 2 re-asks" in str(out["b"][1])
        assert out["a"][1] is None and out["c"][1] is None and out["c"][0].status == "Success"

    def test_a_refused_send_fails_the_sample_it_belongs_to(self):
        backend = RefusingBackend(oracle_reply, refuse_at=1 + 6 * 5 + 2)
        gw = Gateway(backend, max_in_flight=8)
        out = loops(gw, EDGES, ["a", "b"])
        assert isinstance(out["b"][1], AuthError)
        assert gw.calls_made == len(backend.submitted()) == 1 + 6 * 5 + 1
        assert not backend.pending

    def test_an_unexpected_exception_cancels_every_pending_request(self):
        def reply(prompt):
            if prompt.startswith("Concepts:"):
                raise RuntimeError("boom")
            return oracle_reply(prompt)

        backend = SampleWindowBackend(reply)
        with pytest.raises(RuntimeError, match="boom"):
            loops_and_text(Gateway(backend, max_in_flight=8))
        assert backend.most_samples == 3
        assert not backend.pending and any(event == "cancel" for event, _ in backend.log)

    def test_a_backend_without_submit_serves_one_sample_at_a_time(self):
        sent = []

        class Recording:
            def complete(self, payload, meta=None):
                sent.append(sample_of(payload["messages"][1]["content"]))
                return oracle_reply(payload["messages"][1]["content"]), {"input_tokens": 1, "output_tokens": 1}

        gw = Gateway(Recording(), max_in_flight=8)
        out = loops(gw, EDGES, ["a", "b", "c"])
        assert all(error is None for _, error in out.values())
        runs = [k for k, _ in itertools.groupby(sent)]
        assert len(runs) == 3  # each sample's calls are contiguous

    @pytest.mark.parametrize("step", ["p0", None, 1.5, True, (Request(VERIFIER, "p0", ("k",)),)])
    def test_a_step_of_no_known_kind_raises_type_error_with_nothing_pending(self, step):
        def steps():
            yield [Request(VERIFIER, p, ("k",)) for p in ("p0", "p1", "p2", "p3")]
            yield 1
            yield step

        backend = WindowBackend(flaky(set()))
        with pytest.raises(TypeError, match="a sample pipeline yielded"):
            Gateway(backend, max_in_flight=4).run_sample(steps())
        assert not backend.pending and len(backend.submitted()) == 4

    @pytest.mark.parametrize("tail", [[5], [-1], [1, "abandon", 1]])
    def test_asking_for_replies_the_open_batch_does_not_hold_raises_type_error(self, tail):
        def steps():
            yield [Request(VERIFIER, p, ("k",)) for p in ("p0", "p1", "p2", "p3")]
            for step in tail:
                yield CacheGet("x") if step == "abandon" else step

        backend = WindowBackend(flaky(set()))
        with pytest.raises(TypeError, match="replies its open batch does not hold"):
            Gateway(backend, max_in_flight=4).run_sample(steps())
        assert not backend.pending

    def test_a_refused_reask_ends_only_its_own_sample(self):
        backend = RefusingBackend(flaky({"a"}), refuse_at=3)
        gw = Gateway(backend, max_in_flight=8)
        out = {sid: (result, error) for sid, result, error in
               gw.run_samples([("a", one_batch(["a"])), ("b", one_batch(["b"]))])}
        assert out["a"][0] is None and isinstance(out["a"][1], AuthError)
        assert out["b"] == ([{"k": "b"}], None)
        assert backend.submitted() == ["a", "b"] and gw.calls_made == 2
        assert not backend.pending


def model_reply(fault, prompt):
    """The reply to ``prompt`` under ``fault``: TransportError for "read", prose for
    "prose", else ``{"k": the prompt without a re-ask note}``."""
    kind = fault(prompt)
    if kind == "read":
        raise TransportError(f"read {prompt!r}")
    return "no JSON here" if kind == "prose" else json.dumps({"k": prompt.split("\n\n")[0]})


class FaultyBackend(WindowBackend):
    """A WindowBackend whose every outcome is a function of the prompt: ``fault(prompt)``
    is None, "send" (``submit`` raises AuthError), "read" or "prose" (see ``model_reply``)."""

    def __init__(self, fault):
        super().__init__(functools.partial(model_reply, fault))
        self.fault = fault

    def submit(self, payload, meta=None):
        prompt = payload["messages"][1]["content"]
        if self.fault(prompt) == "send":
            raise AuthError(f"send {prompt!r}")
        return super().submit(payload, meta)


class FaultySequential:
    """``FaultyBackend`` without ``submit``: a refused send is met when the call is made."""

    def __init__(self, fault):
        self.fault = fault

    def complete(self, payload, meta=None):
        prompt = payload["messages"][1]["content"]
        if self.fault(prompt) == "send":
            raise AuthError(f"send {prompt!r}")
        return model_reply(self.fault, prompt), {"input_tokens": 1, "output_tokens": 1}


def seeded_fault(seed):
    """3 % of sends are refused, 12 % of reads raise and 11 % of replies are prose, by a hash of the prompt."""

    def fault(prompt):
        def roll(kind):
            return zlib.crc32(f"{seed}/{kind}/{prompt}".encode()) % 100

        if roll("send") < 3:
            return "send"
        if roll("read") < 12:
            return "read"
        return "prose" if roll("prose") < 11 else None

    return fault


def model_program(rng, keys):
    """1-4 random steps: a batch read in part or in full, a cache key, or a raise."""
    ops = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if keys and roll < 0.3:
            ops.append(("get", rng.choice(keys)))
        elif roll < 0.93:
            size = rng.randint(0, 5)
            reads, left = [], size
            while left and rng.random() < 0.85:
                reads.append(rng.randint(0, left))
                left -= reads[-1]
            ops.append(("batch", size, reads))
        else:
            ops.append(("raise", RuntimeError if rng.random() < 0.1 else VerificationError))
    return ops


def model_steps(tag, ops, computes, copies=1):
    """The pipeline of ``ops``: what it was handed, as text.  A cache key missed is
    computed by the key's own program, so its value and its faults depend only on the key.
    Each request object of a batch fills ``copies`` slots in a row, as a pair's votes do."""
    got = []
    for n, op in enumerate(ops):
        if op[0] == "batch":
            requests = [Request(VERIFIER, f"{tag}.{n}.{i}", ("k",)) for i in range(-(-op[1] // copies))]
            yield [requests[i // copies] for i in range(op[1])]
            for k in op[2]:
                got += [r["k"] if isinstance(r, dict) else f"MalformedOutput: {r}" for r in (yield k)]
        elif op[0] == "get":
            value = yield CacheGet(op[1])
            if value is None:
                yield from model_steps(op[1], computes[op[1]], {}, copies)
                value = f"value of {op[1]}"
                yield CachePut(op[1], value)
            got.append(value)
        else:
            raise op[1](f"{tag} gives up at step {n}")
    return got


def run_model(make, window, fault, programs, computes, copies=1):
    """Each sample's outcome, in admission order, or the repr of the exception that stopped the run;
    checks that every handle is read or cancelled once, within the window, and none is left."""
    backend = make(fault)
    gw = Gateway(backend, max_in_flight=window)
    samples = [(sid, model_steps(sid, ops, computes, copies)) for sid, ops in programs]
    try:
        out = [(sid, result, error and f"{type(error).__name__}: {error}")
               for sid, result, error in gw.run_samples(samples)]
    except RuntimeError as exc:
        out = repr(exc)
    if isinstance(backend, WindowBackend):
        assert not backend.pending and backend.most_pending <= window
    return out, backend


MODEL_RUNS = [(FaultyBackend, 1), (FaultyBackend, 3), (FaultyBackend, 8), (FaultySequential, 8)]


def padded(reply):
    """``reply`` with one more trailing space on each call than on the last, so no two are the same text."""
    spaces = itertools.count()
    return lambda prompt: reply(prompt) + " " * next(spaces)


class PaddedFaultyBackend(FaultyBackend):
    """A FaultyBackend whose replies are ``padded``."""

    def __init__(self, fault):
        super().__init__(fault)
        self.reply = padded(self.reply)


class TestSchedulerModel:
    """A sample's outcome, its result or the error it ends with, is the same at
    every window and without ``submit``: a failed send or read fills its reply
    slot, and the sample ends with the lowest-indexed failure among the replies
    its steps asked for."""

    def test_seeded_cases_agree_at_every_window(self):
        differ = []
        for seed in range(300):
            rng = random.Random(seed)
            computes = {key: model_program(rng, ()) for key in ("x", "y")}
            programs = [(f"s{k}", model_program(rng, ("x", "y"))) for k in range(rng.randint(1, 6))]
            fault = seeded_fault(seed)
            outs = [run_model(make, window, fault, programs, computes)[0] for make, window in MODEL_RUNS]
            differ += [(seed, make.__name__, window) for (make, window), out in zip(MODEL_RUNS, outs)
                       if out != outs[0]]
            # a run closed after its first outcome leaves nothing pending
            backend = FaultyBackend(fault)
            runs = Gateway(backend, max_in_flight=8).run_samples(
                [(sid, model_steps(sid, ops, computes)) for sid, ops in programs])
            try:
                next(runs, None)
            except RuntimeError:
                pass
            runs.close()
            assert not backend.pending
        assert differ == []

    def test_seeded_cases_with_repeated_requests_agree_at_every_window(self):
        # one request object fills 1-4 slots in a row, so its copies meet one fault and read one text;
        # the last run's replies all differ in text
        runs = MODEL_RUNS + [(PaddedFaultyBackend, 8)]
        differ = []
        for seed in range(300):
            rng = random.Random(f"repeated/{seed}")
            copies = rng.randint(1, 4)
            computes = {key: model_program(rng, ()) for key in ("x", "y")}
            programs = [(f"s{k}", model_program(rng, ("x", "y"))) for k in range(rng.randint(1, 6))]
            fault = seeded_fault(seed)
            outs = [run_model(make, window, fault, programs, computes, copies)[0] for make, window in runs]
            differ += [(seed, make.__name__, window) for (make, window), out in zip(runs, outs) if out != outs[0]]
        assert differ == []

    # the prompts of a one-batch program's first four requests
    A, B, C, D = (f"s.0.{i}" for i in range(4))

    def test_the_lowest_failure_asked_for_ends_the_sample(self):
        # b's first reply is prose and its re-ask fails; c fails too
        b_reask = self.B + REASK_NOTE
        fault = {self.B: "prose", b_reask: "read", self.C: "read"}.get
        for make, window in MODEL_RUNS:
            out, backend = run_model(make, window, fault, [("s", [("batch", 3, [3])])], {})
            assert out == [("s", None, f"TransportError: read {b_reask!r}")], (make, window)
            if window == 1:
                assert backend.submitted() == [self.A, self.B, b_reask]  # c is never sent

    def test_a_refused_later_send_met_first_does_not_end_the_sample(self):
        # at window 3, c's send is refused before a's read fails
        fault = {self.A: "read", self.C: "send"}.get
        for make, window in MODEL_RUNS:
            out, _ = run_model(make, window, fault, [("s", [("batch", 3, [1, 2])])], {})
            assert out == [("s", None, f"TransportError: read {self.A!r}")], (make, window)

    def test_a_failed_reply_never_asked_for_does_not_fail_the_sample(self):
        # a's re-ask is read after b's read fails; the steps ask for a alone
        fault = {self.A: "prose", self.B: "read"}.get
        for make, window in MODEL_RUNS:
            out, backend = run_model(make, window, fault, [("s", [("batch", 4, [1])])], {})
            assert out == [("s", [self.A], None)], (make, window)
            if make is FaultyBackend and window < 4:  # d is not sent once b's read has failed
                assert self.D not in backend.submitted(), window


def loops_and_text(gw):
    """Three samples of assignment loop plus paragraph, each to its end."""

    def pipeline(dag):
        result = yield from run_loop_steps(dag, "d", PROPOSER, VERIFIER)
        return (yield from generate_text_steps(dag, result.assignment, PHASE3))

    samples = [(sid, pipeline(Dag(n=len(e), edges=np.array(e, dtype=np.int8)))) for sid, e in EDGES.items()]
    return list(gw.run_samples(samples))


class TestGenerateInFlight:
    """``generate`` runs several samples at once and leaves nothing pending on any exit."""

    def graphs(self, tmp_path, n_max=10):
        cfg = tmp_path / "g.ini"
        cfg.write_text(f"[phase1]\nn_min = 3\nn_max = {n_max}\n")
        graphs = str(tmp_path / "graphs")
        r = CliRunner().invoke(main, ["graphgen", "--config", str(cfg), "--out", graphs, "--per-n", "1"])
        assert r.exit_code == 0, r.output
        return graphs

    def generate(self, monkeypatch, tmp_path, backend, graphs):
        monkeypatch.setattr("causaltext.cli.make_mock_backend", lambda script: backend)
        return CliRunner().invoke(
            main, ["generate", "--graphs", graphs, "--out", str(tmp_path / "s.jsonl"), "--mock-script", "{}"]
        )

    def test_an_unexpected_exception_cancels_every_pending_request(self, monkeypatch, tmp_path):
        def reply(prompt):
            if prompt.startswith("Concepts:"):
                raise RuntimeError("boom")
            return oracle_reply(prompt)

        backend = SampleWindowBackend(reply)
        r = self.generate(monkeypatch, tmp_path, backend, self.graphs(tmp_path))
        assert isinstance(r.exception, RuntimeError)
        assert backend.most_samples == 8 and not backend.pending

    def test_a_duplicate_id_stops_the_run_with_nothing_pending(self, monkeypatch, tmp_path):
        graphs = self.graphs(tmp_path)
        path = os.path.join(graphs, "n9_00000.json")
        payload = json.loads(Path(path).read_text())
        payload["id"] = "n10_00000"  # the id of the first file
        with open(path, "w") as fh:
            json.dump(payload, fh)
        backend = SampleWindowBackend(oracle_reply)
        r = self.generate(monkeypatch, tmp_path, backend, graphs)
        assert r.exit_code == 1 and "id 'n10_00000' already in store" in r.output
        assert backend.most_samples == 7 and not backend.pending
        assert [e for e in backend.log if e[0] == "cancel"]

    def test_a_failed_store_write_leaves_nothing_pending(self, monkeypatch, tmp_path):
        def append(self, record):
            raise OSError("disk full")

        monkeypatch.setattr("causaltext.cli.SampleStore.append", append)
        backend = WindowBackend(oracle_reply)
        # n3_00000 comes first and finishes while the larger graphs still have requests pending
        r = self.generate(monkeypatch, tmp_path, backend, self.graphs(tmp_path, n_max=9))
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == f"Error: --out: cannot write {tmp_path / 's.jsonl'}: disk full\n"
        assert not backend.pending and [e for e in backend.log if e[0] == "cancel"]

    def test_a_failed_cache_write_fails_only_its_own_sample(self, monkeypatch, tmp_path):
        put, refused = ResponseCache.put, []

        def put_refusing_once(self, key, value):
            if not refused:
                refused.append(key)
                raise CacheIoError("injected")
            put(self, key, value)

        backend = SampleWindowBackend(oracle_reply)
        monkeypatch.setattr(ResponseCache, "put", put_refusing_once)
        monkeypatch.setattr("causaltext.cli.make_mock_backend", lambda script: backend)
        out = str(tmp_path / "s.jsonl")
        r = CliRunner().invoke(main, ["generate", "--graphs", self.graphs(tmp_path, n_max=6), "--out", out,
                                      "--cache", str(tmp_path / "c.jsonl"), "--mock-script", "{}"])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
        assert "generated 3, failed 1, skipped 0" in r.stdout
        assert backend.most_samples == 4 and not backend.pending
        errors = [json.loads(line)["error"] for line in Path(out).read_text().splitlines()]
        assert sorted(errors, key=str) == ["CacheIoError: injected", None, None, None]
        assert json.loads(Path(out + ".manifest.json").read_text())["errors"] == 1

    def test_a_reply_nested_too_deeply_fails_only_its_own_sample(self, monkeypatch, tmp_path):
        def reply(prompt):
            return NESTED if sample_of(prompt).count("-") == 4 else oracle_reply(prompt)  # the 5-node graph

        out = tmp_path / "s.jsonl"
        r = self.generate(monkeypatch, tmp_path, WindowBackend(reply), self.graphs(tmp_path))
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
        assert "generated 7, failed 1, skipped 0" in r.stdout and r.output.count("Error:") == 1
        records = {record["id"]: record for record in map(json.loads, out.read_text().splitlines())}
        assert len(records) == 8 and records["n5_00000"]["error"].startswith("MalformedOutput: ")
        assert all(record["error"] is None for sid, record in records.items() if sid != "n5_00000")
        assert json.loads(Path(f"{out}.manifest.json").read_text())["errors"] == 1

    def test_a_concept_entry_not_of_the_node_form_fails_only_its_sample(self, monkeypatch, tmp_path):
        class FirstEntrySpoiled(OracleMockBackend):
            spoiled = False

            def _answer(self, template, prompt):
                reply = super()._answer(template, prompt)
                if template == "phase2" and not self.spoiled:
                    self.spoiled = True
                    reply[ASSIGNED][0] = "Rain causes mud"
                return reply

        out = str(tmp_path / "s.jsonl")
        r = self.generate(monkeypatch, tmp_path, FirstEntrySpoiled(), self.graphs(tmp_path, n_max=4))
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
        assert "generated 1, failed 1, skipped 0" in r.stdout
        first, second = SampleStore(out)
        assert first.error == "MalformedOutput: cannot parse concept entry 'Rain causes mud'"
        assert second.error is None and second.loop_status == "Success"
        assert json.loads(Path(out + ".manifest.json").read_text())["errors"] == 1

    def test_records_do_not_depend_on_the_window(self, monkeypatch, tmp_path, stub):
        stub.reply = oracle_reply
        graphs = self.graphs(tmp_path, n_max=6)
        outstanding, most = [], [0]
        submit = HttpBackend.submit

        def tracked_submit(self, payload, meta=None):
            handle = submit(self, payload, meta)
            key = sample_of(payload["messages"][1]["content"])
            outstanding.append(key)
            most[0] = max(most[0], len(set(outstanding)))
            result, cancel = handle.result, handle.cancel
            handle.result = lambda: outstanding.remove(key) or result()
            handle.cancel = lambda: outstanding.remove(key) or cancel()
            return handle

        monkeypatch.setattr(HttpBackend, "submit", tracked_submit)
        stores, requests, samples = [], [], []
        for window in (8, 1):
            cfg = tmp_path / f"w{window}.ini"
            cfg.write_text(f"[backends]\nendpoint = {stub.endpoint}\ncredential_env = SOME_KEY\nmax_in_flight = {window}\n")
            out = str(tmp_path / f"w{window}.jsonl")
            before, most[0] = stub.requests, 0
            r = CliRunner().invoke(main, ["generate", "--config", str(cfg), "--graphs", graphs, "--out", out])
            assert r.exit_code == 0, r.output
            records = [json.loads(line) for line in Path(out).read_text().splitlines()]
            for record in records:
                record.pop("created_at")
            stores.append(records)
            requests.append(stub.requests - before)
            samples.append(most[0])
        assert len(stores[0]) == 4 and stores[0] == stores[1]
        assert requests[0] == requests[1]
        assert samples == [4, 1] and not outstanding

    def test_http_connections_are_closed_when_an_id_is_already_stored(self, monkeypatch, tmp_path, stub):
        stub.reply = oracle_reply
        graphs = self.graphs(tmp_path, n_max=4)
        closed = []
        close = HttpBackend.close
        monkeypatch.setattr(HttpBackend, "close", lambda self: closed.append(len(self._idle)) or close(self))
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[backends]\nendpoint = {stub.endpoint}\ncredential_env = SOME_KEY\n")
        gen = ["generate", "--config", str(cfg), "--graphs", graphs, "--out", str(tmp_path / "s.jsonl")]
        assert CliRunner().invoke(main, gen).exit_code == 0
        r = CliRunner().invoke(main, gen)
        assert r.exit_code == 1 and "already in store" in r.output
        assert len(closed) == 2 and closed[0] > 0


class FaultAt(OracleMockBackend):
    """The oracle mock, except that call ``at`` (counting from 0) raises
    TransportError ("transport") or KeyboardInterrupt ("interrupt", as Ctrl-C does),
    or replies with text that is not JSON ("junk")."""

    def __init__(self, at=-1, how="transport"):
        super().__init__()
        self.at, self.how = at, how
        self.templates = []

    def complete(self, payload, meta=None):
        self.templates.append(meta["template"])
        if len(self.templates) - 1 == self.at:
            if self.how == "transport":
                raise TransportError("injected")
            if self.how == "interrupt":
                raise KeyboardInterrupt
            return "no JSON here", {"input_tokens": 1, "output_tokens": 1}
        return super().complete(payload, meta)


class TestFaultSweep:
    """A fault at any one call of ``generate`` touches only the record of the
    sample it hits, and the manifest is still written; ``--resume`` then runs
    a failed sample again, so that each id's last record is the clean run's."""

    def run(self, tmp_path, name, gen):
        out = str(tmp_path / f"{name}.jsonl")
        r = CliRunner().invoke(main, [*gen, "--out", out])
        assert r.exit_code in (0, 1) and (r.exception is None or isinstance(r.exception, SystemExit)), r.output
        assert os.path.exists(out + ".manifest.json")
        return out, self.records(out)

    def records(self, out):
        records = [json.loads(line) for line in Path(out).read_text().splitlines()]
        for record in records:
            record.pop("created_at")
        return records

    def check(self, clean, out, records, gen, outcomes):
        """The index of the one record that differs from the clean run's, or None
        if none does, which only the outcome "retried" (a read the backend tried
        again) allows.  Its outcome must be one of ``outcomes``: the name of the error
        it carries, or "tokens" if it differs only in its tokens (a reply asked again,
        or a verifier reply that abstains).  A resume then leaves each id's last
        record equal to the clean run's, tokens aside, and no error in the manifest."""
        assert len(records) == len(clean)
        differ = [k for k, (a, b) in enumerate(zip(clean, records)) if a != b]
        k = None
        if not differ:
            assert "retried" in outcomes
        elif records[differ[0]]["error"] is None:
            (k,) = differ
            assert "tokens" in outcomes and {**records[k], "tokens": None} == {**clean[k], "tokens": None}
        else:
            (k,) = differ
            assert records[k]["error"].split(":")[0] in outcomes
        resumed = CliRunner().invoke(main, [*gen, "--out", out, "--resume"])
        assert resumed.exit_code == 0, resumed.output
        last = {record["id"]: {**record, "tokens": None} for record in self.records(out)}
        assert last == {record["id"]: {**record, "tokens": None} for record in clean}
        assert json.loads(Path(out + ".manifest.json").read_text())["errors"] == 0
        return k

    def test_every_call_of_an_oracle_run(self, monkeypatch, tmp_path):
        graphs = TestGenerateInFlight().graphs(tmp_path, n_max=4)
        gen = ["generate", "--graphs", graphs, "--mock-script", "{}"]
        backend = FaultAt()
        monkeypatch.setattr("causaltext.cli.make_mock_backend", lambda script: backend)
        _, clean = self.run(tmp_path, "clean", gen)
        templates = backend.templates
        assert len(clean) == 2 and len(templates) == 94 and templates.count("phase2") == 2
        for how, outcome in (("transport", "TransportError"), ("junk", "tokens")):
            for at in range(len(templates)):
                backend = FaultAt(at, how)  # the resume, past call ``at``, meets no fault
                k = self.check(clean, *self.run(tmp_path, f"{how}{at}", gen), gen, [outcome])
                # samples run one at a time, each from its phase-2 call on
                assert k == templates[: at + 1].count("phase2") - 1

    def test_a_stride_of_calls_over_http_at_window_8(self, tmp_path, stub, monkeypatch):
        stub.reply = oracle_reply
        # a read that is tried again waits no backoff
        monkeypatch.setattr(HttpBackend, "__init__", functools.partialmethod(HttpBackend.__init__, backoff=0.0))
        graphs = TestGenerateInFlight().graphs(tmp_path, n_max=4)
        cfg = tmp_path / "w8.ini"
        cfg.write_text(f"[backends]\nendpoint = {stub.endpoint}\ncredential_env = SOME_KEY\nmax_in_flight = 8\n")
        gen = ["generate", "--config", str(cfg), "--graphs", graphs]
        _, clean = self.run(tmp_path, "clean", gen)
        calls = stub.requests
        assert len(clean) == 2 and calls > 50
        junk = json.dumps({"choices": [{"message": {"content": "no JSON here"}}]}).encode()
        nested_text = json.dumps({"choices": [{"message": {"content": NESTED}}]}).encode()
        faults = [
            ((400, b"bad request"), ["TransportError"]),
            ((200, b"<html>"), ["MalformedOutput", "tokens"]),  # no envelope
            ((200, junk), ["tokens"]),
            ((200, nested_text), ["tokens"]),  # a reply text nested too deeply to parse is asked again
            ((200, NESTED.encode()), ["MalformedOutput", "tokens"]),  # a body nested too deeply to parse
            (Raw(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\n"), ["retried"]),  # refused unread
        ]
        for n, (fault, outcomes) in enumerate(faults):
            for at in range(0, calls, 12):
                stub.responses[:] = [None] * at + [fault]  # None: the stub's own reply
                self.check(clean, *self.run(tmp_path, f"fault{n}-{at}", gen), gen, outcomes)
                assert not stub.responses


@pytest.mark.parametrize("at, stored", [(0, 0), (300, 0), (452, 1), (900, 5), (1655, 7)])
def test_an_interrupted_run_writes_the_manifest_of_its_store_and_a_resume_finishes_it(monkeypatch, tmp_path,
                                                                                     at, stored):
    graphs = TestGenerateInFlight().graphs(tmp_path)
    out = str(tmp_path / "s.jsonl")
    gen = ["generate", "--graphs", graphs, "--mock-script", '{"mode": "oracle"}']
    clean = CliRunner().invoke(main, [*gen, "--out", str(tmp_path / "clean.jsonl")])
    assert clean.exit_code == 0, clean.output
    with monkeypatch.context() as m:
        backend = FaultAt(at, "interrupt")
        m.setattr("causaltext.cli.make_mock_backend", lambda script: backend)
        r = CliRunner().invoke(main, [*gen, "--out", out])
    assert r.exit_code == 1 and r.output.endswith("Aborted!\n") and len(backend.templates) == at + 1
    assert backend.templates.count("phase2") - 1 == stored == len(SampleStore(out))
    written = Path(out + ".manifest.json").read_text()
    settings = json.loads(written)
    RunManifest.from_store(SampleStore(out), config=settings["config"], seed=settings["seed"]).save(out + ".fresh")
    assert Path(out + ".fresh").read_text() == written and sum(settings["per_n_counts"].values()) == stored
    r = CliRunner().invoke(main, [*gen, "--out", out, "--resume"])
    assert r.exit_code == 0 and f"generated {8 - stored}, failed 0, skipped {stored}" in r.stdout

    def records(path):
        return [{**json.loads(line), "created_at": None} for line in Path(path).read_text().splitlines()]

    assert records(out) == records(tmp_path / "clean.jsonl")


def test_a_resume_runs_the_one_failed_sample_again(monkeypatch, tmp_path):
    graphs = TestGenerateInFlight().graphs(tmp_path)
    gen = ["generate", "--graphs", graphs, "--out", str(tmp_path / "s.jsonl"), "--mock-script", '{"mode": "oracle"}']
    with monkeypatch.context() as m:
        m.setattr("causaltext.cli.make_mock_backend", lambda script: FaultAt(0))
        r = CliRunner().invoke(main, gen)
    assert r.exit_code == 1 and "generated 7, failed 1, skipped 0" in r.stdout
    r = CliRunner().invoke(main, [*gen, "--resume"])
    assert r.exit_code == 0 and "generated 1, failed 0, skipped 7" in r.stdout
    records = [json.loads(line) for line in Path(tmp_path / "s.jsonl").read_text().splitlines()]
    assert len(records) == 9 and records[-1]["id"] == records[0]["id"]
    assert records[0]["error"] == "TransportError: injected" and records[-1]["error"] is None
    manifest = json.loads(Path(tmp_path / "s.jsonl.manifest.json").read_text())
    assert manifest["errors"] == 0 and manifest["success_rate"] == 1.0
    assert manifest["per_n_counts"] == {str(n): 1 for n in range(3, 11)}
    r = CliRunner().invoke(main, gen)
    assert r.exit_code == 1 and "already in store" in r.output


def reader_reply(prompt):
    """Replies to ``gen_id_refine_steps``: a paragraph is its target matrix's rows,
    joined by "-", plus one "+" per revision, and a reader picks up one more of
    the target's edges, in row-major order, for each "+"."""
    lines = prompt.splitlines()
    if lines[0] == "Text:":  # discovery
        code, revisions = lines[1].rstrip("+"), lines[1].count("+")
        target = np.array([[int(c) for c in row] for row in code.split("-")])
        found = np.zeros_like(target)
        for i, j in list(zip(*np.nonzero(target)))[:revisions]:
            found[i, j] = 1
        return json.dumps({"adjacency matrix": found.tolist()})
    previous = lines[lines.index("A previous paragraph for this task was:") + 1]  # phase3 revision
    return json.dumps({DESC: previous + "+"})


class TestGenIdRefineSideBySide:
    def test_two_refinements_share_the_window_and_match_their_runs_alone(self):
        discovery = BackendProfile.for_role("m", "discovery")

        def refine(sid):
            edges = np.array(EDGES[sid], dtype=np.int8)
            assignment = ConceptAssignment([f"{sid}{k}" for k in range(len(edges))], "d")
            paragraph = Paragraph("-".join("".join(map(str, row)) for row in edges), assignment)
            return gen_id_refine_steps(Dag(n=len(edges), edges=edges), assignment, paragraph, PHASE3, discovery)

        backend = WindowBackend(reader_reply)
        together = {sid: (result, error) for sid, result, error in
                    Gateway(backend, max_in_flight=8).run_samples([(sid, refine(sid)) for sid in "ab"])}
        assert backend.most_pending == 2 and not backend.pending
        for sid, edge_count in (("a", 2), ("b", 4)):
            alone = Gateway(WindowBackend(reader_reply), max_in_flight=8).run_sample(refine(sid))
            (paragraph, revisions, trace), error = together[sid]
            assert error is None and revisions == min(edge_count, 3)
            assert [t["mismatch"] for t in trace] == list(range(edge_count, edge_count - revisions - 1, -1))
            assert (paragraph.to_json(), revisions, trace) == (alone[0].to_json(), *alone[1:])


class UsageBackend:
    """A backend without ``submit`` whose usage per prompt is known.  A prompt
    is ``"<sample id>:<k>"``, a re-ask that plus its note; the reply is
    ``{"k": prompt}``, except a first ask in ``prose``, which gets prose, and a
    prompt in ``broken``, which raises TransportError.  ``served`` holds, per
    sample id, the usage of every reply handed back, in the ledger's form."""

    def __init__(self, prose=(), broken=()):
        self.prose, self.broken = set(prose), set(broken)
        self.served = {}

    def complete(self, payload, meta=None):
        prompt = payload["messages"][1]["content"]
        ask = prompt.split("\n\n")[0]
        if ask in self.broken:
            raise TransportError("gone")
        text = "no JSON here" if prompt in self.prose else json.dumps({"k": ask})
        usage = {"input_tokens": len(prompt), "output_tokens": 1 + len(ask) % 7}
        counts = self.served.setdefault(ask.split(":")[0], dict.fromkeys(("input", "output", "total", "calls"), 0))
        counts["input"] += usage["input_tokens"]
        counts["output"] += usage["output_tokens"]
        counts["total"] += usage["input_tokens"] + usage["output_tokens"]
        counts["calls"] += 1
        return text, usage

    def totals(self):
        return {key: sum(counts[key] for counts in self.served.values()) for key in ("input", "output", "total", "calls")}


class UsageSubmitBackend(UsageBackend):
    """A ``UsageBackend`` with ``submit``: a reply is served when it is read, and a cancelled one never."""

    class Handle:
        def __init__(self, backend, payload):
            self.backend, self.payload = backend, payload

        def result(self):
            return self.backend.complete(self.payload)

        def cancel(self):
            pass

    def submit(self, payload, meta=None):
        return self.Handle(self, payload)


def usage_steps(sid, sizes, key=None):
    """A pipeline of one batch of ``"<sid>:<k>"`` prompts per entry of ``sizes``,
    its result cached under ``key`` if given and taken from the cache if there."""
    if key is not None:
        cached = yield CacheGet(key)
        if cached is not None:
            return cached
    replies, k = [], 0
    for size in sizes:
        yield [Request(VERIFIER, f"{sid}:{k + i}", ("k",)) for i in range(size)]
        replies += yield size
        k += size
    if key is not None:
        yield CachePut(key, replies)
    return replies


class TestUsageAccounting:
    """The ledger holds, per sample, exactly the usage of the replies read for it,
    whatever the window and however the sample ends."""

    BACKENDS = [(UsageSubmitBackend, 1), (UsageSubmitBackend, 3), (UsageSubmitBackend, 8), (UsageBackend, 8)]

    @pytest.mark.parametrize("make, window", BACKENDS)
    def test_ledger_equals_what_was_served(self, make, window):
        backend = make(prose={"p:1", "p:4"}, broken={"f:5"})
        gw = Gateway(backend, max_in_flight=window)
        samples = [
            ("a", usage_steps("a", [3, 2], key="shared")),
            ("f", usage_steps("f", [4, 4])),  # fails in its second batch, with requests of it pending
            ("b", usage_steps("b", [3, 2], key="shared")),  # waits for the value "a" computes
            ("p", usage_steps("p", [2, 3])),  # two prose replies, each re-asked once
            ("q", usage_steps("q", [1])),
        ]
        out = {sid: (result, error) for sid, result, error in gw.run_samples(samples)}
        assert isinstance(out["f"][1], TransportError)
        assert out["b"] == out["a"] == ([{"k": f"a:{k}"} for k in range(5)], None)
        assert out["p"] == ([{"k": f"p:{k}"} for k in range(5)], None)
        assert set(backend.served) == {"a", "f", "p", "q"}  # "b" read nothing
        assert backend.served["p"]["calls"] == 5 + 2 and backend.served["f"]["calls"] >= 4
        assert gw.ledger.per_sample() == backend.served
        assert gw.ledger.totals() == backend.totals()
        assert gw.ledger.sample("b") == {"input": 0, "output": 0, "total": 0, "calls": 0}

    @pytest.mark.parametrize("make, window", BACKENDS)
    def test_usage_read_before_an_unexpected_exception_stays_in_the_ledger(self, make, window):
        def raising(sid):
            yield [Request(VERIFIER, f"{sid}:{k}", ("k",)) for k in range(3)]
            yield 3
            raise RuntimeError("boom")

        backend = make(prose={"a:0"})
        gw = Gateway(backend, max_in_flight=window)
        samples = [("a", usage_steps("a", [4, 4])), ("r", raising("r")), ("q", usage_steps("q", [6]))]
        with pytest.raises(RuntimeError, match="boom"):
            list(gw.run_samples(samples))
        assert backend.served["r"]["calls"] == 3
        assert gw.ledger.per_sample() == backend.served
        assert gw.ledger.totals() == backend.totals()


class TestRequestBuiltOnce:
    """A request's payload is built once and shared by its sends; a re-ask builds its own."""

    def test_each_distinct_request_is_built_once(self, monkeypatch):
        built = []

        def counting_build_payload(profile, prompt):
            built.append(prompt)
            return build_payload(profile, prompt)

        monkeypatch.setattr("causaltext.gateway.build_payload", counting_build_payload)
        asked = collections.Counter()

        def reply(prompt):
            asked[prompt] += 1
            if "Cause candidate: F0" in prompt and "Effect candidate: F1" in prompt and asked[prompt] == 1 \
                    and "could not be parsed" not in prompt:
                return "let me think"  # the first of the pair's votes is re-asked, once in each sample
            return oracle_reply(prompt)

        sent, snapshots = [], {}

        class Recording(WindowBackend):
            def submit(self, payload, meta=None):
                sent.append(payload)
                snapshots.setdefault(id(payload), copy.deepcopy(payload))
                return super().submit(payload, meta)

        gw = Gateway(Recording(reply), max_in_flight=8)
        assert all(error is None for _, _, error in loops_and_text(gw))
        note = JSON_REASK.split("{")[0]
        prompts = [payload["messages"][1]["content"] for payload in sent]
        reasks = [prompt for prompt in prompts if note in prompt]
        distinct = {prompt for prompt in prompts if note not in prompt}
        assert len(reasks) == 3 and len(sent) == gw.calls_made
        assert len(built) == len(distinct) + len(reasks) < len(sent)
        assert all(prompt.endswith("\n\n" + JSON_REASK.format(keys="'direct cause'")) for prompt in reasks)
        by_prompt = collections.defaultdict(list)
        for payload, prompt in zip(sent, prompts):
            by_prompt[prompt].append(payload)
        votes = [group for prompt, group in by_prompt.items() if prompt.startswith("Concepts under consideration:")
                 and note not in prompt]
        assert votes and all(len(group) == 5 for group in votes)
        for group in votes:
            assert all(payload == group[0] for payload in group)
        # no send, re-ask or backend changed a payload it was handed
        assert all(payload == snapshots[id(payload)] for payload in sent)

    def test_a_pairs_votes_reach_the_server_as_equal_bodies(self, stub):
        def verdict(prompt):
            if "Effect candidate: Accident" in prompt and "could not be parsed" not in prompt:
                return "let me think"  # re-asked
            return json.dumps({"direct cause": "yes" if "Cause candidate: Rain" in prompt else "no"})

        stub.reply = verdict
        dag = Dag(n=3, edges=np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=np.int8))
        ca = ConceptAssignment(["Rain", "Wet grass", "Accident"], "weather")
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0)
        counterfactual_verification(ca, analyze_causal_structure(dag), dag, Gateway(b, max_in_flight=4), VERIFIER, m=5)
        b.close()
        bodies = collections.defaultdict(set)
        counts = collections.Counter()
        for raw in stub.bodies:
            prompt = json.loads(raw)["messages"][1]["content"]
            bodies[prompt].add(raw)
            counts[prompt] += 1
        first_asks = [prompt for prompt in counts if "could not be parsed" not in prompt]
        assert len(first_asks) == 6 and all(counts[prompt] == 5 for prompt in first_asks)
        assert len(counts) == 6 + 2  # the two pairs into "Accident" are re-asked
        assert all(len(raws) == 1 for raws in bodies.values())


class Sequential:
    """A backend without ``submit`` that replies ``reply(prompt)``."""

    def __init__(self, reply):
        self.reply = reply

    def complete(self, payload, meta=None):
        return self.reply(payload["messages"][1]["content"]), {"input_tokens": 1, "output_tokens": 1}


def reply_runs(reply):
    """A WindowBackend at windows 1, 3 and 8, and a backend without ``submit``, each replying ``reply``."""
    return [(WindowBackend(reply), 1), (WindowBackend(reply), 3), (WindowBackend(reply), 8), (Sequential(reply), 8)]


def hashed_verdict(prompt):
    """A verdict that is a function of the prompt alone, "yes" for about two in three."""
    return json.dumps({"direct cause": "yes" if zlib.crc32(prompt.encode()) % 3 else "no"})


def mixed_verdicts():
    """Replies that change from vote to vote: the k-th ask of a prompt gets a verdict,
    an abstention, prose or the wrong key by a hash of (prompt, k); a re-ask gets "no"."""
    asked = collections.Counter()
    kinds = ['{"direct cause": "yes"}', '{"direct cause": "yes"}', '{"direct cause": "no"}',
             '{"direct cause": "maybe"}', "let me think", '{"cause": "yes"}']

    def reply(prompt):
        if "could not be parsed" in prompt:
            return '{"direct cause": "no"}'
        asked[prompt] += 1
        return kinds[zlib.crc32(f"{asked[prompt]}/{prompt}".encode()) % len(kinds)]

    return reply


RAIN = ConceptAssignment(["Rain", "Wet grass", "Slippery road", "Accident"], "weather")
RAIN_DAG = Dag(n=4, edges=np.array([[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=np.int8))


class TestReplyParsedOnce:
    """A sample's reads of one reply text in a row parse it once; the key check,
    the re-asks, the ``MalformedOutput`` and the usage stay per read."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Every text ``_extract_json`` is called with, in order."""
        import causaltext.gateway

        texts, extract = [], causaltext.gateway._extract_json

        def counting(text):
            texts.append(text)
            return extract(text)

        monkeypatch.setattr(causaltext.gateway, "_extract_json", counting)
        return texts

    def verify(self, backend, window, m=5):
        gw = Gateway(backend, max_in_flight=window)
        table = counterfactual_verification(RAIN, analyze_causal_structure(RAIN_DAG), RAIN_DAG, gw, VERIFIER, m=m)
        return table, gw

    def test_a_pass_parses_once_per_change_of_text(self, parsed):
        relations = analyze_causal_structure(RAIN_DAG)
        pairs = relations.e_plus + relations.e_minus
        for backend, window in reply_runs(hashed_verdict):
            parsed.clear()
            table, gw = self.verify(backend, window)
            verdicts = ["yes" if table.s[p] else "no" for p in pairs]
            assert parsed == [json.dumps({"direct cause": v}) for v, _ in itertools.groupby(verdicts)], window
            assert 1 < len(parsed) < len(pairs)
            assert gw.calls_made == gw.ledger.totals()["calls"] == 5 * len(pairs)

    def test_distinct_texts_are_each_parsed(self, parsed):
        for backend, window in reply_runs(padded(hashed_verdict)):
            parsed.clear()
            _, gw = self.verify(backend, window)
            assert len(parsed) == len(set(parsed)) == gw.calls_made == 12 * 5, window

    def test_repeated_prose_is_still_reasked_to_the_same_malformed_output(self, parsed):
        for backend, window in reply_runs(lambda prompt: "no JSON here"):
            parsed.clear()
            gw = Gateway(backend, max_in_flight=window)
            replies = gw.run_sample(one_batch(["a", "b"]))
            assert [(type(r), str(r), r.raw_text) for r in replies] == [
                (MalformedOutput, "no valid JSON with keys ['k'] after 2 re-asks", "no JSON here")] * 2
            assert gw.calls_made == gw.ledger.totals()["calls"] == 6
            assert parsed == ["no JSON here"]
            if window == 1:
                assert backend.submitted() == ["a", "a" + REASK_NOTE, "a" + REASK_NOTE,
                                               "b", "b" + REASK_NOTE, "b" + REASK_NOTE]

    def test_the_key_check_stays_per_read(self, parsed):
        def steps():
            yield [Request(VERIFIER, "p", ("k",)), Request(VERIFIER, "q", ("j",))]
            return (yield 2)

        for backend, window in reply_runs(lambda prompt: '{"k": 1}'):
            parsed.clear()
            gw = Gateway(backend, max_in_flight=window)
            k, j = gw.run_sample(steps())
            assert k == {"k": 1} and isinstance(j, MalformedOutput) and j.raw_text == '{"k": 1}'
            assert gw.calls_made == 4 and parsed == ['{"k": 1}']

    def test_vote_tables_do_not_depend_on_repeated_texts(self, parsed):
        for window in (1, 3, 8):
            parsed.clear()
            plain, gw = self.verify(WindowBackend(mixed_verdicts()), window)
            assert len(parsed) < gw.calls_made
            parsed.clear()
            spaced, gw = self.verify(WindowBackend(padded(mixed_verdicts())), window)
            assert len(parsed) == gw.calls_made
            assert plain == spaced, window
            assert any(len(set(v)) > 1 for v in plain.votes.values())

    def test_a_windowed_http_run_parses_fewer_replies_than_it_sends(self, parsed, stub):
        stub.reply = hashed_verdict
        b = HttpBackend(stub.endpoint, "SOME_KEY", retries=0)
        table, _ = self.verify(b, 4)
        b.close()
        assert table == self.verify(Sequential(hashed_verdict), 1)[0]
        assert 0 < len(parsed) < stub.requests
