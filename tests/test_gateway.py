import json

import numpy as np
import pytest

from causaltext.errors import (
    AuthError,
    BudgetExceeded,
    MalformedOutput,
    TransportError,
    UnboundPlaceholder,
)
from causaltext.gateway import (
    ROLE_DEFAULTS,
    SYSTEM_MESSAGE,
    BackendProfile,
    Gateway,
    HttpBackend,
    OracleMockBackend,
    ResponseCache,
    ScriptedMockBackend,
    UsageLedger,
    build_payload,
    choose_verifier,
    format_matrix,
    load_template,
    make_cache_key,
    make_mock_backend,
    render_prompt,
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

    def test_override(self):
        p = BackendProfile.for_role("m", "discovery", max_tokens=100)
        assert p.max_tokens == 100 and p.temperature == 0.0

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
        out = gw.complete_json(BackendProfile.for_role("m", "phase3"), "p", ["k"], retry_budget=2)
        assert out == {"k": "v"}
        assert gw.calls_made == 2

    def test_persistent_garbage(self):
        gw = self.gw(["nope", "still nope", "never"])
        with pytest.raises(MalformedOutput) as exc:
            gw.complete_json(BackendProfile.for_role("m", "phase3"), "p", ["k"], retry_budget=2)
        assert exc.value.raw_text == "never"

    def test_json_with_surrounding_prose(self):
        gw = self.gw(['Sure! Here you go: {"k": 1} hope that helps'])
        assert gw.complete_json(BackendProfile.for_role("m", "phase3"), "p", ["k"]) == {"k": 1}

    def test_missing_key_triggers_reask(self):
        gw = self.gw([{"wrong": 1}, {"k": 2}])
        assert gw.complete_json(BackendProfile.for_role("m", "phase3"), "p", ["k"]) == {"k": 2}

    def test_budget_must_be_positive(self):
        gw = self.gw(["x"])
        with pytest.raises(ValueError):
            gw.complete_json(BackendProfile.for_role("m", "phase3"), "p", ["k"], retry_budget=0)


class TestCache:
    def test_hit_skips_compute(self):
        gw = Gateway(ScriptedMockBackend([]), cache=ResponseCache())
        key = make_cache_key(["a", "b"], [[0, 1], [0, 0]], "verifier-1", "verify")
        calls = []
        assert gw.cached(key, lambda: calls.append(1) or {"v": 1}) == {"v": 1}
        assert gw.cached(key, lambda: calls.append(1) or {"v": 2}) == {"v": 1}
        assert len(calls) == 1

    def test_key_sensitivity(self):
        base = make_cache_key(["a", "b"], [[0, 1], [0, 0]], "be", "verify")
        assert make_cache_key(["a", "c"], [[0, 1], [0, 0]], "be", "verify") != base
        assert make_cache_key(["a", "b"], [[0, 0], [0, 0]], "be", "verify") != base
        assert make_cache_key(["a", "b"], [[0, 1], [0, 0]], "other", "verify") != base
        assert make_cache_key(["a", "b"], [[0, 1], [0, 0]], "be", "refine") != base
        assert make_cache_key(["a", "b"], [[0, 1], [0, 0]], "be", "verify") == base

    def test_disk_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        c1 = ResponseCache(path)
        c1.put("k", {"x": 1})
        c2 = ResponseCache(path)
        assert c2.get("k") == {"x": 1}
        c2.clear()
        assert len(ResponseCache(path)) == 0

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

    def test_call_budget(self):
        gw = Gateway(ScriptedMockBackend(["x", "y"]), call_budget=1)
        gw.complete(BackendProfile.for_role("m", "proposer"), "p")
        with pytest.raises(BudgetExceeded):
            gw.complete(BackendProfile.for_role("m", "proposer"), "p")


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


class TestHttpBackend:
    def test_missing_credential(self, monkeypatch):
        monkeypatch.delenv("NO_SUCH_KEY", raising=False)
        b = HttpBackend("http://localhost:1/v1", "NO_SUCH_KEY")
        with pytest.raises(AuthError):
            b.complete(build_payload(BackendProfile.for_role("m", "proposer"), "p"))

    def test_transport_error_after_retries(self, monkeypatch):
        monkeypatch.setenv("SOME_KEY", "secret")
        b = HttpBackend("http://localhost:1/v1", "SOME_KEY", retries=1, backoff=0.0)
        with pytest.raises(TransportError):
            b.complete(build_payload(BackendProfile.for_role("m", "proposer"), "p"))

    @pytest.mark.parametrize("content", [b"<html>bad gateway</html>", b'{"choices": []}'])
    def test_malformed_body_raises_malformed_output(self, monkeypatch, content):
        import requests

        def fake_post(*args, **kwargs):
            resp = requests.models.Response()
            resp.status_code = 200
            resp._content = content
            return resp

        monkeypatch.setenv("SOME_KEY", "secret")
        monkeypatch.setattr(requests, "post", fake_post)
        b = HttpBackend("http://localhost:1/v1", "SOME_KEY", retries=0)
        with pytest.raises(MalformedOutput) as exc:
            b.complete(build_payload(BackendProfile.for_role("m", "proposer"), "p"))
        assert exc.value.raw_text == content.decode()
