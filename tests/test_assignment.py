import json
import re

import numpy as np
import pytest

from causaltext.assignment import (
    ASSIGNMENT_KEY,
    ConceptAssignment,
    FallacySet,
    LoopConfig,
    MismatchReport,
    RelationSets,
    VoteTable,
    analyze_causal_structure,
    counterfactual_verification,
    fallacy_analysis,
    initial_assignment,
    normalize_concept,
    quantify_mismatch,
    refine_assignment,
    run_loop,
)
from causaltext.errors import MalformedOutput, SchemaViolation, VerificationError
from causaltext.gateway import (
    BackendProfile,
    Gateway,
    OracleMockBackend,
    ResponseCache,
    ScriptedMockBackend,
)
from causaltext.graphs import Dag


def make_dag(n, edges):
    a = np.zeros((n, n), dtype=np.int8)
    for i, j in edges:
        a[i, j] = 1
    return Dag(n=n, edges=a)


PROPOSER = BackendProfile.for_role("mock-a", "proposer")
VERIFIER = BackendProfile.for_role("mock-b", "verifier")


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,want",
        [
            ("The Market Demand", "market demand"),
            ("market demand.", "market demand"),
            ("A  rainy   day", "rainy day"),
            ("an engineer's skill", "engineer s skill"),
        ],
    )
    def test_examples(self, raw, want):
        assert normalize_concept(raw) == want

    def test_overlap_detected(self):
        ca = ConceptAssignment(concepts=["Skill", "skill."], domain="d")
        with pytest.raises(SchemaViolation):
            ca.validate(2)

    def test_distinct_pass(self):
        ConceptAssignment(concepts=["Skill", "Luck"], domain="d").validate(2)

    def test_wrong_count(self):
        with pytest.raises(SchemaViolation):
            ConceptAssignment(concepts=["a"], domain="d").validate(3)


class TestAnalyze:
    def test_two_node_single_edge(self):
        rel = analyze_causal_structure(make_dag(2, [(0, 1)]))
        assert rel.e_plus == [(0, 1)]
        assert rel.e_minus == [(1, 0)]

    def test_empty_three_node(self):
        rel = analyze_causal_structure(make_dag(3, []))
        assert rel.e_plus == []
        assert len(rel.e_minus) == 6

    def test_complete_three_node(self):
        rel = analyze_causal_structure(make_dag(3, [(0, 1), (0, 2), (1, 2)]))
        assert set(rel.e_plus) == {(0, 1), (0, 2), (1, 2)}
        assert set(rel.e_minus) == {(1, 0), (2, 0), (2, 1)}

    def test_partition_covers_all_pairs(self):
        rel = analyze_causal_structure(make_dag(4, [(0, 3)]))
        assert len(rel.e_plus) + len(rel.e_minus) == 12


def reference_analyze(dag):
    """``analyze_causal_structure`` as it was, indexing the array once per pair."""
    e_plus, e_minus = [], []
    for i in range(dag.n):
        for j in range(dag.n):
            if i == j:
                continue
            (e_plus if dag.edges[i, j] else e_minus).append((i, j))
    return RelationSets(e_plus=e_plus, e_minus=e_minus)


def random_dag(rng, n, p):
    a = np.triu(rng.random((n, n)) < p, 1).astype(np.int8)
    order = rng.permutation(n)
    return Dag(n=n, edges=a[np.ix_(order, order)])


class TestReferenceAnalyze:
    def test_relations_match_the_indexing_loop(self):
        rng = np.random.default_rng(30)
        for n in range(1, 11):
            for p in (0.0, 0.3, 0.7, 1.0):
                dag = random_dag(rng, n, p)
                rel = analyze_causal_structure(dag)
                assert rel == reference_analyze(dag)
                assert all(type(k) is int for pair in rel.e_plus + rel.e_minus for k in pair)


class TestInitialAssignment:
    def reply(self, concepts):
        return {ASSIGNMENT_KEY: [f"Node {i}: {c}" for i, c in enumerate(concepts)]}

    def test_valid_reply(self):
        gw = Gateway(ScriptedMockBackend([self.reply(["Rain", "Wet grass"])]))
        ca = initial_assignment(make_dag(2, [(0, 1)]), "weather", gw, PROPOSER)
        assert ca.concepts == ["Rain", "Wet grass"]
        assert ca.domain == "weather"

    def test_overlap_triggers_one_revision(self):
        gw = Gateway(
            ScriptedMockBackend(
                [self.reply(["Skill", "skill."]), self.reply(["Skill", "Luck"])]
            )
        )
        ca = initial_assignment(make_dag(2, [(0, 1)]), "d", gw, PROPOSER)
        assert ca.concepts == ["Skill", "Luck"]
        assert gw.calls_made == 2

    def test_persistent_overlap_raises(self):
        bad = self.reply(["Skill", "skill."])
        gw = Gateway(ScriptedMockBackend([bad, bad]))
        with pytest.raises(SchemaViolation):
            initial_assignment(make_dag(2, [(0, 1)]), "d", gw, PROPOSER)

    def test_out_of_range_node_index(self):
        gw = Gateway(
            ScriptedMockBackend(
                [
                    {ASSIGNMENT_KEY: ["Node 0: A", "Node 2: B"]},
                    {ASSIGNMENT_KEY: ["Node 0: A", "Node 2: B"]},
                    {ASSIGNMENT_KEY: ["Node 0: A", "Node 2: B"]},
                ]
            )
        )
        with pytest.raises(MalformedOutput):
            initial_assignment(make_dag(2, [(0, 1)]), "d", gw, PROPOSER)

    @pytest.mark.parametrize("entries", [5, None, {"Node 0: A": 1, "Node 1: B": 2}])
    def test_non_list_reply_is_malformed(self, entries):
        gw = Gateway(ScriptedMockBackend([{ASSIGNMENT_KEY: entries}]))
        with pytest.raises(MalformedOutput, match="not a list"):
            initial_assignment(make_dag(2, [(0, 1)]), "d", gw, PROPOSER)

    @pytest.mark.parametrize("entry", ["Rain", "Node A: Rain", "Node 1 Rain", "Node 1:", 1])
    def test_an_entry_not_of_the_node_form_is_malformed(self, entry):
        gw = Gateway(ScriptedMockBackend([{ASSIGNMENT_KEY: ["Node 0: Wind", entry]}]))
        with pytest.raises(MalformedOutput, match=f"cannot parse concept entry {re.escape(repr(entry))}"):
            initial_assignment(make_dag(2, [(0, 1)]), "d", gw, PROPOSER)


class TestVerification:
    def test_vote_proportion(self):
        # pair (0,1): yes,yes,yes,no,no -> 0.6; pair (1,0): all no
        replies = [{"direct cause": v} for v in ("yes", "yes", "yes", "no", "no")]
        replies += [{"direct cause": "no"}] * 5
        gw = Gateway(ScriptedMockBackend(replies))
        dag = make_dag(2, [(0, 1)])
        votes = counterfactual_verification(
            ConceptAssignment(["Rain", "Wet grass"], "d"),
            analyze_causal_structure(dag),
            dag,
            gw,
            VERIFIER,
            m=5,
        )
        assert votes.s[(0, 1)] == pytest.approx(0.6)
        assert votes.s[(1, 0)] == 0.0
        assert votes.votes[(0, 1)] == [1, 1, 1, 0, 0]

    def test_cache_makes_reverification_free(self):
        replies = [{"direct cause": "yes"}] * 5 + [{"direct cause": "no"}] * 5
        gw = Gateway(ScriptedMockBackend(replies), cache=ResponseCache())
        dag = make_dag(2, [(0, 1)])
        ca = ConceptAssignment(["Rain", "Wet grass"], "d")
        rel = analyze_causal_structure(dag)
        v1 = counterfactual_verification(ca, rel, dag, gw, VERIFIER, m=5)
        before = gw.calls_made
        v2 = counterfactual_verification(ca, rel, dag, gw, VERIFIER, m=5)
        assert gw.calls_made == before
        assert v2.s == v1.s

    def test_a_table_cached_at_another_m_is_recomputed(self):
        gw = Gateway(ScriptedMockBackend({"rules": [{"template": "verify", "reply": {"direct cause": "no"}}]}))
        assert isinstance(gw.cache, ResponseCache)
        dag = make_dag(3, [(0, 1), (1, 2)])
        ca = ConceptAssignment(["A", "B", "C"], "d")
        rel = analyze_causal_structure(dag)
        assert counterfactual_verification(ca, rel, dag, gw, VERIFIER, m=5).m == 5
        before = gw.calls_made
        votes = counterfactual_verification(ca, rel, dag, gw, VERIFIER, m=3)
        assert gw.calls_made - before == 3 * 2 * 3
        assert votes.m == 3 and all(len(v) == 3 for v in votes.votes.values())
        # the m = 3 table sits beside the m = 5 one, so neither pass calls again
        before = gw.calls_made
        assert counterfactual_verification(ca, rel, dag, gw, VERIFIER, m=5).m == 5
        assert counterfactual_verification(ca, rel, dag, gw, VERIFIER, m=3) == votes
        assert gw.calls_made == before

    def test_abstention_below_quorum(self):
        # three completions burn the whole re-ask budget (3 calls each) and
        # abstain, leaving only 2 parsed of the required 3
        replies = ["not json"] * 9 + [{"direct cause": "yes"}] * 2
        gw = Gateway(ScriptedMockBackend(replies))
        dag = make_dag(2, [(0, 1)])
        with pytest.raises(VerificationError):
            counterfactual_verification(
                ConceptAssignment(["A", "B"], "d"),
                analyze_causal_structure(dag),
                dag,
                gw,
                VERIFIER,
                m=5,
            )

    def test_abstention_tolerated_at_quorum(self):
        # one abstained completion of five still leaves 4 >= min(3, m)
        replies = ["junk"] * 3 + [{"direct cause": "yes"}] * 4
        replies += [{"direct cause": "no"}] * 5
        gw = Gateway(ScriptedMockBackend(replies))
        dag = make_dag(2, [(0, 1)])
        votes = counterfactual_verification(
            ConceptAssignment(["A", "B"], "d"),
            analyze_causal_structure(dag),
            dag,
            gw,
            VERIFIER,
            m=5,
        )
        assert votes.s[(0, 1)] == 1.0
        assert len(votes.votes[(0, 1)]) == 4

    def test_vote_table_roundtrip(self):
        vt = VoteTable(s={(0, 1): 0.6, (1, 0): 0.0}, m=5, votes={(0, 1): [1, 1, 1, 0, 0]})
        assert VoteTable.from_json(vt.to_json()).s == vt.s


class TestMismatch:
    def rel(self):
        return RelationSets(e_plus=[(0, 1)], e_minus=[(1, 0)])

    def test_sum_of_sides(self):
        votes = VoteTable(s={(0, 1): 0.6, (1, 0): 0.4}, m=5)
        rep = quantify_mismatch(votes, self.rel(), alpha=1.0)
        assert rep.l_b == pytest.approx(0.8)
        assert rep.l_b_miss == pytest.approx(0.4)
        assert rep.l_b_spur == pytest.approx(0.4)

    def test_uniform_half(self):
        votes = VoteTable(s={(0, 1): 0.5, (1, 0): 0.5}, m=5)
        assert quantify_mismatch(votes, self.rel()).l_b == pytest.approx(1.0)

    def test_perfect_is_zero(self):
        votes = VoteTable(s={(0, 1): 1.0, (1, 0): 0.0}, m=5)
        assert quantify_mismatch(votes, self.rel()).l_b == 0.0

    def test_empty_class_contributes_zero(self):
        votes = VoteTable(s={(0, 1): 0.2, (1, 0): 0.2}, m=5)
        rel = RelationSets(e_plus=[], e_minus=[(0, 1), (1, 0)])
        rep = quantify_mismatch(votes, rel)
        assert rep.l_b_miss == 0.0
        assert rep.l_b == pytest.approx(0.2)

    def test_additivity_in_alpha(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            mask = rng.random(len(pairs)) < 0.4
            rel = RelationSets(
                e_plus=[p for p, m in zip(pairs, mask) if m],
                e_minus=[p for p, m in zip(pairs, mask) if not m],
            )
            votes = VoteTable(s={p: float(rng.random()) for p in pairs}, m=5)
            alpha = float(rng.random() * 2)
            rep = quantify_mismatch(votes, rel, alpha=alpha)
            assert abs(rep.l_b - (rep.l_b_miss + rep.l_b_spur)) < 1e-12
            base = quantify_mismatch(votes, rel, alpha=1.0)
            assert abs(rep.l_b_spur - alpha * base.l_b_spur) < 1e-12


def reference_quantify_mismatch(votes, relations, alpha=1.0):
    """``quantify_mismatch`` as it was, through ``np.mean``."""
    miss = float(np.mean([1.0 - votes.s[p] for p in relations.e_plus])) if relations.e_plus else 0.0
    spur = alpha * float(np.mean([votes.s[p] for p in relations.e_minus])) if relations.e_minus else 0.0
    return MismatchReport(l_b=miss + spur, l_b_miss=miss, l_b_spur=spur, alpha=alpha)


class TestReferenceMismatch:
    def test_bits_match_np_mean(self):
        """n = 2..10, so each relation class holds 0 to 90 pairs; m = 5 proportions and arbitrary floats."""
        rng = np.random.default_rng(30)
        lengths = set()
        for n in range(2, 11):
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            for t in range(60):
                if t < 3:  # one pair, all but one, or every pair in e_plus
                    mask = rng.permutation(len(pairs)) < (1, len(pairs) - 1, len(pairs))[t]
                else:
                    mask = rng.random(len(pairs)) < rng.random()
                rel = RelationSets(e_plus=[p for p, m in zip(pairs, mask) if m],
                                   e_minus=[p for p, m in zip(pairs, mask) if not m])
                lengths.update((len(rel.e_plus), len(rel.e_minus)))
                if rng.random() < 0.5:
                    s = {p: int(k) / 5 for p, k in zip(pairs, rng.integers(0, 6, len(pairs)))}
                else:
                    s = {p: float(v) for p, v in zip(pairs, rng.random(len(pairs)))}
                votes = VoteTable(s=s, m=5)
                for alpha in (0.0, 0.5, 1.0, 2.0):
                    got = quantify_mismatch(votes, rel, alpha=alpha)
                    want = reference_quantify_mismatch(votes, rel, alpha=alpha)
                    assert [x.hex() for x in (got.l_b, got.l_b_miss, got.l_b_spur)] == \
                        [x.hex() for x in (want.l_b, want.l_b_miss, want.l_b_spur)]
                    assert all(type(x) is float for x in (got.l_b, got.l_b_miss, got.l_b_spur))
        assert {1, 8, 9, 45, 89, 90} <= lengths


def reference_vote_table(obj):
    """``VoteTable.from_json`` as it was, parsing every key anew."""
    def key(k):
        i, j = k.split(",")
        return (int(i), int(j))

    return VoteTable(m=int(obj["m"]), s={key(k): float(v) for k, v in obj["s"].items()},
                     votes={key(k): list(v) for k, v in obj.get("votes", {}).items()})


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the reference decides which exceptions count
        return type(exc), str(exc)


class TestReferenceVoteTable:
    @pytest.mark.parametrize("key", ["a,b", "1", "1,2,3", " 1,02", "0,1", "", ",", "1,", "-1,2", "1_0,2", "١,٢"])
    def test_each_key_parses_or_fails_as_the_reference(self, key):
        table = {"m": 5, "s": {key: 0.4}, "votes": {key: [1, 0, 1, 0, 0]}}
        want = outcome(reference_vote_table, table)
        for _ in range(2):  # a failing key is not remembered: the second call fails again
            assert outcome(VoteTable.from_json, table) == want

    def test_round_trips_match_the_reference(self):
        rng = np.random.default_rng(30)
        for n in range(2, 11):
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            votes = {p: [int(v) for v in rng.integers(0, 2, 5)] for p in pairs}
            table = VoteTable(s={p: sum(v) / 5 for p, v in votes.items()}, m=5, votes=votes).to_json()
            got = VoteTable.from_json(table)
            assert got == reference_vote_table(table)
            assert list(got.s) == pairs and all(type(k) is int for pair in got.s for k in pair)


class TestFallacies:
    def test_threshold_boundary(self):
        rel = RelationSets(e_plus=[(0, 1)], e_minus=[(1, 0)])
        at = VoteTable(s={(0, 1): 0.6, (1, 0): 0.6}, m=5)
        f = fallacy_analysis(at, rel, tau=0.6)
        # s == tau counts as supported: fine on a required edge, a fallacy
        # on a forbidden one
        assert f.missed == []
        assert f.spurious == [(1, 0)]

    def test_below_threshold(self):
        rel = RelationSets(e_plus=[(0, 1)], e_minus=[(1, 0)])
        f = fallacy_analysis(VoteTable(s={(0, 1): 0.59, (1, 0): 0.59}, m=5), rel, tau=0.6)
        assert f.missed == [(0, 1)]
        assert f.spurious == []

    def test_clean_table(self):
        rel = RelationSets(e_plus=[(0, 1)], e_minus=[(1, 0)])
        f = fallacy_analysis(VoteTable(s={(0, 1): 1.0, (1, 0): 0.0}, m=5), rel)
        assert f.empty()

    def test_bad_tau(self):
        rel = RelationSets(e_plus=[], e_minus=[])
        with pytest.raises(ValueError):
            fallacy_analysis(VoteTable(s={}, m=5), rel, tau=0.0)

    def test_refine_requires_fallacies(self):
        gw = Gateway(ScriptedMockBackend([]))
        with pytest.raises(ValueError):
            refine_assignment(
                ConceptAssignment(["A", "B"], "d"),
                FallacySet(missed=[], spurious=[], tau=0.6),
                make_dag(2, [(0, 1)]),
                gw,
                PROPOSER,
            )


class LoopMockBackend:
    """Plays the proposer and verifier with scripted vote proportions.

    Each proposal (initial or refined) gets a fresh versioned concept set;
    verifier replies for version v follow vote_script[min(v, last)], a map
    from ordered pair to the number of yes votes out of m.
    """

    def __init__(self, n, vote_script, m):
        self.n = n
        self.vote_script = vote_script
        self.m = m
        self.version = -1
        self.counters = {}

    def complete(self, payload, meta=None):
        template = (meta or {}).get("template")
        prompt = payload["messages"][1]["content"]
        if template in ("phase2", "refine"):
            self.version += 1
            reply = {
                ASSIGNMENT_KEY: [
                    f"Node {i}: Version {self.version} factor {i}" for i in range(self.n)
                ]
            }
        elif template == "verify":
            mv = re.search(r"Cause candidate:\s*Version (\d+) factor (\d+)", prompt)
            me = re.search(r"Effect candidate:\s*Version \d+ factor (\d+)", prompt)
            ver, i, j = int(mv.group(1)), int(mv.group(2)), int(me.group(1))
            script = self.vote_script[min(ver, len(self.vote_script) - 1)]
            yes = script.get((i, j), 0)
            k = self.counters.get((ver, i, j), 0)
            self.counters[(ver, i, j)] = k + 1
            reply = {"direct cause": "yes" if k < yes else "no"}
        else:
            raise AssertionError(f"unexpected template {template!r}")
        text = json.dumps(reply)
        return text, {"input_tokens": 2, "output_tokens": 2}


class TestLoopConfig:
    @pytest.mark.parametrize("bad", [
        {"m": 0}, {"tau": 0.0}, {"tau": 1.5}, {"tau": float("nan")},
        {"alpha": -0.1}, {"alpha": float("nan")}, {"alpha": float("inf")}, {"k_max": 0},
    ])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="loop settings"):
            LoopConfig(**bad)

    def test_range_ends_accepted(self):
        assert LoopConfig(m=1, tau=1.0, alpha=0.0, k_max=1).tau == 1.0


class TestLoop:
    def test_perfect_verifier_one_iteration(self):
        dag = make_dag(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
        gw = Gateway(OracleMockBackend())
        result = run_loop(dag, "business", gw, PROPOSER, VERIFIER, sample_id="s")
        assert result.status == "Success"
        assert result.iterations == 1
        assert result.best_l_b == 0.0
        assert result.assignment.concepts == [f"Factor {i}" for i in range(5)]
        assert gw.ledger.sample("s")["total"] > 0

    def test_scripted_descent_keeps_best(self):
        # L_b per version: 0.8, 0.3, 0.5, then 0.62 forever; never clean
        dag = make_dag(3, [(0, 1)])
        script = [
            {(0, 1): 5, (1, 0): 6, (0, 2): 3, (2, 0): 3, (1, 2): 3},
            {(0, 1): 9, (1, 0): 6, (0, 2): 4},
            {(0, 1): 7, (1, 0): 6, (0, 2): 4},
            {(0, 1): 5, (1, 0): 6},
        ]
        gw = Gateway(LoopMockBackend(3, script, m=10))
        result = run_loop(dag, "d", gw, PROPOSER, VERIFIER, config=LoopConfig(m=10))
        assert result.status == "Fail"
        assert result.iterations == 10
        assert result.best_l_b == pytest.approx(0.3)
        # strict-improvement update keeps the version-1 assignment
        assert all("Version 1" in c for c in result.assignment.concepts)
        mismatches = [t["mismatch"].l_b for t in result.trace]
        assert mismatches[:3] == pytest.approx([0.8, 0.3, 0.5])
        assert len(mismatches) == 10

    def test_never_clean_runs_full_budget(self):
        dag = make_dag(2, [(0, 1)])
        script = [{(0, 1): 2, (1, 0): 4}]
        gw = Gateway(LoopMockBackend(2, script, m=5))
        result = run_loop(dag, "d", gw, PROPOSER, VERIFIER, config=LoopConfig(m=5, k_max=4))
        assert result.status == "Fail"
        assert result.iterations == 4
        assert len(result.trace) == 4

    def test_clean_second_iteration(self):
        dag = make_dag(2, [(0, 1)])
        script = [{(0, 1): 2, (1, 0): 4}, {(0, 1): 5, (1, 0): 0}]
        gw = Gateway(LoopMockBackend(2, script, m=5))
        result = run_loop(dag, "d", gw, PROPOSER, VERIFIER, config=LoopConfig(m=5))
        assert result.status == "Success"
        assert result.iterations == 2
        assert result.best_l_b == 0.0

    def test_result_serializes(self):
        dag = make_dag(2, [(0, 1)])
        gw = Gateway(OracleMockBackend())
        result = run_loop(dag, "business", gw, PROPOSER, VERIFIER)
        blob = json.dumps(result.to_json())
        assert "Success" in blob
