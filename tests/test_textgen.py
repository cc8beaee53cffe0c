import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext.assignment import ConceptAssignment, normalize_concept
from causaltext.errors import (
    CoverageViolation,
    ExtractionFailed,
    MalformedOutput,
    ShapeMismatch,
)
from causaltext.gateway import (
    BackendProfile,
    Gateway,
    OracleMockBackend,
    ScriptedMockBackend,
)
from causaltext.graphs import Dag
from causaltext.textgen import (
    Paragraph,
    concept_in_text,
    extract_concepts_steps,
    gen_id_refine_steps,
    generate_text,
    llm_causal_discovery_steps,
    missing_concepts,
)

PHASE3 = BackendProfile.for_role("mock", "phase3")
DISCOVERY = BackendProfile.for_role("mock", "discovery")
DESC = "Natural language description"


def make_dag(n, edges):
    a = np.zeros((n, n), dtype=np.int8)
    for i, j in edges:
        a[i, j] = 1
    return Dag(n=n, edges=a)


def spelled_out_coverage(concept, text):
    """The coverage rule variant by variant: the concept, or it with an s/es suffix added or removed."""
    norm, norm_text = normalize_concept(concept), normalize_concept(text)
    variants = [norm, norm + "s", norm + "es"]
    variants += [norm[: -len(suffix)] for suffix in ("s", "es") if norm.endswith(suffix)]
    return any(v in norm_text for v in variants)


class TestCoverageCheck:
    def test_plural_tolerated_both_ways(self):
        assert concept_in_text("market demand", "Rising market demands shaped prices.")
        assert concept_in_text("heavy taxes", "The heavy tax burden grew.")

    def test_case_and_punctuation_ignored(self):
        assert concept_in_text("The Supply Chain", "problems in the supply chain, then")

    def test_absent_detected(self):
        assert not concept_in_text("inflation", "Prices rose for other reasons.")
        assert missing_concepts(["a rainy day", "inflation"], "A rainy day came.") == ["inflation"]

    @given(
        st.lists(st.sampled_from(["the tax", "Taxes", "tax burden", "a rainy day", "days", "rain!", "es", "bus", ""]),
                 max_size=6),
        st.lists(st.sampled_from(["The", "taxes", "rainy", "Day", "burden,", "tax.", "a", "RAIN", "buses", "s"]),
                 max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_missing_concepts_matches_concept_in_text(self, concepts, words):
        text = " ".join(words)
        expected = [c for c in concepts if not spelled_out_coverage(c, text)]
        assert missing_concepts(concepts, text) == expected
        assert [c for c in concepts if not concept_in_text(c, text)] == expected


class TestGenerateText:
    def assignment(self):
        return ConceptAssignment(["Rain", "Wet grass"], "weather")

    def test_covering_reply_accepted(self):
        gw = Gateway(ScriptedMockBackend([{DESC: "Rain makes the wet grass."}]))
        p = generate_text(make_dag(2, [(0, 1)]), self.assignment(), gw, PHASE3)
        assert "Rain" in p.text
        assert gw.calls_made == 1

    def test_gap_triggers_single_reask(self):
        gw = Gateway(
            ScriptedMockBackend(
                [{DESC: "Rain fell."}, {DESC: "Rain fell on the wet grass."}]
            )
        )
        p = generate_text(make_dag(2, [(0, 1)]), self.assignment(), gw, PHASE3)
        assert gw.calls_made == 2
        assert missing_concepts(self.assignment().concepts, p.text) == []

    def test_persistent_gap_raises(self):
        gw = Gateway(ScriptedMockBackend([{DESC: "Rain fell."}, {DESC: "Still just rain."}]))
        with pytest.raises(CoverageViolation):
            generate_text(make_dag(2, [(0, 1)]), self.assignment(), gw, PHASE3)

    def test_single_node_rejected(self):
        gw = Gateway(ScriptedMockBackend([]))
        with pytest.raises(ValueError):
            generate_text(make_dag(1, []), ConceptAssignment(["x"], "d"), gw, PHASE3)

    def test_concept_count_mismatch(self):
        gw = Gateway(ScriptedMockBackend([]))
        with pytest.raises(ShapeMismatch):
            generate_text(make_dag(3, []), self.assignment(), gw, PHASE3)

    def test_oracle_covers_everything(self):
        gw = Gateway(OracleMockBackend())
        from causaltext.assignment import run_loop

        dag = make_dag(4, [(0, 1), (1, 2), (2, 3)])
        result = run_loop(dag, "business", gw, BackendProfile.for_role("m", "proposer"), BackendProfile.for_role("m", "verifier"))
        p = generate_text(dag, result.assignment, gw, PHASE3)
        assert missing_concepts(result.assignment.concepts, p.text) == []


class TestDiscovery:
    def test_matrix_parsed(self):
        gw = Gateway(ScriptedMockBackend([{"adjacency matrix": [[0, 1], [0, 0]]}]))
        adj = gw.run_sample(llm_causal_discovery_steps("text", ["a", "b"], DISCOVERY))
        assert adj.tolist() == [[0, 1], [0, 0]]

    def test_cycle_accepted(self):
        gw = Gateway(ScriptedMockBackend([{"adjacency matrix": [[0, 1], [1, 0]]}]))
        adj = gw.run_sample(llm_causal_discovery_steps("text", ["a", "b"], DISCOVERY))
        assert adj.tolist() == [[0, 1], [1, 0]]

    def test_wrong_shape(self):
        gw = Gateway(ScriptedMockBackend([{"adjacency matrix": [[0, 1, 0], [0, 0, 1]]}]))
        with pytest.raises(ShapeMismatch):
            gw.run_sample(llm_causal_discovery_steps("text", ["a", "b"], DISCOVERY))

    def test_nonbinary_rejected(self):
        gw = Gateway(ScriptedMockBackend([{"adjacency matrix": [[0, 2], [0, 0]]}]))
        with pytest.raises(ShapeMismatch):
            gw.run_sample(llm_causal_discovery_steps("text", ["a", "b"], DISCOVERY))

    @pytest.mark.parametrize("entry", [0.5, 0.9, 0.99])
    def test_fractional_entries_rejected(self, entry):
        gw = Gateway(ScriptedMockBackend([{"adjacency matrix": [[0, entry], [0, 0]]}]))
        with pytest.raises(ShapeMismatch):
            gw.run_sample(llm_causal_discovery_steps("text", ["a", "b"], DISCOVERY))

    def test_string_and_bool_entries_accepted(self):
        gw = Gateway(ScriptedMockBackend([{"adjacency matrix": [["0", "1"], [True, 0.0]]}]))
        adj = gw.run_sample(llm_causal_discovery_steps("text", ["a", "b"], DISCOVERY))
        assert adj.tolist() == [[0, 1], [1, 0]] and adj.dtype == np.int8

    def test_missing_entry_is_malformed(self):
        gw = Gateway(ScriptedMockBackend([{"adjacency matrix": [[0, None], [0, 0]]}]))
        with pytest.raises(MalformedOutput):
            gw.run_sample(llm_causal_discovery_steps("text", ["a", "b"], DISCOVERY))

    def test_diagonal_clamped_with_warning(self, caplog):
        gw = Gateway(ScriptedMockBackend([{"adjacency matrix": [[1, 1], [0, 1]]}]))
        with caplog.at_level("WARNING"):
            adj = gw.run_sample(llm_causal_discovery_steps("text", ["a", "b"], DISCOVERY))
        assert adj.tolist() == [[0, 1], [0, 0]]
        assert any("diagonal" in r.message for r in caplog.records)


class TestGenIdRefine:
    def setup_case(self, replies):
        return Gateway(ScriptedMockBackend(replies))

    def dag(self):
        return make_dag(2, [(0, 1)])

    def assignment(self):
        return ConceptAssignment(["Rain", "Wet grass"], "weather")

    def paragraph(self, text="Rain soaks the wet grass."):
        return Paragraph(text=text, source_concepts=self.assignment())

    def test_fixed_point_zero_revisions(self):
        gw = self.setup_case([{"adjacency matrix": [[0, 1], [0, 0]]}])
        best, revisions, trace = gw.run_sample(
            gen_id_refine_steps(self.dag(), self.assignment(), self.paragraph(), PHASE3, DISCOVERY)
        )
        assert revisions == 0
        assert best.text == self.paragraph().text
        assert trace[0]["mismatch"] == 0

    def test_budget_zero_returns_input_untouched(self):
        gw = self.setup_case([])
        best, revisions, trace = gw.run_sample(
            gen_id_refine_steps(self.dag(), self.assignment(), self.paragraph(), PHASE3, DISCOVERY, k_gen=0)
        )
        assert revisions == 0 and trace == [] and best.text == self.paragraph().text
        assert gw.calls_made == 0

    def test_stops_on_non_decrease_and_keeps_best(self):
        # extracted mismatches: 2, then 1, then 1 -> stop after the second
        # revision; best paragraph is the first revision (mismatch 1)
        dag = make_dag(3, [(0, 1), (1, 2)])
        assignment = ConceptAssignment(["A", "B", "C"], "d")
        replies = [
            {"adjacency matrix": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]},  # shd 3? no: see below
            {DESC: "revision one"},
            {"adjacency matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]},  # shd 1
            {DESC: "revision two"},
            {"adjacency matrix": [[0, 0, 0], [0, 0, 1], [0, 0, 0]]},  # shd 1
        ]
        # first extraction: target edges (0,1),(1,2); got (0,2) -> shd 3
        gw = self.setup_case(replies)
        best, revisions, trace = gw.run_sample(
            gen_id_refine_steps(dag, assignment, Paragraph("original", assignment), PHASE3, DISCOVERY)
        )
        assert [t["mismatch"] for t in trace] == [3, 1, 1]
        assert revisions == 2
        assert best.text == "revision one"

    def test_returns_best_not_last(self):
        # mismatch sequence 1 then 2: revision made things worse, keep original
        gw = self.setup_case(
            [
                {"adjacency matrix": [[0, 0], [0, 0]]},  # shd 1
                {DESC: "worse"},
                {"adjacency matrix": [[0, 0], [1, 0]]},  # shd 2
            ]
        )
        best, revisions, trace = gw.run_sample(
            gen_id_refine_steps(self.dag(), self.assignment(), self.paragraph("original"), PHASE3, DISCOVERY)
        )
        assert revisions == 1
        assert best.text == "original"
        assert [t["mismatch"] for t in trace] == [1, 2]


class TestExtraction:
    TEXT = (
        "Heavy rain caused flooding in the valley. The flooding damaged crops, "
        "and crop damage raised food prices across the region."
    )

    def test_clean_list_passes(self):
        gw = Gateway(ScriptedMockBackend([{"concepts": ["heavy rain", "flooding", "crop damage"]}]))
        out = gw.run_sample(extract_concepts_steps(self.TEXT, DISCOVERY))
        assert out == ["heavy rain", "flooding", "crop damage"]

    def test_duplicates_merged(self):
        gw = Gateway(
            ScriptedMockBackend(
                [{"concepts": ["Flooding", "flooding.", "heavy rain", "food prices"]}]
            )
        )
        out = gw.run_sample(extract_concepts_steps(self.TEXT, DISCOVERY))
        assert out == ["Flooding", "heavy rain", "food prices"]

    def test_absent_concept_dropped_then_reask(self):
        gw = Gateway(
            ScriptedMockBackend(
                [
                    {"concepts": ["volcanoes", "earthquakes", "flooding"]},
                    {"concepts": ["heavy rain", "flooding", "food prices"]},
                ]
            )
        )
        out = gw.run_sample(extract_concepts_steps(self.TEXT, DISCOVERY))
        assert out == ["heavy rain", "flooding", "food prices"]
        assert gw.calls_made == 2

    def test_oversized_list_reasked(self):
        many = [f"word{k}" for k in range(11)]
        text = "words: " + " ".join(many)
        gw = Gateway(
            ScriptedMockBackend([{"concepts": many}, {"concepts": many[:5]}])
        )
        out = gw.run_sample(extract_concepts_steps(text, DISCOVERY))
        assert len(out) == 5

    def test_persistent_failure(self):
        gw = Gateway(
            ScriptedMockBackend([{"concepts": ["flooding"]}, {"concepts": ["flooding"]}])
        )
        with pytest.raises(ExtractionFailed):
            gw.run_sample(extract_concepts_steps(self.TEXT, DISCOVERY))

    def test_string_reply_is_malformed_not_split_into_letters(self):
        gw = Gateway(ScriptedMockBackend([{"concepts": "rain, wet"}]))
        with pytest.raises(MalformedOutput) as exc:
            gw.run_sample(extract_concepts_steps("rain made everything wet", DISCOVERY))
        assert exc.value.raw_text == "rain, wet"
        assert gw.calls_made == 1

    def test_empty_text_rejected(self):
        gw = Gateway(ScriptedMockBackend([]))
        with pytest.raises(ValueError):
            gw.run_sample(extract_concepts_steps("   ", DISCOVERY))
