import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import causaltext
from causaltext import store as store_mod
from causaltext.assignment import ConceptAssignment
from causaltext.cli import load_config, loop_config_from, main, sample_seed
from causaltext.errors import InvalidConfig
from causaltext.graphs import Dag, GraphSpec
from causaltext.store import RunManifest, SampleRecord, SampleStore
from causaltext.textgen import Paragraph

DATA = os.path.join(os.path.dirname(__file__), "data")


def make_record(sid, n=3, status="Success", iterations=1, tokens=100, error=None):
    spec = GraphSpec(n=n, p=0.4, max_parents=n - 1, max_children=n - 1,
                     gamma_c=0.0, gamma_v=0.0, mediator_chains=0, seed=0)
    edges = np.zeros((n, n), dtype=np.int8)
    edges[0, 1] = 1
    concepts = [f"Item {k}" for k in range(n)]
    return SampleRecord(
        id=sid,
        spec=spec,
        dag=Dag(n=n, edges=edges),
        assignment=ConceptAssignment(concepts, "d"),
        paragraph=Paragraph("; ".join(concepts) + ".", ConceptAssignment(concepts, "d")),
        loop_status=status,
        loop_iterations=iterations,
        best_l_b=0.0,
        tokens={"total": tokens},
        error=error,
    )


class TestStore:
    def test_record_roundtrip(self):
        rec = make_record("s1")
        assert SampleRecord.from_json(rec.to_json()) == rec

    def test_append_and_reload(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        st = SampleStore(path)
        st.append(make_record("a"))
        st.append(make_record("b"))
        st2 = SampleStore(path)
        assert st2.ids == {"a", "b"}
        assert [r.id for r in st2] == ["a", "b"]

    def test_duplicate_rejected(self, tmp_path):
        st = SampleStore(str(tmp_path / "s.jsonl"))
        st.append(make_record("a"))
        with pytest.raises(ValueError):
            st.append(make_record("a"))

    def test_append_to_torn_store_drops_the_torn_line_first(self, tmp_path, caplog):
        path = str(tmp_path / "s.jsonl")
        SampleStore(path).append(make_record("a"))
        line = json.dumps(make_record("b").to_json())
        with open(path, "a") as fh:
            fh.write(line[: len(line) // 2])
        with caplog.at_level("WARNING", logger="causaltext.gateway"):
            SampleStore(path).append(make_record("c"))
        assert any("torn last line" in rec.message for rec in caplog.records)
        assert [r.id for r in SampleStore(path)] == ["a", "c"]

    def test_manifest_matches_recomputation(self, tmp_path):
        st = SampleStore(str(tmp_path / "s.jsonl"))
        st.append(make_record("a", n=3, status="Success", iterations=1, tokens=100))
        st.append(make_record("b", n=3, status="Fail", iterations=10, tokens=900))
        st.append(make_record("c", n=4, status="Success", iterations=3, tokens=300))
        st.append(make_record("d", n=4, error="VerificationError: x"))
        mf = RunManifest.from_store(st, config={}, seed=0)
        assert mf.per_n_counts == {3: 2, 4: 2}
        assert mf.success_rate == pytest.approx(2 / 3)
        assert mf.median_iterations == 3
        assert mf.median_tokens == 300
        assert mf.total_tokens == 1300
        assert mf.errors == 1


class TestStartup:
    def test_cli_import_does_not_load_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(causaltext.__file__)))
        code = (
            "import sys, causaltext, causaltext.cli\n"
            "print('scipy' in sys.modules)\n"
            f"table = causaltext.ScoreTable.from_csv({os.path.join(DATA, 'scores_gpt5.csv')!r})\n"
            "causaltext.agreement(table, b_permutations=20, b_bootstrap=20, exhaustive=False)\n"
            "print('scipy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "False"]

    def test_blas_pool_defaults_to_one_thread(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(causaltext.__file__)))
        code = "import os, causaltext; print(os.environ['OPENBLAS_NUM_THREADS'])"
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        for setting, want in ((None, "1"), ("2", "2")):
            run_env = {**env, "PYTHONPATH": src, **({"OPENBLAS_NUM_THREADS": setting} if setting else {})}
            out = subprocess.run([sys.executable, "-c", code], env=run_env, capture_output=True, text=True, check=True)
            assert out.stdout.strip() == want


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        lc = loop_config_from(cfg)
        assert (lc.m, lc.tau, lc.alpha, lc.k_max) == (5, 0.6, 1.0, 10)
        assert cfg.getint("phase1", "per_n") == 500

    def test_override_file(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[phase2]\nm = 7\nk_max = 2\n")
        lc = loop_config_from(load_config(str(p)))
        assert lc.m == 7 and lc.k_max == 2 and lc.tau == 0.6

    def test_missing_file(self):
        with pytest.raises(InvalidConfig):
            load_config("/nonexistent/file.ini")

    def test_out_of_range_values(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[phase2]\ntau = 1.5\n")
        with pytest.raises(InvalidConfig):
            loop_config_from(load_config(str(p)))

    def test_sample_seed_deterministic(self):
        assert sample_seed(0, 3, 1) == sample_seed(0, 3, 1)
        assert sample_seed(0, 3, 1) != sample_seed(0, 3, 2)
        assert sample_seed(0, 3, 1) != sample_seed(1, 3, 1)


class TestGraphgenCommand:
    def test_count_and_determinism(self, tmp_path):
        runner = CliRunner()
        out1, out2 = str(tmp_path / "g1"), str(tmp_path / "g2")
        r1 = runner.invoke(main, ["graphgen", "--out", out1, "--per-n", "2", "--seed", "5"])
        r2 = runner.invoke(main, ["graphgen", "--out", out2, "--per-n", "2", "--seed", "5"])
        assert r1.exit_code == 0, r1.output
        files = sorted(os.listdir(out1))
        assert len(files) == 16  # 2 per n for n in 3..10
        for f in files:
            assert open(os.path.join(out1, f)).read() == open(os.path.join(out2, f)).read()

    def test_invalid_config_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[phase1]\nn_min = 3\nn_max = 11\n")
        runner = CliRunner()
        r = runner.invoke(
            main, ["graphgen", "--out", str(tmp_path / "g"), "--per-n", "1", "--config", str(p)]
        )
        assert r.exit_code != 0


class TestGenerateEvaluate:
    def run_pipeline(self, tmp_path, per_n=1):
        runner = CliRunner()
        graphs = str(tmp_path / "graphs")
        store = str(tmp_path / "samples.jsonl")
        r = runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", str(per_n)])
        assert r.exit_code == 0, r.output
        r = runner.invoke(
            main,
            ["generate", "--graphs", graphs, "--out", store, "--mock-script", '{"mode": "oracle"}'],
        )
        assert r.exit_code == 0, r.output
        return runner, graphs, store

    def test_generate_with_oracle(self, tmp_path):
        runner, graphs, store = self.run_pipeline(tmp_path)
        st = SampleStore(store)
        assert len(st) == 8
        for rec in st:
            assert rec.loop_status == "Success"
            assert rec.loop_iterations == 1
            assert rec.error is None
            assert rec.paragraph is not None
        manifest = json.load(open(store + ".manifest.json"))
        assert manifest["success_rate"] == 1.0
        assert manifest["errors"] == 0

    def test_resume_skips_existing(self, tmp_path):
        runner, graphs, store = self.run_pipeline(tmp_path)
        r = runner.invoke(
            main,
            ["generate", "--graphs", graphs, "--out", store,
             "--mock-script", '{"mode": "oracle"}', "--resume"],
        )
        assert r.exit_code == 0, r.output
        assert "skipped 8" in r.output
        assert len(SampleStore(store)) == 8

    def test_resume_regenerates_torn_last_record(self, tmp_path, caplog):
        runner, graphs, store = self.run_pipeline(tmp_path)
        with open(store) as fh:
            lines = fh.readlines()
        before = [json.loads(line) for line in lines]
        with open(store, "w") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 2])  # a kill in the middle of the last append
        with caplog.at_level("WARNING", logger="causaltext.gateway"):
            r = runner.invoke(
                main,
                ["generate", "--graphs", graphs, "--out", store,
                 "--mock-script", '{"mode": "oracle"}', "--resume"],
            )
        assert r.exit_code == 0, r.output
        assert "generated 1, failed 0, skipped 7" in r.output
        assert any("torn last line" in rec.message for rec in caplog.records)
        with open(store) as fh:
            after = [json.loads(line) for line in fh]
        for obj in before + after:
            obj.pop("created_at")
        assert after == before
        assert len(SampleStore(store)) == 8

    def test_rerun_without_resume_fails(self, tmp_path):
        runner, graphs, store = self.run_pipeline(tmp_path)
        r = runner.invoke(
            main,
            ["generate", "--graphs", graphs, "--out", store, "--mock-script", '{"mode": "oracle"}'],
        )
        assert r.exit_code != 0

    def test_evaluate_self_comparison(self, tmp_path):
        runner, graphs, store = self.run_pipeline(tmp_path)
        out = str(tmp_path / "eval.json")
        r = runner.invoke(main, ["evaluate", "--store", store, "--out", out])
        assert r.exit_code == 0, r.output
        result = json.load(open(out))
        for row in result["samples"]:
            assert row["f1"] == 1.0 and row["shd"] == 0 and row["sid"] == 0
            assert row["coverage_ok"] is True
        for n, agg in result["per_n"].items():
            assert agg["f1"]["mean"] == 1.0

    def test_evaluate_reads_store_once(self, tmp_path, monkeypatch):
        runner, graphs, store = self.run_pipeline(tmp_path)
        calls = []

        def counting_read_jsonl(path):
            calls.append(path)
            return read_jsonl(path)

        read_jsonl = store_mod.read_jsonl
        monkeypatch.setattr(store_mod, "read_jsonl", counting_read_jsonl)
        r = runner.invoke(main, ["evaluate", "--store", store])
        assert r.exit_code == 0, r.output
        assert calls == [store]

    def test_evaluate_with_reference_dir(self, tmp_path):
        runner, graphs, store = self.run_pipeline(tmp_path)
        refs = tmp_path / "refs"
        refs.mkdir()
        for rec in SampleStore(store):
            with open(refs / f"{rec.id}.json", "w") as fh:
                json.dump({"edges": rec.dag.edges.tolist()}, fh)
        r = runner.invoke(main, ["evaluate", "--store", store, "--reference", str(refs)])
        assert r.exit_code == 0, r.output

    def test_evaluate_missing_reference(self, tmp_path):
        runner, graphs, store = self.run_pipeline(tmp_path)
        refs = tmp_path / "refs"
        refs.mkdir()
        r = runner.invoke(main, ["evaluate", "--store", store, "--reference", str(refs)])
        assert r.exit_code != 0
        assert "no reference graph" in r.output

    def test_evaluate_projects_cyclic_reference(self, tmp_path):
        runner, graphs, store = self.run_pipeline(tmp_path)
        refs = tmp_path / "refs"
        refs.mkdir()
        for rec in SampleStore(store):
            edges = rec.dag.edges.tolist()
            # make every reference a 2-cycle on (0, 1)
            edges[0][1] = edges[1][0] = 1
            with open(refs / f"{rec.id}.json", "w") as fh:
                json.dump({"edges": edges}, fh)
        out = str(tmp_path / "eval.json")
        r = runner.invoke(main, ["evaluate", "--store", store, "--reference", str(refs), "--out", out])
        assert r.exit_code == 0, r.output
        result = json.load(open(out))
        assert all(len(row["projection_removed"]) >= 1 for row in result["samples"])


class TestTransferCommand:
    def test_table_output(self, tmp_path):
        runner = CliRunner()
        out = str(tmp_path / "stats.json")
        r = runner.invoke(
            main,
            ["transfer", "--scores", os.path.join(DATA, "scores_gpt5.csv"),
             "--b-perms", "200", "--no-bootstrap", "--out", out],
        )
        assert r.exit_code == 0, r.output
        assert "f1" in r.output and "average" in r.output
        result = json.load(open(out))
        assert result["agreement"]["per_metric"]["f1"]["pearson"] == pytest.approx(0.923, abs=0.005)

    def test_loo_flag(self, tmp_path):
        runner = CliRunner()
        r = runner.invoke(
            main,
            ["transfer", "--scores", os.path.join(DATA, "scores_gpt5.csv"),
             "--b-perms", "100", "--no-bootstrap", "--loo"],
        )
        assert r.exit_code == 0, r.output
        assert "without LLM-CG" in r.output


class TestConsensusCommand:
    def write_ratings(self, path, rows):
        with open(path, "w") as fh:
            fh.write("text_id,i,j,rater_id,label\n")
            for row in rows:
                fh.write(",".join(str(x) for x in row) + "\n")

    def panel(self, yes_counts, n=2, raters=11):
        rows = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                yes = yes_counts.get((i, j), 0)
                for r in range(raters):
                    rows.append(("t", i, j, r, 1 if r < yes else 0))
        return rows

    def test_unanimous_panel(self, tmp_path):
        path = str(tmp_path / "r.csv")
        self.write_ratings(path, self.panel({(0, 1): 11}))
        out = str(tmp_path / "c.json")
        r = CliRunner().invoke(main, ["consensus", "--ratings", path, "--out", out])
        assert r.exit_code == 0, r.output
        assert "alpha=1.0000" in r.output
        result = json.load(open(out))
        assert result["texts"]["t"]["consensus"]["edges"][0][1] == 1
        assert result["flags"]["borderline_edges"] == []

    def test_borderline_flagged(self, tmp_path):
        path = str(tmp_path / "r.csv")
        self.write_ratings(path, self.panel({(0, 1): 6, (1, 0): 11}))
        r = CliRunner().invoke(main, ["consensus", "--ratings", path])
        assert r.exit_code == 0, r.output
        assert "borderline_edges=1" in r.output

    def test_malformed_row_reports_line(self, tmp_path):
        path = str(tmp_path / "r.csv")
        rows = self.panel({(0, 1): 6})
        with open(path, "w") as fh:
            fh.write("text_id,i,j,rater_id,label\n")
            fh.write("t,0,1,0,1\n")
            fh.write("t,0,one,0,1\n")
        r = CliRunner().invoke(main, ["consensus", "--ratings", path])
        assert r.exit_code != 0
        assert ":3:" in r.output


class TestCacheCommand:
    def test_inspect_and_clear(self, tmp_path):
        from causaltext.gateway import ResponseCache

        path = str(tmp_path / "cache.json")
        c = ResponseCache(path)
        c.put("k1", {"v": 1})
        c.put("k2", {"v": 2})
        runner = CliRunner()
        r = runner.invoke(main, ["cache", "--cache", path])
        assert r.exit_code == 0 and "2 cached entries" in r.output
        r = runner.invoke(main, ["cache", "--cache", path, "--clear"])
        assert r.exit_code == 0
        r = runner.invoke(main, ["cache", "--cache", path])
        assert "0 cached entries" in r.output
