import errno
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import click
from click.testing import CliRunner

import causaltext
from causaltext import store as store_mod
from causaltext.assignment import ASSIGNMENT_KEY, ConceptAssignment, FallacySet, LoopResult, MismatchReport, VoteTable
from causaltext.cli import _write_json, load_config, loop_config_from, main, sample_seed
from causaltext.errors import AuthError, CorruptLine, InvalidConfig, InvalidSpec
from causaltext.gateway import HttpBackend
from causaltext.graphs import Dag, GraphSpec
from causaltext.metrics import MetricReport
from causaltext.store import RunManifest, SampleRecord, SampleStore
from causaltext.textgen import Paragraph
from causaltext.transfer import AgreementStats, MetricAgreement, stability_curve

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


def cut_line_short(path, num):
    """Damage line ``num`` of a text file: cut it in half, keeping its newline."""
    with open(path) as fh:
        lines = fh.readlines()
    lines[num - 1] = lines[num - 1][: len(lines[num - 1]) // 2] + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def set_field(path, num, key, value):
    """Set ``key`` of the record on line ``num`` of a store to the JSON ``value``."""
    with open(path) as fh:
        lines = fh.readlines()
    lines[num - 1] = json.dumps({**json.loads(lines[num - 1]), key: json.loads(value)}) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def damage_line(path, num, how):
    """Damage line ``num`` of a JSON Lines file, keeping its newline: make it a JSON
    array ("array") or put byte 0xe9 inside its first string ("latin1")."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    if how == "array":
        lines[num - 1] = b"[1, 2]\n"
    else:
        lines[num - 1] = lines[num - 1].replace(b'"', b'"\xe9', 1)
    with open(path, "wb") as fh:
        fh.writelines(lines)


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def records_digest(path):
    """sha256 over a store's records, each without ``created_at``, in key order."""
    records = hashlib.sha256()
    for _, obj in store_mod.read_jsonl(path):
        del obj["created_at"]
        records.update(json.dumps(obj, sort_keys=True).encode() + b"\n")
    return records.hexdigest()


DAMAGE_MESSAGES = {"array": "not a JSON object", "latin1": "not UTF-8 text ("}
# "KEY VALUE" (the record with KEY set to VALUE) or "spec.KEY VALUE" -> what the store's error line says of it
FIELD_DAMAGE = {
    'tokens "lots"': "tokens must be an object with an integer total, got 'lots'",
    'loop_iterations "two"': "loop_iterations must be int or null, got 'two'",
    'tokens {"total": "many"}': "tokens must be an object with an integer total, got {'total': 'many'}",
    "loop_status 5": "loop_status must be str or null, got 5",
    "tokens null": "tokens must be an object with an integer total, got None",
    "spec.p 2.0": "spec: p must lie in (0, 1], got 2.0",
}
# a whole line, or "KEY VALUE", put on line 3 of an 8-record store (record n4_00000) -> its error line
RECORD_DAMAGE = {
    "{}": "not a sample record: spec: KeyError: 'spec'",
    '{"id": "n3_00000"}': "record 'n3_00000': spec: KeyError: 'spec'",
    "id [1]": "not a sample record: id must be a string or an integer, got [1]",
    "id true": "not a sample record: id must be a string or an integer, got True",
    "spec null": "record 'n4_00000': spec: TypeError: 'NoneType' object is not subscriptable",
    "spec {}": "record 'n4_00000': spec: KeyError: 'n'",
    "dag null": "record 'n4_00000': dag: TypeError: 'NoneType' object is not subscriptable",
    'dag {"n": 4, "edges": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]}':
        "record 'n4_00000': dag: CyclicInput: adjacency has a directed cycle",
    'dag {"n": 3, "edges": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}': "record 'n4_00000': dag has 3 nodes, spec says 4",
}


class TestStore:
    def test_record_roundtrip(self):
        rec = make_record("s1")
        assert SampleRecord.from_json(rec.to_json()) == rec

    @pytest.mark.parametrize("change, error, message", [
        ({"id": [1]}, TypeError, "id must be a string or an integer, got [1]"),
        ({"id": True}, TypeError, "id must be a string or an integer, got True"),  # it would share id 1's index entry
        ({"spec": GraphSpec(n=3, p=2.0, max_parents=2, max_children=2, gamma_c=0.0, gamma_v=0.0, mediator_chains=0)},
         InvalidSpec, "spec: p must lie in (0, 1], got 2.0"),
        ({"dag": Dag(n=2, edges=np.zeros((2, 2)))}, ValueError, "dag has 2 nodes, spec says 3"),
        ({"tokens": None}, TypeError, "tokens must be an object with an integer total, got None"),
        ({"tokens": {"total": 1.5}}, TypeError, "tokens must be an object with an integer total, got {'total': 1.5}"),
        ({"loop_iterations": "2"}, TypeError, "loop_iterations must be int or null, got '2'"),
        ({"loop_status": 1}, TypeError, "loop_status must be str or null, got 1"),
    ], ids=["id", "id-bool", "spec", "dag", "tokens", "tokens-total", "loop_iterations", "loop_status"])
    def test_record_checks_its_fields_and_names_the_one_that_fails(self, change, error, message):
        fields = {**vars(make_record("s1")), **change}
        with pytest.raises(error) as info:
            SampleRecord(**fields)
        assert str(info.value) == message
        # an empty tokens object, as a failed sample has, and null loop fields pass
        SampleRecord(**{**vars(make_record("s1")), "tokens": {}, "loop_iterations": None, "loop_status": None})

    def test_append_and_reload(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        st = SampleStore(path)
        st.append(make_record("a"))
        st.append(make_record("b"))
        st2 = SampleStore(path)
        assert {r.id for r in st2} == {"a", "b"}
        assert [r.id for r in st2] == ["a", "b"]

    def test_duplicate_rejected(self, tmp_path):
        st = SampleStore(str(tmp_path / "s.jsonl"))
        st.append(make_record("a"))
        with pytest.raises(ValueError):
            st.append(make_record("a"))

    def test_a_failed_record_is_superseded_and_counted_once(self, tmp_path):
        st = SampleStore(str(tmp_path / "s.jsonl"))
        st.append(make_record("a", error="TransportError: x"))
        st.append(make_record("a", error="TransportError: y"))
        assert "a" in st and not st.finished("a")
        st.append(make_record("a", tokens=50))
        assert st.finished("a") and len(st) == 1
        with pytest.raises(ValueError, match="duplicate sample id 'a'"):
            SampleStore(st.path).append(make_record("a"))
        mf = RunManifest.from_store(st, config={}, seed=0)
        assert (mf.per_n_counts, mf.errors, mf.success_rate, mf.total_tokens) == ({3: 1}, 0, 1.0, 50)

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

    @pytest.mark.parametrize("content", [b'{"a": 1}\n[1, 2]\n', b'{"a": 1}\n7'])
    def test_line_that_is_not_an_object_names_its_line(self, tmp_path, content):
        path = str(tmp_path / "s.jsonl")
        with open(path, "wb") as fh:
            fh.write(content)
        with pytest.raises(CorruptLine, match=f"^{path}:2: not a JSON object$"):
            list(store_mod.read_jsonl(path))
        with open(path, "rb") as fh:
            assert fh.read() == content

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

    def test_manifest_from_the_index_equals_a_fresh_read(self, tmp_path):
        """Counted from what one store object read and appended, or from another object's read."""
        path = str(tmp_path / "s.jsonl")
        SampleStore(path).append(make_record("a", error="TransportError: x"))
        st = SampleStore(path)
        st.append(make_record("b", n=4, tokens=70))
        st.append(make_record("a", iterations=None, status=None))
        for sid, tokens in (("c", {}), ("d", {"calls": 3})):
            st.append(SampleRecord(**{**vars(make_record(sid, n=5)), "tokens": tokens}))
        st.append(make_record("e", error="VerificationError: y"))
        mf = RunManifest.from_store(st, config={}, seed=0)
        assert mf == RunManifest.from_store(SampleStore(path), config={}, seed=0)
        assert (mf.per_n_counts, mf.errors, mf.success_rate, mf.median_iterations, mf.median_tokens,
                mf.total_tokens) == ({3: 2, 4: 1, 5: 2}, 1, 1.0, 1, 70, 170)


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

    def test_cli_import_does_not_load_the_http_client(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(causaltext.__file__)))
        code = (
            "import sys, causaltext, causaltext.cli\n"
            "print('requests' in sys.modules, 'http.client' in sys.modules)\n"
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

    @pytest.mark.parametrize("args, status, stdout, stderr", [
        (["consensus", "--ratings", "r.csv", "--raters", "2"], 0, "alpha=1.0000, texts=1, borderline_edges=0\n", ""),
        (["consensus", "--ratings", "r.csv", "--raters", "0"], 2, "",
         "\n\nError: Invalid value for '--raters': 0 is not in the range x>=1.\n"),
        (["transfer", "--scores", os.path.join(DATA, "scores_gpt5.csv"), "--out", "missing/t.json"], 1, "",
         "Error: --out: cannot write missing/t.json: No such file or directory\n"),
    ], ids=["success", "usage-error", "error"])
    def test_module_run_keeps_stderr_apart_from_stdout(self, tmp_path, args, status, stdout, stderr):
        """``python -m causaltext.cli`` in a process of its own: the exit status, and stdout and stderr as
        separate streams, for a success, a usage error (click's usage lines, then the error) and an ``Error:`` line."""
        (tmp_path / "r.csv").write_text("text_id,i,j,rater_id,label\nt1,0,1,0,1\nt1,0,1,1,1\nt1,1,0,0,0\nt1,1,0,1,0\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(causaltext.__file__)))
        out = subprocess.run([sys.executable, "-m", "causaltext.cli", *args], cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (status, stdout)
        if status == 2:
            assert out.stderr.startswith("Usage: ") and out.stderr.endswith(stderr), out.stderr
        else:
            assert out.stderr == stderr
        assert sorted(os.listdir(tmp_path)) == ["r.csv"]


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
        with pytest.raises(InvalidConfig, match="config file not found: /nonexistent/file.ini"):
            load_config("/nonexistent/file.ini")

    @pytest.mark.parametrize("command", ["graphgen", "generate"])
    def test_config_that_cannot_be_read_is_one_error_line_and_writes_nothing(self, tmp_path, command):
        """A --config that is a directory is not skipped: the command stops before it writes anything."""
        graphs = tmp_path / "graphs"
        assert CliRunner().invoke(main, ["graphgen", "--out", str(graphs), "--per-n", "1"]).exit_code == 0
        config = tmp_path / "conf"
        config.mkdir()
        args = {"graphgen": ["--out", str(tmp_path / "g"), "--per-n", "1"],
                "generate": ["--graphs", str(graphs), "--out", str(tmp_path / "s.jsonl"),
                             "--mock-script", '{"mode": "oracle"}']}[command]
        r = CliRunner().invoke(main, [command, "--config", str(config), *args])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
        assert r.output == f"Error: cannot read config file {config}: Is a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["conf", "graphs"]

    def test_a_percent_in_a_value_is_read_verbatim(self, tmp_path, monkeypatch):
        """No ``%`` interpolation: the domain reaches the manifest, and a percent-encoded endpoint the backend, as written."""
        endpoint = "http://localhost:1/v1/chat%2Fcompletions"
        p = tmp_path / "c.ini"
        p.write_text(f"[phase3]\ndomain = 50% retail\n[backends]\nendpoint = {endpoint}\ncredential_env = SOME_KEY\n")
        built = []

        class Recording(HttpBackend):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.endpoint)
                raise AuthError("stopped before the first call")

        monkeypatch.setattr("causaltext.cli.HttpBackend", Recording)
        monkeypatch.setenv("SOME_KEY", "secret")
        runner = CliRunner()
        graphs, store = str(tmp_path / "graphs"), str(tmp_path / "s.jsonl")
        assert runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        gen = ["generate", "--config", str(p), "--graphs", graphs]
        r = runner.invoke(main, [*gen, "--out", store, "--mock-script", '{"mode": "oracle"}'])
        assert r.exit_code == 0, r.exception
        with open(store + ".manifest.json") as fh:
            assert json.load(fh)["config"]["domain"] == "50% retail"
        r = runner.invoke(main, [*gen, "--out", str(tmp_path / "live.jsonl")])
        assert r.exit_code == 1 and r.output == "Error: stopped before the first call\n", r.exception
        assert built == [endpoint]

    def test_out_of_range_values(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[phase2]\ntau = 1.5\n")
        with pytest.raises(InvalidConfig):
            loop_config_from(load_config(str(p)))

    @pytest.mark.parametrize("value", ["0", "x"])
    def test_invalid_max_in_flight(self, tmp_path, value):
        p = tmp_path / "c.ini"
        p.write_text(f"[backends]\nmax_in_flight = {value}\n")
        graphs = str(tmp_path / "graphs")
        runner = CliRunner()
        assert runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        r = runner.invoke(main, ["generate", "--config", str(p), "--graphs", graphs,
                                 "--out", str(tmp_path / "s.jsonl"), "--mock-script", '{"mode": "oracle"}'])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert "backends.max_in_flight" in r.output
        assert load_config(None).getint("backends", "max_in_flight") == 8

    def test_phase2_defaults_are_the_loop_config_defaults(self):
        assert dict(load_config(None)["phase2"]) == {"m": "5", "tau": "0.6", "alpha": "1.0", "k_max": "10"}

    @pytest.mark.parametrize("line", ["m = 0", "alpha = nan", "alpha = inf", "k_max = x"])
    def test_loop_config_errors_become_invalid_config(self, tmp_path, line):
        p = tmp_path / "c.ini"
        p.write_text(f"[phase2]\n{line}\n")
        with pytest.raises(InvalidConfig, match="phase2"):
            loop_config_from(load_config(str(p)))

    @pytest.mark.parametrize("command, config, extra, named", [
        ("generate", "[phase2]\nm = 0\n", ["--mock-script", '{"mode": "oracle"}'], "phase2: loop settings need m >= 1"),
        ("generate", "[phase2]\nk_max = x\n", ["--mock-script", '{"mode": "oracle"}'], "phase2.k_max"),
        ("generate", "", ["--mock-script", "notjson{"], "--mock-script: JSONDecodeError"),
        ("generate", "[backends]\npool = \n", [], "backends.pool: empty backend pool"),
        ("graphgen", "[phase1]\nn_min = x\n", [], "phase1.n_min"),
        ("graphgen", "not an ini file\n", [], "cannot parse config file"),
        ("graphgen", "", ["--per-n", "-2"], "--per-n: need at least 1 graph per n, got -2"),
        ("graphgen", "[phase1]\nn_min = 6\nn_max = 4\n", [], "phase1.n_min: 6 is above phase1.n_max (4)"),
        ("generate", "[backends]\nprimary = a\npool = a, a\n", [],
         "backends.pool: pool contains no model distinct from the primary"),
        ("generate", "", ["--mock-script", '{"mode": "scripted"}'],
         "--mock-script: ValueError(\"script must be {'rules': [...]} or a reply list\")"),
        ("generate", "[backends]\nmax_in_flight = 0\n", ["--mock-script", '{"mode": "oracle"}'],
         "backends.max_in_flight must be >= 1, got 0"),
        # the backend is built before the window is checked
        ("generate", "[backends]\nmax_in_flight = 0\ncredential_env = CAUSALTEXT_TEST_NO_SUCH_KEY\n", [],
         "no credential in $CAUSALTEXT_TEST_NO_SUCH_KEY"),
    ])
    def test_config_errors_are_click_errors_naming_the_key(self, tmp_path, command, config, extra, named):
        p = tmp_path / "c.ini"
        p.write_text(config)
        runner = CliRunner()
        graphs = str(tmp_path / "graphs")
        assert runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        args = {"generate": ["--graphs", graphs, "--out", str(tmp_path / "s.jsonl")],
                "graphgen": ["--out", str(tmp_path / "g2"), "--per-n", "1"]}[command]
        r = runner.invoke(main, [command, "--config", str(p), *args, *extra])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
        assert named in r.output

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
            assert Path(out1, f).read_text() == Path(out2, f).read_text()

    def test_200_graph_files_are_pinned(self, tmp_path):
        """The 200 files of ``graphgen --per-n 25 --seed 3`` (n = 3..10), names included, hash to
        the value computed with the array sampler, before ``sample_dag`` moved to Python lists."""
        out = str(tmp_path / "graphs")
        r = CliRunner().invoke(main, ["graphgen", "--out", out, "--per-n", "25", "--seed", "3"])
        assert r.exit_code == 0, r.output
        files = hashlib.sha256()
        names = sorted(os.listdir(out))
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                files.update(name.encode() + b"\0" + fh.read())
        assert len(names) == 200
        assert files.hexdigest() == "2bf7664f4a9d08d7723e4631b5aeb2deff27bfb0149ae4d3f59a91a1b07f1bd3"

    @pytest.mark.parametrize("bounds, named", [
        ("n_max = 11", "phase1.n_max: n must lie in 3..10 for spec-space sampling, got 11"),
        ("n_min = 2", "phase1.n_min: n must lie in 3..10 for spec-space sampling, got 2"),
    ], ids=["n_max-11", "n_min-2"])
    def test_invalid_config_rejected(self, tmp_path, bounds, named):
        """An n outside 3..10 is one error line, before ``--out`` is made."""
        p = tmp_path / "c.ini"
        p.write_text(f"[phase1]\n{bounds}\n")
        r = CliRunner().invoke(main, ["graphgen", "--out", str(tmp_path / "g"), "--per-n", "1", "--config", str(p)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
        assert r.output == f"Error: {named}\n"
        assert not (tmp_path / "g").exists()

    def test_config_per_n_below_one_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[phase1]\nper_n = -2\n")
        r = CliRunner().invoke(main, ["graphgen", "--out", str(tmp_path / "g"), "--config", str(p)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
        assert r.output == "Error: phase1.per_n: need at least 1 graph per n, got -2\n"
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("command", ["graphgen", "transfer"])
    def test_negative_seed_is_a_usage_error_before_any_file(self, tmp_path, command):
        args = {"graphgen": ["graphgen", "--out", str(tmp_path / "g"), "--per-n", "1"],
                "transfer": ["transfer", "--scores", os.path.join(DATA, "scores_gpt5.csv"),
                             "--out", str(tmp_path / "t.json")]}[command]
        r = CliRunner().invoke(main, [*args, "--seed", "-1"])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit), r.exception
        assert "Invalid value for '--seed': -1 is not in the range x>=0." in r.output
        assert os.listdir(tmp_path) == []


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
        manifest = json.loads(Path(store + ".manifest.json").read_text())
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

    @pytest.mark.parametrize("damage", ["truncate", "not_an_object"])
    def test_unreadable_graph_file_fails_only_that_file(self, tmp_path, damage):
        runner = CliRunner()
        graphs = str(tmp_path / "graphs")
        store = str(tmp_path / "samples.jsonl")
        assert runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        bad = os.path.join(graphs, "n4_00000.json")
        with open(bad) as fh:
            original = fh.read()
        with open(bad, "w") as fh:
            fh.write(original[:50] if damage == "truncate" else "[]")
        gen = ["generate", "--graphs", graphs, "--out", store, "--mock-script", '{"mode": "oracle"}']
        r = runner.invoke(main, gen)
        assert r.exit_code != 0
        assert "n4_00000.json" in r.stderr
        assert "generated 7, failed 1, skipped 0" in r.stdout
        assert len(SampleStore(store)) == 7
        assert json.loads(Path(store + ".manifest.json").read_text())["errors"] == 0
        with open(bad, "w") as fh:
            fh.write(original)
        r = runner.invoke(main, [*gen, "--resume"])
        assert r.exit_code == 0, r.output
        assert "generated 1, failed 0, skipped 7" in r.output
        assert "n4_00000" in SampleStore(store)

    def test_invalid_graph_fails_only_that_file(self, tmp_path):
        runner = CliRunner()
        graphs = str(tmp_path / "graphs")
        store = str(tmp_path / "samples.jsonl")
        assert runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        bad = {
            "n3_00000": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],  # a 3-cycle
            "n4_00000": [[1, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],  # a 2 and a self-loop
        }
        for sid_, edges in bad.items():
            path = os.path.join(graphs, f"{sid_}.json")
            payload = json.loads(Path(path).read_text())
            payload["dag"]["edges"] = edges
            with open(path, "w") as fh:
                json.dump(payload, fh)
        r = runner.invoke(main, ["generate", "--graphs", graphs, "--out", store, "--mock-script", '{"mode": "oracle"}'])
        assert r.exit_code != 0
        assert "n3_00000.json: CyclicInput" in r.stderr
        assert "n4_00000.json: ShapeMismatch" in r.stderr
        assert "generated 6, failed 2, skipped 0" in r.stdout
        assert {r.id for r in SampleStore(store)}.isdisjoint(bad)
        assert json.loads(Path(store + ".manifest.json").read_text())["errors"] == 0

    @pytest.mark.parametrize("dag, why", [
        ({"n": 1, "edges": [[0]]}, "InvalidSpec"),  # with a one-node spec
        ({"n": 2, "edges": [[0, 1], [0, 0]]}, "ValueError"),  # the spec says 3 nodes
    ])
    def test_graph_file_checked_against_its_spec(self, tmp_path, dag, why):
        runner = CliRunner()
        graphs = str(tmp_path / "graphs")
        store = str(tmp_path / "samples.jsonl")
        assert runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        path = os.path.join(graphs, "n3_00000.json")
        original = Path(path).read_text()
        payload = json.loads(original)
        payload["dag"] = dag
        if dag["n"] == 1:
            payload["spec"]["n"] = 1
        with open(path, "w") as fh:
            json.dump(payload, fh)
        gen = ["generate", "--graphs", graphs, "--out", store, "--mock-script", '{"mode": "oracle"}']
        r = runner.invoke(main, gen)
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert f"n3_00000.json: {why}" in r.stderr
        assert "generated 7, failed 1, skipped 0" in r.stdout
        assert json.loads(Path(store + ".manifest.json").read_text())["errors"] == 0
        with open(path, "w") as fh:
            fh.write(original)
        r = runner.invoke(main, [*gen, "--resume"])
        assert r.exit_code == 0, r.output
        assert "generated 1, failed 0, skipped 7" in r.output

    def test_non_list_assignment_fails_only_its_sample(self, tmp_path):
        runner = CliRunner()
        graphs = str(tmp_path / "graphs")
        store = str(tmp_path / "samples.jsonl")
        assert runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        script = json.dumps({"rules": [{"template": "phase2", "reply": {ASSIGNMENT_KEY: 5}}]})
        r = runner.invoke(main, ["generate", "--graphs", graphs, "--out", store, "--mock-script", script])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert "generated 0, failed 8, skipped 0" in r.stdout
        records = list(SampleStore(store))
        assert len(records) == 8
        assert all(rec.error.startswith("MalformedOutput: concept entries are not a list") for rec in records)
        assert json.loads(Path(store + ".manifest.json").read_text())["errors"] == 8

    def test_a_mock_script_file_gives_the_store_of_the_same_script_inline(self, tmp_path):
        runner, graphs, inline = self.run_pipeline(tmp_path)
        script = tmp_path / "script.json"
        script.write_text('{"mode": "oracle"}')
        out = str(tmp_path / "from_file.jsonl")
        r = runner.invoke(main, ["generate", "--graphs", graphs, "--out", out, "--mock-script", str(script)])
        assert r.exit_code == 0, r.output
        assert records_digest(out) == records_digest(inline)

    def test_unhashable_id_fails_only_that_file(self, tmp_path):
        runner = CliRunner()
        graphs = str(tmp_path / "graphs")
        store = str(tmp_path / "samples.jsonl")
        assert runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0

        def set_id(fname, value):
            path = os.path.join(graphs, fname)
            payload = json.loads(Path(path).read_text())
            payload["id"] = value
            with open(path, "w") as fh:
                json.dump(payload, fh)

        set_id("n4_00000.json", ["x"])
        set_id("n5_00000.json", 5)  # integer ids keep working
        gen = ["generate", "--graphs", graphs, "--out", store, "--mock-script", '{"mode": "oracle"}']
        r = runner.invoke(main, gen)
        assert r.exit_code != 0
        assert "n4_00000.json: TypeError" in r.stderr
        assert "generated 7, failed 1, skipped 0" in r.stdout
        assert 5 in SampleStore(store) and len(SampleStore(store)) == 7
        assert json.loads(Path(store + ".manifest.json").read_text())["errors"] == 0
        set_id("n4_00000.json", "n4_00000")
        r = runner.invoke(main, [*gen, "--resume"])
        assert r.exit_code == 0, r.output
        assert "generated 1, failed 0, skipped 7" in r.output
        assert "n4_00000" in SampleStore(store)

    def test_rerun_without_resume_fails(self, tmp_path):
        runner, graphs, store = self.run_pipeline(tmp_path)
        r = runner.invoke(
            main,
            ["generate", "--graphs", graphs, "--out", store, "--mock-script", '{"mode": "oracle"}'],
        )
        assert r.exit_code != 0

    @pytest.mark.parametrize("resume", [False, True])
    @pytest.mark.parametrize("content", [[], ["scores.csv"]], ids=["empty", "csv-only"])
    def test_graphs_directory_without_graph_files_is_one_error_line(self, tmp_path, content, resume):
        """Exit status 1 and one ``Error:`` line naming the directory; no store, manifest or cache file."""
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        for name in content:
            (graphs / name).write_text("algorithm,n\n")
        r = CliRunner().invoke(main, ["generate", "--graphs", str(graphs), "--out", str(tmp_path / "s.jsonl"),
                                      "--cache", str(tmp_path / "c.jsonl"), "--mock-script", '{"mode": "oracle"}',
                                      *(["--resume"] if resume else [])])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == f"Error: --graphs: no graph files (*.json) in {graphs}\n"
        assert os.listdir(tmp_path) == ["graphs"]

    @pytest.mark.parametrize("option", ["--out", "--cache"])
    def test_a_path_that_cannot_be_appended_to_stops_the_run_before_any_call(self, tmp_path, monkeypatch, option):
        from causaltext.gateway import OracleMockBackend

        class CountingOracle(OracleMockBackend):
            calls = 0

            def complete(self, payload, meta=None):
                CountingOracle.calls += 1
                return super().complete(payload, meta)

        monkeypatch.setattr("causaltext.cli.make_mock_backend", lambda script: CountingOracle())
        graphs = str(tmp_path / "graphs")
        assert CliRunner().invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        paths = {"--out": str(tmp_path / "s.jsonl"), "--cache": str(tmp_path / "c.jsonl")}
        bad = paths[option] = str(tmp_path / "nodir" / "x.jsonl")
        r = CliRunner().invoke(main, ["generate", "--graphs", graphs, "--mock-script", "{}",
                                      "--out", paths["--out"], "--cache", paths["--cache"]])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output.startswith(f"Error: {option}: cannot write {bad}: ")
        assert len(r.output.splitlines()) == 1
        assert CountingOracle.calls == 0
        assert not os.path.exists(paths["--out"] + ".manifest.json")
        assert len(SampleStore(paths["--out"])) == 0

    def test_oracle_outputs_are_pinned(self, tmp_path):
        """Graph files, store records (less ``created_at``), manifest and cache
        log of a seeded oracle run hash to the values a refactor must keep; so
        do the records and manifest of a second, warm run over the same cache
        into a new store (the warm digests were computed before the warm path
        stopped calling numpy on per-sample values)."""
        runner = CliRunner()
        graphs, store, cache, warm = (str(tmp_path / x) for x in ("graphs", "s.jsonl", "cache.jsonl", "w.jsonl"))
        r = runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "3", "--seed", "3"])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["generate", "--graphs", graphs, "--out", store, "--cache", cache,
                                 "--mock-script", '{"mode": "oracle"}'])
        assert r.exit_code == 0, r.output
        cache_digest = file_digest(cache)
        assert runner.invoke(main, ["cache", "--cache", cache]).output == "24 cached entries\n"  # a vote table per graph
        r = runner.invoke(main, ["generate", "--graphs", graphs, "--out", warm, "--cache", cache,
                                 "--mock-script", '{"mode": "oracle"}'])
        assert r.exit_code == 0, r.output
        files = hashlib.sha256()
        for name in sorted(os.listdir(graphs)):
            with open(os.path.join(graphs, name), "rb") as fh:
                files.update(name.encode() + b"\0" + fh.read())
        assert {
            "graphs": files.hexdigest(),
            "store": records_digest(store),
            "manifest": file_digest(store + ".manifest.json"),
            "cache": cache_digest,
            "warm store": records_digest(warm),
            "warm manifest": file_digest(warm + ".manifest.json"),
        } == {
            "graphs": "b1a1aadd3b568386ff82f4aeac7c5dd40c4f885c74a8ad934e2c8a8e846ecb84",
            "store": "40f1299c1c0f59aafc99ab24bfde15b1047657a17ef8b854252d994bef1a44c8",
            "manifest": "b42e5501b05a741e81fbf775a780fd8dd0761209251bbc23585ff513b8cce812",
            "cache": "649049cfa1a7c55a07bdb7aeb602b33ecfe52ef8c85fc527b0fc799c006555b3",
            "warm store": "bcd48572f0aac88259997da4a7f42c2ff1d36f262acccf86e74590eb62f35412",
            "warm manifest": "cfdc48c2b0d4403f6ffeeb858a41ca4dd6e0663218eb51ccbbf71fba627450d3",
        }

    def test_transfer_outputs_are_pinned(self, tmp_path):
        """``transfer --loo`` JSON for each fixture score table hashes to the value a refactor must keep."""
        digests = {}
        for name in ("deepseek", "gpt5", "qwen"):
            out = tmp_path / f"{name}.json"
            r = CliRunner().invoke(main, ["transfer", "--scores", os.path.join(DATA, f"scores_{name}.csv"), "--loo",
                                          "--b-boot", "400", "--b-perms", "2000", "--seed", "1", "--out", str(out)])
            assert r.exit_code == 0, r.output
            digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == {
            "deepseek": "ecbe4add3d5a09e0dddbbe4bb57870abd20874e709f71d5b2f2f284a754348a7",
            "gpt5": "b5d2f8ff27c9f0a0f26c4e7215f0bef8e1b79aedd7d5dce7cd9096b178d1c3af",
            "qwen": "4ab9402feab731dd96b3ba260fa1a8949529195c4e6fccef9207a25cf71294f9",
        }

    def test_sampled_transfer_outputs_are_pinned(self, tmp_path):
        """``transfer --sampled --loo`` JSON for each fixture score table hashes to the value a refactor must keep."""
        digests = {}
        for name in ("deepseek", "gpt5", "qwen"):
            out = tmp_path / f"{name}.json"
            r = CliRunner().invoke(main, ["transfer", "--scores", os.path.join(DATA, f"scores_{name}.csv"), "--sampled",
                                          "--loo", "--b-boot", "400", "--b-perms", "2000", "--seed", "1",
                                          "--out", str(out)])
            assert r.exit_code == 0, r.output
            digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == {
            "deepseek": "8a25cf82091f2d8b1ab97b9e24e5d7787bb7a47473b947e733344786135722c6",
            "gpt5": "b137bd34eb137129dac9882d8f9d4bc24a57cac71f537ab318c128f47142348b",
            "qwen": "6d53d96ececc9ad140755c58845f6ef482c37b51899810900623365fa8a53c35",
        }

    def test_evaluate_output_is_pinned(self, tmp_path):
        """``evaluate --reference --out`` JSON of a seeded oracle store hashes to the value a refactor must keep.

        Each odd sample's reference drops its first edge; the first sample's
        gains the reverse of its first edge, a 2-cycle that is projected away.
        """
        runner = CliRunner()
        graphs, store, refs, out = (str(tmp_path / x) for x in ("graphs", "s.jsonl", "refs", "eval.json"))
        r = runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "2", "--seed", "3"])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["generate", "--graphs", graphs, "--out", store, "--mock-script", '{"mode": "oracle"}'])
        assert r.exit_code == 0, r.output
        os.mkdir(refs)
        for k, rec in enumerate(SampleStore(store)):
            edges = rec.dag.edges.copy()
            u, v = np.argwhere(edges)[0]
            if k == 0:
                edges[v, u] = 1
            elif k % 2:
                edges[u, v] = 0
            with open(os.path.join(refs, f"{rec.id}.json"), "w") as fh:
                json.dump({"edges": edges.tolist()}, fh)
        r = runner.invoke(main, ["evaluate", "--store", store, "--reference", refs, "--out", out])
        assert r.exit_code == 0, r.output
        with open(out) as fh:
            assert sum(len(row["projection_removed"]) for row in json.load(fh)["samples"]) == 1
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == "3ce276c97907e18647e12b3a4511e904aad07347b2cfde26a17b8860157150b8"

    def test_json_text_of_dataclass_records_is_pinned(self, tmp_path):
        """JSON written from the dataclass fields: int keys, tuples and nested
        records come out as the text the hand-written forms gave."""
        st = SampleStore(str(tmp_path / "s.jsonl"))
        st.append(make_record("a", n=3, tokens=120))
        st.append(make_record("b", n=4, error="TransportError: x"))
        st.append(make_record("c", n=3, status="Fail", iterations=4, tokens=80))
        manifest = RunManifest.from_store(st, config={"domain": "d"}, seed=5)
        fallacies = FallacySet(missed=[(0, 1), (2, 0)], spurious=[(1, 2)], tau=0.6)
        stability = stability_curve({np.int64(3): np.full(40, 0.5), 10: np.full(40, 0.25)}, ks=(np.int64(10), 20),
                                    r_trials=3, seed=np.int64(7), delta_ks=np.array([10, 20]))
        concepts = ConceptAssignment(["Rain", "Wet grass", "Slippery road"], "weather")
        mismatch = MismatchReport(l_b=0.7, l_b_miss=0.2, l_b_spur=0.5, alpha=1.0)
        votes = VoteTable(s={(0, 1): 0.8, (1, 0): 0.2}, m=5, votes={(0, 1): [1, 1, 1, 1, 0], (1, 0): [0, 0, 1, 0, 0]})
        agree = MetricAgreement(pearson=0.5, spearman=0.375, r_squared=0.25, p_pearson=0.01, p_spearman=0.02,
                                p_mode="exhaustive", n_permutations=24,
                                ci={"pearson": (0.25, 0.75), "spearman": (0.125, 0.5), "r_squared": (0.0625, 0.5625)})
        paragraph = Paragraph("Rain makes wet grass and a slippery road.", concepts)
        spec = GraphSpec(n=3, p=0.4, max_parents=2, max_children=2, gamma_c=0.0, gamma_v=0.0, mediator_chains=1,
                         seed=9)
        dag = Dag(n=3, edges=np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=np.int8))
        spec_text = ('"spec": {"n": 3, "p": 0.4, "max_parents": 2, "max_children": 2, "gamma_c": 0.0, "gamma_v": 0.0, '
                     '"lambda": 1, "seed": 9}, "dag": {"n": 3, "edges": [[0, 1, 1], [0, 0, 1], [0, 0, 0]]}')
        concepts_text = '{"concepts": ["Rain", "Wet grass", "Slippery road"], "domain": "weather"}'
        paragraph_text = ('{"text": "Rain makes wet grass and a slippery road.", "source_concepts": '
                          + concepts_text + "}")
        mismatch_text = '{"l_b": 0.7, "l_b_miss": 0.2, "l_b_spur": 0.5, "alpha": 1.0}'
        agree_text = ('{"pearson": 0.5, "spearman": 0.375, "r_squared": 0.25, "p_pearson": 0.01, "p_spearman": 0.02, '
                      '"p_mode": "exhaustive", "n_permutations": 24, "ci": {"pearson": [0.25, 0.75], '
                      '"spearman": [0.125, 0.5], "r_squared": [0.0625, 0.5625]}}')
        metric = MetricReport(tp=2, fp=1, fn=0, precision=2 / 3, recall=1.0, f1=0.8, shd=1, sid=2)
        stats = AgreementStats(
            per_metric={"f1": agree, "shd": MetricAgreement(pearson=-0.5, spearman=0.0, r_squared=0.25, p_pearson=1.0)},
            average={"pearson": 0.0, "spearman": 0.1875, "r_squared": 0.25}, seed=1)
        loop = LoopResult(status="Fail", assignment=concepts, iterations=1, best_l_b=0.7,
                          trace=[{"votes": votes, "fallacies": fallacies, "mismatch": mismatch}])
        record = SampleRecord(id="n3_00009", spec=spec, dag=dag, assignment=concepts, paragraph=paragraph,
                              loop_status="Success", loop_iterations=2, best_l_b=0.0, backends={"proposer": "m1"},
                              tokens={"total": 321}, created_at=1700000000.5)
        failed = SampleRecord(id="n3_00010", spec=spec, dag=dag, error="TransportError: x", created_at=2.0)
        records = (manifest, fallacies, stability, metric, agree, stats, concepts, mismatch, loop, paragraph, record,
                   failed)
        assert [json.dumps(x.to_json()) for x in records] == [
            '{"config": {"domain": "d"}, "seed": 5, "per_n_counts": {"3": 2, "4": 1}, "success_rate": 0.5, '
            '"median_iterations": 2.5, "median_tokens": 100.0, "total_tokens": 200, "errors": 1}',
            '{"missed": [[0, 1], [2, 0]], "spurious": [[1, 2]], "tau": 0.6}',
            '{"curves": {"3": {"10": 0.5, "20": 0.5}, "10": {"10": 0.25, "20": 0.25}}, "delta": 0.0, '
            '"k_lo": 10, "k_hi": 20, "seed": 7}',
            '{"tp": 2, "fp": 1, "fn": 0, "precision": 0.6666666666666666, "recall": 1.0, "f1": 0.8, '
            '"shd": 1, "sid": 2}',
            agree_text,
            '{"per_metric": {"f1": ' + agree_text + ', "shd": {"pearson": -0.5, "spearman": 0.0, "r_squared": 0.25, '
            '"p_pearson": 1.0, "p_spearman": null, "p_mode": "sampled", "n_permutations": 0, "ci": {}}}, '
            '"average": {"pearson": 0.0, "spearman": 0.1875, "r_squared": 0.25}, "seed": 1}',
            concepts_text,
            mismatch_text,
            '{"status": "Fail", "assignment": ' + concepts_text + ', "iterations": 1, "best_l_b": 0.7, '
            '"trace": [{"votes": {"m": 5, "s": {"0,1": 0.8, "1,0": 0.2}, "votes": {"0,1": [1, 1, 1, 1, 0], '
            '"1,0": [0, 0, 1, 0, 0]}}, "fallacies": {"missed": [[0, 1], [2, 0]], "spurious": [[1, 2]], '
            '"tau": 0.6}, "mismatch": ' + mismatch_text + "}]}",
            paragraph_text,
            '{"id": "n3_00009", ' + spec_text + ', "assignment": ' + concepts_text + ', "paragraph": ' + paragraph_text
            + ', "loop_status": "Success", "loop_iterations": 2, "best_l_b": 0.0, "backends": {"proposer": "m1"}, '
            '"tokens": {"total": 321}, "error": null, "created_at": 1700000000.5}',
            '{"id": "n3_00010", ' + spec_text + ', "assignment": null, "paragraph": null, "loop_status": null, '
            '"loop_iterations": null, "best_l_b": null, "backends": {}, "tokens": {}, "error": "TransportError: x", '
            '"created_at": 2.0}',
        ]

    @pytest.mark.parametrize("damage", ["cut short", *FIELD_DAMAGE])
    @pytest.mark.parametrize("command", ["evaluate", "generate --resume"])
    def test_damaged_store_line_is_a_one_line_error(self, tmp_path, command, damage):
        runner, graphs, store = self.run_pipeline(tmp_path)
        if damage == "cut short":
            cut_line_short(store, 6)
            with open(store) as fh, pytest.raises(json.JSONDecodeError) as info:
                json.loads(fh.readlines()[5])
            message = f"not a JSON value ({info.value})"
        else:
            key, value = damage.split(" ", 1)
            if key.startswith("spec."):
                with open(store) as fh:
                    spec = json.loads(fh.readlines()[5])["spec"]
                key, value = "spec", json.dumps({**spec, key[len("spec."):]: json.loads(value)})
            set_field(store, 6, key, value)
            message = f"record 'n7_00000': {FIELD_DAMAGE[damage]}"
        with open(store, "rb") as fh:
            damaged = fh.read()
        args = {
            "evaluate": ["evaluate", "--store", store],
            "generate --resume": ["generate", "--graphs", graphs, "--out", store,
                                  "--mock-script", '{"mode": "oracle"}', "--resume"],
        }[command]
        r = runner.invoke(main, args)
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # a click error, not a traceback
        assert r.output == f"Error: {store}:6: {message}\n"
        with open(store, "rb") as fh:
            assert fh.read() == damaged

    @pytest.mark.parametrize("how", sorted(DAMAGE_MESSAGES))
    @pytest.mark.parametrize("command", ["evaluate", "generate --resume"])
    def test_store_line_not_an_object_or_not_utf8_is_a_one_line_error(self, tmp_path, command, how):
        runner, graphs, store = self.run_pipeline(tmp_path)
        damage_line(store, 2, how)
        with open(store, "rb") as fh:
            damaged = fh.read()
        args = {
            "evaluate": ["evaluate", "--store", store],
            "generate --resume": ["generate", "--graphs", graphs, "--out", store,
                                  "--mock-script", '{"mode": "oracle"}', "--resume"],
        }[command]
        r = runner.invoke(main, args)
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # a click error, not a traceback
        assert r.output.startswith(f"Error: {store}:2: {DAMAGE_MESSAGES[how]}")
        assert len(r.output.splitlines()) == 1
        with open(store, "rb") as fh:
            assert fh.read() == damaged

    def test_evaluate_self_comparison(self, tmp_path):
        runner, graphs, store = self.run_pipeline(tmp_path)
        out = str(tmp_path / "eval.json")
        r = runner.invoke(main, ["evaluate", "--store", store, "--out", out])
        assert r.exit_code == 0, r.output
        result = json.loads(Path(out).read_text())
        for row in result["samples"]:
            assert row["f1"] == 1.0 and row["shd"] == 0 and row["sid"] == 0
            assert row["coverage_ok"] is True
        for n, agg in result["per_n"].items():
            assert agg["f1"]["mean"] == 1.0

    @pytest.mark.parametrize("command", ["evaluate", "generate --resume"])
    def test_reads_store_once(self, tmp_path, monkeypatch, command):
        runner, graphs, store = self.run_pipeline(tmp_path)
        calls = []

        def counting_read_jsonl(path):
            calls.append(path)
            return read_jsonl(path)

        read_jsonl = store_mod.read_jsonl
        monkeypatch.setattr(store_mod, "read_jsonl", counting_read_jsonl)
        args = {
            "evaluate": ["evaluate", "--store", store],
            "generate --resume": ["generate", "--graphs", graphs, "--out", store,
                                  "--mock-script", '{"mode": "oracle"}', "--resume"],
        }[command]
        r = runner.invoke(main, args)
        assert r.exit_code == 0, r.output
        assert calls == [store]

    def assert_manifest_is_a_fresh_count(self, store):
        """The manifest file generate wrote is, byte for byte, the one a fresh read of its store saves."""
        with open(store + ".manifest.json") as fh:
            written = fh.read()
        settings = json.loads(written)
        fresh = RunManifest.from_store(SampleStore(store), config=settings["config"], seed=settings["seed"])
        fresh.save(store + ".fresh.json")
        with open(store + ".fresh.json") as fh:
            assert fh.read() == written

    def test_written_manifest_is_a_fresh_count(self, tmp_path):
        """A fresh run, a failed run resumed by an oracle, and a resume that skips every id."""
        runner, graphs, store = self.run_pipeline(tmp_path, per_n=2)
        self.assert_manifest_is_a_fresh_count(store)
        r = runner.invoke(main, ["generate", "--graphs", graphs, "--out", store, "--mock-script",
                                 '{"mode": "oracle"}', "--resume"])
        assert r.exit_code == 0 and "generated 0, failed 0, skipped 16;" in r.output, r.output
        self.assert_manifest_is_a_fresh_count(store)
        failing = str(tmp_path / "failing.jsonl")
        r = runner.invoke(main, ["generate", "--graphs", graphs, "--out", failing, "--mock-script", '{"rules": []}'])
        assert r.exit_code == 1, r.output
        self.assert_manifest_is_a_fresh_count(failing)
        r = runner.invoke(main, ["generate", "--graphs", graphs, "--out", failing, "--mock-script",
                                 '{"mode": "oracle"}', "--resume"])
        assert r.exit_code == 0 and "generated 16, failed 0, skipped 0;" in r.output, r.output
        self.assert_manifest_is_a_fresh_count(failing)
        with open(failing + ".manifest.json") as fh:
            assert json.load(fh)["errors"] == 0

    def test_evaluate_skips_failed_records(self, tmp_path):
        store, out = str(tmp_path / "s.jsonl"), str(tmp_path / "eval.json")
        for rec in (make_record("a"), make_record("b", error="TransportError: down"),
                    make_record("c", n=4, error="AuthError: HTTP 401"), make_record("d", n=4)):
            SampleStore(store).append(rec)
        finished = str(tmp_path / "finished.jsonl")
        for rec in (make_record("a"), make_record("d", n=4)):
            SampleStore(finished).append(rec)
        results = []
        for path in (store, finished):
            r = CliRunner().invoke(main, ["evaluate", "--store", path, "--out", out])
            assert r.exit_code == 0, r.output
            results.append(json.loads(Path(out).read_text()))
        assert [row["id"] for row in results[0]["samples"]] == ["a", "d"]
        assert results[0] == results[1]

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
        result = json.loads(Path(out).read_text())
        assert all(len(row["projection_removed"]) >= 1 for row in result["samples"])

    def test_evaluate_names_a_stored_record_that_cannot_be_loaded(self, tmp_path):
        # an older generate could store a cyclic dag; written here by hand
        store = tmp_path / "samples.jsonl"
        good, bad = make_record("n3_00000").to_json(), make_record("n3_00001").to_json()
        bad["dag"]["edges"] = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        store.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        r = CliRunner().invoke(main, ["evaluate", "--store", str(store)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # a click error, not a traceback
        assert r.output == f"Error: {store}:2: record 'n3_00001': dag: CyclicInput: adjacency has a directed cycle\n"

    @pytest.mark.parametrize("key, value", [("assignment", 5), ("spec", {"n": 3}), ("paragraph", {"text": "x"})])
    def test_evaluate_names_the_line_of_a_record_it_cannot_load(self, tmp_path, key, value):
        message = {
            "assignment": "assignment: TypeError: 'int' object is not subscriptable",
            "spec": "spec: KeyError: 'p'",
            "paragraph": "paragraph: KeyError: 'source_concepts'",
        }[key]
        store = tmp_path / "samples.jsonl"
        good, bad = make_record("n3_00000").to_json(), make_record("n3_00001").to_json()
        bad[key] = value
        store.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n")
        r = CliRunner().invoke(main, ["evaluate", "--store", str(store)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # a click error, not a traceback
        assert r.output == f"Error: {store}:3: record 'n3_00001': {message}\n"

    @pytest.mark.parametrize("damage", RECORD_DAMAGE)
    @pytest.mark.parametrize("command", ["evaluate", "generate --resume"])
    def test_store_record_without_id_spec_or_dag_is_a_one_line_error(self, tmp_path, command, damage):
        """A cyclic dag, or one of another size than its spec, is refused by generate --resume at the index read."""
        runner, graphs, store = self.run_pipeline(tmp_path)
        message = RECORD_DAMAGE[damage]
        with open(store) as fh:
            lines = fh.readlines()
        if not damage.startswith("{"):  # "KEY VALUE": the record with KEY set to VALUE
            obj = json.loads(lines[2])
            key, value = damage.split(" ", 1)
            obj[key] = json.loads(value)
            damage = json.dumps(obj)
        lines[2] = damage + "\n"
        with open(store, "w") as fh:
            fh.writelines(lines)
        with open(store, "rb") as fh:
            damaged = fh.read()
        args = {
            "evaluate": ["evaluate", "--store", store],
            "generate --resume": ["generate", "--graphs", graphs, "--out", store,
                                  "--mock-script", '{"mode": "oracle"}', "--resume"],
        }[command]
        r = runner.invoke(main, args)
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # a click error, not a traceback
        assert r.output == f"Error: {store}:3: {message}\n"
        with open(store, "rb") as fh:
            assert fh.read() == damaged

    @pytest.mark.parametrize("value", [3, {}, [], "x", {"m": 5, "s": {}}, "proportion 7", "other m"],
                             ids=["number", "empty-object", "array", "string", "no-pairs", "out-of-range", "other-m"])
    def test_damaged_cache_value_fails_only_its_sample(self, tmp_path, value):
        runner = CliRunner()
        graphs, store, cache = (str(tmp_path / x) for x in ("graphs", "s.jsonl", "cache.jsonl"))
        assert runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "1", "--seed", "5"]).exit_code == 0
        gen = ["generate", "--graphs", graphs, "--cache", cache, "--mock-script", '{"mode": "oracle"}']
        assert runner.invoke(main, [*gen, "--out", str(tmp_path / "first.jsonl")]).exit_code == 0
        with open(cache) as fh:
            lines = fh.readlines()
        ((key, table),) = json.loads(lines[2]).items()
        if value == "proportion 7":
            value = {**table, "s": {**table["s"], "0,1": 7}}
        elif value == "other m":  # a table of 3 votes under the key of 5
            value = {**table, "m": 3}
        lines[2] = json.dumps({key: value}) + "\n"
        with open(cache, "w") as fh:
            fh.writelines(lines)
        r = runner.invoke(main, [*gen, "--out", store])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert "generated 7, failed 1, skipped 0" in r.stdout
        errors = [rec.error for rec in SampleStore(store) if rec.error is not None]
        assert len(errors) == 1 and errors[0].startswith(f"CacheIoError: cached value {key} is not a vote table")
        assert json.loads(Path(store + ".manifest.json").read_text())["errors"] == 1

    def test_resume_after_a_cut_at_any_line_ends_matches_the_uncut_run(self, tmp_path):
        """Cut the store and the cache at every pair of line ends, as a kill
        between two writes leaves them, and again 7 bytes before each of
        those line ends, as a kill within a write leaves them, and resume:
        each record matches the uncut run's, and uses no more tokens."""
        keys = ("id", "dag", "assignment", "paragraph", "loop_status", "loop_iterations", "best_l_b", "error")
        runner = CliRunner()
        graphs, store, cache = (str(tmp_path / x) for x in ("graphs", "s.jsonl", "cache.jsonl"))
        assert runner.invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        gen = ["generate", "--graphs", graphs, "--mock-script", '{"mode": "oracle"}', "--resume"]
        assert runner.invoke(main, [*gen, "--out", store, "--cache", cache]).exit_code == 0
        full = [obj for _, obj in store_mod.read_jsonl(store)]
        with open(store, "rb") as fh:
            store_bytes = fh.read()
        with open(cache, "rb") as fh:
            cache_bytes = fh.read()
        store_ends = list(itertools.accumulate(map(len, store_bytes.splitlines(keepends=True)), initial=0))
        cache_ends = list(itertools.accumulate(map(len, cache_bytes.splitlines(keepends=True)), initial=0))
        for back, i, j in itertools.product((0, 7), range(len(store_ends)), range(len(cache_ends))):
            cut_store, cut_cache = str(tmp_path / f"s{back}_{i}_{j}.jsonl"), str(tmp_path / f"c{back}_{i}_{j}.jsonl")
            with open(cut_store, "wb") as fh:
                fh.write(store_bytes[:max(0, store_ends[i] - back)])
            with open(cut_cache, "wb") as fh:
                fh.write(cache_bytes[:max(0, cache_ends[j] - back)])
            # a cut within a line leaves that line torn, and it is dropped
            kept_store, kept_cache = (k - 1 if back and k else k for k in (i, j))
            r = runner.invoke(main, [*gen, "--out", cut_store, "--cache", cut_cache])
            assert r.exit_code == 0, (back, i, j, r.output)
            assert f"generated {len(full) - kept_store}, failed 0, skipped {kept_store}" in r.output
            resumed = [obj for _, obj in store_mod.read_jsonl(cut_store)]
            assert [[rec[k] for k in keys] for rec in resumed] == [[rec[k] for k in keys] for rec in full], (back, i, j)
            # a vote table cached ahead of the store saves its sample the calls
            assert all(a["tokens"]["total"] <= b["tokens"]["total"] for a, b in zip(resumed, full)), (back, i, j)
            if kept_cache <= kept_store:
                assert [rec["tokens"] for rec in resumed] == [rec["tokens"] for rec in full], (back, i, j)

    @pytest.mark.parametrize(
        "content",
        [
            '{"edges": [[0, 2, 0], [1, 0, 0], [0, 0, 0]]}',  # non-binary and cyclic
            '{"edges": [[0, 1, 0], [0, 0, 1]]}',  # not square
            '{"n": 3}',  # no edges
            '{"edges": [[0, 1',  # not JSON
            '{"edges": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}',  # 4 nodes for a 3-node graph
        ],
        ids=["non-binary-cyclic", "non-square", "no-edges", "not-json", "wrong-size"],
    )
    def test_evaluate_bad_reference_is_a_click_error(self, tmp_path, content):
        runner, graphs, store = self.run_pipeline(tmp_path)
        refs = tmp_path / "refs"
        refs.mkdir()
        for rec in SampleStore(store):
            with open(refs / f"{rec.id}.json", "w") as fh:
                json.dump({"edges": rec.dag.edges.tolist()}, fh)
        (refs / "n3_00000.json").write_text(content)
        r = runner.invoke(main, ["evaluate", "--store", store, "--reference", str(refs)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # a click error, not a traceback
        assert "id 'n3_00000'" in r.stderr

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
        result = json.loads(Path(out).read_text())
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

    @pytest.mark.parametrize("flag, mode", [("--sampled", "sampled"), ("--exhaustive", "exhaustive"), (None, "exhaustive")])
    def test_loo_tables_take_the_permutation_mode(self, tmp_path, flag, mode):
        out = str(tmp_path / "stats.json")
        r = CliRunner().invoke(
            main,
            ["transfer", "--scores", os.path.join(DATA, "scores_gpt5.csv"), "--b-perms", "100",
             "--no-bootstrap", "--loo", "--out", out, *([flag] if flag else [])],
        )
        assert r.exit_code == 0, r.output
        result = json.loads(Path(out).read_text())
        tables = [result["agreement"], *result["leave_one_out"].values()]
        assert len(tables) == 4
        for stats in tables:
            assert {m["p_mode"] for m in stats["per_metric"].values()} == {mode}

    @pytest.mark.parametrize("option", ["--b-perms", "--b-boot"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_replicate_counts_below_one_rejected(self, option, value):
        r = CliRunner().invoke(main, ["transfer", "--scores", os.path.join(DATA, "scores_gpt5.csv"), option, value])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        assert f"Invalid value for '{option}'" in r.output and "Traceback" not in r.output

    def test_non_utf8_byte_reports_its_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"algorithm,n,corpus,f1,shd,sid\na,3,generated,0.5,1,1\ncaf\xe9,3,real,0.5,1,1\n")
        r = CliRunner().invoke(main, ["transfer", "--scores", str(path)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # a click error, not a traceback
        assert r.output == f"Error: {path}:3: not UTF-8 text (invalid continuation byte)\n"

    def test_exhaustive_above_cap_is_a_click_error(self, tmp_path):
        # 5 algorithms in 8 buckets have 120^8 arrangements
        path = tmp_path / "scores.csv"
        rows = [f"{alg},{n},{corpus},{(k * 7 + n * 3) % 10 / 10},1,1"
                for k, alg in enumerate("abcde") for n in range(3, 11) for corpus in ("generated", "real")]
        path.write_text("algorithm,n,corpus,f1,shd,sid\n" + "\n".join(rows) + "\n")
        out = tmp_path / "stats.json"
        r = CliRunner().invoke(main, ["transfer", "--scores", str(path), "--exhaustive", "--loo", "--out", str(out)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # a click error, not a traceback
        assert r.output == f"Error: exhaustive enumeration needs {120 ** 8} combinations, above cap 2000000\n"
        assert not out.exists()

    def test_loo_on_two_algorithms_is_refused_before_any_table(self, tmp_path):
        path = tmp_path / "scores.csv"
        with open(os.path.join(DATA, "scores_gpt5.csv")) as fh:
            path.write_text("".join(line for line in fh if not line.startswith("LLM-CG,")))
        out = tmp_path / "stats.json"
        r = CliRunner().invoke(main, ["transfer", "--scores", str(path), "--loo", "--out", str(out)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # a click error, not a traceback
        assert r.output == f"Error: --loo needs at least three algorithms, {path} has 2\n"
        assert not out.exists()
        r = CliRunner().invoke(main, ["transfer", "--scores", str(path), "--no-bootstrap", "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert out.exists()

    def test_bad_score_row_is_a_click_error(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("algorithm,n,corpus,f1,shd,sid\na,3,generated,0.5,1,1\na,3,real,abc,1,1\n")
        r = CliRunner().invoke(main, ["transfer", "--scores", str(path)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # a click error, not a traceback
        assert f"Error: {path}:3: f1 must be a finite number, got 'abc'" in r.output

    def test_score_csv_with_a_hole_is_refused_at_load(self, tmp_path):
        path = tmp_path / "scores.csv"
        with open(os.path.join(DATA, "scores_gpt5.csv")) as fh:
            path.write_text("".join(line for line in fh if not line.startswith("SCITE,5,real,")))
        out = tmp_path / "stats.json"
        r = CliRunner().invoke(main, ["transfer", "--scores", str(path), "--loo", "--out", str(out)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # a click error, not a traceback
        assert r.output == f"Error: {path}: missing cell ('SCITE', 5, 'real')\n"
        assert not out.exists()


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
        result = json.loads(Path(out).read_text())
        assert result["texts"]["t"]["consensus"]["edges"][0][1] == 1
        assert result["flags"]["borderline_edges"] == []

    def test_borderline_flagged(self, tmp_path):
        path = str(tmp_path / "r.csv")
        self.write_ratings(path, self.panel({(0, 1): 6, (1, 0): 11}))
        r = CliRunner().invoke(main, ["consensus", "--ratings", path])
        assert r.exit_code == 0, r.output
        assert "borderline_edges=1" in r.output

    def test_unanimous_two_rater_panel_has_no_borderline_edge(self, tmp_path):
        path = str(tmp_path / "r.csv")
        self.write_ratings(path, self.panel({(0, 1): 2}, raters=2))
        r = CliRunner().invoke(main, ["consensus", "--ratings", path, "--raters", "2"])
        assert r.exit_code == 0, r.output
        assert "borderline_edges=0" in r.output

    def test_out_is_pinned(self, tmp_path):
        """``consensus --out`` JSON of a seeded panel hashes to the value a refactor must keep.

        The panel has missing ratings, repeated (text, i, j, rater) rows whose
        last label wins, blank lines, a cyclic majority 0 -> 1 -> 2 -> 0 on
        text "c", and index 1 spelled ``1``, ``01`` and `` 1``.
        """
        rng = np.random.default_rng(26)
        lines = ["text_id,i,j,rater_id,label"]
        for text_id, n in (("a", 3), ("b", 4), ("c", 3)):
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    cyclic = text_id == "c" and (i, j) in ((0, 1), (1, 2), (2, 0))
                    p_yes = 0.8 if cyclic else rng.random()
                    for r in range(11):
                        if rng.random() < 0.15:
                            continue
                        spelled = [rng.choice(["1", "01", " 1"]) if x == 1 else str(x) for x in (i, j)]
                        for _ in range(1 + (rng.random() < 0.1)):
                            lines.append(f"{text_id},{spelled[0]},{spelled[1]},{r},{int(rng.random() < p_yes)}")
                        if rng.random() < 0.05:
                            lines.append("")
        path, out = tmp_path / "r.csv", tmp_path / "c.json"
        path.write_text("\n".join(lines) + "\n")
        r = CliRunner().invoke(main, ["consensus", "--ratings", str(path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        result = json.loads(out.read_bytes())
        assert list(result["texts"]) == ["a", "b", "c"] and result["texts"]["c"]["removed"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == "398bde32c80238ac289f854f5c7cc38fbbd02b8fcd5157d24db59233d3b80cc0"

    def test_spelled_numbers_and_blank_lines_read_as_the_plain_csv(self, tmp_path):
        """``00``, `` 1`` and ``+0`` are the numbers 0, 1 and 0, and a blank line is no row."""
        plain, spelled = tmp_path / "plain.csv", tmp_path / "spelled.csv"
        plain.write_text("text_id,i,j,rater_id,label\nt1,0,1,0,1\nt1,0,1,1,1\nt1,1,0,0,0\nt1,1,0,1,0\n")
        spelled.write_text("text_id,i,j,rater_id,label\nt1,00, 1,0,1\n\nt1,0, 1,1,1\nt1, 1,00,0,+0\nt1,1,0,1,0\n")
        runs = [CliRunner().invoke(main, ["consensus", "--ratings", str(path), "--raters", "2",
                                          "--out", str(path) + ".json"]) for path in (plain, spelled)]
        assert [r.output for r in runs] == ["alpha=1.0000, texts=1, borderline_edges=0\n"] * 2
        assert (tmp_path / "spelled.csv.json").read_bytes() == (tmp_path / "plain.csv.json").read_bytes()

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

    @pytest.mark.parametrize("bad_row, why", [
        ("t,0,1,11,1", "rater_id 11"),
        ("t,0,1,-1,1", "rater_id -1"),
        ("t,0,1,0,2", "label 2"),
        ("t,-1,1,0,1", "pair (-1, 1)"),
        ("t,1,1,0,1", "pair (1, 1)"),
    ])
    def test_out_of_range_row_reports_line(self, tmp_path, bad_row, why):
        path = str(tmp_path / "r.csv")
        self.write_ratings(path, self.panel({(0, 1): 6}))
        with open(path, "a") as fh:
            fh.write(bad_row + "\n")
        r = CliRunner().invoke(main, ["consensus", "--ratings", path])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert f"{path}:24: malformed row ({why}" in r.output
        assert "Traceback" not in r.output

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("text_id,i,j,rater_id,label\nt,0,1,0,1\nt,0,1\n")
        r = CliRunner().invoke(main, ["consensus", "--ratings", str(path)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == f"Error: {path}:3: malformed row (list index out of range)\n"

    def test_line_numbers_are_physical_lines(self, tmp_path):
        path = str(tmp_path / "r.csv")
        with open(path, "w") as fh:
            fh.write("text_id,i,j,rater_id,label\n\nt,0,1,0,1\n\n\nt,0,1,1,2\n")
        r = CliRunner().invoke(main, ["consensus", "--ratings", path])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert f"{path}:6: malformed row (label 2 is not 0 or 1)" in r.output

    def test_missing_column_reported_at_line_1(self, tmp_path):
        path = str(tmp_path / "r.csv")
        with open(path, "w") as fh:
            fh.write("text_id,i,j,rater\nt,0,1,0\n")
        r = CliRunner().invoke(main, ["consensus", "--ratings", path])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert f"{path}:1: malformed row ('rater_id' is not in list)" in r.output

    def test_empty_file_reported_at_line_1(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        r = CliRunner().invoke(main, ["consensus", "--ratings", str(path)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert f"{path}:1: empty file, no header row" in r.output

    def test_header_without_rows(self, tmp_path):
        path = str(tmp_path / "r.csv")
        self.write_ratings(path, [])
        r = CliRunner().invoke(main, ["consensus", "--ratings", path])
        assert r.exit_code == 1 and "no rated items" in r.output

    def test_non_utf8_byte_reports_its_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"text_id,i,j,rater_id,label\nt,0,1,0,1\nt\xe9,0,1,1,1\n")
        r = CliRunner().invoke(main, ["consensus", "--ratings", str(path)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == f"Error: {path}:3: not UTF-8 text (invalid continuation byte)\n"

    def test_zero_raters_rejected(self, tmp_path):
        path = str(tmp_path / "r.csv")
        self.write_ratings(path, self.panel({(0, 1): 6}))
        r = CliRunner().invoke(main, ["consensus", "--ratings", path, "--raters", "0"])
        assert r.exit_code != 0 and isinstance(r.exception, SystemExit)
        assert "--raters" in r.output and "Traceback" not in r.output


class TestOutPath:
    """An --out the command cannot write ends it with one ``Error:`` line, exit status 1."""

    def inputs(self, tmp_path):
        ratings = tmp_path / "r.csv"
        ratings.write_text("text_id,i,j,rater_id,label\nt,0,1,0,1\nt,0,1,1,1\n")
        store = str(tmp_path / "s.jsonl")
        SampleStore(store).append(make_record("a"))
        return {
            "consensus": ["consensus", "--ratings", str(ratings), "--raters", "2"],
            "evaluate": ["evaluate", "--store", store],
            "transfer": ["transfer", "--scores", os.path.join(DATA, "scores_gpt5.csv"),
                         "--b-boot", "20", "--b-perms", "20"],
        }

    @pytest.mark.parametrize("command", ["consensus", "evaluate", "transfer"])
    def test_out_in_a_missing_directory(self, tmp_path, command):
        out = str(tmp_path / "missing" / "out.json")
        r = CliRunner().invoke(main, [*self.inputs(tmp_path)[command], "--out", out])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        # checked before the work: no table or summary is printed first
        assert r.output == f"Error: --out: cannot write {out}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["consensus", "evaluate", "transfer"])
    def test_out_in_a_directory_the_user_cannot_write(self, tmp_path, monkeypatch, command):
        args, out = self.inputs(tmp_path)[command], str(tmp_path / "out.json")
        access = os.access
        # root may write anywhere, so the refusal is simulated
        monkeypatch.setattr(os, "access", lambda path, mode, **kw: not mode & os.W_OK and access(path, mode, **kw))
        r = CliRunner().invoke(main, [*args, "--out", out])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == f"Error: --out: cannot write {out}: Permission denied\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["consensus", "evaluate", "transfer"])
    @pytest.mark.parametrize("name, reason", [("taken", "Is a directory"), ("file/out.json", "Not a directory")])
    def test_out_on_a_directory_or_under_a_file(self, tmp_path, command, name, reason):
        (tmp_path / "taken").mkdir()
        (tmp_path / "file").write_text("")
        out = str(tmp_path / name)
        r = CliRunner().invoke(main, [*self.inputs(tmp_path)[command], "--out", out])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == f"Error: --out: cannot write {out}: {reason}\n"

    @pytest.mark.parametrize("command", ["generate --graphs", "evaluate --store", "evaluate --reference",
                                         "transfer --scores", "consensus --ratings"])
    def test_input_path_of_the_wrong_kind_is_a_usage_error(self, tmp_path, command):
        """A file where a directory belongs, or a directory where a file belongs: exit status 2, nothing written."""
        inputs = self.inputs(tmp_path)
        (tmp_path / "dir").mkdir()
        args = {
            "generate --graphs": ["generate", "--graphs", str(tmp_path / "r.csv"), "--out", str(tmp_path / "new.jsonl"),
                                  "--mock-script", '{"mode": "oracle"}'],
            "evaluate --store": ["evaluate", "--store", str(tmp_path / "dir"), "--out", str(tmp_path / "new.json")],
            "evaluate --reference": [*inputs["evaluate"], "--reference", str(tmp_path / "r.csv"),
                                     "--out", str(tmp_path / "new.json")],
            "transfer --scores": ["transfer", "--scores", str(tmp_path / "dir"), "--out", str(tmp_path / "new.json")],
            "consensus --ratings": ["consensus", "--ratings", str(tmp_path / "dir"),
                                    "--out", str(tmp_path / "new.json")],
        }[command]
        before = sorted(os.listdir(tmp_path))
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 2, r.output
        option = command.split(" ")[1]
        assert f"Invalid value for '{option}'" in r.output
        assert sorted(os.listdir(tmp_path)) == before

    def test_check_creates_no_file(self, tmp_path):
        out = tmp_path / "t.json"
        bad = tmp_path / "bad.csv"
        bad.write_text("algorithm,n\n")
        r = CliRunner().invoke(main, ["transfer", "--scores", str(bad), "--out", str(out)])
        assert r.exit_code == 1 and "score CSV must carry columns" in r.output
        assert not out.exists()

    def test_write_that_fails_after_the_check(self, tmp_path):
        """The write after the work still turns an OSError (a path gone during the run) into the ``--out`` error."""
        out = str(tmp_path / "gone" / "t.json")
        with pytest.raises(click.ClickException) as info:
            _write_json(out, {})
        assert info.value.message == f"--out: cannot write {out}: No such file or directory"

    @pytest.mark.parametrize("option", ["--out", "--cache"])
    @pytest.mark.parametrize("name, reason", [("taken", "Is a directory"), ("file/x.jsonl", "Not a directory")])
    def test_generate_refuses_a_path_before_it_makes_any_file(self, tmp_path, option, name, reason):
        graphs = str(tmp_path / "graphs")
        assert CliRunner().invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        (tmp_path / "taken").mkdir()
        (tmp_path / "file").write_text("")
        paths = {"--out": str(tmp_path / "s.jsonl"), "--cache": str(tmp_path / "c.jsonl"), option: str(tmp_path / name)}
        before = sorted(os.listdir(tmp_path))
        r = CliRunner().invoke(main, ["generate", "--graphs", graphs, "--mock-script", '{"mode": "oracle"}',
                                      "--out", paths["--out"], "--cache", paths["--cache"]])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == f"Error: {option}: cannot write {paths[option]}: {reason}\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_generate_manifest_that_cannot_be_written(self, tmp_path):
        """The samples are stored, and the manifest write ends the run with one ``--out`` error line."""
        graphs, out = str(tmp_path / "graphs"), str(tmp_path / "s.jsonl")
        assert CliRunner().invoke(main, ["graphgen", "--out", graphs, "--per-n", "1"]).exit_code == 0
        os.mkdir(out + ".manifest.json")
        r = CliRunner().invoke(main, ["generate", "--graphs", graphs, "--out", out, "--mock-script", '{"mode": "oracle"}'])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == f"Error: --out: cannot write {out}.manifest.json: Is a directory\n"
        assert [rec.error for rec in SampleStore(out)] == [None] * 8

    def test_graphgen_out_on_an_existing_file(self, tmp_path):
        out = tmp_path / "graphs"
        out.write_text("")
        r = CliRunner().invoke(main, ["graphgen", "--out", str(out), "--per-n", "1"])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == f"Error: --out: cannot write {out}: File exists\n"

    def test_graphgen_graph_file_that_cannot_be_written(self, tmp_path):
        out = tmp_path / "graphs"
        (out / "n3_00000.json").mkdir(parents=True)
        r = CliRunner().invoke(main, ["graphgen", "--out", str(out), "--per-n", "1"])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == f"Error: --out: cannot write {out / 'n3_00000.json'}: Is a directory\n"


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

    def test_damaged_line_is_a_one_line_error(self, tmp_path):
        from causaltext.gateway import ResponseCache

        path = str(tmp_path / "cache.jsonl")
        c = ResponseCache(path)
        for k in range(3):
            c.put(f"k{k}", {"v": k})
        cut_line_short(path, 2)
        with open(path, "rb") as fh:
            damaged = fh.read()
        r = CliRunner().invoke(main, ["cache", "--cache", path])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output.startswith(f"Error: {path}:2: not a JSON value (")
        assert len(r.output.splitlines()) == 1
        with open(path, "rb") as fh:
            assert fh.read() == damaged

    @pytest.mark.parametrize("how", sorted(DAMAGE_MESSAGES))
    def test_line_not_an_object_or_not_utf8_is_a_one_line_error(self, tmp_path, how):
        from causaltext.gateway import ResponseCache

        path = str(tmp_path / "cache.jsonl")
        c = ResponseCache(path)
        for k in range(3):
            c.put(f"k{k}", {"v": k})
        damage_line(path, 2, how)
        with open(path, "rb") as fh:
            damaged = fh.read()
        r = CliRunner().invoke(main, ["cache", "--cache", path])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output.startswith(f"Error: {path}:2: {DAMAGE_MESSAGES[how]}")
        assert len(r.output.splitlines()) == 1
        with open(path, "rb") as fh:
            assert fh.read() == damaged

    def test_clear_that_cannot_remove_the_file_is_one_error_line(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        path.write_text("")

        def refuse(name):
            raise PermissionError(errno.EACCES, "Permission denied", name)

        monkeypatch.setattr(os, "remove", refuse)
        r = CliRunner().invoke(main, ["cache", "--cache", str(path), "--clear"])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == f"Error: cannot clear cache at {path}: [Errno 13] Permission denied: '{path}'\n"
        assert path.exists()

    @pytest.mark.parametrize("how", ["cut", "latin1"])
    def test_clear_removes_a_damaged_cache_unread(self, tmp_path, how):
        from causaltext.gateway import ResponseCache

        path = str(tmp_path / "cache.jsonl")
        c = ResponseCache(path)
        for k in range(3):
            c.put(f"k{k}", {"v": k})
        if how == "cut":
            cut_line_short(path, 2)  # not a JSON value
        else:
            damage_line(path, 1, how)  # not UTF-8 text
        assert CliRunner().invoke(main, ["cache", "--cache", path]).exit_code == 1
        r = CliRunner().invoke(main, ["cache", "--cache", path, "--clear"])
        assert r.exit_code == 0, r.output
        assert r.output == "cache cleared\n" and not os.path.exists(path)
