"""What each command runs: the package functions that no command calls are a list kept here.

Every command runs in process through ``CliRunner`` under ``sys.setprofile``,
which sees each call of a Python function.  The functions of
``src/causaltext`` that none of the runs calls must be exactly those in
``UNREACHED``, where each carries one tag:

- ``library``: reached only through the library API that README lists under
  "Library-only API";
- ``live-only: TEST``: a transport path that these offline runs do not take,
  with the test that covers it (``FILE::NAME``);
- ``item N``: waiting for ROADMAP item N, which removes it.

So a function that no command needs fails this test until it is tagged, and
one that a command starts to call fails it until its entry goes.
"""

import importlib
import json
import pkgutil
import re
import sys
import types
from pathlib import Path

from click.testing import CliRunner

import causaltext
from causaltext.cli import main
from causaltext.store import SampleStore
from test_gateway import StubServer, no_proxy_and_a_key, oracle_reply

TESTS = Path(__file__).parent
DATA = TESTS / "data"

UNREACHED = {
    # the discovery side: the paper's evaluation half, run by library callers
    "metrics.decompose_errors": "library",
    "textgen.concept_in_text": "library",
    "textgen.extract_concepts_steps": "library",
    "textgen.extract_concepts_steps.<locals>.clean": "library",
    "textgen.gen_id_refine_steps": "library",
    "textgen.gen_id_refine_steps.<locals>.extract": "library",
    "textgen.gen_id_refine_steps.<locals>.name_edges": "library",
    "textgen.llm_causal_discovery_steps": "library",
    # the permutation ANOVA, the multiple-testing correction and the stability curves
    "transfer.AnovaReport.to_json": "library",
    "transfer.StabilityReport.to_json": "library",
    "transfer._all_arrangements": "library",
    "transfer._anova_f_rows": "library",
    "transfer._sampled_arrangements": "library",
    "transfer.benjamini_hochberg": "library",
    "transfer.permutation_anova": "library",
    "transfer.permutation_anova_report": "library",
    "transfer.stability_curve": "library",
    # small methods for library callers
    "assignment.FallacySet.to_json": "library",
    "assignment.LoopResult.to_json": "library",
    "assignment.MismatchReport.to_json": "library",
    "errors.UnboundPlaceholder.__init__": "library",
    "graphs.Dag.__eq__": "library",
    "store.SampleStore.__len__": "library",
    "transfer.MetricAgreement.to_json": "library",
    "transfer.ScoreTable.matrix": "library",
    # what a live server sends and the offline runs do not
    "errors.MalformedOutput.__init__": "live-only: tests/test_gateway.py::test_malformed_body_raises_malformed_output",
    "gateway.PendingReply.cancel": "live-only: tests/test_gateway.py::test_a_stride_of_calls_over_http_at_window_8",
    "gateway._read_chunked": "live-only: tests/test_gateway.py::test_a_reply_is_read_whole_and_its_connection_kept",
    # item 6: blocking wrappers over the one scheduler, which only tests and library callers use
    "assignment.counterfactual_verification": "item 6",
    "assignment.initial_assignment": "item 6",
    "assignment.refine_assignment": "item 6",
    "assignment.run_loop": "item 6",
    "gateway.Gateway.cached": "item 6",
    "gateway.Gateway.complete": "item 6",
    "gateway.Gateway.complete_json": "item 6",
    "gateway.Gateway.run_sample": "item 6",
    "gateway.HttpBackend.complete": "item 6",
    "textgen.generate_text": "item 6",
    # item 14b: ledger reads that only tests and the benchmark make
    "gateway.UsageLedger.per_sample": "item 14",
    "gateway.UsageLedger.totals": "item 14",
}


def code_names(module: types.ModuleType) -> dict:
    """``(file, first line, name)`` -> qualified name, for each function and method the module's source defines."""
    names = {}
    short = module.__name__.removeprefix("causaltext.")

    def walk(code, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):  # no lambda or comprehension
                qualname = prefix + const.co_name
                is_function = const.co_flags & 0x2  # CO_NEWLOCALS: a function body, not a class body
                if is_function:
                    names[const.co_filename, const.co_firstlineno, const.co_name] = f"{short}.{qualname}"
                walk(const, qualname + (".<locals>." if is_function else "."))

    path = module.__file__
    walk(compile(Path(path).read_text(encoding="utf-8"), path, "exec"), "")
    return names


def package_modules() -> list:
    return [causaltext, *(importlib.import_module(f"causaltext.{info.name}")
                          for info in pkgutil.iter_modules(causaltext.__path__))]


def package_functions() -> dict:
    names = {}
    for module in package_modules():
        names.update(code_names(module))
    return names


# a refinement under a scripted backend: every verifier vote is "no", so the one required edge is missed
ASSIGNED = {"Real concepts assigned to variables": ["Node 0: Rain", "Node 1: Mud", "Node 2: Wind"]}
REFINING = json.dumps({"rules": [
    {"template": "phase2", "reply": ASSIGNED},
    {"template": "refine", "reply": ASSIGNED},
    {"template": "verify", "reply": {"direct cause": "no"}},
    {"template": "phase3", "reply": {"Natural language description": "Rain leaves Mud in the Wind."}},
]})


def run_every_command(tmp_path: Path, endpoint: str, monkeypatch) -> None:
    runner = CliRunner()

    def ok(*args, exit_code=0):
        r = runner.invoke(main, [str(a) for a in args])
        assert r.exit_code == exit_code and (r.exception is None or isinstance(r.exception, SystemExit)), r.output
        return r

    graphs, cache = tmp_path / "graphs", tmp_path / "cache.jsonl"
    cfg = tmp_path / "graphs.ini"
    cfg.write_text("[phase1]\nn_min = 3\nn_max = 5\n")
    ok("graphgen", "--config", cfg, "--out", graphs, "--per-n", 1)
    oracle = ["--graphs", graphs, "--mock-script", '{"mode": "oracle"}', "--cache", cache]
    ok("generate", *oracle, "--out", tmp_path / "s.jsonl")
    ok("generate", *oracle, "--out", tmp_path / "s.jsonl", "--resume")
    ok("generate", *oracle, "--out", tmp_path / "warm.jsonl")  # every vote table from the cache
    ok("generate", "--graphs", graphs, "--mock-script", '{"rules": []}', "--out", tmp_path / "f.jsonl", exit_code=1)
    one = tmp_path / "one"  # a 3-node graph with one edge
    one.mkdir()
    (one / "g.json").write_text(json.dumps(json.loads((graphs / "n3_00000.json").read_text())
                                           | {"dag": {"n": 3, "edges": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}}))
    (tmp_path / "k2.ini").write_text("[phase2]\nk_max = 2\n")
    ok("generate", "--config", tmp_path / "k2.ini", "--graphs", one, "--mock-script", REFINING,
       "--out", tmp_path / "r.jsonl")
    with monkeypatch.context() as m:  # a store write that fails stops the run with the next request pending
        m.setattr(SampleStore, "append", lambda self, record: (_ for _ in ()).throw(OSError("disk full")))
        assert "disk full" in ok("generate", *oracle[:4], "--out", tmp_path / "d.jsonl", exit_code=1).output
    http = tmp_path / "http.ini"
    http.write_text(f"[backends]\nendpoint = {endpoint}\ncredential_env = SOME_KEY\n")
    ok("generate", "--config", http, "--graphs", graphs, "--out", tmp_path / "h.jsonl")
    refs = tmp_path / "refs"
    refs.mkdir()
    for graph in graphs.iterdir():
        payload = json.loads(graph.read_text())
        (refs / graph.name).write_text(json.dumps({"edges": payload["dag"]["edges"]}))
    ok("evaluate", "--store", tmp_path / "s.jsonl", "--out", tmp_path / "e.json")
    ok("evaluate", "--store", tmp_path / "s.jsonl", "--reference", refs)
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("text_id,i,j,rater_id,label\n" + "".join(
        f"t{t},{i},{j},{r},{(t + i + j + r) % 2}\n" for t in range(2) for i, j in ((0, 1), (1, 0)) for r in range(3)))
    ok("consensus", "--ratings", ratings, "--raters", 3, "--out", tmp_path / "c.json")
    for table in ("scores_gpt5.csv", "scores_deepseek.csv", "scores_qwen.csv"):
        ok("transfer", "--scores", DATA / table, "--loo", "--b-perms", 50, "--b-boot", 50, "--out", tmp_path / "t.json")
    ok("transfer", "--scores", DATA / "scores_gpt5.csv", "--exhaustive", "--no-bootstrap")
    ok("cache", "--cache", cache)
    ok("cache", "--cache", cache, "--clear")


def test_the_functions_no_command_calls_are_the_tagged_list(tmp_path, monkeypatch):
    no_proxy_and_a_key(monkeypatch)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for module in package_modules():  # a cached function runs only on its first call in the process
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    with StubServer() as stub:
        stub.reply = oracle_reply
        sys.setprofile(profile)
        try:
            run_every_command(tmp_path, stub.endpoint, monkeypatch)
        finally:
            sys.setprofile(None)
    functions = package_functions()
    reached = {functions.get((code.co_filename, code.co_firstlineno, code.co_name)) for code in called}
    unreached = set(functions.values()) - reached
    untagged, stale = sorted(unreached - UNREACHED.keys()), sorted(UNREACHED.keys() - unreached)
    assert not untagged, f"no command calls these, and they carry no tag: {', '.join(untagged)}"
    assert not stale, f"tagged, but a command calls these or they are gone: {', '.join(stale)}"


def test_every_tag_is_well_formed_and_names_what_it_points_to():
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("### Library-only API", 1)[1].split("\n## ", 1)[0]
    for name, tag in UNREACHED.items():
        kind = re.fullmatch(r"library|live-only: (tests/[\w/]+\.py)::(\w+)|item (\d+)", tag)
        assert kind, (name, tag)
        public = name.split(".", 1)[1].removesuffix(".__init__")  # a class is named for its constructor
        if tag == "library" and not re.search(r"(^|\.)_[^_]|<locals>", public):
            assert f"`{public}`" in library, name
        elif kind.group(1):
            assert re.search(rf"def {kind.group(2)}\b", (TESTS.parent / kind.group(1)).read_text()), tag
        elif kind.group(3):
            assert re.search(rf"^{kind.group(3)}[a-z]?\. \*\*", (TESTS.parent / "ROADMAP.md").read_text(), re.M), tag
