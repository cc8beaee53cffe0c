"""Each output check passes on real CLI output and rejects a corrupted copy.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import os
import shutil

import pytest

import anova_job
import checks
import inputs
from causaltext.cli import main as cli_main

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GPT5 = os.path.join(ROOT, "tests", "data", "scores_gpt5.csv")


def cli(*args):
    cli_main.main(args=list(args), prog_name="causaltext", standalone_mode=False)


def rewrite_jsonl(path, fn):
    rows = checks.read_jsonl(path)
    fn(rows)
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in rows)


def rewrite_json(path, fn):
    with open(path) as fh:
        obj = json.load(fh)
    fn(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("oracle")
    graphs, store = str(d / "graphs"), str(d / "store.jsonl")
    cli("graphgen", "--out", graphs, "--per-n", "1", "--seed", "3")
    cli("generate", "--graphs", graphs, "--out", store, "--mock-script", '{"mode": "oracle"}')
    return graphs, store


def corrupted_copy(tmp_path, store):
    path = str(tmp_path / "store.jsonl")
    shutil.copy(store, path)
    shutil.copy(store + ".manifest.json", path + ".manifest.json")
    return path


def test_generate_check_passes_on_the_oracle(oracle_run):
    graphs, store = oracle_run
    res = checks.check_generate_store(store, store + ".manifest.json", graphs, oracle=True)
    assert res["failed"] == 0 and len(res["records"]) == 8


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows[0]["paragraph"].update(text="nothing here"),
    lambda rows: rows[1]["tokens"].update(total=rows[1]["tokens"]["total"] + 1),
    lambda rows: rows[2].update(loop_iterations=2),
    lambda rows: rows[3]["dag"]["edges"][0].__setitem__(1, 1 - rows[3]["dag"]["edges"][0][1]),
    lambda rows: rows.pop(),
])
def test_generate_check_rejects_corruption(oracle_run, tmp_path, corrupt):
    graphs, store = oracle_run
    path = corrupted_copy(tmp_path, store)
    rewrite_jsonl(path, corrupt)
    with pytest.raises(checks.CheckFailed):
        checks.check_generate_store(path, path + ".manifest.json", graphs, oracle=True)


def test_rerun_check_rejects_a_changed_assignment(oracle_run, tmp_path):
    _, store = oracle_run
    records = checks.read_jsonl(store)
    checks.check_rerun_matches(records, store)
    path = corrupted_copy(tmp_path, store)
    rewrite_jsonl(path, lambda rows: rows[0]["assignment"]["concepts"].reverse())
    with pytest.raises(checks.CheckFailed):
        checks.check_rerun_matches(records, path)


def test_http_billing_check():
    checks.check_http_billing(100, 100, failed=0)
    checks.check_http_billing(120, 100, failed=1)
    with pytest.raises(checks.CheckFailed):
        checks.check_http_billing(120, 100, failed=0)
    with pytest.raises(checks.CheckFailed):
        checks.check_http_billing(90, 100, failed=1)


@pytest.fixture(scope="module")
def consensus_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("consensus")
    ratings, out = str(d / "ratings.csv"), str(d / "consensus.json")
    inputs.write_ratings(ratings, seed=5, per_n=2)
    cli("consensus", "--ratings", ratings, "--out", out)
    return ratings, out


def test_consensus_check_passes(consensus_run):
    ratings, out = consensus_run
    assert checks.check_consensus(ratings, out) == 16


def first_with(texts, pred):
    return next(t for t in texts.values() if pred(t))


@pytest.mark.parametrize("corrupt", [
    lambda obj: first_with(obj["texts"], lambda t: True)["support"][0].__setitem__(1, 0.123),
    lambda obj: first_with(obj["texts"], lambda t: True)["consensus"]["edges"][0].__setitem__(
        1, 1 - first_with(obj["texts"], lambda t: True)["consensus"]["edges"][0][1]),
    lambda obj: first_with(obj["texts"], lambda t: t["removed"])["removed"].clear(),
    lambda obj: obj.update(alpha=1.5),
])
def test_consensus_check_rejects_corruption(consensus_run, tmp_path, corrupt):
    ratings, out = consensus_run
    path = str(tmp_path / "consensus.json")
    shutil.copy(out, path)
    rewrite_json(path, corrupt)
    with pytest.raises(checks.CheckFailed):
        checks.check_consensus(ratings, path)


@pytest.fixture(scope="module")
def eval_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("evaluate")
    ev = inputs.write_eval_inputs(str(d), seed=4, per_n=4)
    out = str(d / "eval.json")
    cli("evaluate", "--store", ev["store"], "--reference", ev["refs"], "--out", out)
    ev["subset"] = sorted(r["id"] for r in checks.read_jsonl(ev["store"]))
    return ev, out


def test_evaluation_check_passes(eval_run):
    ev, out = eval_run
    assert checks.check_evaluation(out, ev["store"], ev["refs"], ev["subset"]) == 32


def first_row(obj, pred):
    return next(r for r in obj["samples"] if pred(r))


@pytest.mark.parametrize("corrupt", [
    lambda obj: first_row(obj, lambda r: True).update(shd=first_row(obj, lambda r: True)["shd"] + 1),
    lambda obj: first_row(obj, lambda r: r["sid"] > 0).update(sid=0),
    lambda obj: first_row(obj, lambda r: r["tp"] > 0).update(f1=0.0),
    lambda obj: first_row(obj, lambda r: r["projection_removed"])["projection_removed"].pop(),
    lambda obj: first_row(obj, lambda r: not r["projection_removed"])["projection_removed"].append([0, 1]),
    lambda obj: obj["samples"].pop(),
])
def test_evaluation_check_rejects_corruption(eval_run, tmp_path, corrupt):
    ev, out = eval_run
    path = str(tmp_path / "eval.json")
    shutil.copy(out, path)
    rewrite_json(path, corrupt)
    with pytest.raises(checks.CheckFailed):
        checks.check_evaluation(path, ev["store"], ev["refs"], ev["subset"])


@pytest.fixture(scope="module")
def transfer_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("transfer") / "t.json")
    cli("transfer", "--scores", GPT5, "--loo", "--b-boot", "200", "--b-perms", "500", "--seed", "2", "--out", out)
    return out


def test_transfer_check_passes(transfer_run):
    checks.check_transfer(transfer_run, GPT5)


@pytest.mark.parametrize("corrupt", [
    lambda obj: obj["agreement"]["per_metric"]["f1"].update(pearson=0.5),
    lambda obj: obj["agreement"]["per_metric"]["shd"].update(spearman=0.1),
    lambda obj: obj["agreement"]["per_metric"]["sid"]["ci"].update(pearson=[0.0, 0.1]),
    lambda obj: obj["agreement"]["per_metric"]["f1"].update(p_pearson=0.0),
    lambda obj: next(iter(obj["leave_one_out"].values()))["per_metric"]["f1"].update(pearson=0.2),
])
def test_transfer_check_rejects_corruption(transfer_run, tmp_path, corrupt):
    path = str(tmp_path / "t.json")
    shutil.copy(transfer_run, path)
    rewrite_json(path, corrupt)
    with pytest.raises(checks.CheckFailed):
        checks.check_transfer(path, GPT5)


def test_anova_check(tmp_path):
    job, out = str(tmp_path / "in.json"), str(tmp_path / "out.json")
    params = inputs.write_anova_job(job, seed=3, b=200, per_cell=4)
    assert anova_job.main([job, out]) == 0
    assert checks.check_anova(out, params) == 4
    for corrupt in (
        lambda obj: obj["anova"]["per_parameter"]["p"].update(p_value=0.0),
        lambda obj: obj["anova"]["per_parameter"]["gamma_c"].update(mode="exhaustive"),
        lambda obj: obj["anova"]["corrected_p"].update({"lambda": 1.5}),
        lambda obj: obj["anova"]["per_parameter"].pop("gamma_v"),
    ):
        path = str(tmp_path / "bad.json")
        shutil.copy(out, path)
        rewrite_json(path, corrupt)
        with pytest.raises(checks.CheckFailed):
            checks.check_anova(path, params)


def test_acyclic_and_brute_force_helpers():
    assert checks.acyclic([[0, 1], [0, 0]])
    assert not checks.acyclic([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    s = checks.brute_force_scores([[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, 1, 0], [0, 0, 0], [0, 1, 0]])
    assert (s["tp"], s["fp"], s["fn"], s["shd"], s["sid"]) == (1, 1, 1, 2, 4)
    assert list(checks.ranks([3.0, 1.0, 3.0, 2.0])) == [3.5, 1.0, 3.5, 2.0]
