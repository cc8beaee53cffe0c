"""Output checks for every workload, written without the package under test.

Each ``check_*`` function reads what the CLI wrote, recomputes the expected
values with plain Python and numpy, and raises ``CheckFailed`` on the first
disagreement.  ``digest_*`` functions hash outputs so that two versions of
the program can be compared for identical results.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

TOL = 1e-9


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- helpers

def read_jsonl(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def acyclic(adj) -> bool:
    """Depth-first search for a back edge."""
    adj = np.asarray(adj)
    n = len(adj)
    state = [0] * n  # 0 new, 1 on stack, 2 done

    def visit(u) -> bool:
        state[u] = 1
        for v in range(n):
            if adj[u][v]:
                if state[v] == 1 or (state[v] == 0 and not visit(v)):
                    return False
        state[u] = 2
        return True

    return all(state[u] or visit(u) for u in range(n))


def brute_force_scores(target, predicted) -> dict:
    """Edge P/R/F1, Hamming distance and the parent-set disagreement count."""
    n = len(target)
    tp = fp = fn = diff = 0
    for i in range(n):
        for j in range(n):
            t, p = int(target[i][j]), int(predicted[i][j])
            tp += t and p
            fp += (not t) and p
            fn += t and not p
            diff += t != p
    if tp + fp + fn == 0:
        prec = rec = f1 = 1.0
    elif tp == 0:
        prec = rec = f1 = 0.0
    else:
        prec, rec = tp / (tp + fp), tp / (tp + fn)
        f1 = 2 * prec * rec / (prec + rec)
    differing = sum(
        any(int(target[i][j]) != int(predicted[i][j]) for i in range(n)) for j in range(n)
    )
    return {"tp": tp, "fp": fp, "fn": fn, "precision": prec, "recall": rec, "f1": f1,
            "shd": diff, "sid": (n - 1) * differing}


def covers(text: str, concept: str) -> bool:
    return concept.lower() in text.lower()


def ranks(values) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    out = np.empty(len(values))
    k = 0
    while k < len(values):
        m = k
        while m + 1 < len(values) and values[order[m + 1]] == values[order[k]]:
            m += 1
        out[order[k:m + 1]] = (k + m) / 2 + 1
        k = m + 1
    return out


def centred_pearson_spearman(x: np.ndarray, y: np.ndarray):
    """Pearson and Spearman of within-row centred (buckets x algorithms) arrays."""
    xc = (x - x.mean(axis=1, keepdims=True)).ravel()
    yc = (y - y.mean(axis=1, keepdims=True)).ravel()
    r = float(np.corrcoef(xc, yc)[0, 1])
    rho = float(np.corrcoef(ranks(xc), ranks(yc))[0, 1])
    return r, rho


def read_score_csv(path: str, drop: str | None = None) -> dict:
    """metric -> corpus -> (buckets x algorithms) array, algorithms in file order."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    algs = []
    for row in rows:
        if row["algorithm"].strip() not in algs and row["algorithm"].strip() != drop:
            algs.append(row["algorithm"].strip())
    ns = sorted({int(row["n"]) for row in rows})
    cell = {(r["algorithm"].strip(), int(r["n"]), r["corpus"].strip()): r for r in rows}
    return {
        metric: {
            corpus: np.array([[float(cell[(a, n, corpus)][metric]) for a in algs] for n in ns])
            for corpus in ("generated", "real")
        }
        for metric in ("f1", "shd", "sid")
    }


# ---------------------------------------------------------------- generate

def check_generate_store(store_path: str, manifest_path: str, graph_dir: str, oracle: bool) -> dict:
    """Shared checks of a generated store; returns counts used by the caller."""
    records = read_jsonl(store_path)
    graphs = {}
    for fname in sorted(os.listdir(graph_dir)):
        with open(os.path.join(graph_dir, fname)) as fh:
            g = json.load(fh)
        graphs[g["id"]] = g
    expect(sorted(r["id"] for r in records) == sorted(graphs), "store ids differ from the graph files")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    failed = [r for r in records if r["error"] is not None]
    token_sum = 0
    for rec in records:
        expect(rec["dag"]["edges"] == graphs[rec["id"]]["dag"]["edges"], f"{rec['id']}: DAG differs from its graph file")
        if rec["error"] is not None:
            continue
        concepts = rec["assignment"]["concepts"]
        expect(len(concepts) == rec["dag"]["n"], f"{rec['id']}: wrong concept count")
        text = rec["paragraph"]["text"]
        expect(all(covers(text, c) for c in concepts), f"{rec['id']}: paragraph misses a concept")
        if oracle:
            expect(rec["loop_status"] == "Success" and rec["loop_iterations"] == 1,
                   f"{rec['id']}: oracle sample not Success at iteration 1")
        token_sum += rec["tokens"]["total"]
    expect(manifest["total_tokens"] == token_sum, "record tokens do not sum to the manifest total")
    expect(manifest["errors"] == len(failed), "manifest error count differs from the store")
    return {"records": records, "failed": len(failed), "manifest_tokens": manifest["total_tokens"]}


def check_rerun_matches(cold_records: list, warm_path: str) -> None:
    """The warm pass must reproduce every annotation of the cold pass."""
    keys = ("id", "dag", "assignment", "paragraph", "loop_status", "loop_iterations", "best_l_b", "error")
    warm = {r["id"]: r for r in read_jsonl(warm_path)}
    expect(len(warm) == len(cold_records), "warm pass wrote a different number of records")
    for rec in cold_records:
        other = warm.get(rec["id"])
        expect(other is not None and all(rec[k] == other[k] for k in keys),
               f"{rec['id']}: warm pass differs from the cold pass")


def check_http_billing(server_tokens: int, manifest_tokens: int, failed: int) -> None:
    expect(server_tokens >= manifest_tokens, "server billed fewer tokens than the manifest reports")
    if failed == 0:
        expect(server_tokens == manifest_tokens, "server billing differs from the manifest total")


# ---------------------------------------------------------------- evaluate

def check_consensus(ratings_csv: str, out_path: str) -> int:
    votes: dict = {}
    with open(ratings_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            votes.setdefault((row["text_id"], int(row["i"]), int(row["j"])), []).append(int(row["label"]))
    with open(out_path) as fh:
        out = json.load(fh)
    texts = out["texts"]
    expect(-1.0 <= out["alpha"] <= 1.0, "alpha outside [-1, 1]")
    ids = {t for t, _, _ in votes}
    expect(set(texts) == ids, "consensus texts differ from the ratings")
    for tid, res in texts.items():
        n = len(res["support"])
        majority = set()
        for i in range(n):
            for j in range(n):
                labels = votes.get((tid, i, j))
                s = sum(labels) / len(labels) if labels else 0.0
                expect(abs(res["support"][i][j] - s) < TOL, f"{tid}: support ({i},{j}) is wrong")
                if labels and 2 * sum(labels) > len(labels):
                    majority.add((i, j))
        removed = {tuple(e) for e in res["removed"]}
        expect(removed <= majority, f"{tid}: projection removed a non-majority edge")
        edges = res["consensus"]["edges"]
        kept = {(i, j) for i in range(n) for j in range(n) if edges[i][j]}
        expect(kept == majority - removed, f"{tid}: consensus edges are not the majority edges")
        expect(acyclic(edges), f"{tid}: consensus graph is cyclic")
        expect(bool(removed) == (not acyclic([[int((i, j) in majority) for j in range(n)] for i in range(n)])),
               f"{tid}: projection ran on an acyclic majority graph or skipped a cyclic one")
    return len(texts)


def check_evaluation(eval_path: str, store_path: str, reference_dir: str, subset: list) -> int:
    with open(eval_path) as fh:
        rows = {r["id"]: r for r in json.load(fh)["samples"]}
    records = {r["id"]: r for r in read_jsonl(store_path)}
    expect(set(rows) == set(records), "evaluation rows differ from the store")
    for sid, row in rows.items():
        with open(os.path.join(reference_dir, f"{sid}.json")) as fh:
            ref = json.load(fh)["edges"]
        removed = [tuple(e) for e in row["projection_removed"]]
        projected = [list(r) for r in ref]
        for i, j in removed:
            expect(projected[i][j] == 1, f"{sid}: projection removed an absent edge")
            projected[i][j] = 0
        expect(acyclic(projected), f"{sid}: projected graph is cyclic")
        expect(bool(removed) == (not acyclic(ref)), f"{sid}: projection ran on an acyclic graph or skipped a cyclic one")
        if sid in subset:
            want = brute_force_scores(records[sid]["dag"]["edges"], projected)
            for key, val in want.items():
                expect(abs(row[key] - val) < TOL, f"{sid}: {key} is {row[key]}, expected {val}")
    return len(rows)


# ---------------------------------------------------------------- transfer

def check_agreement(stats: dict, arrays: dict, with_ci: bool) -> None:
    for metric, res in stats["per_metric"].items():
        r, rho = centred_pearson_spearman(arrays[metric]["generated"], arrays[metric]["real"])
        expect(abs(res["pearson"] - r) < TOL, f"{metric}: pearson {res['pearson']} != {r}")
        expect(abs(res["spearman"] - rho) < TOL, f"{metric}: spearman {res['spearman']} != {rho}")
        for key in ("p_pearson", "p_spearman"):
            expect(0.0 < res[key] <= 1.0, f"{metric}: {key} outside (0, 1]")
        if with_ci:
            for key, est in (("pearson", r), ("spearman", rho)):
                lo, hi = res["ci"][key]
                expect(lo <= est + TOL and est - TOL <= hi, f"{metric}: {key} CI [{lo}, {hi}] misses {est}")


def check_transfer(out_path: str, scores_csv: str) -> int:
    with open(out_path) as fh:
        out = json.load(fh)
    check_agreement(out["agreement"], read_score_csv(scores_csv), with_ci=True)
    for alg, stats in out.get("leave_one_out", {}).items():
        check_agreement(stats, read_score_csv(scores_csv, drop=alg), with_ci=False)
    return 1


def check_anova(out_path: str, params: list) -> int:
    with open(out_path) as fh:
        out = json.load(fh)
    per = out["anova"]["per_parameter"]
    expect(sorted(per) == sorted(params), "ANOVA parameters differ from the input")
    for param, res in per.items():
        expect(0.0 < res["p_value"] <= 1.0, f"{param}: p outside (0, 1]")
        expect(0.0 <= res["partial_eta_squared"] <= 1.0, f"{param}: eta^2 outside [0, 1]")
        expect(res["mode"] == "sampled", f"{param}: expected the sampled permutation path")
        expect(0.0 < out["anova"]["corrected_p"][param] <= 1.0, f"{param}: corrected p outside (0, 1]")
    expect(out["repeats_agree"], "repeated ANOVA runs with one seed disagree")
    expect(out["stability"]["delta"] >= 0.0, "negative stability delta")
    return len(per)


# ---------------------------------------------------------------- digests

def digest_files(paths, drop_keys=()) -> str:
    """sha256 over the files, JSON ones canonicalised with ``drop_keys`` removed."""
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            data = fh.read()
        if drop_keys:
            lines = []
            for line in data.decode().splitlines():
                if line.strip():
                    obj = json.loads(line)
                    for key in drop_keys:
                        obj.pop(key, None)
                    lines.append(json.dumps(obj, sort_keys=True))
            data = "\n".join(lines).encode()
        h.update(data + b"\0")
    return h.hexdigest()[:16]


def same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def digest_dir(path: str) -> str:
    return digest_files([os.path.join(path, f) for f in sorted(os.listdir(path))])
