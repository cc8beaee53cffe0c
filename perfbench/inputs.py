"""Seeded input generators for the workloads (numpy only; no causaltext import)."""

from __future__ import annotations

import csv
import json
import os

import numpy as np

NS = tuple(range(3, 11))
RATERS = 11
ANOVA_PARAMS = ("p", "gamma_c", "gamma_v", "lambda")


def cycle_seed(seed: int, cycle: int) -> int:
    return int(np.random.SeedSequence([seed, cycle]).generate_state(1)[0] % 2**31)


def random_dag(rng, n: int, p: float) -> np.ndarray:
    order = rng.permutation(n)
    adj = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                adj[order[a], order[b]] = 1
    return adj


def write_eval_inputs(root: str, seed: int, per_n: int) -> dict:
    """A store of annotated samples plus one predicted graph per sample.

    A quarter of the predictions are dense (the true edges plus half of all
    other pairs), the rest flip a tenth of the pairs; both kinds are often
    cyclic, so ``evaluate`` projects them.
    """
    rng = np.random.default_rng(seed)
    store = os.path.join(root, "store.jsonl")
    refs = os.path.join(root, "refs")
    os.makedirs(refs)
    ids = []
    with open(store, "w") as fh:
        for n in NS:
            for k in range(per_n):
                sid = f"n{n}_{k:05d}"
                p = float(rng.uniform(0.1, 0.6))
                dag = random_dag(rng, n, p)
                concepts = [f"factor {sid} {i}" for i in range(n)]
                assignment = {"concepts": concepts, "domain": "business"}
                rec = {
                    "id": sid,
                    "spec": {"n": n, "p": p, "max_parents": n - 1, "max_children": n - 1,
                             "gamma_c": 0.0, "gamma_v": 0.0, "lambda": 0, "seed": int(rng.integers(2**31))},
                    "dag": {"n": n, "edges": dag.tolist()},
                    "assignment": assignment,
                    "paragraph": {"text": "Then ".join(c + ". " for c in concepts), "source_concepts": assignment},
                    "loop_status": "Success", "loop_iterations": 1, "best_l_b": 0.0,
                    "backends": {}, "tokens": {"total": 0}, "error": None, "created_at": 0.0,
                }
                fh.write(json.dumps(rec) + "\n")
                noise = rng.random((n, n))
                if k % 4 == 0:
                    pred = np.maximum(dag, (noise < 0.5).astype(int))
                else:
                    pred = np.where(noise < 0.1, 1 - dag, dag)
                np.fill_diagonal(pred, 0)
                with open(os.path.join(refs, f"{sid}.json"), "w") as rf:
                    json.dump({"edges": pred.tolist()}, rf)
                ids.append(sid)
    subset = sorted(rng.choice(ids, size=min(64, len(ids)), replace=False).tolist())
    return {"store": store, "refs": refs, "samples": len(ids), "subset": subset}


def write_ratings(path: str, seed: int, per_n: int) -> int:
    """An 11-rater panel over latent DAGs; every eighth text has noisy raters."""
    rng = np.random.default_rng(seed)
    texts = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["text_id", "i", "j", "rater_id", "label"])
        for n in NS:
            for k in range(per_n):
                tid = f"t{n}_{k:04d}"
                truth = random_dag(rng, n, float(rng.uniform(0.1, 0.5)))
                flip = 0.4 if texts % 8 == 0 else 0.12
                for i in range(n):
                    for j in range(n):
                        if i == j:
                            continue
                        labels = np.where(rng.random(RATERS) < flip, 1 - truth[i, j], truth[i, j])
                        for r, lab in enumerate(labels):
                            w.writerow([tid, i, j, r, int(lab)])
                texts += 1
    return texts


def write_anova_job(path: str, seed: int, b: int, per_cell: int, repeats: int = 1) -> list:
    """Generator-parameter groups: (n, level) -> metric values, per parameter.

    Each n stratum holds 3 levels x ``per_cell`` values, far more label
    arrangements than the exhaustive cap, so the sampled path runs.
    """
    rng = np.random.default_rng(seed)
    groups = {}
    for k, param in enumerate(ANOVA_PARAMS):
        effect = 0.1 * k
        groups[param] = [
            [n, level, (rng.normal(size=per_cell) + effect * li + 0.05 * n).tolist()]
            for n in NS
            for li, level in enumerate(("low", "mid", "high"))
        ]
    pools = {str(n): rng.random(600).tolist() for n in NS}
    with open(path, "w") as fh:
        json.dump({"b": b, "seed": seed, "repeats": repeats, "groups": groups, "pools": pools}, fh)
    return list(ANOVA_PARAMS)


def write_http_config(path: str, endpoint: str, credential_env: str) -> None:
    """Graphs of 3..5 nodes; the loop keeps the package defaults (m = 5 votes, k_max = 10)."""
    with open(path, "w") as fh:
        fh.write(
            "[phase1]\nn_min = 3\nn_max = 5\n\n"
            f"[backends]\nendpoint = {endpoint}\ncredential_env = {credential_env}\n"
        )
