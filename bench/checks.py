"""Output checks for the three afcec commands the benchmark runs.

Each check_* function takes an already parsed result and returns a list of
failure messages; an empty list means the result passed. Parsing errors are
raised as ValueError so the caller can count them as failures too.
"""

import csv
import io
import json
import math

import numpy as np

from afcec import engine, selection

# Printed costs and scores are repr()-exact, and the checks recompute them with
# the same code on the same data, so only summation-order noise is allowed.
REL_TOL = 1e-9
FIT_KEYS = ("cost", "loglik", "bic", "aic", "k_final", "iterations")
SWEEP_HEADER = ["k", "k_final", "cost", "loglik_mixture", "loglik_max", "n_params", "bic", "aic"]
ACA_HEADER = ["a", "sigma1", "sigma2", "raw_integral", "corrected_integral", "excluded_mass"]


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def parse_fit(stdout):
    out = json.loads(stdout)
    if not isinstance(out, dict):
        raise ValueError("fit output is not a JSON object")
    return out


def parse_table(stdout):
    """(header, rows) of a CSV table; every cell after the header as float."""
    records = list(csv.reader(io.StringIO(stdout)))
    if not records:
        raise ValueError("empty table")
    return records[0], [[float(c) for c in rec] for rec in records[1:]]


def check_fit(out, model, x):
    """`fit` stdout against the model it saved and the data it was given."""
    missing = [k for k in FIT_KEYS if k not in out]
    if missing:
        return [f"fit output lacks {missing}"]
    fails = []
    if out["k_final"] != model.k:
        fails.append(f"k_final {out['k_final']} but the model has {model.k} clusters")
    if out["iterations"] != model.iterations:
        fails.append(f"iterations {out['iterations']} but the model has {model.iterations}")
    trace = model.cost_trace
    if len(trace) != model.iterations + 1:
        fails.append(f"cost_trace has {len(trace)} entries for {model.iterations} iterations")
    if not _close(out["cost"], trace[-1]):
        fails.append(f"cost {out['cost']!r} but cost_trace ends at {trace[-1]!r}")
    deleting = set(model.deletion_iterations)
    for it in range(1, len(trace)):
        if it not in deleting and trace[it] > trace[it - 1] + REL_TOL * max(1.0, abs(trace[it])):
            fails.append(f"cost rose at deletion-free iteration {it}: {trace[it - 1]!r} -> {trace[it]!r}")
    labels = np.asarray(model.assignment)
    if labels.shape != (x.shape[0],) or labels.min() < 0 or labels.max() >= model.k:
        fails.append("assignment does not map every point to a model cluster")
        return fails
    recomputed = engine.cost(x, model.clusters, labels)
    if not _close(out["cost"], recomputed):
        fails.append(f"cost {out['cost']!r} but engine.cost on the saved model gives {recomputed!r}")
    bic = selection.score(x, model).bic
    if not _close(out["bic"], bic):
        fails.append(f"bic {out['bic']!r} but the saved model scores {bic!r}")
    return fails


def check_sweep(header, rows, k_max, n):
    """`sweep` table: one row per k = 1..k_max, k_final <= k, finite values,
    and BIC consistent with the mixture log-likelihood it reports."""
    if header != SWEEP_HEADER:
        return [f"sweep header {header}"]
    fails = []
    ks = [int(r[0]) for r in rows]
    if ks != list(range(1, k_max + 1)):
        fails.append(f"sweep rows cover k = {ks}, expected 1..{k_max}")
    for r in rows:
        k, k_final, _, ll_mix, _, n_params, bic, _ = r
        if not all(math.isfinite(v) for v in r):
            fails.append(f"k={k:g}: non-finite value")
            continue
        if not 1 <= k_final <= k:
            fails.append(f"k={k:g}: k_final {k_final:g} outside 1..k")
        if not _close(bic, -2.0 * ll_mix + n_params * math.log(n)):
            fails.append(f"k={k:g}: bic {bic!r} disagrees with its log-likelihood")
    return fails


def check_aca(header, rows, n_configs):
    """`acagmm-check` table: every configuration present, finite, raw >= corrected."""
    if header != ACA_HEADER:
        return [f"acagmm-check header {header}"]
    fails = []
    if len(rows) != n_configs:
        fails.append(f"{len(rows)} configurations, expected {n_configs}")
    for r in rows:
        a, s1, s2, raw, corrected, excluded = r
        tag = f"a={a:g} sigma=({s1:g},{s2:g})"
        if not all(math.isfinite(v) for v in r):
            fails.append(f"{tag}: non-finite value")
        elif corrected > raw + REL_TOL * abs(raw):
            fails.append(f"{tag}: corrected {corrected!r} exceeds raw {raw!r}")
        elif excluded < 0:
            fails.append(f"{tag}: negative excluded mass")
    return fails


def fit_summary(out):
    return {"final_cost": out["cost"], "bic": out["bic"]}


def sweep_summary(rows):
    return {
        "final_cost": sum(r[2] for r in rows) / len(rows),
        "bic": min(r[6] for r in rows),
    }


def aca_summary(rows):
    return {"aca_mass_gap": max(abs(r[4] + r[5] - 1.0) for r in rows)}
