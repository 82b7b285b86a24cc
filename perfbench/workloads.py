"""Benchmark workloads and the output check.

Each workload is a paired sweep whose config is generated from the
benchmark seed; the program only sees the resulting INI text.  The output
check compares a sweep's aggregate rows with the committed reference for
the default seed and checks invariants for every other seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from pathlib import Path

from rissim.channels import ChannelModel
from rissim.scenario import default_config, dump_config

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Absolute tolerance on mean_ptx_dbm and std_ptx_db against the reference.
# The sweep is deterministic, so on one machine the match is exact; the
# tolerance only absorbs last-digit differences between BLAS builds.
TOL_DB = 1e-6

# Why each workload exists is recorded in perfbench/README.md.
_CR = ChannelModel.CORRELATED_RAYLEIGH
_LG = ChannelModel.LOWRANK_GEOMETRIC
_NG = ChannelModel.NEARFIELD_GEOMETRIC
WORKLOADS = {
    # Shipped desk scenario: all five models, Q=64, K=2, 200 trials per cell.
    "desk_q64": {},
    # The `full` preset's most expensive cell, for the three models whose
    # cost grows with the surface.
    "surface_q4096": dict(models=[_CR, _LG, _NG], sweep_q=[4096], sweep_n_ue=[2], trials=11),
    # Three cells of one Q: per-K scoring branches and per-UE correlated draws.
    "multiuser_q1024": dict(models=[_CR], sweep_q=[1024], sweep_n_ue=[1, 2, 4], trials=20),
}


def master_seed(workload: str, seed: int) -> int:
    """Master seed of a workload's sweep, derived from the benchmark seed."""
    return random.Random(f"{workload}:{seed}").randrange(2**31)


def workload_ini(workload: str, seed: int) -> str:
    """Resolved INI text of a workload's sweep for a benchmark seed."""
    config = replace(
        default_config(), master_seed=master_seed(workload, seed), **WORKLOADS[workload]
    )
    return dump_config(config)


def planned_cells(config) -> list[tuple[str, int, int]]:
    """(model, Q, K) keys of the cells a sweep of ``config`` must produce, in order."""
    return [
        (m.value, q, k) for m in config.models for q in config.sweep_q for k in config.sweep_n_ue
    ]


def parse_aggregate_csv(text: str) -> dict[tuple[str, int, int], list[str]]:
    """Aggregate CSV rows keyed by (model, Q, n_ue); a repeated key is kept as a list."""
    lines = text.strip().splitlines()
    rows: dict = {}
    for line in lines[1:]:
        fields = line.split(",")
        key = (fields[0], int(fields[1]), int(fields[2]))
        rows.setdefault(key, []).append(fields)
    return rows


def _close_db(a: str, b: str) -> bool:
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOL_DB


def check_sweep(config, aggregate_text: str, raw, reference_text: str | None) -> dict:
    """Failed cells of one sweep, mapped to a reason.

    ``raw`` is the sweep's list of trial results.  With ``reference_text``
    the aggregate rows must match it (feasible_frac exactly, the dB columns
    within ``TOL_DB``); without it only invariants are checked: one row per
    planned cell, the configured trial count, and a finite positive power
    for every feasible trial.
    """
    failed: dict = {}
    rows = parse_aggregate_csv(aggregate_text)
    planned = planned_cells(config)
    for key in set(rows) - set(planned):
        failed[key] = "unexpected cell"
    trials_by_cell: dict = {}
    for r in raw:
        trials_by_cell.setdefault((r.model, r.q, r.n_ue), []).append(r)
    ref_rows = parse_aggregate_csv(reference_text) if reference_text is not None else None
    if ref_rows is not None:
        for key in set(ref_rows) - set(planned):
            failed[key] = "reference cell not planned"
    for key in planned:
        got = rows.get(key, [])
        if len(got) != 1:
            failed[key] = "missing cell" if not got else "duplicate cell"
            continue
        _, _, _, trials, feasible_frac, mean_dbm, std_db, seed = got[0]
        trials = int(trials)
        results = trials_by_cell.get(key, [])
        if trials != config.trials or len(results) != config.trials:
            failed[key] = f"{trials} aggregated / {len(results)} raw trials, want {config.trials}"
            continue
        if sorted(r.trial for r in results) != list(range(config.trials)):
            failed[key] = "trial indices are not 0..trials-1"
            continue
        n_feasible = 0
        for r in results:
            p = r.total_power_watts
            if r.feasible:
                n_feasible += 1
                if not (math.isfinite(p) and p > 0):
                    failed[key] = f"trial {r.trial}: feasible with power {p!r}"
            elif not math.isnan(p):
                failed[key] = f"trial {r.trial}: infeasible with power {p!r}"
        if key in failed:
            continue
        if float(feasible_frac) != n_feasible / trials:
            failed[key] = f"feasible_frac {feasible_frac} disagrees with the raw trials"
            continue
        if int(seed) != config.master_seed:
            failed[key] = f"seed column {seed}, want {config.master_seed}"
            continue
        if ref_rows is None:
            continue
        ref = ref_rows.get(key)
        if ref is None or len(ref) != 1:
            failed[key] = "no reference row"
            continue
        ref = ref[0]
        if int(ref[3]) != trials or float(ref[4]) != float(feasible_frac):
            failed[key] = f"trials/feasible_frac {trials}/{feasible_frac}, reference {ref[3]}/{ref[4]}"
        elif not (_close_db(mean_dbm, ref[5]) and _close_db(std_db, ref[6])):
            failed[key] = f"mean/std {mean_dbm}/{std_db} dB, reference {ref[5]}/{ref[6]} dB"
    return failed


def reference_text(workload: str, seed: int) -> str | None:
    """Committed reference aggregate CSV, for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    return (REFERENCE_DIR / f"{workload}.csv").read_text()
