"""Batch command-line interface.

Subcommands:
  run       execute the configured sweep and emit aggregate (and raw) CSV
  check     quick invariant/oracle suite (covariance, codebook, precoder)
  scenario  print the fully resolved configuration as INI
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness
from .geometry import ArrayGeometry
from .correlation import path_sum_covariance_error
from .precoding import min_power_precoder
from .ris import build_codebook, build_tile_partition, configure_tiles
from .scenario import PRESETS, ScenarioConfig, dump_config, load_config


def _resolve_config(args) -> ScenarioConfig:
    base = PRESETS[args.preset]()
    config = load_config(args.config, base=base) if args.config else base
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.trials is not None:
        config = replace(config, trials=args.trials)
    return config


def _cmd_run(args) -> int:
    if args.raw and not args.out:
        print("--raw requires --out", file=sys.stderr)
        return 2
    config = _resolve_config(args)
    result = harness.run_sweep(config)
    text = harness.aggregate_csv(result.aggregates)
    if args.out:
        Path(args.out).write_text(text)
        logging.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)
    if args.raw:
        raw_path = Path(args.out).with_suffix(".raw.csv")
        raw_path.write_text(harness.raw_csv(result.raw))
        logging.info("wrote %s", raw_path)
    return 0


def _check_covariance_limit(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    lam = 0.06
    rx = ArrayGeometry.upa(4, 1, lam / 2.0)
    tx = ArrayGeometry.upa(2, 2, lam / 2.0)
    err = path_sum_covariance_error(rng, 2000, rx, tx, lam, sigma_c=1.0, draws=4000)
    return err < 0.1, f"max covariance error {err:.4f} (tol 0.1)"


def _check_codebook(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    partition = build_tile_partition((4, 2), (2, 2))
    codebook = build_codebook((2, 2))
    n_t, k, q = 4, 2, partition.n_elements
    direct = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))
    h_t = rng.standard_normal((q, n_t)) + 1j * rng.standard_normal((q, n_t))
    h_r = rng.standard_normal((q, k)) + 1j * rng.standard_normal((q, k))
    config, _ = configure_tiles(direct, h_t, h_r, partition, codebook)
    # Re-derive every selection by brute force over the codebook.
    h_eff = direct.copy()
    for t, ids in enumerate(partition.element_ids):
        scores = []
        for m in range(len(codebook)):
            cols = []
            for j in range(k):
                row = (np.conj(h_r[ids, j]) * np.exp(1j * codebook.phases[m])) @ h_t[ids]
                cols.append(h_eff[:, j] + np.conj(row))
            scores.append(np.linalg.svd(np.stack(cols, axis=1), compute_uv=False).min())
        best = int(np.argmax(scores))
        if best != config.chosen_indices[t]:
            return False, f"tile {t}: greedy chose {config.chosen_indices[t]}, oracle {best}"
        stack = np.stack(
            [
                h_eff[:, j]
                + np.conj((np.conj(h_r[ids, j]) * np.exp(1j * codebook.phases[best])) @ h_t[ids])
                for j in range(k)
            ],
            axis=1,
        )
        h_eff = stack
    return True, f"all {partition.n_tiles} tile selections match the brute-force oracle"


def _check_precoder(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    worst_tight = 0.0
    for _ in range(20):
        h = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        sol = min_power_precoder(h, gamma_thr=5.0, noise_power=1.0)
        worst_gap = max(
            worst_gap, abs(sol.total_power - sol.dual_total_power) / sol.total_power
        )
        worst_tight = max(worst_tight, float(np.max(np.abs(sol.achieved_sinr / 5.0 - 1.0))))
    ok = worst_gap < 1e-6 and worst_tight < 1e-6
    return ok, f"duality gap {worst_gap:.2e}, constraint slack {worst_tight:.2e} (tol 1e-6)"


def _cmd_check(args) -> int:
    seed = args.seed if args.seed is not None else 1234
    checks = [
        ("covariance-limit", _check_covariance_limit),
        ("codebook-brute-force", _check_codebook),
        ("precoder-duality", _check_precoder),
    ]
    failed = 0
    for name, fn in checks:
        ok, detail = fn(seed)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def _cmd_scenario(args) -> int:
    sys.stdout.write(dump_config(_resolve_config(args)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rissim", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config overriding the preset")
    common.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    common.add_argument("--seed", type=int, metavar="U64", help="master seed override")
    common.add_argument("--trials", type=int, metavar="N", help="trial count override")

    p_run = sub.add_parser("run", parents=[common], help="run the configured sweep")
    p_run.add_argument("--out", metavar="PATH", help="aggregate CSV path (default: stdout)")
    p_run.add_argument(
        "--raw", action="store_true", help="also write per-trial CSV next to --out"
    )
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", parents=[common], help="run the oracle suite")
    p_check.set_defaults(fn=_cmd_check)

    p_scn = sub.add_parser("scenario", parents=[common], help="print resolved config")
    p_scn.set_defaults(fn=_cmd_scenario)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
