"""Batch command-line interface.

Subcommands:
  run       execute the configured sweep and emit aggregate (and raw) CSV
  check     quick invariant/oracle suite (covariance, codebook, precoder, factor)
  scenario  print the fully resolved configuration as INI
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, oracles
from .correlation import matrix_sqrt_factor, sinc_correlation
from .geometry import ArrayGeometry
from .precoding import min_power_precoder
from .ris import configure_tiles
from .scenario import PRESETS, ScenarioConfig, dump_config, load_config
from .seeding import derive_rng


def _error_line(message: str) -> str:
    return "rissim: error: " + " ".join(message.split()) + "\n"  # one line, whatever the source


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``rissim: error:`` line, exit code 2."""

    def error(self, message):
        self.exit(2, _error_line(message))


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
        raise ValueError("--raw requires --out")
    # Checked before the sweep, which may run for hours; --raw writes next to --out.
    if args.out:
        out = Path(args.out)
        if out.is_dir():
            raise ValueError(f"--out {args.out!r} is a directory")
        if not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
            raise ValueError(f"--out directory {str(out.parent)!r} does not exist or is not writable")
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
    lam = 0.06
    rx = ArrayGeometry.upa(4, 1, lam / 2.0)
    tx = ArrayGeometry.upa(2, 2, lam / 2.0)
    err = oracles.path_sum_covariance_error(
        derive_rng(seed), 2000, rx, tx, lam, sigma_c=1.0, draws=4000
    )
    return err < 0.1, f"max covariance error {err:.4f} (tol 0.1)"


def _check_codebook(seed: int) -> tuple[bool, str]:
    # K=2 is scored in closed form; K=4 runs the interlacing-pruned search.
    rng = derive_rng(seed)
    mismatches, n_tiles = [], 0
    for ris_counts, n_ue in (((4, 2), 2), ((4, 4), 4)):
        instance = oracles.tile_instance(rng, ris_counts, (2, 2), n_t=4, n_ue=n_ue)
        greedy = configure_tiles(*instance)[0].tolist()
        brute = oracles.brute_force_tiles(*instance)[0].tolist()
        mismatches += [(n_ue, t, g, b) for t, (g, b) in enumerate(zip(greedy, brute)) if g != b]
        n_tiles += len(brute)
    if mismatches:
        return False, f"(K, tile, greedy, oracle) mismatches: {mismatches}"
    return True, f"all {n_tiles} tile selections (K=2 and K=4) match the brute-force oracle"


def _check_factor_fold(seed: int) -> tuple[bool, str]:
    # deterministic; an even and an odd element count
    lam = 0.06
    worst_ref = worst_rec = 0.0
    for geom in (ArrayGeometry.upa(16, 16, lam / 2.0), ArrayGeometry.upa(5, 7, 0.4 * lam)):
        r = sinc_correlation(geom, lam)
        ref, rec = oracles.sqrt_factor_errors(r, matrix_sqrt_factor(r))
        worst_ref, worst_rec = max(worst_ref, ref), max(worst_rec, rec)
    ok = worst_ref <= 1e-8 and worst_rec <= 1e-13
    return ok, f"|F - F_dense| {worst_ref:.1e} (tol 1e-8), |F F^T - R| {worst_rec:.1e} (tol 1e-13)"


def _check_precoder(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed)
    worst_gap = worst_slack = 0.0
    for _ in range(20):
        h = oracles.complex_randn(rng, (6, 3))
        sol = min_power_precoder(h, gamma_thr=5.0, noise_power=1.0)
        gap, slack = oracles.duality_gap_and_slack(sol, 5.0)
        worst_gap, worst_slack = max(worst_gap, gap), max(worst_slack, slack)
    ok = worst_gap < 1e-6 and worst_slack < 1e-6
    return ok, f"duality gap {worst_gap:.2e}, constraint slack {worst_slack:.2e} (tol 1e-6)"


def _cmd_check(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    checks = [
        ("covariance-limit", _check_covariance_limit),
        ("codebook-brute-force", _check_codebook),
        ("precoder-duality", _check_precoder),
        ("factor-fold", _check_factor_fold),
    ]
    failed = 0
    for name, fn in checks:
        ok, detail = fn(args.seed)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def _cmd_scenario(args) -> int:
    sys.stdout.write(dump_config(_resolve_config(args)))
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="rissim", description=__doc__)
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

    p_check = sub.add_parser("check", help="run the oracle suite")
    p_check.add_argument("--seed", type=int, default=1234, metavar="U64", help="oracle seed")
    p_check.set_defaults(fn=_cmd_check)

    p_scn = sub.add_parser("scenario", parents=[common], help="print resolved config")
    p_scn.set_defaults(fn=_cmd_scenario)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.fn(args)
    except (ValueError, OSError, configparser.Error) as exc:
        sys.stderr.write(_error_line(str(exc)))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
