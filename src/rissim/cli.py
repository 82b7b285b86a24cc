"""Batch command-line interface.

Subcommands:
  run       execute the configured sweep and emit aggregate (and raw) CSV
  check     quick invariant/oracle suite (covariance, codebook, tile search on
            pipeline channels, precoder, precoder on pipeline channels,
            factor, low-rank steering factors)
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

import numpy as np

from . import harness, oracles
from .channels import Box, ChannelModel, draw_clusters, lowrank_from_clusters
from .correlation import matrix_sqrt_factor, sinc_correlation
from .geometry import ArrayGeometry
from .precoding import InfeasibleError, min_power_precoder
from .ris import configure_tiles
from .scenario import PRESETS, ScenarioConfig, default_config, dump_config, load_config, with_q
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
        raw_path = out.with_suffix(".raw.csv")
        if args.raw and raw_path.is_dir():
            raise ValueError(f"--raw {str(raw_path)!r} is a directory")
    config = _resolve_config(args)
    result = harness.run_sweep(config)
    text = harness.aggregate_csv(result.aggregates)
    if args.out:
        Path(args.out).write_text(text)
        logging.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)
    if args.raw:
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
    # K=1 and K=2 are scored in closed form; K=3 and K=4 run the
    # interlacing-pruned eigensolve.  Every instance has 4 tiles, so later
    # tiles are scored against an effective channel the search has built.
    rng = derive_rng(seed)
    mismatches, n_tiles = [], 0
    for n_ue in (1, 2, 3, 4):
        instance = oracles.tile_instance(rng, (4, 4), (2, 2), n_t=4, n_ue=n_ue)
        greedy = configure_tiles(*instance)[0].tolist()
        brute = oracles.brute_force_tiles(*instance)[0].tolist()
        mismatches += [(n_ue, t, g, b) for t, (g, b) in enumerate(zip(greedy, brute)) if g != b]
        n_tiles += len(brute)
    if mismatches:
        return False, f"(K, tile, greedy, oracle) mismatches: {mismatches}"
    return True, f"all {n_tiles} tile selections (K=1 to 4) match the brute-force oracle"


def _pipeline_draws(seed: int):
    """Yield ``(model, Q, trial)``, the trial's ``SimContext`` and ``(h_t, direct, h_r, table)``.

    What :func:`rissim.harness.trial_channels` returns for 4 UEs in 2
    desk-config trials of every model at Q = 64 and 256, with no tile search
    run: near-collinear columns, unlike the Gaussian instances.
    The far-field models' near-field warnings say nothing about the checks
    that read them, so they are not printed until the draws are done.
    """
    harness_log = logging.getLogger(harness.__name__)
    level = harness_log.level
    harness_log.setLevel(logging.ERROR)
    try:
        for q in (64, 256):
            config = replace(
                with_q(default_config(), q), master_seed=seed, ue_count=4, sweep_n_ue=[4]
            )
            ctx = harness.SimContext(config)
            for trial in range(2):
                for model in ChannelModel:
                    channels = harness.trial_channels(config, trial, model, ctx)
                    yield (model.value, q, trial), ctx, channels
    finally:
        harness_log.setLevel(level)


def _check_pipeline_tiles(seed: int) -> tuple[bool, str]:
    # On these channels many K >= 3 candidates survive the interlacing bound
    # and take the pivot test.  Every K reads the width-4 table, as a sweep's
    # UE-count cells do.
    mismatches, n_instances = [], 0
    for key, ctx, (h_t, direct, h_r, table) in _pipeline_draws(seed):
        for k in range(1, 5):
            instance = (direct[:, :k], h_t, h_r[:, :k], ctx.tiles, ctx.codebook)
            greedy = configure_tiles(*instance, table)[0].tolist()
            brute = oracles.brute_force_tiles(*instance)[0].tolist()
            n_instances += 1
            if greedy != brute:
                mismatches.append((*key, k, greedy, brute))
    if mismatches:
        return False, f"(model, Q, trial, K, greedy, oracle) mismatches: {mismatches}"
    return True, (
        f"all {n_instances} tile searches on pipeline channels (5 models, Q=64 and 256, "
        f"K=1 to 4 on one width-4 table per trial) match the brute-force oracle"
    )


def _check_factor_fold(seed: int) -> tuple[bool, str]:
    # deterministic; even axes, odd axes, and a length-1 axis
    lam = 0.06
    worst_ref = worst_rec = 0.0
    for geom in (
        ArrayGeometry.upa(16, 16, lam / 2.0),
        ArrayGeometry.upa(5, 7, 0.4 * lam),
        ArrayGeometry.upa(1, 6, lam / 2.0),
    ):
        factor = (geom.counts, matrix_sqrt_factor(geom, lam))
        ref, rec = oracles.sqrt_factor_errors(sinc_correlation(geom, lam), factor)
        worst_ref, worst_rec = max(worst_ref, ref), max(worst_rec, rec)
    ok = worst_ref <= 1e-8 and worst_rec <= 1e-13
    return ok, f"|F - F_dense| {worst_ref:.1e} (tol 1e-8), |F F^T - R| {worst_rec:.1e} (tol 1e-13)"


def _check_lowrank_kron(seed: int) -> tuple[bool, str]:
    # Random spacings, array centers and clusters on even, odd, length-1 and
    # single-antenna shapes; the pipeline link against the dense oracle.
    rng = derive_rng(seed)
    lam = 0.06
    shapes = [
        ((4, 4), (32, 32)), ((3, 5), (4, 4)), ((1, 7), (7, 1)),
        ((3, 5), (1, 1)), ((5, 1), (1, 1)), ((1, 1), (3, 5)),
    ]
    volume = Box(lo=(5.0, -10.0, -5.0), hi=(25.0, 10.0, 5.0))
    worst = 0.0
    for tx_counts, rx_counts in shapes:
        tx_spacing, rx_spacing = rng.uniform(0.0, lam, size=2)
        tx = ArrayGeometry.upa_centered(*tx_counts, tx_spacing, rng.uniform(-2.0, 2.0, size=3))
        rx_center = (30.0, 0.0, 0.0) + rng.uniform(-2.0, 2.0, size=3)
        rx = ArrayGeometry.upa_centered(*rx_counts, rx_spacing, rx_center)
        clusters = draw_clusters(rng, volume, 5, 20, 1.0)
        h = lowrank_from_clusters(clusters, tx, rx, lam)
        ref = oracles.dense_lowrank(clusters, tx, rx, lam)
        worst = max(worst, float(np.abs(h - ref).max() / np.abs(ref).max()))
    return worst <= 1e-12, (
        f"{len(shapes)} links match the dense steering oracle to {worst:.1e} relative (tol 1e-12)"
    )


def _check_precoder(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed)
    worst_gap = worst_slack = 0.0
    for _ in range(20):
        h = oracles.complex_randn(rng, (6, 3))
        sol = min_power_precoder(h, gamma_thr=5.0, noise_power=1.0)
        gap, slack = oracles.duality_gap_and_slack(sol, h, 5.0, 1.0)
        worst_gap, worst_slack = max(worst_gap, gap), max(worst_slack, slack)
    ok = worst_gap < 1e-6 and worst_slack < 1e-6
    return ok, f"duality gap {worst_gap:.2e}, constraint slack {worst_slack:.2e} (tol 1e-6)"


def _precoder_outcome(solve, h, gamma_thr, noise_power, *args):
    """``(iterations, total power)`` of a solve, or ``(kind, None)`` when infeasible."""
    try:
        sol = solve(h, gamma_thr, noise_power, *args)
    except InfeasibleError as exc:
        return exc.kind, None
    return sol.iterations, sol.total_power


def _reference_rounds_past_tol(h, gamma_thr, noise_power, gram_iters, ref_iters) -> bool:
    """Whether the reference's later stop is its own rounding: at the Gram form's
    stop, its relative change is below ``tol`` plus its rounding floor, the largest
    change it makes in four steps past its own stop, where only rounding moves it."""
    if not (isinstance(gram_iters, int) and isinstance(ref_iters, int) and gram_iters < ref_iters):
        return False
    deltas = []  # with tol = 0 the reference runs out of steps
    _precoder_outcome(
        oracles.nt_space_precoder, h, gamma_thr, noise_power, ref_iters + 4, 0.0, deltas
    )
    return deltas[gram_iters - 1] < 1e-10 + max(deltas[ref_iters:], default=0.0)


def _compare_precoders(instances) -> tuple[list, float, int, int]:
    """Solve each ``(key, h, gamma_thr, noise_power)`` with the pipeline's
    precoder and the N_t-space reference.

    Returns the ``(key, precoder, reference)`` iteration/kind mismatches, the
    worst relative total-power difference, the infeasible count and the
    count of instances that the reference stopped later within its rounding
    floor of ``tol`` (:func:`_reference_rounds_past_tol`).
    """
    mismatches, worst, infeasible, rounded = [], 0.0, 0, 0
    for key, h, gamma, noise in instances:
        gram = _precoder_outcome(min_power_precoder, h, gamma, noise)
        ref = _precoder_outcome(oracles.nt_space_precoder, h, gamma, noise)
        if gram[0] != ref[0]:
            if not _reference_rounds_past_tol(h, gamma, noise, gram[0], ref[0]):
                mismatches.append((key, gram[0], ref[0]))
                continue
            rounded += 1
        if ref[1] is None:
            infeasible += 1
        else:
            worst = max(worst, abs(gram[1] - ref[1]) / ref[1])
    return mismatches, worst, infeasible, rounded


def _check_precoder_gram(seed: int) -> tuple[bool, str]:
    # Random channels at five SINR targets, plus a collinear pair for each
    # K >= 2 that both solvers must report infeasible in the same way.
    rng = derive_rng(seed)
    instances = []
    for k in range(1, 5):
        for n_t in range(k, 17):
            h = oracles.complex_randn(rng, (n_t, k))
            for gamma in (1.0, 10.0, 100.0, 1e3, 1e4):
                instances.append(((h.shape, gamma), h, gamma, 1.0))
            if k >= 2:
                collinear = np.column_stack([h[:, :-1], h[:, 0]])
                instances.append(((h.shape, 10.0), collinear, 10.0, 1.0))
    mismatches, worst, infeasible, rounded = _compare_precoders(instances)
    if mismatches:
        return False, f"((shape, gamma), Gram, reference) iteration/kind mismatches: {mismatches}"
    return worst <= 1e-12, (
        f"{len(instances)} instances ({infeasible} infeasible) match the N_t-space reference "
        f"in feasibility and iterations ({rounded} stopped later by the reference within its "
        f"rounding floor of tol); total power {worst:.1e} relative (tol 1e-12)"
    )


def _check_pipeline_precoder(seed: int) -> tuple[bool, str]:
    # The precoder on the channels the tile search configures from the
    # pipeline draws at K = 1 to 4, with the sweep's SINR target and noise
    # power; and the min_sv the search returns, its winning Gram-form score,
    # against an SVD.  The closed forms (K <= 2) and the eigensolve round the
    # smallest eigenvalue by a few eps of the Gram's trace, well inside the
    # tolerance on these channels.
    instances, worst_sv = [], 0.0
    for key, ctx, (h_t, direct, h_r, table) in _pipeline_draws(seed):
        for k in range(1, 5):
            _, h, score = configure_tiles(direct[:, :k], h_t, h_r[:, :k], ctx.tiles, ctx.codebook, table)
            instances.append(((*key, k), h, ctx.config.gamma_thr, ctx.noise_power))
            sv = np.linalg.svd(h, compute_uv=False).min()
            worst_sv = max(worst_sv, abs(score - sv) / sv)
    mismatches, worst, infeasible, rounded = _compare_precoders(instances)
    if mismatches:
        return False, (
            f"((model, Q, trial, K), precoder, reference) iteration/kind mismatches: {mismatches}"
        )
    return worst <= 1e-12 and worst_sv <= 1e-10, (
        f"{len(instances)} configured pipeline channels ({infeasible} infeasible) match the "
        f"N_t-space reference in feasibility and iterations ({rounded} stopped later by the "
        f"reference within its rounding floor of tol); total power {worst:.1e} relative "
        f"(tol 1e-12); min_sv {worst_sv:.1e} relative to an SVD (tol 1e-10)"
    )


def _cmd_check(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    checks = [
        ("covariance-limit", _check_covariance_limit),
        ("codebook-brute-force", _check_codebook),
        ("pipeline-tiles", _check_pipeline_tiles),
        ("precoder-duality", _check_precoder),
        ("precoder-gram", _check_precoder_gram),
        ("pipeline-precoder", _check_pipeline_precoder),
        ("factor-fold", _check_factor_fold),
        ("lowrank-kron", _check_lowrank_kron),
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
