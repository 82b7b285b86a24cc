"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them as they complete).

The trend criteria run the full desk-scale paired-seed sweeps once via a
module-scoped fixture shared by their sub-checks.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from rissim import units
from rissim.channels import (
    Box,
    ChannelModel,
    draw_clusters,
    los_matrix,
    lowrank_from_clusters,
    nearfield_from_clusters,
    nearfield_los,
)
from rissim.cli import main as cli_main
from rissim.correlation import matrix_sqrt_factor, sample_matrix_normal_factor, sinc_correlation
from rissim.geometry import ArrayGeometry, fraunhofer_distance, steering_vector
from rissim.harness import run_sweep
from rissim.oracles import (
    achieved_sinr,
    brute_force_tiles,
    complex_randn,
    duality_gap_and_slack,
    kron_steering,
    path_sum_covariance_error,
    sample_matrix_normal_vec,
    tile_instance,
)
from rissim.precoding import min_power_precoder
from rissim.ris import configure_tiles
from rissim.scenario import default_config

LAM = 0.06


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_path_sum_covariance_limit():
    rng = np.random.default_rng(2024)
    rx = ArrayGeometry.upa(4, 1, LAM / 2)  # 4-element ULA
    tx = ArrayGeometry.upa(2, 2, LAM / 2)  # 2x2 UPA
    t0 = time.perf_counter()
    err = path_sum_covariance_error(
        rng, n_paths=10**4, rx_geom=rx, tx_geom=tx, wavelength=LAM, sigma_c=1.0, draws=10**4
    )
    elapsed = time.perf_counter() - t0
    report(
        "1 covariance limit",
        err < 0.05 and elapsed < 60.0,
        f"max entrywise error {err:.4f} < 0.05, runtime {elapsed:.1f}s < 60s",
    )


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_correlation_zeros():
    geom = ArrayGeometry.upa(4, 4, LAM / 2)
    r = sinc_correlation(geom, LAM)
    pos = geom.element_positions
    worst_aligned = 0.0
    for m in range(16):
        for n in range(16):
            if m == n:
                continue
            if abs(pos[m][1] - pos[n][1]) < 1e-12 or abs(pos[m][2] - pos[n][2]) < 1e-12:
                worst_aligned = max(worst_aligned, abs(r[m, n]))
    expected = math.sin(math.pi * math.sqrt(2)) / (math.pi * math.sqrt(2))
    diag_err = abs(r[0, 5] - expected)
    ok = worst_aligned < 1e-12 and diag_err < 1e-12 and abs(expected + 0.217) < 1e-3
    report(
        "2 correlation zeros",
        ok,
        f"max same-row/col |R| {worst_aligned:.2e} < 1e-12, "
        f"diagonal neighbor {r[0,5]:.6f} = sinc(pi*sqrt(2)) +/- {diag_err:.1e}",
    )


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_generation_route_equivalence():
    rx = ArrayGeometry.upa(3, 1, 0.3 * LAM)
    tx = ArrayGeometry.upa(2, 1, 0.25 * LAM)
    f_rx, f_tx = ((g.counts, matrix_sqrt_factor(g, LAM)) for g in (rx, tx))
    draws = 10**5
    rng = np.random.default_rng(77)
    cores = (complex_randn(rng, (rx.size, tx.size)) for _ in range(draws))
    a = np.array([sample_matrix_normal_factor([(z, f_rx, f_tx, 1.0)])[0] for z in cores])
    b = np.array([sample_matrix_normal_vec(rng, f_rx, f_tx, 1.0) for _ in range(draws)])
    va, vb = a.reshape(draws, -1), b.reshape(draws, -1)

    def moment_z_scores(xa, xb):
        ma, mb = xa.mean(axis=0), xb.mean(axis=0)
        sa, sb = xa.var(axis=0), xb.var(axis=0)
        return np.abs(ma - mb) / np.sqrt(sa / draws + sb / draws + 1e-300)

    # first moments: Re/Im of each vec entry; second moments: Re/Im of each
    # entry of vec(H) vec(H)^H per draw
    z_list = [
        moment_z_scores(va.real, vb.real),
        moment_z_scores(va.imag, vb.imag),
    ]
    prod_a = va[:, :, None] * np.conj(va[:, None, :])
    prod_b = vb[:, :, None] * np.conj(vb[:, None, :])
    z_list.append(moment_z_scores(prod_a.real.reshape(draws, -1), prod_b.real.reshape(draws, -1)))
    z_list.append(moment_z_scores(prod_a.imag.reshape(draws, -1), prod_b.imag.reshape(draws, -1)))
    z = np.concatenate([np.atleast_1d(x).ravel() for x in z_list])
    n_stats = z.size
    threshold = stats.norm.ppf(1.0 - 0.01 / (2 * n_stats))  # two-sided, Bonferroni at 1%
    report(
        "3 route equivalence",
        float(z.max()) < threshold,
        f"max |z| {z.max():.2f} < {threshold:.2f} over {n_stats} moment statistics (1% level)",
    )


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_kronecker_identity():
    rng = np.random.default_rng(4)
    geom = ArrayGeometry.upa(4, 4, LAM / 2)
    worst = 0.0
    for direction in rng.standard_normal((1000, 3)):
        delta = np.abs(
            kron_steering(geom, direction, LAM) - steering_vector(geom, direction, LAM)
        ).max()
        worst = max(worst, float(delta))
    report("4 Kronecker identity", worst < 1e-12, f"max entry deviation {worst:.2e} < 1e-12")


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_near_field_consistency():
    # (i) agreement with the planar-wave model deep in the far field
    tx = ArrayGeometry.upa_centered(2, 2, LAM / 2, (0.0, 0.0, 0.0))
    rx = ArrayGeometry.upa_centered(2, 2, LAM / 2, (600.0, 50.0, 0.0))
    boundary = fraunhofer_distance(max(tx.aperture, rx.aperture), LAM)
    assert np.linalg.norm(rx.center) >= 1e4 * boundary
    clusters = draw_clusters(
        np.random.default_rng(55),
        Box(lo=(500.0, -400.0, -100.0), hi=(900.0, 400.0, 100.0)),
        n_clusters=3,
        n_subpaths=5,
        h_p=1.0,
    )
    clusters.gains[:] = 1.0  # common amplitude so only wavefront modeling differs
    h_far = lowrank_from_clusters(clusters, tx, rx, LAM)
    h_near = nearfield_from_clusters(clusters, tx, rx, LAM)
    far_err = float(np.abs(np.angle(h_near / h_far)).max())

    # (ii) breakdown of the planar model close to a large surface
    lam5 = units.SPEED_OF_LIGHT / 5e9
    ris = ArrayGeometry.upa_centered(32, 32, lam5 / 2, (0.0, 0.0, 0.0))
    source = np.array([10.0, 0.0, 0.0])
    exact = nearfield_los(ArrayGeometry.single(source), ris, 1.0, lam5)[:, 0]
    planar = los_matrix(ArrayGeometry.single(source), ris, 1.0, lam5)[:, 0]
    dev = np.angle(exact / planar)
    dev = np.angle(np.exp(1j * (dev - dev[0])))
    near_dev = float(np.abs(dev).max())

    ok = far_err < 1e-2 and near_dev > math.pi / 8
    report(
        "5 near-field consistency",
        ok,
        f"far-field phase error {far_err:.2e} rad < 1e-2; "
        f"planar-model deviation at 10 m {near_dev:.2f} rad > pi/8",
    )


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_tile_selection_oracle():
    # 2 tiles of 4 elements, N_t = 4, K = 2
    direct, h_t, h_r, tiles, codebook = tile_instance(
        np.random.default_rng(6), (4, 2), (2, 2), n_t=4, n_ue=2
    )
    greedy, eff = configure_tiles(direct, h_t, h_r, tiles, codebook)
    chosen, _ = brute_force_tiles(direct, h_t, h_r, tiles, codebook)
    mismatches = [(t, int(b), int(g)) for t, (b, g) in enumerate(zip(chosen, greedy)) if b != g]

    # h_d^H + h_r^H diag(exp(j omega)) H_t from the chosen element phases
    phases = np.empty(tiles.size)
    phases[tiles] = codebook.phases[greedy]
    reflected = (np.conj(h_r).T * np.exp(1j * phases)) @ h_t
    recon_err = float(np.abs(direct + np.conj(reflected).T - eff).max())

    ok = not mismatches and recon_err < 1e-10
    report(
        "6 tile selection oracle",
        ok,
        f"selection mismatches {mismatches}; assembled-reflection reconstruction "
        f"error {recon_err:.2e} < 1e-10",
    )


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_precoder():
    rng = np.random.default_rng(7)

    # single user vs the matched-filter closed form
    su_err = 0.0
    for _ in range(20):
        h = complex_randn(rng, (6, 1))
        sol = min_power_precoder(h, 10.0, 1.0)
        closed = 10.0 * 1.0 / np.linalg.norm(h) ** 2
        su_err = max(su_err, abs(sol.total_power - closed) / closed)

    # multi-user: tightness, down-scaling perturbation, duality gap
    tight_err, gap, perturb_ok = 0.0, 0.0, True
    for _ in range(20):
        h = complex_randn(rng, (4, 2))
        sol = min_power_precoder(h, 10.0, 1.0)
        sol_gap, sol_slack = duality_gap_and_slack(sol, h, 10.0, 1.0)
        gap, tight_err = max(gap, sol_gap), max(tight_err, sol_slack)
        for k in range(2):
            w = sol.w.copy()
            w[:, k] *= 0.999
            if achieved_sinr(w, h, 1.0)[k] >= 10.0:
                perturb_ok = False

    ok = su_err < 1e-9 and tight_err < 1e-6 and perturb_ok and gap < 1e-6
    report(
        "7 precoder",
        ok,
        f"single-user error {su_err:.1e} < 1e-9; constraint slack {tight_err:.1e} < 1e-6; "
        f"down-scaling violates: {perturb_ok}; duality gap {gap:.1e} < 1e-6",
    )


# -- 8 ----------------------------------------------------------------------


GEOMETRIC = (ChannelModel.LOWRANK_GEOMETRIC, ChannelModel.NEARFIELD_GEOMETRIC)


@pytest.fixture(scope="module")
def trend_sweeps():
    cfg = default_config()  # gamma_thr=10, direct blockage -40 dB, 200 trials
    assert cfg.gamma_thr == 10.0 and cfg.trials == 200
    assert cfg.links[list(cfg.links)[0]].blockage_db == -40.0
    t0 = time.perf_counter()
    over_q = run_sweep(
        replace(cfg, models=list(ChannelModel), sweep_q=[64, 256, 1024], sweep_n_ue=[2])
    )
    over_ue = run_sweep(
        replace(
            cfg,
            models=[ChannelModel.IID_RAYLEIGH, *GEOMETRIC],
            sweep_q=[1024],
            sweep_n_ue=[1, 4],
        )
    )
    elapsed = time.perf_counter() - t0
    return over_q, over_ue, elapsed


def _mean(rows, model, q=None, n_ue=None):
    for r in rows:
        if r.model == model.value and (q is None or r.q == q) and (n_ue is None or r.n_ue == n_ue):
            return r.mean_ptx_dbm
    raise KeyError((model, q, n_ue))


def test_criterion_8a_iid_rayleigh_lowest_at_q64(trend_sweeps):
    rows = trend_sweeps[0].aggregates
    means = {m: _mean(rows, m, q=64) for m in ChannelModel}
    iid = means[ChannelModel.IID_RAYLEIGH]
    others = {m.value: v for m, v in means.items() if m != ChannelModel.IID_RAYLEIGH}
    ok = all(iid < v for v in others.values())
    detail = ", ".join(f"{k}={v:.2f}" for k, v in others.items())
    report("8a iid Rayleigh lowest at Q=64", ok, f"iid={iid:.2f} dBm vs {detail}")


def test_criterion_8b_power_nonincreasing_in_q(trend_sweeps):
    rows = trend_sweeps[0].aggregates
    bad = []
    for m in ChannelModel:
        seq = [_mean(rows, m, q=q) for q in (64, 256, 1024)]
        if not (seq[0] >= seq[1] >= seq[2]):
            bad.append((m.value, [round(v, 2) for v in seq]))
    report(
        "8b mean power non-increasing in Q",
        not bad,
        f"violations: {bad}" if bad else "all five models non-increasing over Q=64,256,1024",
    )


def test_criterion_8c_multiuser_penalty_larger_for_geometric(trend_sweeps):
    rows = trend_sweeps[1].aggregates
    margins = {
        m: _mean(rows, m, n_ue=4) - _mean(rows, m, n_ue=1)
        for m in (ChannelModel.IID_RAYLEIGH, *GEOMETRIC)
    }
    iid = margins[ChannelModel.IID_RAYLEIGH]
    ok = all(margins[m] > iid for m in GEOMETRIC)
    detail = ", ".join(f"{m.value}=+{v:.1f} dB" for m, v in margins.items())
    report("8c multi-user penalty", ok, detail)


def test_criterion_8_runtime(trend_sweeps):
    elapsed = trend_sweeps[2]
    report("8 runtime", elapsed < 600.0, f"trend sweeps took {elapsed:.0f}s < 600s")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_byte_identical_runs(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[ris]\ntile_n_y = 2\ntile_n_z = 2\n"
        "[run]\ntrials = 5\nmodels = iid_rayleigh, nearfield_geometric\n"
        "[sweep]\nq = 8\nn_ue = 2\n"
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = cli_main(
            ["run", "--config", str(ini), "--seed", "31337", "--out", str(out), "--raw"]
        )
        assert rc == 0
        outs.append((out.read_bytes(), out.with_suffix(".raw.csv").read_bytes()))
    ok = outs[0] == outs[1]
    report(
        "9 determinism",
        ok,
        f"aggregate CSV {len(outs[0][0])} bytes and raw CSV {len(outs[0][1])} bytes identical",
    )
