"""Self-tests of the benchmark's tracer, calibrator and output check.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1]
for _p in (_BENCH.parent / "src", _BENCH):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import rissim.harness  # noqa: E402
import rissim.ris  # noqa: E402
import rissim.seeding  # noqa: E402
from rissim.channels import ChannelModel  # noqa: E402
from rissim.scenario import default_config, dump_config  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracing import TARGETS, Tracer, layer_metrics, self_times, stage_table  # noqa: E402
from workloads import check_sweep  # noqa: E402


def _tiny_config(models, trials=2):
    return replace(default_config(), models=models, trials=trials, master_seed=7)


def _sweep(config):
    result = rissim.harness.run_sweep(config)
    return result, rissim.harness.aggregate_csv(result.aggregates)


def test_self_time_is_duration_minus_child_coverage():
    key = (0, "m", 64, 2, 0)
    spans = [
        ["root", 0.0, 10.0, -1, key],
        ["a", 1.0, 4.0, 0, key],
        ["a.child", 2.0, 3.0, 1, key],
        ["b", 5.0, 9.0, 0, key],
        ["b.first", 5.5, 7.0, 3, key],
        ["b.second", 6.5, 8.0, 3, key],  # overlaps its sibling: covered once
        ["c", 9.5, 11.0, 0, key],  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 2.0, 1.0, 1.5, 1.5, 1.5, 1.5])


def test_traced_sweep_restores_every_binding_and_keeps_output():
    config = _tiny_config([ChannelModel.CORRELATED_RAYLEIGH, ChannelModel.LOWRANK_GEOMETRIC])
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a in TARGETS}
    _, plain = _sweep(config)
    with Tracer() as tracer:
        assert rissim.harness.configure_tiles is not rissim.ris.configure_tiles
        _, traced = _sweep(config)
    assert traced == plain
    assert rissim.harness.configure_tiles is rissim.ris.configure_tiles
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, (module, attr)

    names = {span[0] for span in tracer.spans}
    assert {"harness.run_trial", "channels.draw_clusters", "ris.configure_tiles",
            "correlation.matrix_sqrt_factor", "seeding.derive_rng"} <= names
    metrics = layer_metrics(tracer, trials=4, cells=2, sweeps=1)
    # 1 + 2K = 5 link draws per geometric trial at K=2; 1 of the 2 models is geometric.
    assert metrics["channels.draw_clusters.calls"][0] == pytest.approx(2.5)
    assert metrics["precoding.feasible_ratio"][0] == 1.0
    assert {(row["model"], row["trials"]) for row in stage_table(tracer)} == {
        ("correlated_rayleigh", 2), ("lowrank_geometric", 2)}


def test_tracer_restores_bindings_when_the_sweep_raises():
    config = replace(_tiny_config([ChannelModel.IID_RAYLEIGH]), ue_count=17, sweep_n_ue=[17])
    with pytest.raises(ValueError):
        with Tracer():
            rissim.harness.run_sweep(config)
    assert rissim.harness.configure_tiles is rissim.ris.configure_tiles
    assert not hasattr(rissim.seeding.derive_rng, "__wrapped__")


@pytest.fixture(scope="module")
def swept():
    config = _tiny_config([ChannelModel.IID_RAYLEIGH, ChannelModel.IID_RICIAN], trials=3)
    result, text = _sweep(config)
    return config, result, text


def test_check_accepts_matching_output(swept):
    config, result, text = swept
    assert check_sweep(config, text, result.raw, text) == {}
    assert check_sweep(config, text, result.raw, None) == {}


def test_check_rejects_a_perturbed_row(swept):
    config, result, text = swept
    lines = text.splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[5] = repr(float(fields[5]) + 1e-3)  # mean_ptx_dbm
    perturbed = "".join(lines[:2] + [",".join(fields)] + lines[3:])
    failed = check_sweep(config, perturbed, result.raw, text)
    assert list(failed) == [("iid_rician", 64, 2)]


def test_check_rejects_a_missing_cell(swept):
    config, result, text = swept
    missing = "".join(text.splitlines(keepends=True)[:2])
    for reference in (text, None):
        failed = check_sweep(config, missing, result.raw, reference)
        assert failed == {("iid_rician", 64, 2): "missing cell"}


def test_check_rejects_a_bad_trial_power(swept):
    config, result, text = swept
    raw = [replace(r, total_power_watts=-1.0) if i == 0 else r for i, r in enumerate(result.raw)]
    failed = check_sweep(config, text, raw, None)
    assert list(failed) == [("iid_rayleigh", 64, 2)]


def _synthetic_calibrator(spans, ref_s=1.0):
    cal = Calibrator(ref_s=ref_s)
    for start, end in spans:
        cal.record(start, end)
    return cal


def test_calibrator_scales_each_gap_by_the_slices_near_it():
    # Durations 1, 2, 1, 3 with WINDOW_S = 1: the gap (1, 3) is timed
    # against slices 0 and 1, the gap (5, 7) against slices 1 and 2, and the
    # gap (8, 9.5) against slices 2 and 3, which starts within 1 s of it.
    cal = _synthetic_calibrator([(0.0, 1.0), (3.0, 5.0), (7.0, 8.0), (9.5, 12.5)])
    assert cal.raw(1.0, 9.5) == pytest.approx(5.5)
    assert cal.adjusted(1.0, 9.5) == pytest.approx(2.0 / 1.5 + 2.0 / 1.5 + 1.5 / 2.0)
    assert cal.factor_at(2.0) == pytest.approx(1.5)
    assert cal.factor_at(8.5) == pytest.approx(2.0)
    # The gap (2.5, 2.6) also sees slice 3, which starts within 1 s of it,
    # but not slice 0, which ended 1.5 s before it.
    cal = _synthetic_calibrator([(0.0, 1.0), (1.5, 2.5), (2.6, 2.7), (3.0, 7.0)])
    assert cal.factor_at(2.55) == pytest.approx((1.0 + 0.1 + 4.0) / 3)


def test_calibrator_times_a_long_gap_against_as_long_a_window():
    # The gap (1.4, 5.4) lasts 4 s, so slices up to 4 s from its ends count:
    # all but the one starting at 20.
    cal = _synthetic_calibrator(
        [(0.0, 1.0), (1.2, 1.4), (5.4, 5.6), (8.0, 9.0), (20.0, 23.0)])
    assert cal.factor_at(3.0) == pytest.approx((1.0 + 0.2 + 0.2 + 1.0) / 4)


def test_calibrator_cancels_a_uniform_slowdown():
    spans = [(3.0 * i, 3.0 * i + 1.0) for i in range(6)]
    slow = _synthetic_calibrator([(2 * a, 2 * b) for a, b in spans], ref_s=1.0)
    fast = _synthetic_calibrator(spans, ref_s=1.0)
    assert slow.raw(2.0, 30.0) == pytest.approx(2 * fast.raw(1.0, 15.0))
    assert slow.adjusted(2.0, 30.0) == pytest.approx(fast.adjusted(1.0, 15.0))


def test_calibrated_sweep_restores_run_trial_and_keeps_output():
    from run import sweep_once

    ini = dump_config(_tiny_config([ChannelModel.IID_RAYLEIGH, ChannelModel.IID_RICIAN]))
    original = rissim.harness.run_trial
    plain = sweep_once(ini)
    cal = Calibrator(every_s=0.0)
    calibrated = sweep_once(ini, cal)
    assert rissim.harness.run_trial is original
    assert calibrated.aggregate_csv == plain.aggregate_csv
    assert calibrated.raw_csv == plain.raw_csv
    # One slice before the sweep, one after each of the 4 trials, one after.
    assert len(cal.durations) == 6 and len(calibrated.trial_ends) == 4
    assert 0 < calibrated.seconds < calibrated.t1 - calibrated.t0
