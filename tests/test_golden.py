"""Byte-level regression lock on the sweep output.

``tests/golden/sweep.ini`` runs every channel model at Q = 64 and 128 with
K = 1, 2 and 4 UEs for 3 trials.  ``tests/golden/odd_axes.ini`` runs the
correlated model on a 3x1 BS and 5x7 tiles (Q = 35 and 140) with K = 1 and
3, so the correlation fold sees odd and length-1 axes.  The aggregate and
per-trial CSV that ``rissim run --raw`` writes for each must match the
committed files byte for byte, so a refactor that changes any draw, any
tile choice or any precoder result shows here.

The CSVs print 10 significant digits, so a rounding change in a channel
can pass them.  ``tests/golden/sweep.powers.hex`` holds every raw power of
``sweep.ini`` at full precision, one ``model,Q,n_ue,trial,float.hex`` line
per trial in raw-CSV order, and must match exactly.
``tests/golden/q1024.powers.hex`` does the same for ``q1024.ini``, every
model on sixteen tiles at K = 1, 2 and 4 for 2 trials, so the choices of
the later tiles are locked too.

``tests/golden/precoder.hex`` locks the min-power precoder on its own, one
line per seeded instance (:func:`precoder_instances`): the iteration count
or the ``InfeasibleError`` kind, both total powers as ``float.hex`` and a
sha256 of the beamformers' bytes.  The bytes hold for one numpy/OpenBLAS
build at one BLAS thread, which the root ``conftest.py`` pins.  After a
declared rounding change, ``OPENBLAS_NUM_THREADS=1 python
tests/test_golden.py`` rewrites the three hex files.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from rissim.cli import main
from rissim.harness import run_sweep
from rissim.oracles import complex_randn
from rissim.precoding import InfeasibleError, min_power_precoder
from rissim.scenario import load_config

GOLDEN = Path(__file__).resolve().parent / "golden"
POWERS_HEX = {name: GOLDEN / f"{name}.powers.hex" for name in ("sweep", "q1024")}
PRECODER_HEX = GOLDEN / "precoder.hex"


@pytest.mark.parametrize("name", ["sweep", "odd_axes"])
def test_sweep_csv_bytes_match_golden(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    rc = main(["run", "--config", str(GOLDEN / f"{name}.ini"), "--out", str(out), "--raw"])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert out.with_suffix(".raw.csv").read_bytes() == (GOLDEN / f"{name}.raw.csv").read_bytes()


def sweep_powers_hex(name: str) -> str:
    result = run_sweep(load_config(GOLDEN / f"{name}.ini"))
    return "".join(
        f"{r.model},{r.q},{r.n_ue},{r.trial},{r.total_power_watts.hex()}\n" for r in result.raw
    )


def test_sweep_raw_powers_match_golden_hex():
    assert sweep_powers_hex("sweep") == POWERS_HEX["sweep"].read_text()


def test_q1024_raw_powers_match_golden_hex():
    assert sweep_powers_hex("q1024") == POWERS_HEX["q1024"].read_text()


def precoder_instances():
    """``(h, gamma_thr, noise_power, max_iters, tol)`` for the precoder golden.

    300 random instances: K = 1..4 UEs, N_t = K..16 antennas, channel scale
    1e-8..1e3, SINR targets 0.1..1e4, noise 1e-14..1, a near-collinear last
    column in about one in five, and a tolerance and iteration budget that
    stop some solves at their first steps.  Then the edge cases: budgets of
    1 and 2 steps, tolerances of 0.5 and 2, exactly collinear columns, a
    zero column, a single UE, first-step powers all below (or some below)
    the 1e-300 floor of the relative change, and a target that overflows.
    """
    rng = np.random.default_rng(20241)
    for _ in range(300):
        k = int(rng.integers(1, 5))
        n_t = int(rng.integers(k, 17))
        scale = 10.0 ** rng.uniform(-8, 3)
        h = scale * complex_randn(rng, (n_t, k))
        if k >= 2 and rng.random() < 0.2:
            h[:, -1] = h[:, 0] + 10.0 ** rng.uniform(-8, -1) * scale * complex_randn(rng, n_t)
        gamma, noise = 10.0 ** rng.uniform(-1, 4), 10.0 ** rng.uniform(-14, 0)
        tol = float(rng.choice([1e-10, 1e-6, 0.5], p=[0.6, 0.3, 0.1]))
        max_iters = int(rng.choice([500, 1, 2, 5], p=[0.7, 0.1, 0.1, 0.1]))
        yield h, gamma, noise, max_iters, tol
    h = complex_randn(rng, (8, 3))
    for max_iters in (1, 2):
        for tol in (1e-10, 0.5, 2.0):
            yield h, 10.0, 1e-3, max_iters, tol
    yield h, 10.0, 1e-3, 500, 0.5
    collinear = h.copy()
    collinear[:, 2] = collinear[:, 0]
    yield collinear, 10.0, 1e-3, 500, 1e-10
    yield collinear, 1e-3, 1.0, 500, 1e-10
    zero = h.copy()
    zero[:, 1] = 0.0
    yield zero, 10.0, 1e-3, 500, 1e-10
    yield h[:, :1], 100.0, 1e-3, 500, 1e-10
    huge = 1e150 * h
    yield huge, 1.0, 1e-2, 500, 1e-10
    yield huge, 1.0, 1e-2, 1, 0.5
    yield huge, 10.0, 1e-20, 500, 1e-10
    mixed = h.copy()
    mixed[:, 0] *= 1e150
    yield mixed, 10.0, 1e-20, 500, 1e-10
    yield h, 1e300, 1e10, 500, 1e-10


def precoder_hex() -> str:
    lines = []
    for i, (h, gamma, noise, max_iters, tol) in enumerate(precoder_instances()):
        try:
            # the edge cases overflow on purpose; their outcome is what is locked
            with np.errstate(all="ignore"):
                sol = min_power_precoder(h, gamma, noise, max_iters=max_iters, tol=tol)
        except InfeasibleError as exc:
            lines.append(f"{i},{exc.kind}\n")
            continue
        digest = hashlib.sha256(sol.w.tobytes()).hexdigest()
        lines.append(
            f"{i},{sol.iterations},{sol.total_power.hex()},{sol.dual_total_power.hex()},{digest}\n"
        )
    return "".join(lines)


def test_precoder_results_match_golden_hex():
    assert precoder_hex() == PRECODER_HEX.read_text()


if __name__ == "__main__":
    for name, path in POWERS_HEX.items():
        path.write_text(sweep_powers_hex(name))
    PRECODER_HEX.write_text(precoder_hex())
