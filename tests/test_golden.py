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
per trial in raw-CSV order, and must match exactly.  After a declared
rounding change, ``python tests/test_golden.py`` rewrites it.
"""

from pathlib import Path

import pytest

from rissim.cli import main
from rissim.harness import run_sweep
from rissim.scenario import load_config

GOLDEN = Path(__file__).resolve().parent / "golden"
POWERS_HEX = GOLDEN / "sweep.powers.hex"


@pytest.mark.parametrize("name", ["sweep", "odd_axes"])
def test_sweep_csv_bytes_match_golden(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    rc = main(["run", "--config", str(GOLDEN / f"{name}.ini"), "--out", str(out), "--raw"])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert out.with_suffix(".raw.csv").read_bytes() == (GOLDEN / f"{name}.raw.csv").read_bytes()


def sweep_powers_hex() -> str:
    result = run_sweep(load_config(GOLDEN / "sweep.ini"))
    return "".join(
        f"{r.model},{r.q},{r.n_ue},{r.trial},{r.total_power_watts.hex()}\n" for r in result.raw
    )


def test_sweep_raw_powers_match_golden_hex():
    assert sweep_powers_hex() == POWERS_HEX.read_text()


if __name__ == "__main__":
    POWERS_HEX.write_text(sweep_powers_hex())
