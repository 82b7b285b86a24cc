"""Byte-level regression lock on the sweep output.

``tests/golden/sweep.ini`` runs every channel model at Q = 64 and 128 with
K = 1, 2 and 4 UEs for 3 trials.  The aggregate and per-trial CSV that
``rissim run --raw`` writes for it must match the committed files byte for
byte, so a refactor that changes any draw, any tile choice or any precoder
result shows here.
"""

from pathlib import Path

from rissim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_sweep_csv_bytes_match_golden(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["run", "--config", str(GOLDEN / "sweep.ini"), "--out", str(out), "--raw"])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "sweep.csv").read_bytes()
    assert out.with_suffix(".raw.csv").read_bytes() == (GOLDEN / "sweep.raw.csv").read_bytes()
