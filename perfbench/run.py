"""rissim sweep benchmark.

    python3 perfbench/run.py --workload desk_q64 --seed 0 --seconds 30 --trace 0

Runs one workload's paired sweep through the same library path as
``rissim run`` (``scenario.load_config``, ``harness.run_sweep``,
``harness.aggregate_csv``/``raw_csv``) again and again for ``--seconds``,
checks every sweep's output, and prints the metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  The run manifest and, for traced runs, the spans and
the per-cell stage table are written under ``perfbench/out/``.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import os  # noqa: E402

# One BLAS thread: the single-threaded baseline, and steadier timings on a
# shared box.  Must be set before numpy is first imported.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Fresh processes timed for setup_s; the median is reported.  Each is
# followed by this many calibration slices.
SETUP_SAMPLES = 9
SETUP_SLICES = 5
SETUP_TIMEOUT_S = 60

WORKLOAD_NAMES = ("desk_q64", "surface_q4096", "multiuser_q1024")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: load the workload config, print the time and exit")
    p.add_argument("--write-reference", action="store_true",
                   help="run one sweep at the default seed and store its aggregate CSV "
                        "as the workload's reference")
    return p.parse_args(argv)


def _import_rissim():
    """Import rissim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rissim" / "__init__.py").is_file():
        sys.exit(f"error: no rissim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rissim

    if Path(rissim.__file__).resolve().parent != (SRC / "rissim").resolve():
        sys.exit(f"error: imported rissim from {rissim.__file__}, not from {SRC}")


@dataclass
class Sweep:
    result: object  # harness.SweepResult
    aggregate_csv: str
    raw_csv: str
    seconds: float  # run_sweep plus the CSV render, calibration slices excluded
    start: float  # monotonic time run_sweep was called
    t0: float  # perf_counter span of the sweep, for the calibrator
    t1: float
    trial_ends: list[float] | None = None  # perf_counter time each trial returned


def sweep_once(ini: str, cal=None) -> Sweep:
    """One ``rissim run``: load the INI, sweep, render both CSVs.

    With a calibrator ``cal``, a calibration slice runs before and after the
    sweep and slices run after the trials (``Calibrator.catch_up``);
    ``harness.run_trial``, the name ``run_cell`` resolves at call time, is
    wrapped for that and put back afterwards.
    """
    from rissim import harness, scenario

    config = scenario.load_config(ini)
    start = time.monotonic()
    if cal is None:
        t0 = time.perf_counter()
        result = harness.run_sweep(config)
        agg = harness.aggregate_csv(result.aggregates)
        raw = harness.raw_csv(result.raw)
        t1 = time.perf_counter()
        return Sweep(result, agg, raw, t1 - t0, start, t0, t1)

    trial_ends: list[float] = []
    run_trial = harness.run_trial

    def calibrated_run_trial(*args, **kwargs):
        out = run_trial(*args, **kwargs)
        trial_ends.append(time.perf_counter())
        cal.catch_up()
        return out

    t0 = cal.slice()
    harness.run_trial = calibrated_run_trial
    try:
        result = harness.run_sweep(config)
        agg = harness.aggregate_csv(result.aggregates)
        raw = harness.raw_csv(result.raw)
    finally:
        harness.run_trial = run_trial
    t1 = time.perf_counter()
    cal.slice()
    return Sweep(result, agg, raw, cal.raw(t0, t1), start, t0, t1, trial_ends)


def measure_setup(args, cal) -> list[tuple[float, float]]:
    """Seconds from spawning a fresh benchmark process to its first run_sweep call.

    Each sample is (as measured, speed-adjusted); calibration slices run
    between the samples.
    """
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    cal.slice(SETUP_SLICES)
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        p0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True, cwd=ROOT)
        p1 = time.perf_counter()
        cal.slice(SETUP_SLICES)
        took = float(proc.stdout.strip().splitlines()[-1]) - t0
        samples.append((took, took / cal.factor_at((p0 + p1) / 2)))
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_runtime() -> dict:
    """Config string and thread count reported by the loaded OpenBLAS, if found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                return {"config": get_config().decode(), "threads": get_threads()}
    return {}


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """sha256 over the rissim sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rissim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(args, master_seed: int, ini: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "master_seed": master_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version,
        "numpy": np.__version__,
        "blas_build": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime": _openblas_runtime(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "ini": ini,
    }


class Outcome:
    """Trials attempted and failed over the checked sweeps of a run."""

    def __init__(self, config, reference):
        from workloads import planned_cells

        self.config = config
        self.reference = reference
        self.planned = len(planned_cells(config)) * config.trials
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: Sweep | None = None

    def record(self, sweep: Sweep) -> None:
        """Check one sweep; every trial of a failed cell counts as failed."""
        from workloads import check_sweep, parse_aggregate_csv

        self.attempted += self.planned
        bad = check_sweep(self.config, sweep.aggregate_csv, sweep.result.raw, self.reference)
        if self._first is None:
            self._first = sweep
        else:
            # Every sweep of a run has the same config and seed, so its
            # output must repeat byte for byte.
            first = parse_aggregate_csv(self._first.aggregate_csv)
            for key, rows in parse_aggregate_csv(sweep.aggregate_csv).items():
                if first.get(key) != rows:
                    bad.setdefault(key, "aggregate differs from the run's first sweep")
            if sweep.raw_csv != self._first.raw_csv and not bad:
                self.problems.append("raw CSV differs from the run's first sweep")
                self.failed += self.planned
                return
        for key, reason in sorted(bad.items()):
            self.problems.append(f"cell {key}: {reason}")
            self.failed += self.config.trials

    def record_abort(self, exc: BaseException) -> None:
        """A sweep that raised: every planned trial counts as failed."""
        self.attempted += self.planned
        self.failed += self.planned
        self.problems.append("sweep aborted: " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip())

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _loop(seconds: float, step) -> None:
    """Call ``step()`` until the next call would run past ``seconds``; at least once.

    ``step`` returns the seconds it took, or None to stop.
    """
    start = time.perf_counter()
    while True:
        took = step()
        if took is None or (time.perf_counter() - start) + took > seconds:
            return


def _rate(sweeps: list[Sweep]) -> float:
    """Trials per second over all the sweeps' run_sweep + CSV time."""
    return sum(len(s.result.raw) for s in sweeps) / sum(s.seconds for s in sweeps)


def run_untraced(args, ini, outcome, cal) -> list[Sweep]:
    sweeps: list[Sweep] = []
    cal.warm_up()

    def step():
        try:
            sweep = sweep_once(ini, cal)
        except Exception as exc:  # the run reports the failure instead of dying
            outcome.record_abort(exc)
            return None
        outcome.record(sweep)
        sweeps.append(sweep)
        return sweep.seconds

    _loop(args.seconds, step)
    return sweeps


def run_traced(args, ini, outcome):
    """Alternate untraced and traced sweeps; return both lists and the tracer."""
    from tracing import Tracer

    tracer = Tracer()
    plain: list[Sweep] = []
    traced: list[Sweep] = []

    def step():
        try:
            sweep = sweep_once(ini)
            outcome.record(sweep)
            plain.append(sweep)
            tracer.sweep = len(traced)
            with tracer:
                sweep = sweep_once(ini)
            outcome.record(sweep)
            traced.append(sweep)
        except Exception as exc:
            outcome.record_abort(exc)
            return None
        return plain[-1].seconds + traced[-1].seconds

    _loop(args.seconds, step)
    return plain, traced, tracer


def end_to_end(sweeps: list[Sweep], setup, cal) -> tuple[dict, list[str]]:
    """End-to-end metrics and the human-readable notes that go with them.

    ``setup`` is ``measure_setup``'s samples.  The three timing metrics are
    speed-adjusted with the run's calibration slices (see ``calibrate.py``);
    the figures as measured are printed too.
    """
    trials = sum(len(s.result.raw) for s in sweeps)
    adjusted_s = sum(cal.adjusted(s.t0, s.t1) for s in sweeps)
    raw_s = sum(s.seconds for s in sweeps)
    raw_ms, times_ms = [], []
    for s in sweeps:
        for r, end in zip(s.result.raw, s.trial_ends):
            raw_ms.append(1e3 * r.wall_time)
            times_ms.append(raw_ms[-1] / cal.factor_at(end - r.wall_time / 2))
    n = len(times_ms)
    slowness = statistics.median(cal.durations) / cal.ref_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "trials_per_s": (trials / adjusted_s, "trials/s"),
        "trial_ms_p50": (statistics.median(times_ms), "ms"),
        "setup_s": (statistics.median(adj for _, adj in setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "trials_per_s": f"{len(sweeps)} sweeps, {trials} trials; speed-adjusted, "
                        f"{trials / raw_s:.6g} as measured over {raw_s:.3f} s "
                        "in run_sweep + CSV render",
        "trial_ms_p50": f"median of TrialResult.wall_time, n={n} trials; speed-adjusted, "
                        f"{statistics.median(raw_ms):.6g} as measured",
        "setup_s": f"median of {len(setup)} fresh processes; speed-adjusted, "
                   f"{statistics.median(raw for raw, _ in setup):.6g} as measured: "
                   + ", ".join(f"{raw:.3f}" for raw, _ in setup),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"{name:<14} {value:.6g} {unit}  ({notes[name]})"
             for name, (value, unit) in metrics.items()]
    # p90 only where at least ten trials lie beyond it.
    if n >= 100:
        p90 = statistics.quantiles(times_ms, n=10)[-1]
        lines.insert(2, f"{'trial_ms_p90':<14} {p90:.6g} ms  (n={n} trials, {n // 10} beyond; "
                        "speed-adjusted)")
    else:
        lines.insert(2, f"{'trial_ms_p90':<14} not reported: n={n} trials leaves fewer "
                        "than 10 beyond p90")
    lines.append(f"calibration: {len(cal.durations)} slices, median "
                 f"{1e3 * statistics.median(cal.durations):.3f} ms = {slowness:.3f} x the "
                 f"reference {1e3 * cal.ref_s:.3f} ms")
    return metrics, lines


def write_reference(args, ini) -> int:
    from workloads import DEFAULT_SEED, REFERENCE_DIR

    if args.seed != DEFAULT_SEED:
        sys.exit(f"error: references are kept for the default seed {DEFAULT_SEED} only")
    sweep = sweep_once(ini)
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{args.workload}.csv").write_text(sweep.aggregate_csv)
    print(sweep.aggregate_csv, end="")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_rissim()
    from rissim import scenario
    from workloads import master_seed, reference_text, workload_ini

    ini = workload_ini(args.workload, args.seed)
    if args.setup_probe:
        scenario.load_config(ini)
        print(time.monotonic())
        return 0
    if args.write_reference:
        return write_reference(args, ini)

    config = scenario.load_config(ini)
    outcome = Outcome(config, reference_text(args.workload, args.seed))
    info = manifest(args, master_seed(args.workload, args.seed), ini)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"manifest": info}

    if args.trace == 0:
        from calibrate import Calibrator

        cal = Calibrator()
        sweeps = run_untraced(args, ini, outcome, cal)
        record["sweep_seconds"] = [s.seconds for s in sweeps]
        record["calibration_slice_s"] = cal.durations
        if sweeps:
            own_setup = sweeps[0].start - T_START
            metrics, lines = end_to_end(sweeps, measure_setup(args, cal), cal)
            lines.append(f"(this process: {own_setup:.3f} s from its first statement "
                         "to its first run_sweep)")
        else:
            metrics, lines = {}, []
    else:
        plain, traced, tracer = run_traced(args, ini, outcome)
        metrics, lines = {}, []
        if traced:
            metrics, lines = per_layer(plain, traced, tracer, record, stem)

    failed_frac = outcome.failed / max(1, outcome.attempted)
    print(f"workload {args.workload}, seed {args.seed} "
          f"(master_seed {info['master_seed']}), trace {args.trace}")
    for line in lines:
        print(line)
    print(f"{'failed_frac':<14} {failed_frac:.6g} of trials attempted "
          f"({outcome.failed}/{outcome.attempted})")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")

    record.update(
        correct=outcome.correct, attempted=outcome.attempted, failed=outcome.failed,
        problems=outcome.problems,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("manifest " + json.dumps(info))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": record["metrics"],
    }))
    return 0 if outcome.correct else 1


def per_layer(plain, traced, tracer, record, stem) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced sweeps; writes spans and the stage table."""
    from tracing import format_stage_table, layer_metrics, stage_table

    trials = sum(len(s.result.raw) for s in traced)
    cells = sum(len(s.result.aggregates) for s in traced)
    metrics = layer_metrics(tracer, trials, cells, len(traced))
    overhead = _rate(plain) / _rate(traced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    rows = stage_table(tracer)
    record["stage_table_ms_per_trial"] = rows
    with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
        for name, start, end, parent, trial in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "trial": trial}) + "\n")
    lines = [f"traced {len(traced)} sweeps ({trials} trials, {cells} cells), "
             f"{len(plain)} untraced sweeps alternated with them"]
    lines += [f"{name:<44} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append("layer wait time: none; the simulator has no queues or locks")
    lines.append("stage table, ms per trial (corr_build: lazy factor build spread over the cell):")
    lines.append(format_stage_table(rows))
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
