"""rpsdm benchmark: Monte Carlo throughput of the ``rpsdm`` CLI.

Usage (from the repository root)::

    python3 bench/run.py --workload ber-n128 --seed 1 --seconds 50 --trace 0

Each job is one in-process ``rpsdm.cli.main`` call (``rpsdm ber`` or
``rpsdm papr-ccdf``) writing a CSV file. Jobs run back to back, one at a time
(a closed loop with one client), for ``--seconds``; every job's CLI seed
derives from ``--seed`` and the job index. Every output file is checked:
against the digest recorded in ``bench/digests.json`` when the (workload,
seed, job) is recorded there, and against the invariants of its curves
always.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each job
untraced and then traced (order alternating per job) and prints the
per-layer metrics from the spans of the traced jobs, see ``spans.py``. The
last stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. A results file with the environment goes to
``.bench_results/`` in the repository root.

Exit code 0 when a result was printed; 2 when the program cannot be set up
(for example when ``src/rpsdm`` is absent), without printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans as spanlib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"
DIGESTS = BENCH_DIR / "digests.json"

#: cold set-up probes per untraced run, spread evenly over the timed loop
#: (one more runs before the loop and is discarded). Probes taken back to
#: back all saw the same minute of a shared host, and their median moved
#: with it; spread out, they average over the run as the job times do
SETUP_PROBES = 20

#: BLAS threads per process (see _pin_blas_threads)
BLAS_THREADS = 1

#: a job's tail time is the highest percentile with at least this many
#: samples above it
TAIL_BEYOND = 10

#: jobs whose spans are written out in full to the traced results file
SPAN_DUMP_JOBS = 2

CCDF_LEVEL = 1e-3

# Why these two: ber-n128 is the single-threaded shape of the acceptance BER
# fixture, dominated by effective_channel and equalize on a power-of-two
# length; ccdf-mixed runs no channel or detection code, so it stays flat
# under BER-path changes and moves most under RNG-seeding changes (N=64) or
# synthesis changes (N=512). A non-power-of-two BER workload (N=96, with one
# and with two workers) was dropped: on a shared 2-core host the ten-run
# spreads of three workloads at 30 s could not be held inside the bounds,
# and two workloads leave room for 50 s runs.
WORKLOADS = {
    "ber-n128": {
        "argv": ["ber", "--n", "128", "--l", "8", "--m", "16", "--snr", "0,5,15,25",
                 "--trials", "6", "--scheme", "both", "--detector", "both",
                 "--workers", "1"],
        "block_lengths": (128,),
    },
    "ccdf-mixed": {
        "argv": ["papr-ccdf", "--n", "64,512", "--m", "16", "--scheme", "both",
                 "--thresholds", "0:14:0.25", "--trials", "1024"],
        "block_lengths": (64, 512),
    },
}

BER_HEADER = ["scheme", "detector", "n", "l", "m", "snr_db", "ber", "ci_low", "ci_high"]
CCDF_HEADER = ["scheme", "n", "threshold_db", "ccdf", "ci_low", "ci_high"]


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _grid(text: str) -> list[float]:
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        count = int((stop - start) / step + 1e-9) + 1
        return [start + step * i for i in range(count)]
    return [float(p) for p in text.split(",")]


def trials_per_job(workload: str) -> int:
    """Monte Carlo trials in one job: (SNR point, trial) draws through every
    receiver for BER, blocks (per scheme and length) for the CCDF."""
    argv = WORKLOADS[workload]["argv"]
    trials = int(_option(argv, "--trials"))
    if argv[0] == "ber":
        return trials * len(_grid(_option(argv, "--snr")))
    schemes = 2 if _option(argv, "--scheme") == "both" else 1
    return trials * len(_option(argv, "--n").split(",")) * schemes


def job_seed(workload: str, seed: int, job: int) -> int:
    """CLI seed of one job; the same (workload, seed, job) always gives the same."""
    digest = hashlib.sha256(f"{workload}:{seed}:{job}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def job_argv(workload: str, seed: int, job: int, output: str) -> list[str]:
    return [*WORKLOADS[workload]["argv"], "--seed", str(job_seed(workload, seed, job)),
            "--output", output]


# ---------------------------------------------------------------------------
# output checks


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def recorded_digest(digests: dict, workload: str, seed: int, job: int) -> str | None:
    entries = digests.get(workload, {}).get(str(seed), [])
    return entries[job] if job < len(entries) else None


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    lines = path.read_text().split("\n")
    if lines[-1] != "" or lines[0].split(",") != header:
        raise ValueError("bad header or missing final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged row")
    return rows


def _check_ber(path: Path, argv: list[str]) -> list[str]:
    problems = []
    rows = _rows(path, BER_HEADER)
    snr = _grid(_option(argv, "--snr"))
    receivers = {(r[0], r[1]) for r in rows}
    if receivers != {(s, d) for s in ("ofdm", "rpsdm") for d in ("zf", "mmse")}:
        problems.append(f"receivers {sorted(receivers)}")
    if len(rows) != 4 * len(snr):
        problems.append(f"{len(rows)} rows, expected {4 * len(snr)}")
    for r in rows:
        ber, lo, hi = float(r[6]), float(r[7]), float(r[8])
        if not (0.0 <= ber <= 1.0 and lo <= ber <= hi):
            problems.append(f"ber {ber} outside [0, 1] or its interval [{lo}, {hi}]")
    return problems


def _first_below(values: list[float], level: float) -> int:
    return next((i for i, v in enumerate(values) if v < level), len(values))


def _check_ccdf(path: Path, argv: list[str]) -> list[str]:
    problems = []
    rows = _rows(path, CCDF_HEADER)
    thresholds = _grid(_option(argv, "--thresholds"))
    curves: dict[tuple[str, int], list[float]] = {}
    for r in rows:
        curves.setdefault((r[0], int(r[1])), []).append(float(r[3]))
    expected = {(s, int(n)) for s in ("ofdm", "rpsdm") for n in _option(argv, "--n").split(",")}
    if set(curves) != expected:
        problems.append(f"curves {sorted(curves)}")
    for key, values in curves.items():
        if len(values) != len(thresholds):
            problems.append(f"{key}: {len(values)} points")
        if any(not 0.0 <= v <= 1.0 for v in values):
            problems.append(f"{key}: value outside [0, 1]")
        if any(b > a for a, b in zip(values, values[1:])):
            problems.append(f"{key}: increases with threshold")
    if ("ofdm", 64) in curves and ("rpsdm", 64) in curves:
        cross_r = _first_below(curves[("rpsdm", 64)], CCDF_LEVEL)
        cross_o = _first_below(curves[("ofdm", 64)], CCDF_LEVEL)
        if not cross_r < cross_o:
            problems.append(f"N=64 crossing at {CCDF_LEVEL}: rpsdm grid index {cross_r} "
                            f"not below ofdm {cross_o}")
    return problems


def check_output(path: Path, argv: list[str], expected_digest: str | None) -> list[str]:
    """Problems found in one job's output file (empty when it passes)."""
    if not path.exists():
        return ["no output file"]
    problems = []
    if expected_digest is not None and file_digest(path) != expected_digest:
        problems.append(f"digest {file_digest(path)} != recorded {expected_digest}")
    try:
        problems += _check_ber(path, argv) if argv[0] == "ber" else _check_ccdf(path, argv)
    except ValueError as exc:
        problems.append(f"unreadable output: {exc}")
    return problems


# ---------------------------------------------------------------------------
# environment


def _pin_blas_threads() -> int:
    """Pin BLAS to one thread per process; must run before numpy loads.

    The products here are small (N <= 512), and OpenBLAS's second thread on a
    2-core machine mostly spins; with --workers 2 it also fought the pool
    threads and widened the run-to-run spread of that workload about 3x.
    Output bytes are the same under one and two BLAS threads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "RPSDM_THREADS": os.environ.get("RPSDM_THREADS"),
    }


# ---------------------------------------------------------------------------
# measurement


def cold_setup_seconds(workload: str) -> float:
    """One cold set-up time, from a fresh interpreter."""
    probe = BENCH_DIR / "setup_probe.py"
    lengths = ",".join(str(n) for n in WORKLOADS[workload]["block_lengths"])
    done = subprocess.run([sys.executable, str(probe), str(SRC), lengths],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_job(main, argv: list[str]) -> tuple[int | None, float, str | None]:
    """One CLI invocation: (exit code or None if it raised, seconds, error)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        error = None if code == 0 else f"exit code {code}"
    except Exception:
        code, error = None, traceback.format_exc(limit=3)
    return code, time.perf_counter() - start, error


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at least
    TAIL_BEYOND samples above it, i.e. the (TAIL_BEYOND + 1)-th largest time
    at percentile 100 * (n - TAIL_BEYOND) / n; the maximum when there are too
    few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


class JobRunner:
    """Runs and checks the jobs of one workload and seed in a scratch directory."""

    def __init__(self, main, workload: str, seed: int, workdir: Path):
        self.main = main
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.digests = load_digests()
        self.failures: list[dict] = []
        self.by_digest = 0
        self.attempted = 0

    def run(self, job: int, root=None) -> float:
        """Run and check job ``job``; returns its wall time. ``root`` is an
        optional context manager entered around the CLI call (the trace root)."""
        out = self.workdir / f"job{job}.csv"
        argv = job_argv(self.workload, self.seed, job, str(out))
        with root if root is not None else contextlib.nullcontext():
            code, seconds, error = run_job(self.main, argv)
        expected = recorded_digest(self.digests, self.workload, self.seed, job)
        problems = [error] if error else check_output(out, argv, expected)
        self.attempted += 1
        if expected is not None and not problems:
            self.by_digest += 1
        if problems:
            self.failures.append({"job": job, "argv": argv, "problems": problems})
        out.unlink(missing_ok=True)
        return seconds


def measure(runner: JobRunner, seconds: float) -> tuple[list[float], list[float]]:
    """Closed loop: jobs 0, 1, 2, ... back to back until ``seconds`` of job
    time pass, with SETUP_PROBES cold set-up probes between jobs at evenly
    spaced points of it. Returns (job times, set-up times)."""
    cold_setup_seconds(runner.workload)  # warms the file cache: discarded
    runner.run(0)  # warm-up on job 0's input: untimed, but checked and counted
    times, setup = [], []
    elapsed = 0.0
    while not times or elapsed < seconds:
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(cold_setup_seconds(runner.workload))
        times.append(runner.run(len(times)))
        elapsed += times[-1]
    while len(setup) < SETUP_PROBES:  # a loop shorter than SETUP_PROBES jobs
        setup.append(cold_setup_seconds(runner.workload))
    return times, setup


def end_to_end(runner: JobRunner, times: list[float], setup: list[float], rss_mb: float):
    trials = trials_per_job(runner.workload) * len(times)
    tail_s, tail_pct = tail(times)
    metrics = {
        "trials_per_s": (trials / sum(times), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "job_s_tail": f"p{tail_pct:.1f} of {len(times)} jobs",
        "setup_s": f"median of {len(setup)} cold starts spread over the run",
        "trials_per_s": f"{trials} trials in {len(times)} jobs",
    }
    return metrics, notes


def per_layer(workload: str, spans: list, jobs: int, overhead_ms: float):
    """Per-layer metrics from the spans of ``jobs`` traced jobs."""
    from rpsdm import Scheme, complexity_report, direct_flops

    trials = trials_per_job(workload) * jobs
    self_of = spanlib.self_times(spans)
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    for s in spans:
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + self_of[id(s)]

    def us_per_trial(name):
        return 1e6 * inclusive.get(name, 0.0) / trials

    # ccdf synthesis: the ifft spans of OFDM, plus the real gemm of RPSDM.
    # The gemm has no span of its own: it is the self time of the RPSDM
    # papr_ccdf spans less that of the OFDM ones at the same N, which do the
    # same seeding, gather, PAPR reduction and counting on as many blocks
    ccdf_self: dict[tuple[str, int], float] = {}
    for s in spans:
        if s.name == "metrics.papr_ccdf" and s.info:
            key = (s.info["scheme"], s.info["n"])
            ccdf_self[key] = ccdf_self.get(key, 0.0) + self_of[id(s)]
    gemm = sum(t - ccdf_self.get(("ofdm", n), 0.0)
               for (scheme, n), t in ccdf_self.items() if scheme == "rpsdm")
    synthesis = inclusive.get("metrics.ccdf_ifft", 0.0) + gemm
    metric_fns = ("metrics.ber_curve", "metrics.papr_ccdf", "metrics.trial")
    metrics_self = sum(self_of[id(s)] for s in spans if s.name in metric_fns) - gemm

    # useful work in the trial loop over the time paid for by its workers
    curves = [s for s in spans if s.name == "metrics.ber_curve"]
    paid = sum(s.duration * (s.info["workers"] if s.info else 1) for s in curves)
    curve_ids = {id(s) for s in curves}
    busy = sum(s.duration for s in spans if s.parent is not None and id(s.parent) in curve_ids)
    busy_frac = busy / paid if paid else 1.0

    flops = {}
    for s in spans:
        if s.name == "transforms.modulate" and s.info:
            fc = direct_flops(Scheme(s.info[0]), s.info[1])
            flops["mod"] = flops.get("mod", 0) + fc.real_mults + fc.real_adds
        elif s.name == "detection.equalize" and s.info:
            row = next(r for r in complexity_report(s.info[1])
                       if r.operation == "receiver" and r.scheme.value == s.info[0])
            flops["eq"] = flops.get("eq", 0) + row.real_mults + row.real_adds
    moved = sum(s.info[2] for s in spans
                if s.name in ("transforms.modulate", "transforms.demodulate") and s.info)
    resampled = sum(s.info["resampled"] for s in curves if s.info)
    singular = sum(1 for s in spans
                   if s.name == "detection.equalize" and s.error == "SingularChannelError")

    ms_per_job = lambda seconds: 1e3 * seconds / jobs
    metrics = {
        "ramanujan.build_transform.calls": (calls.get("ramanujan.build_transform", 0) / jobs, "calls/job"),
        "ramanujan.build_transform.ms": (ms_per_job(inclusive.get("ramanujan.build_transform", 0.0)), "ms/job"),
        "transforms.make_plan.calls": (calls.get("transforms.make_plan", 0) / jobs, "calls/job"),
        "transforms.make_plan.ms": (ms_per_job(inclusive.get("transforms.make_plan", 0.0)), "ms/job"),
        "channel.effective_channel.us_per_trial": (us_per_trial("channel.effective_channel"), "us/trial"),
        "channel.circulant_matrix.us_per_trial": (us_per_trial("channel.circulant_matrix"), "us/trial"),
        "detection.equalize.us_per_trial": (us_per_trial("detection.equalize"), "us/trial"),
        "detection.equalize.singular": (singular, "count"),
        "detection.qam_map.us_per_trial": (us_per_trial("detection.qam_map"), "us/trial"),
        "detection.qam_demap.us_per_trial": (us_per_trial("detection.qam_demap"), "us/trial"),
        "transforms.modulate.us_per_trial": (us_per_trial("transforms.modulate"), "us/trial"),
        "transforms.demodulate.us_per_trial": (us_per_trial("transforms.demodulate"), "us/trial"),
        "channel.draw_channel.us_per_trial": (us_per_trial("channel.draw_channel"), "us/trial"),
        "channel.transmit.us_per_trial": (us_per_trial("channel.transmit"), "us/trial"),
        "channel.add_cp.us_per_trial": (us_per_trial("channel.add_cp"), "us/trial"),
        "channel.remove_cp.us_per_trial": (us_per_trial("channel.remove_cp"), "us/trial"),
        "metrics.rng_seed.us_per_trial": (us_per_trial("metrics.rng_seed"), "us/trial"),
        "metrics.rng_seed.calls": (calls.get("metrics.rng_seed", 0) / trials, "calls/trial"),
        "metrics.ccdf_synthesis.us_per_block": (1e6 * synthesis / trials, "us/block"),
        "metrics.self.us_per_trial": (1e6 * metrics_self / trials, "us/trial"),
        "metrics.worker_busy_frac": (busy_frac, "ratio"),
        "transforms.modulate.real_flops": (flops.get("mod", 0) / trials, "flop/trial"),
        "detection.equalize.real_flops": (flops.get("eq", 0) / trials, "flop/trial"),
        "transforms.bytes_moved": (moved / trials, "B/trial"),
        "metrics.resampled_trials": (resampled / trials, "count/trial"),
        "trace.overhead_ms": (overhead_ms, "ms/job"),
    }
    for layer in ("cli", "metrics", "transforms", "ramanujan", "number_theory",
                  "channel", "detection"):
        metrics[f"{layer}.self.ms"] = (ms_per_job(layer_self.get(layer, 0.0)), "ms/job")
    return metrics, layer_self


def receiver_us_per_trial(spans) -> dict[str, float]:
    """Traced time per (SNR point, trial) draw of each BER receiver: the
    trial spans under each ber_curve span, per draw of that curve."""
    time_by, draws_by = {}, {}
    for curve in (s for s in spans if s.name == "metrics.ber_curve" and s.info):
        key = f"{curve.info['scheme']}-{curve.info['detector']}"
        draws_by[key] = draws_by.get(key, 0) + curve.info["trials"] * curve.info["points"]
        time_by.setdefault(key, 0.0)
    for s in spans:
        if s.name == "metrics.trial" and s.parent is not None and s.parent.info:
            key = f"{s.parent.info['scheme']}-{s.parent.info['detector']}"
            time_by[key] += s.duration
    return {k: 1e6 * time_by[k] / draws_by[k] for k in sorted(draws_by)}


def per_call_us(spans) -> dict[str, float]:
    """Mean traced µs per call by span name, split by scheme where known."""
    total, count = {}, {}
    for s in spans:
        key = f"{s.name}[{s.info[0]}]" if isinstance(s.info, tuple) else s.name
        total[key] = total.get(key, 0.0) + s.duration
        count[key] = count.get(key, 0) + 1
    return {k: 1e6 * total[k] / count[k] for k in sorted(total)}


def measure_traced(runner: JobRunner, seconds: float):
    """Each job untraced and traced, order alternating; returns per-layer
    metrics and a summary of the first traced job."""
    tracer = spanlib.Tracer()
    plain, traced = [], []
    runner.run(0)  # warm-up: untimed, but checked and counted
    deadline = time.perf_counter() + seconds
    job = 0
    while job == 0 or time.perf_counter() < deadline:
        for traced_pass in ((False, True) if job % 2 == 0 else (True, False)):
            if traced_pass:
                with tracer:
                    traced.append(runner.run(job, tracer.root("cli.main", job)))
            else:
                plain.append(runner.run(job))
        job += 1
    overhead_ms = 1e3 * (sum(traced) - sum(plain)) / job
    metrics, layer_self = per_layer(runner.workload, tracer.spans, job, overhead_ms)
    first = [s for s in tracer.spans if s.job == 0]
    self_of = spanlib.self_times(first)
    first_summary = {
        "traced_wall_ms": 1e3 * next(s.duration for s in first if s.name == "cli.main"),
        "untraced_wall_ms": 1e3 * plain[0],
        "self_sum_ms": 1e3 * sum(self_of.values()),
    }
    extra = {"jobs": job,
             "receiver_us_per_trial": receiver_us_per_trial(tracer.spans),
             "per_call_us": per_call_us(tracer.spans),
             "layer_self_ms_per_job": {k: 1e3 * v / job for k, v in layer_self.items()},
             "first_job": first_summary,
             "spans": spanlib.span_records([s for s in tracer.spans if s.job < SPAN_DUMP_JOBS])}
    return metrics, extra


# ---------------------------------------------------------------------------


def _load_program():
    """Import rpsdm from this checkout's src/ (never an installed copy)."""
    if not (SRC / "rpsdm" / "__init__.py").exists():
        raise RuntimeError(f"no rpsdm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rpsdm
    import rpsdm.cli

    if Path(rpsdm.__file__).resolve().parent != (SRC / "rpsdm").resolve():
        raise RuntimeError(f"rpsdm imported from {rpsdm.__file__}, not {SRC}")
    return rpsdm.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = _pin_blas_threads()
    try:
        cli = _load_program()
    except (ImportError, RuntimeError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import resource

    env = environment(np, blas_threads)
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        runner = JobRunner(cli.main, args.workload, args.seed, workdir)
        if args.trace:
            metrics, extra = measure_traced(runner, args.seconds)
            notes = {}
        else:
            times, setup = measure(runner, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, notes = end_to_end(runner, times, setup, rss_mb)
            extra = {"job_seconds": times, "setup_seconds": setup}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    RESULTS_DIR.mkdir(exist_ok=True)
    results_file = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_file.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "environment": env, "result": result, "notes": notes,
         "failures": runner.failures, **extra}, indent=1) + "\n")

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: {runner.attempted} jobs")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {value:>14.6g} {unit}{note}")
    print(f"  {'error_rate':<42} {failed / runner.attempted:>14.6g} ratio  "
          f"({failed} of {runner.attempted} jobs failed; {runner.by_digest} matched a "
          f"recorded digest, all checked against curve invariants)")
    if args.trace:
        first = extra["first_job"]
        print(f"  first traced job: self times of all spans sum to {first['self_sum_ms']:.3f} ms"
              f" (more than the wall when pool threads overlap); traced wall "
              f"{first['traced_wall_ms']:.3f} ms, untraced wall {first['untraced_wall_ms']:.3f} ms")
    if args.trace and extra["receiver_us_per_trial"]:
        print("  traced us per draw by receiver: " + ", ".join(
            f"{k} {v:.0f}" for k, v in extra["receiver_us_per_trial"].items()))
    for failure in runner.failures[:5]:
        print(f"  FAILED job {failure['job']}: {failure['problems']}")
    print(f"results: {results_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
