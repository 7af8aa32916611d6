"""One workload run in a fresh process.

Sets the inputs up several times and repeats the timed pipeline untraced
for the given number of seconds, with CPU-speed samplers running
(calibrate.py), and rescales each time to the reference CPU speed. With
--trace 1 it runs the pipeline once untraced, then repeats it for the given
number of seconds with the tracer installed; no samplers run and times are
as measured. Writes a JSON record to --record. run.py starts this process
with BLAS pinned to one thread, before numpy is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from calibrate import Samplers  # noqa: E402

# set-up repeats at least MIN_SETUPS times and until SETUP_BUDGET_S is spent
MIN_SETUPS = 3
SETUP_BUDGET_S = 2.0
MIN_REPS = 2


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def run_setups(wl, seed: int, work: Path, checks):
    """Generate and write the inputs several times; every set-up must write
    the same bytes. Returns the inputs, the set-up times and the start and
    end of the phase."""
    times, digests = [], []
    phase_start = time.perf_counter()
    while len(times) < MIN_SETUPS or sum(times) < SETUP_BUDGET_S:
        inputs = work / f"inputs{len(times)}"
        inputs.mkdir()
        start = time.perf_counter()
        wl.setup(seed, inputs)
        times.append(time.perf_counter() - start)
        digests.append(dir_digest(inputs))
    checks.check(len(set(digests)) == 1,
                 "every set-up writes the same inputs")
    return work / "inputs0", times, (phase_start, time.perf_counter())


def run_phase(wl, seed: int, inputs: Path, work: Path, seconds: int,
              checks, tag: str, min_reps: int, tr=None):
    """Repeat the pipeline at least `min_reps` times, and more while the next
    repetition is expected to end within `seconds`. Returns the repetitions
    and the start and end of each."""
    reps, durations, windows = [], [], []
    start = time.perf_counter()
    while True:
        rep_dir = work / f"{tag}{len(reps)}"
        rep_dir.mkdir()
        t0 = time.perf_counter()
        if tr is not None:
            tr.reset()
        rep = wl.run(seed, inputs, rep_dir, workloads.Timer(), checks)
        if tr is not None:
            layers, exact = tracing.layer_metrics(tr)
            tr.reset()
            rep.values.update(layers)
            rep.values.update({k: v for k, v in exact.items()
                               if not k.startswith("fingerprint.")})
            rep.exact.update(exact)
        windows.append((t0, time.perf_counter()))
        durations.append(windows[-1][1] - t0)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if (len(reps) >= min_reps
                and elapsed + statistics.median(durations) > seconds):
            return reps, windows


def check_repeats(reps, checks) -> dict:
    """Every exact count and fingerprint must equal the first repetition's
    that recorded it. Returns the reference values."""
    ref: dict = {}
    for i, rep in enumerate(reps):
        differ = [k for k, v in rep.exact.items() if ref.setdefault(k, v) != v]
        if i:
            checks.check(not differ, f"repetition {i} reproduces the exact "
                         f"counts and fingerprints (differs in {differ})")
    return ref


def medians(reps) -> dict[str, float]:
    """Median of each value over the repetitions; a value that every
    repetition reproduces (an exact count) is kept as it is."""
    out = {}
    for k in sorted({k for rep in reps for k in rep.values}):
        vals = [rep.values[k] for rep in reps]
        out[k] = vals[0] if len(set(vals)) == 1 else statistics.median(vals)
    return out


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--record", required=True)
    args = p.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    checks = workloads.Checks()

    if args.trace:
        inputs, setup_times, _ = run_setups(wl, args.seed, work, checks)
        # one untraced repetition, for the tracing overhead
        untraced, _ = run_phase(wl, args.seed, inputs, work, 0, checks,
                                "untraced", 1)
        wall_s = untraced[0].wall_s
    else:
        with Samplers(work) as samplers:
            inputs, setup_times, setup_window = run_setups(
                wl, args.seed, work, checks)
            untraced, windows = run_phase(wl, args.seed, inputs, work,
                                          args.seconds, checks, "untraced",
                                          MIN_REPS)
        # one factor per phase: over a whole phase the samples average out
        # the short swings that a single repetition's would follow
        setup_scale = samplers.scale(*setup_window)
        wall_scale = samplers.scale(windows[0][0], windows[-1][1])
        wall_s = statistics.median(r.wall_s for r in untraced) * wall_scale
    reps = list(untraced)
    plain = medians(untraced)
    extras = {k: plain[k] for k in workloads.RUN_VALUES if k in plain}

    traced = []
    hogwild = 0.0
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
        try:
            traced, _ = run_phase(wl, args.seed, inputs, work, args.seconds,
                                  checks, "traced", MIN_REPS, tr)
            if args.workload == "train-200k":
                hogwild = workloads.hogwild_train(args.seed, inputs, checks)
        finally:
            tr.restore()
        reps += traced

    exact = check_repeats(reps, checks)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    extras["failed_frac"] = len(checks.failures) / checks.attempted
    extras["run.peak_rss_mb"] = usage.ru_maxrss / 1024
    extras["run.cpu_s"] = usage.ru_utime + usage.ru_stime

    if args.trace:
        metrics = dict.fromkeys(
            workloads.RUN_VALUES + workloads.LAYER_VALUES, 0.0)
        metrics.update(medians(traced))
        metrics.update(extras)
        metrics["train.pairs_per_s.ft-threads2"] = hogwild
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced) - wall_s)
    else:
        metrics = {"wall_s": wall_s,
                   "setup_s": statistics.median(setup_times) * setup_scale}
        extras["run.wall_raw_s"] = statistics.median(r.wall_s
                                                     for r in untraced)
        extras["run.setup_raw_s"] = statistics.median(setup_times)
        extras["run.setup_cpu_scale"] = setup_scale
        extras["run.cpu_scale"] = wall_scale

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(),
        "setup_s": setup_times,
        "untraced": {"wall_s": [r.wall_s for r in untraced],
                     "values": [r.values for r in untraced]},
        "traced": {"wall_s": [r.wall_s for r in traced],
                   "values": [r.values for r in traced]},
        "exact": exact,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "metrics": metrics,
        "extras": extras,
    }
    Path(args.record).write_text(json.dumps(record, indent=1),
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
