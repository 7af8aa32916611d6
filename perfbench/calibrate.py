"""CPU-speed sampler for the untraced runs.

The host's CPUs change speed by up to 1.6x over tens of seconds (other
tenants, shared cores), which no clock inside the VM removes. This process
pins itself to one CPU and, every PERIOD_S, times a fixed unit of
interpreted Python on it. (A unit that also scattered into a table larger
than the caches tracked the program worse: the program's own cache use,
left behind on the shared CPU, slowed it.) A sample is marked shared when
a thread of the benchmarked process was runnable on the same CPU when the
sampler woke up, so shared samples measure the speed the program itself had
at that moment.

    python3 perfbench/calibrate.py --cpu 0 --pid 1234 --out samples.json

It runs until it receives SIGTERM or the process --pid ends, then writes its
samples as a JSON list of [start, seconds, shared]. The unit takes about
1.5 ms on a 2.1 GHz Xeon, so the sampler takes about 7% of a CPU it shares.
`Samplers` starts one sampler per CPU from the benchmarked process and turns
the samples into the factor that rescales a time to the reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

UNIT_LOOPS = 20_000
PERIOD_S = 0.02
# the reference CPU, on which one unit takes 1.5 ms
REF_UNIT_S = 0.0015
MAX_CPUS = 4
MIN_SAMPLES = 5


def runnable_cpus(pid: int) -> set[int] | None:
    """CPUs on which a thread of `pid` is running or waiting to run; None
    once the process is gone. Threads only: processes that `pid` starts are
    not followed."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return None
    cpus = set()
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as fh:
                stat = fh.read()
        except OSError:  # the thread ended
            continue
        # fields after "(comm)": state is field 3, the last CPU field 39
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] == "R":
            cpus.add(int(fields[36]))
    return cpus


def unit() -> int:
    s = 0
    for i in range(UNIT_LOOPS):
        s += i * i
    return s


class Samplers:
    """One sampler process per CPU that this process may run on (at most
    MAX_CPUS; the process is narrowed to those). Used as a context manager;
    the samples can be read once it has exited, and every sampler has then
    ended."""

    def __init__(self, work: Path):
        self.work = work
        self.procs: list[subprocess.Popen] = []
        self.samples: list[tuple[float, float, bool]] = []

    def __enter__(self):
        cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
        os.sched_setaffinity(0, cpus)
        try:
            for cpu in cpus:
                self.procs.append(subprocess.Popen(
                    [sys.executable, __file__, "--cpu", str(cpu),
                     "--pid", str(os.getpid()),
                     "--out", str(self.work / f"cpu{cpu}.json")]))
        except BaseException:
            self._stop()
            raise
        time.sleep(0.5)  # let them start before anything is timed
        return self

    def __exit__(self, *exc):
        self._stop()
        for path in self.work.glob("cpu*.json"):
            self.samples += [tuple(s) for s in
                             json.loads(path.read_text(encoding="utf-8"))]
        return False

    def _stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def scale(self, start: float, end: float) -> float:
        """REF_UNIT_S over the mean unit time of the shared samples taken
        between `start` and `end`: a time measured then, multiplied by this,
        is the time at the reference speed. Samples above 3x the median
        (the sampler itself was preempted) are left out."""
        dts = [dt for t, dt, shared in self.samples
               if shared and start <= t <= end]
        if len(dts) < MIN_SAMPLES:
            raise RuntimeError(f"{len(dts)} CPU-speed samples in a "
                               f"{end - start:.2f} s window")
        limit = 3 * statistics.median(dts)
        return REF_UNIT_S / statistics.fmean(d for d in dts if d <= limit)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--cpu", type=int, required=True)
    p.add_argument("--pid", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    os.sched_setaffinity(0, {args.cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    samples = []
    try:
        while True:
            cpus = runnable_cpus(args.pid)
            if cpus is None:
                break
            start = time.perf_counter()
            unit()
            samples.append((start, time.perf_counter() - start,
                            args.cpu in cpus))
            time.sleep(PERIOD_S)
    finally:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
