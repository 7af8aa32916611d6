"""Interleaved A/B timing of perfbench workloads: a git revision against
the working tree.

    python3 tools/ab.py REV WORKLOAD... [--seed N] [--rounds N]

    e.g. python3 tools/ab.py HEAD train-200k segment-zipf19k simulate-grid

The runner exports REV's `src/` and `perfbench/` with `git archive` into a
temporary directory once. The workloads are compared one after the other;
for each, it starts two long-lived child processes: one imports
REV's `perfbench/workloads.py` with REV's `src/` first on `sys.path`, the
other the working tree's. Both run with BLAS pinned to one thread, as
`perfbench/run.py` runs its child, and with one fixed `PYTHONHASHSEED`,
so the sides differ in their code only: a hash seed drawn per child would
give each side its own dict and set layouts for the whole run, which
interleaving cannot average out. Each child's stderr, its workers'
included, goes to a file, not among the rounds. Each child sets the
workload's inputs up once. The runner then asks the two sides for one
repetition each per round, never both at once, and alternates which side
goes first. One warm-up round is run and left out.

For each workload it prints each round, then for both sides the median and
quartiles of the repetition's time inside subtok calls (raw seconds, not
rescaled to a reference CPU speed), the median CPU seconds of a repetition
(user plus system time of the child and of the worker processes it
reaped, as `RUSAGE_SELF` and `RUSAGE_CHILDREN` deltas), the median of the
per-round ratio tree/REV, how many rounds each side won, the median of the
per-round CPU ratio tree/REV and how many rounds each side used less CPU
(on a busy VM the CPU seconds separate the sides more cleanly than the
times, which also count waiting for a core), the peak RSS of
the child and of its reaped worker processes, each distinct line the side
wrote to stderr once with its count, failed checks, and whether
every repetition's `exact` record is equal across the two sides. A last
block gives one line per workload. It exits 1 when, on any workload, the
exact records differ or a check failed on either side, and 0 otherwise, so
one command gates a change on `exact records: equal` for every workload it
names.

Separate `perfbench/run.py` runs of one commit on a busy 2-vCPU VM gave
simulate-grid raw times from 1.95 to 3.08 s (seeds 41-50); interleaving
puts both sides under the same load within each round. Nothing is written
in the repository: inputs, outputs and the exported revision live in a
temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and of the children it
    has reaped."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def serve(root: str, workload: str, seed: str, work: str) -> None:
    """Child side: set the workload up once under `work`, then run one
    repetition per `run` line read from stdin and answer each with one JSON
    line on stdout."""
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    import workloads

    wl = workloads.WORKLOADS[workload]
    work_dir = Path(work)
    inputs = work_dir / "inputs"
    inputs.mkdir()
    answer = sys.stdout
    with contextlib.redirect_stdout(io.StringIO()):
        wl.setup(int(seed), inputs)
    for n, line in enumerate(sys.stdin):
        if line.strip() != "run":
            break
        rep_dir = work_dir / f"rep{n}"
        rep_dir.mkdir()
        checks = workloads.Checks()
        cpu_start = cpu_seconds()
        # the program's own prints would break the one-line answers
        with contextlib.redirect_stdout(io.StringIO()):
            rep = wl.run(int(seed), inputs, rep_dir, workloads.Timer(),
                         checks)
        cpu_s = cpu_seconds() - cpu_start
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        answer.write(json.dumps({
            "wall_s": rep.wall_s, "cpu_s": cpu_s, "exact": rep.exact,
            "failures": checks.failures, "attempted": checks.attempted,
            "rss_mb": own / 1024, "children_rss_mb": kids / 1024},
            default=str) + "\n")
        answer.flush()


def export(rev: str, dest: Path) -> None:
    """`src/` and `perfbench/` of `rev` unpacked under `dest`."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src",
         "perfbench"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


class Side:
    """One long-lived child running the workload from `root`."""

    def __init__(self, name: str, root: Path, workload: str, seed: int,
                 work: Path):
        self.name = name
        work.mkdir()
        self.stderr = work / "stderr.txt"
        with open(self.stderr, "w", encoding="utf-8") as err:
            self.proc = subprocess.Popen(
                [sys.executable, __file__, "--serve", str(root), workload,
                 str(seed), str(work)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                text=True, cwd=work, env={**os.environ, **PINNED_ENV})
        self.reps: list[dict] = []

    def run(self) -> dict:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the {self.name} child exited (code "
                               f"{self.proc.wait()}); its stderr:\n"
                               + self.stderr.read_text("utf-8"))
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def compare(rev_name: str, rev_root: Path, workload: str, seed: int,
            rounds: int, tmp: Path) -> bool:
    """Run and print one workload's interleaved rounds and summary; True
    when its exact records are equal and no check failed."""
    print(f"== {workload} ==", flush=True)
    sides = [Side(rev_name, rev_root, workload, seed,
                  tmp / f"{workload}-rev-work"),
             Side("tree", ROOT, workload, seed, tmp / f"{workload}-tree-work")]
    try:
        for side in sides:  # warm-up, left out
            side.run()
        for i in range(rounds):
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                side.reps.append(side.run())
            a, b = (s.reps[-1]["wall_s"] for s in sides)
            print(f"round {i + 1:2d} ({order[0].name} first): "
                  f"{rev_name} {a:.3f} s  tree {b:.3f} s  "
                  f"ratio {b / a:.3f}", flush=True)
    finally:
        for side in sides:
            side.close()

    rev, tree = sides
    for side in sides:
        walls = [r["wall_s"] for r in side.reps]
        q1, q2, q3 = statistics.quantiles(walls, n=4, method="inclusive")
        failed = sum(len(r["failures"]) for r in side.reps)
        attempted = sum(r["attempted"] for r in side.reps)
        cpu = statistics.median(r["cpu_s"] for r in side.reps)
        print(f"{side.name}: median {q2:.3f} s (quartiles {q1:.3f}-"
              f"{q3:.3f}), CPU {cpu:.3f} s, n={len(walls)}, "
              f"failed {failed}/{attempted}, "
              f"peak RSS {max(r['rss_mb'] for r in side.reps):.0f} MB, "
              f"workers {max(r['children_rss_mb'] for r in side.reps):.0f}"
              " MB")
        lines = Counter(side.stderr.read_text("utf-8").splitlines())
        for line, count in lines.items():
            print(f"{side.name} stderr ({count}x): {line}")
    ratios = [t["wall_s"] / r["wall_s"] for r, t in zip(rev.reps, tree.reps)]
    wins = sum(t["wall_s"] < r["wall_s"] for r, t in zip(rev.reps, tree.reps))
    print(f"ratio tree/{rev_name}: median {statistics.median(ratios):.3f}; "
          f"tree faster in {wins} of {len(ratios)} rounds")
    cpu_ratios = [t["cpu_s"] / r["cpu_s"] for r, t in zip(rev.reps, tree.reps)]
    print(f"CPU ratio tree/{rev_name}: median "
          f"{statistics.median(cpu_ratios):.3f}; less CPU: tree in "
          f"{sum(x < 1 for x in cpu_ratios)}, {rev_name} in "
          f"{sum(x > 1 for x in cpu_ratios)} of {len(cpu_ratios)} rounds")
    differ = sorted({k for r, t in zip(rev.reps, tree.reps)
                     for k in set(r["exact"]) | set(t["exact"])
                     if r["exact"].get(k) != t["exact"].get(k)})
    print("exact records: " + (f"differ in {differ}" if differ else "equal"))
    failed = any(r["failures"] for side in sides for r in side.reps)
    return not (differ or failed)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Interleaved A/B timing of perfbench workloads: a git "
                    "revision against the working tree.")
    p.add_argument("rev", help="git revision to compare against, e.g. HEAD")
    p.add_argument("workloads", nargs="+", metavar="workload",
                   help="perfbench workload names, compared in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=12)
    args = p.parse_args(argv)
    if args.rounds < 2:
        p.error("--rounds must be >= 2")

    with tempfile.TemporaryDirectory(prefix="subtok-ab-") as tmp:
        tmp = Path(tmp)
        export(args.rev, tmp / "rev")
        ok = [compare(args.rev, tmp / "rev", workload, args.seed,
                      args.rounds, tmp) for workload in args.workloads]
    print("== all ==")
    for workload, good in zip(args.workloads, ok):
        print(f"{workload}: " + ("exact records equal, no failed check"
                                 if good else "exact records differ or a "
                                              "check failed"))
    return 0 if all(ok) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        serve(*sys.argv[2:])
    else:
        sys.exit(main())
