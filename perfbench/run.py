"""Entry point of the subtok benchmark. Runs one workload in a fresh child
process and prints its metrics:

    python3 perfbench/run.py --workload train-200k --seed 1 --seconds 30 \
        --trace 0

With --trace 0 it reports BENCHMARK.json's end_to_end metrics, measured with
no tracing; with --trace 1 its per_layer metrics, from repetitions run with
the tracer installed. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. A full record of the
run (machine info, every repetition, table fingerprints, failed checks) is
written to .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-200k", "segment-zipf19k", "simulate-grid")
# one BLAS thread: the program's own threads are the only parallelism
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_timeout(seconds: int) -> int:
    """Seconds the child may take. Besides the measured --seconds, a run
    spends time on set-up, on a repetition that overshoots, and in a traced
    run on one untraced repetition and the Hogwild training; twice the
    measured time plus 110 s covers these. At 30 s this is 170 s, so a run
    ends within 180 s."""
    return max(170, 110 + 2 * seconds)


def end_group(proc: subprocess.Popen) -> None:
    """Kill what is left of the child's process group and wait until it has
    ended. The samplers are the child's children, so after the child is
    reaped only their exit can be waited for, by polling."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not ((ROOT / "src" / "subtok" / "__init__.py").is_file()
            and spec_path.is_file()):
        print(f"perfbench: {ROOT} is not a subtok checkout "
              "(needs src/subtok/ and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"]
             for m in spec["per_layer" if args.trace else "end_to_end"]]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    record_path = work / "record.json"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--record", str(record_path)]
    try:
        timeout = child_timeout(args.seconds)
        # its own process group, so that the samplers it starts end with it
        proc = subprocess.Popen(cmd, env={**os.environ, **PINNED_ENV},
                                start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {tag} did not finish in {timeout} s",
                  file=sys.stderr)
            return 1
        finally:
            end_group(proc)
        if proc.returncode != 0:
            print(f"perfbench: {tag} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        record = json.loads(record_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = record["metrics"]
    if set(metrics) != set(names):
        print("perfbench: metrics do not match BENCHMARK.json: missing "
              f"{sorted(set(names) - set(metrics))}, extra "
              f"{sorted(set(metrics) - set(names))}", file=sys.stderr)
        return 1
    failed = len(record["failures"])
    result = {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names},
    }
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{tag}.json").write_text(
        json.dumps({**record, "result": result}, indent=1), encoding="utf-8")

    for msg in record["failures"]:
        print(f"check failed: {msg}")
    shown = dict(metrics)
    if not args.trace:
        shown.update(record["extras"])
    for name, value in shown.items():
        print(f"{name} = {value} {units.get(name, '')}".rstrip())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
