"""Benchmark of scl-lab: one workload per call, one JSON line of metrics.

    python3 bench/run.py --workload search|bavard|sol --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``scl_lab`` from ``src/``
and needs nothing outside the standard library.  Each workload runs in its
own fresh Python process (``worker.py``).

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: the time the run's operations took, from the first operation
  of each round to its last, summed over the rounds and divided by their
  number.  A run times the whole number of rounds that comes closest to
  ``--seconds``, at least one: at ``--seconds 30`` that is one ``search``
  round, two ``bavard`` rounds and some 20 to 25 ``sol`` rounds;
* ``setup_s``: median over 11 fresh processes (on ``search``, the one
  measured process, whose set-up builds the index) of the time from
  starting the process to the end of its last warm-up operation
  (interpreter start, import, input generation and warm-up; the checks of
  the warm-up outputs come after it);
* ``peak_rss_mb``: peak resident set size of the measured process.

``--trace 1`` runs the workload once with spans around the layers of
``scl_lab`` and once without, and reports the per-layer metrics for one
pass (warm-up plus one round) and the tracing overhead on ``wall_s``.

The last line on stdout is the result object; the same object and, for
``--trace 1``, the spans are written under ``.bench_out/``.  The exit code
is not 0 when a worker cannot run, for instance without ``src/scl_lab``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("search", "bavard", "sol")
#: fresh processes whose set-up time is measured; one of them also runs
#: the timed rounds.  A search set-up builds the 1.85M-key genus-2 index
#: (15 to 22 s, itself an aggregate of many steps), so it is measured once,
#: in the process that runs the rounds; the others take about 0.2 s and
#: are repeated, because such short times vary much from process to process.
SETUP_REPEATS = {"search": 1, "bavard": 11, "sol": 11}
#: the whole run must end within this many seconds
DEADLINE_S = 175.0


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, *, setup_only=False, trace_file=""):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for another worker")
    cmd += ["--started", repr(time.monotonic())]
    # a fixed hash seed gives every worker the same set and dict layouts,
    # so that runs differ only by their inputs and by the machine
    env = dict(os.environ, PYTHONHASHSEED="0")
    # subprocess.run kills and reaps the worker when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, env=env)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, deadline: float) -> dict:
    # the set-up-only processes go half before and half after the measured
    # one, so that they sample the machine over the whole run
    extra = SETUP_REPEATS[args.workload] - 1
    before = [spawn(args, deadline, setup_only=True)
              for _ in range(extra // 2)]
    main = spawn(args, deadline)
    after = [spawn(args, deadline, setup_only=True)
             for _ in range(extra - extra // 2)]
    runs = before + [main] + after
    print(f"{args.workload}: rounds {main['rounds']}, per-op median ms "
          f"{json.dumps(main['op_median_ms'])}", file=sys.stderr)
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {
            "wall_s": {"value": main["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in runs),
                        "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        },
    }


def trace(args, deadline: float) -> dict:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    traced = spawn(args, deadline, trace_file=str(spans))
    plain = spawn(args, deadline)
    for name in traced["absent"]:
        print(f"{args.workload}: per-layer metric {name} is absent",
              file=sys.stderr)
    metrics = dict(traced["per_layer"])
    metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0),
        "unit": "%"}
    return {
        "correct": traced["correct"] and plain["correct"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "scl_lab" / "__init__.py").is_file():
        print(f"run.py: no scl_lab package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        result = trace(args, deadline) if args.trace else measure(args, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
