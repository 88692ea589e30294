"""One workload in one fresh, single-threaded Python process.

Started by ``run.py``; not meant to be run by hand.  It imports ``scl_lab``
from ``src/`` of the checkout, builds the workload's inputs from the seed,
runs the warm-up, and then the whole number of rounds of operations whose
time comes closest to ``--seconds`` (at least one round).  Every
output is checked after its round, outside the timed phase and outside
``setup_s``.  The last line on stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import scl_lab
    import scl_lab.cli  # noqa: F401  (the CLI is an entry point too)
    if not Path(scl_lab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"scl_lab imported from {scl_lab.__file__}, "
                         f"not from {src}")
    return scl_lab


class Runner:
    def __init__(self, tracer):
        self.tracer = tracer
        self.next_op = 0
        self.correct = True
        self.failed = 0
        self.attempted = 0
        self.problems: dict[str, str] = {}
        self.durations: dict[str, list[float]] = {}

    def run(self, ops) -> float:
        """Run ``ops`` back to back, then check them.  Returns the
        ``time.monotonic()`` at which the last operation ended, before any
        check ran."""
        clock = time.perf_counter
        results = []
        for op in ops:
            self.next_op += 1
            t0 = clock()
            try:
                if self.tracer is None:
                    out = op.call()
                else:
                    out = self.tracer.run_op(self.next_op, op.kind, op.call)
                    self.tracer.record_output(getattr(out, "nbytes", 0))
                ok = True
            except Exception as exc:  # a failed operation is counted, not fatal
                out, ok = exc, False
            t1 = clock()
            results.append((op, ok, out, t1 - t0))
        ended = time.monotonic()
        for op, ok, out, dt in results:
            self.attempted += 1
            self.durations.setdefault(op.kind, []).append(dt)
            if not ok:
                self.failed += 1
                self.problems.setdefault(
                    "failed " + op.kind, f"{type(out).__name__}: {out}"[:300])
                continue
            try:
                op.check(out)
            except Exception as exc:  # an output of the wrong shape is wrong
                self.correct = False
                self.problems.setdefault(
                    "wrong " + op.kind, f"{type(exc).__name__}: {exc}"[:300])
        return ended


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-file", default="")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() in the parent just before start")
    args = ap.parse_args()

    scl_lab = import_program()
    tracer = None
    if args.trace_file:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(scl_lab)
    warmup, ops = WORKLOADS[args.workload](scl_lab, args.seed)
    runner = Runner(tracer)
    # set-up ends with the last warm-up operation, before its checks
    setup_s = runner.run(warmup) - args.started
    warm_ops = set(range(1, runner.next_op + 1))
    out = {"setup_s": setup_s}
    if not args.setup_only:
        # the warm-up is not counted as attempted work
        runner.attempted = runner.failed = 0
        runner.durations = {}
        # wall_s is the timed phase, the operations only, per round.  The
        # phase is the whole number of rounds closest to --seconds (at
        # least one): another round runs only while it would end nearer
        # --seconds than stopping now does.
        timed = 0.0
        rounds = 0
        while True:
            begin = time.monotonic()
            last = runner.run(ops) - begin
            timed += last
            rounds += 1
            if timed + last / 2 >= args.seconds:
                break
        out.update(
            wall_s=timed / rounds, rounds=rounds,
            attempted=runner.attempted, failed=runner.failed,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            op_median_ms={k: round(1e3 * statistics.median(v), 3)
                          for k, v in sorted(runner.durations.items())})
        if tracer is not None:
            out["per_layer"] = tracer.layer_metrics(warm_ops, rounds)
            out["absent"] = tracer.absent_metrics()
            tracer.dump(args.trace_file)
    out["correct"] = runner.correct
    for what, detail in sorted(runner.problems.items()):
        print(f"{args.workload}: {what}: {detail}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
