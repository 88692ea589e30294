"""Spans around the layers of ``scl_lab``, recorded from outside the package.

``Tracer.install`` replaces selected module-level functions (and the
verification hook of Sol certificates) with wrappers that record a span per
call: operation id, span id, parent span id, name, start, end and a small
result summary.  The replacement happens in every ``scl_lab`` module that
binds the function, so calls through ``from .free_words import ...`` copies
are seen too.  Nothing under ``src/`` is edited.

Spans stay in memory and are written out once, at the end of the run.  A
name that no longer exists in the package is skipped and its metrics are
reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _count_keys(result):
    return len(result[0])


def _genus2_outcome(result):
    return "miss" if result is None else "hit"


def _decomposition_size(result):
    return [len(result.trace.levels), result.trace.factor_count]


#: (defining module, attribute, span name, result summary)
TARGETS = [
    ("free_words", "_least_rotation", "free_words.least_rotation", None),
    ("free_words", "cyclically_reduce", "free_words.cyclically_reduce", None),
    ("free_words", "count_disjoint_copies_cyclic", "free_words.cyclic_count",
     None),
    ("quasimorphisms", "brooks_homogeneous_exact",
     "quasimorphisms.brooks_homogeneous", None),
    ("scl_engine", "scl_lower_bavard", "scl_engine.bavard", None),
    ("scl_engine", "default_brooks_dictionary", "scl_engine.dictionary", len),
    ("scl_engine", "cl_lower", "scl_engine.cl_lower", None),
    ("scl_engine", "cl_upper", "scl_engine.cl_upper", None),
    ("scl_engine", "_commutator_value_index", "scl_engine.index",
     _count_keys),
    ("scl_engine", "_genus_one_search", "scl_engine.genus1", None),
    ("scl_engine", "_genus_two_search", "scl_engine.genus2", _genus2_outcome),
    ("sol_geometry", "_decomposition_profile", "sol_geometry.profile", None),
    ("sol_geometry", "recursive_log_decomposition", "sol_geometry.decompose",
     _decomposition_size),
    ("sol_geometry", "commutator_certificate", "sol_geometry.certificate",
     None),
    ("sol_geometry", "sol_scl_report", "sol_geometry.report", None),
    ("sol_geometry", "SolCommutatorExpression.__post_init__",
     "sol_geometry.verify", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "_emit", "cli.emit", None),
]

#: span name of the bytes the CLI printed, recorded by the benchmark itself
OUTPUT_SPAN = "cli.output"

SELF_S, CALLS, SUM_INFO, MAX_INFO, RAISED = range(5)

#: per-layer metric -> (unit, span name, how it is derived, filter/selector)
METRICS = {
    "free_words.least_rotation_s": ("s", "free_words.least_rotation", SELF_S, None),
    "free_words.least_rotation_calls": ("count", "free_words.least_rotation", CALLS, None),
    "free_words.cyclically_reduce_calls": ("count", "free_words.cyclically_reduce", CALLS, None),
    "free_words.cyclic_count_s": ("s", "free_words.cyclic_count", SELF_S, None),
    "free_words.cyclic_count_calls": ("count", "free_words.cyclic_count", CALLS, None),
    "quasimorphisms.brooks_homogeneous_s": ("s", "quasimorphisms.brooks_homogeneous", SELF_S, None),
    "quasimorphisms.brooks_homogeneous_calls": ("count", "quasimorphisms.brooks_homogeneous", CALLS, None),
    "scl_engine.bavard_s": ("s", "scl_engine.bavard", SELF_S, None),
    "scl_engine.dictionary_patterns": ("count", "scl_engine.dictionary", SUM_INFO, None),
    "scl_engine.index_build_s": ("s", "scl_engine.index", SELF_S, None),
    "scl_engine.index_keys": ("count", "scl_engine.index", MAX_INFO, None),
    "scl_engine.genus1_s": ("s", "scl_engine.genus1", SELF_S, None),
    "scl_engine.genus1_calls": ("count", "scl_engine.genus1", CALLS, None),
    "scl_engine.genus2_hit_s": ("s", "scl_engine.genus2", SELF_S, "hit"),
    "scl_engine.genus2_miss_s": ("s", "scl_engine.genus2", SELF_S, "miss"),
    "scl_engine.genus2_calls": ("count", "scl_engine.genus2", CALLS, None),
    "sol_geometry.profile_s": ("s", "sol_geometry.profile", SELF_S, None),
    "sol_geometry.decompose_s": ("s", "sol_geometry.decompose", SELF_S, None),
    "sol_geometry.decompose_levels": ("count", "sol_geometry.decompose", SUM_INFO, 0),
    "sol_geometry.decompose_factors": ("count", "sol_geometry.decompose", SUM_INFO, 1),
    "sol_geometry.decompose_raised": ("count", "sol_geometry.decompose", RAISED, None),
    "sol_geometry.verify_s": ("s", "sol_geometry.verify", SELF_S, None),
    "cli.build_parser_s": ("s", "cli.build_parser", SELF_S, None),
    "cli.emit_s": ("s", "cli.emit", SELF_S, None),
    "cli.output_bytes": ("bytes", OUTPUT_SPAN, SUM_INFO, None),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self.absent: list[str] = []
        self._stack = [0]
        self._next = 0

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name, summary):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next += 1
            sid = self._next
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((self.op, sid, parent, name, start, end,
                              "raised:" + type(exc).__name__))
                raise
            end = clock()
            stack.pop()
            spans.append((self.op, sid, parent, name, start, end,
                          summary(result) if summary else None))
            return result

        return traced

    def run_op(self, op_id: int, kind: str, call):
        """Run one benchmark operation under a root span ``op.<kind>``."""
        self.op = op_id
        return self._wrap(call, "op." + kind, None)()

    def record_output(self, nbytes: int) -> None:
        """A zero-length span carrying the bytes the operation printed."""
        now = time.perf_counter()
        self._next += 1
        self.spans.append((self.op, self._next, self._stack[-1], OUTPUT_SPAN,
                           now, now, nbytes))

    def install(self, package) -> None:
        """Wrap every target in every loaded module of ``package``."""
        prefix = package.__name__ + "."
        modules = [package] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith(prefix) and m is not None]
        for mod_name, attr, span, summary in TARGETS:
            home = sys.modules.get(prefix + mod_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, member, None) if owner else None
            if original is None:
                self.absent.append(span)
                continue
            wrapped = self._wrap(original, span, summary)
            if owner_name:
                setattr(owner, member, wrapped)
                continue
            for mod in modules:
                if getattr(mod, member, None) is original:
                    setattr(mod, member, wrapped)

    # -- reporting --------------------------------------------------------

    def dump(self, path) -> None:
        keys = ("op", "id", "parent", "name", "start", "end", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, warmup_ops: set, rounds: int) -> dict:
        """Per-layer metrics for one pass: the warm-up plus one round.

        Every round runs the same operations, so timed spans are divided by
        the number of rounds; counts then come out as exact integers.
        """
        child_time: dict[int, float] = defaultdict(float)
        for op, sid, parent, name, start, end, info in self.spans:
            child_time[parent] += end - start
        by_span: dict[str, list] = defaultdict(list)
        for metric, (unit, span, how, select) in METRICS.items():
            if span not in self.absent:
                by_span[span].append((metric, how, select))
        totals = {metric: 0.0 for wanted in by_span.values()
                  for metric, _, _ in wanted}
        for op, sid, parent, name, start, end, info in self.spans:
            weight = 1.0 if op in warmup_ops else 1.0 / rounds
            for metric, how, select in by_span.get(name, ()):
                if how == SELF_S:
                    if select is None or info == select:
                        totals[metric] += weight * (end - start - child_time[sid])
                elif how == CALLS:
                    totals[metric] += weight
                elif how == RAISED:
                    if isinstance(info, str) and info.startswith("raised:"):
                        totals[metric] += weight
                elif how == MAX_INFO:
                    if isinstance(info, int):
                        totals[metric] = max(totals[metric], info)
                elif isinstance(info, (int, list)):
                    totals[metric] += weight * (info if select is None
                                                else info[select])
        out = {}
        for metric, value in totals.items():
            unit = METRICS[metric][0]
            if unit != "s":
                value = int(round(value)) if abs(value - round(value)) < 1e-6 else value
            out[metric] = {"value": value, "unit": unit}
        return out

    def absent_metrics(self) -> list[str]:
        gone = set(self.absent)
        return [m for m, spec in METRICS.items() if spec[1] in gone]
