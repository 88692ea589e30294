"""Command-line front end: every calculator behind one JSON-lines tool.

Each invocation prints one OutputRecord per computation on stdout as a
single JSON line with the shape {command, inputs, result, certificates,
flags}.  Exact rationals are serialized as "num/den" strings (never as
floats); real numbers are rounded to 12 significant digits.  Exit codes:
0 success, 1 failed audit, certificate or soundness check, 2 invalid input,
3 inconclusive: a search budget ran out, or no Sol decomposition profile
certifies for the matrix.  Codes 1 and 3 come from the ``SclLabError``
raised; every other ``ValueError``, and any ``OverflowError`` or
``ZeroDivisionError`` of a float calculator, is invalid input.

Every setting is a flag of the commands that read it: the search budgets
belong to ``scl`` and ``cl`` (defaults from ``scl_engine``), ``--seed`` to
``defect`` and ``audit``, and ``--config``, a file of Margulis constants,
to ``gap``; ``--table`` is on every command.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from typing import Optional

from .errors import SclLabError
from .free_words import (
    ReducedWord,
    abelianization,
    count_disjoint_copies,
    cyclically_reduce,
    enumerate_reduced_words,
    parse_word,
)
from .hyperbolic_estimates import (
    AuditError,
    CuspShape,
    GapParams,
    SurfaceData,
    SurgeryCoeffs,
    TubeParams,
    genus_bound_from_meridian,
    hk_min_core_length,
    length_gap_bound,
    nz_core_length,
    nz_quadratic_form,
    optimal_epsilon,
    scl_lower_from_tube,
    scl_upper_from_surgery,
    surgery_bound_audit,
    surgery_length_bound,
    tube_area,
    tube_qm_value,
)
from .quasimorphisms import (
    DefectCertificateError,
    brooks,
    brooks_homogeneous,
    defect_observed,
    lift_from_matrix,
    rotation_number,
)
from .scl_engine import (
    DEFAULT_MAX_GENUS,
    DEFAULT_MAX_LEN,
    DEFAULT_N_MAX,
    DEFAULT_PAIR_BUDGET,
    NotInCommutatorSubgroupError,
    cl_lower,
    cl_upper,
    scl_report,
)
from .sol_geometry import (
    AnosovMatrix,
    SolElement,
    SolMembershipError,
    commutator_certificate,
    membership_commutator_subgroup,
    membership_witness_rational,
    recursive_log_decomposition,
    sol_mul,
    sol_scl_report,
)

PROG = "scl-lab"


# ---------------------------------------------------------------------------
# serialization

def _real(x: float) -> float:
    """Round to 12 significant digits so records are stable across runs."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} cannot be written as JSON")
    return float(f"{x:.12g}")


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _sol_element(e: SolElement) -> str:
    return f"(({e.v[0]},{e.v[1]}),{e.t})"


def _sol_fiber(v) -> str:
    return f"({v[0]},{v[1]})"


def _sol_factor(x: SolElement, y: SolElement) -> list:
    left = "g" if x == SolElement((0, 0), 1) else _sol_element(x)
    right = _sol_fiber(y.v) if y.t == 0 else _sol_element(y)
    return [left, right]


def _record(command: str, inputs: dict, result, certificates=None,
            flags=None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "certificates": certificates,
        "flags": list(flags) if flags else [],
    }


def _emit(records, table: bool) -> None:
    for record in records:
        if table:
            _emit_table(record)
        else:
            print(json.dumps(record, separators=(",", ":")))


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, sub, rows)
    elif isinstance(value, list):
        rows.append((prefix, json.dumps(value, separators=(",", ":"))))
    else:
        rows.append((prefix, json.dumps(value)))


def _emit_table(record: dict) -> None:
    rows: list = []
    _flatten("", record, rows)
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")
    print()


# ---------------------------------------------------------------------------
# argument helpers

def _parse_int_list(text: str, count: int, label: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(
            f"{label} needs {count} comma-separated integers, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(
            f"{label} needs {count} comma-separated integers, got {text!r}"
        ) from None


def _parse_float_pair(text: str, label: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(
            f"{label} needs two comma-separated reals, got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ValueError(
            f"{label} needs two comma-separated reals, got {text!r}") from None


def _matrix_arg(args) -> AnosovMatrix:
    return AnosovMatrix(*_parse_int_list(args.matrix, 4, "--matrix"))


def _vector_arg(args) -> tuple[int, int]:
    v = _parse_int_list(args.vector, 2, "--vector")
    return (v[0], v[1])


def _word_arg(args, attr: str = "word") -> ReducedWord:
    return parse_word(getattr(args, attr), rank=args.rank)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (records, exit code)

def _cmd_word(args):
    word = _word_arg(args)
    core, conj = cyclically_reduce(word)
    result = {
        "canonical": str(word),
        "length": len(word),
        "rank": word.rank,
        "is_identity": word.is_identity(),
        "abelianization": list(abelianization(word)),
        "cyclic_core": str(core),
        "conjugator": str(conj),
    }
    inputs = {"word": args.word, "rank": args.rank}
    return [_record("word", inputs, result)], 0


def _cmd_brooks(args):
    pattern = _word_arg(args, "pattern")
    word = _word_arg(args)
    handle = brooks_homogeneous(pattern) if args.homogeneous else brooks(pattern)
    value = handle(word)
    result = {"name": handle.name,
              "defect_certificate": int(handle.defect_certificate)}
    if isinstance(value, Fraction):
        result["value"] = _frac(value)
        result["value_decimal"] = _real(float(value))
    else:
        result["value"] = int(value)
    inputs = {"pattern": args.pattern, "word": args.word, "rank": args.rank,
              "homogeneous": bool(args.homogeneous)}
    return [_record("brooks", inputs, result)], 0


def _cmd_defect(args):
    pattern = _word_arg(args, "pattern")
    handle = brooks_homogeneous(pattern) if args.homogeneous else brooks(pattern)
    scan = defect_observed(handle, args.length_budget,
                           samples=args.samples, seed=args.seed)
    observed = scan.observed
    result = {
        "observed": _frac(observed) if isinstance(observed, Fraction)
        else int(observed),
        "mode": scan.mode,
        "pairs_checked": scan.pairs_checked,
        "defect_certificate": int(handle.defect_certificate),
    }
    inputs = {"pattern": args.pattern, "rank": args.rank,
              "homogeneous": bool(args.homogeneous),
              "length_budget": args.length_budget,
              "samples": args.samples, "seed": args.seed}
    return [_record("defect", inputs, result)], 0


def _cmd_scl(args):
    word = _word_arg(args)
    report = scl_report(word, n_max=args.n_max, max_len=args.max_len,
                        max_genus=args.max_genus, pair_budget=args.pair_budget)
    result: dict = {"status": report.status}
    if report.lower is not None:
        result["lower"] = _frac(report.lower)
        result["lower_decimal"] = _real(float(report.lower))
    if report.upper is not None:
        result["upper"] = _frac(report.upper)
        result["upper_decimal"] = _real(float(report.upper))
    if report.lower_witness is not None:
        result["lower_witness"] = str(report.lower_witness)
    if report.power is not None:
        result["power"] = report.power
        result["power_genus"] = report.power_genus
    result["dictionary_size"] = report.dictionary_size
    certificates = None
    if report.certificate is not None:
        certificates = {
            "power": report.power,
            "pairs": [[str(u), str(v)] for u, v in report.certificate.pairs],
        }
    inputs = {"word": args.word, "rank": args.rank, "n_max": args.n_max,
              "max_len": args.max_len, "max_genus": args.max_genus,
              "pair_budget": args.pair_budget}
    code = 3 if report.status == "inconclusive" else 0
    return [_record("scl", inputs, result, certificates, report.flags)], code


def _cmd_cl(args):
    word = _word_arg(args)
    inputs = {"word": args.word, "rank": args.rank, "max_len": args.max_len,
              "max_genus": args.max_genus, "pair_budget": args.pair_budget}
    try:
        lower = cl_lower(word)
    except NotInCommutatorSubgroupError:
        result = {"in_commutator_subgroup": False, "cl": "infinity"}
        return [_record("cl", inputs, result)], 0
    cert = cl_upper(word, max_genus=args.max_genus, max_len=args.max_len,
                    pair_budget=args.pair_budget)
    result = {"in_commutator_subgroup": True, "lower": lower}
    certificates = None
    flags = []
    if cert is None:
        result["upper"] = None
        flags.append("budget-exhausted")
        code = 3
    else:
        result["upper"] = cert.genus
        certificates = {"pairs": [[str(u), str(v)] for u, v in cert.pairs]}
        code = 0
    return [_record("cl", inputs, result, certificates, flags)], code


def _cmd_rot(args):
    matrix = [float(x) for x in args.matrix.split(",")]
    if len(matrix) != 4:
        raise ValueError(
            f"--matrix needs four comma-separated reals, got {args.matrix!r}")
    lift = lift_from_matrix(matrix, branch=args.branch)
    estimate = rotation_number(lift, args.iterations)
    result = {"estimate": _real(estimate.value),
              "error_bound": _real(estimate.error_bound)}
    inputs = {"matrix": [_real(x) for x in matrix], "branch": args.branch,
              "iterations": args.iterations}
    return [_record("rot", inputs, result)], 0


def _cmd_tube(args):
    params = TubeParams(args.length, args.radius)
    qm = tube_qm_value(params)
    result = {
        "qm_value": _real(qm.value),
        "qm_defect_upper": _real(qm.defect_upper),
        "scl_lower": _real(scl_lower_from_tube(params)),
        "boundary_area": _real(tube_area(params)),
    }
    inputs = {"length": _real(args.length), "radius": _real(args.radius)}
    return [_record("tube", inputs, result)], 0


def _cmd_hk(args):
    result = {"min_core_length": _real(hk_min_core_length(args.radius))}
    inputs = {"radius": _real(args.radius)}
    return [_record("hk", inputs, result)], 0


def _cmd_surgery_a(args):
    surface = SurfaceData(args.chi, args.multiplicity)
    upper = scl_upper_from_surgery(surface, args.p)
    result = {
        "scl_upper": _frac(upper),
        "scl_upper_decimal": _real(float(upper)),
        "length_bound": _real(
            surgery_length_bound(surface, args.radius, args.p)),
    }
    inputs = {"chi": args.chi, "multiplicity": args.multiplicity,
              "radius": _real(args.radius), "p": args.p}
    return [_record("surgery-a", inputs, result)], 0


def _cmd_surgery_b(args):
    value = genus_bound_from_meridian(args.meridian_length, args.variant)
    result = {"scl_lower": _real(value), "variant": args.variant}
    inputs = {"meridian_length": _real(args.meridian_length),
              "variant": args.variant}
    return [_record("surgery-b", inputs, result)], 0


def _cmd_nz(args):
    meridian = _parse_float_pair(args.meridian, "--meridian")
    longitude = _parse_float_pair(args.longitude, "--longitude")
    cusp = CuspShape(meridian, longitude)
    slope = SurgeryCoeffs(args.p, args.q)
    result = {
        "quadratic_form": _real(nz_quadratic_form(cusp, slope)),
        "core_length": _real(nz_core_length(cusp, slope)),
    }
    inputs = {"meridian": [_real(meridian.real), _real(meridian.imag)],
              "longitude": [_real(longitude.real), _real(longitude.imag)],
              "p": args.p, "q": args.q}
    return [_record("nz", inputs, result, flags=["approximate"])], 0


# placeholder, non-normative: a frequently quoted working value for the
# 3-dimensional Margulis constant, supplied only so the gap calculator has
# something to check against by default; override via --config for real use
DEFAULT_MARGULIS_CONSTANTS = {3: 0.29}


def _margulis_constants(path: Optional[str]) -> dict[int, float]:
    """Read ``{"margulis_constants": {"<dim>": value}}`` from a JSON file;
    a file without the key, or no file, gives the shipped default."""
    if path is None:
        return DEFAULT_MARGULIS_CONSTANTS
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must be a JSON object")
    known = {"margulis_constants"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(
            f"unknown config keys {sorted(unknown)}; known keys are {sorted(known)}")
    if "margulis_constants" not in raw:
        return DEFAULT_MARGULIS_CONSTANTS
    table = raw["margulis_constants"]
    if not isinstance(table, dict):
        raise ValueError("margulis_constants must be an object of dimension: value")
    parsed = {}
    for key, value in table.items():
        try:
            dim = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"margulis dimension {key!r} is not an integer") from None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"margulis constant for n={dim} must be a number")
        parsed[dim] = float(value)
    for dim, eps in parsed.items():
        if dim < 2:
            raise ValueError(f"margulis dimension must be an integer >= 2, got {dim!r}")
        if not eps > 0:
            raise ValueError(f"margulis constant for n={dim} must be positive, got {eps}")
    return parsed


def _cmd_gap(args):
    constants = _margulis_constants(args.config)
    if args.optimal:
        if args.cap is None:
            raise ValueError("--optimal needs --cap")
        eps = optimal_epsilon(args.cap)
        result = {"epsilon": _real(eps.epsilon),
                  "min_constant": _real(eps.min_constant)}
        inputs = {"optimal": True, "cap": _real(args.cap)}
        return [_record("gap", inputs, result)], 0
    if args.m is None or args.genus is None or args.epsilon is None:
        raise ValueError("gap needs --m, --genus and --epsilon (or --optimal)")
    margulis = constants.get(args.dim)
    params = GapParams(args.m, args.genus, args.epsilon, margulis)
    value = length_gap_bound(params, args.variant)
    result = {"length_gap": _real(value), "variant": args.variant}
    flags = []
    if margulis is None:
        flags.append("margulis-unchecked")
    else:
        result["margulis_constant"] = _real(margulis)
    inputs = {"m": args.m, "genus": args.genus,
              "epsilon": _real(args.epsilon), "variant": args.variant,
              "dim": args.dim}
    return [_record("gap", inputs, result, flags=flags)], 0


# ---------------------------------------------------------------------------
# sol subcommands

def _cmd_sol_member(args):
    A = _matrix_arg(args)
    vec = _vector_arg(args)
    u = membership_commutator_subgroup(A, vec)
    result: dict = {"member": u is not None}
    if u is not None:
        result["u"] = _sol_fiber(u)
    else:
        w0, w1 = membership_witness_rational(A, vec)
        result["witness_rational"] = [_frac(w0), _frac(w1)]
    inputs = {"matrix": list(A.flat), "vector": list(vec)}
    return [_record("sol member", inputs, result)], 0


def _cmd_sol_cert(args):
    A = _matrix_arg(args)
    vec = _vector_arg(args)
    inputs = {"matrix": list(A.flat), "vector": list(vec)}
    try:
        cert = commutator_certificate(A, vec)
    except SolMembershipError:
        w0, w1 = membership_witness_rational(A, vec)
        result = {"member": False,
                  "witness_rational": [_frac(w0), _frac(w1)]}
        return [_record("sol cert", inputs, result)], 0
    result = {"member": True, "verified": True,
              "factor_count": cert.factor_count,
              "target": _sol_element(cert.target)}
    certificates = [_sol_factor(x, y) for x, y in cert.factors]
    return [_record("sol cert", inputs, result, certificates)], 0


def _cmd_sol_decompose(args):
    A = _matrix_arg(args)
    vec = _vector_arg(args)
    outcome = recursive_log_decomposition(A, vec)
    trace = outcome.trace
    result = {
        "verified": True,
        "factor_count": trace.factor_count,
        "levels": len(trace.levels),
        "target": _sol_element(outcome.expression.target),
        "constants": {key: (_real(val) if isinstance(val, float) else val)
                      for key, val in trace.constants.items()},
    }
    certificates = [_sol_factor(x, y) for x, y in outcome.expression.factors]
    inputs = {"matrix": list(A.flat), "vector": list(vec)}
    return [_record("sol decompose", inputs, result, certificates)], 0


def _cmd_sol_report(args):
    A = _matrix_arg(args)
    vec = _vector_arg(args)
    report = sol_scl_report(A, vec)
    result: dict = {"member": report.member}
    certificates = None
    if report.member:
        result["scl"] = _frac(report.scl)
        certificates = [_sol_factor(x, y)
                        for x, y in report.certificate.factors]
    else:
        result["scl"] = "infinity"
        w0, w1 = report.witness_rational
        result["witness_rational"] = [_frac(w0), _frac(w1)]
    inputs = {"matrix": list(A.flat), "vector": list(vec)}
    return [_record("sol report", inputs, result, certificates)], 0


def _cmd_sol_mul(args):
    A = _matrix_arg(args)
    x = _parse_int_list(args.x, 3, "--x")
    y = _parse_int_list(args.y, 3, "--y")
    product = sol_mul(A, SolElement((x[0], x[1]), x[2]),
                      SolElement((y[0], y[1]), y[2]))
    result = {"product": _sol_element(product)}
    inputs = {"matrix": list(A.flat), "x": x, "y": y}
    return [_record("sol mul", inputs, result)], 0


# ---------------------------------------------------------------------------
# audit

def _occurrences(word: ReducedWord, pattern: ReducedWord) -> list[int]:
    n, k = len(word), len(pattern)
    return [i for i in range(n - k + 1)
            if word.codes[i:i + k] == pattern.codes]


def _brute_max_disjoint(starts: list[int], length: int) -> int:
    def best(idx: int, free_from: int) -> int:
        if idx == len(starts):
            return 0
        result = best(idx + 1, free_from)
        if starts[idx] >= free_from:
            result = max(result, 1 + best(idx + 1, starts[idx] + length))
        return result

    return best(0, 0)


def _audit_checks(args):
    grid = ([float(x) for x in args.grid.split(",")] if args.grid
            else [2.0 + 8.0 * i / 1000.0 for i in range(1, 1001)])

    def surgery_check():
        report = surgery_bound_audit(grid)
        margins = {name: {"min_margin": _real(margin), "at": _real(at)}
                   for name, (margin, at) in sorted(report.margins.items())}
        return {"grid_size": report.grid_size, "margins": margins}

    def nz_check():
        rng = random.Random(args.seed)
        worst = 0.0
        for _ in range(10):
            r = rng.uniform(0.7, 1.5)
            theta = rng.uniform(0, 2 * math.pi)
            shear = rng.uniform(-0.5, 0.5)
            meridian = r * complex(math.cos(theta), math.sin(theta))
            longitude = shear * meridian + complex(0, 1) * meridian / r ** 2
            cusp = CuspShape(meridian, longitude)
            approx = nz_core_length(cusp, SurgeryCoeffs(1000, 1))
            truth = 2 * math.pi / abs(meridian) ** 2
            rel = abs(1000 ** 2 * approx - truth) / truth
            worst = max(worst, rel)
        if worst >= 0.01:
            raise AuditError(
                f"filled-core limit off by {worst:.4%} at p=1000")
        return {"cusps": 10, "p": 1000, "worst_relative_error": _real(worst)}

    def defect_check():
        worst = 0
        for text in ("ab", "abAB"):
            handle = brooks(parse_word(text, rank=2))
            scan = defect_observed(handle, 3, seed=args.seed)
            worst = max(worst, scan.observed)
        return {"length_budget": 3, "observed_max": int(worst),
                "certificate": 3}

    def counting_check():
        patterns = [p for p in enumerate_reduced_words(2, 3, min_len=2)]
        mismatches = 0
        pairs = 0
        for word in enumerate_reduced_words(2, 6, min_len=2):
            for pattern in patterns:
                pairs += 1
                greedy = count_disjoint_copies(pattern, word)
                starts = _occurrences(word, pattern)
                if greedy != _brute_max_disjoint(starts, len(pattern)):
                    mismatches += 1
        if mismatches:
            raise AuditError(f"{mismatches} greedy/brute-force mismatches")
        return {"pairs": pairs, "mismatches": 0}

    return [("surgery-inequalities", surgery_check),
            ("filled-core-limit", nz_check),
            ("brooks-defect", defect_check),
            ("greedy-counting", counting_check)]


def _cmd_audit(args):
    records = []
    failed = False
    inputs = {"grid": args.grid, "seed": args.seed}
    for name, check in _audit_checks(args):
        try:
            detail = check()
            result = {"check": name, "passed": True, **detail}
        except (AuditError, DefectCertificateError) as exc:
            failed = True
            result = {"check": name, "passed": False, "reason": str(exc)}
        records.append(_record("audit", inputs, result))
    return records, (1 if failed else 0)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", action="store_true",
                        help="human-readable table output instead of JSON")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for randomized scans (default 0)")
    budgets = argparse.ArgumentParser(add_help=False)
    budgets.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)
    budgets.add_argument("--max-genus", type=int, default=DEFAULT_MAX_GENUS)
    budgets.add_argument("--pair-budget", type=int,
                         default=DEFAULT_PAIR_BUDGET)

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Certified commutator-length bounds and hyperbolic "
                    "geometry estimates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("word", parents=[common],
                       help="parse and normalize a free-group word")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int, default=2)
    p.set_defaults(handler=_cmd_word)

    p = sub.add_parser("brooks", parents=[common],
                       help="evaluate a Brooks counting quasimorphism")
    p.add_argument("--pattern", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--homogeneous", action="store_true")
    p.set_defaults(handler=_cmd_brooks)

    p = sub.add_parser("defect", parents=[common, seeded],
                       help="scan for the observed defect of a quasimorphism")
    p.add_argument("--pattern", required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--length-budget", type=int, default=4)
    p.add_argument("--samples", type=int, default=200_000)
    p.set_defaults(handler=_cmd_defect)

    p = sub.add_parser("scl", parents=[common, budgets],
                       help="two-sided certified scl bounds")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p.set_defaults(handler=_cmd_scl)

    p = sub.add_parser("cl", parents=[common, budgets],
                       help="commutator length bounds with certificates")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int, default=2)
    p.set_defaults(handler=_cmd_cl)

    p = sub.add_parser("rot", parents=[common],
                       help="rotation number of a circle map lift")
    p.add_argument("--matrix", required=True,
                   help="four comma-separated reals, row-major, det 1")
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--iterations", type=int, default=300)
    p.set_defaults(handler=_cmd_rot)

    p = sub.add_parser("tube", parents=[common],
                       help="tube quasimorphism value and scl lower bound")
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.set_defaults(handler=_cmd_tube)

    p = sub.add_parser("hk", parents=[common],
                       help="minimum core length for an embedded tube")
    p.add_argument("--radius", type=float, required=True)
    p.set_defaults(handler=_cmd_hk)

    p = sub.add_parser("surgery-a", parents=[common],
                       help="filled-core length bound and scl upper bound")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--multiplicity", type=int, default=1)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(handler=_cmd_surgery_a)

    p = sub.add_parser("surgery-b", parents=[common],
                       help="scl lower bound from the meridian length")
    p.add_argument("--meridian-length", type=float, required=True)
    p.add_argument("--variant", choices=("basic", "boroczky"),
                   default="basic")
    p.set_defaults(handler=_cmd_surgery_b)

    p = sub.add_parser("nz", parents=[common],
                       help="cusp quadratic form and filled-core length")
    p.add_argument("--meridian", required=True,
                   help="two comma-separated reals (re,im)")
    p.add_argument("--longitude", required=True,
                   help="two comma-separated reals (re,im)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(handler=_cmd_nz)

    p = sub.add_parser("gap", parents=[common],
                       help="length gap bound or its optimal thin-part scale")
    p.add_argument("--m", type=int)
    p.add_argument("--genus", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--variant", choices=("universal", "closed"),
                   default="universal")
    p.add_argument("--dim", type=int,
                   help="check 4*epsilon against the configured Margulis "
                        "constant for this dimension")
    p.add_argument("--optimal", action="store_true")
    p.add_argument("--cap", type=float)
    p.add_argument("--config", metavar="PATH",
                   help='JSON file {"margulis_constants": {"<dim>": value}} '
                        "replacing the shipped placeholder {3: 0.29}")
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("sol",
                       help="Sol-lattice arithmetic and scl-zero certificates")
    sol_sub = p.add_subparsers(dest="sol_command", required=True)
    for name, handler in (
            ("member", _cmd_sol_member),
            ("cert", _cmd_sol_cert),
            ("decompose", _cmd_sol_decompose),
            ("report", _cmd_sol_report),
            ("mul", _cmd_sol_mul)):
        q = sol_sub.add_parser(name, parents=[common])
        q.add_argument("--matrix", required=True,
                       help="four comma-separated integers, row-major")
        if name == "mul":
            q.add_argument("--x", required=True,
                           help="three comma-separated integers vx,vy,t")
            q.add_argument("--y", required=True,
                           help="three comma-separated integers vx,vy,t")
        else:
            q.add_argument("--vector", required=True,
                           help="two comma-separated integers")
        q.set_defaults(handler=handler)

    p = sub.add_parser("audit", parents=[common, seeded],
                       help="run the built-in soundness checks")
    p.add_argument("--grid", help="comma-separated tube radii > 2 for the "
                                  "surgery inequality audit")
    p.set_defaults(handler=_cmd_audit)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        records, code = args.handler(args)
    except SclLabError as exc:
        print(f"{PROG}: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    _emit(records, args.table)
    return code


if __name__ == "__main__":
    sys.exit(main())
