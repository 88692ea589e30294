"""Command-line front end: every calculator behind one JSON-lines tool.

Each invocation prints one OutputRecord per computation on stdout as a
single JSON line with the shape {command, inputs, result, certificates,
flags}.  ``inputs`` holds the flags the command read, in ``--help`` order,
after parsing: comma lists become JSON arrays (a count that is off says
``needs N comma-separated integers`` or ``reals``, a bad entry
``entry i '...' is not a number`` or ``an integer``), and ``gap`` records
only the flags of its mode.  Exact rationals are serialized as "num/den"
strings (never as floats); real numbers, in inputs and results, are
rounded to 12 significant digits.  Exit codes: 0 success, 1 failed audit,
certificate or soundness check, 2 invalid input, 3 inconclusive: a search
budget ran out, or no Sol decomposition profile certifies for the matrix.
Codes 1 and 3 come from the ``SclLabError`` raised; every other
``ValueError``, and any ``OverflowError`` or ``ZeroDivisionError`` of a
float calculator, is invalid input; the latter two name every flag of
reals the command was given.

Every setting is a flag of the commands that read it: the search budgets
belong to ``scl`` and ``cl`` (defaults from ``scl_engine``), ``--seed`` to
``defect`` and ``audit``, and ``--margulis``, the ambient Margulis
constant, to ``gap``; ``--table`` is on every command.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Optional

from .errors import AuditError, SclLabError, SearchBudgetError
from .free_words import (
    ReducedWord,
    abelianization,
    cyclically_reduce,
    parse_word,
)
from .hyperbolic_estimates import (
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
    BROOKS_DEFECT,
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
)

PROG = "scl-lab"


# ---------------------------------------------------------------------------
# serialization

def _real(x: float) -> float:
    """Round to 12 significant digits so records are stable across runs."""
    if not math.isfinite(x):
        raise OverflowError(f"non-finite value {x} cannot be written as JSON")
    return float(f"{x:.12g}")


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _sol_element(e: SolElement) -> str:
    return f"(({e.v[0]},{e.v[1]}),{e.t})"


def _sol_fiber(v) -> str:
    return f"({v[0]},{v[1]})"


def _sol_factor(x: SolElement, y: SolElement) -> list:
    left = "g" if x.t == 1 and x.v == (0, 0) else _sol_element(x)
    right = _sol_fiber(y.v) if y.t == 0 else _sol_element(y)
    return [left, right]


#: namespace entries that no command reads: its names, the output mode and
#: the handler
_NOT_INPUTS = ("command", "sol_command", "table", "handler")


def _input(value):
    if isinstance(value, list):
        return [_input(x) for x in value]
    return _real(value) if isinstance(value, float) else value


def _record(args, result, certificates=None, flags=None) -> dict:
    """The output record of one computation of the command parsed into
    ``args``: its ``inputs`` are the flags the command read."""
    command = args.command
    if command == "sol":
        command += " " + args.sol_command
    return {
        "command": command,
        "inputs": {name: _input(value) for name, value in vars(args).items()
                   if name not in _NOT_INPUTS},
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

def _list_arg(args, name: str, count: int, kind: type = int,
              finite: bool = False) -> list:
    """Parse the comma list of ``--name`` into ``count`` numbers of
    ``kind`` (``int`` or ``float``), store them back in ``args`` and
    return them; ``finite`` rejects nan and infinities too."""
    flag, text = "--" + name, getattr(args, name)
    entries = text.split(",")
    if len(entries) != count:
        noun = "integers" if kind is int else "reals"
        raise ValueError(
            f"{flag} needs {count} comma-separated {noun}, got {text!r}")
    values = []
    for i, entry in enumerate(entries, 1):
        try:
            values.append(kind(entry))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{flag} entry {i} {entry.strip()!r} "
                             f"is not {noun}") from None
        if finite and not math.isfinite(values[-1]):
            raise ValueError(f"{flag} entry {entry.strip()!r} is not finite")
    setattr(args, name, values)
    return values


def _sol_args(args) -> tuple[AnosovMatrix, tuple[int, int]]:
    """The matrix and the fiber vector of a sol command."""
    A = AnosovMatrix(*_list_arg(args, "matrix", 4))
    return A, tuple(_list_arg(args, "vector", 2))


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
    return [_record(args, result)], 0


def _cmd_brooks(args):
    pattern = _word_arg(args, "pattern")
    word = _word_arg(args)
    handle = brooks_homogeneous(pattern) if args.homogeneous else brooks(pattern)
    value = handle(word)
    result = {"name": handle.name,
              "defect_certificate": handle.defect_certificate}
    if isinstance(value, Fraction):
        result["value"] = _frac(value)
        result["value_decimal"] = _real(float(value))
    else:
        result["value"] = value
    return [_record(args, result)], 0


def _cmd_defect(args):
    pattern = _word_arg(args, "pattern")
    handle = brooks_homogeneous(pattern) if args.homogeneous else brooks(pattern)
    scan = defect_observed(handle, args.length_budget,
                           samples=args.samples, seed=args.seed)
    observed = scan.observed
    result = {
        "observed": _frac(observed) if isinstance(observed, Fraction)
        else observed,
        "mode": scan.mode,
        "pairs_checked": scan.pairs_checked,
        "defect_certificate": handle.defect_certificate,
    }
    return [_record(args, result)], 0


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
    code = (SearchBudgetError.exit_code if report.status == "inconclusive"
            else 0)
    return [_record(args, result, certificates, report.flags)], code


def _cmd_cl(args):
    word = _word_arg(args)
    try:
        # cl_upper checks the budgets before it looks at the word
        cert = cl_upper(word, max_genus=args.max_genus, max_len=args.max_len,
                        pair_budget=args.pair_budget)
    except NotInCommutatorSubgroupError:
        result = {"in_commutator_subgroup": False, "cl": "infinity"}
        return [_record(args, result)], 0
    result = {"in_commutator_subgroup": True, "lower": cl_lower(word)}
    certificates = None
    flags = []
    if cert is None:
        result["upper"] = None
        flags.append("budget-exhausted")
        code = SearchBudgetError.exit_code
    else:
        result["upper"] = cert.genus
        certificates = {"pairs": [[str(u), str(v)] for u, v in cert.pairs]}
        code = 0
    return [_record(args, result, certificates, flags)], code


def _cmd_rot(args):
    matrix = _list_arg(args, "matrix", 4, float, finite=True)
    lift = lift_from_matrix(matrix, branch=args.branch)
    estimate = rotation_number(lift, args.iterations)
    result = {"estimate": _real(estimate.value),
              "error_bound": _real(estimate.error_bound)}
    return [_record(args, result)], 0


def _cmd_tube(args):
    params = TubeParams(args.length, args.radius)
    qm = tube_qm_value(params)
    result = {
        "qm_value": _real(qm.value),
        "qm_defect_upper": _real(qm.defect_upper),
        "scl_lower": _real(scl_lower_from_tube(params)),
        "boundary_area": _real(tube_area(params)),
    }
    return [_record(args, result)], 0


def _cmd_hk(args):
    result = {"min_core_length": _real(hk_min_core_length(args.radius))}
    return [_record(args, result)], 0


def _cmd_surgery_a(args):
    surface = SurfaceData(args.chi, args.multiplicity)
    upper = scl_upper_from_surgery(surface, args.p)
    result = {
        "scl_upper": _frac(upper),
        "scl_upper_decimal": _real(float(upper)),
        "length_bound": _real(
            surgery_length_bound(surface, args.radius, args.p)),
    }
    return [_record(args, result)], 0


def _cmd_surgery_b(args):
    value = genus_bound_from_meridian(args.meridian_length, args.variant)
    result = {"scl_lower": _real(value), "variant": args.variant}
    return [_record(args, result)], 0


def _cmd_nz(args):
    cusp = CuspShape(complex(*_list_arg(args, "meridian", 2, float)),
                     complex(*_list_arg(args, "longitude", 2, float)))
    slope = SurgeryCoeffs(args.p, args.q)
    result = {
        "quadratic_form": _real(nz_quadratic_form(cusp, slope)),
        "core_length": _real(nz_core_length(cusp, slope)),
    }
    return [_record(args, result, flags=["approximate"])], 0


#: the flags of the gap formula, which --optimal does not read
_GAP_FORMULA_FLAGS = ("m", "genus", "epsilon", "variant", "margulis")


def _cmd_gap(args):
    """``gap`` in one of two modes, each recording only the flags it
    reads: the formula, or ``--optimal`` with ``--cap``."""
    if args.optimal:
        unused = [name for name in _GAP_FORMULA_FLAGS
                  if getattr(args, name) is not None]
        if unused:
            raise ValueError("--optimal takes only --cap, not "
                             + ", ".join("--" + name for name in unused))
        if args.cap is None:
            raise ValueError("--optimal needs --cap")
        for name in _GAP_FORMULA_FLAGS:
            delattr(args, name)
        eps = optimal_epsilon(args.cap)
        result = {"epsilon": _real(eps.epsilon),
                  "min_constant": _real(eps.min_constant)}
        return [_record(args, result)], 0
    if args.m is None or args.genus is None or args.epsilon is None:
        raise ValueError("gap needs --m, --genus and --epsilon (or --optimal)")
    if args.cap is not None:
        raise ValueError("--cap needs --optimal")
    del args.optimal, args.cap
    args.variant = args.variant or "universal"
    params = GapParams(args.m, args.genus, args.epsilon, args.margulis)
    value = length_gap_bound(params, args.variant)
    result = {"length_gap": _real(value), "variant": args.variant}
    flags = []
    if args.margulis is None:
        flags.append("margulis-unchecked")
    else:
        result["margulis_constant"] = _real(args.margulis)
    return [_record(args, result, flags=flags)], 0


# ---------------------------------------------------------------------------
# sol subcommands

def _cmd_sol_member(args):
    A, vec = _sol_args(args)
    u = membership_commutator_subgroup(A, vec)
    if u is not None:
        result = {"member": True, "u": _sol_fiber(u)}
    else:
        w0, w1 = membership_witness_rational(A, vec)
        result = {"member": False, "witness_rational": [_frac(w0), _frac(w1)]}
    return [_record(args, result)], 0


def _cmd_sol_certificate(args):
    """``sol cert`` and ``sol report``: a member's one-commutator
    certificate, or a non-member's non-integral solve; ``report`` states
    the scl that proves (0 or infinity), ``cert`` the certificate's size."""
    A, vec = _sol_args(args)
    report = args.sol_command == "report"
    try:
        cert = commutator_certificate(A, vec)
    except SolMembershipError:
        result: dict = {"member": False}
        if report:
            result["scl"] = "infinity"
        w0, w1 = membership_witness_rational(A, vec)
        result["witness_rational"] = [_frac(w0), _frac(w1)]
        certificates = None
    else:
        result = ({"member": True, "scl": "0/1"} if report else
                  {"member": True, "verified": True,
                   "factor_count": cert.factor_count,
                   "target": _sol_element(cert.target)})
        certificates = [_sol_factor(x, y) for x, y in cert.factors]
    return [_record(args, result, certificates)], 0


def _cmd_sol_decompose(args):
    A, vec = _sol_args(args)
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
    return [_record(args, result, certificates)], 0


def _cmd_sol_mul(args):
    A = AnosovMatrix(*_list_arg(args, "matrix", 4))
    x = _list_arg(args, "x", 3)
    y = _list_arg(args, "y", 3)
    product = sol_mul(A, SolElement(x[:2], x[2]), SolElement(y[:2], y[2]))
    return [_record(args, {"product": _sol_element(product)})], 0


# ---------------------------------------------------------------------------
# audit

def _audit_checks(args):
    def surgery_check():
        report = surgery_bound_audit()
        margins = {name: _real(float(margin))
                   for name, margin in sorted(report.margins.items())}
        return {"t0": report.t0, "margins": margins}

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
                "certificate": BROOKS_DEFECT}

    return [("surgery-inequalities", surgery_check),
            ("filled-core-limit", nz_check),
            ("brooks-defect", defect_check)]


def _cmd_audit(args):
    records = []
    failed = False
    for name, check in _audit_checks(args):
        try:
            detail = check()
            result = {"check": name, "passed": True, **detail}
        except AuditError as exc:
            failed = True
            result = {"check": name, "passed": False, "reason": str(exc)}
        records.append(_record(args, result))
    return records, (AuditError.exit_code if failed else 0)


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", action="store_true",
                        help="human-readable table output instead of JSON")
    # declared after each command's own flags, so that they come last in
    # --help and in the record's inputs
    seed = {"type": int, "default": 0,
            "help": "seed for randomized scans (default 0)"}
    budgets = (("--max-len", DEFAULT_MAX_LEN),
               ("--max-genus", DEFAULT_MAX_GENUS),
               ("--pair-budget", DEFAULT_PAIR_BUDGET))

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

    p = sub.add_parser("defect", parents=[common],
                       help="scan for the observed defect of a quasimorphism")
    p.add_argument("--pattern", required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--length-budget", type=int, default=4)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", **seed)
    p.set_defaults(handler=_cmd_defect)

    p = sub.add_parser("scl", parents=[common],
                       help="two-sided certified scl bounds")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    for flag, default in budgets:
        p.add_argument(flag, type=int, default=default)
    p.set_defaults(handler=_cmd_scl)

    p = sub.add_parser("cl", parents=[common],
                       help="commutator length bounds with certificates")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int, default=2)
    for flag, default in budgets:
        p.add_argument(flag, type=int, default=default)
    p.set_defaults(handler=_cmd_cl)

    p = sub.add_parser("rot", parents=[common],
                       help="rotation number of a circle map lift")
    p.add_argument("--matrix", required=True,
                   help="four comma-separated reals, row-major, det 1 "
                        "(--matrix=-0.5,... when the first is negative)")
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
                       help="length gap bound, checked against a supplied "
                            "Margulis constant, or its optimal thin-part "
                            "scale")
    p.add_argument("--m", type=int)
    p.add_argument("--genus", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--variant", choices=("universal", "closed"),
                   help="default universal")
    p.add_argument("--margulis", type=float, metavar="X",
                   help="ambient Margulis constant that 4*epsilon must not "
                        "exceed; none ships with the package, and without "
                        "it the record is flagged margulis-unchecked")
    p.add_argument("--optimal", action="store_true")
    p.add_argument("--cap", type=float)
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("sol",
                       help="Sol-lattice arithmetic and scl-zero certificates")
    sol_sub = p.add_subparsers(dest="sol_command", required=True)
    for name, handler in (
            ("member", _cmd_sol_member),
            ("cert", _cmd_sol_certificate),
            ("decompose", _cmd_sol_decompose),
            ("report", _cmd_sol_certificate),
            ("mul", _cmd_sol_mul)):
        q = sol_sub.add_parser(name, parents=[common])
        q.add_argument("--matrix", required=True,
                       help="four comma-separated integers, row-major "
                            "(--matrix=-2,... when the first is negative)")
        if name == "mul":
            q.add_argument("--x", required=True,
                           help="three comma-separated integers vx,vy,t")
            q.add_argument("--y", required=True,
                           help="three comma-separated integers vx,vy,t")
        else:
            q.add_argument("--vector", required=True,
                           help="two comma-separated integers")
        q.set_defaults(handler=handler)

    p = sub.add_parser("audit", parents=[common],
                       help="run the built-in soundness checks")
    p.add_argument("--seed", **seed)
    p.set_defaults(handler=_cmd_audit)

    return parser


def main(argv: Optional[list] = None) -> int:
    """Run one command and return its exit code.

    The parser is built once per process and reused: each parse returns a
    new namespace and prints help and errors to the current ``sys.stdout``
    and ``sys.stderr``, so nothing may mutate the parser.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        records, code = args.handler(args)
        _emit(records, args.table)
    except MemoryError:
        # the last guard: a stage that outgrew the memory the process may
        # use is a budget that ran out, not a bug in the input
        print(f"{PROG}: budget exhausted: {args.command} ran out of memory",
              file=sys.stderr)
        return SearchBudgetError.exit_code
    except SclLabError as exc:
        print(f"{PROG}: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        floats = []
        for name, value in vars(args).items():
            values = value if isinstance(value, list) else [value]
            if all(isinstance(x, float) for x in values):
                floats.append(f"--{name.replace('_', '-')} "
                              + ",".join(map(repr, values)))
        if floats and not isinstance(exc, ValueError):
            exc = "out of float range at " + ", ".join(floats)
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
