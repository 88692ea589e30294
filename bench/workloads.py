"""The three benchmark workloads: inputs from a seed, operations, checks.

Each workload gives a warm-up list and a round list of ``Op``s.  A round is
the same list every time, so every run attempts whole rounds and the share
of failed operations does not depend on the seed or on the run length.
Every check compares the program's output with ``oracles`` (which shares
no code with ``scl_lab``) or with a property the method must have; none
compares with stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles as o


class CheckError(AssertionError):
    """The program's output is wrong."""


class OpFailed(RuntimeError):
    """The operation did not complete (bad exit code)."""


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class CliResult:
    code: int
    record: Any
    nbytes: int


def cli_call(scl_lab, argv: list, ok_codes=(0,)) -> Callable[[], CliResult]:
    """An in-process ``scl_lab.cli.main(argv)`` call with captured output."""

    def call() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = scl_lab.cli.main(argv)
        text = out.getvalue()
        if code not in ok_codes:
            raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
        record = json.loads(text) if text else None
        return CliResult(code, record, len(text.encode()))

    return call


def random_word(rng: random.Random, n: int, first: str = "") -> str:
    """Uniform reduced word of length ``n`` in a, b, optionally with a
    given first letter."""
    out = list(first)
    while len(out) < n:
        c = rng.choice("aAbB")
        if not out or out[-1] != c.swapcase():
            out.append(c)
    return "".join(out)


def commutator_entries(rng, m: int, first: str = "") -> tuple[str, str]:
    """Entries u, v of length m whose commutator has reduced length 4m."""
    while True:
        u, v = random_word(rng, m, first), random_word(rng, m)
        if len(o.commutator(u, v)) == 4 * m:
            return u, v


# ---------------------------------------------------------------------------
# search: cl through the CLI, genus-1 sweep, index build, genus-2 lookups

#: hit classes: (kind, entry length of the first commutator, count).  The
#: genus-2 lookup walks the index in (length, bytes) order, so the first
#: commutator's reduced length 4m sets how deep a hit is found.  Fixing its
#: first letter to ``a`` puts it in the same quarter of its length class on
#: every seed, which keeps the round's cost steady from seed to seed.
SEARCH_HITS = [("cl.hit8", 2, 4), ("cl.hit12", 3, 4), ("cl.hit16", 4, 2)]
#: entry length of the second commutator (the default max_len)
SEARCH_TAIL = 6
#: Culler's words [a,b]^n: cl = n // 2 + 1, so n = 2, 3 hit genus 2 and
#: n = 4 must walk the whole index and miss
CULLER = [2, 3, 4]


def _cl_check(word: str, upper_bound, exact: bool = False):
    """Check a ``cl`` record for ``word``: the upper bound is at most
    ``upper_bound`` (exactly, with ``exact``), or there is no certificate
    when ``upper_bound`` is None."""

    def check(res: CliResult) -> None:
        result = res.record["result"]
        expect(result["in_commutator_subgroup"] is True,
               f"{word}: reported outside the commutator subgroup")
        upper, lower = result["upper"], result["lower"]
        if upper_bound is None:
            expect(res.code == 3 and upper is None
                   and res.record["certificates"] is None,
                   f"{word}: expected no certificate within budget, got "
                   f"exit {res.code}, upper {upper}")
            return
        expect(res.code == 0 and isinstance(upper, int),
               f"{word}: expected a certificate, got exit {res.code}")
        if exact:
            expect(upper == upper_bound,
                   f"{word}: upper {upper}, expected {upper_bound}")
        else:
            expect(upper <= upper_bound,
                   f"{word}: upper {upper} > {upper_bound}")
        pairs = res.record["certificates"]["pairs"]
        expect(len(pairs) == upper, f"{word}: {len(pairs)} pairs for genus "
                                    f"{upper}")
        expect(o.commutator_product(pairs) == word,
               f"{word}: certificate {pairs} multiplies out to "
               f"{o.commutator_product(pairs)}")
        expect(isinstance(lower, int) and 1 <= lower <= upper,
               f"{word}: lower {lower} not in [1, upper {upper}]")

    return check


def _culler_op(scl_lab, n: int) -> Op:
    word = o.power(o.commutator("a", "b"), n)
    cl = n // 2 + 1
    check = _cl_check(word, cl if n <= 3 else None, exact=True)

    def check_culler(res: CliResult) -> None:
        check(res)
        lower = res.record["result"]["lower"]
        expect(lower <= cl, f"[a,b]^{n}: lower {lower} exceeds cl = {cl}")

    kind = "cl.culler_hit" if n <= 3 else "cl.culler_miss"
    argv = ["cl", "--word", f"[a,b]^{n}", "--rank", "2"]
    return Op(kind, cli_call(scl_lab, argv, ok_codes=(0, 3)), check_culler)


def search(scl_lab, seed: int):
    rng = random.Random(seed)
    ops = [_culler_op(scl_lab, n) for n in CULLER]
    for kind, m, count in SEARCH_HITS:
        for _ in range(count):
            while True:
                u1, v1 = commutator_entries(rng, m, first="a")
                u2, v2 = commutator_entries(rng, SEARCH_TAIL)
                word = o.commutator_product([(u1, v1), (u2, v2)])
                if len(word) == 4 * (m + SEARCH_TAIL):
                    break
            argv = ["cl", "--word", f"[{u1},{v1}][{u2},{v2}]", "--rank", "2"]
            ops.append(Op(kind, cli_call(scl_lab, argv, ok_codes=(0, 3)),
                          _cl_check(word, 2)))
    warmup = [_culler_op(scl_lab, 3)]
    return warmup, ops


# ---------------------------------------------------------------------------
# bavard: Bavard lower bounds on long words and their proper powers

#: base words: (how it is built, entry length m, power k).  A single
#: commutator has length 4m, a product of two has 8m; the power has k times
#: that.  Lengths run from 48 to 400.  A round draws one word per shape and
#: takes 12 to 17 s.
BAVARD_WORDS = [
    ("commutator", 12, 2),
    ("commutator", 16, 3),
    ("commutator", 25, 4),
    ("product", 6, 3),
    ("product", 8, 2),
    ("product", 10, 2),
    ("product", 12, 2),
]
#: scl upper bound known from the construction
BAVARD_CAP = {"commutator": Fraction(1, 2), "product": Fraction(3, 2)}
#: the oracle counts the witness pattern on core^N
BAVARD_COPIES = 4
BROOKS_DEFECT = 3


def _primitive_core(rng, how: str, m: int) -> str:
    """A cyclically reduced, primitive word built as ``how`` with entries of
    length m and no cancellation anywhere."""
    parts = 1 if how == "commutator" else 2
    while True:
        pairs = [commutator_entries(rng, m) for _ in range(parts)]
        word = o.commutator_product(pairs)
        if (len(word) == 4 * m * parts and o.cyclic_core(word) == word
                and not o.is_proper_power(word)):
            return word


def _bavard_check(text: str, cap: Fraction, base_key, k: int, bounds: dict):
    core = o.cyclic_core(text)

    def check(out) -> None:
        bound, witness = out
        expect(isinstance(bound, Fraction) and 0 <= bound <= cap,
               f"bound {bound} outside [0, {cap}] for a word of length "
               f"{len(text)}")
        if k == 1:
            bounds[base_key] = bound
        elif base_key in bounds:
            expect(bound == k * bounds[base_key],
                   f"bound {bound} for w^{k} is not {k} x {bounds[base_key]}")
        if witness is None:
            expect(bound == 0, f"bound {bound} without a witness")
            return
        pattern = str(witness)
        f = o.brooks_count(pattern, core * BAVARD_COPIES)
        gap = abs(abs(f) - 12 * BAVARD_COPIES * bound)
        expect(gap <= BROOKS_DEFECT,
               f"pattern {pattern}: plain count {f} on core^{BAVARD_COPIES} "
               f"is {gap} away from 12 N bound = "
               f"{12 * BAVARD_COPIES * bound}")

    return check


def bavard(scl_lab, seed: int):
    rng = random.Random(seed)
    bounds: dict = {}
    ops = []
    for index, (how, m, k) in enumerate(BAVARD_WORDS):
        w = _primitive_core(rng, how, m)
        cap = BAVARD_CAP[how]
        for kind, power in (("bavard.primitive", 1), ("bavard.power", k)):
            text = w * power
            word = scl_lab.parse_word(text, rank=2)
            ops.append(Op(
                kind,
                (lambda word=word: scl_lab.scl_lower_bavard(word)),
                _bavard_check(text, power * cap, index, power, bounds)))
    warm_text = o.commutator_product([("ab", "bA"), ("aab", "b")])
    warm = scl_lab.parse_word(warm_text, rank=2)
    warmup = [Op("bavard.warmup", lambda: scl_lab.scl_lower_bavard(warm),
                 _bavard_check(warm_text, Fraction(3, 2), "warm", 1, {}))]
    return warmup, ops


# ---------------------------------------------------------------------------
# sol: decompose, cert and report through the CLI

#: Anosov matrices whose decomposition profile certifies and whose
#: decomposition of members up to 1e60 stays within the default depth 64.
#: (2,1,1,1) has det(A - I) = -1, so every vector is a member; the others
#: also have non-members.
SOL_MATRICES = [(2, 1, 1, 1), (5, 3, 3, 2), (-2, 1, 1, -1), (4, 1, 3, 1)]
#: per matrix and round: decompose, cert, report on members, report on
#: non-members (members instead where there are none).  A round takes
#: 1.2 to 1.5 s; a run repeats it for --seconds.
SOL_COUNTS = {"decompose": 20, "cert": 10, "report": 10, "report_non": 10}
#: members are (A - I) u with both entries of u of the same digit count,
#: 1..SOL_DIGITS.  The digit counts of each kind of call are spread evenly
#: over that range (stratified), so sizes are log-uniform up to about 1e60
#: and the cost of a round barely depends on the seed; the seed draws the
#: signs and digits.
SOL_DIGITS = 59
#: kept failing: these members near 1e80 need more than the fixed max_depth
#: of 64 levels for (2,1,1,1), so `sol decompose` raises
#: DecompositionDepthError out of main.  Fixed inputs, the same in every
#: round and on every seed.
SOL_DEPTH_CAP_MATRIX = (2, 1, 1, 1)
SOL_DEPTH_CAP = [(10 ** 80, 10 ** 80), (-10 ** 80, 3 * 10 ** 79),
                 (7 * 10 ** 79, -10 ** 80 + 1),
                 (10 ** 80 + 12345, 10 ** 80 - 54321)]


def _digit_counts(n: int) -> list[int]:
    """n digit counts spread evenly over 1..SOL_DIGITS."""
    return [1 + i * SOL_DIGITS // n for i in range(n)]


def _signed(rng, d: int) -> int:
    return rng.choice((-1, 1)) * rng.randrange(10 ** (d - 1), 10 ** d)


def _has_non_members(m) -> bool:
    return abs(2 - (m[0] + m[3])) > 1


def _member(rng, m, d: int):
    return o.minus_identity_times(m, (_signed(rng, d), _signed(rng, d)))


def _non_member(rng, m, d: int):
    while True:
        a = (_signed(rng, d), _signed(rng, d))
        u = o.solve_minus_identity(m, a)
        if u[0].denominator != 1 or u[1].denominator != 1:
            return a


def _sol_factors(m, a, rec):
    """Multiply out the record's commutator factors in the oracle and
    compare with the target ``(a, 0)``."""
    target = ((a[0], a[1]), 0)
    if "target" in rec["result"]:
        expect(o.parse_sol(rec["result"]["target"]) == target,
               f"target {rec['result']['target']} is not {target}")
    pairs = [(o.parse_sol(x), o.parse_sol(y)) for x, y in rec["certificates"]]
    expect(o.sol_commutator_product(m, pairs) == target,
           f"{m}: factors do not multiply out to {target}")
    return pairs


def _sol_single_check(m, a, rec):
    pairs = _sol_factors(m, a, rec)
    expect(len(pairs) == 1, f"{m}, {a}: {len(pairs)} factors, expected 1")
    (g, (u, t)), = pairs
    expect(g == ((0, 0), 1) and t == 0, f"{m}, {a}: factor is not [g, (u,0)]")
    expect(o.minus_identity_times(m, u) == a,
           f"{m}, {a}: (A - I) {u} != {a}")


def _sol_check(sub: str, m, a, member: bool):
    def check(res: CliResult) -> None:
        rec = res.record
        result = rec["result"]
        if sub == "decompose":
            expect(result["verified"] is True, "decomposition not verified")
            pairs = _sol_factors(m, a, rec)
            count = result["factor_count"]
            expect(count == len(pairs), f"factor_count {count} for "
                                        f"{len(pairs)} factors")
            consts = result["constants"]
            bound = consts["c1"] * math.log(max(abs(a[0]), abs(a[1])) + 2) \
                + consts["c2"]
            expect(count <= bound, f"{m}, {a}: {count} factors exceed "
                                   f"c1 log(|a|+2) + c2 = {bound:.2f}")
        elif member:
            expect(result["member"] is True, f"{m}, {a}: member not found")
            if sub == "report":
                expect(result["scl"] == "0/1", f"scl {result['scl']} != 0")
            else:
                expect(result["verified"] is True
                       and result["factor_count"] == 1,
                       f"cert: verified {result['verified']}, "
                       f"{result['factor_count']} factors")
            _sol_single_check(m, a, rec)
        else:
            expect(result["member"] is False and result["scl"] == "infinity",
                   f"{m}, {a}: non-member reported as member")
            w = tuple(o.parse_fraction(x) for x in result["witness_rational"])
            expect(any(x.denominator != 1 for x in w),
                   f"{m}, {a}: witness {w} is integral")
            expect(o.minus_identity_times(m, w) == a,
                   f"{m}, {a}: (A - I) {w} != {a}")

    return check


def _sol_op(scl_lab, sub: str, m, a, member=True, kind=None) -> Op:
    # the --opt=value form, because argparse takes "-2,1,1,-1" for an option
    argv = ["sol", sub, "--matrix=" + ",".join(map(str, m)),
            f"--vector={a[0]},{a[1]}"]
    return Op(kind or f"sol.{sub}", cli_call(scl_lab, argv),
              _sol_check(sub, m, a, member))


def sol(scl_lab, seed: int):
    rng = random.Random(seed)
    ops = []
    for m in SOL_MATRICES:
        non = _has_non_members(m)
        for d in _digit_counts(SOL_COUNTS["decompose"]):
            ops.append(_sol_op(scl_lab, "decompose", m, _member(rng, m, d)))
        for d in _digit_counts(SOL_COUNTS["cert"]):
            ops.append(_sol_op(scl_lab, "cert", m, _member(rng, m, d)))
        for d in _digit_counts(SOL_COUNTS["report"]):
            ops.append(_sol_op(scl_lab, "report", m, _member(rng, m, d)))
        for d in _digit_counts(SOL_COUNTS["report_non"]):
            if non:
                ops.append(_sol_op(scl_lab, "report", m,
                                   _non_member(rng, m, d), member=False,
                                   kind="sol.report_non"))
            else:
                ops.append(_sol_op(scl_lab, "report", m, _member(rng, m, d)))
    for a in SOL_DEPTH_CAP:
        ops.append(_sol_op(scl_lab, "decompose", SOL_DEPTH_CAP_MATRIX, a,
                           kind="sol.decompose_depth_cap"))
    warmup = []
    for m in SOL_MATRICES:
        a = o.minus_identity_times(m, (12345, -6789))
        warmup += [_sol_op(scl_lab, sub, m, a)
                   for sub in ("decompose", "cert", "report")]
    return warmup, ops


WORKLOADS = {"search": search, "bavard": bavard, "sol": sol}
