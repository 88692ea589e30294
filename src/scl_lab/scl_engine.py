"""Two-sided certified bounds for commutator length and its stable version.

Upper bounds are explicit products of commutators, found by Wicks'
commutator form at genus 1 and by bounded search at genus 2, and
re-verified letter by letter before they are handed back.  Lower bounds
come from homogeneous counting quasimorphisms through Bavard duality.  Both
sides use exact rational arithmetic, so a report's bracket is a proof about
the word, not an estimate.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Optional, Union

from .errors import CertificateError, SearchBudgetError, SoundnessError
from .free_words import (
    CyclicWord,
    ReducedWord,
    _codes_up_to,
    _count_up_to,
    _cyclic_copy_rate,
    _cyclic_split,
    _cyclic_starts,
    _inv,
    _join_codes,
    _least_rotation,
    _word_key,
    abelianization,
    commutator,
    cyclically_reduce,
    power,
    word_sort_key,
)
from .quasimorphisms import HOMOGENEOUS_BROOKS_DEFECT, _homogeneous_value

__all__ = [
    "NotInCommutatorSubgroupError",
    "CommutatorCertificate",
    "cl_upper",
    "cl_lower",
    "scl_lower_bavard",
    "scl_upper_from_power",
    "default_brooks_dictionary",
    "SclReport",
    "scl_report",
    "DEFAULT_MAX_LEN",
    "DEFAULT_MAX_GENUS",
    "DEFAULT_N_MAX",
    "DEFAULT_PAIR_BUDGET",
]

DEFAULT_MAX_LEN = 6
DEFAULT_MAX_GENUS = 2
DEFAULT_N_MAX = 4
DEFAULT_PAIR_BUDGET = 3_000_000

_PACK_OFFSET = 64  # byte packing supports letter codes in [-63, 63]


class NotInCommutatorSubgroupError(ValueError):
    """The word has nonzero abelianization, so no commutator product equals it.

    It holds the word and spells the abelianization, a vector of rank
    entries, only when its text is read, so a caller that catches it pays
    nothing that grows with the rank.
    """

    def __init__(self, word: ReducedWord):
        super().__init__(word)
        self.word = word

    def __str__(self) -> str:
        vector = abelianization(self.word)
        return f"{self.word} has nonzero abelianization {vector}"


def _in_commutator_subgroup(a: ReducedWord) -> bool:
    """Whether ``a`` has zero abelianization, counting only the letters it
    uses, so the cost does not grow with the rank."""
    counts = Counter(a.codes)
    return all(counts[c] == counts[-c] for c in counts)


def _require_commutator_subgroup(a: ReducedWord) -> None:
    if not _in_commutator_subgroup(a):
        raise NotInCommutatorSubgroupError(a)


@dataclass(frozen=True)
class CommutatorCertificate:
    """A verified expression of ``word`` as a product of commutators.

    Construction recomputes the product from the pairs and compares it with
    ``word`` letter by letter; instances therefore always witness
    ``cl(word) <= genus``.
    """

    word: ReducedWord
    pairs: tuple[tuple[ReducedWord, ReducedWord], ...]

    def __post_init__(self):
        product = ReducedWord(self.word.rank, (), _trusted=True)
        for u, v in self.pairs:
            if u.rank != self.word.rank or v.rank != self.word.rank:
                raise CertificateError("certificate pair rank mismatch")
            product = product * commutator(u, v)
        if product != self.word:
            raise CertificateError(
                f"commutator product {product} does not equal {self.word}")

    @property
    def genus(self) -> int:
        return len(self.pairs)


# ---------------------------------------------------------------------------
# upper bounds: certificate search

def _genus_one_search(a: ReducedWord):
    """A pair (u, v) with [u, v] = a, or None when ``a`` is no commutator.

    Wicks' theorem: a cyclically reduced K is conjugate to a commutator
    exactly when some rotation R of it reads ``X Y Z X^-1 Y^-1 Z^-1``
    letter for letter, and then ``R = [X Y, Z X^-1]``.  With
    ``|K| = 2m``, ``W1 = R[:m]`` and ``V = (R[m:])^-1`` that is a split
    ``W1 = X Y Z`` with ``V = Z Y X``.  The scan takes rotations
    ``R = K[r:] K[:r]`` for r ascending, then ``|X|`` ascending, then
    ``|Z|`` ascending, and returns the first split it meets; X is empty
    first, so ``[Y, Z]`` comes out whenever it fits.
    If ``a = c K c^-1``, then ``a = g R g^-1`` with ``g = c K[:r]``, and
    both entries are conjugated by g.  No entry length is bounded.
    """
    conj, core = _cyclic_split(a.codes)
    n = len(core)
    # a proper power w^k of [F, F] has cl >= k scl(w) + 1/2 >= 3/2, since
    # scl(w) >= 1/2 (Duncan-Howie), so only a primitive core can pass
    if not n or n % 2 or _least_rotation(core)[1] < n:
        return None
    m = n // 2
    doubled = core + core
    inverse = _inv(doubled)
    # W1 = X Y Z and V = Z Y X hold the same letters, so a split needs W1
    # to hold half the letters of each generator: ``surplus`` counts, per
    # generator, those of W1 less those of R[m:], and ``off`` the
    # generators where the two differ
    gens = [abs(c) for c in doubled]
    surplus = Counter(gens[:m])
    surplus.subtract(gens[m:n])
    off = sum(map(bool, surplus.values()))
    for r in range(n):
        if r:  # R[0] moves to the end of R[m:], and R[m] to the end of W1
            for g, d in ((gens[r - 1], -2), (gens[r + m - 1], 2)):
                off -= bool(surplus[g])
                surplus[g] += d
                off += bool(surplus[g])
        if off:
            continue
        W1, V = doubled[r:r + m], inverse[n - r:n + m - r]
        # the lengths z with Z = W1[m - z:] beginning V
        zs = [z for z in range(m + 1)
              if not z or (W1[m - z] == V[0] and V[:z] == W1[m - z:])]
        for x in range(m + 1):
            # X = W1[:x] ends V
            if x and (W1[x - 1] != V[-1] or V[m - x:] != W1[:x]):
                continue
            for z in zs:
                if z > m - x:
                    break
                if V[z:m - x] == W1[x:m - z]:  # Y follows Z in V
                    g = conj + core[:r]
                    entries = (W1[:m - z],  # X Y, then Z X^-1
                               _join_codes(W1[m - z:], _inv(W1[:x])))
                    return tuple(ReducedWord(a.rank, _join_codes(
                        _join_codes(g, e), _inv(g)), _trusted=True)
                        for e in entries)
    return None


def _pack(codes: tuple[int, ...]) -> bytes:
    return bytes(c + _PACK_OFFSET for c in codes)


def _unpack(key: bytes) -> tuple[int, ...]:
    return tuple(b - _PACK_OFFSET for b in key)


#: ``bytes.translate`` table sending each packed letter to its inverse
_INVERSE_LETTERS = bytes((2 * _PACK_OFFSET - b) % 256 for b in range(256))


def _inverse(key: bytes) -> bytes:
    return key[::-1].translate(_INVERSE_LETTERS)


def _join(x: bytes, y: bytes) -> bytes:
    """Free reduction of ``x y`` for reduced ``x`` and ``y``: only letters
    at the junction can cancel."""
    k, n = 0, min(len(x), len(y))
    while k < n and x[-1 - k] + y[k] == 2 * _PACK_OFFSET:
        k += 1
    return x[:len(x) - k] + y[k:]


# Signed letter permutations map commutators to commutators of the same
# lengths, so the index keeps one word per orbit: the least image in byte
# order.  Relabelling greedily gives it: in order of first occurrence, each
# new generator goes to the largest unused one, with the sign that makes its
# letter negative (packed negative letters of large generators are the
# smallest bytes).  The canonical form of a prefix is the prefix of the
# canonical form.

def _signature(key: bytes, rank: int) -> bytes:
    """The letters of ``key`` that first use each generator, in order."""
    sig: list[int] = []
    for x in key:
        if x not in sig and 2 * _PACK_OFFSET - x not in sig:
            sig.append(x)
            if len(sig) == rank:
                break
    return bytes(sig)


@lru_cache(maxsize=4096)
def _restore_tables(rank: int, sig: bytes, extra: int) -> tuple[bytes, ...]:
    """Every relabelling that sends the canonical form of a word with first
    letters ``sig`` back to that word, restricted to the generators of a
    representative that uses ``extra`` generators more: fixed on the
    generators of ``sig``, and injective with either sign on the others."""
    base = bytearray(range(256))
    for i, x in enumerate(sig):
        base[_PACK_OFFSET - (rank - i)] = x
        base[_PACK_OFFSET + (rank - i)] = 2 * _PACK_OFFSET - x
    taken = {abs(x - _PACK_OFFSET) for x in sig}
    free = [g for g in range(1, rank + 1) if g not in taken]
    added = [rank - len(sig) - j for j in range(extra)]
    tables = []
    for targets in permutations(free, extra):
        for signs in product((1, -1), repeat=extra):
            table = bytearray(base)
            for g, t, s in zip(added, targets, signs):
                table[_PACK_OFFSET - g] = _PACK_OFFSET + s * t
                table[_PACK_OFFSET + g] = _PACK_OFFSET - s * t
            tables.append(bytes(table))
    return tuple(tables)


# The index keeps each word as an integer key: the digits of its canonical
# form in base ``_base(rank)``, where the letters -rank, ..., -1, 1, ...,
# rank are the digits 0, ..., 2 rank - 1.  Digits follow the byte order of
# packed letters, so within one length integer order is byte order, and
# the words of a length that begin with a prefix are one range of keys.

@lru_cache(maxsize=64)
def _base(rank: int) -> int:
    """The least of 2, 4, 16 and 256 with a digit for each of the
    ``2 rank`` letters: its digits fill a byte, so ``int`` writes every key
    and ``int.to_bytes`` reads it."""
    return next(base for base in (2, 4, 16, 256) if base >= 2 * rank)


@lru_cache(maxsize=4096)
def _key_table(rank: int, sig: bytes) -> bytes:
    """``bytes.translate`` table from a word with first letters ``sig`` to
    the digits of its canonical form, as numerals below base 256: the
    generator of ``sig[i]`` becomes generator ``rank - i``, with ``sig[i]``
    its negative letter, so its letters get the digits ``i`` and
    ``2 rank - 1 - i``.  A canonical ``sig`` is a prefix of
    ``bytes(range(64 - rank, 64))``, and its table keeps each letter's own
    digit."""
    digits = range(256) if _base(rank) == 256 else b"0123456789abcdef"
    table = bytearray(256)
    for i, x in enumerate(sig):
        table[x] = digits[i]
        table[2 * _PACK_OFFSET - x] = digits[2 * rank - 1 - i]
    return bytes(table)


def _number(digits: bytes, base: int) -> int:
    """The integer that ``digits``, translated by ``_key_table``, spell in
    ``base``."""
    if base == 256:
        return int.from_bytes(digits, "big")
    return int(digits, base) if digits else 0


def _encode(key: bytes, rank: int) -> int:
    """The integer whose base-``_base(rank)`` digits are the letters of the
    packed word ``key``: its key when ``key`` is canonical."""
    table = _key_table(rank, bytes(range(_PACK_OFFSET - rank, _PACK_OFFSET)))
    return _number(key.translate(table), _base(rank))


@lru_cache(maxsize=64)
def _columns(rank: int) -> tuple[int, tuple[bytes, ...]]:
    """``(width, columns)``: ``width`` digits of base ``_base(rank)`` fill
    a byte, and ``columns[j]`` is the ``bytes.translate`` table from a byte
    to the packed letter of its ``j``-th digit."""
    base = _base(rank)
    width = 8 // (base.bit_length() - 1)
    letters = _pack((*range(-rank, 0), *range(1, rank + 1))).ljust(base, b"\0")
    return width, tuple(
        bytes(letters[b // base ** (width - 1 - j) % base] for b in range(256))
        for j in range(width))


def _decode(numbers, length: int, rank: int) -> list[bytes]:
    """The packed words of ``length`` letters whose integer keys are
    ``numbers``.

    ``int.to_bytes`` writes each key as the bytes its digits fill, and each
    of the ``width`` digits of a byte is one translation of the bytes of
    every key at once.
    """
    width, columns = _columns(rank)
    count = -(-length // width) or 1  # bytes a key takes
    data = b"".join([n.to_bytes(count, "big") for n in numbers])
    letters = bytearray(width * len(data))
    for j, column in enumerate(columns):
        letters[j::width] = data.translate(column)
    letters = bytes(letters)
    step = width * count
    return [letters[i - length:i]
            for i in range(step, len(letters) + 1, step)]


#: the largest key an ``array("Q")`` holds, plus one
_WORD_KEYS = 1 << 64


@lru_cache(maxsize=4)
def _commutator_value_index(rank: int, max_len: int):
    """Values of single commutators with both entries within ``max_len``,
    one per orbit of the signed letter permutations.

    Returns the representatives as integer keys (see ``_encode``) in
    ``(len, bytes)`` order of their words, and ``bounds[length] = (lo,
    hi)``, the slice of each length.  The keys are one flat
    ``array("Q")``, 8 bytes a key, unless the longest length needs more
    than 64 bits, when they are a list: from ``max_len`` 9 at rank 2, 5 at
    ranks 3 to 8 and 3 above, past the default pair budget.  Each length
    class is collected and sorted on its own (buckets of ``v`` below share
    a length too), so no set of every key is held.  Since ``s[u, v] =
    [su, sv]``, it is enough to let ``u`` range over canonical words.  The
    full value set is closed under inversion because ``[u, v]^-1 = [v, u]``.

    ``[u, v] = u v u^-1 v^-1`` can cancel only at its three junctions,
    and only if ``v`` begins with ``u[-1]^-1``, ends with ``u[-1]`` or ends
    with ``u[0]^-1``; these depend on the first and last letters of ``v``
    alone, so ``v`` is taken in buckets of equal ends.  Call the stem of
    ``u`` its shortest prefix that uses every generator, when there is one.
    A word that begins with the stem of canonical ``u`` has the signature
    of ``u``, whose relabelling fixes every letter, so it is canonical.
    Where no junction cancels and ``u`` has a stem, every value of the
    bucket is the plain concatenation, whose key is a sum of the keys of
    its four parts.  Otherwise each junction whose two letters cancel is
    measured on its own; where no two cancellations meet, the value is the
    four parts cut once each, and elsewhere the junctions are joined in
    turn.  The result is relabelled only if it does not begin with the
    stem.
    """
    base = _base(rank)
    canonical = bytes(range(_PACK_OFFSET - rank, _PACK_OFFSET))
    digits = _key_table(rank, canonical)
    vocab = [_pack(c) for c in _codes_up_to(rank, max_len) if c]
    ends: dict[tuple[int, int, int], list] = {}
    for v in vocab:
        ends.setdefault((v[0], v[-1], len(v)), []).append((v, _inverse(v)))
    # values have even length, at most 4 max_len
    classes: dict[int, Union[array, list]] = {
        length: array("Q") if base ** length <= _WORD_KEYS else []
        for length in range(2, 4 * max_len + 1, 2)}

    # the key of v and v^-1 in their places in u v u^-1 v^-1, per v of a
    # bucket, by bucket and |u|
    tails: dict[tuple[int, int, int, int], list[int]] = {}
    for u in vocab:
        sig = _signature(u, rank)
        if not canonical.startswith(sig):
            continue
        iu = _inverse(u)
        n, first, last = len(u), u[0], u[-1]
        stem = u[:u.index(sig[-1]) + 1] if len(sig) == rank else None
        ku, kiu = _encode(u, rank), _encode(iu, rank)
        for (f, l, m), bucket in ends.items():
            cancels_u_v = f + last == 2 * _PACK_OFFSET
            cancels_v_iu = l == last
            cancels_iu_iv = l + first == 2 * _PACK_OFFSET
            if stem is not None and not (
                    cancels_u_v or cancels_v_iu or cancels_iu_iv):
                ends_key = (f, l, m, n)
                if ends_key not in tails:
                    tails[ends_key] = [
                        _encode(v, rank) * base ** (n + m) + _encode(iv, rank)
                        for v, iv in bucket]
                head = ku * base ** (n + 2 * m) + kiu * base ** m
                classes[2 * (n + m)].extend(map(head.__add__,
                                                tails[ends_key]))
                continue
            short = min(n, m)
            for v, iv in bucket:
                # letters cancelling at each junction, as if alone
                k1 = k2 = k3 = 0
                if cancels_u_v:
                    k1 = 1
                    while k1 < short and iu[k1] == v[k1]:
                        k1 += 1
                if cancels_v_iu:
                    k2 = 1
                    while k2 < short and iv[k2] == iu[k2]:
                        k2 += 1
                if cancels_iu_iv:
                    k3 = 1
                    while k3 < short and u[k3] == iv[k3]:
                        k3 += 1
                if k1 + k2 < m and k2 + k3 < n:  # they do not meet
                    c = u[:n - k1] + v[k1:m - k2] + iu[k2:n - k3] + iv[k3:]
                else:
                    c = _join(_join(_join(u, v), iu), iv)
                if c:
                    table = (digits if stem is not None and c.startswith(stem)
                             else _key_table(rank, _signature(c, rank)))
                    classes[len(c)].append(_number(c.translate(table), base))
    ordered = array("Q") if base ** (4 * max_len) <= _WORD_KEYS else []
    bounds: dict[int, tuple[int, int]] = {}
    for length in sorted(classes):
        if not classes[length]:
            continue
        lo = len(ordered)
        ordered.extend(sorted(set(classes.pop(length))))
        bounds[length] = (lo, len(ordered))
    return ordered, bounds


def _indexed(ordered, bounds: dict, rank: int, key: bytes) -> bool:
    """Whether the canonical form of ``key`` is in the index: one
    translation to its digits and one bisection inside its length class."""
    lo, hi = bounds.get(len(key), (0, 0))
    if lo == hi:
        return False
    table = _key_table(rank, _signature(key, rank))
    number = _number(key.translate(table), _base(rank))
    i = bisect_left(ordered, number, lo, hi)
    return i < hi and ordered[i] == number


@lru_cache(maxsize=4096)
def _prefix_key(rank: int, prefix: bytes) -> tuple[bytes, int]:
    """The signature of ``prefix`` and its key, once per distinct prefix."""
    sig = _signature(prefix, rank)
    return sig, _number(prefix.translate(_key_table(rank, sig)), _base(rank))


def _prefix_range(ordered, bounds: dict, rank: int, length: int,
                  prefix: bytes) -> list:
    """Words of the full value set of ``length`` that begin with ``prefix``,
    in index order.

    They are the images of the representatives that begin with the
    canonical form of ``prefix`` under the relabellings that send it back
    to ``prefix``; those keys are one range, and only they are decoded.
    Relabelling does not keep byte order, so the images are sorted.
    """
    lo, hi = bounds.get(length, (0, 0))
    spare = length - len(prefix)
    if lo == hi or spare < 0:
        return []
    sig, head = _prefix_key(rank, prefix)
    base = _base(rank)
    lo = bisect_left(ordered, head * base ** spare, lo, hi)
    hi = bisect_left(ordered, (head + 1) * base ** spare, lo, hi)
    if lo == hi:
        return []
    words = []
    for rep in _decode(ordered[lo:hi], length, rank):
        # a prefix that uses every generator leaves none to relabel
        extra = (len(_signature(rep, rank)) - len(sig) if len(sig) < rank
                 else 0)
        for table in _restore_tables(rank, sig, extra):
            words.append(rep.translate(table))
    words.sort()
    return words


def _genus_two_search(a: ReducedWord, max_len: int, pair_budget: int):
    """Two commutator pairs whose product is ``a``, or None.

    A hit is a split ``a = c1 c2`` with both factors single-commutator
    values, which the commutator-value index answers by their canonical
    forms; the returned ``c1`` is the least valid value in ``(len, bytes)``
    order, so certificates do not depend on how the index is stored or
    read.  Free reduction of ``c1 c2`` cancels some ``x``, leaving
    ``c1 = p x``, ``c2 = x^-1 s`` and ``a = p s``.  With ``h = ceil(|a|/2)``
    either ``|p| >= h``, and ``c1`` begins with ``a[:h]``, or ``|p| < h``,
    and ``c2^-1`` begins with ``(a[h - 1:])^-1``.  The value set is closed
    under inversion, so both cases are prefix ranges of it in each length
    class.  The first case is read by ascending length up to its first
    valid key, which is its least.  In the second, a key ``c2^-1`` of length
    ``L`` can give ``|c1| <= |best|`` for the best ``c1`` so far only if it
    begins with ``a^-1[:|a| - h + j(L)]``, where ``j(L) = max(1, ceil((L -
    |a| - |best| + 2h) / 2))``; the walk stops once ``j(L) > h``, that is
    ``L > |a| + |best|``.  Proof: a key that cancels ``|a| - h + j`` letters
    of ``a`` leaves ``c1 = a[:h - j] key[|a| - h + j:]``, of length ``L -
    |a| + 2h - 2j``, which is at most ``|best|`` only when ``j >= j(L)``.
    In both cases only the letters past the prefix are joined.
    """
    rank = a.rank
    if rank >= _PACK_OFFSET:
        raise SearchBudgetError(
            f"packed genus-2 search supports rank < {_PACK_OFFSET}, got {rank}")
    n = _count_up_to(rank, max_len) - 1
    pairs = n * (n - 1) // 2
    if pairs > pair_budget:
        raise SearchBudgetError(
            f"genus-2 search at rank {rank}, max_len {max_len} needs "
            f"{pairs} pairs; budget is {pair_budget}")
    ordered, bounds = _commutator_value_index(rank, max_len)
    if not ordered:
        return None
    target = _pack(a.codes)
    longest = max(bounds)
    h = (len(target) + 1) // 2
    best: Optional[bytes] = None
    for length in range(h, longest + 1):
        for key in _prefix_range(ordered, bounds, rank, length, target[:h]):
            rest = _join(_inverse(key[h:]), target[h:])
            if rest and _indexed(ordered, bounds, rank, rest):
                best = key
                break
        if best is not None:
            break
    inverse = _inverse(target)
    for length in range(len(target) - h + 1, longest + 1):
        j = 1 if best is None else max(
            1, (length - len(target) - len(best) + 2 * h + 1) // 2)
        if j > h:
            break
        cut = len(target) - h + j  # the key cancels these letters of a
        for key in _prefix_range(ordered, bounds, rank, length, inverse[:cut]):
            first = _join(target[:h - j], key[cut:])
            if _indexed(ordered, bounds, rank, first) and (
                    best is None or (len(first), first) < (len(best), best)):
                best = first
    if best is None:
        return None
    first = _unpack(best)
    rest = _unpack(_join(_inverse(best), target))
    pair1 = _genus_one_search(ReducedWord(rank, first, _trusted=True))
    pair2 = _genus_one_search(ReducedWord(rank, rest, _trusted=True))
    if pair1 is None or pair2 is None:
        raise SoundnessError(
            "index hit could not be rebuilt into commutator pairs")
    return (pair1, pair2)


def _check_budgets(max_genus: int, max_len: int, pair_budget: int,
                   n_max: int = 1) -> None:
    """Raise ValueError for a search budget outside its domain."""
    if max_genus < 0:
        raise ValueError(f"max_genus must be >= 0, got {max_genus}")
    if max_genus > 2:
        raise ValueError(
            f"search supports genus at most 2, got max_genus {max_genus}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if pair_budget < 0:
        raise ValueError(f"pair_budget must be >= 0, got {pair_budget}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")


def cl_upper(a: ReducedWord, *, max_genus: int = DEFAULT_MAX_GENUS,
             max_len: int = DEFAULT_MAX_LEN,
             pair_budget: int = DEFAULT_PAIR_BUDGET
             ) -> Optional[CommutatorCertificate]:
    """Smallest-genus commutator certificate found within the budget.

    Searches genus 0 (the identity), genus 1 by Wicks' commutator form,
    which is exact and reads no budget, and genus 2 by meeting
    single-commutator values in the middle, complete for entries up to
    ``max_len``; ``max_len`` and ``pair_budget`` bound genus 2 only.  So a
    None return means cl(a) >= 2 and no genus-2 certificate exists within
    this length budget, not merely that none was found.  Raises
    NotInCommutatorSubgroupError when no certificate of any genus can exist.
    """
    _check_budgets(max_genus, max_len, pair_budget)
    _require_commutator_subgroup(a)
    if a.is_identity():
        return CommutatorCertificate(a, ())
    if max_genus >= 1:
        hit = _genus_one_search(a)
        if hit is not None:
            return CommutatorCertificate(a, (hit,))
    if max_genus >= 2:
        hit2 = _genus_two_search(a, max_len, pair_budget)
        if hit2 is not None:
            return CommutatorCertificate(a, hit2)
    return None


# ---------------------------------------------------------------------------
# lower bounds: Bavard duality for counting quasimorphisms

def _default_patterns(core: CyclicWord):
    """Yield ``(k, table)`` by length k = 2..min(6, |core|) for a cyclic
    core: the table ``_cyclic_starts(root, k)`` on its primitive root, whose
    keys are the default patterns of length k, the core's cyclic subwords.
    At k = 2 every reduced two-letter word of the rank is a pattern too."""
    root = core.codes[:core.period]
    for k in range(2, max(2, min(6, len(core))) + 1):
        yield k, (_cyclic_starts(root, k) if root else {})


def default_brooks_dictionary(a: Union[ReducedWord, CyclicWord]
                              ) -> tuple[ReducedWord, ...]:
    """Counting patterns tried against ``a``: every cyclic subword of its
    core with length 2..6, plus every reduced two-letter word of the rank.

    Returned in canonical order so downstream witness choices are
    deterministic.  A ``CyclicWord`` is taken as the core already.
    """
    core = a if isinstance(a, CyclicWord) else cyclically_reduce(a)[0]
    patterns = {c for c in _codes_up_to(core.rank, 2) if len(c) == 2}
    patterns.update(*(starts for _, starts in _default_patterns(core)))
    return tuple(sorted((ReducedWord(a.rank, codes, _trusted=True)
                         for codes in patterns), key=word_sort_key))


def scl_lower_bavard(a: Union[ReducedWord, CyclicWord]
                     ) -> tuple[Fraction, Optional[ReducedWord]]:
    """Best Bavard lower bound ``|f(a)| / (2 D)`` over the default patterns.

    Uses homogeneous counting quasimorphisms with certified defect 6, so
    each pattern w of ``default_brooks_dictionary`` contributes
    ``|fbar_w(a)| / 12``.  Returns the bound and its witness, the least
    pattern in ``word_sort_key`` order that attains it (None when every
    value vanishes).  A ``CyclicWord`` is taken as the core already.

    The scan walks each key of the ``_default_patterns`` tables once, on
    the primitive root ``r`` of the core ``r^m`` (``fbar(r^m) = m fbar(r)``),
    and reads its inverse as a slice of the inverted root.  The values are
    ``_homogeneous_value`` pairs; other two-letter words have value 0.
    """
    core = a if isinstance(a, CyclicWord) else cyclically_reduce(a)[0]
    L, p = len(core), core.period
    if not L:
        return Fraction(0), None
    best_n, best_d, best, best_key = 0, 1, (), ()
    inverse = _inv(core.codes[:p]) * (1 + (p + 4) // p)  # windows up to 6
    for k, starts in _default_patterns(core):
        rates = {c: _cyclic_copy_rate(s, k, p) for c, s in starts.items()}
        for codes, s in starts.items():
            inv = inverse[(j := (p - s[0] - k) % p):j + k]
            num, den = _homogeneous_value(rates[codes], rates.get(inv, (0, 1)))
            num = abs(num)
            gain = num * best_d - best_n * den
            if num and gain >= 0:
                if k == 2 and inv not in rates:  # a two-letter pattern too
                    codes = min(codes, inv, key=_word_key)
                key = (k, _word_key(codes))
                if gain or key < best_key:
                    best_n, best_d, best, best_key = num, den, codes, key
    witness = ReducedWord(core.rank, best, _trusted=True) if best else None
    return (Fraction(best_n * (L // p), best_d * 2 * HOMOGENEOUS_BROOKS_DEFECT),
            witness)


def cl_lower(a: ReducedWord) -> int:
    """Certified lower bound for commutator length.

    A homogeneous quasimorphism f with defect D forces
    ``cl(a) >= f(a) / (2 D) + 1/2``; the bound below adds 1/2 to the
    Bavard bound of ``scl_lower_bavard`` and rounds up.  The identity
    gives 0 and any other word at least 1.
    """
    if a.is_identity():
        return 0
    _require_commutator_subgroup(a)
    lower, _ = scl_lower_bavard(a)
    return max(1, math.ceil(lower + Fraction(1, 2)))


def scl_upper_from_power(a: ReducedWord, n: int,
                         certificate: CommutatorCertificate) -> Fraction:
    """Upper bound for scl(a) from a certificate for the n-th power.

    ``scl(a^n) = n scl(a)`` and a genus-g expression bounds
    ``scl(a^n) <= g - 1/2`` when the power is nontrivial, so
    ``scl(a) <= (2 g - 1) / (2 n)``.
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if certificate.word != power(a, n):
        raise CertificateError(
            f"certificate is for {certificate.word}, not for the requested "
            f"power {n} of {a}")
    if certificate.genus == 0:
        return Fraction(0)
    return Fraction(2 * certificate.genus - 1, 2 * n)


# ---------------------------------------------------------------------------
# the combined report

@dataclass(frozen=True)
class SclReport:
    """Certified bracket for the stable commutator length of one word.

    ``lower`` and ``upper`` are exact rationals, with None standing for an
    infinite or unavailable side.  Statuses: ``bounded`` (both sides
    finite), ``not_in_commutator_subgroup`` (scl is infinite), and
    ``inconclusive`` (the search budget ran out before any certificate
    appeared; the lower bound still holds).
    """

    word: ReducedWord
    status: str
    lower: Optional[Fraction]
    upper: Optional[Fraction]
    lower_witness: Optional[ReducedWord] = None
    power: Optional[int] = None
    power_genus: Optional[int] = None
    certificate: Optional[CommutatorCertificate] = None
    flags: tuple[str, ...] = ()
    dictionary_size: int = 0


#: Below this value no nonzero scl of a free-group element can fall; used
#: only to raise a flag, never to inflate a reported bound.
HOMOLOGICAL_MARGULIS_CONSTANT = Fraction(1, 12)

_DUNCAN_HOWIE_FLOOR = Fraction(1, 2)


def scl_report(a: ReducedWord, *, n_max: int = DEFAULT_N_MAX,
               max_genus: int = DEFAULT_MAX_GENUS,
               max_len: int = DEFAULT_MAX_LEN,
               pair_budget: int = DEFAULT_PAIR_BUDGET) -> SclReport:
    """Two-sided certified scl bounds for one word.

    The lower bound scans the default counting-pattern dictionary of the
    cyclic core through Bavard duality.  The upper bound searches powers
    ``a^n`` for commutator certificates with ``cl_upper``, converting genus
    g at power n into ``(2g - 1) / (2n)``; the loop stops as soon as the
    bound 1/2 is reached, which no nontrivial word can beat, and at the
    first power whose genus-2 budget refuses.  Genus 1 is exact at every
    power, so ``max_len`` and ``pair_budget`` bound genus 2 only.
    Soundness tripwires raise instead of returning nonsense.
    """
    _check_budgets(max_genus, max_len, pair_budget, n_max)
    if a.is_identity():
        return SclReport(
            word=a, status="bounded", lower=Fraction(0), upper=Fraction(0),
            certificate=CommutatorCertificate(a, ()), power=1, power_genus=0)
    if not _in_commutator_subgroup(a):
        return SclReport(word=a, status="not_in_commutator_subgroup",
                         lower=None, upper=None)
    core, _ = cyclically_reduce(a)
    lower, witness = scl_lower_bavard(core)
    dictionary_size = 2 * a.rank * (2 * a.rank - 1) + sum(
        len(starts) for k, starts in _default_patterns(core) if k > 2)
    flags: list[str] = []
    if lower >= HOMOLOGICAL_MARGULIS_CONSTANT:
        flags.append("above-homological-margulis-constant")

    best_upper: Optional[Fraction] = None
    best_power: Optional[int] = None
    best_genus: Optional[int] = None
    best_cert: Optional[CommutatorCertificate] = None
    for n in range(1, n_max + 1):
        try:
            cert = cl_upper(power(a, n), max_genus=max_genus,
                            max_len=max_len, pair_budget=pair_budget)
        except SearchBudgetError:
            break
        if cert is None:
            continue
        bound = scl_upper_from_power(a, n, cert)
        if best_upper is None or bound < best_upper:
            best_upper = bound
            best_power = n
            best_genus = cert.genus
            best_cert = cert
        if best_upper == _DUNCAN_HOWIE_FLOOR:
            # nothing in the commutator subgroup beats 1/2, stop early
            break

    if best_upper is None:
        # n_max >= 1, so some power was tried and each one ran out
        flags.append("budget-exhausted")
        return SclReport(
            word=a, status="inconclusive", lower=lower, upper=None,
            lower_witness=witness, flags=tuple(flags),
            dictionary_size=dictionary_size)

    if best_upper < _DUNCAN_HOWIE_FLOOR:
        raise SoundnessError(
            f"certified upper bound {best_upper} for {a} undercuts the 1/2 "
            f"floor for nontrivial commutator-subgroup elements; this is a "
            f"bug in the certificate search")
    if lower > best_upper:
        raise SoundnessError(
            f"lower bound {lower} exceeds upper bound {best_upper} for {a}; "
            f"one of the two certificates is wrong")
    return SclReport(
        word=a, status="bounded", lower=lower, upper=best_upper,
        lower_witness=witness, power=best_power, power_genus=best_genus,
        certificate=best_cert, flags=tuple(flags),
        dictionary_size=dictionary_size)
