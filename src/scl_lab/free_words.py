"""Exact arithmetic for words in finitely generated free groups.

A word is stored as a freely reduced sequence of nonzero signed integer
codes: ``+i`` is the ``i``-th generator and ``-i`` its inverse.  For ranks
up to 26 the generators print as ``a``..``z`` and their inverses as
``A``..``Z``; larger ranks print indexed tokens ``g27``/``G27``.  All values
are immutable and every operation is a pure function, so everything here is
safe to share and to cache.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "MAX_NAMED_RANK",
    "ReducedWord",
    "CyclicWord",
    "WordError",
    "WordSyntaxError",
    "RankMismatchError",
    "parse_word",
    "power",
    "commutator",
    "cyclically_reduce",
    "abelianization",
    "count_disjoint_copies",
    "count_disjoint_copies_cyclic",
    "enumerate_reduced_words",
    "word_sort_key",
]

MAX_NAMED_RANK = 26


class WordError(ValueError):
    """Invalid word input."""


class WordSyntaxError(WordError):
    """Malformed word text; ``position`` is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class RankMismatchError(WordError):
    """Operands belong to free groups of different ranks."""


# ---------------------------------------------------------------------------
# raw code-sequence helpers (shared with the search engine)

def _reduce(codes: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    push = out.append
    pop = out.pop
    for c in codes:
        if out and out[-1] == -c:
            pop()
        else:
            push(c)
    return tuple(out)


def _join_codes(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced ``x y`` for reduced x and y: only the junction cancels."""
    k, n = 0, min(len(x), len(y))
    while k < n and x[-1 - k] == -y[k]:
        k += 1
    return x[:len(x) - k] + y[k:]


def _inv(codes: Sequence[int]) -> tuple[int, ...]:
    return tuple(-c for c in reversed(codes))


def _letter_key(code: int) -> int:
    # total order a < A < b < B < ... used for every lexicographic choice
    return 2 * code if code > 0 else 1 - 2 * code


def _word_key(codes: Sequence[int]) -> tuple[int, ...]:
    return tuple(_letter_key(c) for c in codes)


def _cyclic_split(codes: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a reduced word as conjugator + cyclically reduced core."""
    i, j = 0, len(codes)
    while j - i >= 2 and codes[i] == -codes[j - 1]:
        i += 1
        j -= 1
    return tuple(codes[:i]), tuple(codes[i:j])


def _code_str(codes: Sequence[int], rank: int) -> str:
    if rank <= MAX_NAMED_RANK:
        return "".join(chr(96 + c) if c > 0 else chr(64 - c) for c in codes)
    return "".join(f"g{c}" if c > 0 else f"G{-c}" for c in codes)


# ---------------------------------------------------------------------------
# domain types

def _coerce_codes(letters: Iterable[int], rank: int) -> tuple[int, ...]:
    codes = []
    for item in letters:
        try:
            c = operator.index(item)
        except TypeError:
            raise WordError(f"letter code {item!r} is not an integer") from None
        if c == 0 or abs(c) > rank:
            raise WordError(f"letter code {c} outside rank {rank}")
        codes.append(c)
    return tuple(codes)


@dataclass(frozen=True, slots=True, repr=False)
class ReducedWord:
    """A freely reduced word; the empty word is the group identity.

    Instances are immutable and hashable.  The constructor freely reduces
    its input, so ``ReducedWord(2, [1, -1])`` is the identity.
    """

    rank: int
    codes: tuple[int, ...]

    def __init__(self, rank: int, letters: Iterable[int] = (), *,
                 _trusted: bool = False):
        if rank < 1:
            raise WordError(f"rank must be >= 1, got {rank}")
        if _trusted:
            codes = tuple(letters)
        else:
            codes = _reduce(_coerce_codes(letters, rank))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "codes", codes)

    def is_identity(self) -> bool:
        return not self.codes

    def __len__(self) -> int:
        return len(self.codes)

    def __str__(self) -> str:
        return _code_str(self.codes, self.rank)

    def __repr__(self) -> str:
        return f"ReducedWord(rank={self.rank}, {str(self)!r})"

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        """Free reduction of ``self`` followed by ``other``."""
        rank = _same_rank(self, other)
        return ReducedWord(rank, _join_codes(self.codes, other.codes),
                           _trusted=True)

    def __invert__(self) -> "ReducedWord":
        return ReducedWord(self.rank, _inv(self.codes), _trusted=True)


@dataclass(frozen=True, slots=True, repr=False)
class CyclicWord:
    """A cyclically reduced word up to rotation.

    The stored representative is the lexicographically least rotation under
    the letter order a < A < b < B < ...; the constructor freely and
    cyclically reduces its input first, through ``cyclically_reduce``.
    ``period`` is the length of the primitive root: ``codes`` is
    ``codes[:period]`` repeated (0 for the empty word).
    """

    rank: int
    codes: tuple[int, ...]
    period: int

    def __init__(self, rank: int, letters: Iterable[int] = (), *,
                 _period: Optional[int] = None):
        # ``_period`` marks ``letters`` as a canonical core of that period
        if _period is None:
            core, _ = cyclically_reduce(ReducedWord(rank, letters))
            letters, _period = core.codes, core.period
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "codes", tuple(letters))
        object.__setattr__(self, "period", _period)

    def __len__(self) -> int:
        return len(self.codes)

    def __str__(self) -> str:
        return _code_str(self.codes, self.rank)

    def __repr__(self) -> str:
        return f"CyclicWord(rank={self.rank}, {str(self)!r})"


def _least_rotation(codes: Sequence[int]) -> tuple[int, int]:
    """``(offset, period)`` of the least rotation in the a < A < b < B order.

    ``offset`` is the least ``i`` with ``codes[i:] + codes[:i]`` least, and
    ``period`` the least ``p`` dividing ``len(codes)`` with rotation by ``p``
    fixed (0 for the empty word).  One pass of Duval's Lyndon factorization
    over the doubled word: the last run of equal Lyndon factors that starts
    in the first half starts at ``offset``, and its factor has length
    ``period``.
    """
    n = len(codes)
    keys = [_letter_key(c) for c in codes] * 2
    i = offset = period = 0
    while i < n:
        offset = i
        j, k = i + 1, i
        while j < 2 * n and keys[k] <= keys[j]:
            k = i if keys[k] < keys[j] else k + 1
            j += 1
        period = j - k
        while i <= k:
            i += period
    return offset, period


# ---------------------------------------------------------------------------
# parsing

_WS = " \t\r\n"


def parse_word(text: str, rank: int) -> ReducedWord:
    """Parse word text into its free reduction.

    Grammar: a word is a sequence of items; an item is a letter, a
    commutator ``[w1,w2]`` (meaning ``w1 w2 w1^-1 w2^-1``), or a
    parenthesized word, optionally followed by ``^`` and a signed integer
    power.  Whitespace separates nothing and is ignored.  For ranks above 26
    the indexed letters ``g<k>``/``G<k>`` are also accepted.  Text nested
    deeper than the interpreter's recursion limit, or a word too large for
    memory, raises WordSyntaxError like any other malformed text.
    """
    if rank < 1:
        raise WordError(f"rank must be >= 1, got {rank}")
    try:
        codes, pos = _parse_sequence(text, 0, rank, stop="")
        if pos == len(text):
            return ReducedWord(rank, codes)
    except RecursionError:
        # point at the first opening bracket of greatest depth
        depth = list(accumulate((c in "([") - (c in ")]") for c in text))
        raise WordSyntaxError("brackets nested too deeply",
                              depth.index(max(depth))) from None
    except MemoryError:
        raise WordSyntaxError("word is too large to build", 0) from None
    raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in _WS:
        i += 1
    return i


def _parse_sequence(text: str, i: int, rank: int, stop: str) -> tuple[list[int], int]:
    out: list[int] = []
    while True:
        i = _skip_ws(text, i)
        if i >= len(text) or text[i] in stop:
            return out, i
        item, i = _parse_item(text, i, rank)
        while True:
            j = _skip_ws(text, i)
            if j < len(text) and text[j] == "^":
                start = _skip_ws(text, j + 1)
                n, i = _parse_int(text, start)
                try:
                    item = list(_inv(item)) * (-n) if n < 0 else item * n
                except (MemoryError, OverflowError):
                    raise WordSyntaxError(
                        f"power {n} of a {len(item)}-letter word is too "
                        f"large to build", start) from None
            else:
                break
        out.extend(item)


def _parse_item(text: str, i: int, rank: int) -> tuple[list[int], int]:
    c = text[i]
    if c == "[":
        w1, i = _parse_sequence(text, i + 1, rank, stop=",")
        if i >= len(text):
            raise WordSyntaxError("unterminated commutator, expected ','", i)
        w2, i = _parse_sequence(text, i + 1, rank, stop="]")
        if i >= len(text):
            raise WordSyntaxError("unterminated commutator, expected ']'", i)
        return w1 + w2 + list(_inv(w1)) + list(_inv(w2)), i + 1
    if c == "(":
        w, i = _parse_sequence(text, i + 1, rank, stop=")")
        if i >= len(text):
            raise WordSyntaxError("unterminated group, expected ')'", i)
        return w, i + 1
    if rank > MAX_NAMED_RANK and c in "gG" and i + 1 < len(text) and text[i + 1].isdigit():
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        index = int(text[i + 1:j])
        if not 1 <= index <= rank:
            raise WordSyntaxError(f"generator {text[i:j]!r} outside rank {rank}", i)
        return [index if c == "g" else -index], j
    if "a" <= c <= "z":
        index = ord(c) - 96
        if index > rank:
            raise WordSyntaxError(f"generator {c!r} outside rank {rank}", i)
        return [index], i + 1
    if "A" <= c <= "Z":
        index = ord(c) - 64
        if index > rank:
            raise WordSyntaxError(f"generator {c!r} outside rank {rank}", i)
        return [-index], i + 1
    raise WordSyntaxError(f"unexpected character {c!r}", i)


def _parse_int(text: str, i: int) -> tuple[int, int]:
    i = _skip_ws(text, i)
    j = i
    if j < len(text) and text[j] in "+-":
        j += 1
    k = j
    while k < len(text) and text[k].isdigit():
        k += 1
    if k == j:
        raise WordSyntaxError("expected integer exponent after '^'", i)
    return int(text[i:k]), k


# ---------------------------------------------------------------------------
# group operations

def _same_rank(u, v) -> int:
    if u.rank != v.rank:
        raise RankMismatchError(f"rank {u.rank} vs rank {v.rank}")
    return u.rank


def power(u: ReducedWord, n: int) -> ReducedWord:
    codes = u.codes if n >= 0 else _inv(u.codes)
    return ReducedWord(u.rank, _reduce(codes * abs(n)), _trusted=True)


def commutator(u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """``u v u^-1 v^-1``."""
    rank = _same_rank(u, v)
    return ReducedWord(rank, _reduce(u.codes + v.codes + _inv(u.codes) + _inv(v.codes)),
                       _trusted=True)


def cyclically_reduce(u: ReducedWord) -> tuple[CyclicWord, ReducedWord]:
    """Cyclic core and conjugator, with ``u = conj * core * conj^-1`` exactly.

    The returned core is the canonical (least-rotation) representative,
    with its period from the same ``_least_rotation`` pass; the conjugator
    absorbs the rotation so the displayed identity always holds.
    """
    conj, core = _cyclic_split(u.codes)
    offset, period = _least_rotation(core)
    # core = p q and canon = q p with |p| = offset, so
    # u = (conj p) canon (conj p)^-1
    canon = core[offset:] + core[:offset]
    conj = conj + core[:offset]
    return (CyclicWord(u.rank, canon, _period=period),
            ReducedWord(u.rank, conj, _trusted=True))


def abelianization(u: ReducedWord) -> tuple[int, ...]:
    """Image of ``u`` in Z^rank (signed letter counts per generator)."""
    vec = [0] * u.rank
    for c in u.codes:
        vec[abs(c) - 1] += 1 if c > 0 else -1
    return tuple(vec)


# ---------------------------------------------------------------------------
# subword counting

def _greedy_count(w: Sequence[int], a: Sequence[int]) -> int:
    # All occurrences have the same length, so taking the earliest possible
    # endpoint at every step is optimal (exchange argument).
    k = len(w)
    n = len(a)
    w = tuple(w)
    count = 0
    i = 0
    while i + k <= n:
        if a[i:i + k] == w:
            count += 1
            i += k
        else:
            i += 1
    return count


def count_disjoint_copies(w: ReducedWord, a: ReducedWord) -> int:
    """Maximum number of pairwise disjoint copies of ``w`` inside ``a``."""
    _same_rank(w, a)
    if len(w.codes) < 2:
        raise WordError(f"pattern must have length >= 2, got {len(w.codes)}")
    return _greedy_count(w.codes, a.codes)


def _cyclic_starts(core: tuple[int, ...], k: int) -> dict[tuple[int, ...], list[int]]:
    """Every cyclic subword of length ``k`` of the nonempty ``core``, mapped
    to its start positions in ``range(len(core))``, ascending."""
    L = len(core)
    ext = core * (1 + (k + L - 2) // L)
    starts: dict[tuple[int, ...], list[int]] = {}
    for i in range(L):
        starts.setdefault(ext[i:i + k], []).append(i)
    return starts


def _cyclic_copy_rate(starts: Sequence[int], k: int, L: int
                      ) -> tuple[int, int]:
    """Per-period greedy count of a length-``k`` pattern that occurs in a
    cyclic word of length ``L`` at the ascending positions ``starts``.

    The greedy count in ``a^n`` is the greedy on the periodic word
    ``a a a ...`` cut at ``n |a|``, and its state after each copy is the
    restart position mod ``|a|``.  That state repeats within ``|a|``
    copies; over the cycle it then follows, ``c`` copies span ``D`` letters,
    and the limit is exactly ``c |a| / D``, returned as the integer pair
    ``(c |a|, D)``.  Each step bisects for the next occurrence, so a walk
    costs one step per restart state; a lone start with ``k <= L`` none.
    """
    if not starts:
        return 0, 1
    if len(starts) == 1 and k <= L:
        return L, L
    seen: dict[int, tuple[int, int]] = {}
    r = copies = span = 0
    while r not in seen:
        seen[r] = (copies, span)
        i = bisect_left(starts, r)
        nxt = starts[i] if i < len(starts) else starts[0] + L
        step = nxt - r + k
        copies += 1
        span += step
        r = (r + step) % L
    copies0, span0 = seen[r]
    return (copies - copies0) * L, span - span0


def count_disjoint_copies_cyclic(w: ReducedWord, a: CyclicWord) -> Fraction:
    """Exact per-period disjoint-copy count of ``w`` in the cyclic word ``a``.

    Returns ``lim_n count(w, a^n) / n`` as a rational, from the restart
    cycle of the greedy count (see ``_cyclic_copy_rate``).  No power of
    ``a`` is built.
    """
    _same_rank(w, a)
    if len(w.codes) < 2:
        raise WordError(f"pattern must have length >= 2, got {len(w.codes)}")
    if not a.codes:
        raise WordError("cyclic word must be nonempty")
    k = len(w.codes)
    starts = _cyclic_starts(a.codes, k).get(w.codes, ())
    return Fraction(*_cyclic_copy_rate(starts, k, len(a.codes)))


# ---------------------------------------------------------------------------
# enumeration

def _codes_up_to(rank: int, max_len: int) -> tuple[tuple[int, ...], ...]:
    """All reduced code tuples of length <= max_len, by length then lex order."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    out: list[tuple[int, ...]] = [()]
    layer: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt = []
        for word in layer:
            last = word[-1] if word else 0
            for c in letters:
                if c != -last:
                    nxt.append(word + (c,))
        out.extend(nxt)
        layer = nxt
    return tuple(out)


def _count_up_to(rank: int, max_len: int) -> int:
    """Number of reduced words of length <= max_len, in closed form: one
    empty word and ``2 rank (2 rank - 1)^(k - 1)`` words of each length k."""
    if max_len < 0:
        raise WordError(f"max_len must be >= 0, got {max_len}")
    if rank == 1:
        return 1 + 2 * max_len
    q = 2 * rank - 1
    return 1 + rank * (q ** max_len - 1) // (rank - 1)


def _unrank_codes(rank: int, index: int) -> tuple[int, ...]:
    """The word at position ``index`` of ``_codes_up_to`` order, without
    building the list: past the length classes, the first letter is a digit
    in base ``2 rank`` and each later one a digit in base ``2 rank - 1``
    over the letters that do not cancel the one before.  Letter ``+i`` sits
    at place ``2 i - 2`` of the a < A < b < B order and ``-i`` at
    ``2 i - 1``; a digit at or past the place of the cancelling letter
    skips it."""
    q = 2 * rank - 1
    length, layer = 0, 1
    while index >= layer:
        index -= layer
        length += 1
        layer = 2 * rank * q ** (length - 1)
    codes: list[int] = []
    banned = 2 * rank  # no letter is banned before the first
    for place in range(length - 1, -1, -1):
        digit, index = divmod(index, q ** place)
        digit += digit >= banned
        last = (digit // 2 + 1) * (-1 if digit % 2 else 1)
        codes.append(last)
        banned = digit + 1 - 2 * (digit % 2)  # the place of -last
    return tuple(codes)


def enumerate_reduced_words(rank: int, max_len: int) -> Iterator[ReducedWord]:
    """Yield every reduced word of length at most max_len.

    Order is canonical: by length, then lexicographic in the letter order
    a < A < b < B < ...
    """
    if rank < 1:
        raise WordError(f"rank must be >= 1, got {rank}")
    if max_len < 0:
        raise WordError(f"max_len must be >= 0, got {max_len}")
    for codes in _codes_up_to(rank, max_len):
        yield ReducedWord(rank, codes, _trusted=True)


def word_sort_key(u: ReducedWord):
    """Sort key for the canonical order: length first, then letter order."""
    return (len(u.codes), _word_key(u.codes))
