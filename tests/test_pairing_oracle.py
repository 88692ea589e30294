"""The exact cl oracle of ``pairing_oracle`` against the package's bounds."""

import json
from pathlib import Path

import pytest

from pairing_oracle import cl, cyclic_core
from scl_lab.free_words import parse_word
from scl_lab.scl_engine import (
    CommutatorCertificate,
    _genus_one_search,
    cl_lower,
    cl_upper,
)

DATA = Path(__file__).resolve().parent / "data"


def commutator_subgroup_words(max_len):
    """Every nonempty reduced word of [F_2, F_2] with at most ``max_len``
    letters, as a string; a prefix grows only while its exponent sums can
    still return to zero."""
    out = []

    def grow(word, a, b):
        if word and not a and not b:
            out.append(word)
        room = max_len - len(word) - 1
        for x, da, db in (("a", 1, 0), ("A", -1, 0), ("b", 0, 1),
                          ("B", 0, -1)):
            if (not word or word[-1] != x.swapcase()) \
                    and abs(a + da) + abs(b + db) <= room:
                grow(word + x, a + da, b + db)

    grow("", 0, 0)
    return out


class TestOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_culler_closed_form(self, n):
        # Culler: cl([a,b]^n) = n // 2 + 1
        assert cl("abAB" * n) == n // 2 + 1

    @pytest.mark.parametrize("word,expected", [
        ("", 0), ("aA", 0), ("ab", None), ("aab", None), ("abAB", 1),
        ("cabABC", 1), ("abABcdCD", 2), ("abcABC", 1), ("aabAAB", 1)])
    def test_hand_values(self, word, expected):
        # abcABC = [ab, cA] in Wicks' form X Y Z X^-1 Y^-1 Z^-1, and
        # aabAAB = [aa, b]; [a,b][c,d] has genus 2
        assert cl(word) == expected

    def test_conjugation_does_not_change_cl(self):
        for word in ("abABabAB", "abcABC", "aabAAB"):
            assert {cl(g + word + g.swapcase()[::-1])
                    for g in ("", "a", "bA", "Cab")} == {cl(word)}


def test_wicks_scan_is_exact_up_to_twelve_letters():
    # all 19,880 words: the scan hits exactly where cl is 1, and every
    # pair it returns multiplies out to the word
    words = commutator_subgroup_words(12)
    assert len(words) == 19880
    hits = 0
    for text in words:
        a = parse_word(text, 2)
        found = _genus_one_search(a)
        assert (found is not None) == (cl(text) == 1), text
        if found is not None:
            CommutatorCertificate(a, (found,))
            hits += 1
    assert hits == 14064


def test_cl_bounds_bracket_exact_cl_up_to_ten_letters():
    # cl_lower <= cl <= the certified upper; genus 1 is exact, and at the
    # default budgets every word here gets a certificate
    below = 0
    words = commutator_subgroup_words(10)
    for text in words:
        a = parse_word(text, 2)
        exact, lower, cert = cl(text), cl_lower(a), cl_upper(a)
        assert lower <= exact <= cert.genus, text
        assert (cert.genus == 1) == (exact == 1), text
        below += lower < exact
    assert (len(words), below) == (2600, 264)


def golden_cl_records():
    """The ``cl`` records of both golden corpora, as (word, lower, upper);
    a bound is None where the record has none (outside [F, F], or a budget
    stop)."""
    out = []
    for name in ("cl_scl_golden.json", "genus_one_golden.json"):
        for record in json.loads((DATA / name).read_text(encoding="utf-8")):
            argv = record["argv"]
            if argv[0] != "cl":
                continue
            flags = dict(zip(argv[1::2], argv[2::2]))
            text = str(parse_word(flags["--word"], int(flags.get("--rank", 2))))
            result = json.loads(record["stdout"] or "{}").get("result", {})
            out.append((text, result.get("lower"), result.get("upper")))
    return out


def test_golden_cl_records_bracket_exact_cl():
    # cores of up to 26 letters; the oracle needs at most about 0.02 s each
    records = golden_cl_records()
    assert len(records) >= 110
    assert max(len(cyclic_core(text)) for text, _, _ in records) >= 26
    for text, lower, upper in records:
        exact = cl(text)
        if exact is None:  # outside the commutator subgroup
            assert lower is None and upper is None, text
            continue
        assert lower is None or lower <= exact, text
        assert upper is None or exact <= upper, text
        assert (upper == 1) == (exact == 1), text
