import hashlib
import itertools
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairing_oracle import cl as exact_cl
from scl_lab import free_words, scl_engine
from scl_lab.free_words import (
    ReducedWord,
    _codes_up_to,
    _count_up_to,
    _cyclic_starts,
    _inv,
    _least_rotation,
    _reduce,
    commutator,
    cyclically_reduce,
    enumerate_reduced_words,
    parse_word,
    power,
    word_sort_key,
)
from scl_lab.quasimorphisms import (
    HOMOGENEOUS_BROOKS_DEFECT,
    brooks_homogeneous_exact,
)
from scl_lab.scl_engine import (
    DEFAULT_MAX_LEN,
    DEFAULT_PAIR_BUDGET,
    CertificateError,
    CommutatorCertificate,
    NotInCommutatorSubgroupError,
    SearchBudgetError,
    _base,
    _commutator_value_index,
    _decode,
    _encode,
    _genus_one_search,
    _genus_two_search,
    _indexed,
    _pack,
    _prefix_range,
    _unpack,
    cl_lower,
    cl_upper,
    default_brooks_dictionary,
    scl_lower_bavard,
    scl_report,
    scl_upper_from_power,
)


def w(text, rank=2):
    return parse_word(text, rank)


def random_reduced(rng, rank, length):
    choices = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    letters = []
    last = 0
    for _ in range(length):
        c = rng.choice([x for x in choices if x != -last])
        letters.append(c)
        last = c
    return ReducedWord(rank, letters)


class TestCommutatorCertificate:
    def test_verifies_on_construction(self):
        cert = CommutatorCertificate(w("abAB"), ((w("a"), w("b")),))
        assert cert.genus == 1

    def test_known_two_commutator_expression_for_the_cube(self):
        cube = w("[a,b]^3")
        cert = CommutatorCertificate(
            cube, ((w("abA"), w("BabAA")), (w("Bab"), w("bb"))))
        assert cert.genus == 2

    def test_rejects_wrong_product(self):
        with pytest.raises(CertificateError):
            CommutatorCertificate(w("abAB"), ((w("a"), w("a")),))

    def test_rejects_rank_mismatch(self):
        with pytest.raises(CertificateError):
            CommutatorCertificate(w("abAB"), ((w("a", 3), w("b", 3)),))

    def test_empty_certificate_is_the_identity(self):
        assert CommutatorCertificate(w(""), ()).genus == 0
        with pytest.raises(CertificateError):
            CommutatorCertificate(w("abAB"), ())


class TestClUpper:
    def test_single_commutator(self):
        cert = cl_upper(w("[a,b]"))
        assert cert.genus == 1
        assert cert.pairs == ((w("a"), w("b")),)

    def test_identity(self):
        assert cl_upper(w("")).genus == 0

    def test_not_in_commutator_subgroup(self):
        with pytest.raises(NotInCommutatorSubgroupError):
            cl_upper(w("ab"))

    def test_genus_one_complete_against_brute_force(self):
        # every length <= 4 word that is a commutator with length <= 3
        # entries must be found, and nothing else may be claimed
        from scl_lab.free_words import abelianization, enumerate_reduced_words
        brute = set()
        vocab = [u for u in enumerate_reduced_words(2, 3) if len(u) >= 1]
        for u in vocab:
            for v in vocab:
                c = commutator(u, v)
                if 0 < len(c) <= 4:
                    brute.add(c)
        for a in enumerate_reduced_words(2, 4):
            if len(a) < 1 or any(abelianization(a)):
                continue
            hit = cl_upper(a, max_genus=1, max_len=3)
            if a in brute:
                assert hit is not None and hit.genus == 1
            else:
                assert hit is None

    def test_genus_one_misses_genuine_genus_two(self):
        assert cl_upper(w("[a,b]^3"), max_genus=1, max_len=5) is None

    def test_genus_two_recovers_products_of_commutators(self):
        rng = random.Random(101)
        for _ in range(8):
            u1 = random_reduced(rng, 2, rng.randrange(1, 3))
            v1 = random_reduced(rng, 2, rng.randrange(1, 3))
            u2 = random_reduced(rng, 2, rng.randrange(1, 3))
            v2 = random_reduced(rng, 2, rng.randrange(1, 3))
            target = commutator(u1, v1) * commutator(u2, v2)
            cert = cl_upper(target, max_genus=2, max_len=4)
            assert cert is not None
            assert cert.genus <= 2

    def test_deterministic(self):
        a = w("[a,b]^2")
        c1 = cl_upper(a, max_len=4)
        c2 = cl_upper(a, max_len=4)
        assert c1.pairs == c2.pairs

    def test_budget_guard(self):
        with pytest.raises(SearchBudgetError):
            cl_upper(w("[a,b]^3"), max_genus=2, max_len=6, pair_budget=1000)

    def test_genus_cap(self):
        with pytest.raises(ValueError):
            cl_upper(w("abAB"), max_genus=3)

    def test_negative_pair_budget_rejected(self):
        # rejected before any search, also for a word genus 1 answers
        for text in ("[a,b]", "[a,b]^2"):
            with pytest.raises(ValueError,
                               match="pair_budget must be >= 0, got -1"):
                cl_upper(w(text), pair_budget=-1)

    @pytest.mark.parametrize("text,budgets,message", [
        ("", {"max_len": -5}, "max_len must be >= 1, got -5"),
        ("", {"max_genus": -1}, "max_genus must be >= 0, got -1"),
        ("ab", {"pair_budget": -3}, "pair_budget must be >= 0, got -3"),
        ("ab", {"max_genus": 9},
         "search supports genus at most 2, got max_genus 9"),
    ], ids=["identity-max-len", "identity-genus", "outside-pair-budget",
            "outside-genus"])
    def test_budgets_checked_before_early_answers(self, text, budgets,
                                                  message):
        # the identity and words outside [F, F] need no search, but the
        # budgets are checked first, so the error names the budget
        with pytest.raises(ValueError, match=message):
            cl_upper(w(text), **budgets)

    def test_genus_subadditivity_spot_check(self):
        # the searches are complete for their budget, so a product can
        # never need more genus than its factors together provide
        rng = random.Random(303)
        checked = 0
        for _ in range(10):
            u = commutator(random_reduced(rng, 2, 2), random_reduced(rng, 2, 2))
            v = commutator(random_reduced(rng, 2, 2), random_reduced(rng, 2, 2))
            certs = [cl_upper(x, max_genus=2, max_len=4) for x in (u, v, u * v)]
            if any(c is None for c in certs):
                continue
            assert certs[2].genus <= certs[0].genus + certs[1].genus
            checked += 1
        assert checked >= 5


def words(max_size):
    return st.builds(lambda letters: ReducedWord(2, letters), st.lists(
        st.sampled_from([1, -1, 2, -2]), max_size=max_size))


@lru_cache(maxsize=None)
def brute_force_values(rank, max_len):
    """Every single-commutator value with entries within ``max_len``, packed,
    from ``_reduce`` over all vocabulary pairs: (sorted list, set)."""
    vocab = [c for c in _codes_up_to(rank, max_len) if c]
    values = set()
    for u in vocab:
        for v in vocab:
            c = _reduce(u + v + _inv(u) + _inv(v))
            if c:
                values.add(_pack(c))
    return sorted(values, key=lambda k: (len(k), k)), values


def full_walk_genus_two(a, max_len):
    """Reference genus-2 lookup: walk the brute-force value set in
    (len, bytes) order and rebuild the first hit."""
    ordered, seen = brute_force_values(a.rank, max_len)
    for key in ordered:
        first = _unpack(key)
        rest = _reduce(_inv(first) + a.codes)
        if rest and _pack(rest) in seen:
            return tuple(
                _genus_one_search(ReducedWord(a.rank, c, _trusted=True))
                for c in (first, rest))
    return None


def signed_permutation_images(keys, rank):
    """All images of packed words under the 2^rank rank! signed letter
    permutations; small ranks only."""
    images = set()
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            table = bytearray(range(256))
            for g in range(1, rank + 1):
                image = signs[g - 1] * perm[g - 1]
                table[64 + g] = 64 + image
                table[64 - g] = 64 - image
            images.update(key.translate(bytes(table)) for key in keys)
    return images


def genus_two_corpus(rng, max_len, count):
    """Products of two commutators, their conjugates (which often need
    longer entries) and Culler's powers [a,b]^n."""
    def entry():
        return random_reduced(rng, 2, rng.randrange(1, max_len + 1))

    corpus = [power(w("[a,b]"), n) for n in range(1, 7)]
    while len(corpus) < count:
        product = commutator(entry(), entry()) * commutator(entry(), entry())
        g = random_reduced(rng, 2, rng.randrange(0, 3))
        corpus.append(g * product * ~g)
    return corpus


class TestGenusTwoLookup:
    @pytest.mark.parametrize("max_len", [3, 4])
    def test_matches_full_walk_on_seeded_corpus(self, max_len):
        outcomes = set()
        for a in genus_two_corpus(random.Random(7 + max_len), max_len, 60):
            expected = full_walk_genus_two(a, max_len)
            assert _genus_two_search(a, max_len, DEFAULT_PAIR_BUDGET) \
                == expected, str(a)
            outcomes.add(expected is None)
        assert outcomes == {True, False}  # the corpus has hits and misses

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(words(16), st.builds(
        lambda u1, v1, u2, v2: commutator(u1, v1) * commutator(u2, v2),
        words(3), words(3), words(3), words(3))))
    def test_matches_full_walk_on_random_words(self, a):
        assert _genus_two_search(a, 3, DEFAULT_PAIR_BUDGET) \
            == full_walk_genus_two(a, 3)

    @pytest.mark.parametrize("max_len", [2, 3])
    def test_matches_full_walk_at_rank_three(self, max_len):
        # representatives there may use a generator the prefix lacks, so
        # one range maps back under several relabellings
        rng = random.Random(31 + max_len)
        outcomes = set()
        for _ in range(12):
            e = [random_reduced(rng, 3, rng.randrange(1, max_len + 1))
                 for _ in range(4)]
            g = random_reduced(rng, 3, rng.randrange(0, 3))
            a = g * commutator(e[0], e[1]) * commutator(e[2], e[3]) * ~g
            expected = full_walk_genus_two(a, max_len)
            assert _genus_two_search(a, max_len, DEFAULT_PAIR_BUDGET) \
                == expected, str(a)
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_rank_ten_query_without_the_group(self):
        # the signed permutations of rank 10 number 3,715,891,200; the
        # index stores one word and the lookup maps back only the
        # generators a word uses
        rank, max_len = 10, 1
        start = time.perf_counter()
        for text, hit in (("[a,b][c,d]", True), ("[j,c][e,a]", True),
                          ("[a,b][c,d][e,f]", False)):
            a = parse_word(text, rank)
            found = _genus_two_search(a, max_len, DEFAULT_PAIR_BUDGET)
            assert found == full_walk_genus_two(a, max_len), text
            assert (found is not None) == hit, text
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"rank-10 queries took {elapsed:.2f}s"
        assert len(_commutator_value_index(rank, max_len)[0]) == 1

    def test_culler_oracle_at_default_budgets(self):
        # Culler: cl([a,b]^n) = n // 2 + 1, so genus 2 is exact for n = 2, 3
        # and no genus-2 certificate exists for n >= 4; a hit there would
        # be a soundness bug
        _commutator_value_index(2, DEFAULT_MAX_LEN)  # shared, cached build
        for n in (2, 3):
            assert cl_upper(power(w("[a,b]"), n)).genus == 2
        start = time.perf_counter()
        for n in range(4, 9):
            assert cl_upper(power(w("[a,b]"), n)) is None
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"five misses took {elapsed:.2f}s"


def genus_one_corpus(rng, rank, max_len, count):
    """Nontrivial commutators with entries within ``max_len``, conjugated by
    up to 5 letters, their squares, and reduced words of 4 to 11 letters
    (most of them misses, some outside the commutator subgroup)."""
    def entry():
        return random_reduced(rng, rank, rng.randrange(1, max_len + 1))

    corpus = []
    while len(corpus) < count:
        kind = rng.randrange(4)
        if kind == 3:
            corpus.append(random_reduced(rng, rank, rng.randrange(4, 12)))
            continue
        a = commutator(entry(), entry())
        if kind >= 1:
            g = random_reduced(rng, rank, rng.randrange(1, 6))
            a = g * a * ~g
        if kind == 2:
            a = a * a
        if a.codes:
            corpus.append(a)
    return corpus


def proper_power_corpus(rng, rank, max_len, count):
    """Commutators [h r^m h^-1, v] with a root r of 1 or 2 letters and
    m = 2 or 3, half of them conjugated by h r^j w with |w| = 6 to 8."""
    corpus = []
    while len(corpus) < count:
        r, _ = cyclically_reduce(
            random_reduced(rng, rank, rng.randrange(1, 3)))
        h = random_reduced(rng, rank, rng.randrange(3))
        u = h * ReducedWord(rank, r.codes * rng.randrange(2, 4)) * ~h
        a = commutator(u, random_reduced(rng, rank,
                                         rng.randrange(1, max_len + 1)))
        if rng.randrange(2):
            g = (h * ReducedWord(rank, r.codes * rng.randrange(1, 3))
                 * random_reduced(rng, rank, rng.randrange(6, 9)))
            a = g * a * ~g
        if a.codes:
            corpus.append(a)
    return corpus


def first_wicks_split(a: ReducedWord):
    """Reference for the scan order: ``(r, X, Y, Z)`` for the first
    rotation ``r`` of the core below its period, then ``|X|``, then
    ``|Z|``, with the rotation equal to ``X Y Z X^-1 Y^-1 Z^-1`` as
    written; whole words are compared, with no letter test first."""
    core, _ = cyclically_reduce(a)
    n = len(core)
    base = a.codes[(len(a) - n) // 2:][:n]  # the core as a reads it
    for r in range(core.period):
        R = base[r:] + base[:r]
        for x in range(n // 2 + 1):
            for z in range(n // 2 - x + 1):
                X, Y = R[:x], R[x:n // 2 - z]
                Z = R[n // 2 - z:n // 2]
                if R == X + Y + Z + _inv(X) + _inv(Y) + _inv(Z):
                    return r, X, Y, Z
    return None


class TestWicksScan:
    @pytest.mark.parametrize("rank,max_len,count", [
        (1, 4, 10), (2, 2, 40), (2, 3, 40), (2, 4, 40), (2, 5, 30),
        (2, 6, 20), (3, 2, 30), (3, 3, 30), (3, 4, 15), (3, 5, 10)])
    def test_matches_the_pairing_oracle_on_seeded_corpus(self, rank, max_len,
                                                         count):
        # hits are certified; a core of 20 letters or fewer is also judged
        # by exact cl, and a longer one is a commutator's square, which a
        # free group never writes as one commutator
        rng = random.Random(1000 * rank + max_len)
        outcomes = set()
        for a in genus_one_corpus(rng, rank, max_len, count):
            found = _genus_one_search(a)
            if found is not None:
                CommutatorCertificate(a, (found,))
            core, _ = cyclically_reduce(a)
            if len(core) <= 20:
                assert (found is not None) == (exact_cl(str(a)) == 1), str(a)
            else:
                assert found is None, str(a)
            outcomes.add(found is None)
        assert outcomes == ({True} if rank == 1 else {True, False})

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        words(12),
        st.builds(lambda u, v, g: g * commutator(u, v) * ~g,
                  words(4), words(4), words(5))))
    def test_matches_the_pairing_oracle_on_random_words(self, a):
        found = _genus_one_search(a)
        assert (found is not None) == (exact_cl(str(a)) == 1)
        if found is not None:
            CommutatorCertificate(a, (found,))

    @pytest.mark.parametrize("rank,max_len", [(2, 2), (2, 3), (3, 2)])
    def test_every_value_is_found(self, rank, max_len):
        # every nontrivial [u, v] with entries within max_len
        vocab = [c for c in _codes_up_to(rank, max_len) if c]
        values = {_reduce(u + v + _inv(u) + _inv(v))
                  for u in vocab for v in vocab} - {()}
        for codes in values:
            a = ReducedWord(rank, codes, _trusted=True)
            found = _genus_one_search(a)
            assert found is not None, str(a)
            CommutatorCertificate(a, (found,))

    def test_proper_power_entries_and_long_conjugators(self):
        # u = h r^m h^-1 is a proper power, and half the targets are
        # conjugated by h r^j w with 6 to 8 letters in w
        corpus = [parse_word(text, rank) for text, rank in (
            ("[abaaBA,b]", 2), ("[abaaBA,bab]", 2), ("[baBBAB,aBa]", 2),
            ("[abccBA,cab]", 3), ("[acbbCA,b]", 3))]
        for rank, max_len, count in ((2, 3, 30), (2, 6, 30), (3, 3, 30),
                                     (3, 6, 10)):
            corpus += proper_power_corpus(random.Random(7 * rank + max_len),
                                          rank, max_len, count)
        for a in corpus:
            found = _genus_one_search(a)
            assert found is not None, str(a)
            CommutatorCertificate(a, (found,))

    def test_returns_the_first_split_in_the_documented_order(self):
        rng = random.Random(26)
        corpus = genus_one_corpus(rng, 2, 4, 60) + genus_one_corpus(
            rng, 3, 3, 40) + proper_power_corpus(rng, 2, 4, 20)
        corpus += [power(w("[a,b]"), k) for k in (1, 2, 3)]
        hits = 0
        for a in corpus:
            split = first_wicks_split(a)
            found = _genus_one_search(a)
            assert (found is None) == (split is None), str(a)
            if split is None:
                continue
            hits += 1
            r, X, Y, Z = split
            core, _ = cyclically_reduce(a)
            n = len(core)
            g = ReducedWord(a.rank, a.codes[:(len(a) - n) // 2]
                            + a.codes[(len(a) - n) // 2:][:r])
            u, v = ReducedWord(a.rank, X + Y), ReducedWord(a.rank, Z + _inv(X))
            assert found == (g * u * ~g, g * v * ~g), str(a)
        assert hits >= 60

    @pytest.mark.parametrize("text,pair", [
        ("[a,b]", ("a", "b")),
        ("[b,a]", ("b", "a")),
        ("c[a,b]C", ("caC", "cbC")),
        ("bABa", ("b", "A")),
        ("[ab,ba]", ("ab", "ba")),
    ])
    def test_pinned_pairs(self, text, pair):
        a = w(text, rank=3)
        assert tuple(map(str, _genus_one_search(a))) == pair

    def test_long_words_and_their_powers_are_cheap(self):
        # a split needs the first half of a rotation to hold half the
        # letters of each generator, and a proper power is never a
        # commutator; reading every rotation took 2.4 s for the
        # 2,000-letter miss and 4.5 s for the fourth power of 1,000 letters
        rng = random.Random(2000)
        e = [random_reduced(rng, 2, 250) for _ in range(6)]
        g = random_reduced(rng, 2, 9)
        hit = g * commutator(e[0], e[1]) * ~g
        miss = commutator(e[2], e[3]) * commutator(e[4], e[5])
        assert len(cyclically_reduce(miss)[0]) >= 1900
        start = time.perf_counter()
        CommutatorCertificate(hit, (_genus_one_search(hit),))
        for a in (miss, power(hit, 2), power(hit, 4)):
            assert _genus_one_search(a) is None
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"2,000-letter scans took {elapsed:.2f}s"

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_identity_is_no_genus_one_value(self, rank):
        assert _genus_one_search(ReducedWord(rank, ())) is None

    def test_no_vocabulary_and_no_rank_sized_work(self, monkeypatch):
        # the scan reads the word alone: no enumeration, at any rank
        def refuse(rank, max_len):
            raise AssertionError(f"_codes_up_to({rank}, {max_len})")

        for module in (free_words, scl_engine):
            monkeypatch.setattr(module, "_codes_up_to", refuse)
        start = time.perf_counter()
        for rank in (10, 10 ** 6):
            a = parse_word("[a,b][c,d][e,f][g,h]", rank)
            assert _genus_one_search(a) is None
            found = _genus_one_search(parse_word("[abcde,fghij]", rank))
            assert found == (parse_word("abcde", rank),
                             parse_word("fghij", rank))
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"rank-sized scans took {elapsed:.2f}s"


def decoded_index(rank, max_len):
    """The words of the index, packed, in index order."""
    ordered, bounds = _commutator_value_index(rank, max_len)
    return [word for length, (lo, hi) in bounds.items()
            for word in _decode(ordered[lo:hi], length, rank)]


@st.composite
def same_length_words(draw):
    """A rank from 1 to 63 and two packed words of one length from 0 to
    4 max_len, the longest value; keys pass 64 bits from rank 3 on, and
    ranks 1, 2, 3 to 8 and 9 to 63 take bases 2, 4, 16 and 256."""
    rank = draw(st.integers(1, 63))
    length = draw(st.integers(0, 4 * DEFAULT_MAX_LEN))
    letters = st.sampled_from(
        [s * g for g in range(1, rank + 1) for s in (1, -1)])
    return rank, [_pack(tuple(draw(st.lists(
        letters, min_size=length, max_size=length)))) for _ in range(2)]


class TestKeys:
    @settings(max_examples=300, deadline=None)
    @given(same_length_words())
    def test_keys_round_trip_and_keep_byte_order(self, case):
        rank, words = case
        keys = [_encode(word, rank) for word in words]
        assert _decode(keys, len(words[0]), rank) == words
        assert all(0 <= k < _base(rank) ** len(words[0]) for k in keys)
        assert (keys[0] < keys[1]) == (words[0] < words[1])

    def test_wide_keys_make_a_list(self, monkeypatch):
        # at rank 2 keys pass 64 bits only from max_len 9, 775 million
        # pairs, so the limit is lowered here: 4 max_len = 12 base-4 digits
        # take 24 bits
        build = _commutator_value_index.__wrapped__
        ordered, bounds = build(2, 3)
        assert ordered.typecode == "Q"
        monkeypatch.setattr(scl_engine, "_WORD_KEYS", 1 << 20)
        wide, wide_bounds = build(2, 3)
        assert isinstance(wide, list) and max(wide) >= 1 << 20
        assert (wide, wide_bounds) == (ordered.tolist(), bounds)

    def test_default_budget_keeps_word_keys(self):
        # the largest max_len the default pair budget admits, at each rank
        # from 2 to 63, builds an array("Q"), and the next one is refused;
        # at rank 1 every max_len is admitted, but every commutator is
        # trivial, so the index holds no key
        for rank in range(2, 64):
            max_len = 1
            while True:
                n = _count_up_to(rank, max_len + 1) - 1
                if n * (n - 1) // 2 > DEFAULT_PAIR_BUDGET:
                    break
                max_len += 1
            assert _base(rank) ** (4 * max_len) <= 1 << 64, (rank, max_len)
            ordered, _ = (_commutator_value_index(rank, max_len) if rank == 2
                          else _commutator_value_index.__wrapped__(rank,
                                                                  max_len))
            assert ordered.typecode == "Q", (rank, max_len)
            with pytest.raises(SearchBudgetError):
                _genus_two_search(w("[a,b]", rank), max_len + 1,
                                  DEFAULT_PAIR_BUDGET)
        assert _commutator_value_index.__wrapped__(1, 17) == ([], {})


class TestOrbitIndex:
    # rank 1 has no nontrivial value; at rank 4 and max_len 2 no u uses
    # every generator, so every value needs relabelling, even where no
    # junction cancels
    @pytest.mark.parametrize("rank,max_len", [
        (1, 4), (1, 5), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
    def test_orbits_expand_to_the_brute_force_values(self, rank, max_len):
        ordered = decoded_index(rank, max_len)
        assert ordered == sorted(set(ordered), key=lambda k: (len(k), k))
        assert signed_permutation_images(ordered, rank) \
            == brute_force_values(rank, max_len)[1]
        # one word per orbit, the least in byte order
        assert len({frozenset(signed_permutation_images([k], rank))
                    for k in ordered}) == len(ordered)
        assert all(k == min(signed_permutation_images([k], rank))
                   for k in ordered)

    @pytest.mark.parametrize("rank,max_len", [
        (1, 4), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (2, DEFAULT_MAX_LEN)])
    def test_bounds_split_ordered_into_length_classes(self, rank, max_len):
        keys, bounds = _commutator_value_index(rank, max_len)
        ordered = decoded_index(rank, max_len)
        assert list(bounds) == sorted(bounds)
        assert set(bounds) == {len(k) for k in ordered}
        end = 0
        for length, (lo, hi) in bounds.items():
            assert lo == end < hi
            assert {len(k) for k in ordered[lo:hi]} == {length}
            assert all(x < y for x, y in zip(ordered[lo:hi],
                                             ordered[lo + 1:hi]))
            assert all(x < y for x, y in zip(keys[lo:hi], keys[lo + 1:hi]))
            assert [_encode(k, rank) for k in ordered[lo:hi]] \
                == list(keys[lo:hi])
            end = hi
        assert end == len(ordered) == len(keys)

    def test_default_index_is_pinned(self):
        # recorded from the build that relabelled every value; the shared,
        # cached build of the default budget
        _, bounds = _commutator_value_index(2, DEFAULT_MAX_LEN)
        ordered = decoded_index(2, DEFAULT_MAX_LEN)
        assert len(ordered) == 231311
        assert len(set(ordered)) == len(ordered)
        assert bounds[4] == (0, 1) and bounds[24] == (181625, 231311)
        assert hashlib.sha256(b"\n".join(ordered)).hexdigest() == (
            "dc9d647fc3b2318f64e31361506097d6c6534a6696799f3b6e70f5046723e62f")

    @pytest.mark.parametrize("rank,max_len", [(2, 3), (3, 2), (9, 1)])
    def test_membership_is_the_brute_force_membership(self, rank, max_len):
        # every reduced word up to the longest value, 4 max_len, through
        # the key of its canonical form and one bisection in its length
        # class; odd lengths and length 2 have no class
        ordered, bounds = _commutator_value_index(rank, max_len)
        _, full = brute_force_values(rank, max_len)
        letters = [_pack((s * g,)) for g in range(1, rank + 1)
                   for s in (1, -1)]
        level, checked, hits = [b""], 0, 0
        for length in range(1, 4 * max_len + 1):
            grown = []
            # packed inverse letters sum to 128
            for word in (u + x for u in level for x in letters
                         if not u or u[-1] + x[0] != 128):
                found = _indexed(ordered, bounds, rank, word)
                assert found == (word in full), word
                hits += found
                checked += 1
                if length < 4 * max_len:
                    grown.append(word)
            level = grown
        assert hits == len(full)
        assert checked == _count_up_to(rank, 4 * max_len) - 1

    @pytest.mark.parametrize("rank,max_len", [(2, 3), (3, 2), (9, 1)])
    def test_prefix_ranges_are_the_sorted_full_ranges(self, rank, max_len):
        ordered, bounds = _commutator_value_index(rank, max_len)
        full, _ = brute_force_values(rank, max_len)
        lengths = sorted({len(k) for k in full})
        for codes in _codes_up_to(rank, 3):
            prefix = _pack(codes)
            for length in [1, 2, 3] + lengths + [lengths[-1] + 2]:
                expected = [k for k in full
                            if len(k) == length and k.startswith(prefix)]
                assert _prefix_range(ordered, bounds, rank, length, prefix) \
                    == expected, (codes, length)

    def test_empty_prefix_reads_the_whole_class(self):
        ordered, bounds = _commutator_value_index(3, 2)
        full, _ = brute_force_values(3, 2)
        for length in (0, 2, 4, 6, 8, 10):
            assert _prefix_range(ordered, bounds, 3, length, b"") \
                == [k for k in full if len(k) == length]

    def test_build_keeps_only_the_sorted_keys(self):
        # what the build leaves allocated is 8 bytes a key, in one array,
        # and the bounds; separate bytes keys would add about 600 %
        build = _commutator_value_index.__wrapped__
        build(2, 5)  # fills the helper caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ordered, bounds = build(2, 5)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ordered) == 23561 and ordered.itemsize == 8
        floor = 8 * len(ordered) + sys.getsizeof(bounds)
        assert abs(kept / floor - 1) <= 0.05, (kept, floor)

    def test_default_build_memory(self):
        # separate packed bytes keys kept about 14 MB and peaked at 17 MB
        build = _commutator_value_index.__wrapped__
        build(2, 5)  # fills the helper caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ordered, bounds = build(2, DEFAULT_MAX_LEN)
            kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(ordered) == 231311
        assert kept <= 2.5e6 and peak <= 8e6, (kept, peak)


class TestLowerBounds:
    def test_cl_lower_values(self):
        assert cl_lower(w("")) == 0
        assert cl_lower(w("[a,b]")) == 1
        # homogeneous value 13 at the 13th power forces genus 2
        assert cl_lower(w("[a,b]^13")) == 2

    def test_cl_lower_rejects_nonzero_abelianization(self):
        for check in (cl_lower, cl_upper):
            with pytest.raises(NotInCommutatorSubgroupError) as info:
                check(w("aab", 3))
            assert str(info.value) == "aab has nonzero abelianization (2, 1, 0)"

    def test_membership_does_not_grow_with_the_rank(self):
        # the letters the word uses are counted, not a vector of rank
        # entries, which took 15 MB at rank 10^6
        a = parse_word("[a,b]^2", 10 ** 6)
        tracemalloc.start()
        try:
            report = scl_report(a, max_len=2)
            with pytest.raises(SearchBudgetError):
                cl_upper(a, max_len=2)
            assert cl_lower(a) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "inconclusive"
        assert peak < 1e6, peak
        assert scl_report(w("aab")).status == "not_in_commutator_subgroup"

    def test_non_member_error_is_spelled_only_when_read(self):
        # the error holds the word; its text, with the rank-sized
        # abelianization, took a 16 MB peak at rank 10^6 when it was built
        # at the raise
        a = parse_word("ab", 10 ** 6)
        tracemalloc.start()
        try:
            with pytest.raises(NotInCommutatorSubgroupError) as info:
                cl_upper(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak
        assert info.value.word == a

    def test_bavard_documented(self):
        bound, witness = scl_lower_bavard(w("[a,b]"))
        assert bound == Fraction(1, 12)
        assert str(witness) == "ab"

    def test_bavard_scales_with_powers(self):
        bound3, _ = scl_lower_bavard(w("[a,b]^3"))
        assert bound3 == Fraction(3, 12)

    @settings(max_examples=150, deadline=None)
    @given(words(12))
    def test_bavard_homogeneous_over_fixed_dictionary(self, a):
        # scl(a^k) = k scl(a), and so is each homogeneous Brooks value; a^k
        # may have longer cyclic subwords, so its bound can only be larger
        dictionary = default_brooks_dictionary(a)
        bound, _ = scl_lower_bavard(a)
        values = [brooks_homogeneous_exact(p, a) for p in dictionary]
        for k in range(1, 5):
            core, _ = cyclically_reduce(power(a, k))
            assert [brooks_homogeneous_exact(p, core) for p in dictionary] \
                == [k * value for value in values]
            assert scl_lower_bavard(core)[0] >= k * bound

    def test_default_dictionary(self):
        d = default_brooks_dictionary(w("[a,b]"))
        texts = [str(u) for u in d]
        assert "ab" in texts and "abAB" in texts and "aa" in texts
        assert all(2 <= len(u) <= 6 for u in d)
        assert len(set(d)) == len(d)
        keys = [word_sort_key(u) for u in d]
        assert keys == sorted(keys)


def doubled_slice_dictionary(a):
    """Reference default dictionary, built as it was before the start
    tables: every rotation of the doubled core sliced at each length
    2..min(6, |core|), plus every reduced two-letter word, sorted."""
    core, _ = cyclically_reduce(a)
    L = len(core)
    doubled = core.codes * 2
    subwords = {doubled[i:i + ell] for ell in range(2, min(6, L) + 1)
                for i in range(L)}
    subwords |= {u.codes for u in enumerate_reduced_words(a.rank, 2)
                 if len(u) >= 2}
    return tuple(sorted((ReducedWord(a.rank, c) for c in subwords),
                        key=word_sort_key))


def per_pattern_bavard(a):
    """Reference Bavard scan, as it was before the start tables: one
    ``brooks_homogeneous_exact`` call per pattern of the reference
    dictionary, in its order, keeping the first pattern that attains the
    bound."""
    core, _ = cyclically_reduce(a)
    best = Fraction(0)
    witness = None
    for pattern in doubled_slice_dictionary(a):
        value = abs(brooks_homogeneous_exact(pattern, core))
        bound = value / (2 * HOMOGENEOUS_BROOKS_DEFECT)
        if bound > best:
            best = bound
            witness = pattern
    return best, witness


def primitive_root(rng, rank, length):
    """A random cyclically reduced word of ``length`` letters that is no
    proper power."""
    while True:
        root, _ = cyclically_reduce(random_reduced(rng, rank, length))
        if len(root) == length and _least_rotation(root.codes)[1] == length:
            return ReducedWord(root.rank, root.codes)


def conjugated_powers(rng):
    """Conjugated proper powers whose primitive root is shorter than,
    exactly or longer than the 6 letters of the longest default pattern."""
    x = w("a", rank=1)
    corpus = [power(x, c) * power(x, k) * ~power(x, c)
              for k in (2, 5, 9) for c in (0, 2)]
    for rank in (2, 3):
        for length in (2, 3, 5, 6, 6, 7, 9, 13):
            root = primitive_root(rng, rank, length)
            a = power(root, rng.randrange(2, 8))
            c = random_reduced(rng, rank, rng.randrange(4))
            corpus.append(c * a * ~c)
    return corpus


def pinned_bavard_corpus():
    """300 seeded words of ranks 1 to 3, about two thirds of them
    conjugated proper powers up to the 5th."""
    rng = random.Random(1991)
    corpus = []
    for _ in range(300):
        rank = rng.choice((1, 2, 3))
        root = random_reduced(rng, rank, rng.randrange(1, 13))
        conj = random_reduced(rng, rank, rng.randrange(0, 4))
        k = rng.choice((1, 1, 2, 3, 4, 5))
        corpus.append(conj * power(root, k) * ~conj)
    return corpus


class TestBavardScan:
    def test_matches_per_pattern_scan_on_seeded_words(self):
        rng = random.Random(410)
        corpus = [random_reduced(rng, rng.choice((1, 2, 3)),
                                 rng.randrange(0, 40)) for _ in range(60)]
        corpus += [random_reduced(rng, 2, n) for n in (64, 120, 210, 410)]
        corpus += [power(random_reduced(rng, 2, rng.randrange(1, 6)),
                         rng.randrange(2, 60)) for _ in range(8)]
        corpus += [power(w("[a,b][a,B]"), 40), power(w("[a,b]"), 100)]
        corpus += conjugated_powers(rng)
        assert max(len(a) for a in corpus) >= 400
        for a in corpus:
            assert scl_lower_bavard(a) == per_pattern_bavard(a), str(a)

    def test_matches_full_two_letter_table_at_ranks_3_to_6(self):
        # the scan walks only the core's two-letter subwords and their
        # inverses; the reference tries every two-letter word of the rank
        rng = random.Random(2006)
        corpus = [w(text, rank=3) for text in ("AB", "ab", "Ab", "cB", "cc")]
        for rank in (3, 4, 5, 6):
            for _ in range(12):
                corpus.append(random_reduced(rng, rank, rng.randrange(1, 30)))
                corpus.append(ReducedWord(rank, random_reduced(
                    rng, 2, rng.randrange(1, 12)).codes))
            corpus += [power(primitive_root(rng, rank, n), rng.randrange(2, 5))
                       for n in (1, 2, 3, 7)]
        for a in corpus:
            assert scl_lower_bavard(a) == per_pattern_bavard(a), str(a)

    def test_pinned_bounds_and_witnesses(self):
        # recorded from the scan that built one Fraction per pattern
        lines = [f"{bound}|{witness}".encode() for bound, witness
                 in map(scl_lower_bavard, pinned_bavard_corpus())]
        assert hashlib.sha256(b"\n".join(lines)).hexdigest() == (
            "4705fc0c6987eb1f376517f8a37de3f01f7dde9ccb151e0f368689cf15b80e63")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda rank: st.lists(st.sampled_from(
            [s * i for i in range(1, rank + 1) for s in (1, -1)]),
            min_size=6, max_size=14).map(lambda letters: ReducedWord(
                rank, letters))),
        st.integers(min_value=2, max_value=6))
    def test_proper_power_is_k_times_its_base(self, a, k):
        core, _ = cyclically_reduce(a)
        assume(len(core) >= 6)
        base = ReducedWord(core.rank, core.codes)
        assert default_brooks_dictionary(base) \
            == default_brooks_dictionary(power(base, k))
        bound, witness = scl_lower_bavard(base)
        assert scl_lower_bavard(power(base, k)) == (k * bound, witness)

    @pytest.mark.parametrize("text,root_length", [
        ("[a,b]^40", 4), ("([a,b][a,B])^7", 8), ("b[a,b]^3B", 4),
        ("aabAB", 5)])
    def test_proper_power_is_tabled_on_its_root(self, monkeypatch, text,
                                                root_length):
        tabled = []

        def spy(core, k):
            tabled.append(len(core))
            return _cyclic_starts(core, k)

        monkeypatch.setattr(scl_engine, "_cyclic_starts", spy)
        a = w(text)
        assert scl_lower_bavard(a) == per_pattern_bavard(a)
        assert tabled and set(tabled) == {root_length}

    def test_default_dictionary_matches_doubled_slices(self):
        rng = random.Random(6)
        corpus = pinned_bavard_corpus() + conjugated_powers(rng)
        corpus += [w(""), w("", rank=3), w("a", rank=1), w("ab")]
        for a in corpus:
            assert default_brooks_dictionary(a) \
                == doubled_slice_dictionary(a), str(a)

    def test_empty_core_has_no_bound_and_no_witness(self):
        for a in (w(""), w("", rank=3), w("abBA")):
            core, _ = cyclically_reduce(a)
            assert scl_lower_bavard(a) == (0, None)
            assert scl_lower_bavard(core) == (0, None)

    def test_one_least_rotation_per_call(self, monkeypatch):
        calls = []
        real = free_words._least_rotation

        def counting(codes):
            calls.append(codes)
            return real(codes)

        for module in (free_words, scl_engine):
            monkeypatch.setattr(module, "_least_rotation", counting)
        for text in ("[a,b]", "[a,b]^7", "bb[a,b]^2aBB", "aabAB"):
            calls.clear()
            scl_lower_bavard(w(text))
            assert len(calls) == 1, text

    def test_cyclic_word_is_taken_as_the_core(self):
        a = w("bb[a,b]^2aBB")
        core, _ = cyclically_reduce(a)
        assert scl_lower_bavard(core) == scl_lower_bavard(a)
        assert default_brooks_dictionary(core) == default_brooks_dictionary(a)

    def test_one_cyclic_reduction_per_call(self, monkeypatch):
        calls = []
        real = scl_engine.cyclically_reduce

        def counting(u):
            calls.append(u)
            return real(u)

        monkeypatch.setattr(scl_engine, "cyclically_reduce", counting)
        a = w("[a,b]^2")
        for call in (lambda: scl_lower_bavard(a), lambda: cl_lower(a),
                     lambda: scl_report(a, n_max=1, max_len=3)):
            calls.clear()
            call()
            assert len(calls) == 1


class TestSclUpperFromPower:
    def test_formula(self):
        a = w("[a,b]")
        cert = cl_upper(power(a, 2), max_len=4)
        assert cert.genus == 2
        assert scl_upper_from_power(a, 2, cert) == Fraction(3, 4)

    def test_rejects_mismatched_certificate(self):
        a = w("[a,b]")
        cert = cl_upper(a)
        with pytest.raises(CertificateError):
            scl_upper_from_power(a, 2, cert)


class TestSclReport:
    def test_single_commutator_report(self):
        rep = scl_report(w("[a,b]"))
        assert rep.status == "bounded"
        assert rep.lower == Fraction(1, 12)
        assert rep.upper == Fraction(1, 2)
        assert str(rep.lower_witness) == "ab"
        assert rep.power == 1 and rep.power_genus == 1
        assert "above-homological-margulis-constant" in rep.flags

    def test_identity_report(self):
        rep = scl_report(w(""))
        assert rep.status == "bounded"
        assert rep.lower == 0 and rep.upper == 0

    def test_not_in_commutator_subgroup(self):
        rep = scl_report(w("ab"))
        assert rep.status == "not_in_commutator_subgroup"
        assert rep.lower is None and rep.upper is None

    def test_budget_exhausted_is_flagged(self):
        rep = scl_report(w("[a,b]^3"), max_genus=1, max_len=4)
        assert rep.status == "inconclusive"
        assert rep.upper is None
        assert "budget-exhausted" in rep.flags
        assert rep.lower == Fraction(1, 4)

    def test_report_brackets_are_ordered_on_random_commutator_products(self):
        rng = random.Random(202)
        bounded = 0
        for _ in range(50):
            pieces = []
            for _ in range(rng.randrange(1, 3)):
                u = random_reduced(rng, 2, rng.randrange(1, 3))
                v = random_reduced(rng, 2, rng.randrange(1, 3))
                pieces.append(commutator(u, v))
            target = pieces[0]
            for p in pieces[1:]:
                target = target * p
            rep = scl_report(target, n_max=2, max_len=4)
            if target.is_identity():
                assert rep.lower == 0 and rep.upper == 0
                continue
            assert rep.status in ("bounded", "inconclusive")
            if rep.status == "bounded":
                bounded += 1
                assert rep.lower <= rep.upper
                assert rep.upper >= Fraction(1, 2)
        assert bounded >= 25

    @pytest.mark.parametrize("text,budgets,message", [
        ("", {"n_max": 0}, "n_max must be >= 1, got 0"),
        ("ab", {"max_len": -5}, "max_len must be >= 1, got -5"),
    ], ids=["identity-n-max", "outside-max-len"])
    def test_budgets_checked_before_early_answers(self, text, budgets,
                                                  message):
        with pytest.raises(ValueError, match=message):
            scl_report(w(text), **budgets)

    def test_dictionary_size_is_the_default_dictionary_length(self):
        # the report counts the pattern tables itself; the count must be
        # the length of the sorted dictionary over the same tables
        from scl_lab.free_words import abelianization
        corpus = pinned_bavard_corpus() + [
            w("[a,b]"), w("[a,b]^3"), w("bb[a,b]^2BB"),
            w("[a,b][a,c]", rank=3)]
        rng = random.Random(88)
        for _ in range(40):
            rank = rng.choice((2, 3))
            u, v = (random_reduced(rng, rank, rng.randrange(1, 5))
                    for _ in range(2))
            corpus.append(power(commutator(u, v), rng.randrange(1, 4)))
        corpus = [a for a in corpus
                  if not a.is_identity() and not any(abelianization(a))]
        for a in corpus:
            rep = scl_report(a, n_max=1, max_genus=0)
            assert rep.dictionary_size == len(default_brooks_dictionary(a))
            assert (rep.lower, rep.lower_witness) == scl_lower_bavard(a)
        assert scl_report(w("[a,b]")).dictionary_size == 20

    @pytest.mark.parametrize("rank", [2, 3, 6, 100])
    def test_dictionary_size_counts_every_two_letter_word(self, rank):
        rng = random.Random(rank)
        corpus = [power(commutator(*(random_reduced(rng, rank, rng.randrange(
            1, 5)) for _ in range(2))), rng.randrange(1, 4)) for _ in range(12)]
        for a in (a for a in corpus if not a.is_identity()):
            core, _ = cyclically_reduce(a)
            doubled = core.codes * 2
            longer = {doubled[i:i + k] for k in range(3, min(6, len(core)) + 1)
                      for i in range(len(core))}
            rep = scl_report(a, n_max=1, max_genus=0)
            assert rep.dictionary_size == 2 * rank * (2 * rank - 1) \
                + len(longer), str(a)

    def test_rank_1000_report_lists_no_two_letter_table(self, monkeypatch):
        # _codes_up_to(1000, 2) holds four million tuples, about 350 MB
        real = free_words._codes_up_to

        def spy(rank, max_len):
            assert max_len < 2, f"_codes_up_to({rank}, {max_len})"
            return real(rank, max_len)

        for module in (free_words, scl_engine):
            monkeypatch.setattr(module, "_codes_up_to", spy)
        rep = scl_report(w("[a,b]", rank=1000))
        assert (rep.lower, rep.upper) == (Fraction(1, 12), Fraction(1, 2))
        assert rep.dictionary_size == 2000 * 1999 + 8

    def test_conjugation_invariance_of_lower_bound(self):
        a = w("[a,b]")
        for c in (w("a"), w("ba"), w("aBA")):
            rep = scl_report(c * a * ~c)
            assert rep.lower == Fraction(1, 12)
            assert rep.upper == Fraction(1, 2)

