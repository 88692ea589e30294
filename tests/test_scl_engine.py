import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scl_lab.free_words import (
    ReducedWord,
    _codes_up_to,
    _inv,
    _reduce,
    commutator,
    parse_word,
    power,
)
from scl_lab.scl_engine import (
    DEFAULT_MAX_LEN,
    DEFAULT_PAIR_BUDGET,
    CertificateError,
    CommutatorCertificate,
    NotInCommutatorSubgroupError,
    SearchBudgetError,
    _commutator_value_index,
    _genus_one_search,
    _genus_two_search,
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
        vocab = list(enumerate_reduced_words(2, 3, min_len=1))
        for u in vocab:
            for v in vocab:
                c = commutator(u, v)
                if 0 < len(c) <= 4:
                    brute.add(c)
        for a in enumerate_reduced_words(2, 4, min_len=1):
            if any(abelianization(a)):
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
                _genus_one_search(ReducedWord(a.rank, c, _trusted=True),
                                  max_len)
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


class TestOrbitIndex:
    @pytest.mark.parametrize("rank,max_len", [(2, 3), (2, 4), (3, 2), (3, 3)])
    def test_orbits_expand_to_the_brute_force_values(self, rank, max_len):
        ordered, seen = _commutator_value_index(rank, max_len)
        assert ordered == sorted(seen, key=lambda k: (len(k), k))
        assert signed_permutation_images(ordered, rank) \
            == brute_force_values(rank, max_len)[1]
        # one word per orbit
        assert len({frozenset(signed_permutation_images([k], rank))
                    for k in ordered}) == len(ordered)

    @pytest.mark.parametrize("rank,max_len", [(2, 3), (3, 2)])
    def test_prefix_ranges_are_the_sorted_full_ranges(self, rank, max_len):
        ordered, _ = _commutator_value_index(rank, max_len)
        full, _ = brute_force_values(rank, max_len)
        lengths = sorted({len(k) for k in full})
        for codes in _codes_up_to(rank, 3):
            prefix = _pack(codes)
            for length in lengths:
                expected = [k for k in full
                            if len(k) == length and k.startswith(prefix)]
                assert _prefix_range(ordered, rank, length, prefix) \
                    == expected, (codes, length)


class TestLowerBounds:
    def test_cl_lower_values(self):
        assert cl_lower(w("")) == 0
        assert cl_lower(w("[a,b]")) == 1
        # homogeneous value 13 at the 13th power forces genus 2
        assert cl_lower(w("[a,b]^13")) == 2

    def test_cl_lower_rejects_nonzero_abelianization(self):
        with pytest.raises(NotInCommutatorSubgroupError):
            cl_lower(w("aab"))

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
        # scl(a^k) = k scl(a), and so is each homogeneous Brooks value
        dictionary = default_brooks_dictionary(a)
        bound, _ = scl_lower_bavard(a, dictionary)
        for k in range(1, 5):
            assert scl_lower_bavard(power(a, k), dictionary)[0] == k * bound

    def test_default_dictionary(self):
        d = default_brooks_dictionary(w("[a,b]"))
        texts = [str(u) for u in d]
        assert "ab" in texts and "abAB" in texts and "aa" in texts
        assert all(2 <= len(u) <= 6 for u in d)
        assert len(set(d)) == len(d)
        from scl_lab.free_words import word_sort_key
        keys = [word_sort_key(u) for u in d]
        assert keys == sorted(keys)


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

    def test_conjugation_invariance_of_lower_bound(self):
        from scl_lab.free_words import conjugate
        a = w("[a,b]")
        for c in (w("a"), w("ba"), w("aBA")):
            rep = scl_report(conjugate(a, c))
            assert rep.lower == Fraction(1, 12)
            assert rep.upper == Fraction(1, 2)

