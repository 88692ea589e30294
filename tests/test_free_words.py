import ast
import dataclasses
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import scl_lab
from scl_lab.free_words import (
    CyclicWord,
    RankMismatchError,
    ReducedWord,
    _count_up_to,
    _inv,
    _join_codes,
    _letter_key,
    _least_rotation,
    _reduce,
    _unrank_codes,
    WordError,
    WordSyntaxError,
    abelianization,
    commutator,
    count_disjoint_copies,
    count_disjoint_copies_cyclic,
    cyclically_reduce,
    enumerate_reduced_words,
    parse_word,
    power,
    word_sort_key,
)


def w(text, rank=2):
    return parse_word(text, rank)


def random_reduced(rng, rank, length):
    """A uniformly drawn reduced word of exactly the given length."""
    choices = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    letters = []
    last = 0
    for _ in range(length):
        c = rng.choice([x for x in choices if x != -last])
        letters.append(c)
        last = c
    return ReducedWord(rank, letters)


class TestParsing:
    def test_letters(self):
        assert str(w("abAB")) == "abAB"
        assert w("abAB").codes == (1, 2, -1, -2)

    def test_free_reduction(self):
        assert w("aA").is_identity()
        assert str(w("abBA")) == ""
        assert str(w("abBc", rank=3)) == "ac"

    def test_commutator_syntax(self):
        assert str(w("[a,b]")) == "abAB"
        assert w("[a,b]^2").codes == (1, 2, -1, -2, 1, 2, -1, -2)
        assert str(w("[a,B]")) == "aBAb"
        assert w("[ab,BA]").is_identity()  # [u, u^-1] = 1

    def test_nested_and_parens(self):
        assert str(w("(ab)^2")) == "abab"
        assert str(w("(ab)^-1")) == "BA"
        assert str(w("[[a,b],c]", rank=3)) == "abABcbaBAC"

    def test_power_chain(self):
        assert str(w("a^2^3")) == "a" * 6
        assert str(w("a^-2")) == "AA"
        assert str(w("a^0")) == ""

    def test_whitespace(self):
        assert w(" a b  A\tB ") == w("abAB")

    def test_high_rank_tokens(self):
        word = parse_word("g27G1g27", rank=30)
        assert word.codes == (27, -1, 27)
        assert str(word) == "g27G1g27"

    def test_syntax_error_positions(self):
        with pytest.raises(WordSyntaxError) as e:
            w("ab$c")
        assert e.value.position == 2
        with pytest.raises(WordSyntaxError) as e:
            w("c")
        assert e.value.position == 0
        with pytest.raises(WordSyntaxError) as e:
            w("[a,b")
        assert e.value.position == 4
        with pytest.raises(WordSyntaxError) as e:
            w("a^x")
        assert e.value.position == 2

    @pytest.mark.parametrize("text,position", [
        ("(" * 2000 + "a" + ")" * 2000, 1999),
        ("ab" + "[a," * 1500 + "b" + "]" * 1500, 1500 * 3 - 1),
        ("((a)" + "(" * 3000 + "b" + ")" * 3000 + ")", 3003),
    ], ids=["parentheses", "commutators", "after-a-group"])
    def test_deep_nesting_is_a_syntax_error(self, text, position):
        # nesting past the recursion limit points at the deepest bracket
        with pytest.raises(WordSyntaxError) as e:
            w(text)
        assert e.value.position == position
        assert str(e.value).startswith("brackets nested too deeply")

    def test_parse_print_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            letters = []
            last = 0
            for _ in range(rng.randrange(0, 12)):
                c = rng.choice([c for c in (1, -1, 2, -2, 3, -3) if c != -last])
                letters.append(c)
                last = c
            u = ReducedWord(3, letters)
            assert parse_word(str(u), 3) == u


class TestGroupOps:
    def test_concat_cancels(self):
        assert str(w("abA") * w("aB")) == "a"

    def test_invert(self):
        assert str(~w("abA")) == "aBA"
        assert (~w("")).is_identity()

    def test_power_law(self):
        u = w("ab")
        assert power(u, 3) == w("ababab")
        assert power(u, -2) == ~power(u, 2)
        assert power(u, 0).is_identity()

    def test_operator_sugar(self):
        u, v = w("ab"), w("Ba")
        assert u * v == ReducedWord(2, u.codes + v.codes) == w("aa")
        assert ~u == ReducedWord(2, _inv(u.codes)) == w("BA")

    def test_associativity_random(self):
        rng = random.Random(11)
        words = [ReducedWord(2, [rng.choice((1, -1, 2, -2)) for _ in range(6)])
                 for _ in range(30)]
        for _ in range(100):
            a, b, c = rng.choice(words), rng.choice(words), rng.choice(words)
            assert (a * b) * c == a * (b * c)

    def test_inverse_is_involution_and_antihomomorphism(self):
        rng = random.Random(13)
        for _ in range(100):
            a = ReducedWord(2, [rng.choice((1, -1, 2, -2)) for _ in range(8)])
            b = ReducedWord(2, [rng.choice((1, -1, 2, -2)) for _ in range(8)])
            assert ~~a == a
            assert ~(a * b) == ~b * ~a
            assert (a * ~a).is_identity()

    def test_reduction_confluence_against_random_order(self):
        # cancel adjacent inverse pairs in random order; result must agree
        rng = random.Random(17)
        for _ in range(300):
            raw = [rng.choice((1, -1, 2, -2)) for _ in range(14)]
            codes = list(raw)
            while True:
                spots = [i for i in range(len(codes) - 1) if codes[i] == -codes[i + 1]]
                if not spots:
                    break
                i = rng.choice(spots)
                del codes[i:i + 2]
            assert tuple(codes) == ReducedWord(2, raw).codes

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12),
           st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12),
           st.integers(min_value=0, max_value=12),
           st.booleans())
    def test_junction_join_matches_full_reduction(self, xs, ys, cut, flip):
        # y starts with the inverse of a tail of x, so up to all of x
        # cancels; the flip inverts the product, so all of y can cancel too
        x = ReducedWord(3, xs).codes
        tail = x[max(0, len(x) - cut):]
        y = ReducedWord(3, _inv(tail) + tuple(ys)).codes
        if flip:
            x, y = _inv(y), _inv(x)
        assert _join_codes(x, y) == _reduce(x + y)
        assert _join_codes(x, _inv(x)) == () == _join_codes(_inv(y), y)

    def test_commutator_and_conjugate(self):
        assert commutator(w("a"), w("b")) == w("abAB")
        assert w("a") * w("b") * ~w("a") == w("abA")
        u, v = w("ab"), w("bA")
        assert commutator(u, v) == u * v * ~u * ~v

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            w("a", rank=2) * w("a", rank=3)

    def test_abelianization(self):
        assert abelianization(w("abAB")) == (0, 0)
        assert abelianization(w("aabA")) == (1, 1)
        rng = random.Random(19)
        for _ in range(50):
            a = ReducedWord(2, [rng.choice((1, -1, 2, -2)) for _ in range(9)])
            b = ReducedWord(2, [rng.choice((1, -1, 2, -2)) for _ in range(9)])
            ab = abelianization(a * b)
            assert ab == tuple(x + y for x, y in zip(abelianization(a), abelianization(b)))


class TestCyclicWords:
    def test_cyclic_reduction(self):
        core, conj = cyclically_reduce(w("aabAA"))
        assert str(core) == "b"
        assert str(conj) == "aa"

    def test_identity_after_reconjugation(self):
        rng = random.Random(23)
        for _ in range(200):
            u = ReducedWord(2, [rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(12))])
            core, conj = cyclically_reduce(u)
            rebuilt = conj * ReducedWord(2, core.codes) * ~conj
            assert rebuilt == u

    def test_canonical_rotation(self):
        assert CyclicWord(2, w("bAB a".replace(" ", "")).codes) == CyclicWord(2, w("abAB").codes)
        # least rotation under a < A < b < B starts with 'a' here
        assert str(CyclicWord(2, w("bABa").codes)) == "abAB"

    def test_rotation_invariance_random(self):
        rng = random.Random(29)
        for _ in range(100):
            u = w("ab") * ReducedWord(2, [rng.choice((1, -1, 2, -2)) for _ in range(6)])
            core, _ = cyclically_reduce(u)
            codes = core.codes
            if not codes:
                continue
            i = rng.randrange(len(codes))
            assert CyclicWord(2, codes[i:] + codes[:i]) == core

    def test_power_length_law(self):
        # |u^n| = n |core| + 2 |minimal conjugator|; the returned conjugator
        # may be longer because it also absorbs the canonical rotation
        rng = random.Random(31)
        for _ in range(100):
            u = ReducedWord(2, [rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(1, 8))])
            core, conj = cyclically_reduce(u)
            min_conj = (len(u) - len(core)) // 2
            assert len(conj) >= min_conj
            for n in (1, 2, 3, 5):
                assert len(power(u, n)) == n * len(core) + 2 * min_conj

    def test_least_rotation_brute_force(self):
        # offset: least index of the least rotation; period: least p
        # dividing n with rotation by p fixed.  The offset is the part of
        # the core that cyclically_reduce moves into the conjugator.
        assert _least_rotation(()) == (0, 0)
        for rank, max_len in ((2, 8), (3, 5)):
            for u in enumerate_reduced_words(rank, max_len):
                if len(u) < 1:
                    continue
                codes = u.codes
                n = len(codes)
                rotations = [codes[i:] + codes[:i] for i in range(n)]
                keys = [[_letter_key(c) for c in r] for r in rotations]
                offset = keys.index(min(keys))
                period = min(p for p in range(1, n + 1)
                             if n % p == 0 and rotations[p % n] == codes)
                assert _least_rotation(codes) == (offset, period), str(u)

    def test_period_is_the_least_rotation_period(self):
        # both ways to build a core keep the period of their one
        # _least_rotation pass: the least p with codes == root repeated
        rng = random.Random(37)
        for rank, max_len in ((1, 6), (2, 7), (3, 5)):
            for u in enumerate_reduced_words(rank, max_len):
                core, _ = cyclically_reduce(u)
                codes = core.codes
                n = len(codes)
                period = min((p for p in range(1, n + 1)
                              if n % p == 0 and codes[:p] * (n // p) == codes),
                             default=0)
                assert core.period == _least_rotation(codes)[1] == period
                i = rng.randrange(n) if n else 0
                letters = list(codes[i:] + codes[:i])
                letters[i:i] = [rank, -rank]  # undone by free reduction
                for built in (CyclicWord(rank, u.codes),
                              CyclicWord(rank, letters)):
                    assert (built.codes, built.period) == (codes, period)

    def test_repeat(self):
        core = CyclicWord(2, w("ab").codes)
        assert ReducedWord(core.rank, core.codes * 3) == w("ababab")
        assert ReducedWord(core.rank, core.codes * 0).is_identity()


class TestCounting:
    def test_documented_values(self):
        assert count_disjoint_copies(w("ab"), w("abab")) == 2
        assert count_disjoint_copies(w("aa"), w("aaa")) == 1
        assert count_disjoint_copies(w("abAB"), w("abAB")) == 1
        assert count_disjoint_copies(w("ba"), w("abab")) == 1

    def test_rejects_short_patterns(self):
        with pytest.raises(WordError):
            count_disjoint_copies(w("a"), w("aa"))

    def test_greedy_matches_brute_force(self):
        # brute force: max disjoint subset over all occurrence positions
        def brute(wc, ac):
            k = len(wc)
            occ = [i for i in range(len(ac) - k + 1) if ac[i:i + k] == wc]

            def best(idx, free_from):
                if idx == len(occ):
                    return 0
                skip = best(idx + 1, free_from)
                take = 0
                if occ[idx] >= free_from:
                    take = 1 + best(idx + 1, occ[idx] + k)
                return max(skip, take)

            return best(0, 0)

        rng = random.Random(37)
        for _ in range(200):
            wc = random_reduced(rng, 2, rng.randrange(2, 4))
            ac = random_reduced(rng, 2, rng.randrange(0, 12))
            assert count_disjoint_copies(wc, ac) == brute(wc.codes, ac.codes)

    def test_cyclic_documented_values(self):
        assert count_disjoint_copies_cyclic(w("abAB"), CyclicWord(2, w("abAB").codes)) == 1
        assert count_disjoint_copies_cyclic(w("ba"), CyclicWord(2, w("ab").codes)) == 1
        assert count_disjoint_copies_cyclic(w("aa", rank=1), CyclicWord(1, [1, 1, 1])) == Fraction(3, 2)
        assert count_disjoint_copies_cyclic(w("ab", rank=4), CyclicWord(4, [3, 4])) == 0
        # a^4 fits 3 times in (aaa)^4 and once in a^4, although the first
        # differences of the counts over a^n begin with runs of equal values
        assert count_disjoint_copies_cyclic(w("aaaa"), CyclicWord(2, [1])) == Fraction(1, 4)
        assert count_disjoint_copies_cyclic(w("aaaa"), CyclicWord(2, [1, 1, 1])) == Fraction(3, 4)
        assert count_disjoint_copies_cyclic(w("bbbb"), CyclicWord(2, [2])) == Fraction(1, 4)

    def test_cyclic_exact_against_string_count(self):
        # str.count is the leftmost greedy count of non-overlapping copies.
        # The greedy's restart cycle and its lead-in each span fewer than
        # |core| + |w| copies of the core, so with M = N = lcm(1..|core|+|w|)
        # the difference quotient below is the limit itself.
        def oracle(wc, core):
            m = math.lcm(*range(1, len(core) + len(wc) + 1))
            text, pattern = str(core), str(wc)
            return Fraction((text * (2 * m)).count(pattern)
                            - (text * m).count(pattern), m)

        cases = []
        for x in "aAbB":
            for y in "aAb":
                for k in range(2, 7):
                    for j in range(1, 7):
                        cases.append((w(x * k), CyclicWord(2, w(y * j).codes)))
        rng = random.Random(47)
        while len(cases) < 700:
            wc = random_reduced(rng, 2, rng.randrange(2, 5))
            core, _ = cyclically_reduce(random_reduced(rng, 2, rng.randrange(1, 8)))
            if len(core):
                cases.append((wc, core))
        # one start: every prefix of r r r ... of 2 to 6 letters on a
        # primitive root r of 1 to 5 letters, so also patterns longer than
        # r, which overlap their own next copy
        roots = set()
        while len(roots) < 40:
            root, _ = cyclically_reduce(random_reduced(rng, 2, rng.randrange(1, 6)))
            text = str(root)
            if len(root) and (text * 2).find(text, 1) == len(text):
                roots.add(text)
        for text in sorted(roots):
            cases += [(w((text * 6)[:k]), CyclicWord(2, w(text).codes))
                      for k in range(2, 7)]
        assert any(len(text) == 1 for text in roots)
        # one start no longer than the core
        lone = 0
        while lone < 150:
            core, _ = cyclically_reduce(random_reduced(rng, 2, rng.randrange(2, 9)))
            text = str(core)
            for k in range(2, min(6, len(text)) + 1):
                windows = [(text * 2)[i:i + k] for i in range(len(text))]
                once = [x for x in windows if windows.count(x) == 1]
                cases += [(w(x), core) for x in once]
                lone += len(once)
        for wc, core in cases:
            assert count_disjoint_copies_cyclic(wc, core) == oracle(wc, core), (str(wc), str(core))

    def test_cyclic_agrees_with_large_power_average(self):
        rng = random.Random(41)
        for _ in range(60):
            wc = random_reduced(rng, 2, rng.randrange(2, 5))
            core_src = random_reduced(rng, 2, rng.randrange(1, 7))
            core, _ = cyclically_reduce(core_src)
            if len(core) == 0:
                continue
            val = count_disjoint_copies_cyclic(wc, core)
            n = 60
            big = count_disjoint_copies(wc, ReducedWord(core.rank, core.codes * n))
            # counts in a^n are within an additive constant of n * val
            assert abs(big - n * val) <= len(wc) + len(core) + 2

    def test_cyclic_rotation_invariance(self):
        rng = random.Random(43)
        for _ in range(60):
            wc = random_reduced(rng, 2, rng.randrange(2, 4))
            core, _ = cyclically_reduce(random_reduced(rng, 2, rng.randrange(1, 7)))
            if len(core) == 0:
                continue
            codes = core.codes
            i = rng.randrange(len(codes))
            rotated = CyclicWord(2, codes[i:] + codes[:i])
            assert count_disjoint_copies_cyclic(wc, rotated) == count_disjoint_copies_cyclic(wc, core)


class TestEnumeration:
    def test_counts(self):
        # rank 2: 1 + 4 + 4*3 + 4*9 words up to length 3
        words = list(enumerate_reduced_words(2, 3))
        assert len(words) == 1 + 4 + 12 + 36
        assert len(set(words)) == len(words)
        assert all(len(u) <= 3 for u in words)

    def test_all_reduced(self):
        for u in enumerate_reduced_words(2, 4):
            assert ReducedWord(2, u.codes).codes == u.codes

    def test_canonical_order(self):
        words = list(enumerate_reduced_words(2, 3))
        keys = [word_sort_key(u) for u in words]
        assert keys == sorted(keys)
        assert [str(u) for u in words[:9]] == ["", "a", "A", "b", "B", "aa", "ab", "aB", "AA"]

    def test_min_len(self):
        words = [u for u in enumerate_reduced_words(2, 2) if len(u) >= 2]
        assert all(len(u) == 2 for u in words)
        assert len(words) == 12


    @pytest.mark.parametrize("rank,max_len",
                             [(1, 6), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
                              (2, 5), (2, 6), (3, 4)])
    def test_unranking_matches_the_enumeration(self, rank, max_len):
        words = [u.codes for u in enumerate_reduced_words(rank, max_len)]
        assert _count_up_to(rank, max_len) == len(words)
        assert [_unrank_codes(rank, i) for i in range(len(words))] == words

    def test_unranking_at_large_lengths(self):
        n = _count_up_to(2, 40)
        assert n == 1 + 2 * (3 ** 40 - 1)
        last = _unrank_codes(2, n - 1)
        assert len(last) == 40 and ReducedWord(2, last).codes == last
        assert len(_unrank_codes(2, _count_up_to(2, 39))) == 40

    @pytest.mark.parametrize("rank", [10 ** 4, 10 ** 7])
    def test_unranking_at_large_ranks(self, rank):
        # each letter comes from its digit by arithmetic, with no list of
        # the rank's letters: the first and last words of lengths 1 and 2
        two = 2 * rank + 1  # the first two-letter word
        assert [_unrank_codes(rank, i) for i in (1, 2, 2 * rank, two)] \
            == [(1,), (-1,), (-rank,), (1, 1)]
        assert _unrank_codes(rank, two + 1) == (1, 2)  # skips -1 after 1
        assert _unrank_codes(rank, _count_up_to(rank, 2) - 1) \
            == (-rank, -rank)
        assert _unrank_codes(rank, two + 2 * rank - 1) == (-1, -1)


class TestValidation:
    def test_bad_rank(self):
        with pytest.raises(WordError):
            ReducedWord(0)
        with pytest.raises(WordError):
            parse_word("a", 0)

    def test_letter_outside_rank(self):
        with pytest.raises(WordError):
            ReducedWord(2, [3])
        with pytest.raises(WordError):
            ReducedWord(2, [0])
        with pytest.raises(WordSyntaxError):
            parse_word("c", 2)

    @pytest.mark.parametrize("letters,item", [
        ([1.7, 2.2], "1.7"), (["1", "-2"], "'1'"), ([0.5], "0.5")])
    def test_non_integer_codes(self, letters, item):
        # int() would truncate or parse these into a word
        with pytest.raises(WordError,
                           match=f"^letter code {item} is not an integer$"):
            ReducedWord(2, letters)

    def test_non_integer_cyclic_codes(self):
        with pytest.raises(WordError,
                           match="^letter code 1.9 is not an integer$"):
            CyclicWord(2, [1.9, 2])

    def test_immutability(self):
        u = w("ab")
        with pytest.raises(AttributeError):
            u.codes = ()
        for word, fields in ((u, ("rank", "codes")),
                             (CyclicWord(2, u.codes), ("rank", "codes", "period"))):
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(word, name, getattr(word, name))


class TestValueSemantics:
    def test_reduced_and_cyclic_words_are_unequal(self):
        u = w("ab")
        core = CyclicWord(2, u.codes)
        assert core.codes == u.codes
        assert u != core and core != u

    def test_trusted_and_reducing_constructors_agree(self):
        trusted = ReducedWord(2, (1, 2, -1), _trusted=True)
        for built in (ReducedWord(2, (1, 2, -1)), ReducedWord(2, [1, 2, 2, -2, -1])):
            assert built == trusted and hash(built) == hash(trusted)
        assert CyclicWord(2, (1, 2), _period=2) == CyclicWord(2, [-2, 1, 2, 2])

    def test_hash_is_the_field_tuple(self):
        assert hash(ReducedWord(2, (1, 2))) == hash((2, (1, 2)))

    @pytest.mark.parametrize("cls,fields", [
        (ReducedWord, ("rank", "codes")),
        (CyclicWord, ("rank", "codes", "period"))])
    def test_frozen_slotted_dataclasses(self, cls, fields):
        assert cls.__dataclass_params__.frozen
        assert tuple(f.name for f in dataclasses.fields(cls)) == fields
        assert cls.__slots__ == fields

    def test_no_hand_written_value_semantics(self):
        # equality, hashing and immutability come from dataclasses
        found = []
        for path in sorted(Path(scl_lab.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ClassDef):
                    found += [f"{path.name}:{item.lineno} {node.name}.{item.name}"
                              for item in node.body
                              if isinstance(item, ast.FunctionDef) and item.name
                              in ("__eq__", "__hash__", "__setattr__")]
        assert found == []
