"""Hand-worked cases for the benchmark's oracles.

Run with ``python3 -m pytest bench/test_oracles.py`` or
``python3 bench/test_oracles.py``.
"""

from fractions import Fraction

import oracles as o


def test_reduce_and_invert():
    assert o.reduce("aAb") == "b"
    assert o.reduce("abBA") == ""
    assert o.reduce("aBbAb") == "b"
    assert o.invert("abB") == "bBA"
    assert o.product("ab", "BA") == ""


def test_commutators():
    assert o.commutator("a", "b") == "abAB"
    assert o.commutator("a", "a") == ""
    # [ab, b] = ab.b.BA.B = a b b B A B, and bB cancels: a b A B
    assert o.commutator("ab", "b") == "abAB"
    assert o.commutator_product([("a", "b"), ("a", "b")]) == "abABabAB"
    assert o.power("abAB", 2) == "abABabAB"
    assert o.power("ab", -2) == "BABA"


def test_cyclic_core_and_powers():
    assert o.cyclic_core("babAB") == "b"
    assert o.cyclic_core("abAB") == "abAB"
    assert o.cyclic_core("abaBA") == "a"
    assert o.cyclic_core("baaB") == "aa"
    assert o.is_proper_power("abABabAB")
    assert not o.is_proper_power("abAB")
    assert o.is_proper_power("aaa")


def test_greedy_disjoint_counts():
    assert o.count_disjoint("aa", "aaaaa") == 2
    assert o.count_disjoint("aba", "ababa") == 1
    assert o.count_disjoint("ab", "abab") == 2
    assert o.count_disjoint("ab", "bbb") == 0
    # ab once in abAB; its inverse BA does not occur
    assert o.brooks_count("ab", "abAB") == 1
    # a b A B a b A B: ab at 0 and 4, BA nowhere; ba nowhere, AB at 2 and 6
    assert o.brooks_count("ab", "abABabAB") == 2
    assert o.brooks_count("ba", "abABabAB") == -2
    # aB at 0; its inverse bA does not occur in a B A b
    assert o.brooks_count("aB", "aBAb") == 1


def test_matrix_powers():
    m = (2, 1, 1, 1)
    assert o.mat_pow(m, 0) == (1, 0, 0, 1)
    assert o.mat_pow(m, 1) == m
    assert o.mat_pow(m, 2) == (5, 3, 3, 2)
    assert o.mat_pow(m, 3) == (13, 8, 8, 5)
    assert o.mat_pow(m, -1) == (1, -1, -1, 2)
    assert o.mat_mul(o.mat_pow(m, 5), o.mat_pow(m, -5)) == (1, 0, 0, 1)


def test_sol_group_law():
    m = (2, 1, 1, 1)
    g = ((0, 0), 1)
    x = ((0, 1), 0)
    # (0,0,1)(0,1,0) = (A (0,1), 1) = ((1,1), 1)
    assert o.sol_mul(m, g, x) == ((1, 1), 1)
    assert o.sol_mul(m, x, g) == ((0, 1), 1)
    assert o.sol_mul(m, o.sol_inv(m, ((3, -2), 2)), ((3, -2), 2)) == o.SOL_IDENTITY
    # [g, (u, 0)] = ((A - I) u, 0): (A - I)(1, 0) = (1, 1)
    assert o.sol_commutator(m, g, ((1, 0), 0)) == ((1, 1), 0)
    assert o.minus_identity_times(m, (1, 0)) == (1, 1)
    assert o.sol_commutator_product(
        m, [(g, ((1, 0), 0)), (g, ((0, 1), 0))]) == ((2, 1), 0)


def test_membership_solve():
    # (A - I) = [[1, 1], [1, 0]] for A = (2,1,1,1): (1, 1) = (A - I)(1, 0)
    assert o.solve_minus_identity((2, 1, 1, 1), (1, 1)) == (1, 0)
    # A = (3,2,1,1): A - I = [[2, 2], [1, 0]], det -2, so (1, 0) solves to
    # u = (0, 1/2): 2*0 + 2*(1/2) = 1 and 1*0 + 0 = 0
    assert o.solve_minus_identity((3, 2, 1, 1), (1, 0)) == (0, Fraction(1, 2))


def test_parsers():
    assert o.parse_sol("g") == ((0, 0), 1)
    assert o.parse_sol("(3,-4)") == ((3, -4), 0)
    assert o.parse_sol("((1,2),-3)") == ((1, 2), -3)
    assert o.parse_fraction("-3/4") == Fraction(-3, 4)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
    print("oracle tests passed")
