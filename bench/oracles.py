"""Reference computations that share no code with ``scl_lab``.

The benchmark checks every output of the program against these functions.
They work on plain text and plain integers only:

* words in a free group are strings over ``a``..``z`` (generators) and
  ``A``..``Z`` (their inverses), reduced with a stack;
* disjoint copies of a pattern are counted greedily from the left, which is
  optimal because every copy has the same length;
* Sol-lattice elements are ``((x, y), t)`` tuples multiplied with integer
  matrix powers computed here by repeated squaring.

Keep this module free of any ``scl_lab`` import: an oracle that reuses the
code it checks proves nothing.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# free groups, words as text


def invert(word: str) -> str:
    """The inverse word: reverse the letters and swap their case."""
    return word[::-1].swapcase()


def reduce(word: str) -> str:
    """Free reduction: cancel adjacent ``xX`` and ``Xx`` pairs."""
    out: list[str] = []
    for letter in word:
        if out and out[-1] == letter.swapcase():
            out.pop()
        else:
            out.append(letter)
    return "".join(out)


def product(*words: str) -> str:
    return reduce("".join(words))


def commutator(u: str, v: str) -> str:
    """``[u, v] = u v u^-1 v^-1``, reduced."""
    return product(u, v, invert(u), invert(v))


def commutator_product(pairs) -> str:
    """Reduced product ``[u1, v1] [u2, v2] ...`` of the given pairs."""
    return product(*(commutator(u, v) for u, v in pairs))


def power(word: str, n: int) -> str:
    return reduce(word * n) if n >= 0 else reduce(invert(word) * -n)


def cyclic_core(word: str) -> str:
    """Cyclically reduced core of a reduced word (a conjugate of it)."""
    i, j = 0, len(word)
    while j - i >= 2 and word[i] == word[j - 1].swapcase():
        i += 1
        j -= 1
    return word[i:j]


def is_proper_power(core: str) -> bool:
    """Whether a cyclically reduced word is ``w^k`` for some ``k >= 2``."""
    n = len(core)
    return any(n % p == 0 and core[:p] * (n // p) == core
               for p in range(1, n // 2 + 1))


def count_disjoint(pattern: str, text: str) -> int:
    """Largest number of pairwise disjoint copies of ``pattern`` in ``text``."""
    count = 0
    i = text.find(pattern)
    while i >= 0:
        count += 1
        i = text.find(pattern, i + len(pattern))
    return count


def brooks_count(pattern: str, word: str) -> int:
    """Plain Brooks counting function: copies of ``pattern`` minus copies of
    its inverse, each counted disjointly."""
    return count_disjoint(pattern, word) - count_disjoint(invert(pattern), word)


# ---------------------------------------------------------------------------
# Sol lattices Z^2 x_A Z

def mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def mat_pow(m, k: int):
    """``m^k`` for an integer 2x2 matrix of determinant 1, any integer k."""
    if k < 0:
        a, b, c, d = m
        m, k = (d, -b, -c, a), -k
    out = (1, 0, 0, 1)
    while k:
        if k & 1:
            out = mat_mul(out, m)
        m = mat_mul(m, m)
        k >>= 1
    return out


def sol_mul(m, x, y):
    """``(u, s) (v, t) = (u + A^s v, s + t)``."""
    (u, s), (v, t) = x, y
    p = mat_pow(m, s)
    return ((u[0] + p[0] * v[0] + p[1] * v[1],
             u[1] + p[2] * v[0] + p[3] * v[1]), s + t)


def sol_inv(m, x):
    (u, s) = x
    p = mat_pow(m, -s)
    return ((-(p[0] * u[0] + p[1] * u[1]), -(p[2] * u[0] + p[3] * u[1])), -s)


def sol_commutator(m, x, y):
    return sol_mul(m, sol_mul(m, x, y),
                   sol_mul(m, sol_inv(m, x), sol_inv(m, y)))


SOL_IDENTITY = ((0, 0), 0)


def sol_commutator_product(m, pairs):
    out = SOL_IDENTITY
    for x, y in pairs:
        out = sol_mul(m, out, sol_commutator(m, x, y))
    return out


def _ints(text: str) -> list[int]:
    return [int(p) for p in text.replace("(", "").replace(")", "").split(",")]


def parse_sol(text: str):
    """Parse ``g`` (the vertical generator), a fiber vector ``(x,y)`` or an
    element ``((x,y),t)``."""
    if text == "g":
        return ((0, 0), 1)
    nums = _ints(text)
    if len(nums) == 2:
        return ((nums[0], nums[1]), 0)
    if len(nums) == 3:
        return ((nums[0], nums[1]), nums[2])
    raise ValueError(f"not a Sol element: {text!r}")


def minus_identity_times(m, u):
    """``(A - I) u`` in exact arithmetic (integers or fractions)."""
    a, b, c, d = m
    return ((a - 1) * u[0] + b * u[1], c * u[0] + (d - 1) * u[1])


def parse_fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def solve_minus_identity(m, a):
    """The rational ``u`` with ``(A - I) u = a``, by Cramer's rule."""
    p, q, r, s = m[0] - 1, m[1], m[2], m[3] - 1
    det = p * s - q * r
    return (Fraction(s * a[0] - q * a[1], det),
            Fraction(p * a[1] - r * a[0], det))
