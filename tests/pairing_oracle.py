"""Exact commutator length by letter pairings, shared with no package code.

Words are strings over ``a``..``z``, with ``A``..``Z`` their inverses.
Culler (*Using surfaces to solve equations in free groups*, Topology 20,
1981): glue the polygon whose sides read a cyclically reduced word ``w``,
pairing each letter ``x`` with an ``x^-1``.  With ``n = |w|`` sides and
``V`` vertices the closed surface has genus ``(n/2 + 1 - V) / 2``, and
``cl(w)`` is the least genus over all pairings.
"""

from __future__ import annotations


def reduce(word: str) -> str:
    out: list[str] = []
    for x in word:
        if out and out[-1] == x.swapcase():
            out.pop()
        else:
            out.append(x)
    return "".join(out)


def cyclic_core(word: str) -> str:
    w = reduce(word)
    while len(w) >= 2 and w[0] == w[-1].swapcase():
        w = w[1:-1]
    return w


def cl(word: str):
    """Commutator length of ``word``, or None outside the commutator
    subgroup.

    Side ``i`` runs from corner ``i`` to corner ``i + 1``, so gluing side
    ``i`` to side ``j`` joins corner ``i`` to ``j + 1`` and ``j`` to
    ``i + 1``: the vertices are the cycles of ``phi(i) = pair(i) + 1``.
    A depth-first search pairs the positive letters in order and prunes by
    the cycles still reachable: one per open path, and one per two corners
    no gluing has touched yet, since ``phi`` fixes no corner.
    """
    w = cyclic_core(word)
    n = len(w)
    if any(w.count(x) != w.count(x.swapcase()) for x in set(w.lower())):
        return None
    if not n:
        return 0
    ups = [i for i, x in enumerate(w) if x.islower()]
    downs = {x: [j for j, y in enumerate(w) if y == x.upper()]
             for x in set(w.lower())}
    # open paths of phi: start of the path ending at e, end of the one
    # starting at s; a corner no gluing has touched is its own path
    start, end = list(range(n)), list(range(n))
    touched = [0] * n

    def link(u, v, undo):
        """Add ``phi(u) = v``; True when it closes a cycle."""
        touched[u] += 1
        touched[v] += 1
        s, e = start[u], end[v]
        if s == v:
            undo.append(None)
            return True
        undo.append((s, e, end[s], start[e]))
        end[s], start[e] = e, s
        return False

    def unlink(u, v, undo):
        touched[u] -= 1
        touched[v] -= 1
        saved = undo.pop()
        if saved is not None:
            s, e, end_s, start_e = saved
            end[s], start[e] = end_s, start_e

    def reach(k, closed, target):
        if k == len(ups):
            return closed >= target
        # k gluings fix 2 k values of phi and leave n - 2 k open paths,
        # ``untouched`` of them bare corners
        untouched = touched.count(0)
        if closed + (n - 2 * k - untouched) + untouched // 2 < target:
            return False
        i = ups[k]
        options = downs[w[i]]
        for t, j in enumerate(options):
            if j < 0:
                continue
            options[t] = -1
            undo: list = []
            shut = link(i, (j + 1) % n, undo) + link(j, (i + 1) % n, undo)
            found = reach(k + 1, closed + shut, target)
            unlink(j, (i + 1) % n, undo)
            unlink(i, (j + 1) % n, undo)
            options[t] = j
            if found:
                return True
        return False

    genus = 1
    while not reach(0, 0, n // 2 + 1 - 2 * genus):
        genus += 1
    return genus
