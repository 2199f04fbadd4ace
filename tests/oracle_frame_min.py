"""Brute-force frame-minimum oracle for canonical keys.

Recomputes the key that canonical_key documents by trying every relabeling
that keeps the frame: zero at position 0, one at n-1, the self-paired
middles at 1..f, and each orthosupplement pair on two adjacent positions
(either way round) after them.  The key is the least column-major upper
triangle of the middle block, with an undefined sum written as n.

Deliberately naive and independent of the enumeration module; usable for
sizes up to about 9.
"""

from itertools import permutations, product


def frame_min_key(E):
    """(size, number of self-paired middles, least key over the frame)."""
    n = E.size
    m = n - 2
    middles = [x for x in E.elements() if x not in (E.zero, E.one)]
    orth = {x: next(y for y in E.elements() if E.sum[x][y] == E.one)
            for x in middles}
    fixed = [x for x in middles if orth[x] == x]
    pairs = [(x, orth[x]) for x in middles if x < orth[x]]
    f = len(fixed)
    best = None
    for fixed_order in permutations(fixed):
        for pair_order in permutations(pairs):
            for flips in product((False, True), repeat=len(pairs)):
                order = list(fixed_order)
                for (a, b), flip in zip(pair_order, flips):
                    order += [b, a] if flip else [a, b]
                pos = {E.zero: 0, E.one: n - 1}
                for p, x in enumerate(order, start=1):
                    pos[x] = p
                key = []
                for d in range(1, m + 1):
                    for i in range(1, d + 1):
                        v = E.sum[order[i - 1]][order[d - 1]]
                        key.append(n if v is None else pos[v])
                key = tuple(key)
                if best is None or key < best:
                    best = key
    return (n, f, best)
