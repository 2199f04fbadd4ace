"""Brute-force twin oracle for the min-key search's twin skip.

Recomputes, for a frame table T (flat, n x n, zero at 0, one at n-1, f
self-paired middles at 1..f, orthosupplement pairs on adjacent positions
after them), the earlier twins of each middle: the swaps of candidates
for the same positions that map T onto itself.  A swap fixes T when
T[s(x), s(y)] == s(T[x, y]) for every cell, both rows of each
transposition included; s fixes the open (-2) and undefined (-1) marks.

Deliberately naive and independent of the enumeration module.
"""

UNKNOWN = -2
UNDEF = -1


def _fixes(T, n, transpositions):
    s = list(range(n))
    for a, b in transpositions:
        s[a], s[b] = b, a

    def image(v):
        return v if v < 0 else s[v]

    return all(T[s[x] * n + s[y]] == image(T[x * n + y])
               for x in range(n) for y in range(n))


def twin_lists(T, n, f):
    """Per middle e, the sorted list of e's earlier twins in T."""
    m = n - 2
    twins = [[] for _ in range(n)]
    for b in range(2, f + 1):
        for a in range(1, b):
            if _fixes(T, n, [(a, b)]):
                twins[b].append(a)
    for p in range(f + 1, m + 1, 2):
        if _fixes(T, n, [(p, p + 1)]):
            twins[p + 1].append(p)
        for q in range(p + 2, m + 1, 2):
            if _fixes(T, n, [(p, q), (p + 1, q + 1)]):
                twins[q].append(p)
                twins[q + 1].append(p + 1)
            if _fixes(T, n, [(p, q + 1), (p + 1, q)]):
                twins[q].append(p + 1)
                twins[q + 1].append(p)
    return [sorted(t) for t in twins]
