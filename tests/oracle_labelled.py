"""Frame-labelled counting oracle for the pruned enumeration.

Counts every valid sum table in one frame, with no symmetry breaking, and
predicts the same number from a list of class representatives by the
orbit-stabilizer theorem.  A frame of size n fixes zero at 0, one at n-1
and the orthosupplement: the f self-paired middles 1..f, then the pairs
(f+1, f+2), (f+3, f+4), ...  A class whose representative E lies in frame
f has |G_f| / |Aut(E)| labelled tables there, where G_f is the group of
relabelings that keep the frame and Aut(E) the ones among them that fix
E's table.  So the labelled count of frame f equals the sum of
|G_f| / |Aut(E)| over the classes in frame f exactly when the classes
are complete and pairwise non-isomorphic.

Deliberately independent of the enumeration module: the table search
below fills cells row by row and checks each triple of elements as soon
as two of its three bracketings are known; the automorphisms are counted
by trying every element of G_f.  Usable up to size 9 in the test suite
and up to 12 from scripts/orbit_count.py (about an hour at 12).
"""

from itertools import permutations, product
from math import factorial

_OPEN = object()   # a cell the search has not decided yet


def frame_orth(n, f):
    """The orthosupplement of frame f as a list, element -> partner."""
    m = n - 2
    orth = [n - 1] + [0] * (n - 2) + [0]
    for x in range(1, f + 1):
        orth[x] = x
    for x in range(f + 1, m + 1, 2):
        orth[x], orth[x + 1] = x + 1, x
    return orth


def frames(n):
    """The frame parameters f for size n (f has the parity of n - 2)."""
    return range((n - 2) % 2, n - 1, 2)


def labelled_count(n, f):
    """Number of valid sum tables of size n in frame f."""
    one = n - 1
    orth = frame_orth(n, f)
    middles = range(1, one)
    # T[x][y] is an element, None (undefined) or _OPEN
    T = [[_OPEN] * n for _ in range(n)]
    for x in range(n):
        T[0][x] = T[x][0] = x
        if x:
            T[one][x] = T[x][one] = None
    for x in middles:
        T[x][orth[x]] = one
    cells = [(x, y) for x in middles for y in middles
             if x <= y and y != orth[x]]

    def bracketings_agree(a, b, c):
        # (a+b)+c, (a+c)+b and (b+c)+a, those that are known, must agree
        seen = []
        for (p, q), r in (((a, b), c), ((a, c), b), ((b, c), a)):
            s = T[p][q]
            if s is not None:
                if s is _OPEN:
                    continue
                s = T[s][r]
                if s is _OPEN:
                    continue
            seen.append(s)
        return all(s == seen[0] for s in seen)

    def consistent(x, y):
        # every triple in which cell (x, y) is an inner or an outer sum
        for z in range(n):
            if not bracketings_agree(x, y, z):
                return False
        for a in range(n):
            for b in range(a, n):
                s = T[a][b]
                if s == x and not bracketings_agree(a, b, y):
                    return False
                if s == y and not bracketings_agree(a, b, x):
                    return False
        return True

    def count(k):
        if k == len(cells):
            return 1
        x, y = cells[k]
        total = 0
        for v in [*middles, None]:
            # cancellation: a row holds each element at most once
            if v is not None and (v in T[x] or v in T[y]):
                continue
            T[x][y] = T[y][x] = v
            if consistent(x, y):
                total += count(k + 1)
            T[x][y] = T[y][x] = _OPEN
        return total

    return count(0)


def frame_group(n, f):
    """Every relabeling that keeps frame f, as a list element -> element."""
    m = n - 2
    pairs = [(x, x + 1) for x in range(f + 1, m + 1, 2)]
    for fixed in permutations(range(1, f + 1)):
        for order in permutations(pairs):
            for flips in product((False, True), repeat=len(pairs)):
                sigma = [0, *fixed]
                for (a, b), flip in zip(order, flips):
                    sigma += [b, a] if flip else [a, b]
                yield sigma + [n - 1]


def frame_of(E):
    """f if E's table lies in some frame, else None."""
    n = E.size
    if E.zero != 0 or E.one != n - 1:
        return None
    for f in frames(n):
        orth = frame_orth(n, f)
        if all(E.sum[x][orth[x]] == n - 1 for x in range(n)):
            return f
    return None


def automorphism_count(E, f):
    """How many elements of G_f map E's table onto itself."""
    n = E.size
    S = E.sum
    return sum(
        all(S[s[x]][s[y]] == (None if S[x][y] is None else s[S[x][y]])
            for x in range(n) for y in range(x, n))
        for s in frame_group(n, f))


def orbit_sums(algebras, n):
    """Per frame f, the sum of |G_f| / |Aut(E)| over the given classes."""
    m = n - 2
    sums = dict.fromkeys(frames(n), 0)
    for E in algebras:
        f = frame_of(E)
        assert f is not None, "representative outside every frame"
        p = (m - f) // 2
        group = factorial(f) * factorial(p) * 2 ** p
        aut = automorphism_count(E, f)
        assert group % aut == 0
        sums[f] += group // aut
    return sums
