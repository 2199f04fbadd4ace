"""Reference for enumeration._min_key_search: the same search with the
twin scan _twins(T, n, f) run on every call, before the first candidate
is placed, where the routine under test runs it only once some candidate
could be skipped.  Both must return the same, on complete and on partial
tables, with and without stop_below.
"""

from effalg.enumeration import _involution, _key_cells, _twins


def eager_min_key_search(T, n, f, stop_below=False):
    """Least key over frame-preserving relabelings.

    Relabelings permute the self-paired middles among positions 1..f and
    the orthosupplement pairs (as pairs, either orientation) among the
    remaining positions.  With stop_below set, the search answers the
    yes/no question "is any relabeling strictly below the identity's key?"
    and exits at the first hit; otherwise it returns the minimum key itself.

    T may be partial (UNKNOWN cells) when stop_below is set.  Then only the
    identity's decided prefix, its key up to the first open cell, is
    compared, and a hit means that the relabeling beats the identity on
    every completion of T.  A relabeled entry read from an open cell ends
    that relabeling with no conclusion.

    Positions are filled in order, and placing position d decides the
    key's column d.  Each relabeling is compared entry by entry as its
    columns are decided.  An entry whose value has no position yet stays
    open until a later placement gives it one, which will be at least the
    next free position; while it is open, the entries after it are not
    compared.

    A candidate e for position d is skipped while one of its earlier twins
    (_twins) is unplaced.  The swap sigma of e and that twin fixes every
    placed element and maps T onto itself, so following a relabeling below
    e by sigma gives one below the twin that reads the same entries.  This
    holds on a partial T too: sigma maps decided cells to decided cells of
    the swapped value and open cells to open cells, so the two relabelings
    meet an open cell at the same entry and are compared alike, entry by
    entry.  Each skipped relabeling thus has a relabeling earlier in
    candidate order that reads the same key, and the earliest of each key
    is never skipped: the least key, the stop_below answer (on complete
    and on partial tables) and so every cut and every emitted table are
    those of the search without the skip.
    """
    m = n - 2
    cells = _key_cells(m)
    size = len(cells)
    # a key entry is the position of the sum, n where it is undefined and
    # n + 1 where the cell is open: pos[UNDEF] = n, pos[UNKNOWN] = n + 1
    identity = list(range(n)) + [n + 1, n]
    best = [identity[T[i * n + d]] for i, d in cells]
    inv = [0] * n   # position -> original element
    pos = [0] * n + [n + 1, n]   # original element -> position (0 = unplaced)
    pos[n - 1] = n - 1
    if n + 1 in best:
        # -1 lies below every entry: tying the decided prefix concludes nothing
        cut = best.index(n + 1)
        best[cut:] = [-1] * (size - cut)
    twins = _twins(T, n, f)
    orth = _involution(n, f)
    fixed = list(range(1, f + 1))
    paired = list(range(f + 1, m + 1))

    def descend(d, j) -> bool:
        # the entries before j equal best's; True once a relabeling is found
        # strictly below the identity (stop_below only).  Without stop_below
        # a relabeling below best on a prefix lowers best to that prefix
        # followed by n + 2, above every entry; the relabeling's first
        # completion then fills best in, so best ends as the least key.
        if d > m:
            return False
        if d <= f:
            cands, width = fixed, 1
        else:
            cands, width = paired, 2
        nxt = d + width
        end = (nxt - 1) * nxt // 2   # the entries of columns 1..nxt-1
        for e in cands:
            if pos[e]:
                continue
            # an unplaced earlier twin's subtree is a relabeled copy of e's
            if twins[e] and not all(pos[t] for t in twins[e]):
                continue
            inv[d] = e
            pos[e] = d
            if width == 2:
                inv[d + 1] = orth[e]
                pos[orth[e]] = d + 1
            k = j
            while k < end:
                i, dd = cells[k]
                enc = pos[T[inv[i] * n + inv[dd]]]
                b = best[k]
                if enc == b:
                    k += 1
                elif enc == 0:
                    if nxt > b:   # its position will be above b
                        k = -1
                    break
                elif enc > b:
                    k = -1
                    break
                elif stop_below:
                    k = -2   # below the identity
                    break
                else:
                    if b != n + 2:
                        best[k + 1:] = [n + 2] * (size - k - 1)
                    best[k] = enc
                    k += 1
            hit = k == -2 or k >= 0 and descend(nxt, k)
            pos[e] = pos[orth[e]] = 0
            if hit:
                return True
        return False

    found = descend(1, 0)
    return found if stop_below else tuple(best)
