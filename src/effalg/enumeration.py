"""Exhaustive, isomorph-free generation of finite effect algebras.

Layout convention for generated tables: zero at index 0, one at index n-1,
middles 1..n-2.  The orthosupplement restricted to the middles is first
normalized to the canonical involution (self-paired elements first, then
adjacent pairs); the search then fills the undetermined cells with unit
propagation (the partner rule x+y=v forces y+v' = x'), incremental
associativity checking, and row-injectivity pruning.  A leaf is emitted
iff its table is lexicographically minimal among relabelings that
preserve the frame (zero, one, and the involution layout), so every
isomorphism class surfaces exactly once.

The search is orderly: it fills the cells in the order of the key, column
by column, so the decided cells start with a prefix of the key.  Each time
the next open cell starts a new column, the search asks whether some
frame-preserving relabeling beats the identity on that decided prefix.  If
one does, it beats every completion too, and the subtree is cut.  The
canonical table's prefixes are never cut, since a relabeling that beat one
of them would beat the canonical table itself.  Candidates are tried in
ascending key order (middles ascending, undefined last), so the classes
come out in ascending canonical key (Read 1978), and the first class met
with a property is the least one that has it.

The canonical key exported here uses the same frame-preserving minimum, so
two algebras have equal keys iff they are isomorphic.  One routine,
_key_search, computes the key and answers both canonicity tests.  The
minimum does not depend on the frame layout the search starts from, so
canonical_key lays the frame out by a cheap invariant, the number of
undefined sums in each row (McKay & Piperno 2014).  The identity's key,
the search's first bound, then tends to lie close to the least one
whatever the input's labels, and fewer relabelings get past it.

That routine skips interchangeable elements, a cheap case of pruning by
known automorphisms (McKay 1998), on complete tables and on the partial
tables of the inner-node test alike.  Two candidates for the same positions
are twins when swapping them, together with their orthosupplements, maps
the table onto itself, open cells to open cells; a candidate is skipped
while an earlier twin is unplaced, since its subtree is a relabeled copy of
the twin's with the same keys.  A table whose m middles are self-paired and
interchangeable then costs m relabelings instead of m!, and so does an
early inner node of a frame with many self-paired middles, where few cells
are decided and most middles are still interchangeable.  A swap is tested
on one row per transposition: it is an involution, so if it maps row a
onto row b, it maps row b onto row a.

Two shortcuts spare the search work whose outcome is already known, and
neither changes a decision.  A middle candidate v for x+y is skipped
without an assignment when a partner cell, y+v' or x+v', is decided and
holds another value than the rule demands (x' or y'): assign would write
the cell, recurse into the partner rule and fail there, since it never
changes a decided cell.  The node is still counted, so budgets and
checkpoints see the same nodes.  And each chunk keeps the placed prefix
of the last relabeling that cut, its witness, and tries it first at the
next column or leaf test: consecutive tests tend to be cut by the same
relabeling.  The witness cuts only where an entry read from decided cells
is strictly below the identity's after a run of ties, all before the
identity's first open cell.  That relabeling then beats every completion,
and the full search would find one too; every other case runs the full
search.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import time
from dataclasses import dataclass

from .core import FiniteEffectAlgebra, derive_order, validate
from .errors import (BudgetExceeded, CheckpointError, EffectAlgebraError,
                     InternalCheckFailed)
from .structure import is_modular, sharp_mask

__all__ = [
    "EnumerationConfig",
    "enumerate_algebras",
    "canonical_key",
    "is_isomorphic",
    "find_stateless",
    "StatelessSearch",
    "read_checkpoint",
    "write_checkpoint",
]

UNKNOWN = -2
UNDEF = -1

CHECKPOINT_VERSION = 4  # 4: a count of completed chunks

# a checkpoint's kind is told by its exact set of fields
_ENUMERATION_FIELDS = frozenset({"version", "size", "filters", "done", "yielded"})
_STATELESS_FIELDS = frozenset({"version", "size", "done", "checked", "found"})
_FILTERS = ("lattice_only", "modular_only", "unsharp_only")


@dataclass(frozen=True)
class EnumerationConfig:
    """What to enumerate and how hard to try.

    Filters keep only instances with the named property; budgets raise
    BudgetExceeded carrying a resumable checkpoint; jobs > 1 distributes
    search chunks over processes (results keep a deterministic order).
    """

    size: int
    lattice_only: bool = False
    modular_only: bool = False
    unsharp_only: bool = False  # keep only instances with S(E) != E
    node_budget: int | None = None
    time_budget: float | None = None
    jobs: int = 1
    checkpoint: dict | None = None  # previously returned checkpoint to resume

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("size must be at least 2")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time budget must be positive")


@functools.cache
def _involution(n: int, f: int) -> tuple[int, ...]:
    """Full orthosupplement layout: f self-paired middles, then pairs."""
    m = n - 2
    orth = [0] * n
    orth[0] = n - 1
    orth[n - 1] = 0
    for x in range(1, f + 1):
        orth[x] = x
    for p in range(f + 1, m + 1, 2):
        orth[p] = p + 1
        orth[p + 1] = p
    return tuple(orth)


class _Search:
    """Backtracking state for one (size, involution) frame."""

    def __init__(self, n: int, f: int):
        self.n = n
        self.f = f
        m = n - 2
        self.m = m
        one = n - 1
        self.one = one
        self.orth = _involution(n, f)
        T = [UNKNOWN] * (n * n)
        for y in range(n):
            T[y] = y              # row 0
            T[y * n] = y          # column 0
        for y in range(1, n):
            T[one * n + y] = UNDEF
            T[y * n + one] = UNDEF
        T[one * n] = one
        T[one] = one
        for x in range(1, m + 1):
            T[x * n + self.orth[x]] = one
            T[self.orth[x] * n + x] = one
        self.T = T
        rowvals = [0] * n
        for x in range(n):
            mask = 0
            for y in range(n):
                v = T[x * n + y]
                if v >= 0:
                    mask |= 1 << v
            rowvals[x] = mask
        self.rowvals = rowvals
        self.undef_row = [UNDEF] * n
        self.occ = [[] for _ in range(n)]
        self.trail = []
        # key order (_key_cells), so that the decided cells form a prefix of
        # the key; orthosupplement cells are fixed to one by the frame
        self.cells = [(i, d) for i, d in _key_cells(m) if self.orth[i] != d]

    # -- assignment with propagation ------------------------------------

    def assign(self, x, y, v) -> bool:
        """Set cell (x, y) (and its mirror) to v; propagate; False on conflict.

        x and y are middles and v is a middle or UNDEF.  The associativity
        conditions that the new cell takes part in are tested once each:
        T is symmetric, so (a+b)+c = a+(b+c) is the same condition as
        (c+b)+a = c+(b+a).  A condition holds while one of its cells is open.
        """
        T, n = self.T, self.n
        cur = T[x * n + y]
        if cur != UNKNOWN:
            return cur == v
        if v >= 0:
            if (self.rowvals[x] >> v & 1) or (self.rowvals[y] >> v & 1):
                return False
        T[x * n + y] = v
        T[y * n + x] = v
        self.trail.append((x, y))
        if v >= 0:
            self.rowvals[x] |= 1 << v
            if y != x:
                self.rowvals[y] |= 1 << v
            self.occ[v].append((x, y))
            # partner rule: x+y=v forces y+v' = x' and x+v' = y'
            ov = self.orth[v]
            if not (self.assign(y, ov, self.orth[x]) if y < ov
                    else self.assign(ov, y, self.orth[x])):
                return False
            if x != y and not (self.assign(x, ov, self.orth[y]) if x < ov
                               else self.assign(ov, x, self.orth[y])):
                return False
        # rows read after the partner rule, so that they hold its writes.  A
        # middle's row holds UNDEF in its last column, so row[UNDEF] is UNDEF.
        rx = T[x * n:x * n + n]
        ry = T[y * n:y * n + n]
        rv = T[v * n:v * n + n] if v >= 0 else self.undef_row
        # (x+y)+z = x+(y+z) for every z, and (x+y)+z = y+(x+z) when x != y
        for z in range(n):
            w = rv[z]
            if w == UNKNOWN:
                continue
            a = ry[z]
            if a != UNKNOWN and w != rx[a] != UNKNOWN:
                return False
            if x != y:
                a = rx[z]
                if a != UNKNOWN and w != ry[a] != UNKNOWN:
                    return False
        # x = p+q gives v = p+(q+y) = q+(p+y), and y = p+q gives
        # v = p+(q+x) = q+(p+x)
        for s, row in ((x, ry), (y, rx)) if x != y else ((x, ry),):
            for p, q in self.occ[s]:
                a = row[q]
                if a != UNKNOWN and v != (T[p * n + a] if a >= 0 else UNDEF) \
                        != UNKNOWN:
                    return False
                a = row[p]
                if a != UNKNOWN and v != (T[q * n + a] if a >= 0 else UNDEF) \
                        != UNKNOWN:
                    return False
        return True

    def undo_to(self, mark: int):
        T, n = self.T, self.n
        while len(self.trail) > mark:
            x, y = self.trail.pop()
            v = T[x * n + y]
            if v >= 0:
                self.occ[v].pop()
                self.rowvals[x] &= ~(1 << v)
                if y != x:
                    self.rowvals[y] &= ~(1 << v)
            T[x * n + y] = UNKNOWN
            T[y * n + x] = UNKNOWN

    def candidates(self, x, y):
        """Branch values for an open cell: middles ascending, then undefined."""
        used = self.rowvals[x] | self.rowvals[y]
        out = [v for v in range(1, self.m + 1) if not (used >> v & 1)]
        out.append(UNDEF)
        return out

    def clashes(self, x, y, v) -> bool:
        """Whether x+y=v contradicts a decided partner cell: y+v' decided
        and not x', or x+v' decided and not y'.  assign(x, y, v) would fail
        on that cell, since assign never changes a decided cell."""
        if v < 0:
            return False
        T, n, orth = self.T, self.n, self.orth
        ov = orth[v]
        w = T[y * n + ov]
        if w != UNKNOWN and w != orth[x]:
            return True
        w = T[x * n + ov]
        return w != UNKNOWN and w != orth[y]


@functools.cache
def _key_cells(m: int):
    """Cell order whose prefixes are decided by prefixes of a relabeling."""
    return tuple((i, d) for d in range(1, m + 1) for i in range(1, d + 1))


def _twins(T, n, f):
    """Per middle e, the list of e's earlier twins in the table T.

    Two candidates for the same positions are twins when swapping them maps
    T onto itself: two self-paired middles a, b by (a b); elements a, b of
    two orthosupplement pairs by (a b)(a' b'); the two elements of one pair
    by (a a').  T may be partial; the swap fixes UNKNOWN as it fixes UNDEF,
    so it must map open cells to open cells and decided cells to decided
    cells of the swapped value.
    """
    m = n - 2
    middles = range(1, m + 1)
    # a swap keeps each row's numbers of undefined sums and of open cells
    sig = [0] * n
    for x in middles:
        row = T[x * n:x * n + n]
        sig[x] = (row.count(UNDEF), row.count(UNKNOWN))
    # the swap tried; it fixes UNKNOWN and UNDEF
    sigma = list(range(n)) + [UNKNOWN, UNDEF]

    def swaps(*transpositions) -> bool:
        # whether these disjoint transpositions, applied together, fix T
        for a, b in transpositions:
            sigma[a], sigma[b] = b, a
        # a cell can break the swap only if it lies in the row (or column:
        # T is symmetric) of a moved element or holds one.  The rows suffice,
        # as the moved elements are closed under ': if x + y = a with x and y
        # fixed, the row of a' holds y + a' = x', which the swap keeps only
        # if x + y = sigma(a) too.  One row per transposition (a b) suffices:
        # sigma is an involution, so if it maps row a onto row b, applying it
        # to both sides maps row b onto row a.
        ok = all(T[b * n + sigma[y]] == sigma[T[a * n + y]]
                 for a, b in transpositions for y in middles)
        for a, b in transpositions:
            sigma[a], sigma[b] = a, b
        return ok

    twins = [[] for _ in range(n)]
    for b in range(2, f + 1):
        for a in range(1, b):
            if sig[a] == sig[b] and swaps((a, b)):
                twins[b].append(a)
    for p in range(f + 1, m + 1, 2):
        if sig[p] == sig[p + 1] and swaps((p, p + 1)):
            twins[p + 1].append(p)
        for q in range(p + 2, m + 1, 2):
            if sig[p] == sig[q] and sig[p + 1] == sig[q + 1] \
                    and swaps((p, q), (p + 1, q + 1)):
                twins[q].append(p)
                twins[q + 1].append(p + 1)
            if sig[p] == sig[q + 1] and sig[p + 1] == sig[q] \
                    and swaps((p, q + 1), (p + 1, q)):
                twins[q].append(p + 1)
                twins[q + 1].append(p)
    return twins


def _min_key_search(T, n, f, stop_below=False):
    """Least key over frame-preserving relabelings, or with stop_below
    whether any relabeling is strictly below the identity's key
    (_key_search)."""
    found = _key_search(T, n, f, stop_below)
    return found is not None if stop_below else found


def _key_search(T, n, f, stop_below):
    """Least key over frame-preserving relabelings.

    Relabelings permute the self-paired middles among positions 1..f and
    the orthosupplement pairs (as pairs, either orientation) among the
    remaining positions.  With stop_below set, the search answers the
    question "is any relabeling strictly below the identity's key?" and
    exits at the first hit, returning the hit's placed prefix (the
    elements at positions 1, 2, ...), or None when there is none;
    otherwise it returns the minimum key itself.

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

    The twins are computed only once a candidate comes up at a depth where
    an earlier candidate has already been descended into.  Until then the
    skip changes nothing.  An unplaced earlier twin of e is an earlier
    candidate at e's depth, where nothing has been skipped yet, so it was
    placed, and its comparison failed without descending.  A failing
    comparison leaves best as it was (one that lowers best descends), so
    best is the same when e is compared, and e reads the same entries as
    its twin: e fails in the same way, and it is skipped in effect.  A
    search that finds its hit below the first candidate it descends into
    at each depth, as many cut inner nodes do, never scans for twins.
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
    twins = None   # _twins(T, n, f), once a candidate could be skipped
    orth = _involution(n, f)
    fixed = list(range(1, f + 1))
    paired = list(range(f + 1, m + 1))

    def descend(d, j):
        # the entries before j equal best's; returns the placed prefix of a
        # relabeling strictly below the identity once one is found
        # (stop_below only), else None.  Without stop_below
        # a relabeling below best on a prefix lowers best to that prefix
        # followed by n + 2, above every entry; the relabeling's first
        # completion then fills best in, so best ends as the least key.
        nonlocal twins
        if d > m:
            return None
        if d <= f:
            cands, width = fixed, 1
        else:
            cands, width = paired, 2
        nxt = d + width
        end = (nxt - 1) * nxt // 2   # the entries of columns 1..nxt-1
        descended = False   # whether a candidate at d was descended into
        for e in cands:
            if pos[e]:
                continue
            if descended:
                if twins is None:
                    twins = _twins(T, n, f)
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
            if k == -2:
                return inv[1:nxt]
            if k >= 0:
                descended = True
                hit = descend(nxt, k)
                if hit:
                    return hit
            pos[e] = pos[orth[e]] = 0
        return None

    try:
        found = descend(1, 0)
    finally:
        del descend   # descend refers to itself: free the search now
    return found if stop_below else tuple(best)


def _witness_cuts(T, n, witness) -> bool:
    """Whether the partial relabeling witness, the elements it places at
    positions 1, 2, ..., beats the identity on T's decided key prefix.

    This is _key_search's comparison for one relabeling: the entries of
    the placed columns are read in key order, and the first that differs
    decides.  Only an entry strictly below the identity's, both read from
    decided cells before the identity's first open cell, cuts.  A
    relabeled entry read from an open cell, or whose sum has no position
    yet, concludes nothing, and neither do ties to the end.
    """
    pos = [0] * n + [n + 1, n]   # as in _key_search
    pos[n - 1] = n - 1
    for p, e in enumerate(witness, 1):
        pos[e] = p
    cells = _key_cells(n - 2)
    w = len(witness)
    for k in range(w * (w + 1) // 2):
        i, d = cells[k]
        b = T[i * n + d]
        if b == UNKNOWN:
            return False   # the identity's first open cell
        if b == UNDEF:
            b = n
        enc = pos[T[witness[i - 1] * n + witness[d - 1]]]
        if enc != b:
            return 0 < enc < b
    return False


def _beaten(T, n, f, witness: list) -> bool:
    """Whether a frame-preserving relabeling beats the identity on T's
    decided key prefix: the column test on a partial T, the leaf test on
    a complete one.

    witness holds the placed prefix of the last relabeling that did.  It
    is tried first, and the full search runs only when it does not cut;
    a hit of the full search becomes the witness.  The answer is the full
    search's either way: a prefix that cuts extends to a relabeling that
    the full search would find below the identity.
    """
    if _witness_cuts(T, n, witness):
        return True
    found = _key_search(T, n, f, True)
    if found is None:
        return False
    witness[:] = found
    return True


def _is_canonical(T, n, f, witness) -> bool:
    return not _beaten(T, n, f, witness)


def _table_to_algebra(T, n) -> FiniteEffectAlgebra:
    rows = []
    for x in range(n):
        rows.append(tuple(None if T[x * n + y] == UNDEF else T[x * n + y]
                          for y in range(n)))
    return FiniteEffectAlgebra(size=n, zero=0, one=n - 1, sum=tuple(rows))


def canonical_key(E: FiniteEffectAlgebra):
    """A total isomorphism invariant of a valid algebra.

    Moves zero to 0 and one to n-1, lays the orthosupplement out in the
    canonical frame (self-paired middles first, pairs adjacent), then takes
    the least flattened middle-block table over frame-preserving
    relabelings.  Keys are equal iff the algebras are isomorphic.

    The key is a minimum over every frame-preserving relabeling, so it does
    not depend on the layout the search starts from.  That layout follows
    an invariant, not the input's labels: the self-paired middles by their
    number of undefined sums, then the pairs, each with its member with
    fewer undefined sums first, by those two numbers; ties keep label
    order.  Relabeled copies thus start near their least key.
    """
    n = E.size
    orth, S = E.orth, E.sum
    undef = [row.count(None) for row in S]
    middles = [x for x in E.elements() if x not in (E.zero, E.one)]
    fixed = sorted((x for x in middles if orth[x] == x), key=undef.__getitem__)
    pairs = sorted(((x, orth[x]) if undef[x] <= undef[orth[x]] else (orth[x], x)
                    for x in middles if x < orth[x]),
                   key=lambda p: (undef[p[0]], undef[p[1]]))
    layout = [E.zero, *fixed, *(x for p in pairs for x in p), E.one]
    rho = [0] * n
    for i, x in enumerate(layout):
        rho[x] = i
    permuted = operator.itemgetter(*layout)
    T = [UNDEF if v is None else rho[v] for x in layout for v in permuted(S[x])]
    return (n, len(fixed), _min_key_search(T, n, len(fixed)))


def _frame(E: FiniteEffectAlgebra):
    """The first two fields of the key: size and self-paired middles."""
    return (E.size, sum(x == y for x, y in enumerate(E.orth)))


def is_isomorphic(E1: FiniteEffectAlgebra, E2: FiniteEffectAlgebra) -> bool:
    """Whether the keys are equal; algebras of different frames are told
    apart without a min-key search."""
    return _frame(E1) == _frame(E2) and canonical_key(E1) == canonical_key(E2)


# -- chunked depth-first generation --------------------------------------

# decision levels a chunk's prefix fixes; chunks are the unit of checkpoints
# and of --jobs
_CHUNK_DEPTH = 2


def _f_values(n: int):
    m = n - 2
    return list(range(m % 2, m + 1, 2))


class _Budget:
    """Nodes spent against one command's node limit and deadline (a
    time.monotonic() value: system-wide, so pool workers share it)."""

    def __init__(self, node_budget, deadline):
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0

    def nodes_left(self):
        return None if self.node_budget is None else self.node_budget - self.nodes

    def exhausted(self) -> bool:
        return ((self.node_budget is not None and self.nodes > self.node_budget)
                or (self.deadline is not None and time.monotonic() > self.deadline))

    def spend(self):
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _BudgetSignal()
        if self.nodes % 1024 == 0 and self.exhausted():
            raise _BudgetSignal()


class _BudgetSignal(Exception):
    pass


def _next_open(search: _Search, start: int) -> int:
    cells, T, n = search.cells, search.T, search.n
    k = start
    while k < len(cells):
        x, y = cells[k]
        if T[x * n + y] == UNKNOWN:
            return k
        k += 1
    return -1


def _collect_prefixes(n: int, f: int, depth: int):
    """Choice paths of the first `depth` decision levels, in search order.

    Each prefix is a tuple of (cell_index, value) choices that replays to a
    consistent partial table; a prefix shorter than `depth` ends in a leaf.
    """
    search = _Search(n, f)
    out = []

    def walk(level, start, path):
        k = _next_open(search, start)
        if k < 0 or level == depth:
            out.append(tuple(path))
            return
        x, y = search.cells[k]
        for v in search.candidates(x, y):
            mark = len(search.trail)
            if search.assign(x, y, v):
                path.append((k, v))
                walk(level + 1, k + 1, path)
                path.pop()
            search.undo_to(mark)

    try:
        walk(0, 0, [])
    finally:
        del walk   # walk refers to itself: free the search now
    return out


def _run_chunk(n, f, prefix, budget: _Budget):
    """All canonical complete tables below one prefix, in search order."""
    if budget.exhausted():
        raise _BudgetSignal()
    search = _Search(n, f)
    for k, v in prefix:
        x, y = search.cells[k]
        assert search.T[x * search.n + y] == UNKNOWN, "prefix replay out of step"
        ok = search.assign(x, y, v)
        assert ok, "prefix replay diverged"
    found = []
    start = (prefix[-1][0] + 1) if prefix else 0
    witness = []   # the last cutting relabeling's placed prefix (_beaten)

    def dfs(start, column):
        k = _next_open(search, start)
        T = search.T
        if k < 0:
            if _is_canonical(T, n, f, witness):
                E = _table_to_algebra(T, n)
                bad = validate(E)
                if bad:
                    raise InternalCheckFailed(
                        f"generator emitted an invalid table: {bad[:2]}")
                found.append(tuple(E.sum))
            return
        x, y = search.cells[k]
        # a new column: if a relabeling beats the decided prefix of the key,
        # it beats every completion, so none of them is canonical
        if y != column and _beaten(T, n, f, witness):
            return
        for v in search.candidates(x, y):
            budget.spend()
            # assign would fail on the decided partner cell
            if search.clashes(x, y, v):
                continue
            mark = len(search.trail)
            if search.assign(x, y, v):
                dfs(k + 1, y)
            search.undo_to(mark)

    try:
        dfs(start, 0)
    finally:
        del dfs   # dfs refers to itself: free the search now
    return found


def _passes_filters(E: FiniteEffectAlgebra, config: EnumerationConfig) -> bool:
    if config.lattice_only or config.modular_only:
        if not derive_order(E).is_lattice:
            return False
    if config.modular_only and not is_modular(E):
        return False
    if config.unsharp_only and sharp_mask(E) == (1 << E.size) - 1:
        return False
    return True


def _filters(config: EnumerationConfig) -> list[str]:
    return [name for name in _FILTERS if getattr(config, name)]


@functools.cache
def _chunks(n: int):
    """Every chunk of size n as (f, prefix), in search order."""
    return tuple((f, prefix) for f in _f_values(n)
                 for prefix in _collect_prefixes(n, f, _CHUNK_DEPTH))


def _chunk_worker(args):
    n, f, prefix, node_budget, deadline = args
    budget = _Budget(node_budget, deadline)
    try:
        tables = _run_chunk(n, f, prefix, budget)
    except _BudgetSignal:
        return (None, budget.nodes)
    return (tables, budget.nodes)


class _Cut(Exception):
    """The budget ran out once the first `done` chunks had completed."""

    def __init__(self, done: int):
        self.done = done


def _generate(config: EnumerationConfig, budget: _Budget, done: int):
    """The classes of the chunks after the first `done`, in search order.

    Applies the filters of config but reads neither its budget fields nor
    its checkpoint: the budget may be shared with other sizes.  Raises
    _Cut when the budget runs out, after yielding every class of the
    chunks it counts as done.
    """
    n = config.size
    # a chunk may spend the nodes left when it is handed out, and stops at
    # the deadline; the whole budget is checked again after each chunk
    args = ((n, f, prefix, budget.nodes_left(), budget.deadline)
            for f, prefix in _chunks(n)[done:])
    pool = None
    if config.jobs <= 1:
        results = map(_chunk_worker, args)
    else:
        import multiprocessing as mp

        pool = mp.Pool(config.jobs)
        results = pool.imap(_chunk_worker, list(args))
    try:
        for tables, nodes in results:
            budget.nodes += nodes
            if tables is None or budget.exhausted():
                raise _Cut(done)
            done += 1
            for rows in tables:
                E = FiniteEffectAlgebra(size=n, zero=0, one=n - 1, sum=rows)
                if _passes_filters(E, config):
                    yield E
    finally:
        if pool is not None:
            pool.terminate()


def enumerate_algebras(config: EnumerationConfig):
    """Yield one representative per isomorphism class of the given size.

    Classes come in ascending canonical_key order: each is emitted as its
    canonical table, and the search meets tables in key order.  Honors
    filters, budgets, checkpoints, and the process pool.  Raises
    BudgetExceeded with a checkpoint of the completed chunks when a budget
    runs out.
    """
    n = config.size
    done = yielded = 0
    cp = config.checkpoint
    if cp is not None:
        _check_checkpoint(cp, _ENUMERATION_FIELDS, "an enumeration", range(n, n + 1))
        if cp["filters"] != _filters(config):
            raise CheckpointError(f"checkpoint taken with filters {cp['filters']!r}, "
                                  f"not {_filters(config)!r}")
        if not _is_count(cp["yielded"]):
            raise CheckpointError("ill-formed enumeration checkpoint")
        done, yielded = cp["done"], cp["yielded"]
    deadline = (time.monotonic() + config.time_budget
                if config.time_budget is not None else None)
    try:
        for E in _generate(config, _Budget(config.node_budget, deadline), done):
            yielded += 1
            yield E
    except _Cut as cut:
        raise BudgetExceeded({
            "version": CHECKPOINT_VERSION, "size": n,
            "filters": _filters(config), "done": cut.done,
            "yielded": yielded}) from None


# -- checkpoints -----------------------------------------------------------


def read_checkpoint(path) -> dict | None:
    """The checkpoint stored at path, or None without a path or a file.

    Raises CheckpointError when the file cannot be read as JSON.  Whether
    it fits an enumeration is checked when the enumeration resumes from it.
    """
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from None


def write_checkpoint(path, checkpoint: dict):
    """Store checkpoint at path as JSON; CheckpointError when it cannot."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(checkpoint, fh)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from None


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _check_checkpoint(cp, fields, kind: str, sizes):
    """Reject cp unless it has exactly these fields, the current version,
    a size in sizes and a count of that size's chunks done."""
    if not isinstance(cp, dict) or set(cp) != fields:
        raise CheckpointError(f"not a checkpoint of {kind}")
    if cp["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {cp['version']!r}, "
                              f"expected {CHECKPOINT_VERSION}")
    if type(cp["size"]) is not int or cp["size"] not in sizes:
        want = sizes[0] if len(sizes) == 1 else f"{sizes[0]}..{sizes[-1]}"
        raise CheckpointError(f"checkpoint is for size {cp['size']!r}, "
                              f"not {want}")
    total = len(_chunks(cp["size"]))
    if not _is_count(cp["done"]) or cp["done"] > total:
        raise CheckpointError(f"checkpoint has done {cp['done']!r} chunks, "
                              f"not a count of 0..{total}")


def _found_algebra(data, n: int) -> FiniteEffectAlgebra:
    try:
        E = _rows_from_jsonable(data)
        ok = E.size == n and not validate(E)
    except (TypeError, ValueError, EffectAlgebraError):
        ok = False
    if not ok:
        raise CheckpointError(f"checkpoint holds a table that is not a valid "
                              f"algebra of size {n}")
    return E


@dataclass(frozen=True)
class StatelessSearch:
    """Outcome of a stateless hunt: the instance (or None), sizes fully
    cleared, and how many classes were examined."""

    found: FiniteEffectAlgebra | None
    cleared_sizes: tuple[int, ...]
    checked: int


def find_stateless(max_n: int, node_budget=None, time_budget=None, jobs=1,
                   checkpoint=None) -> StatelessSearch:
    """Scan sizes 2..max_n for an algebra admitting no state.

    Returns the canonically first stateless instance of the smallest size
    that has one: enumeration meets the classes in ascending canonical_key,
    so that is the first one met.  The rest of that size is still generated,
    with no state test, so that `checked` counts all of its classes.  The
    node and time budgets bound the whole scan, all sizes and workers
    together.  BudgetExceeded carries a checkpoint (the size reached, its
    chunks done, the classes checked and the stateless instance already met
    at that size, if any) that can be passed back in to resume.
    """
    from .states import StateVector, find_state

    deadline = time.monotonic() + time_budget if time_budget is not None else None
    budget = _Budget(node_budget, deadline)
    start_size, done, checked, found = 2, 0, 0, None
    if checkpoint is not None:
        _check_checkpoint(checkpoint, _STATELESS_FIELDS, "a stateless search",
                          range(2, max_n + 1))
        if not _is_count(checkpoint["checked"]):
            raise CheckpointError("ill-formed stateless search checkpoint")
        start_size, done = checkpoint["size"], checkpoint["done"]
        checked = checkpoint["checked"]
        if checkpoint["found"] is not None:
            found = _found_algebra(checkpoint["found"], start_size)

    for n in range(start_size, max_n + 1):
        try:
            for E in _generate(EnumerationConfig(size=n, jobs=jobs), budget, done):
                checked += 1
                if found is None and not isinstance(find_state(E), StateVector):
                    found = E
        except _Cut as cut:
            cp = {
                "version": CHECKPOINT_VERSION,
                "size": n,
                "done": cut.done,
                "checked": checked,
                "found": None if found is None else _rows_to_jsonable(found.sum),
            }
            raise BudgetExceeded(cp, cleared_sizes=range(2, n)) from None
        if found is not None:
            return StatelessSearch(found, tuple(range(2, n)), checked)
        done = 0
    return StatelessSearch(None, tuple(range(2, max_n + 1)), checked)


def _rows_to_jsonable(rows):
    return [[-1 if v is None else v for v in row] for row in rows]


def _rows_from_jsonable(data) -> FiniteEffectAlgebra:
    rows = tuple(tuple(None if v == -1 else v for v in row) for row in data)
    return FiniteEffectAlgebra(size=len(rows), zero=0, one=len(rows) - 1, sum=rows)
