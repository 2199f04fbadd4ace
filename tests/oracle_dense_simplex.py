"""Dense phase-1 simplex and row-basis oracles, and an independent Farkas check.

solve_dense decides A x = b, x >= 0 the textbook way: every pivot rewrites
every entry of every row it touches, zeros included.  It makes the same
choices as linsolve.solve_standard (the first unit column of a row starts
it, Bland's rule picks the entering column, the ratio test breaks ties by
the smaller basic index), so the two must return equal results.

dense_row_basis is textbook Gaussian elimination over Fractions, an oracle
for linsolve.row_basis.

Deliberately independent of the linsolve module; usable for the state LPs
of algebras up to a few dozen elements.
"""

from fractions import Fraction


def _pivot(tab, basis, row, col):
    inv = 1 / tab[row][col]
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [a - f * p for a, p in zip(r, prow)]
    basis[row] = col


def _minimize(tab, obj, basis):
    while True:
        col = next((j for j in range(len(obj) - 1) if obj[j] < 0), -1)
        if col < 0:
            return
        row, best = -1, None
        for i in range(len(tab)):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        _pivot(tab, basis, row, col)
        f = obj[col]
        obj[:] = [o - f * p for o, p in zip(obj, tab[row])]


def solve_dense(A, b):
    """(status, x, farkas) with status "feasible" or "infeasible"; x is a
    vertex when feasible, farkas the row multipliers when not."""
    m = len(A)
    n = len(A[0]) if m else 0
    signs = [1 if b[i] >= 0 else -1 for i in range(m)]
    rows = [[signs[i] * Fraction(v) for v in A[i]] for i in range(m)]
    basis = [None] * m
    for j in range(n):
        hits = [i for i in range(m) if rows[i][j] != 0]
        if len(hits) == 1 and rows[hits[0]][j] == 1 and basis[hits[0]] is None:
            basis[hits[0]] = j
    art = [i for i in range(m) if basis[i] is None]
    tab = [rows[i] + [Fraction(0)] * len(art) + [signs[i] * Fraction(b[i])]
           for i in range(m)]
    for t, i in enumerate(art):
        tab[i][n + t] = Fraction(1)
        basis[i] = n + t
    start = list(basis)

    obj = [Fraction(0)] * (n + len(art) + 1)
    for i in art:
        obj = [o - v for o, v in zip(obj, tab[i])]
    for t in range(len(art)):
        obj[n + t] += 1
    _minimize(tab, obj, basis)
    if obj[-1] < 0:
        lam = tuple(signs[i] * ((1 if k >= n else 0) - obj[k])
                    for i, k in enumerate(start))
        return "infeasible", None, lam
    x = [Fraction(0)] * n
    for i, k in enumerate(basis):
        if k < n:
            x[k] = tab[i][-1]
    return "feasible", tuple(x), None


def dense_row_basis(rows):
    """Indices of the rows independent of the rows before them: each row is
    reduced by the kept rows, scaled to a leading 1, in the order kept."""
    kept = []  # (pivot column, reduced row with 1 there)
    out = []
    for idx, row in enumerate(rows):
        r = [Fraction(v) for v in row]
        for col, k in kept:
            f = r[col]
            if f != 0:
                r = [a - f * c for a, c in zip(r, k)]
        col = next((j for j, v in enumerate(r) if v != 0), None)
        if col is not None:
            inv = 1 / r[col]
            kept.append((col, [v * inv for v in r]))
            out.append(idx)
    return out


def verify_farkas(A, b, lam) -> bool:
    """lam certifies that A x = b, x >= 0 is infeasible: lam.A <= 0 in every
    column and lam.b > 0."""
    if len(lam) != len(A):
        return False
    n = len(A[0]) if A else 0
    for j in range(n):
        if sum(lam[i] * A[i][j] for i in range(len(A))) > 0:
            return False
    return sum(li * bi for li, bi in zip(lam, b)) > 0
