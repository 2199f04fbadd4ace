"""Exact rational linear feasibility.

Two independent decision routes:

* phase 1 of the primal simplex method over Fractions (Bland's rule, so
  runs are deterministic and finite), producing either a feasible vertex
  or a Farkas certificate of infeasibility.  There is no objective:
  state existence and the state-space dimension need only feasibility;
* Fourier-Motzkin elimination, kept deliberately separate so it can serve
  as an oracle for the simplex on small systems.

Everything works on the standard form  A x = b, x >= 0; callers add slack
variables for inequalities and upper bounds.  Phase 1 starts from those
slacks: a column that is the unit vector e_i of row i (after a row with
b_i < 0 is negated) is basic in row i from the start, and only the other
rows get an artificial column.

State LPs are mostly zeros (an additivity or join row has at most three
nonzero coefficients, a slack column one nonzero), so a pivot works on the
pivot row's nonzero columns only: it updates those entries in place in
each row with a nonzero in the pivot column, and in the reduced-cost row.
An entry that a dense pivot would rewrite as a - f * 0 keeps its value, so
results are those of the textbook pivot.

row_basis picks a maximal independent set of rows, first in row order, by
fraction-free elimination (Bareiss 1968, Math. Comp. 22); matrix_rank is
its size.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import CapExceeded

__all__ = [
    "SimplexResult",
    "solve_standard",
    "fourier_motzkin_feasible",
    "matrix_rank",
    "row_basis",
    "FM_VARIABLE_CAP",
]

ZERO = Fraction(0)
ONE = Fraction(1)

FM_VARIABLE_CAP = 12
_FM_ROW_CAP = 200_000


class SimplexResult(NamedTuple):
    status: str  # feasible | infeasible
    x: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None  # multipliers over input rows


def _pivot(tab, basis, row, col):
    """Pivot on tab[row][col] in place; returns the pivot row's nonzero columns.

    Only those columns can change, in the pivot row and in every other row
    with a nonzero entry in col, so the work is (rows touched) x (nonzeros
    of the pivot row) rather than the whole tableau.
    """
    prow = tab[row]
    nz = [j for j, v in enumerate(prow) if v]
    piv = prow[col]
    if piv != 1:
        for j in nz:
            prow[j] /= piv
    for i, r in enumerate(tab):
        f = r[col]
        if f and i != row:
            for j in nz:
                r[j] -= f * prow[j]
    basis[row] = col
    return nz


def _run_pivots(tab, obj, basis):
    """Minimize obj (a mutable reduced-cost row with rhs last) with Bland's rule."""
    m = len(tab)
    while True:
        col = next((j for j in range(len(obj) - 1) if obj[j] < 0), -1)
        if col < 0:
            return
        row, best = -1, None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        assert row >= 0, "phase 1 is bounded below by zero"
        nz = _pivot(tab, basis, row, col)
        f = obj[col]
        prow = tab[row]
        for j in nz:
            obj[j] -= f * prow[j]


def solve_standard(A, b) -> SimplexResult:
    """Decide A x = b, x >= 0 by phase 1 of the simplex method.

    Returns a deterministic feasible vertex, or a Farkas certificate:
    multipliers lam over the rows of A with lam.A <= 0 componentwise and
    lam.b > 0.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    neg = [b[i] < 0 for i in range(m)]
    tab, support = [], []
    count = [0] * n  # nonzeros per column
    for i in range(m):
        row = [(-Fraction(v) if neg[i] else Fraction(v)) if v else ZERO
               for v in A[i]]
        nz = [j for j, v in enumerate(row) if v is not ZERO]
        for j in nz:
            count[j] += 1
        tab.append(row)
        support.append(nz)
    # a row starts from its first unit column (a slack) where it has one,
    # and from an artificial column otherwise
    basis = [next((j for j in support[i] if count[j] == 1 and tab[i][j] == 1), None)
             for i in range(m)]
    art = [i for i in range(m) if basis[i] is None]
    width = n + len(art)
    for i in range(m):
        rhs = Fraction(b[i])
        tab[i] += [ZERO] * len(art) + [-rhs if neg[i] else rhs]
    for t, i in enumerate(art):
        tab[i][n + t] = ONE
        basis[i] = n + t
    start = list(basis)

    # minimize the artificial total; an artificial column's cost 1 cancels
    # its own row's -1, so its reduced cost starts at 0
    obj = [ZERO] * (width + 1)
    for i in art:
        for j in support[i]:
            obj[j] -= tab[i][j]
        obj[-1] -= tab[i][-1]
    _run_pivots(tab, obj, basis)
    if obj[-1] < 0:
        # reduced cost under a starting column k of row i is cost_k - y_i,
        # with cost 1 for an artificial and 0 for a slack
        lam = tuple((-1 if neg[i] else 1) * ((ONE if k >= n else ZERO) - obj[k])
                    for i, k in enumerate(start))
        return SimplexResult("infeasible", farkas=lam)

    # an artificial left in the basis sits at 0, so x is read off as it is
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    return SimplexResult("feasible", x=tuple(x))


def _integer_row(values):
    """Scale a rational row by a positive rational to integer, gcd-1 form."""
    denom = 1
    for v in values:
        denom = lcm(denom, v.denominator)
    ints = [int(v * denom) for v in values]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints] if g > 1 else ints


def _normalize(coeffs, rhs):
    """Scale a <=-row by a positive rational to integer, gcd-1 form."""
    ints = _integer_row(list(coeffs) + [rhs])
    return tuple(ints[:-1]), ints[-1]


def fourier_motzkin_feasible(rows, n_vars) -> bool:
    """Feasibility of a system of <=-rows (coeffs, rhs) by variable elimination.

    Exponential in the worst case; guarded by FM_VARIABLE_CAP and a row cap.
    Kept free of any simplex machinery on purpose.
    """
    if n_vars > FM_VARIABLE_CAP:
        raise CapExceeded(f"{n_vars} variables exceed the elimination cap")

    system = set()
    for coeffs, rhs in rows:
        coeffs = [Fraction(v) for v in coeffs]
        ints, r = _normalize(coeffs, Fraction(rhs))
        if all(v == 0 for v in ints):
            if r < 0:
                return False
            continue
        system.add((ints, r))

    remaining = list(range(n_vars))
    while remaining:
        # pick the variable with the smallest pos*neg fan-out
        best_var, best_cost = None, None
        for v in remaining:
            p = sum(1 for row, _ in system if row[v] > 0)
            q = sum(1 for row, _ in system if row[v] < 0)
            cost = p * q
            if best_cost is None or cost < best_cost:
                best_var, best_cost = v, cost
        var = best_var
        remaining.remove(var)

        pos = [(r, c) for r, c in system if r[var] > 0]
        neg = [(r, c) for r, c in system if r[var] < 0]
        keep = {(r, c) for r, c in system if r[var] == 0}
        for rp, cp in pos:
            ap = rp[var]
            for rn, cn in neg:
                an = -rn[var]
                combo = [Fraction(an * a + ap * b) for a, b in zip(rp, rn)]
                rhs = Fraction(an * cp + ap * cn)
                ints, r = _normalize(combo, rhs)
                if all(v == 0 for v in ints):
                    if r < 0:
                        return False
                    continue
                keep.add((ints, r))
                if len(keep) > _FM_ROW_CAP:
                    raise CapExceeded("elimination blow-up")
        system = keep
    return all(r >= 0 for _, r in system)


def row_basis(rows) -> list[int]:
    """Indices of the first maximal independent set of rational rows.

    A row is kept when it is independent of the rows kept before it.  Each
    row, scaled to integers, is reduced against the kept rows in turn by
    Bareiss's fraction-free step: the division by the previous pivot is
    exact, so entries stay integers the size of the matrix's minors.
    """
    kept = []  # (pivot column, reduced row) of each kept row
    out = []
    for idx, row in enumerate(rows):
        r = _integer_row([Fraction(v) for v in row])
        prev = 1
        for col, pivot_row in kept:
            p, f = pivot_row[col], r[col]
            r = [(p * a - f * q) // prev for a, q in zip(r, pivot_row)]
            prev = p
        col = next((j for j, v in enumerate(r) if v != 0), None)
        if col is not None:
            kept.append((col, r))
            out.append(idx)
    return out


def matrix_rank(rows) -> int:
    """Rank of a rational matrix."""
    return len(row_basis(rows))
