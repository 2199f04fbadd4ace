"""Exact rational linear feasibility and optimization.

Two independent decision routes:

* a two-phase primal simplex over Fractions (Bland's rule, so runs are
  deterministic and finite), producing either a point or a Farkas
  certificate of infeasibility;
* Fourier-Motzkin elimination, kept deliberately separate so it can serve
  as an oracle for the simplex on small systems.

Everything works on the standard form  A x = b, x >= 0; callers add slack
variables for inequalities and upper bounds.  Phase 1 starts from those
slacks: a column that is the unit vector e_i of row i (after a row with
b_i < 0 is negated) is basic in row i from the start, and only the other
rows get an artificial column.

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
    "verify_farkas",
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
    status: str  # optimal | infeasible | unbounded
    x: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    farkas: tuple[Fraction, ...] | None = None  # multipliers over input rows


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    inv = ONE / piv
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [a - f * p for a, p in zip(r, prow)]
    basis[row] = col


def _run_pivots(tab, obj, basis, allowed):
    """Minimize obj (a mutable reduced-cost row with rhs last) with Bland's rule."""
    m = len(tab)
    while True:
        col = -1
        for j in allowed:
            if obj[j] < 0:
                col = j
                break
        if col < 0:
            return "optimal"
        row, best = -1, None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        if row < 0:
            return "unbounded:%d" % col
        _pivot(tab, basis, row, col)
        f = obj[col]
        prow = tab[row]
        for j in range(len(obj)):
            obj[j] -= f * prow[j]


def solve_standard(A, b, c=None) -> SimplexResult:
    """Solve min c.x subject to A x = b, x >= 0 (feasibility if c is None).

    Returns a deterministic optimal vertex, an unbounded verdict, or a
    Farkas certificate: multipliers lam over the rows of A with
    lam.A <= 0 componentwise and lam.b > 0.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    signs = [ONE if b[i] >= 0 else -ONE for i in range(m)]
    rows = [[signs[i] * Fraction(v) for v in A[i]] for i in range(m)]
    # a row starts from its first unit column (a slack) where it has one,
    # and from an artificial column otherwise
    basis = [None] * m
    for j in range(n):
        hits = [i for i in range(m) if rows[i][j] != 0]
        if len(hits) == 1 and rows[hits[0]][j] == 1 and basis[hits[0]] is None:
            basis[hits[0]] = j
    art = [i for i in range(m) if basis[i] is None]
    width = n + len(art)
    tab = [rows[i] + [ZERO] * len(art) + [signs[i] * Fraction(b[i])] for i in range(m)]
    for t, i in enumerate(art):
        tab[i][n + t] = ONE
        basis[i] = n + t
    start = list(basis)

    # phase 1: minimize the artificial total
    obj = [ZERO] * (width + 1)
    for i in art:
        for j, v in enumerate(tab[i]):
            if v != 0:
                obj[j] -= v
    for t in range(len(art)):
        obj[n + t] += ONE
    status = _run_pivots(tab, obj, basis, list(range(width)))
    assert status == "optimal", "phase 1 is bounded below by zero"
    infeas = -obj[-1]
    if infeas > 0:
        # reduced cost under a starting column k of row i is cost_k - y_i,
        # with cost 1 for an artificial and 0 for a slack
        lam = tuple(signs[i] * ((ONE if k >= n else ZERO) - obj[k])
                    for i, k in enumerate(start))
        return SimplexResult("infeasible", farkas=lam)

    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)

    def extract():
        x = [ZERO] * n
        for i, bi in enumerate(basis):
            if bi < n:
                x[bi] = tab[i][-1]
        return tuple(x)

    if c is None:
        return SimplexResult("optimal", x=extract(), objective=ZERO)

    # phase 2 over the real objective; artificial columns stay out
    cost = [Fraction(v) for v in c]
    obj = cost + [ZERO] * (width + 1 - n)
    for i, bi in enumerate(basis):
        if bi < n and cost[bi] != 0:
            f = cost[bi]
            for j in range(width + 1):
                obj[j] -= f * tab[i][j]
    status = _run_pivots(tab, obj, basis, list(range(n)))
    if status.startswith("unbounded"):
        return SimplexResult("unbounded")
    x = extract()
    value = sum(ci * xi for ci, xi in zip(cost, x))
    return SimplexResult("optimal", x=x, objective=value)


def verify_farkas(A, b, lam) -> bool:
    """Independent check that lam certifies infeasibility of Ax=b, x>=0."""
    if len(lam) != len(A):
        return False
    n = len(A[0]) if A else 0
    for j in range(n):
        if sum(lam[i] * A[i][j] for i in range(len(A))) > 0:
            return False
    return sum(li * bi for li, bi in zip(lam, b)) > 0


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
