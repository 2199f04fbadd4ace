"""Exact rational linear feasibility.

Two independent decision routes:

* phase 1 of the primal simplex method (Bland's rule, so runs are
  deterministic and finite), producing either a feasible vertex or a
  Farkas certificate of infeasibility.  There is no objective: state
  existence and the state-space dimension need only feasibility;
* Fourier-Motzkin elimination, kept deliberately separate so it can serve
  as an oracle for the simplex on small systems.

Everything works on the standard form  A x = b, x >= 0, a row of A being
(column, coefficient) pairs in column order; callers add slack variables
for inequalities and upper bounds.  Phase 1 starts from those slacks: the
first column of row i that is the unit vector e_i (after a row with
b_i < 0 is negated) is basic in row i from the start, and only the other
rows get an artificial column.

The tableau holds sparse integer rows: a row is a map from column to
integer numerator with one positive integer denominator, and the gcd of
all of them is divided out after each update (fraction-free in the sense
of Edmonds 1967, J. Res. NBS 71B, and Bareiss 1968, Math. Comp. 22).  State
LPs are mostly zeros (an additivity or join row has at most three nonzero
coefficients, a slack column one nonzero), so a pivot updates only the rows
with a nonzero in the pivot column, over the union of their support and
the pivot row's.  Signs are read off numerators, and the ratio test
compares by integer cross-multiplication, so every comparison is exact and
Bland's rule takes the pivots of the textbook Fraction tableau.  The vertex
and the Farkas multipliers become Fractions only at the end.

row_reduce is Gauss-Jordan elimination on the same sparse integer rows.
It keeps the first maximal independent set of rows in row order
(row_basis; matrix_rank is its size), brings them to reduced row echelon
form, and logs each step, so a combination of reduced rows maps back to
multipliers over the input rows.
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
    "row_reduce",
    "Reduction",
    "FM_VARIABLE_CAP",
]

ZERO = Fraction(0)

FM_VARIABLE_CAP = 12
_FM_ROW_CAP = 200_000


class SimplexResult(NamedTuple):
    status: str  # feasible | infeasible
    x: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None  # multipliers over input rows


def _sparse(pairs):
    """A rational row of (column, value) pairs as ({column: numerator},
    denominator) in lowest terms.

    The denominator is the lcm of the entries' denominators, so the
    numerators and it share no common factor.  A zero value is skipped.
    The map keeps the pairs' column order.
    """
    nz = [(j, v) for j, v in pairs if v]
    den = 1
    for _, v in nz:
        den = lcm(den, v.denominator)
    return {j: v.numerator * (den // v.denominator) for j, v in nz}, den


def _reduce(row, den):
    """Divide the gcd of row's numerators and den out of both, in place;
    returns the new denominator."""
    if den == 1:
        return 1
    g = gcd(den, *row.values())
    if g > 1:
        for j in row:
            row[j] //= g
        den //= g
    return den


def _eliminate(row, den, prow, pden, col):
    """Subtract row[col] times the pivot row (prow / pden, 1 in col) from
    row / den, in place; returns the new denominator.

    With numerators f = row[col] and p = prow, the new row is
    (row * pden - f * p) / (den * pden), so only the pivot row's columns
    see a subtraction, and the scaling by pden is skipped when it is 1.
    """
    f = row[col]
    if pden != 1:
        for j in row:
            row[j] *= pden
        den *= pden
    for j, v in prow.items():
        t = row.get(j, 0) - f * v
        if t:
            row[j] = t
        else:
            del row[j]
    return _reduce(row, den)


def _run_pivots(rows, dens, basis, obj, oden, width):
    """Minimize obj / oden (the reduced-cost row, rhs in column width) with
    Bland's rule; returns the final denominator of obj."""
    while True:
        col = min((j for j, v in obj.items() if v < 0 and j < width), default=-1)
        if col < 0:
            return oden
        # ratio rhs / a per row with a > 0; a row's denominator cancels,
        # so ratios compare by cross-multiplying numerators
        row, hits = -1, []
        for i, r in enumerate(rows):
            a = r.get(col)
            if a:
                hits.append(i)
                if a > 0:
                    t = r.get(width, 0)
                    if row < 0:
                        row, bt, ba = i, t, a
                    else:
                        lhs, rhs = t * ba, bt * a
                        if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                            row, bt, ba = i, t, a
        assert row >= 0, "phase 1 is bounded below by zero"
        prow = rows[row]
        pden = dens[row] = _reduce(prow, prow[col])
        basis[row] = col
        for i in hits:
            if i != row:
                dens[i] = _eliminate(rows[i], dens[i], prow, pden, col)
        oden = _eliminate(obj, oden, prow, pden, col)


def solve_standard(A, b, n) -> SimplexResult:
    """Decide A x = b, x >= 0 over n columns by phase 1 of the simplex method.

    Each row of A is a tuple of (column, coefficient) pairs in increasing
    column order, every column below n.  Returns a deterministic feasible
    vertex x of length n, or a Farkas certificate: multipliers lam over the
    rows of A with lam.A <= 0 componentwise and lam.b > 0.
    """
    m = len(A)
    neg = [b[i] < 0 for i in range(m)]
    rows, dens = [], []
    count = [0] * n  # nonzeros per column
    for i in range(m):
        row, den = _sparse((*A[i], (n, b[i])))  # rhs in column n for now
        if neg[i]:
            for j in row:
                row[j] = -row[j]
        for j in row:
            if j < n:
                count[j] += 1
        rows.append(row)
        dens.append(den)
    # a row starts from its first unit column (a slack) where it has one,
    # and from an artificial column otherwise
    basis = [next((j for j, v in rows[i].items()
                   if j < n and count[j] == 1 and v == dens[i]), None)
             for i in range(m)]
    art = [i for i in range(m) if basis[i] is None]
    width = n + len(art)
    for i, row in enumerate(rows):
        if n in row:
            row[width] = row.pop(n)
    for t, i in enumerate(art):
        rows[i][n + t] = dens[i]
        basis[i] = n + t
    start = list(basis)

    # minimize the artificial total; an artificial column's cost 1 cancels
    # its own row's -1, so its reduced cost starts at 0
    oden = 1
    for i in art:
        oden = lcm(oden, dens[i])
    obj = {}
    for i in art:
        scale = oden // dens[i]
        for j, v in rows[i].items():
            if j < n or j == width:
                obj[j] = obj.get(j, 0) - v * scale
    obj = {j: v for j, v in obj.items() if v}
    oden = _run_pivots(rows, dens, basis, obj, _reduce(obj, oden), width)
    if obj.get(width, 0) < 0:
        # reduced cost under a starting column k of row i is cost_k - y_i,
        # with cost 1 for an artificial and 0 for a slack
        lam = []
        for i, k in enumerate(start):
            y = Fraction((oden if k >= n else 0) - obj.get(k, 0), oden)
            lam.append(-y if neg[i] else y)
        return SimplexResult("infeasible", farkas=tuple(lam))

    # an artificial left in the basis sits at 0, so x is read off as it is
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(rows[i].get(width, 0), dens[i])
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


class Reduction:
    """The reduced row echelon form of a sparse rational matrix, and how
    each of its rows was combined from the input rows.

    kept lists the input rows that are independent of the rows before
    them, in row order; pivots[i] is the pivot column of reduced row i,
    and rows[i] / dens[i] is that row as a sparse integer row over one
    denominator, with value 1 (numerator dens[i]) in its own pivot column
    and 0 in every other row's.  combination() maps a combination of
    reduced rows back to multipliers over the input rows.
    """

    def __init__(self, kept, pivots, rows, dens, log):
        self.kept = kept
        self.pivots = pivots
        self.rows = rows
        self.dens = dens
        self._log = log

    def combination(self, coeffs):
        """Multipliers over the input rows, as {input row: Fraction}, whose
        combination equals sum of coeffs[i] times reduced row i.

        The log holds, in the order they were made, the steps that built
        each reduced row: start from input row k, subtract f / d times
        reduced row j, divide by f / d.  Replaying it backwards moves each
        reduced row's coefficient onto the rows it came from.  Each
        coefficient is kept as a (numerator, denominator) pair in lowest
        terms and becomes a Fraction only at the end.
        """
        nu = {i: (c.numerator, c.denominator) for i, c in coeffs.items() if c}
        lam = {}
        for step, i, j, f, d in reversed(self._log):
            if i not in nu:
                continue
            p, q = nu[i]
            if step == "sub":
                a, b = nu.get(j, (0, 1))
                nu[j] = _lowest(a * q * d - p * f * b, b * q * d)
            elif step == "div":
                nu[i] = _lowest(p * d, q * f)
            else:  # "start": row i began as input row j, its only one
                lam[j] = nu.pop(i)
        return {k: Fraction(p, q) for k, (p, q) in lam.items() if p}


def _lowest(num, den):
    """num / den as a (numerator, denominator) pair in lowest terms; the
    denominator may be negative."""
    g = gcd(num, den)
    return num // g, den // g


def row_reduce(rows) -> Reduction:
    """Gauss-Jordan elimination of rational rows, each a tuple of
    (column, value) pairs, as sparse integer rows.

    Rows are taken in order.  A row is reduced by every kept row whose
    pivot column it has; the kept rows are reduced among themselves, so
    each is zero in the others' pivot columns and no step brings back a
    column another one cleared.  A row left nonzero is kept, with its
    least column as pivot, and that column is cleared from the rows kept
    before it.  A step is the simplex's elimination, with the pivot row
    scaled to 1 in its pivot column.  Only the steps of kept rows are
    logged; a dependent row never enters a combination.
    """
    kept, pivots, red, dens, log = [], [], [], [], []
    where = {}  # pivot column -> reduced row
    for k, pairs in enumerate(rows):
        r, den = _sparse(pairs)
        i = len(red)
        steps = [("start", i, k, 0, 0)]
        for col in [c for c in r if c in where]:
            j = where[col]
            steps.append(("sub", i, j, r[col], den))
            den = _eliminate(r, den, red[j], dens[j], col)
        if not r:
            continue
        col = min(r)
        steps.append(("div", i, 0, r[col], den))
        if r[col] < 0:
            for c in r:
                r[c] = -r[c]
        den = _reduce(r, r[col])
        for j, row in enumerate(red):
            if col in row:
                steps.append(("sub", j, i, row[col], dens[j]))
                dens[j] = _eliminate(row, dens[j], r, den, col)
        log.extend(steps)
        where[col] = i
        kept.append(k)
        pivots.append(col)
        red.append(r)
        dens.append(den)
    return Reduction(kept, pivots, red, dens, log)


def row_basis(rows) -> list[int]:
    """Indices of the first maximal independent set of rational rows, each
    a tuple of (column, value) pairs: the rows row_reduce keeps."""
    return row_reduce(rows).kept


def matrix_rank(rows) -> int:
    """Rank of a rational matrix given as rows of (column, value) pairs."""
    return len(row_basis(rows))
