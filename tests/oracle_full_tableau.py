"""The state LPs as one full tableau over the w variables, an oracle for
the parametrized route in effalg.states.

The equality rows kept are the first basis of [coeffs | rhs]; each kept
inequality row gets a slack column; phase 1 of linsolve.solve_standard
then pivots an artificial column out of every equality row.  This is the
route effalg.states took before it solved the LPs in the free parameters
of the equality rows.  It shares state_system, the certificate type and
the pivot kernel with effalg.states (the kernel has its own oracle,
oracle_dense_simplex), and nothing of the parametrization.
"""

from fractions import Fraction

from effalg.linsolve import matrix_rank, row_basis, solve_standard
from effalg.states import (
    InfeasibilityCertificate,
    StateVector,
    _middle_pairs,
    state_system,
)
from effalg.structure import compatible

ZERO = Fraction(0)


def to_standard(sys, ineqs=None):
    """A z = b, z >= 0 over z = (w, one slack per kept inequality row), the
    kept equality rows first; returns A, b and the kept equality rows."""
    n = sys.n_vars
    if ineqs is None:
        ineqs = range(len(sys.ineq_rows))
    eqs = row_basis([coeffs + ((n, rhs),) for coeffs, rhs in sys.eq_rows])
    A = [sys.eq_rows[i][0] for i in eqs]
    b = [sys.eq_rows[i][1] for i in eqs]
    for t, i in enumerate(ineqs):
        coeffs, rhs = sys.ineq_rows[i]
        A.append(coeffs + ((n + t, 1),))
        b.append(rhs)
    return A, b, eqs


def solve(E, sys, ineqs=None):
    """A StateVector (the tableau's vertex) or an InfeasibilityCertificate
    over the whole system, with 0 on every row the tableau left out."""
    if ineqs is None:
        ineqs = list(range(len(sys.ineq_rows)))
    A, b, eqs = to_standard(sys, ineqs)
    res = solve_standard(A, b, sys.n_vars + len(ineqs))
    if res.status == "feasible":
        return StateVector(E, tuple(res.x[:sys.n_vars]))
    lam = iter(res.farkas)
    eq_mult = [ZERO] * len(sys.eq_rows)
    for i in eqs:
        eq_mult[i] = next(lam)
    ineq_mult = [ZERO] * len(sys.ineq_rows)
    for i in ineqs:
        ineq_mult[i] = next(lam)
    return InfeasibilityCertificate(
        system=sys, eq_mult=tuple(eq_mult),
        bound_mult=(ZERO,) * sys.n_vars, ineq_mult=tuple(ineq_mult))


def find_state(E):
    return solve(E, state_system(E))


def find_subadditive_state(E):
    """The tableau with the incompatible pairs' join rows, as the
    parametrized route keeps them."""
    ineqs = [t for t, (x, y) in enumerate(_middle_pairs(E))
             if not compatible(E, x, y)]
    return solve(E, state_system(E, subadditive=True), ineqs)


def state_space_dimension(E):
    """Support growing over the whole tableau: find_state's vertex, then
    the homogenized system A z - lam b = 0 with the w_j outside the
    support summing to 1, until it is infeasible; n minus the rank of the
    equality rows and the w_j = 0 rows outside the support."""
    sys = state_system(E)
    A, b, _ = to_standard(sys)
    n = sys.n_vars
    res = solve_standard(A, b, n)
    if res.status == "infeasible":
        return -1
    support = {j for j in range(n) if res.x[j] != 0}
    homogenized = [row + ((n, -bi),) for row, bi in zip(A, b)]
    rhs = [0] * len(A) + [1]
    while len(support) < n:
        outside = tuple((j, 1) for j in range(n) if j not in support)
        res = solve_standard(homogenized + [outside], rhs, n + 1)
        if res.status == "infeasible":
            break
        support.update(j for j in range(n) if res.x[j] != 0)
    rows = A + [((j, 1),) for j in range(n) if j not in support]
    return n - matrix_rank(rows)
