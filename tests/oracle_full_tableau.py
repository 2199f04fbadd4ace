"""The state LPs as one full tableau over the w variables, an oracle for
the parametrized route in effalg.states.

The equality rows kept are the first basis of [coeffs | rhs]; each
inequality row gets a slack column; phase 1 of linsolve.solve_standard
then pivots an artificial column out of every equality row.  This is the
route effalg.states took before it solved the LPs in the free parameters
of the equality rows.  It shares state_system, the certificate type and
the pivot kernel with effalg.states (the kernel has its own oracle,
oracle_dense_simplex), and nothing of the parametrization.
"""

from fractions import Fraction

from effalg.linsolve import matrix_rank, row_basis, solve_standard
from effalg.states import InfeasibilityCertificate, StateVector, state_system

ZERO = Fraction(0)


def to_standard(sys):
    """A z = b, z >= 0 over z = (w, one slack per inequality row), the kept
    equality rows first; returns A, b and the kept equality rows."""
    n = sys.n_vars
    eqs = row_basis([coeffs + ((n, rhs),) for coeffs, rhs in sys.eq_rows])
    A = [sys.eq_rows[i][0] for i in eqs]
    b = [sys.eq_rows[i][1] for i in eqs]
    for t, (coeffs, rhs) in enumerate(sys.ineq_rows):
        A.append(coeffs + ((n + t, 1),))
        b.append(rhs)
    return A, b, eqs


def solve(E, sys):
    """A StateVector (the tableau's vertex) or an InfeasibilityCertificate
    over the whole system, with 0 on every equality row the tableau left
    out."""
    A, b, eqs = to_standard(sys)
    res = solve_standard(A, b, sys.n_vars + len(sys.ineq_rows))
    if res.status == "feasible":
        return StateVector(E, tuple(res.x[:sys.n_vars]))
    lam = iter(res.farkas)
    eq_mult = [ZERO] * len(sys.eq_rows)
    for i in eqs:
        eq_mult[i] = next(lam)
    return InfeasibilityCertificate(
        system=sys, eq_mult=tuple(eq_mult),
        bound_mult=(ZERO,) * sys.n_vars, ineq_mult=tuple(lam))


def find_state(E):
    return solve(E, state_system(E))


def find_subadditive_state(E):
    return solve(E, state_system(E, subadditive=True))


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
