"""States on finite effect algebras by exact rational feasibility.

A state assigns 0 to zero, 1 to one, and adds across every defined sum.
Existence is decided by the exact simplex in linsolve (no floating point
anywhere near the verdict); infeasibility comes back as a certificate that
re-verifies by independent arithmetic.  The constructive routes lift a
subadditive state through a central element, mirroring the atom-dichotomy
procedure.

The functions here take a valid algebra.  The LP carries no bound rows
w(x) <= 1: the complement rows w(x) + w(x') = w(1) = 1 and w >= 0 imply
them, and state_system raises StructuralError on a table where some
element lacks a unique orthosupplement.  Its rows have integer
coefficients (0 and +-1 on the right), so the LP runs in integers from
state_system to the vertex; verify_state and the certificate check scale
the values or multipliers by the lcm of their denominators and check in
integers too.

The subadditive LP puts a join row in the tableau only for a pair that is
not Mackey compatible.  For compatible x = x1 + d and y = y1 + d the sum
x1 + y1 + d bounds x and y, so w(x v y) <= w(x) + w(y) - w(d) holds for
every state and the join row is implied.  state_system still returns every
join row, and a certificate gives each dropped row multiplier 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .construct import interval
from .core import FiniteEffectAlgebra, bits, derive_order, element_order, oplus_sum
from .errors import (
    DichotomyFailed,
    HypothesisViolated,
    InternalCheckFailed,
    LiftFailed,
    NotCentral,
    NotLattice,
)
from .linsolve import ZERO, matrix_rank, row_basis, solve_standard
from .structure import (
    center,
    compatibility_center,
    compatible,
    finite_elements,
    is_archimedean,
    is_atomic,
    is_modular,
    sharp_mask,
)

__all__ = [
    "StateVector",
    "LinearSystem",
    "InfeasibilityCertificate",
    "StateViolation",
    "state_system",
    "find_state",
    "find_subadditive_state",
    "state_space_dimension",
    "verify_state",
    "state_from_central_finite",
    "lift_failed",
    "state_via_exstate_procedure",
    "ExstateTrace",
    "fraction_str",
]


def fraction_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class StateVector:
    """An exact rational value per element; check with verify_state."""

    parent: FiniteEffectAlgebra
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class LinearSystem:
    """The state constraints of one algebra, in terms of the w variables.

    eq_rows: (coeffs, rhs) meaning coeffs . w = rhs
    ineq_rows: (coeffs, rhs) meaning coeffs . w <= rhs
    coeffs is sparse: a tuple of (column, coefficient) pairs, nonzero
    integer coefficients only, in increasing column order, as linsolve
    takes its rows; rhs is an integer too.  Every variable also satisfies
    w_i >= 0.  No row says w_i <= 1: the complement rows
    w(x) + w(x') = w(1) = 1 imply it.  ineq_rows holds a join row for every
    pair of middles; find_subadditive_state solves with the incompatible
    pairs' rows only, which imply the rest.
    """

    n_vars: int
    eq_rows: tuple[tuple[tuple[tuple[int, int], ...], int], ...]
    ineq_rows: tuple[tuple[tuple[tuple[int, int], ...], int], ...]
    eq_labels: tuple[str, ...]
    ineq_labels: tuple[str, ...]
    var_labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Multipliers turning the constraints into an exact contradiction.

    For every w in the box satisfying the system:
        (sum over rows of multiplier * row) . w  >=  certified_gap  >  0
    while the combined coefficient vector is <= 0 and w >= 0.  verify()
    recomputes this from scratch, independently of the solver, in integers
    (the multipliers scaled by the lcm of their denominators), and fails a
    certificate without exactly one multiplier per row and per bound.
    """

    system: LinearSystem
    eq_mult: tuple[Fraction, ...]
    bound_mult: tuple[Fraction, ...]  # one per w_i <= 1; 0 from the solver
    ineq_mult: tuple[Fraction, ...]  # one per ineq row, nonpositive

    def verify(self) -> bool:
        sys = self.system
        n = sys.n_vars
        if (len(self.eq_mult) != len(sys.eq_rows) or len(self.bound_mult) != n
                or len(self.ineq_mult) != len(sys.ineq_rows)):
            return False
        if any(m > 0 for m in self.bound_mult + self.ineq_mult):
            return False
        # scaling every multiplier by one positive integer keeps each sign
        # below, so the sums are taken over integer multipliers
        den = lcm(*(m.denominator for m in
                    self.eq_mult + self.bound_mult + self.ineq_mult))
        combo = [0] * n
        total = 0
        for mults, rows in ((self.eq_mult, sys.eq_rows),
                            (self.ineq_mult, sys.ineq_rows)):
            for m, (coeffs, rhs) in zip(mults, rows):
                if m:
                    k = m.numerator * (den // m.denominator)
                    for j, c in coeffs:
                        combo[j] += k * c
                    total += k * rhs
        for i, m in enumerate(self.bound_mult):
            k = m.numerator * (den // m.denominator)
            combo[i] += k
            total += k
        return all(v <= 0 for v in combo) and total > 0

    def rows(self):
        """(label, multiplier) pairs with nonzero multipliers, for reports."""
        out = []
        for lam, lab in zip(self.eq_mult, self.system.eq_labels):
            if lam != 0:
                out.append((lab, lam))
        for i, mu in enumerate(self.bound_mult):
            if mu != 0:
                name = (self.system.var_labels[i]
                        if self.system.var_labels else str(i))
                out.append((f"w({name}) <= 1", mu))
        for nu, lab in zip(self.ineq_mult, self.system.ineq_labels):
            if nu != 0:
                out.append((lab, nu))
        return out


def _pairs(points):
    """The sparse row of (column, coefficient) points: coefficients summed
    per column, zeros dropped, in increasing column order."""
    coeffs = {}
    for x, c in points:
        coeffs[x] = coeffs.get(x, 0) + c
    return tuple((x, c) for x, c in sorted(coeffs.items()) if c)


def _middle_pairs(E: FiniteEffectAlgebra):
    """The pairs x < y of elements other than zero and one, in the order of
    state_system's join rows."""
    middles = [x for x in range(E.size) if x not in (E.zero, E.one)]
    for i, x in enumerate(middles):
        for y in middles[i + 1:]:
            yield x, y


def state_system(E: FiniteEffectAlgebra, subadditive: bool = False) -> LinearSystem:
    """Constraints for a state (plus join subadditivity on request).

    Additivity rows are generated once per unordered pair of summands;
    rows that are tautological given w(zero)=0 are skipped.  E.orth is read
    first: it raises StructuralError unless every element has exactly one
    orthosupplement, whose complement row bounds the LP.
    """
    E.orth
    n = E.size
    eq_rows, eq_labels = [], []

    def row(points, rhs, label):
        eq_rows.append((_pairs(points), rhs))
        eq_labels.append(label)

    row([(E.zero, 1)], 0, f"w({E.label(E.zero)}) = 0")
    row([(E.one, 1)], 1, f"w({E.label(E.one)}) = 1")
    for x in range(n):
        if x == E.zero:
            continue
        for y in range(x, n):
            if y == E.zero:
                continue
            s = E.sum[x][y]
            if s is not None:
                row([(x, 1), (y, 1), (s, -1)], 0,
                    f"w({E.label(x)}) + w({E.label(y)}) = w({E.label(s)})")

    ineq_rows, ineq_labels = [], []
    if subadditive:
        order = derive_order(E)
        if not order.is_lattice:
            raise NotLattice("subadditivity needs all joins")
        for x, y in _middle_pairs(E):
            j = order.join[x][y]
            ineq_rows.append((_pairs([(j, 1), (x, -1), (y, -1)]), 0))
            ineq_labels.append(
                f"w({E.label(j)}) <= w({E.label(x)}) + w({E.label(y)})")

    return LinearSystem(
        n_vars=n,
        eq_rows=tuple(eq_rows),
        ineq_rows=tuple(ineq_rows),
        eq_labels=tuple(eq_labels),
        ineq_labels=tuple(ineq_labels),
        var_labels=tuple(E.label(x) for x in E.elements()),
    )


def _to_standard(sys: LinearSystem, ineqs=None):
    """Standard form A z = b, z >= 0 of the presolved system.

    The equality rows kept are the first basis of [coeffs | rhs], so an
    inconsistent system keeps a row that contradicts the others.  No row
    bounds w_i <= 1, which the complement rows imply.  ineqs lists the
    inequality rows to keep, in order (all of them by default).  Returns
    A, b and the indices of the kept equality rows; z = (w, ineq slacks)
    has n_vars + len(ineqs) columns, and the t-th kept inequality row has
    its slack in column n_vars + t, after its own columns.
    """
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


def _certificate(sys: LinearSystem, farkas, eqs, ineqs) -> InfeasibilityCertificate:
    """The certificate over the whole system: multipliers of the presolved
    rows in place, 0 on every dropped row and every bound."""
    lam = iter(farkas)
    eq_mult = [ZERO] * len(sys.eq_rows)
    for i in eqs:
        eq_mult[i] = next(lam)
    ineq_mult = [ZERO] * len(sys.ineq_rows)
    for i in ineqs:
        ineq_mult[i] = next(lam)
    cert = InfeasibilityCertificate(
        system=sys,
        eq_mult=tuple(eq_mult),
        bound_mult=(ZERO,) * sys.n_vars,
        ineq_mult=tuple(ineq_mult),
    )
    if not cert.verify():
        raise InternalCheckFailed("solver produced a certificate that fails "
                                  "independent verification")
    return cert


def _solve(E, sys: LinearSystem, ineqs):
    """Solve sys with the equality rows and the inequality rows ineqs."""
    A, b, eqs = _to_standard(sys, ineqs)
    res = solve_standard(A, b, sys.n_vars + len(ineqs))
    if res.status == "infeasible":
        return _certificate(sys, res.farkas, eqs, ineqs)
    state = StateVector(E, tuple(res.x[:sys.n_vars]))
    bad = verify_state(E, state, require_subadditive=bool(sys.ineq_rows))
    if bad:
        raise InternalCheckFailed(f"solver state fails verification: {bad[:3]}")
    return state


def find_state(E: FiniteEffectAlgebra):
    """A StateVector, or an InfeasibilityCertificate when none exists."""
    return _solve(E, state_system(E, subadditive=False), ())


def find_subadditive_state(E: FiniteEffectAlgebra):
    """A subadditive StateVector, or a certificate; lattice instances only.

    The tableau has the join rows of the incompatible pairs only: the
    others are implied (see the module docstring), so the LP has the same
    states.  A found state is verified as subadditive over every pair,
    which includes the pairwise exchange identity
    w(x) + w(y) = w(x v y) + w(x ^ y).
    """
    sys = state_system(E, subadditive=True)
    ineqs = [t for t, (x, y) in enumerate(_middle_pairs(E))
             if not compatible(E, x, y)]
    return _solve(E, sys, ineqs)


def state_space_dimension(E: FiniteEffectAlgebra) -> int:
    """Affine dimension of the state polytope; -1 when it is empty.

    The affine hull is cut out by the equality rows and by w_j = 0 for
    every j that no state makes positive (Schrijver 1986, Theory of Linear
    and Integer Programming), so feasibility LPs suffice.  The first is the
    presolved LP of find_state, and its vertex's support starts the set of
    coordinates some state makes positive.  Each further LP is the
    homogenized system A z - lam b = 0, z >= 0, lam >= 0, with the w_j
    outside that set summing to 1: a solution adds its support to the set,
    and infeasibility ends the search.  The rows w(1) = 1 and
    w(x) + w(x') = w(1) homogenize to w(1) = lam >= w(x), so lam > 0 and
    z / lam is a state.  Each point found is positive where all earlier
    ones are 0, so the points are affinely independent and a call solves
    at most dim + 2 LPs.
    """
    sys = state_system(E, subadditive=False)
    A, b, eqs = _to_standard(sys)
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


def fm_feasible(sys: LinearSystem) -> bool:
    """Decide the same system by Fourier-Motzkin elimination.

    An oracle for the simplex route: shares the constraint construction but
    none of the solving machinery.  Practical for n_vars <= 12.
    """
    from .linsolve import fourier_motzkin_feasible

    n = sys.n_vars
    rows = []
    for coeffs, rhs in sys.eq_rows:
        rows.append((coeffs, rhs))
        rows.append((tuple((j, -c) for j, c in coeffs), -rhs))
    rows.extend(sys.ineq_rows)
    for i in range(n):
        rows.append((((i, -1),), 0))  # w_i >= 0
        rows.append((((i, 1),), 1))  # w_i <= 1
    dense = []
    for coeffs, rhs in rows:
        row = [0] * n
        for j, c in coeffs:
            row[j] = c
        dense.append((row, rhs))
    return fourier_motzkin_feasible(dense, n)


@dataclass(frozen=True)
class StateViolation:
    kind: str
    witness: tuple
    message: str


def verify_state(E: FiniteEffectAlgebra, omega: StateVector,
                 require_subadditive: bool = False) -> list[StateViolation]:
    """Every broken state condition with a witness; empty means clean.

    Verification never raises: problems come back as report entries.
    Subadditivity and the exchange identity are checked only on request
    and only over pairs whose join/meet exist.  The values are rationals;
    the checks compare them scaled to integers by the lcm of their
    denominators.
    """
    out = []
    n = E.size
    w = omega.values
    if len(w) != n:
        return [StateViolation("shape", (len(w),), "value count differs from size")]
    # the checks compare v = w * den; a message shows w itself
    den = lcm(*(u.denominator for u in w))
    v = [u.numerator * (den // u.denominator) for u in w]
    if v[E.zero] != 0:
        out.append(StateViolation("zero", (E.zero,), f"w(zero) = {w[E.zero]}"))
    if v[E.one] != den:
        out.append(StateViolation("one", (E.one,), f"w(one) = {w[E.one]}"))
    for x in range(n):
        if not (0 <= v[x] <= den):
            out.append(StateViolation("range", (x,), f"w({E.label(x)}) = {w[x]}"))
    for x in range(n):
        row = E.sum[x]
        for y in range(x, n):
            s = row[y]
            if s is not None and v[x] + v[y] != v[s]:
                out.append(StateViolation(
                    "additivity", (x, y, s),
                    f"w({E.label(x)}) + w({E.label(y)}) != w({E.label(s)})"))
    order = derive_order(E)
    for x in range(n):
        for y in bits(order.up[x]):
            if v[x] > v[y]:
                out.append(StateViolation(
                    "monotone", (x, y), f"w({E.label(x)}) > w({E.label(y)})"))
    if require_subadditive:
        for x in range(n):
            joins, meets = order.join[x], order.meet[x]
            for y in range(n):
                j = joins[y]
                if j is not None and v[j] > v[x] + v[y]:
                    out.append(StateViolation(
                        "subadditive", (x, y, j),
                        f"w({E.label(j)}) > w({E.label(x)}) + w({E.label(y)})"))
                m = meets[y]
                if j is not None and m is not None and v[x] + v[y] != v[j] + v[m]:
                    out.append(StateViolation(
                        "exchange", (x, y),
                        f"w+w != w(join)+w(meet) at ({E.label(x)},{E.label(y)})"))
    return out


def lift_failed(E: FiniteEffectAlgebra, c: int,
                sub: FiniteEffectAlgebra) -> LiftFailed:
    """The error for a central element c whose interval sub = [0, c] has
    no subadditive state."""
    return LiftFailed(sub, f"certificate over [0,{E.label(c)}]")


def state_from_central_finite(E: FiniteEffectAlgebra, c: int) -> StateVector:
    """Lift a subadditive state of [0, c] through a central element c.

    Requires c central and nonzero with [0, c] modular; the interval state
    comes from the solver and the lift w(x) = w_c(x meet c) is verified to
    be a subadditive state on E.
    """
    if c == E.zero:
        raise HypothesisViolated("c != 0", "the zero element spans no interval")
    cen = center(E)
    if c not in cen:
        raise NotCentral(f"{E.label(c)} is not central")
    if c not in finite_elements(E):
        raise HypothesisViolated("c finite", "unreachable on a finite algebra")

    order = derive_order(E)
    sub = interval(E, E.zero, c)
    carrier = [x for x in E.elements() if order.leq(x, c)]
    pos = {x: i for i, x in enumerate(carrier)}

    mod = is_modular(sub)
    if not mod:
        raise HypothesisViolated("[0,c] modular", f"witness triple {mod.witness}")

    inner = find_subadditive_state(sub)
    if not isinstance(inner, StateVector):
        raise lift_failed(E, c, sub)

    values = tuple(inner.values[pos[order.meet[x][c]]] for x in E.elements())
    lifted = StateVector(E, values)
    bad = verify_state(E, lifted, require_subadditive=True)
    if bad:
        raise InternalCheckFailed(f"central lift is not a subadditive state: {bad[:3]}")
    return lifted


@dataclass(frozen=True)
class ExstateTrace:
    """What the atom-dichotomy procedure did: which atom, which branch,
    every dichotomy check (other atom, join, doubled atom), and the central
    element it produced."""

    atom: int
    atom_order: int
    branch: str  # "central-atom" | "dichotomy"
    dichotomy_checks: tuple[tuple[int, int, int], ...]
    central: int


class ExstateOutcome(NamedTuple):
    state: StateVector
    trace: ExstateTrace


def state_via_exstate_procedure(E: FiniteEffectAlgebra) -> ExstateOutcome:
    """Build a subadditive state constructively on a modular, Archimedean,
    atomic lattice instance that is not orthomodular.

    Procedure: pick an unsharp atom a; either a is compatible with
    everything (then n_a * a is central directly) or every incompatible
    atom b must satisfy a v b = 2a, which again makes n_a * a central.
    The state is then lifted from [0, n_a * a].
    """
    order = derive_order(E)
    if not order.is_lattice:
        raise HypothesisViolated("lattice", "some join or meet is missing")
    # finite instances are Archimedean and atomic, but both are computed
    arch = is_archimedean(E)
    if not arch:
        raise HypothesisViolated("archimedean",
                                 f"multiples of {arch.witness[0]} cycle")
    if not is_atomic(E):
        raise HypothesisViolated("atomic", "an element dominates no atom")
    smask = sharp_mask(E)
    if smask == (1 << E.size) - 1:
        raise HypothesisViolated("S(E) != E", "S(E)=E")
    mod = is_modular(E)
    if not mod:
        raise HypothesisViolated("finite elements form a modular lattice",
                                 f"witness triple {mod.witness}")

    unsharp_atoms = [a for a in order.atoms if not (smask >> a & 1)]
    if not unsharp_atoms:
        raise InternalCheckFailed(
            "S(E) != E on an atomic instance but every atom is sharp")
    a = unsharp_atoms[0]
    n_a = element_order(E, a)

    checks = []
    if a in compatibility_center(E):
        branch = "central-atom"
    else:
        branch = "dichotomy"
        two_a = E.sum[a][a]
        if two_a is None:
            raise DichotomyFailed(a, a, "2a undefined for an unsharp atom")
        for b in order.atoms:
            if b != a and not compatible(E, a, b):
                j = order.join[a][b]
                checks.append((b, j, two_a))
                if j != two_a:
                    raise DichotomyFailed(a, b, f"join {j} != doubled atom {two_a}")

    c = oplus_sum(E, [a] * n_a)
    if c not in center(E):
        raise InternalCheckFailed(
            f"saturated atom multiple {c} is not central; falsification alarm")

    state = state_from_central_finite(E, c)
    return ExstateOutcome(state, ExstateTrace(
        atom=a, atom_order=n_a, branch=branch,
        dichotomy_checks=tuple(checks), central=c))

