"""States on finite effect algebras by exact rational feasibility.

A state assigns 0 to zero, 1 to one, and adds across every defined sum.
Existence is decided by the exact simplex in linsolve (no floating point
anywhere near the verdict); infeasibility comes back as a certificate that
re-verifies by independent arithmetic.  The constructive routes lift a
subadditive state through a central element, mirroring the atom-dichotomy
procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from .linsolve import ZERO, ONE, SimplexResult, matrix_rank, row_basis, solve_standard
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

    def value(self, x: int) -> Fraction:
        return self.values[x]

    def items(self):
        return [(self.parent.label(x), self.values[x])
                for x in self.parent.elements()]


@dataclass(frozen=True)
class LinearSystem:
    """The state constraints of one algebra, in terms of the w variables.

    eq_rows: (coeffs, rhs) meaning coeffs . w = rhs
    ineq_rows: (coeffs, rhs) meaning coeffs . w <= rhs
    Every variable also carries the implicit box 0 <= w_i <= 1.
    """

    n_vars: int
    eq_rows: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    ineq_rows: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    eq_labels: tuple[str, ...]
    ineq_labels: tuple[str, ...]
    var_labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Multipliers turning the constraints into an exact contradiction.

    For every w in the box satisfying the system:
        (sum over rows of multiplier * row) . w  >=  certified_gap  >  0
    while the combined coefficient vector is <= 0 and w >= 0.  verify()
    recomputes this from scratch, independently of the solver.
    """

    system: LinearSystem
    eq_mult: tuple[Fraction, ...]
    bound_mult: tuple[Fraction, ...]  # one per w_i <= 1, nonpositive
    ineq_mult: tuple[Fraction, ...]  # one per ineq row, nonpositive

    def verify(self) -> bool:
        sys = self.system
        n = sys.n_vars
        combo = [ZERO] * n
        total = ZERO
        for lam, (coeffs, rhs) in zip(self.eq_mult, sys.eq_rows):
            for j in range(n):
                combo[j] += lam * coeffs[j]
            total += lam * rhs
        for i, mu in enumerate(self.bound_mult):
            if mu > 0:
                return False
            combo[i] += mu
            total += mu
        for nu, (coeffs, rhs) in zip(self.ineq_mult, sys.ineq_rows):
            if nu > 0:
                return False
            for j in range(n):
                combo[j] += nu * coeffs[j]
            total += nu * rhs
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


def state_system(E: FiniteEffectAlgebra, subadditive: bool = False) -> LinearSystem:
    """Constraints for a state (plus join subadditivity on request).

    Additivity rows are generated once per unordered pair of summands;
    rows that are tautological given w(zero)=0 and the box are skipped.
    """
    n = E.size
    eq_rows, eq_labels = [], []

    def row(points, rhs, label):
        coeffs = [ZERO] * n
        for x, c in points:
            coeffs[x] += c
        eq_rows.append((tuple(coeffs), Fraction(rhs)))
        eq_labels.append(label)

    row([(E.zero, ONE)], 0, f"w({E.label(E.zero)}) = 0")
    row([(E.one, ONE)], 1, f"w({E.label(E.one)}) = 1")
    for x in range(n):
        if x == E.zero:
            continue
        for y in range(x, n):
            if y == E.zero:
                continue
            s = E.sum[x][y]
            if s is not None:
                row([(x, ONE), (y, ONE), (s, -ONE)], 0,
                    f"w({E.label(x)}) + w({E.label(y)}) = w({E.label(s)})")

    ineq_rows, ineq_labels = [], []
    if subadditive:
        order = derive_order(E)
        if not order.is_lattice:
            raise NotLattice("subadditivity needs all joins")
        for x in range(n):
            if x in (E.zero, E.one):
                continue
            for y in range(x + 1, n):
                if y in (E.zero, E.one):
                    continue
                j = order.join[x][y]
                coeffs = [ZERO] * n
                coeffs[j] += ONE
                coeffs[x] -= ONE
                coeffs[y] -= ONE
                ineq_rows.append((tuple(coeffs), ZERO))
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


def _implied_bounds(sys: LinearSystem) -> set[int]:
    """Variables whose bound w_i <= 1 the equality rows imply, given w >= 0.

    A unit row w_u = r with r <= 1 bounds w_u.  When w_u = 1 is such a row,
    a complement row sum a_j w_j = w_u with every a_j >= 1, such as
    w(x) + w(x') = w(one), bounds each of its w_j.
    """
    out, ones = set(), set()
    for coeffs, rhs in sys.eq_rows:
        support = [j for j, v in enumerate(coeffs) if v != 0]
        if len(support) == 1 and coeffs[support[0]] == 1 and rhs <= 1:
            out.add(support[0])
            if rhs == 1:
                ones.add(support[0])
    for coeffs, rhs in sys.eq_rows:
        neg = [u for u, v in enumerate(coeffs) if v < 0]
        if (rhs == 0 and len(neg) == 1 and coeffs[neg[0]] == -1
                and neg[0] in ones and all(v >= 1 for v in coeffs if v > 0)):
            out.update(j for j, v in enumerate(coeffs) if v > 0)
    return out


def _to_standard(sys: LinearSystem):
    """Standard form A z = b, z >= 0 of the presolved system.

    The equality rows kept are the first basis of [coeffs | rhs] (so an
    inconsistent system keeps a row that contradicts the others), and a
    bound row w_i <= 1 is kept only where the equalities do not imply it.
    Returns A, b and the indices of the kept equality rows and bounds;
    z = (w, slacks of the kept bounds, ineq slacks).
    """
    n = sys.n_vars
    eqs = row_basis([coeffs + (rhs,) for coeffs, rhs in sys.eq_rows])
    implied = _implied_bounds(sys)
    bounds = [i for i in range(n) if i not in implied]
    k = len(sys.ineq_rows)
    slacks = len(bounds) + k
    A, b = [], []
    for i in eqs:
        coeffs, rhs = sys.eq_rows[i]
        A.append(list(coeffs) + [ZERO] * slacks)
        b.append(rhs)
    for t, i in enumerate(bounds):
        rw = [ZERO] * (n + slacks)
        rw[i] = ONE
        rw[n + t] = ONE
        A.append(rw)
        b.append(ONE)
    for t, (coeffs, rhs) in enumerate(sys.ineq_rows, start=len(bounds)):
        rw = list(coeffs) + [ZERO] * slacks
        rw[n + t] = ONE
        A.append(rw)
        b.append(rhs)
    return A, b, eqs, bounds


def _certificate(sys: LinearSystem, farkas, eqs, bounds) -> InfeasibilityCertificate:
    """The certificate over the whole system: multipliers of the presolved
    rows in place, 0 on every dropped row."""
    lam = iter(farkas)
    eq_mult = [ZERO] * len(sys.eq_rows)
    for i in eqs:
        eq_mult[i] = next(lam)
    bound_mult = [ZERO] * sys.n_vars
    for i in bounds:
        bound_mult[i] = next(lam)
    cert = InfeasibilityCertificate(
        system=sys,
        eq_mult=tuple(eq_mult),
        bound_mult=tuple(bound_mult),
        ineq_mult=tuple(lam),
    )
    if not cert.verify():
        raise InternalCheckFailed("solver produced a certificate that fails "
                                  "independent verification")
    return cert


def _solve(E, sys: LinearSystem):
    A, b, eqs, bounds = _to_standard(sys)
    res = solve_standard(A, b)
    if res.status == "infeasible":
        return _certificate(sys, res.farkas, eqs, bounds)
    state = StateVector(E, tuple(res.x[:sys.n_vars]))
    bad = verify_state(E, state, require_subadditive=bool(sys.ineq_rows))
    if bad:
        raise InternalCheckFailed(f"solver state fails verification: {bad[:3]}")
    return state


def find_state(E: FiniteEffectAlgebra):
    """A StateVector, or an InfeasibilityCertificate when none exists."""
    return _solve(E, state_system(E, subadditive=False))


def find_subadditive_state(E: FiniteEffectAlgebra):
    """A subadditive StateVector, or a certificate; lattice instances only.

    A found state is verified as subadditive, which includes the pairwise
    exchange identity w(x) + w(y) = w(x v y) + w(x ^ y).
    """
    return _solve(E, state_system(E, subadditive=True))


def state_space_dimension(E: FiniteEffectAlgebra) -> int:
    """Affine dimension of the state polytope; -1 when it is empty.

    The LP is the presolved one of find_state.  The affine hull adds
    w_j = 0 for every j whose maximum over the polytope is 0: one LP per
    variable, the first of which also decides feasibility.
    """
    sys = state_system(E, subadditive=False)
    A, b, eqs, _ = _to_standard(sys)
    n = sys.n_vars
    rows = [sys.eq_rows[i][0] for i in eqs]
    for j in range(n):
        c = [ZERO] * len(A[0])
        c[j] = -ONE
        res = solve_standard(A, b, c)
        if res.status == "infeasible":
            return -1
        if res.x[j] == 0:
            rows.append([ONE if i == j else ZERO for i in range(n)])
    return n - matrix_rank(rows)


def fm_feasible(sys: LinearSystem) -> bool:
    """Decide the same system by Fourier-Motzkin elimination.

    An oracle for the simplex route: shares the constraint construction but
    none of the solving machinery.  Practical for n_vars <= 12.
    """
    from .linsolve import fourier_motzkin_feasible

    rows = []
    for coeffs, rhs in sys.eq_rows:
        rows.append((coeffs, rhs))
        rows.append((tuple(-v for v in coeffs), -rhs))
    rows.extend(sys.ineq_rows)
    n = sys.n_vars
    for i in range(n):
        unit = [ZERO] * n
        unit[i] = -ONE
        rows.append((tuple(unit), ZERO))  # w_i >= 0
        unit2 = [ZERO] * n
        unit2[i] = ONE
        rows.append((tuple(unit2), ONE))  # w_i <= 1
    return fourier_motzkin_feasible(rows, n)


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
    and only over pairs whose join/meet exist.
    """
    out = []
    n = E.size
    w = omega.values
    if len(w) != n:
        return [StateViolation("shape", (len(w),), "value count differs from size")]
    if w[E.zero] != 0:
        out.append(StateViolation("zero", (E.zero,), f"w(zero) = {w[E.zero]}"))
    if w[E.one] != 1:
        out.append(StateViolation("one", (E.one,), f"w(one) = {w[E.one]}"))
    for x in range(n):
        if not (0 <= w[x] <= 1):
            out.append(StateViolation("range", (x,), f"w({E.label(x)}) = {w[x]}"))
    for x in range(n):
        for y in range(x, n):
            s = E.sum[x][y]
            if s is not None and w[x] + w[y] != w[s]:
                out.append(StateViolation(
                    "additivity", (x, y, s),
                    f"w({E.label(x)}) + w({E.label(y)}) != w({E.label(s)})"))
    order = derive_order(E)
    for x in range(n):
        for y in bits(order.up[x]):
            if w[x] > w[y]:
                out.append(StateViolation(
                    "monotone", (x, y), f"w({E.label(x)}) > w({E.label(y)})"))
    if require_subadditive:
        for x in range(n):
            for y in range(n):
                j = order.join[x][y]
                if j is not None and w[j] > w[x] + w[y]:
                    out.append(StateViolation(
                        "subadditive", (x, y, j),
                        f"w({E.label(j)}) > w({E.label(x)}) + w({E.label(y)})"))
                m = order.meet[x][y]
                if j is not None and m is not None and w[x] + w[y] != w[j] + w[m]:
                    out.append(StateViolation(
                        "exchange", (x, y),
                        f"w+w != w(join)+w(meet) at ({E.label(x)},{E.label(y)})"))
    return out


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
        raise LiftFailed(sub, f"certificate over [0,{E.label(c)}]")

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

