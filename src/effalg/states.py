"""States on finite effect algebras by exact rational feasibility.

A state assigns 0 to zero, 1 to one, and adds across every defined sum.
Existence is decided by exact arithmetic in linsolve (no floating point
anywhere near the verdict); infeasibility comes back as a certificate that
re-verifies by independent arithmetic.  The constructive routes lift a
subadditive state through a central element, mirroring the atom-dichotomy
procedure.

An LP is solved in the free parameters of its equality rows (implicit
equalities and the Farkas alternative: Schrijver 1986, Theory of Linear
and Integer Programming).  One Gauss-Jordan elimination (row_reduce)
writes every solution of the additivity rows as w = w0 + N t, with t the
k values at the columns that are no pivot; k is 1-4 on the constructions
measured.  An inconsistent system is refuted by the elimination alone.
Otherwise w0 + N t >= 0 and the kept join rows are decided by the
alternative y >= 0, y N = 0, y w0 = -1, which has k + 1 rows, with the
simplex's phase 1.  When the alternative is infeasible, its multipliers
(u, s) give t = u / s, a state; when it has a solution y, the
elimination's record maps y to multipliers over the input rows, and the
certificate covers the unreduced state_system.

The functions here take a valid algebra.  The LP carries no bound rows
w(x) <= 1: the complement rows w(x) + w(x') = w(1) = 1 and w >= 0 imply
them, and state_system raises StructuralError on a table where some
element lacks a unique orthosupplement.  Its rows have integer
coefficients (0 and +-1 on the right), so the LP runs in integers from
state_system to the state; verify_state and the certificate check scale
the values or multipliers by the lcm of their denominators and check in
integers too.

The subadditive LP has a join row only for a pair that is not Mackey
compatible.  For compatible x = x1 + d and y = y1 + d the sum
x1 + y1 + d bounds x and y, so w(x v y) <= w(x) + w(y) - w(d) holds for
every state and the join row is implied.  state_system still returns every
join row, and a certificate gives each dropped row multiplier 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .construct import central_decomposition
from .core import FiniteEffectAlgebra, bits, derive_order, element_order, oplus_sum
from .errors import (
    DichotomyFailed,
    HypothesisViolated,
    InternalCheckFailed,
    LiftFailed,
    NotCentral,
    NotLattice,
)
from .linsolve import ZERO, matrix_rank, row_reduce, solve_standard
from .structure import (
    compatibility_adjacency,
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
    "lift_state",
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


def _sum_row(x, y, s, c=1):
    """The sparse row of c * (w(x) + w(y) - w(s)) for x <= y: coefficients
    summed per column, zeros dropped, in increasing column order."""
    if x == y:
        if s == x:
            return ((x, c),)
        return ((s, -c), (x, 2 * c)) if s < x else ((x, 2 * c), (s, -c))
    if s == x:
        return ((y, c),)
    if s == y:
        return ((x, c),)
    if s < x:
        return ((s, -c), (x, c), (y, c))
    if s < y:
        return ((x, c), (s, -c), (y, c))
    return ((x, c), (y, c), (s, -c))


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
    n, zero, one = E.size, E.zero, E.one
    label = [E.label(x) for x in range(n)]
    eq_rows = [(((zero, 1),), 0), (((one, 1),), 1)]
    eq_labels = [f"w({label[zero]}) = 0", f"w({label[one]}) = 1"]
    for x in range(n):
        if x == zero:
            continue
        row = E.sum[x]
        for y in range(x, n):
            s = row[y]
            if s is not None and y != zero:
                eq_rows.append((_sum_row(x, y, s), 0))
                eq_labels.append(f"w({label[x]}) + w({label[y]}) = w({label[s]})")

    ineq_rows, ineq_labels = [], []
    if subadditive:
        order = derive_order(E)
        if not order.is_lattice:
            raise NotLattice("subadditivity needs all joins")
        for x, y in _middle_pairs(E):
            j = order.join[x][y]
            ineq_rows.append((_sum_row(x, y, j, -1), 0))
            ineq_labels.append(f"w({label[j]}) <= w({label[x]}) + w({label[y]})")

    return LinearSystem(
        n_vars=n,
        eq_rows=tuple(eq_rows),
        ineq_rows=tuple(ineq_rows),
        eq_labels=tuple(eq_labels),
        ineq_labels=tuple(ineq_labels),
        var_labels=tuple(label),
    )


def _parametrize(sys: LinearSystem, ineqs):
    """The states of sys as w = w0 + N t: eliminate the equality rows once
    and write w >= 0 and the inequality rows ineqs in the free parameters.

    Returns (red, k, cons).  red is the row-reduced [coeffs | rhs] of the
    equality rows; t_q is w at the q-th of the k columns that are no
    pivot.  cons holds one constraint per w_i >= 0 and per inequality row
    in ineqs, each as (coefficients, scale): the constraint times its
    positive integer scale reads coefficients . (t, 1) >= 0, with
    coefficients a map {q: value} and the constant term at q = k.  A pivot
    row reads w_p + sum over free f of R_f w_f = R_n, so
    den * w_p = R_n - sum R_f t_f.  cons is None when the equality rows
    are inconsistent: a reduced row then has its pivot in the rhs column.
    """
    n = sys.n_vars
    red = row_reduce([coeffs + ((n, rhs),) for coeffs, rhs in sys.eq_rows])
    pivot_row = dict(zip(red.pivots, zip(red.rows, red.dens)))
    free = [j for j in range(n) if j not in pivot_row]
    k = len(free)
    if n in pivot_row:
        return red, k, None
    param = {f: q for q, f in enumerate(free)}
    param[n] = k

    def den(j):
        return pivot_row[j][1] if j in pivot_row else 1

    def add(j, mult, out):
        """Add mult times den(j) * w_j, in t, to out."""
        if j in param:
            out[param[j]] = out.get(param[j], 0) + mult
            return
        for f, v in pivot_row[j][0].items():
            if f != j:
                q = param[f]
                out[q] = out.get(q, 0) + (mult * v if f == n else -mult * v)

    cons = []
    for j in range(n):
        out = {}
        add(j, 1, out)
        cons.append((out, den(j)))
    for i in ineqs:
        coeffs, rhs = sys.ineq_rows[i]
        # rhs - coeffs . w >= 0, scaled by the lcm of its columns' dens
        scale = lcm(*(den(j) for j, _ in coeffs))
        out = {k: rhs * scale}
        for j, c in coeffs:
            add(j, -c * (scale // den(j)), out)
        cons.append(({q: v for q, v in out.items() if v}, scale))
    return red, k, cons


def _to_standard(cons, k, extra=(), rhs=None):
    """The Farkas alternative of the constraints cons . (t, 1) >= 0 in
    solve_standard's form: y >= 0 over one column per constraint, and one
    row per parameter t_q and for the constant, so k + 1 rows.

    y . N = 0 and y . w0 = -1 (rhs None) is feasible exactly when no t
    meets every constraint.  extra holds further columns, as {q: value}
    maps, after the constraints' columns; rhs replaces the right-hand side.
    Returns A, b and the column count.
    """
    A = [[] for _ in range(k + 1)]
    for col, coeffs in enumerate([c for c, _ in cons] + list(extra)):
        for q, v in sorted(coeffs.items()):
            A[q].append((col, v))
    b = [0] * k + [-1] if rhs is None else rhs
    return [tuple(row) for row in A], b, len(cons) + len(extra)


def _values(k, cons, farkas, n):
    """w_0 .. w_(n-1) at the parameters read off the multipliers of an
    infeasible alternative.

    farkas = (u, s) has u . N_i + s w0_i <= 0 for every constraint and
    s < 0, so t = u / s meets them all.  Scaled to integers m = (u, s) * d
    for a d > 0, t_q = m_q / m_k and each value is (coefficients . m) over
    m_k times the constraint's scale.
    """
    d = lcm(*(v.denominator for v in farkas))
    m = [v.numerator * (d // v.denominator) for v in farkas]
    return tuple(Fraction(sum(v * m[q] for q, v in coeffs.items()), m[k] * scale)
                 for coeffs, scale in cons[:n])


def _certificate(sys: LinearSystem, red, cons, y, ineqs):
    """The certificate over the whole system from a solution y of the
    alternative.

    y . N = 0 says that a . w is constant on the solutions of the equality
    rows, for a = sum of y_i scale_i e_i over the w constraints less sum of
    y_j scale_j g_j over the inequality rows g_j; so a is a combination of
    the equality rows, and its pivot entries are its combination of the
    reduced rows, which the reduction maps back to the input rows.  An
    inconsistent system has the reduced row (0 | 1) instead.  Every
    dropped row and every bound gets 0.  a is built in integers, for
    d * y with d the lcm of y's denominators, and every multiplier is
    divided by d as it is written out.
    """
    n = sys.n_vars
    ineq_mult = [ZERO] * len(sys.ineq_rows)
    if cons is None:
        lam = red.combination({red.pivots.index(n): 1})
    else:
        d = lcm(*(v.denominator for v in y))
        dy = [v.numerator * (d // v.denominator) for v in y]
        a = [dy[j] * cons[j][1] for j in range(n)]
        for t, i in enumerate(ineqs):
            m = dy[n + t] * cons[n + t][1]
            ineq_mult[i] = Fraction(-m, d)
            for j, c in sys.ineq_rows[i][0]:
                a[j] -= m * c
        lam = {i: v / -d for i, v in red.combination(
            {i: a[p] for i, p in enumerate(red.pivots)}).items()}
    cert = InfeasibilityCertificate(
        system=sys,
        eq_mult=tuple(lam.get(i, ZERO) for i in range(len(sys.eq_rows))),
        bound_mult=(ZERO,) * n,
        ineq_mult=tuple(ineq_mult),
    )
    if not cert.verify():
        raise InternalCheckFailed("solver produced a certificate that fails "
                                  "independent verification")
    return cert


def _solve(E, sys: LinearSystem, ineqs):
    """Solve sys with the equality rows and the inequality rows ineqs."""
    red, k, cons = _parametrize(sys, ineqs)
    if cons is None:
        return _certificate(sys, red, cons, None, ineqs)
    res = solve_standard(*_to_standard(cons, k))
    if res.status == "feasible":
        return _certificate(sys, red, cons, res.x, ineqs)
    state = StateVector(E, _values(k, cons, res.farkas, sys.n_vars))
    bad = verify_state(E, state, require_subadditive=bool(sys.ineq_rows))
    if bad:
        raise InternalCheckFailed(f"solver state fails verification: {bad[:3]}")
    return state


def find_state(E: FiniteEffectAlgebra):
    """A StateVector, or an InfeasibilityCertificate when none exists."""
    return _solve(E, state_system(E, subadditive=False), ())


def find_subadditive_state(E: FiniteEffectAlgebra):
    """A subadditive StateVector, or a certificate; lattice instances only.

    The LP has the join rows of the incompatible pairs only: the others
    are implied (see the module docstring), so it has the same states.  A
    found state is verified as subadditive over every pair, which includes
    the pairwise exchange identity w(x) + w(y) = w(x v y) + w(x ^ y).
    """
    sys = state_system(E, subadditive=True)
    adj = compatibility_adjacency(E)
    ineqs = [t for t, (x, y) in enumerate(_middle_pairs(E))
             if not adj[x] >> y & 1]
    return _solve(E, sys, ineqs)


def state_space_dimension(E: FiniteEffectAlgebra) -> int:
    """Affine dimension of the state polytope; -1 when it is empty.

    In the free parameters t of w = w0 + N t the polytope is
    {t : w0_i + N_i t >= 0}, and its affine hull is cut out by the
    implicit equalities: the i with w_i = 0 in every state (Schrijver
    1986, Theory of Linear and Integer Programming).  So the dimension is
    k minus the rank of those rows N_i, and feasibility LPs find them.
    The first is find_state's, and its state's support starts the set of
    coordinates some state makes positive.  Each further LP asks for
    (t, lam) with lam >= 0, lam w0_i + N_i t >= 0 for all i and those
    outside the set summing to 1, through its Farkas alternative over the
    same k + 1 rows: multipliers of an infeasible alternative give such a
    point, with lam > 0 since the polytope is bounded, and t / lam is a
    state that adds its support to the set; a solution of the alternative
    ends the search.  Each state found is positive where all earlier ones
    are 0, so they are affinely independent and a call solves at most
    dim + 2 LPs.
    """
    sys = state_system(E, subadditive=False)
    n = sys.n_vars
    _, k, cons = _parametrize(sys, ())
    if cons is None:
        return -1
    res = solve_standard(*_to_standard(cons, k))
    if res.status == "feasible":
        return -1
    support = {j for j, v in enumerate(_values(k, cons, res.farkas, n)) if v}
    while len(support) < n:
        outside = [j for j in range(n) if j not in support]
        rhs = [0] * (k + 1)
        for j in outside:
            for q, v in cons[j][0].items():
                rhs[q] -= v
        res = solve_standard(*_to_standard(cons, k, ({k: 1},), rhs))
        if res.status == "feasible":
            break
        support.update(j for j, v in enumerate(_values(k, cons, res.farkas, n)) if v)
    implicit = [cons[j][0] for j in range(n) if j not in support]
    return k - matrix_rank([tuple(sorted((q, v) for q, v in coeffs.items() if q < k))
                            for coeffs in implicit])


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

    construct.central_decomposition tests that c is central and gives
    [0, c] with the index of each x meet c in it; for c = 1, [0, 1] is E
    and the lift is the identity.  Requires c nonzero with [0, c] modular;
    the interval state comes from the solver and the lift
    w(x) = w_c(x meet c) is verified to be a subadditive state on E.
    """
    if c == E.zero:
        raise HypothesisViolated("c != 0", "the zero element spans no interval")
    if c == E.one:
        sub, iso = E, None
    else:
        dec = central_decomposition(E, c)
        sub, iso = dec.lower, dec.iso
    if c not in finite_elements(E):
        raise HypothesisViolated("c finite", "unreachable on a finite algebra")

    mod = is_modular(sub)
    if not mod:
        raise HypothesisViolated("[0,c] modular", f"witness triple {mod.witness}")
    return lift_state(E, c, sub, iso)


def lift_state(E: FiniteEffectAlgebra, c: int, sub: FiniteEffectAlgebra,
               iso) -> StateVector:
    """state_from_central_finite once its hypotheses hold: sub is [0, c], a
    modular lattice, and iso is central_split(E, c), or None for c = 1."""
    inner = find_subadditive_state(sub)
    if not isinstance(inner, StateVector):
        raise lift_failed(E, c, sub)

    w = inner.values
    lifted = StateVector(E, w if iso is None else tuple(w[i] for i, _ in iso))
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
    adj = compatibility_adjacency(E)
    if adj[a] | (1 << a) == (1 << E.size) - 1:
        branch = "central-atom"
    else:
        branch = "dichotomy"
        two_a = E.sum[a][a]
        if two_a is None:
            raise DichotomyFailed(a, a, "2a undefined for an unsharp atom")
        for b in order.atoms:
            if b != a and not adj[a] >> b & 1:
                j = order.join[a][b]
                checks.append((b, j, two_a))
                if j != two_a:
                    raise DichotomyFailed(a, b, f"join {j} != doubled atom {two_a}")

    c = oplus_sum(E, [a] * n_a)
    try:
        state = state_from_central_finite(E, c)
    except NotCentral as exc:
        raise InternalCheckFailed(
            f"saturated atom multiple {c} is not central; falsification alarm"
        ) from exc
    return ExstateOutcome(state, ExstateTrace(
        atom=a, atom_order=n_a, branch=branch,
        dichotomy_checks=tuple(checks), central=c))

