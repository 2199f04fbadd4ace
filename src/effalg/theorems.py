"""Registry of executable claims: hypotheses -> conclusion on one instance.

Every registered claim id maps to a one-sentence statement, a list of
named hypothesis predicates, and a conclusion check returning (holds,
witness).  A conclusion that fails while the hypotheses hold is a
release-blocking finding, so conclusions are computed from first
principles (scans and solvers), never assumed.

Statements about structures that cannot exist at this scale (infinite
complete atomic Boolean algebras, non-Archimedean chains) are listed
separately in SCALE_LIMITED with a fixed verdict, to keep the coverage
accounting honest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .construct import central_split, interval
from .core import (FiniteEffectAlgebra, bits, derive_order, difference,
                   element_order, per_algebra, validate)
from .errors import (BudgetExceeded, EffectAlgebraError, InternalCheckFailed,
                     StructuralError, UnknownClaim)
from .states import StateVector, find_subadditive_state, lift_failed, lift_state
from .structure import (
    blocks,
    center_by_identity,
    compatibility_adjacency,
    compatibility_center,
    finite_elements,
    greatest_sharp_under,
    is_archimedean,
    is_atomic,
    is_compact,
    is_lattice_ideal,
    is_modular,
    sharp_elements,
    sharp_hat_formula,
    sharp_mask,
)

__all__ = [
    "ClaimReport",
    "CLAIM_IDS",
    "SCALE_LIMITED",
    "statement",
    "check",
    "check_all",
    "sweep",
    "SweepResult",
    "shrink_counterexample",
    "join_difference_family_holds",
    "join_sum_family_holds",
]


# -- hypothesis predicates -------------------------------------------------


def _h_lattice(E):
    return derive_order(E).is_lattice


def _h_unsharp(E):
    return sharp_mask(E) != (1 << E.size) - 1


def _compact_set(E):
    return [u for u in E.elements() if is_compact(E, u)]


# -- what the claims share about one instance --------------------------------

# E keeps what the structure functions derive (core.per_algebra), and the
# two below: the subadditive LP that three claims read, and the qualifying
# central elements c, each with [0, c] built for c != 1.


@per_algebra
def _subadditive_state(E):
    return find_subadditive_state(E)


@per_algebra
def _qualifying_centrals(E):
    """(c, [0, c]) for each nonzero central c with [0, c] a modular lattice."""
    F = finite_elements(E)
    out = []
    for c in center_by_identity(E):
        if c == E.zero or c not in F:
            continue
        sub = E if c == E.one else interval(E, E.zero, c)
        if not derive_order(sub).is_lattice:
            continue
        if is_modular(sub):
            out.append((c, sub))
    return tuple(out)


# -- conclusion checks -----------------------------------------------------


def _finite_diff_of_join(E):
    order = derive_order(E)
    F = finite_elements(E)
    for x in F:
        for y in E.elements():
            j = order.join[x][y]
            if difference(E, j, y) not in F:
                return False, (x, y)
    return True, None


def _finite_downward(E):
    order = derive_order(E)
    F = finite_elements(E)
    for x in F:
        for z in bits(order.down[x]):
            if z not in F:
                return False, (x, z)
    return True, None


def _finite_interval_complete(E):
    # [0, x] is E's order on down[x], a lattice when the join and meet of
    # each pair below x lie below x: collect the x where one does not
    order = derive_order(E)
    up, join, meet = order.up, order.join, order.meet
    bad = 0
    for a in E.elements():
        for b in range(a + 1, E.size):
            bad |= up[a] & up[b] & ~(up[join[a][b]] & up[meet[a][b]])
    for x in bits(bad & finite_elements(E).mask & ~(1 << E.zero)):
        return False, (x,)
    return True, None


def _finite_join_closed(E):
    order = derive_order(E)
    F = finite_elements(E)
    for x in F:
        for y in F:
            if order.join[x][y] not in F:
                return False, (x, y)
    return True, None


def _finite_ideal(E):
    got = is_lattice_ideal(E, finite_elements(E))
    return got.holds, got.witness


def _sharp_hat(E):
    F = finite_elements(E)
    for x in F:
        try:
            sharp_hat_formula(E, x)   # raises unless the scan agrees
            greatest_sharp_under(E, x)
        except EffectAlgebraError as exc:
            return False, (x, repr(exc))
    return True, None


def join_difference_family_holds(E, family, a):
    """(join of family) - a  ==  join of (b - a), for a below every member."""
    order = derive_order(E)
    j = family[0]
    for b in family[1:]:
        j = order.join[j][b]
    left = difference(E, j, a)
    shifted = [difference(E, b, a) for b in family]
    r = shifted[0]
    for s in shifted[1:]:
        r = order.join[r][s]
    return left == r


def _join_difference_pairs(E):
    order = derive_order(E)
    n = E.size
    for a in E.elements():
        above = list(bits(order.up[a]))
        for x, y in combinations(above, 2):
            if not join_difference_family_holds(E, [x, y], a):
                return False, (a, x, y)
        if n <= 8:
            for t in combinations(above, 3):
                if not join_difference_family_holds(E, list(t), a):
                    return False, (a,) + t
    return True, None


def join_sum_family_holds(E, family, b):
    """(join of family) + b == join of (c + b), when the left side exists."""
    order = derive_order(E)
    j = family[0]
    for c in family[1:]:
        j = order.join[j][c]
        if j is None:
            return True  # no join, nothing to claim
    s = E.sum[j][b]
    if s is None:
        return True
    shifted = []
    for c in family:
        cb = E.sum[c][b]
        if cb is None:
            return False
        shifted.append(cb)
    r = shifted[0]
    for t in shifted[1:]:
        r = order.join[r][t]
        if r is None:
            return False
    return r == s


def _join_sum_pairs(E):
    """The pairs (and triples, up to 8 elements) of each [0, b'], in
    ascending order.  (join of family) + b is defined only when the join
    lies below b', so a family with a member outside [0, b'] holds
    vacuously, and the first failure is the full scan's."""
    order = derive_order(E)
    for b in E.elements():
        below = list(bits(order.down[E.orth[b]]))
        for x, y in combinations(below, 2):
            if not join_sum_family_holds(E, [x, y], b):
                return False, (x, y, b)
        if E.size <= 8:
            for t in combinations(below, 3):
                if not join_sum_family_holds(E, list(t), b):
                    return False, t + (b,)
    return True, None


def _atomic_below_joins(E, mask):
    """Every nonzero z that is the join of the elements of mask below it
    has an atomic interval [0, z]; witness (z,).  Lattice instances only.
    [0, z] is E's order on down[z], with E's atoms below z as its atoms."""
    order = derive_order(E)
    bare = sum(1 << x for x in E.elements()  # nonzero and above no atom
               if x != E.zero and not order.down[x] & order.atom_mask)
    for z in E.elements():
        j = E.zero
        for d in bits(order.down[z] & mask):
            j = order.join[j][d]
        if j == z != E.zero and order.down[z] & bare:
            return False, (z,)
    return True, None


def _atomic_from_finite_joins(E):
    return _atomic_below_joins(E, finite_elements(E).mask)


def _h_some_block_archimedean_atomic(E):
    """At least one block is Archimedean and atomic.  A block of a lattice
    instance is a sub-effect algebra with E's order (Riecanova 2000): its
    multiples are E's, and its atoms are its minimal nonzero members."""
    order = derive_order(E)
    endless = 0  # the nonzero elements whose multiples cycle
    for x in E.elements():
        try:
            if x != E.zero:
                element_order(E, x)
        except StructuralError:
            endless |= 1 << x
    for blk in blocks(E):
        m = blk.mask & ~(1 << E.zero)
        atoms = sum(1 << b for b in bits(m) if order.down[b] & m == 1 << b)
        if not m & endless and all(order.down[b] & atoms for b in bits(m)):
            return True
    return False


def _sharp_is_atomic_oml(E):
    order = derive_order(E)
    S = sharp_elements(E)
    sm = S.mask
    for s in S:
        for t in S:
            j, w = order.join[s][t], order.meet[s][t]
            if not (sm >> j & 1):
                return False, ("join-escapes", s, t, j)
            if not (sm >> w & 1):
                return False, ("meet-escapes", s, t, w)
            if order.leq(s, t):
                # orthomodular law inside S: t = s v (t ^ s')
                if order.join[s][order.meet[t][E.orth[s]]] != t:
                    return False, ("orthomodular-law", s, t)
    atoms_of_s = [s for s in S if s != E.zero
                  and order.down[s] & sm == (1 << E.zero) | (1 << s)]
    am = 0
    for a in atoms_of_s:
        am |= 1 << a
    for s in S:
        if s != E.zero and not (order.down[s] & am):
            return False, ("no-sharp-atom-below", s)
    return True, None


def _atom_below_compact(E):
    order = derive_order(E)
    for u in _compact_set(E):
        if u != E.zero and not (order.down[u] & order.atom_mask):
            return False, (u,)
    return True, None


def _compact_finite(E):
    # a finite compact u is also the finite join {u} of finite elements
    F = finite_elements(E)
    for u in _compact_set(E):
        if u not in F:
            return False, (u,)
    return True, None


def _atomic_from_compact_joins(E):
    # at z = 1 the interval [0, 1] is E itself, so the top case is included
    return _atomic_below_joins(E, sum(1 << u for u in _compact_set(E)))


def _center_identity(E):
    cen = center_by_identity(E).mask
    other = compatibility_center(E).mask & sharp_elements(E).mask
    if cen != other:
        only = cen ^ other
        return False, tuple(bits(only))
    return True, None


def _modular_measure(E):
    got = _subadditive_state(E)
    if not isinstance(got, StateVector):
        return True, None  # no subadditive state to test; nothing claimed
    order = derive_order(E)
    w = got.values
    for x in E.elements():
        for y in E.elements():
            if w[x] + w[y] != w[order.join[x][y]] + w[order.meet[x][y]]:
                return False, (x, y)
    return True, None


def _state_from_central(E):
    # the hypothesis built each [0, c] and found it a modular lattice
    for c, sub in _qualifying_centrals(E):
        try:
            if c != E.one:
                lift_state(E, c, sub, central_split(E, c))
            elif not isinstance(_subadditive_state(E), StateVector):
                # [0, 1] is E and the lift through 1 is the identity, so
                # the lifted state is E's own, solved once with the others
                raise lift_failed(E, c, E)
        except EffectAlgebraError as exc:
            return False, (c, repr(exc))
    return True, None


def _atom_dichotomy(E):
    order = derive_order(E)
    sm = sharp_mask(E)
    adj = compatibility_adjacency(E)
    for a in order.atoms:
        if sm >> a & 1:
            continue
        two_a = E.sum[a][a]
        for b in order.atoms:
            if b == a or adj[a] >> b & 1:
                continue
            if two_a is None or order.join[a][b] != two_a:
                return False, (a, b)
    return True, None


def _subadditive_exists(E):
    if not isinstance(_subadditive_state(E), StateVector):
        return False, ("infeasible",)
    return True, None


# -- the registry ----------------------------------------------------------


@dataclass(frozen=True)
class _Claim:
    statement: str
    hypotheses: tuple  # (name, predicate) pairs
    conclusion: object  # callable E -> (bool, witness)


_H_LAT = ("lattice", _h_lattice)
_H_MOD = ("modular", is_modular)  # always after _H_LAT
_H_ARCH = ("archimedean", is_archimedean)
_H_ATOM = ("atomic", is_atomic)
_H_UNSHARP = ("unsharp elements exist", _h_unsharp)

_REGISTRY: dict[str, _Claim] = {
    "finite.diff_of_join": _Claim(
        "subtracting y from x v y keeps finite elements finite on modular "
        "lattice instances",
        (_H_LAT, _H_MOD), _finite_diff_of_join),
    "finite.downward": _Claim(
        "everything below a finite element is finite on modular lattice "
        "instances",
        (_H_LAT, _H_MOD), _finite_downward),
    "finite.interval_complete": _Claim(
        "the interval below a finite element is a complete lattice",
        (_H_LAT, _H_MOD), _finite_interval_complete),
    "finite.join_closed": _Claim(
        "joins of finite elements are finite on modular lattice instances",
        (_H_LAT, _H_MOD), _finite_join_closed),
    "finite.ideal": _Claim(
        "the finite elements form a lattice ideal on modular lattice "
        "instances",
        (_H_LAT, _H_MOD), _finite_ideal),
    "sharp.hat_formula": _Claim(
        "saturating the atom multiplicities of a finite element gives its "
        "smallest sharp upper bound (and a greatest sharp lower bound "
        "exists)",
        (_H_LAT, _H_MOD, _H_ARCH, _H_ATOM), _sharp_hat),
    "diff.distributes_over_join": _Claim(
        "subtracting a common lower bound distributes over joins",
        (_H_LAT,), _join_difference_pairs),
    "sum.distributes_over_join": _Claim(
        "adding a fixed element distributes over existing joins",
        (), _join_sum_pairs),
    "atomic.interval_from_finite_joins": _Claim(
        "if z is the join of the finite elements below it, the interval "
        "below z is atomic (modular lattice instances)",
        (_H_LAT, _H_MOD), _atomic_from_finite_joins),
    "atomic.from_archimedean_block": _Claim(
        "a modular lattice instance with an Archimedean atomic block is "
        "atomic",
        (_H_LAT, _H_MOD,
         ("some block archimedean and atomic", _h_some_block_archimedean_atomic)),
        is_atomic),
    "sharp.atomic_oml": _Claim(
        "the sharp elements of a modular Archimedean atomic lattice "
        "instance form an atomic orthomodular lattice inside it",
        (_H_LAT, _H_MOD, _H_ARCH, _H_ATOM), _sharp_is_atomic_oml),
    "atom.below_compact": _Claim(
        "every nonzero compact element dominates an atom",
        (_H_LAT,), _atom_below_compact),
    "compact.join_of_finite": _Claim(
        "compact elements of Archimedean lattice instances are finite "
        "joins of finite elements",
        (_H_LAT, _H_ARCH), _compact_finite),
    "compact.finite_in_modular": _Claim(
        "compact elements of modular Archimedean lattice instances are "
        "finite",
        (_H_LAT, _H_MOD, _H_ARCH), _compact_finite),
    "atomic.interval_from_compact_joins": _Claim(
        "if z is the join of the compact elements below it, the interval "
        "below z is atomic; applied at the top this makes the instance "
        "atomic",
        (_H_LAT, _H_MOD, _H_ARCH), _atomic_from_compact_joins),
    "center.identity": _Claim(
        "the center equals the compatibility center intersected with the "
        "sharp elements",
        (_H_LAT,), _center_identity),
    "modular.measure": _Claim(
        "every subadditive state satisfies w(x)+w(y) = w(x v y)+w(x ^ y)",
        (_H_LAT,), _modular_measure),
    "state.from_central_element": _Claim(
        "a nonzero finite central element with a modular interval below it "
        "lifts a subadditive state to the whole instance, via the product "
        "split along the center",
        (_H_LAT, _H_ARCH, _H_ATOM,
         ("qualifying central element exists",
          lambda E: bool(_qualifying_centrals(E)))),
        _state_from_central),
    "state.atom_dichotomy": _Claim(
        "for an unsharp atom a and any atom b incompatible with it, "
        "a v b equals the doubled atom 2a",
        (_H_LAT, _H_MOD, _H_ARCH, _H_ATOM, _H_UNSHARP), _atom_dichotomy),
    "state.exists_unsharp_modular": _Claim(
        "every modular Archimedean atomic lattice instance that is not "
        "orthomodular carries a subadditive state",
        (_H_LAT, _H_MOD, _H_ARCH, _H_ATOM, _H_UNSHARP), _subadditive_exists),
}

CLAIM_IDS = tuple(_REGISTRY)

SCALE_LIMITED = {
    "finite.not_downward_closed_infinite": (
        "finite elements need not be downward closed when one summand is an "
        "infinite complete atomic Boolean algebra; hypotheses unsatisfiable "
        "at this scale"),
    "finite.not_join_closed_infinite": (
        "finite elements need not be join closed across two infinite "
        "Boolean summands; hypotheses unsatisfiable at this scale"),
    "compact.needs_archimedean": (
        "dropping Archimedeanity breaks the finite-join decomposition of "
        "compact elements, but only on infinite chains; hypotheses "
        "unsatisfiable at this scale"),
}


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    statement: str
    hypotheses_met: bool
    hypothesis_detail: tuple  # (name, bool) pairs
    conclusion_holds: bool | None  # None iff hypotheses unmet
    witness: tuple | None
    error: str | None = None

    def failed(self) -> bool:
        return self.hypotheses_met and self.conclusion_holds is False


def statement(claim_id: str) -> str:
    if claim_id not in _REGISTRY:
        raise UnknownClaim(claim_id)
    return _REGISTRY[claim_id].statement


def check(E: FiniteEffectAlgebra, claim_id: str) -> ClaimReport:
    """Evaluate one claim on one instance; never raises on bad input.

    Once every hypothesis holds, an InternalCheckFailed raised by the
    conclusion (a solver or cross-check alarm) fails the claim with the
    witness ("internal-check", message) rather than becoming an error.
    """
    if claim_id not in _REGISTRY:
        raise UnknownClaim(claim_id)
    claim = _REGISTRY[claim_id]
    detail = []
    try:
        # hypotheses are ordered so later ones are only evaluable when the
        # earlier ones hold; stop at the first failure
        for name, pred in claim.hypotheses:
            ok = bool(pred(E))
            detail.append((name, ok))
            if not ok:
                return ClaimReport(claim_id, claim.statement, False,
                                   tuple(detail), None, None)
        try:
            holds, witness = claim.conclusion(E)
        except InternalCheckFailed as exc:
            holds, witness = False, ("internal-check", str(exc))
        return ClaimReport(claim_id, claim.statement, True, tuple(detail),
                           bool(holds), witness)
    except EffectAlgebraError as exc:
        return ClaimReport(claim_id, claim.statement, False, tuple(detail),
                           None, None, error=f"{type(exc).__name__}: {exc}")


def check_all(E: FiniteEffectAlgebra) -> list[ClaimReport]:
    """Every registered claim, in stable registry order.

    The claims share what they derive from E, which E keeps: each
    hypothesis verdict, the blocks and the compatibility graph, one solve
    of its subadditive LP and one build of [0, c] for each qualifying
    central c != 1.
    """
    bad = validate(E)
    if bad:
        return [ClaimReport(cid, _REGISTRY[cid].statement, False, (), None,
                            None, error=f"invalid table: {bad[0]}")
                for cid in CLAIM_IDS]
    return [check(E, cid) for cid in CLAIM_IDS]


@dataclass(frozen=True)
class SweepResult:
    claim_id: str
    passed: bool
    counterexample: FiniteEffectAlgebra | None
    hypotheses_met: int
    checked: int


def sweep(config, claim_ids) -> list[SweepResult]:
    """Check claims over every enumerated instance of a size, in one pass.

    Returns one result per claim, in the given order.  A claim stops at its
    first counterexample, and the pass ends once every claim has failed.
    The config's time budget bounds the claim checks too: the deadline is
    read after each instance, and BudgetExceeded (with no checkpoint) ends
    a sweep that has passed it.  The claims share what they derive from
    each instance, as in check_all.
    """
    from .enumeration import enumerate_algebras

    for cid in claim_ids:
        if cid not in _REGISTRY:
            raise UnknownClaim(cid)
    deadline = (None if config.time_budget is None
                else time.monotonic() + config.time_budget)
    checked = dict.fromkeys(claim_ids, 0)
    met = dict.fromkeys(claim_ids, 0)
    failures = {}
    live = list(checked)
    for E in enumerate_algebras(config):
        for cid in live:
            checked[cid] += 1
            report = check(E, cid)
            if report.hypotheses_met:
                met[cid] += 1
                if report.conclusion_holds is False:
                    failures[cid] = shrink_counterexample(E, cid)
        live = [cid for cid in live if cid not in failures]
        if not live:
            break
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(None)
    return [SweepResult(cid, cid not in failures, failures.get(cid),
                        met[cid], checked[cid]) for cid in claim_ids]


def shrink_counterexample(E: FiniteEffectAlgebra,
                          claim_id: str) -> FiniteEffectAlgebra:
    """Greedy minimization: restrict to the smallest interval [0, z] that
    still fails the claim with hypotheses met."""
    order = derive_order(E)
    best = E
    candidates = sorted(
        (x for x in E.elements() if x != E.zero),
        key=lambda x: bin(order.down[x]).count("1"))
    for z in candidates:
        if z == E.one:
            continue
        try:
            sub = interval(E, E.zero, z)
        except EffectAlgebraError:
            continue
        if sub.size >= best.size:
            break
        report = check(sub, claim_id)
        if report.failed():
            return sub
    return best
