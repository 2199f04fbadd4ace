"""Derived substructures and classifications of a finite effect algebra.

Sharp elements, Mackey compatibility, blocks, the two centers, modularity
and distributivity, atomicity (is_atomic) and Archimedeanity
(is_archimedean), finite and compact elements, sharp upper/lower bounds,
section involutions, and the flag classifier.  Each property has one
definition here; the claim registry and the state procedures call it.

The structures that depend on E alone (sharp set, compatibility graph,
blocks, centers, finite elements, and the modular, atomic and
Archimedean verdicts) are core.per_algebra: derived once and kept on E.
Their results are immutable, and a call that raises keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    FiniteEffectAlgebra,
    OrderStructure,
    bits,
    derive_order,
    difference,
    element_order,
    oplus_sum,
    per_algebra,
)
from .errors import (
    HypothesisViolated,
    InternalCheckFailed,
    MeetUndefined,
    NoMinimum,
    NotInSection,
    NotLattice,
    StructuralError,
)

__all__ = [
    "ElementSubset",
    "CheckResult",
    "ClassificationFlags",
    "sharp_elements",
    "sharp_mask",
    "compatible",
    "compatibility_adjacency",
    "blocks",
    "compatibility_center",
    "center",
    "center_by_identity",
    "is_modular",
    "is_distributive",
    "mv_identity_holds",
    "is_atomic",
    "is_archimedean",
    "finite_elements",
    "is_lattice_ideal",
    "is_compact",
    "smallest_sharp_over",
    "greatest_sharp_under",
    "sharp_hat_formula",
    "atom_decomposition",
    "section_involution",
    "is_sub_effect_algebra",
    "is_sub_lattice",
    "classify",
]


class CheckResult(NamedTuple):
    """Boolean verdict plus a counterexample witness when False."""

    holds: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class ElementSubset:
    """A subset of a parent algebra's elements, stored as a bitmask."""

    parent: FiniteEffectAlgebra
    mask: int

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def __iter__(self):
        return bits(self.mask)

    def __len__(self):
        return bin(self.mask).count("1")

    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def labels(self) -> tuple[str, ...]:
        return tuple(self.parent.label(x) for x in self)


def is_sub_effect_algebra(sub: ElementSubset) -> CheckResult:
    """Contains 0 and 1, closed under ' and under every defined sum."""
    E, m = sub.parent, sub.mask
    if not (m >> E.zero & 1):
        return CheckResult(False, ("missing-zero", E.zero))
    if not (m >> E.one & 1):
        return CheckResult(False, ("missing-one", E.one))
    for x in bits(m):
        if not (m >> E.orth[x] & 1):
            return CheckResult(False, ("orth-escapes", x, E.orth[x]))
        for y in bits(m):
            s = E.sum[x][y]
            if s is not None and not (m >> s & 1):
                return CheckResult(False, ("sum-escapes", x, y, s))
    return CheckResult(True)


def is_sub_lattice(sub: ElementSubset) -> CheckResult:
    """Joins and meets (computed in the parent) stay inside the subset."""
    E, m = sub.parent, sub.mask
    order = derive_order(E)
    for x in bits(m):
        for y in bits(m):
            j, w = order.join[x][y], order.meet[x][y]
            if j is None or w is None:
                return CheckResult(False, ("no-bound-in-parent", x, y))
            if not (m >> j & 1):
                return CheckResult(False, ("join-escapes", x, y, j))
            if not (m >> w & 1):
                return CheckResult(False, ("meet-escapes", x, y, w))
    return CheckResult(True)


@per_algebra
def sharp_mask(E: FiniteEffectAlgebra) -> int:
    """Bitmask of x whose only common lower bound with x' is zero.

    Total on every algebra: when x and x' admit a nonzero common lower
    bound, x is not sharp whether or not the meet exists.
    """
    order = derive_order(E)
    zero_bit = 1 << E.zero
    m = 0
    for x in E.elements():
        if order.down[x] & order.down[E.orth[x]] == zero_bit:
            m |= 1 << x
    return m


@per_algebra
def sharp_elements(E: FiniteEffectAlgebra) -> ElementSubset:
    """S(E): elements with x meet x' = 0.

    Raises MeetUndefined when some x meet x' does not exist (only possible
    on non-lattice instances).  On lattice instances the result is checked
    to be a sub-effect algebra.
    """
    order = derive_order(E)
    m = sharp_mask(E)
    for x in bits(((1 << E.size) - 1) & ~m):
        if order.meet[x][E.orth[x]] is None:
            raise MeetUndefined(x)
    sub = ElementSubset(E, m)
    if order.is_lattice:
        ok = is_sub_effect_algebra(sub)
        if not ok:
            raise InternalCheckFailed(f"sharp set not closed: {ok.witness}")
    return sub


def compatible(E: FiniteEffectAlgebra, x: int, y: int) -> bool:
    """Mackey compatibility: x = x1 + d, y = y1 + d with x1 + y1 + d defined.

    Exhaustive over the common lower bounds d; x1 and y1 are then forced.
    """
    order = derive_order(E)
    diff = E.diff
    for d in bits(order.down[x] & order.down[y]):
        x1 = diff[x][d]
        y1 = diff[y][d]
        s = E.sum[x1][y1]
        if s is not None and E.sum[s][d] is not None:
            return True
    return False


@per_algebra
def compatibility_adjacency(E: FiniteEffectAlgebra) -> tuple[int, ...]:
    """adj[x] = bitmask of elements compatible with x (x itself excluded)."""
    n = E.size
    adj = [0] * n
    for x in range(n):
        for y in range(x + 1, n):
            if compatible(E, x, y):
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return tuple(adj)


def _max_cliques(adj: tuple[int, ...], n: int) -> list[int]:
    """Maximal cliques of a bitmask graph (pivoting search)."""
    out = []

    def extend(r: int, p: int, x: int):
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot, best = -1, -1
        for u in bits(p | x):
            cnt = bin(p & adj[u]).count("1")
            if cnt > best:
                pivot, best = u, cnt
        for v in bits(p & ~adj[pivot]):
            bv = 1 << v
            extend(r | bv, p & adj[v], x & adj[v])
            p &= ~bv
            x |= bv

    extend(0, (1 << n) - 1, 0)
    return out


@per_algebra
def blocks(E: FiniteEffectAlgebra) -> tuple[ElementSubset, ...]:
    """Maximal sets of pairwise compatible elements, canonically ordered.

    The blocks must cover E.  On a lattice instance every block is checked
    to be a sub-lattice effect algebra, which only a lattice guarantees.
    """
    adj = compatibility_adjacency(E)
    cliques = _max_cliques(adj, E.size)
    cliques.sort(key=lambda m: tuple(bits(m)))
    subs = tuple(ElementSubset(E, m) for m in cliques)

    lattice = derive_order(E).is_lattice
    covered = 0
    for sub in subs:
        covered |= sub.mask
        if lattice:
            ok = is_sub_effect_algebra(sub)
            if not ok:
                raise InternalCheckFailed(
                    f"block not a sub-effect algebra: {ok.witness}")
            ok = is_sub_lattice(sub)
            if not ok:
                raise InternalCheckFailed(f"block not a sub-lattice: {ok.witness}")
    if covered != (1 << E.size) - 1:
        raise InternalCheckFailed("blocks do not cover the algebra")
    return subs


@per_algebra
def compatibility_center(E: FiniteEffectAlgebra) -> ElementSubset:
    """B(E): the intersection of all blocks = elements compatible with all.

    Both characterizations are computed and must agree.
    """
    adj = compatibility_adjacency(E)
    full = (1 << E.size) - 1
    direct = 0
    for x in E.elements():
        if adj[x] | (1 << x) == full:
            direct |= 1 << x
    inter = full
    for sub in blocks(E):
        inter &= sub.mask
    if inter != direct:
        raise InternalCheckFailed(
            f"block intersection {inter:b} != universal-compatibility set {direct:b}")
    return ElementSubset(E, direct)


@per_algebra
def center_by_identity(E: FiniteEffectAlgebra) -> ElementSubset:
    """Elements x with y = (y meet x) join (y meet x') for every y."""
    order = derive_order(E)
    if not order.is_lattice:
        raise NotLattice("center requires a lattice instance")
    m = 0
    for x in E.elements():
        xp = E.orth[x]
        if all(order.join[order.meet[y][x]][order.meet[y][xp]] == y
               for y in E.elements()):
            m |= 1 << x
    return ElementSubset(E, m)


@per_algebra
def center(E: FiniteEffectAlgebra) -> ElementSubset:
    """C(E), with the cross-check C(E) = B(E) & S(E)."""
    cen = center_by_identity(E)
    other = compatibility_center(E).mask & sharp_elements(E).mask
    if cen.mask != other:
        raise InternalCheckFailed(
            f"center {cen.mask:b} != compatibility-center & sharp {other:b}")
    return cen


@per_algebra
def is_modular(E: FiniteEffectAlgebra) -> CheckResult:
    """x <= z implies x join (y meet z) = (x join y) meet z; witness a triple."""
    order = derive_order(E)
    if not order.is_lattice:
        raise NotLattice("modularity is only defined on lattice instances")
    n = E.size
    for x in range(n):
        ux = order.up[x]
        for z in bits(ux):
            for y in range(n):
                if order.join[x][order.meet[y][z]] != order.meet[order.join[x][y]][z]:
                    return CheckResult(False, (x, y, z))
    return CheckResult(True)


def is_distributive(E: FiniteEffectAlgebra) -> CheckResult:
    """x meet (y join z) = (x meet y) join (x meet z); witness a triple."""
    order = derive_order(E)
    if not order.is_lattice:
        raise NotLattice("distributivity is only defined on lattice instances")
    n = E.size
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if order.meet[x][order.join[y][z]] != \
                        order.join[order.meet[x][y]][order.meet[x][z]]:
                    return CheckResult(False, (x, y, z))
    return CheckResult(True)


def mv_identity_holds(E: FiniteEffectAlgebra) -> CheckResult:
    """(x join y) - x = y - (x meet y) for every pair (lattice instances)."""
    order = derive_order(E)
    if not order.is_lattice:
        raise NotLattice("the difference identity needs joins and meets")
    for x in E.elements():
        for y in E.elements():
            left = difference(E, order.join[x][y], x)
            right = difference(E, y, order.meet[x][y])
            if left != right:
                return CheckResult(False, (x, y))
    return CheckResult(True)


@per_algebra
def is_atomic(E: FiniteEffectAlgebra) -> CheckResult:
    """Every nonzero element dominates an atom; witness (x,)."""
    order = derive_order(E)
    for x in E.elements():
        if x != E.zero and not (order.down[x] & order.atom_mask):
            return CheckResult(False, (x,))
    return CheckResult(True)


@per_algebra
def is_archimedean(E: FiniteEffectAlgebra) -> CheckResult:
    """Every nonzero element has finitely many defined multiples.

    element_order guards the multiples walk: a cycle (possible only on
    corrupt tables) is reported as the witness (x,) instead of looping
    forever.
    """
    for x in E.elements():
        if x != E.zero:
            try:
                element_order(E, x)
            except StructuralError:
                return CheckResult(False, (x,))
    return CheckResult(True)


@per_algebra
def finite_elements(E: FiniteEffectAlgebra) -> ElementSubset:
    """Zero plus everything reachable as an iterated sum of atoms.

    On a finite algebra this is the whole carrier, which is asserted:
    every nonzero element dominates an atom, subtract and recurse.
    """
    order = derive_order(E)
    reach = 1 << E.zero
    frontier = [E.zero]
    while frontier:
        nxt = []
        for r in frontier:
            row = E.sum[r]
            for a in order.atoms:
                s = row[a]
                if s is not None and not (reach >> s & 1):
                    reach |= 1 << s
                    nxt.append(s)
        frontier = nxt
    if reach != (1 << E.size) - 1:
        raise InternalCheckFailed(
            f"atom-sum closure missed elements: {reach:b} (finite algebras are "
            "spanned by their atoms)")
    return ElementSubset(E, reach)


def is_lattice_ideal(E: FiniteEffectAlgebra, S: ElementSubset) -> CheckResult:
    """Downward closed and closed under binary joins."""
    order = derive_order(E)
    if not order.is_lattice:
        raise NotLattice("lattice ideal test needs a lattice instance")
    m = S.mask
    for x in bits(m):
        if order.down[x] & ~m:
            y = next(bits(order.down[x] & ~m))
            return CheckResult(False, ("not-downward-closed", y, x))
        for y in bits(m):
            j = order.join[x][y]
            if not (m >> j & 1):
                return CheckResult(False, ("join-escapes", x, y, j))
    return CheckResult(True)


def is_compact(E: FiniteEffectAlgebra, u: int) -> bool:
    """Compactness of u: whenever u <= join D, some finite F inside D has
    u <= join F.

    On a finite algebra every D is itself finite and so its own witness:
    every element is compact.
    """
    return True


def _minimum_of(mask: int, order: OrderStructure) -> int | list[int]:
    """The minimum of a nonempty subset, or the antichain of its minimals."""
    minimals = [u for u in bits(mask) if order.down[u] & mask == 1 << u]
    if len(minimals) == 1:
        return minimals[0]
    return minimals


def smallest_sharp_over(E: FiniteEffectAlgebra, x: int) -> int:
    """The least sharp element above x; NoMinimum carries the antichain."""
    order = derive_order(E)
    uppers = order.up[x] & sharp_elements(E).mask
    got = _minimum_of(uppers, order)
    if isinstance(got, list):
        raise NoMinimum(x, tuple(got))
    return got


def greatest_sharp_under(E: FiniteEffectAlgebra, x: int) -> int:
    """The greatest sharp element below x (dual of smallest_sharp_over)."""
    order = derive_order(E)
    lowers = order.down[x] & sharp_elements(E).mask
    maximals = [u for u in bits(lowers) if order.up[u] & lowers == 1 << u]
    if len(maximals) != 1:
        raise NoMinimum(x, tuple(maximals))
    return maximals[0]


def atom_decomposition(E: FiniteEffectAlgebra, x: int) -> list[tuple[int, int]]:
    """Greedy (atom, multiplicity) decomposition of x.

    Repeatedly subtracts the maximal multiple of the least atom below the
    remainder.  The decomposition is not unique; each atom appears once.
    """
    order = derive_order(E)
    pieces = []
    r = x
    while r != E.zero:
        below = [a for a in order.atoms if order.leq(a, r)]
        if not below:
            raise InternalCheckFailed(f"nonzero remainder {r} dominates no atom")
        a = below[0]
        cur, k = a, 1
        while True:
            nxt = E.sum[cur][a]
            if nxt is None or not order.leq(nxt, r):
                break
            cur = nxt
            k += 1
        pieces.append((a, k))
        r = difference(E, r, cur)
    return pieces


def sharp_hat_formula(E: FiniteEffectAlgebra, x: int) -> int:
    """Smallest sharp element over x via saturated atom multiples.

    Decomposes x into atom multiples, then replaces each multiplicity by
    the atom's full order and sums.  Needs a modular atomic lattice
    instance; the result is checked against the scan-based bound.
    """
    mod = is_modular(E)  # raises NotLattice on non-lattices
    if not mod:
        raise HypothesisViolated("modularity", f"witness triple {mod.witness}")
    acc = E.zero
    for a, _k in atom_decomposition(E, x):
        na = element_order(E, a)
        full = oplus_sum(E, [a] * na)
        nxt = E.sum[acc][full]
        if nxt is None:
            raise InternalCheckFailed(
                f"saturated-atom sum undefined at {acc}+{full}; falsification alarm")
        acc = nxt
    scan = smallest_sharp_over(E, x)
    if acc != scan:
        raise InternalCheckFailed(
            f"hat formula gives {acc} but the scan gives {scan} at x={x}")
    return acc


def section_involution(E: FiniteEffectAlgebra, a: int, x: int) -> int:
    """The antitone involution x -> a + x' on the section [a, 1]."""
    order = derive_order(E)
    if not order.leq(a, x):
        raise NotInSection(f"{x} is not in the section [{a}, 1]")
    y = E.sum[a][E.orth[x]]
    assert y is not None, "x' <= a' so the shift is always defined"
    # cheap involution sanity on every call
    assert order.leq(a, y)
    assert E.sum[a][E.orth[y]] == x, "involution must return to x"
    return y


@dataclass(frozen=True)
class ClassificationFlags:
    is_lattice: CheckResult
    is_modular: CheckResult
    is_distributive: CheckResult
    is_orthomodular: CheckResult
    is_mv: CheckResult
    is_sharply_dominating: CheckResult
    is_atomic: CheckResult
    is_archimedean: CheckResult


def classify(E: FiniteEffectAlgebra) -> ClassificationFlags:
    """Fill every classification flag, computing rather than assuming."""
    order = derive_order(E)

    if order.is_lattice:
        lat = CheckResult(True)
        modular = is_modular(E)
        distributive = is_distributive(E)
    else:
        bad = next((x, y) for x in E.elements() for y in E.elements()
                   if order.join[x][y] is None or order.meet[x][y] is None)
        lat = CheckResult(False, bad)
        modular = distributive = CheckResult(False, ("not-a-lattice",) + bad)

    smask = sharp_mask(E)
    full = (1 << E.size) - 1
    if not lat:
        oml = CheckResult(False, ("not-a-lattice",) + lat.witness)
    elif smask != full:
        oml = CheckResult(False, (next(bits(full & ~smask)),))
    else:
        oml = CheckResult(True)

    if lat:
        blist = blocks(E)
        if len(blist) == 1:
            mv = CheckResult(True)
        else:
            adj = compatibility_adjacency(E)
            pair = next((x, y) for x in E.elements() for y in E.elements()
                        if x < y and not (adj[x] >> y & 1))
            mv = CheckResult(False, pair)
        ident = mv_identity_holds(E)
        if mv.holds != ident.holds:
            raise InternalCheckFailed(
                f"single-block test ({mv.holds}) disagrees with the difference "
                f"identity ({ident.holds}, witness {ident.witness})")
    else:
        mv = CheckResult(False, ("not-a-lattice",) + lat.witness)

    sd_witness = None
    for x in E.elements():
        uppers = order.up[x] & smask
        got = _minimum_of(uppers, order)
        if isinstance(got, list):
            sd_witness = (x, tuple(got))
            break
    sharply_dominating = CheckResult(sd_witness is None, sd_witness)

    return ClassificationFlags(
        is_lattice=lat,
        is_modular=modular,
        is_distributive=distributive,
        is_orthomodular=oml,
        is_mv=mv,
        is_sharply_dominating=sharply_dominating,
        is_atomic=is_atomic(E),
        is_archimedean=is_archimedean(E),
    )
