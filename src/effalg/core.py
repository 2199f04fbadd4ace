"""Finite effect algebras: representation, axiom checking, derived order.

An algebra is a finite carrier {0..n-1} with two distinguished elements
(zero and one) and a partial commutative sum given as a dense n x n table
with None marking undefined entries.  Everything downstream (order,
orthosupplements, differences, iterated sums) is derived from the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps

from .errors import NotBelow, StructuralError, UndefinedSum, ZeroElement

__all__ = [
    "FiniteEffectAlgebra",
    "OrderStructure",
    "Violation",
    "validate",
    "is_valid",
    "derive_order",
    "orthosupplement",
    "difference",
    "element_order",
    "oplus_sum",
    "bits",
    "per_algebra",
]


def bits(mask: int):
    """Iterate set bit positions of an int bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FiniteEffectAlgebra:
    """A finite partial-sum algebra candidate.

    The table need not satisfy the axioms; run :func:`validate` to find out.
    All derived accessors assume a valid table.  Instances are immutable and
    hashable; derived structure is cached per instance: order, diff, orth
    and the functions marked per_algebra, which are functions of E alone
    with immutable results.  A call that raises caches nothing.
    """

    size: int
    zero: int
    one: int
    sum: tuple[tuple[int | None, ...], ...]
    labels: tuple[str, ...] | None = None

    def label(self, x: int) -> str:
        if self.labels is not None:
            return self.labels[x]
        return str(x)

    def elements(self):
        return range(self.size)

    @cached_property
    def order(self) -> "OrderStructure":
        return _compute_order(self)

    @cached_property
    def diff(self) -> tuple[tuple[int | None, ...], ...]:
        """Difference table: diff[y][x] = z iff x + z = y (valid tables only)."""
        n = self.size
        out = [[None] * n for _ in range(n)]
        for x in range(n):
            row = self.sum[x]
            for z in range(n):
                s = row[z]
                if s is not None:
                    out[s][x] = z
        return tuple(tuple(r) for r in out)

    @cached_property
    def orth(self) -> tuple[int, ...]:
        """Orthosupplement map x -> x' (the unique y with x + y = 1)."""
        one = self.one
        out = []
        for x in self.elements():
            row = self.sum[x]
            partner = [y for y in self.elements() if row[y] == one]
            if len(partner) != 1:
                raise StructuralError(
                    f"element {x} has {len(partner)} orthosupplements; table invalid"
                )
            out.append(partner[0])
        return tuple(out)

    def __repr__(self):
        return f"FiniteEffectAlgebra(size={self.size}, zero={self.zero}, one={self.one})"


def per_algebra(fn):
    """Keep fn(E) on E, as E.order is kept.  Only for functions of E alone
    with immutable results; a call that raises keeps nothing."""
    @wraps(fn)
    def cached(E):
        memo = vars(E).setdefault("_per_algebra", {})
        if cached not in memo:
            memo[cached] = fn(E)
        return memo[cached]
    return cached


@dataclass(frozen=True)
class Violation:
    """One broken axiom or structural defect, with a concrete witness."""

    kind: str  # structural | zero-one | Ei | Eii | Eiii | Eiv | neutrality
    witness: tuple
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.message}"


def _structural_problems(E: FiniteEffectAlgebra) -> list[Violation]:
    """Ragged rows and out-of-range entries, cell by cell.

    A row of n entries, each None or one of 0 .. n-1, has none, and one
    set lookup per entry (in C) clears it; only a row that fails that, or
    holds an entry that cannot be hashed, is walked cell by cell.
    """
    out = []
    n = E.size
    if n < 2:
        out.append(Violation("structural", (n,), f"size {n} < 2"))
        return out
    for name, v in (("zero", E.zero), ("one", E.one)):
        if not (0 <= v < n):
            out.append(Violation("structural", (v,), f"{name} index {v} out of range"))
    if len(E.sum) != n:
        out.append(Violation("structural", (len(E.sum),), f"table has {len(E.sum)} rows, expected {n}"))
        return out
    entries = frozenset([None, *range(n)])
    for x, row in enumerate(E.sum):
        try:
            if len(row) == n and entries.issuperset(row):
                continue
        except TypeError:
            pass
        if len(row) != n:
            out.append(Violation("structural", (x,), f"row {x} has {len(row)} entries, expected {n}"))
            continue
        for y, v in enumerate(row):
            if v is not None and not (0 <= v < n):
                out.append(Violation("structural", (x, y, v), f"sum[{x}][{y}] = {v} out of range"))
    if E.labels is not None and len(E.labels) != n:
        out.append(Violation("structural", (len(E.labels),), "label count differs from size"))
    return out


def validate(E: FiniteEffectAlgebra) -> list[Violation]:
    """Check every axiom and report ALL violations (empty list iff valid).

    Structural defects (ragged table, out-of-range or non-integer index)
    short-circuit the axiom checks, since the table cannot be interpreted.

    Validity is decided first by a pass whose associativity work is the
    number of defined sums (x + y) + z, not n^3 (_axioms_hold).  Only a
    table that fails it gets the full scan over every pair and triple
    (_violations), so every report lists the same violations, witnesses and
    messages in the same order as that scan alone would.
    """
    problems = _structural_problems(E)
    if problems:
        return problems
    try:
        if _axioms_hold(E):
            return []
    except TypeError:   # a non-integer index, reported below
        pass
    return _non_integers(E) or _violations(E)


def _non_integers(E: FiniteEffectAlgebra) -> list[Violation]:
    """Indices that are not integers, such as 3.0: they hash and compare
    like the integer, so _structural_problems lets them through, but they
    cannot index a row.  A walk over every cell, run only on a table that
    fails the fast pass."""
    out = [Violation("structural", (v,), f"{name} index {v} is not an integer")
           for name, v in (("zero", E.zero), ("one", E.one))
           if not isinstance(v, int)]
    for x, row in enumerate(E.sum):
        for y, v in enumerate(row):
            if v is not None and not isinstance(v, int):
                out.append(Violation("structural", (x, y, v),
                                     f"sum[{x}][{y}] = {v} is not an integer"))
    return out


def _axioms_hold(E: FiniteEffectAlgebra) -> bool:
    """Whether _violations(E) is empty, for a structurally sound table.

    Each row is read once into its defined sums x + y with y != 0: the sums
    with 0 hold by neutrality, checked on zero's row and, through symmetry,
    on its column.  Commutativity, one orthosupplement per element and the
    zero-one law are then tested on those lists.

    Associativity is tested in one direction only: for each defined
    s = x + y and each z with s + z defined, y + z must be defined and
    x + (y + z) must equal s + z.  Once T is symmetric, that is the whole
    axiom: if x + (y + z) is defined, it is (z + y) + x, the left side of
    the triple (z, y, x), whose right side z + (y + x) = (x + y) + z must
    then be defined and equal to it.  The work is the number of defined
    entries of row x + y summed over the defined pairs (x, y), 4^k instead
    of 8^k on boolean(k), and the memory one entry per defined sum.
    """
    n, zero, one = E.size, E.zero, E.one
    rows = E.sum
    if zero == one or tuple(rows[zero]) != tuple(range(n)):
        return False
    # zero's row and column are the only entries not used as an index below,
    # where a non-integer one raises TypeError
    if not (all(isinstance(v, int) for v in rows[zero])
            and all(isinstance(row[zero], int) for row in rows)):
        return False
    # defined[x]: the pairs (y, x + y) with y != zero and x + y defined
    defined = [[(y, s) for y, s in enumerate(row) if s is not None and y != zero]
               for row in rows]
    for x in range(n):
        # y + x is x + y wherever x + y is defined; as T and its transpose
        # have equally many defined entries, T is then symmetric
        for y, s in defined[x]:
            if rows[y][x] != s:
                return False
        if rows[x].count(one) != 1:
            return False
    if defined[one]:   # 1 + y with y != 0 must be undefined
        return False
    for x in range(n):
        if x == zero:   # (0 + y) + z = y + z = 0 + (y + z) by neutrality
            continue
        Tx = rows[x]
        for y, s in defined[x]:
            Ty = rows[y]
            for z, left in defined[s]:
                yz = Ty[z]
                if yz is None or Tx[yz] != left:
                    return False
    return True


def _violations(E: FiniteEffectAlgebra) -> list[Violation]:
    """Every axiom violation of a structurally sound table, by a full scan
    over every pair and every triple."""
    n, zero, one, T = E.size, E.zero, E.one, E.sum
    out = []

    if zero == one:
        out.append(Violation("zero-one", (zero,), "zero and one coincide"))

    # commutativity: defined iff symmetric entry defined, then equal
    for x in range(n):
        for y in range(x, n):
            if T[x][y] != T[y][x]:
                out.append(Violation(
                    "Ei", (x, y),
                    f"sum[{x}][{y}]={T[x][y]} but sum[{y}][{x}]={T[y][x]}"))

    # associativity, both definedness and value, for every triple
    for x in range(n):
        Tx = T[x]
        for y in range(n):
            xy = T[x][y]
            Ty = T[y]
            for z in range(n):
                left = None if xy is None else T[xy][z]
                yz = Ty[z]
                right = None if yz is None else Tx[yz]
                if left != right:
                    out.append(Violation(
                        "Eii", (x, y, z),
                        f"({x}+{y})+{z}={left} but {x}+({y}+{z})={right}"))

    # unique orthosupplement
    for x in range(n):
        partners = [y for y in range(n) if T[x][y] == one]
        if len(partners) != 1:
            out.append(Violation(
                "Eiii", (x, tuple(partners)),
                f"element {x} has orthosupplements {partners} (need exactly one)"))

    # zero-one law
    for x in range(n):
        if T[one][x] is not None and x != zero:
            out.append(Violation("Eiv", (x,), f"sum[one][{x}] defined but {x} != zero"))

    # neutrality of zero (a consequence of the axioms; checked explicitly)
    for x in range(n):
        if T[zero][x] != x:
            out.append(Violation("neutrality", (x,), f"sum[zero][{x}] = {T[zero][x]} != {x}"))

    return out


def is_valid(E: FiniteEffectAlgebra) -> bool:
    return not validate(E)


@dataclass(frozen=True)
class OrderStructure:
    """The order derived from x <= y iff x + z = y for some z.

    up[x] / down[x] are bitmasks over element indices (x included in both);
    atom_mask has the bit of every atom set.  join/meet are partial tables: None where no least upper / greatest lower
    bound exists.  is_lattice iff both tables are total.
    """

    n: int
    up: tuple[int, ...]
    down: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    atoms: tuple[int, ...]
    atom_mask: int
    join: tuple[tuple[int | None, ...], ...]
    meet: tuple[tuple[int | None, ...], ...]
    is_lattice: bool

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)


def _least_of(mask: int, up: tuple[int, ...]) -> int | None:
    """The element of mask below all others in mask, if any; passed the
    down-sets instead, the element above all others."""
    for u in bits(mask):
        if up[u] & mask == mask:
            return u
    return None


def _compute_order(E: FiniteEffectAlgebra) -> OrderStructure:
    n, T = E.size, E.sum
    up = [1 << x for x in range(n)]
    for x in range(n):
        row = T[x]
        m = up[x]
        for z in range(n):
            s = row[z]
            if s is not None:
                m |= 1 << s
        up[x] = m
    down = [0] * n
    for x in range(n):
        ux = up[x]
        for y in bits(ux):
            down[y] |= 1 << x
    up, down = tuple(up), tuple(down)
    # antisymmetry and transitivity sanity: consequences of the axioms,
    # checked explicitly so corrupted tables fail fast here
    for x in range(n):
        for y in bits(up[x]):
            if y != x and (up[y] >> x & 1):
                raise StructuralError(f"derived order not antisymmetric at ({x},{y})")
            if up[y] & ~up[x]:
                raise StructuralError(f"derived order not transitive at ({x},{y})")

    zero_bit = 1 << E.zero
    atoms = tuple(x for x in range(n)
                  if x != E.zero and down[x] == zero_bit | (1 << x))

    covers = []
    for x in range(n):
        for y in bits(up[x]):
            if y == x:
                continue
            between = up[x] & down[y] & ~(1 << x) & ~(1 << y)
            if between == 0:
                covers.append((x, y))
    covers.sort()

    join = [[None] * n for _ in range(n)]
    meet = [[None] * n for _ in range(n)]
    total = True
    for x in range(n):
        for y in range(x, n):
            j = _least_of(up[x] & up[y], up)
            m = _least_of(down[x] & down[y], down)
            join[x][y] = join[y][x] = j
            meet[x][y] = meet[y][x] = m
            if j is None or m is None:
                total = False

    return OrderStructure(
        n=n,
        up=up,
        down=down,
        covers=tuple(covers),
        atoms=atoms,
        atom_mask=sum(1 << a for a in atoms),
        join=tuple(tuple(r) for r in join),
        meet=tuple(tuple(r) for r in meet),
        is_lattice=total,
    )


def derive_order(E: FiniteEffectAlgebra) -> OrderStructure:
    """Order, covers, atoms and partial join/meet tables of a valid algebra."""
    return E.order


def orthosupplement(E: FiniteEffectAlgebra, x: int) -> int:
    """The unique y with x + y = 1."""
    return E.orth[x]


def difference(E: FiniteEffectAlgebra, y: int, x: int) -> int:
    """y - x: the unique z with x + z = y.  Requires x <= y."""
    z = E.diff[y][x]
    if z is None:
        raise NotBelow(f"{x} is not below {y}")
    return z


def element_order(E: FiniteEffectAlgebra, x: int) -> int:
    """Largest k such that the k-fold sum x + ... + x is defined.

    Finite on every valid algebra (multiples strictly increase).  Defined
    for nonzero x only; the zero element is rejected rather than given the
    infinite-order convention.
    """
    if x == E.zero:
        raise ZeroElement("order of the zero element is not defined here")
    k, acc = 1, x
    while True:
        nxt = E.sum[acc][x]
        if nxt is None:
            return k
        acc = nxt
        k += 1
        if k > E.size:
            raise StructuralError(f"multiples of {x} cycle; table invalid")


def oplus_sum(E: FiniteEffectAlgebra, xs) -> int:
    """Left-associative iterated sum of a finite multiset; empty sum is zero.

    Raises UndefinedSum with the failing partial sum as witness.  On valid
    algebras the result does not depend on the order of xs.
    """
    acc = E.zero
    for x in xs:
        nxt = E.sum[acc][x]
        if nxt is None:
            raise UndefinedSum(acc, x)
        acc = nxt
    return acc
