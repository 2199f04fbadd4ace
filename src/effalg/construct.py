"""Constructors for the standard finite effect algebras and gluings.

All constructors return validated FiniteEffectAlgebra instances; a
constructor output failing validation is a bug and raises loudly.
central_decomposition builds nothing: it checks a central split.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import FiniteEffectAlgebra, bits, derive_order, difference, validate
from .errors import (
    EmptyInterval,
    InternalCheckFailed,
    NotBelow,
    NotCentral,
    NotLattice,
    PartTooSmall,
    SizeOverflow,
    StructuralError,
)

__all__ = [
    "ConstructionSpec",
    "parse_construction",
    "build",
    "boolean_algebra",
    "chain",
    "horizontal_sum",
    "product",
    "interval",
    "central_decomposition",
]

SIZE_CAP = 4096  # keeps downstream O(n^3) scans tractable
# most digits an integer argument may have, leading zeros aside; int()
# refuses digit strings of more than 4300 digits, and every size is
# capped far below 10**9
MAX_DIGITS = 9
_LATTICE_ASSERT_CAP = 512  # skip the O(n^3) coordinatewise-order check above this


def _freeze(table) -> tuple:
    return tuple(tuple(row) for row in table)


def _within_cap(n: int, what: str) -> int:
    """n, the size of what, checked against SIZE_CAP before any table exists."""
    if n > SIZE_CAP:
        raise SizeOverflow(f"{what} would have {n} elements, more than {SIZE_CAP}")
    return n


def _checked(E: FiniteEffectAlgebra, what: str) -> FiniteEffectAlgebra:
    bad = validate(E)
    if bad:
        raise InternalCheckFailed(f"{what} produced an invalid table: {bad[:3]}")
    return E


def boolean_algebra(k: int) -> FiniteEffectAlgebra:
    """Powerset algebra on k atoms; the sum is disjoint union."""
    if k < 1:
        raise StructuralError(f"atom count {k} < 1")
    if k >= SIZE_CAP.bit_length():  # before 1 << k, which k could make huge
        raise SizeOverflow(f"boolean algebra on {k} atoms has more than "
                           f"{SIZE_CAP} elements")
    n = 1 << k
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x & y == 0:
                table[x][y] = x | y
    letters = "abcdefghijklmnopqrstuvwxyz"
    labels = []
    for x in range(n):
        if x == 0:
            labels.append("0")
        elif x == n - 1:
            labels.append("1")
        else:
            labels.append("".join(letters[i] for i in bits(x)))
    E = FiniteEffectAlgebra(size=n, zero=0, one=n - 1,
                            sum=_freeze(table), labels=tuple(labels))
    return _checked(E, f"boolean_algebra({k})")


def chain(m: int) -> FiniteEffectAlgebra:
    """The (m+1)-element chain 0 < a < 2a < ... < ma = 1; j+k defined iff <= m."""
    if m < 1:
        raise StructuralError(f"generator order {m} < 1")
    n = _within_cap(m + 1, f"chain({m})")
    table = [[x + y if x + y <= m else None for y in range(n)] for x in range(n)]
    labels = ["0"] + [("a" if j == 1 else f"{j}a") for j in range(1, m)] + ["1"]
    E = FiniteEffectAlgebra(size=n, zero=0, one=m,
                            sum=_freeze(table), labels=tuple(labels))
    return _checked(E, f"chain({m})")


def horizontal_sum(parts: list[FiniteEffectAlgebra]) -> FiniteEffectAlgebra:
    """Glue the parts at 0 and 1; sums stay inside their part.

    Nontrivial elements of different parts end up with meet 0 and join 1,
    which is asserted after construction.
    """
    if not parts:
        raise PartTooSmall("horizontal sum needs at least one part")
    for p in parts:
        if p.size < 2:
            raise PartTooSmall("degenerate 1-element part")
        _checked(p, "horizontal_sum input")
    if len(parts) == 1:
        return parts[0]
    _within_cap(2 + sum(p.size - 2 for p in parts), "horizontal sum")

    maps = []  # per part: original index -> glued index
    labels = ["0"]
    nxt = 1
    for i, p in enumerate(parts):
        phi = {}
        for x in p.elements():
            if x == p.zero or x == p.one:
                continue
            phi[x] = nxt
            labels.append(f"p{i}.{p.label(x)}")
            nxt += 1
        maps.append(phi)
    n = nxt + 1
    labels.append("1")

    table = [[None] * n for _ in range(n)]
    for p, phi in zip(parts, maps):
        full = dict(phi)
        full[p.zero] = 0
        full[p.one] = n - 1
        for x in p.elements():
            for y in p.elements():
                s = p.sum[x][y]
                if s is not None:
                    table[full[x]][full[y]] = full[s]
    E = FiniteEffectAlgebra(size=n, zero=0, one=n - 1,
                            sum=_freeze(table), labels=tuple(labels))
    E = _checked(E, "horizontal_sum")

    order = derive_order(E)
    part_of = {}
    for i, phi in enumerate(maps):
        for g in phi.values():
            part_of[g] = i
    for x in range(1, n - 1):
        for y in range(1, n - 1):
            if part_of[x] != part_of[y]:
                if order.meet[x][y] != 0 or order.join[x][y] != n - 1:
                    raise InternalCheckFailed(
                        f"cross-part pair ({x},{y}) has meet {order.meet[x][y]}, "
                        f"join {order.join[x][y]}")
    return E


def product(parts: list[FiniteEffectAlgebra]) -> FiniteEffectAlgebra:
    """Direct product with coordinatewise sums (defined iff defined everywhere)."""
    if not parts:
        raise StructuralError("product needs at least one part")
    for p in parts:
        _checked(p, "product input")
    n = 1
    for p in parts:
        n = _within_cap(n * p.size, "product")

    sizes = [p.size for p in parts]

    def decode(idx):
        coords = []
        for s in reversed(sizes):
            coords.append(idx % s)
            idx //= s
        return tuple(reversed(coords))

    def encode(coords):
        idx = 0
        for c, s in zip(coords, sizes):
            idx = idx * s + c
        return idx

    coords_of = [decode(i) for i in range(n)]
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        cx = coords_of[x]
        for y in range(n):
            cy = coords_of[y]
            out = []
            for p, a, b in zip(parts, cx, cy):
                s = p.sum[a][b]
                if s is None:
                    break
                out.append(s)
            else:
                table[x][y] = encode(out)

    labels = tuple("(" + ",".join(p.label(c) for p, c in zip(parts, coords_of[i])) + ")"
                   for i in range(n))
    E = FiniteEffectAlgebra(
        size=n,
        zero=encode([p.zero for p in parts]),
        one=encode([p.one for p in parts]),
        sum=_freeze(table),
        labels=labels,
    )
    E = _checked(E, "product")

    if n <= _LATTICE_ASSERT_CAP and all(derive_order(p).is_lattice for p in parts):
        order = derive_order(E)
        part_orders = [derive_order(p) for p in parts]
        for x in range(n):
            for y in range(n):
                ej = encode([o.join[a][b] for o, a, b in
                             zip(part_orders, coords_of[x], coords_of[y])])
                em = encode([o.meet[a][b] for o, a, b in
                             zip(part_orders, coords_of[x], coords_of[y])])
                if order.join[x][y] != ej or order.meet[x][y] != em:
                    raise InternalCheckFailed(
                        f"product join/meet not coordinatewise at ({x},{y})")
    return E


def interval(E: FiniteEffectAlgebra, a: int, b: int) -> FiniteEffectAlgebra:
    """The interval [a, b] as an algebra: new zero a, new one b.

    x # y = a + ((x - a) + (y - a)) whenever the inner sum is defined and the
    shifted result stays below b.
    """
    if a == b:
        raise EmptyInterval(f"interval [{a},{a}] is degenerate")
    order = derive_order(E)
    if not order.leq(a, b):
        raise NotBelow(f"{a} is not below {b}")

    carrier = [x for x in E.elements() if order.leq(a, x) and order.leq(x, b)]
    pos = {x: i for i, x in enumerate(carrier)}
    k = len(carrier)
    table = [[None] * k for _ in range(k)]
    for x in carrier:
        u = difference(E, x, a)
        for y in carrier:
            v = difference(E, y, a)
            inner = E.sum[u][v]
            if inner is None:
                continue
            shifted = E.sum[a][inner]
            if shifted is not None and order.leq(shifted, b):
                table[pos[x]][pos[y]] = pos[shifted]
    sub = FiniteEffectAlgebra(
        size=k, zero=pos[a], one=pos[b],
        sum=_freeze(table),
        labels=tuple(E.label(x) for x in carrier),
    )
    bad = validate(sub)
    if bad:
        raise InternalCheckFailed(
            f"interval [{a},{b}] failed validation: {bad[:3]}")
    return sub


def central_decomposition(E: FiniteEffectAlgebra, c: int) -> tuple[tuple[int, int], ...]:
    """The split of E along c as [0,c] x [0,c'], which E admits exactly
    when c is central (Greechie, Foulis & Pulmannova 1995, The center of
    an effect algebra, Order 12), checked on E's own table in O(n^2).

    Returns iso: iso[x] = (i, j) places x meet c at index i of [0,c] and
    x meet c' at index j of [0,c'], each counted in E's order as interval
    counts them.  x -> (x meet c, x meet c') must be a bijection onto the
    pairs, and x + y must be defined exactly when both coordinate sums are
    defined and stay below c and c' respectively, with those sums as its
    meets.  A failure raises NotCentral with its witness.  As for
    structure.center, E must be a lattice (NotLattice otherwise).
    """
    if c == E.zero or c == E.one:
        raise NotCentral(f"element {c} gives a degenerate factor")
    order = derive_order(E)
    if not order.is_lattice:
        raise NotLattice("a central split needs a lattice instance")
    cprime = E.orth[c]
    low, high = order.meet[c], order.meet[cprime]

    def fail(why):
        raise NotCentral(f"{E.label(c)} is not central: {why}")

    pos_low = {x: i for i, x in enumerate(bits(order.down[c]))}
    pos_high = {x: j for j, x in enumerate(bits(order.down[cprime]))}
    iso = tuple((pos_low[low[x]], pos_high[high[x]]) for x in E.elements())
    first = {}
    for x, pair in enumerate(iso):
        if first.setdefault(pair, x) != x:
            fail(f"{E.label(first[pair])} and {E.label(x)} have the same meets")
    if len(first) != len(pos_low) * len(pos_high):
        fail("some pair of meets belongs to no element")

    S = E.sum
    for x in E.elements():
        row, row_low, row_high = S[x], S[low[x]], S[high[x]]
        for y in E.elements():
            # the sums in [0,c] and [0,c'], None where undefined in E or
            # not below c (c'), as positions
            pair = (pos_low.get(row_low[low[y]]), pos_high.get(row_high[high[y]]))
            s = row[y]
            if (s is None) != (None in pair) or (s is not None and iso[s] != pair):
                fail(f"the split does not preserve the sum at "
                     f"({E.label(x)},{E.label(y)})")
    return iso


@dataclass(frozen=True)
class ConstructionSpec:
    """A declarative recipe: boolean(k), chain(m), horizontal_sum(...),
    product(...), or interval(parent, a, b) with a, b element labels."""

    kind: str
    args: tuple

    def __str__(self):
        if self.kind in ("boolean", "chain"):
            return f"{self.kind}({self.args[0]})"
        return f"{self.kind}({', '.join(str(a) for a in self.args)})"


_TOKEN = re.compile(r"\s*([(),]|[^(),\s]+)")


def _tokenize(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            break
        out.append(m.group(1))
        i = m.end()
    return out


def parse_construction(text: str) -> ConstructionSpec:
    """Parse the construction mini-language, e.g.
    horizontal_sum(boolean(2), chain(2))."""
    tokens = _tokenize(text)
    pos = 0

    def fail(msg):
        raise StructuralError(f"construction parse error: {msg} (at token {pos})")

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            fail(f"unexpected end, wanted {expected!r}")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            fail(f"wanted {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def parse_spec():
        kind = take()
        if kind in ("boolean", "chain"):
            take("(")
            arg = take()
            if not arg.isdecimal():
                fail(f"{kind} needs an integer, got {arg!r}")
            digits = len(arg.lstrip("0"))
            if digits > MAX_DIGITS:
                fail(f"{kind} argument of {digits} digits is too large")
            take(")")
            return ConstructionSpec(kind, (int(arg),))
        if kind in ("horizontal_sum", "product"):
            take("(")
            parts = [parse_spec()]
            while peek() == ",":
                take(",")
                parts.append(parse_spec())
            take(")")
            return ConstructionSpec(kind, tuple(parts))
        if kind == "interval":
            take("(")
            parent = parse_spec()
            take(",")
            a = take()
            take(",")
            b = take()
            take(")")
            return ConstructionSpec(kind, (parent, a, b))
        fail(f"unknown construction {kind!r}")

    try:
        spec = parse_spec()
    finally:
        del parse_spec   # parse_spec refers to itself: free the parse now
    if pos != len(tokens):
        fail(f"trailing input {tokens[pos:]!r}")
    return spec


def build(spec: ConstructionSpec) -> FiniteEffectAlgebra:
    """Materialize a ConstructionSpec."""
    if spec.kind == "boolean":
        return boolean_algebra(spec.args[0])
    if spec.kind == "chain":
        return chain(spec.args[0])
    if spec.kind == "horizontal_sum":
        return horizontal_sum([build(s) for s in spec.args])
    if spec.kind == "product":
        return product([build(s) for s in spec.args])
    if spec.kind == "interval":
        parent_spec, la, lb = spec.args
        parent = build(parent_spec)
        def resolve(lab):
            for x in parent.elements():
                if parent.label(x) == lab:
                    return x
            raise StructuralError(f"no element labelled {lab!r} in {parent_spec}")
        return interval(parent, resolve(la), resolve(lb))
    raise StructuralError(f"unknown construction kind {spec.kind!r}")
