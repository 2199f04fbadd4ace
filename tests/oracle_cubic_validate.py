"""Cubic reference for core.validate.

Structural checks, then every axiom over every pair and every triple of
elements, reporting all violations in a fixed order.  core.validate must
return exactly this list, in this order, on every table.  Nothing from
effalg is imported but the Violation record.
"""

from __future__ import annotations

from effalg.core import Violation


def _structural_problems(E: FiniteEffectAlgebra) -> list[Violation]:
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
    for x, row in enumerate(E.sum):
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

    Structural defects (ragged table, out-of-range index) short-circuit the
    axiom checks, since the table cannot be interpreted.
    """
    problems = _structural_problems(E)
    if problems:
        return problems
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
