"""Reference for states.state_system: each row's coefficients summed in a
dict per row, sorted and filtered of zeros, and each label formatted from
E.label.  state_system must return an equal LinearSystem, labels included,
except that with subadditive it leaves out the join rows of compatible
pairs; this reference keeps a join row for every pair of middles, as the
definition of a subadditive state reads.
"""

from __future__ import annotations

from effalg.core import derive_order
from effalg.errors import NotLattice
from effalg.states import LinearSystem


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


def dict_state_system(E, subadditive=False):
    """Constraints for a state (plus join subadditivity on request)."""
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
