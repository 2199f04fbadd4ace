"""Textbook Fraction re-checks of states and infeasibility certificates.

state_violations lists what is wrong with a value vector the plain way:
every sum and comparison is taken over Fractions, one condition at a
time, in the order and with the messages of states.verify_state.
certificate_holds recomputes a certificate's combined row in Fractions.
modular_measure is the claim modular.measure's earlier conclusion: the
exchange identity over every pair, in Fractions.

Deliberately independent of the states and linsolve modules: it reads
only the algebra's tables and the certificate's plain fields.
"""

from fractions import Fraction

from effalg.core import bits, derive_order


def state_violations(E, values, require_subadditive=False):
    """(kind, witness, message) of every broken state condition."""
    n = E.size
    w = [Fraction(v) for v in values]
    if len(w) != n:
        return [("shape", (len(w),), "value count differs from size")]
    out = []
    if w[E.zero] != 0:
        out.append(("zero", (E.zero,), f"w(zero) = {w[E.zero]}"))
    if w[E.one] != 1:
        out.append(("one", (E.one,), f"w(one) = {w[E.one]}"))
    for x in range(n):
        if not (0 <= w[x] <= 1):
            out.append(("range", (x,), f"w({E.label(x)}) = {w[x]}"))
    for x in range(n):
        for y in range(x, n):
            s = E.sum[x][y]
            if s is not None and w[x] + w[y] != w[s]:
                out.append(("additivity", (x, y, s),
                            f"w({E.label(x)}) + w({E.label(y)}) != w({E.label(s)})"))
    order = derive_order(E)
    for x in range(n):
        for y in bits(order.up[x]):
            if w[x] > w[y]:
                out.append(("monotone", (x, y), f"w({E.label(x)}) > w({E.label(y)})"))
    if require_subadditive:
        for x in range(n):
            for y in range(n):
                j = order.join[x][y]
                if j is not None and w[j] > w[x] + w[y]:
                    out.append(("subadditive", (x, y, j),
                                f"w({E.label(j)}) > w({E.label(x)}) + w({E.label(y)})"))
                m = order.meet[x][y]
                if j is not None and m is not None and w[x] + w[y] != w[j] + w[m]:
                    out.append(("exchange", (x, y), "w+w != w(join)+w(meet) at "
                                f"({E.label(x)},{E.label(y)})"))
    return out


def modular_measure(E, w):
    """(True, None), or (False, (x, y)) at the first pair, row-major, with
    w(x) + w(y) != w(x v y) + w(x ^ y); lattice instances only."""
    order = derive_order(E)
    for x in E.elements():
        for y in E.elements():
            if w[x] + w[y] != w[order.join[x][y]] + w[order.meet[x][y]]:
                return False, (x, y)
    return True, None


def certificate_holds(system, eq_mult, bound_mult, ineq_mult):
    """Multipliers, one per equality row, per variable bound w_i <= 1 and
    per <=-row, with the bound and <=-multipliers nonpositive, whose
    combined row is <= 0 in every column while its right side is > 0."""
    n = system.n_vars
    if (len(eq_mult) != len(system.eq_rows) or len(bound_mult) != n
            or len(ineq_mult) != len(system.ineq_rows)):
        return False
    if any(Fraction(m) > 0 for m in (*bound_mult, *ineq_mult)):
        return False
    combo = [Fraction(0)] * n
    total = Fraction(0)
    for mults, rows in ((eq_mult, system.eq_rows), (ineq_mult, system.ineq_rows)):
        for m, (coeffs, rhs) in zip(mults, rows):
            for j, c in coeffs:
                combo[j] += Fraction(m) * Fraction(c)
            total += Fraction(m) * Fraction(rhs)
    for i, m in enumerate(bound_mult):
        combo[i] += Fraction(m)
        total += Fraction(m)
    return all(v <= 0 for v in combo) and total > 0
