"""Fraction reference for the multipliers of states._certificate.

fraction_multipliers assembles a certificate's eq_mult and ineq_mult from
a solution y of the Farkas alternative the way states._certificate did
before it worked in integers: every product and sum is a Fraction, and
the reduction's log is replayed over Fractions as Reduction.combination
did (fraction_combination).  It takes the arguments _certificate takes
and reads nothing of the reduction but its pivots and its log.
"""

from fractions import Fraction

ZERO = Fraction(0)


def fraction_combination(red, coeffs):
    """{input row: Fraction} whose combination equals sum of coeffs[i]
    times reduced row i, with every step in Fractions."""
    nu = {i: Fraction(c) for i, c in coeffs.items() if c}
    lam = {}
    for step, i, j, f, d in reversed(red._log):
        c = nu.get(i)
        if not c:
            continue
        if step == "sub":
            nu[j] = nu.get(j, ZERO) - c * Fraction(f, d)
        elif step == "div":
            nu[i] = c * Fraction(d, f)
        else:  # "start": row i began as input row j
            lam[j] = lam.get(j, ZERO) + nu.pop(i)
    return {k: v for k, v in lam.items() if v}


def fraction_multipliers(sys, red, cons, y):
    """(eq_mult, ineq_mult) as tuples of Fractions."""
    n = sys.n_vars
    ineq_mult = [ZERO] * len(sys.ineq_rows)
    if cons is None:
        lam = fraction_combination(red, {red.pivots.index(n): 1})
    else:
        a = [y[j] * cons[j][1] for j in range(n)]
        for i, (coeffs, _) in enumerate(sys.ineq_rows):
            m = y[n + i] * cons[n + i][1]
            ineq_mult[i] = -m
            for j, c in coeffs:
                a[j] -= m * c
        lam = {i: -v for i, v in fraction_combination(
            red, {i: a[p] for i, p in enumerate(red.pivots)}).items()}
    eq_mult = tuple(lam.get(i, ZERO) for i in range(len(sys.eq_rows)))
    return eq_mult, tuple(ineq_mult)
