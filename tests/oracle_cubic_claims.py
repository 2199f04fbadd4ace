"""Family-scanning references for the claims sum.distributes_over_join and
diff.distributes_over_join.

join_sum_pairs tests every pair (x, y) and, up to 8 elements, every triple
for every b, as theorems._join_sum_pairs did before it kept to the pairs
inside [0, b'].  join_difference_triples tests, for every a, the pairs and
then the triples above a, as theorems._join_difference_pairs did before it
kept to pairs.  Their first failure, in the same order, is the witness the
claim must report.  It imports only the family tests it calls.
"""

from itertools import combinations

from effalg.core import bits, derive_order
from effalg.theorems import join_difference_family_holds, join_sum_family_holds


def join_sum_pairs(E):
    n = E.size
    for b in E.elements():
        for x in range(n):
            for y in range(x + 1, n):
                if not join_sum_family_holds(E, [x, y], b):
                    return False, (x, y, b)
        if n <= 8:
            for t in combinations(range(n), 3):
                if not join_sum_family_holds(E, list(t), b):
                    return False, t + (b,)
    return True, None


def join_difference_triples(E):
    order = derive_order(E)
    for a in E.elements():
        above = list(bits(order.up[a]))
        for x, y in combinations(above, 2):
            if not join_difference_family_holds(E, [x, y], a):
                return False, (a, x, y)
        for t in combinations(above, 3):
            if not join_difference_family_holds(E, list(t), a):
                return False, (a,) + t
    return True, None
