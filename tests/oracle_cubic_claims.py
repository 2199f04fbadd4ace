"""Cubic reference for the claim sum.distributes_over_join.

join_sum_pairs tests every pair (x, y) and, up to 8 elements, every triple
for every b, as theorems._join_sum_pairs did before it kept to the families
inside [0, b'].  Its first failure, in the same order, is the witness the
claim must report.  It imports only the family test it calls.
"""

from itertools import combinations

from effalg.theorems import join_sum_family_holds


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
