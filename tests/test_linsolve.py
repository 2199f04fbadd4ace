"""The exact simplex and its Fourier-Motzkin counterpart."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from effalg.linsolve import (
    fourier_motzkin_feasible,
    matrix_rank,
    row_basis,
    solve_standard,
    verify_farkas,
)

F = Fraction


class TestSimplex:
    def test_simple_feasible(self):
        # x1 + x2 = 1, x >= 0
        res = solve_standard([[F(1), F(1)]], [F(1)])
        assert res.status == "optimal"
        assert sum(res.x) == 1

    def test_simple_infeasible_with_certificate(self):
        # x1 = -1 with x1 >= 0
        A, b = [[F(1)]], [F(-1)]
        res = solve_standard(A, b)
        assert res.status == "infeasible"
        assert verify_farkas(A, b, res.farkas)

    def test_conflicting_rows(self):
        A = [[F(1), F(1)], [F(1), F(1)]]
        b = [F(1), F(2)]
        res = solve_standard(A, b)
        assert res.status == "infeasible"
        assert verify_farkas(A, b, res.farkas)

    def test_minimize(self):
        # min x1 subject to x1 + x2 = 1: Bland lands on x1 = 0
        res = solve_standard([[F(1), F(1)]], [F(1)], [F(1), F(0)])
        assert res.status == "optimal"
        assert res.objective == 0 and res.x == (F(0), F(1))

    def test_maximize_via_negation(self):
        res = solve_standard([[F(1), F(1)]], [F(1)], [F(-1), F(0)])
        assert res.objective == -1 and res.x == (F(1), F(0))

    def test_unbounded(self):
        # min -x1 with x1 - x2 = 0: both can grow forever
        res = solve_standard([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])
        assert res.status == "unbounded"

    def test_deterministic(self):
        A = [[F(1), F(1), F(1)], [F(1), F(-1), F(0)]]
        b = [F(1), F(0)]
        runs = {solve_standard(A, b).x for _ in range(3)}
        assert len(runs) == 1


class TestFourierMotzkin:
    def test_box_feasible(self):
        rows = [((F(1),), F(1)), ((F(-1),), F(0))]
        assert fourier_motzkin_feasible(rows, 1)

    def test_contradiction(self):
        rows = [((F(1),), F(-1)), ((F(-1),), F(0))]  # x <= -1, x >= 0
        assert not fourier_motzkin_feasible(rows, 1)

    def test_chained(self):
        # x <= y, y <= z, z <= x - 1
        rows = [
            ((F(1), F(-1), F(0)), F(0)),
            ((F(0), F(1), F(-1)), F(0)),
            ((F(-1), F(0), F(1)), F(-1)),
        ]
        assert not fourier_motzkin_feasible(rows, 3)


@st.composite
def small_systems(draw):
    """Rows a.x <= r, which carry a slack column, and rows a.x = r, which
    carry none, with right-hand sides of either sign."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    rows = []
    for _ in range(m):
        coeffs = tuple(F(draw(st.integers(-3, 3))) for _ in range(n))
        rhs = F(draw(st.integers(-4, 4)))
        rows.append((coeffs, rhs, draw(st.booleans())))
    return n, rows


class TestAgreement:
    @given(small_systems())
    @settings(max_examples=300, deadline=None)
    def test_simplex_matches_elimination(self, case):
        n, rows = case
        # standard form with a slack per <=-row and split variables
        # x = p - q, so signs are free, as elimination allows.  Phase 1
        # starts a slacked row with b >= 0 from its slack; the other rows,
        # and a split variable that happens to be a unit column, vary that
        slacked = [i for i, (_, _, has_slack) in enumerate(rows) if has_slack]
        A, b, le_rows = [], [], []
        for i, (coeffs, rhs, has_slack) in enumerate(rows):
            A.append(list(coeffs) + [-v for v in coeffs]
                     + [F(1) if i == k else F(0) for k in slacked])
            b.append(rhs)
            le_rows.append((coeffs, rhs))
            if not has_slack:
                le_rows.append((tuple(-v for v in coeffs), -rhs))
        res = solve_standard(A, b)
        assert (res.status == "optimal") == fourier_motzkin_feasible(le_rows, n)
        if res.status == "infeasible":
            assert verify_farkas(A, b, res.farkas)
        else:
            assert all(v >= 0 for v in res.x)
            assert all(sum(a * x for a, x in zip(row, res.x)) == bi
                       for row, bi in zip(A, b))


class TestRank:
    def test_full_rank(self):
        assert matrix_rank([[F(1), F(0)], [F(0), F(1)]]) == 2

    def test_dependent_rows(self):
        assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1

    def test_zero(self):
        assert matrix_rank([[F(0), F(0)]]) == 0

    def test_basis_is_first_in_row_order(self):
        rows = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1, 3)], [F(1), F(1)]]
        assert row_basis(rows) == [0, 2]
