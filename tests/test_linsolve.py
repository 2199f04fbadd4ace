"""The exact simplex and its Fourier-Motzkin counterpart."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import effalg.states
from effalg.algfile import load_algebra
from effalg.construct import boolean_algebra, chain, product
from effalg.core import derive_order
from effalg.enumeration import EnumerationConfig, enumerate_algebras
from effalg.linsolve import (
    SimplexResult,
    fourier_motzkin_feasible,
    matrix_rank,
    row_basis,
    row_reduce,
    solve_standard,
)
from effalg.states import (
    InfeasibilityCertificate,
    find_state,
    find_subadditive_state,
    state_space_dimension,
)
from oracle_dense_simplex import dense_row_basis, solve_dense, verify_farkas
from oracle_fraction_certificate import fraction_combination

F = Fraction
STATELESS9 = Path(__file__).parent / "fixtures" / "stateless9.alg"


def pairs(rows):
    """Dense rows as the solver's sparse rows of (column, value) pairs."""
    return [tuple((j, v) for j, v in enumerate(row) if v) for row in rows]


def solve(A, b):
    """solve_standard on a dense A."""
    return solve_standard(pairs(A), b, len(A[0]))


def densify(A, n):
    """Sparse rows as dense rows of n entries."""
    dense = [[F(0)] * n for _ in A]
    for row, sparse in zip(dense, A):
        for j, v in sparse:
            row[j] = v
    return dense


class TestSimplex:
    def test_simple_feasible(self):
        # x1 + x2 = 1, x >= 0
        res = solve([[F(1), F(1)]], [F(1)])
        assert res.status == "feasible"
        assert sum(res.x) == 1

    def test_simple_infeasible_with_certificate(self):
        # x1 = -1 with x1 >= 0
        A, b = [[F(1)]], [F(-1)]
        res = solve(A, b)
        assert res.status == "infeasible"
        assert verify_farkas(A, b, res.farkas)

    def test_conflicting_rows(self):
        A = [[F(1), F(1)], [F(1), F(1)]]
        b = [F(1), F(2)]
        res = solve(A, b)
        assert res.status == "infeasible"
        assert verify_farkas(A, b, res.farkas)

    def test_deterministic(self):
        A = [[F(1), F(1), F(1)], [F(1), F(-1), F(0)]]
        b = [F(1), F(0)]
        runs = {solve(A, b).x for _ in range(3)}
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


def standard_form(rows):
    """A x = b for rows (coeffs, rhs, has_slack): a slack per slacked row,
    and split variables x = p - q, so signs are free, as elimination allows.
    Phase 1 starts a slacked row with b >= 0 from its slack; the other rows,
    and a split variable that happens to be a unit column, vary that."""
    slacked = [i for i, (_, _, has_slack) in enumerate(rows) if has_slack]
    A = [list(coeffs) + [-v for v in coeffs]
         + [F(1) if i == k else F(0) for k in slacked]
         for i, (coeffs, _, _) in enumerate(rows)]
    return A, [rhs for _, rhs, _ in rows]


@st.composite
def sparse_systems(draw):
    """A x = b with 3-8 rows and 4-12 columns, about three entries in four
    zero, and small rational nonzeros."""
    m = draw(st.integers(3, 8))
    n = draw(st.integers(4, 12))
    entry = st.tuples(st.integers(0, 3), st.integers(-4, 4),
                      st.sampled_from([1, 1, 1, 2, 3]))
    A = []
    for _ in range(m):
        A.append([F(v, d) if k == 0 else F(0)
                  for k, v, d in (draw(entry) for _ in range(n))])
    b = [F(draw(st.integers(-4, 4))) for _ in range(m)]
    return A, b


class TestAgreement:
    @given(small_systems())
    @settings(max_examples=300, deadline=None)
    def test_simplex_matches_elimination(self, case):
        n, rows = case
        A, b = standard_form(rows)
        le_rows = []
        for coeffs, rhs, has_slack in rows:
            le_rows.append((coeffs, rhs))
            if not has_slack:
                le_rows.append((tuple(-v for v in coeffs), -rhs))
        res = solve(A, b)
        assert (res.status == "feasible") == fourier_motzkin_feasible(le_rows, n)
        if res.status == "infeasible":
            assert verify_farkas(A, b, res.farkas)
        else:
            assert all(v >= 0 for v in res.x)
            assert all(sum(a * x for a, x in zip(row, res.x)) == bi
                       for row, bi in zip(A, b))


class TestDenseOracle:
    """The sparse pivots compute what the dense textbook pivots compute."""

    @given(st.one_of(small_systems().map(lambda case: standard_form(case[1])),
                     sparse_systems()))
    @settings(max_examples=300, deadline=None)
    def test_same_result_as_dense_pivots(self, case):
        A, b = case
        res = solve(A, b)
        assert (res.status, res.x, res.farkas) == solve_dense(A, b)
        if res.status == "infeasible":
            assert verify_farkas(A, b, res.farkas)

    @pytest.mark.parametrize("call, E, solves", [
        (find_subadditive_state, boolean_algebra(4), True),
        (state_space_dimension, product([boolean_algebra(2), chain(3)]), True),
        (find_state, load_algebra(STATELESS9), False),
        (find_subadditive_state, next(
            E for E in enumerate_algebras(EnumerationConfig(size=6))
            if derive_order(E).is_lattice
            and isinstance(find_subadditive_state(E), InfeasibilityCertificate)),
         True),
    ], ids=["subadditive-boolean4", "dimension-b2xc3", "certificate-stateless9",
            "certificate-lattice6"])
    def test_same_state_lps_as_dense_pivots(self, call, E, solves, monkeypatch):
        # stateless9's equality rows are inconsistent, so the elimination
        # refutes them and no LP reaches the pivots; a size-6 lattice with
        # no subadditive state gets its certificate from an LP
        lps = []

        def dense(A, b, n):
            res = solve_standard(A, b, n)
            status, x, farkas = solve_dense(densify(A, n), b)
            assert (res.status, res.x, res.farkas) == (status, x, farkas)
            lps.append(status)
            return SimplexResult(status, x, farkas)

        expected = call(E)
        monkeypatch.setattr(effalg.states, "solve_standard", dense)
        assert call(E) == expected
        assert bool(lps) == solves


class TestRank:
    def test_full_rank(self):
        assert matrix_rank(pairs([[F(1), F(0)], [F(0), F(1)]])) == 2

    def test_dependent_rows(self):
        assert matrix_rank(pairs([[F(1), F(2)], [F(2), F(4)]])) == 1

    def test_zero(self):
        assert matrix_rank(pairs([[F(0), F(0)]])) == 0

    def test_basis_is_first_in_row_order(self):
        rows = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1, 3)], [F(1), F(1)]]
        assert row_basis(pairs(rows)) == [0, 2]


@st.composite
def dependent_rows(draw):
    """Rows [coeffs | rhs] of 2-7 columns, mostly zero, with entries up to
    10**6 over denominators up to 10**3.  Each row after the first few may
    instead be zero, a scaled copy of an earlier row, a combination of two,
    or an earlier row with its rhs moved (inconsistent with it)."""
    n = draw(st.integers(2, 7))
    big = st.integers(-10**6, 10**6).filter(bool)
    entry = st.one_of(st.just(F(0)), st.just(F(0)),
                      st.builds(F, big, st.integers(1, 10**3)))
    scale = st.builds(F, big, st.integers(1, 10**6))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(
            ["fresh", "fresh", "zero", "scaled", "combined", "inconsistent"]))
        if kind == "zero":
            rows.append([F(0)] * n)
        elif kind == "fresh" or not rows:
            rows.append([draw(entry) for _ in range(n)])
        elif kind == "scaled":
            c, r = draw(scale), draw(st.sampled_from(rows))
            rows.append([c * v for v in r])
        elif kind == "combined":
            c, d = draw(scale), draw(scale)
            r, s = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([c * u + d * v for u, v in zip(r, s)])
        else:
            r = draw(st.sampled_from(rows))
            rows.append(r[:-1] + [r[-1] + draw(scale)])
    return rows


class TestRowBasisOracle:
    @given(dependent_rows())
    @settings(max_examples=300, deadline=None)
    def test_same_rows_as_dense_elimination(self, rows):
        kept = row_basis(pairs(rows))
        assert kept == dense_row_basis(rows)
        assert matrix_rank(pairs(rows)) == len(kept)

    @given(dependent_rows())
    @settings(max_examples=300, deadline=None)
    def test_reduced_rows_and_their_record(self, rows):
        # reduced row echelon form: 1 at the row's own pivot, 0 at every
        # other pivot; and the record rebuilds each reduced row exactly
        # from the input rows
        red = row_reduce(pairs(rows))
        assert red.kept == dense_row_basis(rows)
        n = len(rows[0])
        reduced = densify([[(j, F(v, d)) for j, v in r.items()]
                           for r, d in zip(red.rows, red.dens)], n)
        for i, row in enumerate(reduced):
            assert [row[p] for p in red.pivots] == [F(int(i == t)) for t in range(len(red.pivots))]
            lam = red.combination({i: 1})
            assert set(lam) <= set(red.kept)
            assert [sum(c * rows[k][j] for k, c in lam.items()) for j in range(n)] == row

    @given(dependent_rows(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_combination_matches_the_fraction_replay(self, rows, data):
        # combination() replays the record over integer pairs; the same
        # replay over Fractions must give the same multipliers
        red = row_reduce(pairs(rows))
        value = st.one_of(st.integers(-10**6, 10**6),
                          st.fractions(max_denominator=10**4))
        coeffs = {i: data.draw(value) for i in range(len(red.pivots))}
        got = red.combination(coeffs)
        assert got == fraction_combination(red, coeffs)
        assert all(type(v) is F and v for v in got.values())
