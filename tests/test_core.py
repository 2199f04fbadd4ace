"""Axiom checking and the derived order/difference machinery."""

import time
from pathlib import Path

import pytest

from conftest import (algebra_from_sums, make_b2, make_c3, make_c4, make_e5,
                      make_hex6, make_hs2)
from effalg.algfile import load_algebra
from effalg.construct import boolean_algebra, product
from effalg.core import (
    FiniteEffectAlgebra,
    _structural_problems,
    derive_order,
    difference,
    element_order,
    oplus_sum,
    orthosupplement,
    validate,
)
from effalg.errors import NotBelow, StructuralError, UndefinedSum, ZeroElement
from oracle_cubic_validate import _structural_problems as oracle_structural_problems
from oracle_cubic_validate import validate as cubic_validate


def kinds(violations):
    return {v.kind for v in violations}


class TestValidate:
    def test_accepts_the_corpus(self, corpus):
        for E in corpus:
            assert validate(E) == []

    def test_broken_symmetry_is_Ei(self):
        E = make_b2()
        table = [list(r) for r in E.sum]
        table[2][1] = None  # keep a+a' but drop a'+a
        broken = FiniteEffectAlgebra(4, 0, 3, tuple(tuple(r) for r in table))
        report = validate(broken)
        assert any(v.kind == "Ei" and set(v.witness) == {1, 2} for v in report)

    def test_added_cross_sum_is_Eii(self):
        # E5 plus a+b = a' breaks associativity at (b+a)+a vs b+(a+a)
        E = algebra_from_sums(5, 0, 4, [(1, 2, 4), (3, 3, 4), (1, 3, 2)])
        report = validate(E)
        assert "Eii" in kinds(report)
        assert "Eiii" not in kinds(report)

    def test_double_orthosupplement_is_Eiii(self):
        E = algebra_from_sums(5, 0, 4, [(1, 2, 4), (3, 3, 4), (1, 3, 4)])
        report = validate(E)
        assert any(v.kind == "Eiii" and v.witness[0] == 1 for v in report)

    def test_sum_with_one_is_Eiv(self):
        E = make_c3()
        table = [list(r) for r in E.sum]
        table[2][1] = 1
        table[1][2] = 1
        broken = FiniteEffectAlgebra(3, 0, 2, tuple(tuple(r) for r in table))
        assert "Eiv" in kinds(validate(broken))

    def test_cyclic_group_breaks_the_zero_one_law_alone(self):
        # Z3 under addition, with one = 2: every sum is defined, and every
        # axiom but the zero-one law holds
        table = tuple(tuple((x + y) % 3 for y in range(3)) for x in range(3))
        E = FiniteEffectAlgebra(3, 0, 2, table)
        report = validate(E)
        assert [(v.kind, v.witness) for v in report] == [("Eiv", (1,)), ("Eiv", (2,))]
        assert report == cubic_validate(E)

    def test_zero_equals_one(self):
        E = algebra_from_sums(2, 0, 0, [])
        assert "zero-one" in kinds(validate(E))

    def test_out_of_range_is_structural(self):
        E = make_b2()
        table = [list(r) for r in E.sum]
        table[1][2] = 9
        broken = FiniteEffectAlgebra(4, 0, 3, tuple(tuple(r) for r in table))
        report = validate(broken)
        assert kinds(report) == {"structural"}

    def test_ragged_table_is_structural(self):
        E = make_b2()
        table = [list(r) for r in E.sum]
        table[2] = table[2][:3]
        broken = FiniteEffectAlgebra(4, 0, 3, tuple(tuple(r) for r in table))
        assert kinds(validate(broken)) == {"structural"}

    def test_broken_neutrality_reported(self):
        E = make_b2()
        table = [list(r) for r in E.sum]
        table[0][1] = 2
        table[1][0] = 2
        broken = FiniteEffectAlgebra(4, 0, 3, tuple(tuple(r) for r in table))
        assert "neutrality" in kinds(validate(broken))

    def test_reports_every_violation_not_first_fail(self):
        # two independent defects must both show up
        E = make_hs2()
        table = [list(r) for r in E.sum]
        table[5][1] = 1  # Eiv
        table[1][5] = 1
        table[3][4] = None  # one-sided: Ei (and Eiii fallout for 3)
        broken = FiniteEffectAlgebra(6, 0, 5, tuple(tuple(r) for r in table))
        got = kinds(validate(broken))
        assert "Eiv" in got and "Ei" in got

    def test_fixtures_and_their_one_cell_damage_match_the_cubic_scan(self):
        # every fixture, and every table made from one by setting one cell
        # (and, separately, that cell and its mirror) to any value or None
        fixtures = [make_b2(), make_c3(), make_c4(), make_e5(), make_hs2(),
                    make_hex6(),
                    load_algebra(Path(__file__).parent / "fixtures" / "stateless9.alg")]
        damaged = 0
        for E in fixtures:
            assert validate(E) == cubic_validate(E) == []
            n = E.size
            for x in range(n):
                for y in range(x, n):
                    for v in [None, *range(n)]:
                        for mirror in (False, True):
                            table = [list(r) for r in E.sum]
                            table[x][y] = v
                            if mirror:
                                table[y][x] = v
                            broken = FiniteEffectAlgebra(n, E.zero, E.one, table)
                            report = validate(broken)
                            assert report == cubic_validate(broken), (E, x, y, v)
                            damaged += report != []
        assert damaged

    @pytest.mark.parametrize("damage", [
        lambda t: t[2].pop(),                          # a short row
        lambda t: t[1].append(None),                   # a long row
        lambda t: (t[0].pop(), t[3].append(2)),        # two ragged rows
        lambda t: t[1].__setitem__(2, 4),              # out of range
        lambda t: t[3].__setitem__(0, -1),             # negative
        lambda t: t[2].__setitem__(2, 1.5),            # a float between labels
        lambda t: t[2].__setitem__(1, 3.0),            # a float equal to a label
        lambda t: t[1].__setitem__(1, True),           # a bool equal to a label
        lambda t: (t[1].__setitem__(3, 7), t[2].pop()),
    ])
    def test_structural_report_matches_the_cell_loop(self, damage):
        E = make_b2()
        table = [list(r) for r in E.sum]
        damage(table)
        broken = FiniteEffectAlgebra(4, 0, 3, tuple(tuple(r) for r in table))
        report = _structural_problems(broken)
        assert report == oracle_structural_problems(broken)
        if report:
            assert validate(broken) == cubic_validate(broken) == report

    @pytest.mark.parametrize("cells, value", [
        ([(1, 2), (2, 1)], 1.5),   # 1 + 2, both orientations
        ([(1, 2), (2, 1)], 3.0),   # equal to 1 + 2
        ([(0, 1), (1, 0)], 1.0),   # equal to 0 + 1, in zero's row and
        ([(2, 0)], 2.0),           # column, never used as an index
    ])
    def test_float_sum_is_structural(self, cells, value):
        E = boolean_algebra(2)
        table = [list(r) for r in E.sum]
        for x, y in cells:
            table[x][y] = value
        broken = FiniteEffectAlgebra(4, 0, 3, tuple(tuple(r) for r in table))
        report = validate(broken)
        assert [(v.kind, v.witness) for v in report] == [
            ("structural", (x, y, value)) for x, y in cells]
        assert f"= {value} is not an integer" in report[0].message

    @pytest.mark.parametrize("zero, one", [(0.0, 3), (0, 3.0)])
    def test_float_zero_or_one_is_structural(self, zero, one):
        broken = FiniteEffectAlgebra(4, zero, one, boolean_algebra(2).sum)
        bad = zero if isinstance(zero, float) else one
        assert [(v.kind, v.witness) for v in validate(broken)] == [
            ("structural", (bad,))]

    def test_label_count_mismatch_matches_the_cell_loop(self):
        for labels, row in [(("0", "a", "b"), [0, 1, 2, 3]),
                            (("0", "a", "b", "1", "c"), [0, 1, 2, 9])]:
            E = make_b2()
            broken = FiniteEffectAlgebra(4, 0, 3, (tuple(row),) + E.sum[1:],
                                         labels)
            assert validate(broken) == cubic_validate(broken) != []

    def test_unhashable_entry_fails_as_in_the_cell_loop(self):
        E = make_b2()
        broken = FiniteEffectAlgebra(4, 0, 3, (E.sum[0], (1, [2], 3, None))
                                     + E.sum[2:])
        with pytest.raises(TypeError):
            oracle_structural_problems(broken)
        with pytest.raises(TypeError):
            _structural_problems(broken)

    def test_512_element_product_within_one_second(self):
        E = product([boolean_algebra(3)] * 3)
        start = time.perf_counter()
        report = validate(E)
        elapsed = time.perf_counter() - start
        assert report == []
        assert elapsed < 1.0, f"{elapsed:.2f} s"


class TestOrthosupplement:
    def test_b2(self, b2):
        assert orthosupplement(b2, 1) == 2
        assert orthosupplement(b2, 2) == 1

    def test_c3_self(self, c3):
        assert orthosupplement(c3, 1) == 1

    def test_zero_maps_to_one(self, corpus):
        for E in corpus:
            assert orthosupplement(E, E.zero) == E.one
            assert orthosupplement(E, E.one) == E.zero

    def test_involution(self, corpus):
        for E in corpus:
            for x in E.elements():
                assert orthosupplement(E, orthosupplement(E, x)) == x


class TestDifference:
    def test_difference_to_top_is_orthosupplement(self, b2):
        assert difference(b2, 3, 1) == 2

    def test_c3(self, c3):
        assert difference(c3, 2, 1) == 1

    def test_x_minus_x_is_zero(self, corpus):
        for E in corpus:
            for x in E.elements():
                assert difference(E, x, x) == E.zero

    def test_not_below_raises(self, e5):
        with pytest.raises(NotBelow):
            difference(e5, 1, 2)  # a' not below a

    def test_double_difference(self, corpus):
        # y - (y - x) = x whenever x <= y
        for E in corpus:
            order = derive_order(E)
            for x in E.elements():
                for y in E.elements():
                    if order.leq(x, y):
                        assert difference(E, y, difference(E, y, x)) == x


class TestDeriveOrder:
    def test_b2_boolean_order(self, b2):
        order = derive_order(b2)
        assert order.is_lattice
        assert order.atoms == (1, 2)
        assert order.join[1][2] == 3
        assert order.meet[1][2] == 0

    def test_e5_diamond(self, e5):
        order = derive_order(e5)
        assert order.is_lattice
        assert order.atoms == (1, 2, 3)
        assert order.join[1][3] == 4
        assert order.meet[1][3] == 0

    def test_c3_chain(self, c3):
        order = derive_order(c3)
        assert order.leq(0, 1) and order.leq(1, 2)
        assert order.covers == ((0, 1), (1, 2))

    def test_bounds(self, corpus):
        for E in corpus:
            order = derive_order(E)
            for x in E.elements():
                assert order.leq(E.zero, x)
                assert order.leq(x, E.one)

    def test_join_is_least_upper_bound(self, corpus):
        # brute-force scan oracle against the stored table
        for E in corpus:
            order = derive_order(E)
            n = E.size
            for x in range(n):
                for y in range(n):
                    ubs = [u for u in range(n) if order.leq(x, u) and order.leq(y, u)]
                    least = [u for u in ubs if all(order.leq(u, v) for v in ubs)]
                    assert order.join[x][y] == (least[0] if least else None)


class TestElementOrder:
    def test_values(self, b2, c3, c4):
        assert element_order(c3, 1) == 2
        assert element_order(b2, 1) == 1
        assert element_order(c4, 1) == 3

    def test_zero_rejected(self, b2):
        with pytest.raises(ZeroElement):
            element_order(b2, 0)

    def test_always_finite_on_corpus(self, corpus):
        for E in corpus:
            for x in E.elements():
                if x != E.zero:
                    assert 1 <= element_order(E, x) < E.size


class TestOplusSum:
    def test_examples(self, b2, c3):
        assert oplus_sum(b2, [1, 2]) == 3
        assert oplus_sum(c3, [1, 1]) == 2

    def test_empty_sum_is_zero(self, corpus):
        for E in corpus:
            assert oplus_sum(E, []) == E.zero

    def test_undefined_carries_witness(self, b2):
        with pytest.raises(UndefinedSum) as info:
            oplus_sum(b2, [1, 1])
        assert info.value.partial == 1 and info.value.next == 1


class TestDerivedLaws:
    def test_cancellation(self, corpus):
        for E in corpus:
            n = E.size
            for z in range(n):
                seen = {}
                for x in range(n):
                    s = E.sum[x][z]
                    if s is not None:
                        assert s not in seen, f"{x}+{z} == {seen.get(s)}+{z}"
                        seen[s] = x

    def test_multiples_strictly_increase(self, corpus):
        for E in corpus:
            order = derive_order(E)
            for x in E.elements():
                if x == E.zero:
                    continue
                acc = x
                while True:
                    nxt = E.sum[acc][x]
                    if nxt is None:
                        break
                    assert order.leq(acc, nxt) and acc != nxt
                    acc = nxt

    def test_de_morgan_on_lattices(self, corpus):
        for E in corpus:
            order = derive_order(E)
            if not order.is_lattice:
                continue
            for x in E.elements():
                for y in E.elements():
                    j = order.join[x][y]
                    assert order.meet[E.orth[x]][E.orth[y]] == E.orth[j]

    def test_invalid_table_breaks_antisymmetry_loudly(self):
        # 1+1=2 and 2+2=1 give 1 <= 2 <= 1 with 1 != 2
        E = algebra_from_sums(3, 0, 2, [(1, 1, 2), (2, 2, 1)])
        with pytest.raises(StructuralError):
            derive_order(E)
