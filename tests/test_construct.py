"""Constructors compared against the hand-built oracle tables."""

import pytest

from conftest import make_b2, make_c3, make_c4, make_e5, make_hs2
from effalg.construct import (
    boolean_algebra,
    build,
    central_decomposition,
    chain,
    horizontal_sum,
    interval,
    parse_construction,
    product,
)
from effalg.core import bits, derive_order, is_valid, validate
from effalg.errors import (
    EmptyInterval,
    NotCentral,
    PartTooSmall,
    SizeOverflow,
    StructuralError,
)
from effalg.structure import blocks, center, classify, compatible, sharp_elements


class TestBoolean:
    def test_two_element(self):
        E = boolean_algebra(1)
        assert E.size == 2 and E.sum[0][1] == 1 and E.sum[1][1] is None

    def test_b2_matches_hand_table(self):
        assert boolean_algebra(2).sum == make_b2().sum

    def test_b3_shape(self):
        E = boolean_algebra(3)
        assert E.size == 8
        assert derive_order(E).atoms == (1, 2, 4)
        flags = classify(E)
        assert flags.is_orthomodular and flags.is_mv

    def test_guards(self):
        with pytest.raises(StructuralError):
            boolean_algebra(0)
        with pytest.raises(SizeOverflow):
            boolean_algebra(21)


class TestChain:
    def test_c3_matches_hand_table(self):
        assert chain(2).sum == make_c3().sum

    def test_trivial_chain(self):
        assert chain(1).size == 2

    def test_c4_sharp_set(self):
        E = chain(3)
        assert E.sum == make_c4().sum
        assert tuple(bits(sharp_elements(E))) == (0, 3)

    def test_mv_not_oml(self):
        flags = classify(chain(2))
        assert flags.is_mv and not flags.is_orthomodular


class TestHorizontalSum:
    def test_e5_matches_hand_table(self):
        E = horizontal_sum([boolean_algebra(2), chain(2)])
        assert E.size == 5
        assert E.sum == make_e5().sum

    def test_hs2_matches_hand_table(self):
        E = horizontal_sum([boolean_algebra(2), boolean_algebra(2)])
        assert E.size == 6
        assert E.sum == make_hs2().sum

    def test_singleton_is_identity(self):
        E = boolean_algebra(2)
        assert horizontal_sum([E]) is E

    def test_two_element_part_acts_as_identity(self):
        E = horizontal_sum([boolean_algebra(2), boolean_algebra(1)])
        assert E.sum == make_b2().sum

    def test_cross_part_pairs(self):
        E = horizontal_sum([boolean_algebra(2), chain(2)])
        order = derive_order(E)
        assert not compatible(E, 1, 3)
        assert order.meet[1][3] == 0 and order.join[1][3] == 4

    def test_sharp_set_is_glued_union(self):
        E = horizontal_sum([boolean_algebra(2), chain(2)])
        assert tuple(bits(sharp_elements(E))) == (0, 1, 2, 4)

    def test_labels_carry_part_prefix(self):
        E = horizontal_sum([boolean_algebra(2), chain(2)])
        assert E.labels == ("0", "p0.a", "p0.b", "p1.a", "1")

    def test_degenerate_part_rejected(self):
        from effalg.core import FiniteEffectAlgebra
        degenerate = FiniteEffectAlgebra(1, 0, 0, ((0,),))
        with pytest.raises(PartTooSmall):
            horizontal_sum([boolean_algebra(2), degenerate])


class TestProduct:
    def test_b2_times_c3(self):
        E = product([boolean_algebra(2), chain(2)])
        assert E.size == 12
        assert is_valid(E)

    def test_product_with_unit(self):
        X = chain(2)
        E = product([X, boolean_algebra(1)])
        assert E.size == 2 * X.size
        assert is_valid(E)

    def test_c3_squared_is_mv(self):
        E = product([chain(2), chain(2)])
        assert classify(E).is_mv
        assert len(blocks(E)) == 1

    def test_mv_iff_all_factors_mv(self):
        E = product([horizontal_sum([boolean_algebra(2), chain(2)]), chain(2)])
        assert not classify(E).is_mv

    def test_center_contains_coordinate_units(self):
        E = product([boolean_algebra(2), chain(2)])
        cen = center(E)
        assert cen >> 9 & 1  # (1, 0)
        assert cen >> 2 & 1  # (0, 1)

    def test_size_cap(self):
        with pytest.raises(SizeOverflow):
            product([boolean_algebra(4)] * 4)


class TestSizeCap:
    @pytest.mark.parametrize("make", [
        lambda: boolean_algebra(13),
        lambda: chain(4096),
        lambda: horizontal_sum([chain(3)] * 2048),  # 4098 elements
    ], ids=["boolean", "chain", "horizontal-sum"])
    def test_every_constructor_stops_at_the_cap(self, make):
        with pytest.raises(SizeOverflow):
            make()


class TestInterval:
    def test_full_interval_is_the_algebra(self, e5):
        sub = interval(e5, 0, 4)
        assert sub.sum == e5.sum and sub.zero == e5.zero and sub.one == e5.one

    def test_chain_prefix(self):
        sub = interval(chain(3), 0, 2)
        assert sub.sum == chain(2).sum

    def test_upper_interval_of_boolean(self):
        B3 = boolean_algebra(3)
        sub = interval(B3, 1, 7)
        assert sub.size == 4
        assert derive_order(sub).atoms == tuple(
            i for i, x in enumerate([1, 3, 5, 7]) if x in (3, 5))
        assert classify(sub).is_orthomodular

    def test_degenerate_rejected(self, e5):
        with pytest.raises(EmptyInterval):
            interval(e5, 2, 2)


class TestCentralDecomposition:
    def test_inverse_of_product(self):
        E = product([boolean_algebra(2), chain(2)])
        iso = central_decomposition(E, 9)  # (1, 0)
        assert interval(E, E.zero, 9).size == 4 and len({j for _, j in iso}) == 3
        assert sorted(iso) == [(i, j) for i in range(4) for j in range(3)]

    def test_non_central_rejected(self, e5):
        with pytest.raises(NotCentral):
            central_decomposition(e5, 1)

    def test_trivial_split_rejected(self, e5):
        with pytest.raises(NotCentral):
            central_decomposition(e5, 4)

    def test_boolean_split(self):
        B3 = boolean_algebra(3)
        iso = central_decomposition(B3, 1)
        assert {interval(B3, B3.zero, 1).size, len({j for _, j in iso})} == {2, 4}


class TestSpecLanguage:
    def test_parse_and_build_e5(self):
        spec = parse_construction("horizontal_sum(boolean(2), chain(2))")
        assert build(spec).sum == make_e5().sum

    def test_parse_interval_with_labels(self):
        spec = parse_construction("interval(chain(3), 0, 2a)")
        assert build(spec).sum == chain(2).sum

    def test_nested_product(self):
        spec = parse_construction("product(chain(2), chain(2))")
        E = build(spec)
        assert E.size == 9

    def test_roundtrip_str(self):
        text = "horizontal_sum(boolean(2), chain(2))"
        assert str(parse_construction(text)) == text

    def test_parse_errors(self):
        for bad in ("boolean(x)", "widget(2)", "boolean(2", "chain(2) extra"):
            with pytest.raises(StructuralError):
                parse_construction(bad)

    def test_unknown_label_rejected(self):
        spec = parse_construction("interval(chain(3), 0, nope)")
        with pytest.raises(StructuralError):
            build(spec)


class TestConstructedValidity:
    def test_every_constructor_output_validates(self):
        outputs = [
            boolean_algebra(3),
            chain(5),
            horizontal_sum([chain(3), chain(2), boolean_algebra(2)]),
            product([chain(2), boolean_algebra(2)]),
            interval(chain(5), 1, 4),
        ]
        for E in outputs:
            assert validate(E) == []
