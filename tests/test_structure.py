"""Sharp elements, compatibility, blocks, centers, and the classifier."""

import pytest

from conftest import algebra_from_sums
from effalg.construct import chain, horizontal_sum, product
from effalg.core import bits, derive_order, orthosupplement
from effalg.enumeration import EnumerationConfig, enumerate_algebras
from effalg.errors import (HypothesisViolated, MeetUndefined, NotInSection,
                           NotLattice)
from effalg.structure import (
    atom_decomposition,
    blocks,
    center,
    classify,
    compatibility_center,
    compatible,
    greatest_sharp_under,
    is_archimedean,
    is_atomic,
    is_modular,
    is_modular_below,
    mv_identity_holds,
    section_involution,
    sharp_elements,
    sharp_hat_formula,
    sharp_mask,
    smallest_sharp_over,
)
import oracle_built_intervals as built_route


class TestSharpElements:
    def test_e5(self, e5):
        assert tuple(bits(sharp_elements(e5))) == (0, 1, 2, 4)

    def test_boolean_all_sharp(self, b2):
        assert tuple(bits(sharp_elements(b2))) == (0, 1, 2, 3)

    def test_c4_only_bounds(self, c4):
        assert tuple(bits(sharp_elements(c4))) == (0, 3)

    def test_closed_under_orth(self, corpus):
        for E in corpus:
            S = sharp_elements(E)
            for x in bits(S):
                assert S >> orthosupplement(E, x) & 1

    def test_missing_meet_is_reported_at_its_element(self):
        # the one size-8 class with a missing x meet x': 1 and 2 = 1' are
        # unsharp with meet 1, while 3 and 4 = 3' have no meet
        E = algebra_from_sums(8, 0, 7, [
            (1, 1, 3), (1, 2, 7), (1, 3, 5), (1, 4, 2), (1, 6, 4),
            (3, 4, 7), (3, 6, 2), (4, 6, 5), (5, 6, 7), (6, 6, 3)])
        assert sharp_mask(E) == 0b10000001
        with pytest.raises(MeetUndefined) as info:
            sharp_elements(E)
        assert info.value.element == 3


class TestCompatible:
    def test_cross_part_incompatible(self, e5):
        assert not compatible(e5, 1, 3)

    def test_orthogonal_pairs_compatible(self, b2):
        assert compatible(b2, 1, 2)

    def test_zero_compatible_with_all(self, corpus):
        for E in corpus:
            for x in E.elements():
                assert compatible(E, x, E.zero)
                assert compatible(E, x, x)

    def test_comparable_implies_compatible(self, corpus):
        for E in corpus:
            order = derive_order(E)
            for x in E.elements():
                for y in E.elements():
                    if order.leq(x, y):
                        assert compatible(E, x, y)


class TestBlocks:
    def test_e5_two_blocks(self, e5):
        got = [tuple(bits(b)) for b in blocks(e5)]
        assert got == [(0, 1, 2, 4), (0, 3, 4)]

    def test_boolean_single_block(self, b2):
        got = blocks(b2)
        assert len(got) == 1 and tuple(bits(got[0])) == (0, 1, 2, 3)

    def test_hs2_two_boolean_blocks(self, hs2):
        got = [tuple(bits(b)) for b in blocks(hs2)]
        assert got == [(0, 1, 2, 5), (0, 3, 4, 5)]

    def test_union_covers(self, corpus):
        for E in corpus:
            united = 0
            for b in blocks(E):
                united |= b
            assert united == (1 << E.size) - 1

    def test_every_class_up_to_nine(self):
        # a maximal compatible set is a sub-effect algebra only in a
        # lattice; on 1 / 4 / 13 non-lattices of sizes 7 / 8 / 9 it is not,
        # which is no internal fault
        classes = 0
        for n in range(2, 10):
            for E in enumerate_algebras(EnumerationConfig(size=n)):
                classes += 1
                inter = (1 << E.size) - 1
                for b in blocks(E):
                    inter &= b
                assert compatibility_center(E) == inter
        assert classes == 133


class TestCenters:
    def test_e5_trivial(self, e5):
        assert tuple(bits(compatibility_center(e5))) == (0, 4)
        assert tuple(bits(center(e5))) == (0, 4)

    def test_boolean_is_its_own_center(self, b2):
        assert tuple(bits(compatibility_center(b2))) == (0, 1, 2, 3)
        assert tuple(bits(center(b2))) == (0, 1, 2, 3)

    def test_chain_fully_compatible_but_center_trivial(self, c4):
        assert tuple(bits(compatibility_center(c4))) == (0, 1, 2, 3)
        assert tuple(bits(center(c4))) == (0, 3)

    def test_center_identity_on_corpus(self, corpus):
        for E in corpus:
            cen = center(E)
            other = compatibility_center(E) & sharp_elements(E)
            assert cen == other


class TestModularity:
    def test_e5_modular_not_distributive(self, e5):
        assert is_modular(e5)
        flags = classify(e5)
        assert not flags.is_distributive
        x, y, z = flags.is_distributive.witness
        order = derive_order(e5)
        assert order.meet[x][order.join[y][z]] != \
            order.join[order.meet[x][y]][order.meet[x][z]]

    def test_boolean_distributive(self, b2):
        flags = classify(b2)
        assert flags.is_modular and flags.is_distributive


class TestModularBelowOracle:
    """is_modular_below reads [0, z] off E's order; building [0, z]
    (tests/oracle_built_intervals.py) gives the same verdict and the same
    witness triple, relabeled to E's elements."""

    def test_every_interval_of_the_small_lattices(self):
        seen = failing = 0
        for n in range(2, 11):
            for E in enumerate_algebras(EnumerationConfig(size=n)):
                if not derive_order(E).is_lattice:
                    continue
                for z in E.elements():
                    if z != E.zero:
                        got = is_modular_below(E, z)
                        assert got == built_route.modular_below(E, z)
                        seen += 1
                        failing += not got
        assert (seen, failing) == (1168, 114)

    def test_constructions(self):
        n5 = horizontal_sum([chain(3), chain(2)])
        hs40 = product([horizontal_sum([chain(2)] * 3), chain(7)])
        # N5 x 2 fails at [0, (1,0)], which is N5, and at the top
        for E, failing in ((product([n5, chain(1)]), 2), (hs40, 0)):
            got = [is_modular_below(E, z) for z in E.elements() if z != E.zero]
            assert got == [built_route.modular_below(E, z)
                           for z in E.elements() if z != E.zero]
            assert sum(not m for m in got) == failing


class TestSharpBounds:
    def test_e5_unsharp_atom(self, e5):
        assert smallest_sharp_over(e5, 3) == 4
        assert greatest_sharp_under(e5, 3) == 0

    def test_sharp_elements_are_their_own_hats(self, b2):
        for x in b2.elements():
            assert smallest_sharp_over(b2, x) == x

    def test_non_lattice_bounds_still_work(self, hex6):
        # S(hex6) = {0, 1}, so the hat of any nonzero element is the top
        for x in hex6.elements():
            if x != 0:
                assert smallest_sharp_over(hex6, x) == 5
            assert greatest_sharp_under(hex6, x) in (0, 5)


class TestHatFormula:
    def test_e5(self, e5):
        assert sharp_hat_formula(e5, 3) == 4

    def test_b2(self, b2):
        assert sharp_hat_formula(b2, 1) == 1

    def test_c4(self, c4):
        assert sharp_hat_formula(c4, 1) == 3
        assert atom_decomposition(c4, 2) == [(1, 2)]

    def test_agreement_everywhere_on_corpus(self, corpus):
        for E in corpus:
            if not derive_order(E).is_lattice or not is_modular(E):
                continue
            for x in E.elements():
                assert sharp_hat_formula(E, x) == smallest_sharp_over(E, x)

    def test_formula_checks_modularity(self):
        lattices = enumerate_algebras(EnumerationConfig(size=5, lattice_only=True))
        non_modular = next(E for E in lattices if not is_modular(E))
        with pytest.raises(HypothesisViolated):
            sharp_hat_formula(non_modular, 1)
        non_lattice = next(E for E in enumerate_algebras(EnumerationConfig(size=6))
                           if not derive_order(E).is_lattice)
        with pytest.raises(NotLattice):
            sharp_hat_formula(non_lattice, 1)


class TestSectionInvolution:
    def test_bottom_section_is_orthosupplement(self, corpus):
        for E in corpus:
            for x in E.elements():
                assert section_involution(E, E.zero, x) == orthosupplement(E, x)

    def test_c4_fixed_point(self, c4):
        assert section_involution(c4, 1, 2) == 2

    def test_top_of_section(self, e5):
        assert section_involution(e5, 3, 4) == 3
        assert section_involution(e5, 3, 3) == 4

    def test_outside_section_rejected(self, e5):
        with pytest.raises(NotInSection):
            section_involution(e5, 1, 3)

    def test_involution_and_antitone_on_all_sections(self, corpus):
        for E in corpus:
            order = derive_order(E)
            for a in E.elements():
                sec = [x for x in E.elements() if order.leq(a, x)]
                img = {x: section_involution(E, a, x) for x in sec}
                for x in sec:
                    assert img[img[x]] == x
                    for y in sec:
                        if order.leq(x, y):
                            assert order.leq(img[y], img[x])
                assert img[E.one] == a and img[a] == E.one


class TestNonLattice:
    def test_hexagon_is_valid_but_not_a_lattice(self, hex6):
        order = derive_order(hex6)
        assert not order.is_lattice
        assert order.join[1][2] is None  # a and b: minimal uppers c, d
        assert order.meet[3][4] is None

    def test_hexagon_flags(self, hex6):
        flags = classify(hex6)
        assert not flags.is_lattice
        assert not flags.is_mv
        assert flags.is_atomic and flags.is_archimedean

    def test_hexagon_sharp_set(self, hex6):
        assert tuple(bits(sharp_elements(hex6))) == (0, 5)


class TestClassify:
    def test_b2(self, b2):
        flags = classify(b2)
        assert flags.is_orthomodular and flags.is_mv

    def test_e5(self, e5):
        flags = classify(e5)
        assert not flags.is_orthomodular
        assert not flags.is_mv
        assert flags.is_modular
        assert flags.is_atomic and flags.is_archimedean

    def test_c4(self, c4):
        flags = classify(c4)
        assert not flags.is_orthomodular
        assert flags.is_mv

    def test_hs2_oml_not_mv(self, hs2):
        flags = classify(hs2)
        assert flags.is_orthomodular
        assert not flags.is_mv

    def test_witness_present_iff_false(self, corpus):
        for E in corpus:
            flags = classify(E)
            for name in ("is_lattice", "is_modular", "is_distributive",
                         "is_orthomodular", "is_mv", "is_sharply_dominating",
                         "is_atomic", "is_archimedean"):
                flag = getattr(flags, name)
                assert flag.holds == (flag.witness is None)

    def test_atomic_and_archimedean_match_the_flags(self, corpus, hex6):
        for E in corpus + [hex6]:
            flags = classify(E)
            assert tuple(is_atomic(E)) == tuple(flags.is_atomic)
            assert tuple(is_archimedean(E)) == tuple(flags.is_archimedean)

    def test_cycling_multiples_are_the_archimedean_witness(self):
        # a corrupt table with b + b = b: the multiples of b never end
        E = algebra_from_sums(3, 0, 2, [(1, 1, 1)])
        assert tuple(is_archimedean(E)) == (False, (1,))

    def test_mv_witness_is_incompatible_pair(self, e5, hs2):
        for E in (e5, hs2):
            x, y = classify(E).is_mv.witness
            assert not compatible(E, x, y)

    def test_mv_iff_difference_identity(self, corpus):
        for E in corpus:
            if derive_order(E).is_lattice:
                assert classify(E).is_mv.holds == mv_identity_holds(E).holds
