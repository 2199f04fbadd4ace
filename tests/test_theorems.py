"""The claim registry: per-instance checks and enumeration sweeps."""

import functools
import sys
import time
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import algebra_from_sums, make_c4, random_families
from effalg import construct, core, structure
from effalg import theorems as th
from effalg.construct import chain, horizontal_sum, product
from effalg.core import bits, derive_order
from effalg.enumeration import EnumerationConfig, enumerate_algebras
from effalg.errors import EffectAlgebraError, InternalCheckFailed, UnknownClaim
from effalg.states import find_subadditive_state
from effalg.theorems import (
    CLAIM_IDS,
    SCALE_LIMITED,
    ClaimReport,
    check,
    check_all,
    join_difference_family_holds,
    join_sum_family_holds,
    shrink_counterexample,
    statement,
    sweep,
)
import oracle_built_intervals as built_route
import oracle_cubic_claims
from oracle_cubic_claims import join_sum_pairs


class TestRegistry:
    def test_twenty_claims(self):
        assert len(CLAIM_IDS) == 20

    def test_every_claim_has_a_statement(self):
        for cid in CLAIM_IDS:
            assert statement(cid).strip()

    def test_scale_limited_notes_exist(self):
        assert len(SCALE_LIMITED) == 3
        for note in SCALE_LIMITED.values():
            assert "unsatisfiable at this scale" in note

    def test_unknown_claim(self, e5):
        with pytest.raises(UnknownClaim):
            check(e5, "nope.nothing")


class TestCheckAll:
    def test_e5_all_conclusions_hold(self, e5):
        reports = check_all(e5)
        assert len(reports) == 20
        assert not any(r.failed() for r in reports)
        met = [r for r in reports if r.hypotheses_met]
        assert len(met) == 20  # E5 satisfies every hypothesis set

    def test_hs2_unsharp_claims_unmet(self, hs2):
        reports = {r.claim_id: r for r in check_all(hs2)}
        assert not reports["state.exists_unsharp_modular"].hypotheses_met
        assert not reports["state.atom_dichotomy"].hypotheses_met
        assert not any(r.failed() for r in reports.values())

    def test_dichotomy_trace_on_e5(self, e5):
        report = check(e5, "state.atom_dichotomy")
        assert report.hypotheses_met and report.conclusion_holds

    def test_corrupted_table_reports_errors_without_crash(self):
        broken = algebra_from_sums(4, 0, 3, [(1, 2, 3), (1, 1, 3)])
        reports = check_all(broken)
        assert len(reports) == 20
        assert all(r.error for r in reports)
        assert not any(r.failed() for r in reports)

    def test_deterministic(self, e5):
        assert check_all(e5) == check_all(e5)

    def test_one_subadditive_lp_per_instance(self, monkeypatch, e5):
        import effalg.theorems as th

        solved = []

        def counted(E):
            solved.append(E)
            return find_subadditive_state(E)

        monkeypatch.setattr(th, "find_subadditive_state", counted)
        # E5 meets the hypotheses of modular.measure and of
        # state.exists_unsharp_modular, which both need its subadditive LP
        reports = {r.claim_id: r for r in check_all(e5)}
        for cid in ("modular.measure", "state.exists_unsharp_modular"):
            assert reports[cid].hypotheses_met and reports[cid].conclusion_holds
        assert solved == [e5]
        solved.clear()
        ids = ["modular.measure", "state.exists_unsharp_modular"]
        measure, exists = sweep(EnumerationConfig(size=6), ids)
        assert 0 < exists.hypotheses_met < measure.hypotheses_met
        assert len(solved) == measure.hypotheses_met
        assert len({id(E) for E in solved}) == len(solved)

    def test_top_central_element_reuses_the_instance_lp(self, monkeypatch, e5):
        import effalg.states as st
        import effalg.theorems as th

        solved = []

        def counted(E):
            solved.append(E.size)
            return find_subadditive_state(E)

        monkeypatch.setattr(th, "find_subadditive_state", counted)
        monkeypatch.setattr(st, "find_subadditive_state", counted)
        # E5's only qualifying central element is its top: the lift through
        # it is E5's own subadditive state, which the other claims solved
        report = {r.claim_id: r for r in check_all(e5)}["state.from_central_element"]
        assert report.hypotheses_met and report.conclusion_holds
        assert solved == [5]
        solved.clear()
        ids = ["modular.measure", "state.from_central_element"]
        measure, central = sweep(EnumerationConfig(size=6), ids)
        assert central.hypotheses_met
        # one solve per lattice instance; a smaller central interval has
        # its own
        assert solved.count(6) == measure.hypotheses_met

    def test_top_central_element_fails_as_the_lift_does(self, monkeypatch):
        import effalg.states as st
        import effalg.theorems as th
        from effalg.construct import chain

        # with no subadditive state found, c = 1 (chain(3)'s only nonzero
        # central element) reports the error the lift through it raises
        monkeypatch.setattr(th, "find_subadditive_state", lambda E: None)
        monkeypatch.setattr(st, "find_subadditive_state", lambda E: None)
        E = chain(3)
        with pytest.raises(EffectAlgebraError) as lift:
            st.state_from_central_finite(E, E.one)
        report = check(E, "state.from_central_element")
        assert report.hypotheses_met and not report.conclusion_holds
        assert report.witness == (E.one, repr(lift.value))

    def test_sharp_hat_checks_modularity_once(self):
        E = product([horizontal_sum([chain(2)] * 3), chain(7)])
        calls = []

        def profile(frame, event, arg):
            # every run of is_modular's body, by whatever name the caller
            # holds it; a cached result runs none
            if (event == "call"
                    and frame.f_code is structure.is_modular.__wrapped__.__code__):
                calls.append(frame.f_locals["E"].size)

        sys.setprofile(profile)
        try:
            report = check(E, "sharp.hat_formula")
        finally:
            sys.setprofile(None)
        # the claim's modular hypothesis is the one check
        assert calls == [40]
        hypotheses = (("lattice", True), ("modular", True),
                      ("archimedean", True), ("atomic", True))
        assert report == ClaimReport("sharp.hat_formula",
                                     statement("sharp.hat_formula"), True,
                                     hypotheses, True, None)

    def test_sharp_hat_fails_where_the_scan_disagrees(self, monkeypatch):
        E = product([horizontal_sum([chain(2)] * 3), chain(2)])
        scan = structure.smallest_sharp_over
        x = 3   # nonzero, so its smallest sharp upper bound is not zero
        assert scan(E, x) != E.zero
        monkeypatch.setattr(structure, "smallest_sharp_over",
                            lambda A, y: A.zero if y == x else scan(A, y))
        report = check(E, "sharp.hat_formula")
        assert report.hypotheses_met and not report.conclusion_holds
        assert report.witness[0] == x
        assert "InternalCheckFailed" in report.witness[1]

    def test_central_split_builds_no_product(self):
        E = product([horizontal_sum([chain(2)] * 3), chain(3), chain(2)])
        watched = {construct.product.__code__,
                   structure.center.__wrapped__.__code__,
                   structure.compatibility_center.__wrapped__.__code__}
        calls, validated = [], []

        def profile(frame, event, arg):
            if event != "call":
                return
            if frame.f_code in watched:
                calls.append(frame.f_code.co_name)
            elif frame.f_code is core.validate.__code__:
                validated.append(frame.f_locals["E"].size)

        sys.setprofile(profile)
        try:
            report = check(E, "state.from_central_element")
        finally:
            sys.setprofile(None)
        # the split is checked on E's own table: no rebuilt 60-element
        # product, and no block search for the center
        assert calls == []
        assert validated and E.size not in validated
        hypotheses = (("lattice", True), ("archimedean", True),
                      ("atomic", True),
                      ("qualifying central element exists", True))
        assert report == ClaimReport(
            "state.from_central_element",
            statement("state.from_central_element"), True, hypotheses,
            True, None)

    def test_central_intervals_are_built_and_tested_once(self):
        E = product([horizontal_sum([chain(2)] * 3), chain(3), chain(2)])
        built, tested = [], []

        def profile(frame, event, arg):
            if event != "call":
                return
            if frame.f_code is construct.interval.__code__:
                built.append(frame.f_locals["b"])
            elif frame.f_code is structure.is_modular.__wrapped__.__code__:
                tested.append(frame.f_locals["E"])

        sys.setprofile(profile)
        try:
            report = check(E, "state.from_central_element")
        finally:
            sys.setprofile(None)
        assert report.hypotheses_met and report.conclusion_holds
        # the hypothesis builds [0, c] and tests its modularity; the lift
        # takes both from it
        assert built and len(built) == len(set(built))
        assert len(tested) == len({id(S) for S in tested}) == len(built) + 1

    def test_only_central_intervals_are_built(self, monkeypatch):
        def build():
            return product([horizontal_sum([chain(2)] * 3), chain(3)])

        E = build()
        built = []

        def counted(A, a, b):
            built.append((A, a, b))
            return interval(A, a, b)

        interval = th.interval
        monkeypatch.setattr(th, "interval", counted)
        # a copy, since E keeps what its claims derive
        alone = [check(build(), cid) for cid in CLAIM_IDS]
        built.clear()
        assert check_all(E) == alone
        # check_all builds [0, c] once for each qualifying central c != 1,
        # whose LP state.from_central_element solves, and nothing else:
        # the other intervals [0, z] and the blocks are read off E's order.
        # E is modular, so every nonzero central c qualifies.
        got = sorted(b for _, _, b in built)
        assert all(A is E and a == E.zero for A, a, _ in built)
        central = [c for c in structure.center_by_identity(E)
                   if c not in (E.zero, E.one)]
        assert got == central and len(central) == 2

    def test_each_hypothesis_once_per_instance(self):
        def build():
            return product([horizontal_sum([chain(2)] * 3), chain(3), chain(2)])

        E = build()
        assert E.size == 60
        calls = []
        body = structure.is_modular.__wrapped__.__code__

        def profile(frame, event, arg):
            if (event == "call" and frame.f_code is body
                    and frame.f_locals["E"] is E):
                calls.append(frame.f_code.co_name)

        # a copy, since E keeps what its claims derive
        alone = [check(build(), cid) for cid in CLAIM_IDS]
        sys.setprofile(profile)
        try:
            reports = check_all(E)
        finally:
            sys.setprofile(None)
        # thirteen claims name the modular hypothesis; E's verdict is computed
        # once, while the intervals [0, c] get their own calls
        assert calls == ["is_modular"]
        assert reports == alone

    def test_check_all_derives_each_structure_once(self):
        E = product([HS, chain(3), chain(2)])
        sharp = structure.sharp_mask(E)
        adjacency = structure.compatibility_adjacency.__wrapped__.__code__
        calls = []

        def profile(frame, event, arg):
            if event != "call":
                return
            code = frame.f_code
            if code is adjacency and frame.f_locals["E"] is E:
                calls.append("adjacency")
            elif code is structure._max_cliques.__code__:
                calls.append("block search")
            elif code is structure.is_sub_effect_algebra.__code__:
                sub = frame.f_locals["sub"]
                if sub.parent is E and sub.mask == sharp:
                    calls.append("sharp closure")

        sys.setprofile(profile)
        try:
            reports = check_all(E)
        finally:
            sys.setprofile(None)
        assert not any(r.failed() for r in reports)
        # center.identity, atomic.from_archimedean_block and sharp.hat_formula
        # read them; the intervals [0, c] have graphs of their own
        assert sorted(calls) == ["adjacency", "block search", "sharp closure"]

    def test_kept_structure_leaves_equality_alone(self):
        def build():
            return product([HS, chain(3), chain(2)])

        E = build()
        check_all(E)
        fresh = build()
        assert E == fresh and hash(E) == hash(fresh)
        assert {E: 1}[fresh] == 1
        assert isinstance(structure.blocks(E), tuple)
        assert structure.blocks(E) is structure.blocks(E)
        assert structure.blocks(E) == structure.blocks(fresh)

    def test_conclusion_none_iff_hypotheses_unmet(self, corpus):
        for E in corpus:
            for r in check_all(E):
                if r.error is None:
                    assert r.hypotheses_met == (r.conclusion_holds is not None)


@pytest.fixture(scope="module")
def sweeps():
    """Every claim swept once over each of sizes 5 and 6."""
    return {n: {r.claim_id: r for r in sweep(EnumerationConfig(size=n), CLAIM_IDS)}
            for n in (5, 6)}


class TestSweeps:
    @pytest.mark.parametrize("cid", CLAIM_IDS)
    def test_all_claims_hold_up_to_six(self, sweeps, cid):
        for n in (5, 6):
            res = sweeps[n][cid]
            assert res.passed, (cid, n, res.counterexample)

    def test_sweep_reports_counts(self):
        [res] = sweep(EnumerationConfig(size=5), ["center.identity"])
        assert res.checked == 4
        assert 0 < res.hypotheses_met <= res.checked

    def test_sweep_unknown_claim(self):
        with pytest.raises(UnknownClaim):
            sweep(EnumerationConfig(size=4), ["center.identity", "bogus"])

    def test_failing_claim_stops_alone(self, monkeypatch):
        import effalg.theorems as th

        fake = th._Claim("always fails", (), lambda E: (False, ("boom",)))
        monkeypatch.setitem(th._REGISTRY, "test.fake", fake)
        ids = ["center.identity", "test.fake", "modular.measure"]
        results = sweep(EnumerationConfig(size=5), ids)
        assert [r.claim_id for r in results] == ids
        before, failed, after = results
        assert not failed.passed and failed.counterexample is not None
        assert (failed.checked, failed.hypotheses_met) == (1, 1)
        assert before.passed and after.passed
        assert before.checked == after.checked == 4

    def test_internal_alarm_fails_the_claim(self, monkeypatch, e5):
        import effalg.theorems as th

        def alarm(E):
            raise InternalCheckFailed("solver state fails verification")

        monkeypatch.setattr(th, "find_subadditive_state", alarm)
        cid = "state.exists_unsharp_modular"
        report = check(e5, cid)
        assert report.failed() and report.error is None
        assert report.witness == ("internal-check",
                                  "solver state fails verification")
        [res] = sweep(EnumerationConfig(size=5), [cid])
        assert not res.passed and res.counterexample is not None


class TestShrink:
    def test_passing_instance_is_returned_unchanged(self, e5):
        assert shrink_counterexample(e5, "center.identity") is e5

    def test_shrinks_to_smallest_failing_interval(self, monkeypatch):
        import effalg.theorems as th

        fake = th._Claim("fails on anything with three or more elements",
                         (), lambda E: (E.size < 3, (E.size,)))
        monkeypatch.setitem(th._REGISTRY, "test.fake", fake)
        small = shrink_counterexample(make_c4(), "test.fake")
        assert small.size == 3


class TestFamilyHelpers:
    def test_join_difference_on_random_families(self, corpus):
        from effalg.core import derive_order
        for E in corpus:
            order = derive_order(E)
            if not order.is_lattice:
                continue
            for fam, a in random_families(E, 200):
                if all(order.leq(a, b) for b in fam):
                    assert join_difference_family_holds(E, fam, a)

    def test_join_sum_on_random_families(self, corpus):
        for E in corpus:
            for fam, b in random_families(E, 200):
                assert join_sum_family_holds(E, fam, b)

    def test_families_are_seed_deterministic(self, e5):
        assert random_families(e5, 50) == random_families(e5, 50)
        assert random_families(e5, 50, seed=1) != random_families(e5, 50, seed=2)


HS = horizontal_sum([chain(2)] * 3)
JOIN_SUM = "sum.distributes_over_join"


@functools.cache
def small_classes(max_n):
    """Every class of sizes 2 to max_n, in enumeration order."""
    return [E for n in range(2, max_n + 1)
            for E in enumerate_algebras(EnumerationConfig(size=n))]


def below_orth(E, b):
    """The members of [0, b'], ascending."""
    return list(bits(derive_order(E).down[E.orth[b]]))


class TestJoinSumScan:
    """sum.distributes_over_join tests the families inside each [0, b'];
    the cubic scan over every family (tests/oracle_cubic_claims.py) must
    reach the same report."""

    def test_same_reports_as_the_cubic_scan(self, monkeypatch):
        instances = small_classes(9) + [product([HS, chain(7)]),
                                        product([HS, chain(3), chain(2)])]
        reports = [check(E, JOIN_SUM) for E in instances]
        cubic = replace(th._REGISTRY[JOIN_SUM], conclusion=join_sum_pairs)
        monkeypatch.setitem(th._REGISTRY, JOIN_SUM, cubic)
        assert reports == [check(E, JOIN_SUM) for E in instances]
        assert all(r.hypotheses_met and r.conclusion_holds for r in reports)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_injected_failures_give_the_same_witness(self, data):
        E = data.draw(st.sampled_from(
            small_classes(8) + [product([HS, chain(2)])]))
        faults = set()
        for _ in range(data.draw(st.integers(1, 3))):
            b = data.draw(st.sampled_from(range(E.size)))
            below = below_orth(E, b)
            # triples are scanned up to 8 elements only
            sizes = [k for k in (2, 3)
                     if len(below) >= k and (k == 2 or E.size <= 8)]
            assume(sizes)
            k = data.draw(st.sampled_from(sizes))
            family = data.draw(st.lists(st.sampled_from(below), min_size=k,
                                        max_size=k, unique=True))
            faults.add(tuple(sorted(family)) + (b,))
        holds = th.join_sum_family_holds

        def faulty(E, fam, c):
            return tuple(fam) + (c,) not in faults and holds(E, fam, c)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(th, "join_sum_family_holds", faulty)
            mp.setattr(oracle_cubic_claims, "join_sum_family_holds", faulty)
            got = th._join_sum_pairs(E)
            assert got == join_sum_pairs(E)
        # with several faults, the first in the scan's order is reported
        assert not got[0] and got[1] in faults

    def test_families_outside_the_orthosupplement_hold(self):
        families = 0
        for E in small_classes(8):
            for b in E.elements():
                inside = set(below_orth(E, b))
                for k in (2, 3):
                    for fam in combinations(E.elements(), k):
                        if not inside.issuperset(fam):
                            assert join_sum_family_holds(E, list(fam), b)
                            families += 1
        assert families

    def test_hs200_within_bound(self):
        E = product([HS, chain(3), chain(9)])
        assert E.size == 200
        t0 = time.perf_counter()
        report = check(E, JOIN_SUM)
        elapsed = time.perf_counter() - t0
        assert report.hypotheses_met and report.conclusion_holds
        # on a 2-core machine the cubic scan took 1.8-3.0 s and the scan
        # inside [0, b'] takes about 0.3 s
        assert elapsed < 1.5, f"{elapsed:.2f} s"


class TestBuiltIntervalOracle:
    """The claims read [0, z] and the blocks off E's own order; building
    each as an algebra (tests/oracle_built_intervals.py) must give the same
    verdicts and witnesses on lattice instances."""

    @pytest.fixture(scope="class")
    def lattices(self):
        classes = [E for E in small_classes(9) if derive_order(E).is_lattice]
        assert len(classes) == 89
        return classes + [product([HS, chain(7)]),
                          product([HS, chain(3), chain(2)])]

    def test_interval_claims(self, lattices, monkeypatch):
        intervals = 0
        for E in lattices:
            compact = sum(1 << u for u in th._compact_set(E))
            for mask in (structure.finite_elements(E).mask, compact):
                assert (th._atomic_below_joins(E, mask)
                        == built_route.atomic_below_joins(E, mask)
                        == (True, None))
            assert (th._finite_interval_complete(E)
                    == built_route.finite_interval_complete(E) == (True, None))
            # one interval at a time: the join of {z} below z is z alone,
            # and finite.interval_complete reads one finite element
            for z in E.elements():
                if z == E.zero:
                    continue
                intervals += 1
                assert (th._atomic_below_joins(E, 1 << z)
                        == built_route.atomic_below_joins(E, 1 << z))
                with monkeypatch.context() as mp:
                    one = lambda A: structure.ElementSubset(A, 1 << z)
                    for module in (th, built_route):
                        mp.setattr(module, "finite_elements", one)
                    assert (th._finite_interval_complete(E)
                            == built_route.finite_interval_complete(E))
        assert intervals == sum(E.size - 1 for E in lattices)

    def test_atomic_intervals_on_every_class(self):
        # atomicity of [0, z] needs no joins, so non-lattices are read too
        intervals = 0
        for E in small_classes(9):
            for z in E.elements():
                if z != E.zero:
                    intervals += 1
                    assert (th._atomic_below_joins(E, 1 << z)
                            == built_route.atomic_below_joins(E, 1 << z))
        assert intervals == 922

    def test_block_hypothesis(self, lattices, monkeypatch):
        seen = 0
        for E in lattices:
            blist = structure.blocks(E)
            verdicts = [built_route.block_archimedean_atomic(E, b)
                        for b in blist]
            assert th._h_some_block_archimedean_atomic(E) == any(verdicts)
            # one block at a time
            for blk, verdict in zip(blist, verdicts):
                seen += 1
                with monkeypatch.context() as mp:
                    mp.setattr(th, "blocks", lambda A: [blk])
                    assert th._h_some_block_archimedean_atomic(E) == verdict
        assert seen == 258 + 3 + 3
