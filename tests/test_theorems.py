"""The claim registry: per-instance checks and enumeration sweeps."""

import functools
import gc
import sys
import time
import types
import weakref
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import algebra_from_sums, make_c4, random_families
from effalg import construct, core, enumeration, structure
from effalg import theorems as th
from effalg.construct import boolean_algebra, chain, horizontal_sum, product
from effalg.core import bits, derive_order
from effalg.enumeration import (EnumerationConfig, canonical_key,
                                enumerate_algebras)
from effalg.errors import (BudgetExceeded, EffectAlgebraError,
                           InternalCheckFailed, StructuralError, UnknownClaim)
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
import oracle_fraction_check
from oracle_cubic_claims import join_difference_triples, join_sum_pairs


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

    def test_central_decomposition_builds_no_product(self):
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
        hs = product([horizontal_sum([chain(2)] * 3), chain(3), chain(2)])
        n5_times_2 = product([horizontal_sum([chain(3), chain(2)]), chain(1)])
        conclusion = th._state_from_central.__code__
        for E in (hs, n5_times_2):
            built, scanned = [], []

            def profile(frame, event, arg):
                if event != "call":
                    return
                if frame.f_code is construct.interval.__code__:
                    caller = frame.f_back
                    while caller is not None and caller.f_code is not conclusion:
                        caller = caller.f_back
                    built.append((frame.f_locals["b"], caller is not None))
                elif frame.f_code is structure._modular_scan.__code__:
                    scanned.append((frame.f_locals["E"], frame.f_locals["m"]))

            sys.setprofile(profile)
            try:
                report = check(E, "state.from_central_element")
            finally:
                sys.setprofile(None)
            assert report.hypotheses_met and report.conclusion_holds
            # each qualifying [0, c != 1] is built once, by the lift in the
            # conclusion, and E keeps none of them
            qualifying = [c for c in th._qualifying_centrals(E) if c != E.one]
            assert qualifying and built == [(c, True) for c in qualifying]
            assert not any(holds_algebra(v)
                           for v in vars(E)["_per_algebra"].values())
            # no built interval is tested: every modularity scan reads E's
            # own order, E itself once, and [0, c] for c != 1 only when E
            # is not modular
            order = derive_order(E)
            masks = [(1 << E.size) - 1]
            if not structure.is_modular(E):
                masks += [order.down[c] for c in bits(structure.center(E))
                          if c not in (E.zero, E.one)]
            assert [(A is E, m) for A, m in scanned] == [(True, m) for m in masks]
        assert len(scanned) == 3

    def test_central_claim_on_a_non_modular_instance(self):
        # N5 x 2: (1,0) and (0,1) are central, and [0, (1,0)] is N5
        E = product([horizontal_sum([chain(3), chain(2)]), chain(1)])
        assert not structure.is_modular(E)
        assert [E.label(c) for c in th._qualifying_centrals(E)] == ["(0,1)"]
        assert [E.label(c) for c in bits(structure.center(E))] == [
            "(0,0)", "(0,1)", "(1,0)", "(1,1)"]
        report = check(E, "state.from_central_element")
        assert report.hypotheses_met and report.conclusion_holds

    def test_only_central_intervals_are_built(self, monkeypatch):
        import effalg.states as st

        def build():
            return product([horizontal_sum([chain(2)] * 3), chain(3)])

        E = build()
        built = []

        def counted(A, a, b):
            built.append((A, a, b))
            return interval(A, a, b)

        interval = construct.interval
        for module in (th, st):
            monkeypatch.setattr(module, "interval", counted)
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
        central = [c for c in bits(structure.center_by_identity(E))
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
                if frame.f_locals["E"] is E and frame.f_locals["m"] == sharp:
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

    def test_instance_freed_without_the_cycle_collector(self):
        # nothing E keeps refers back to E, so dropping the last reference
        # frees it at once
        def reaches(value, target):
            seen, todo = set(), [value]
            while todo:
                obj = todo.pop()
                if obj is target:
                    return True
                if id(obj) in seen or isinstance(
                        obj, (type, types.ModuleType, types.FunctionType)):
                    continue
                seen.add(id(obj))
                todo.extend(gc.get_referents(obj))
            return False

        gc.disable()
        try:
            algebras = list(enumerate_algebras(EnumerationConfig(size=9)))
            algebras.append(product([HS, chain(3), chain(2)]))
            refs = [weakref.ref(E) for E in algebras]
            kept = 0
            for E in algebras:
                check_all(E)
                # a non-lattice meets no hypothesis that reads a kept result
                values = vars(E).get("_per_algebra", {}).values()
                assert not any(reaches(v, E) for v in values)
                kept += len(values)
            del E, algebras
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert len(refs) == 61 and alive == 0 and kept > 300

    def test_conclusion_none_iff_hypotheses_unmet(self, corpus):
        for E in corpus:
            for r in check_all(E):
                if r.error is None:
                    assert r.hypotheses_met == (r.conclusion_holds is not None)


def holds_algebra(value):
    """Whether value is an algebra or a tuple holding one, at any depth."""
    if isinstance(value, core.FiniteEffectAlgebra):
        return True
    return isinstance(value, tuple) and any(map(holds_algebra, value))


@pytest.fixture(scope="module")
def sweeps():
    """Every claim swept once over each of sizes 5 and 6."""
    return {n: {r.claim_id: r for r in sweep(EnumerationConfig(size=n), CLAIM_IDS)}
            for n in (5, 6)}


class TestNoReferenceCycles:
    """The recursive searches (the key search, the enumeration and its
    prefixes, the block search, the construction parser) drop their
    reference to themselves when they return or raise, so reference
    counting frees each search: nothing is left to the cycle collector."""

    @staticmethod
    def left_to_the_collector(run):
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        before = len(gc.garbage)
        try:
            run()
            gc.collect()
            return len(gc.garbage) - before
        finally:
            gc.set_debug(0)
            del gc.garbage[before:]
            gc.enable()

    def test_canonical_key(self):
        E = horizontal_sum([chain(2)] * 4)
        assert self.left_to_the_collector(lambda: canonical_key(E)) == 0

    def test_sweep(self):
        # every claim over the size-7 classes: enumeration, key searches,
        # block searches and the claims' own derivations
        def run():
            results = sweep(EnumerationConfig(size=7), CLAIM_IDS)
            assert all(r.passed for r in results)

        assert self.left_to_the_collector(run) == 0

    def test_searches_cut_by_the_budget(self):
        def run():
            with pytest.raises(BudgetExceeded):
                list(enumerate_algebras(EnumerationConfig(size=10,
                                                          node_budget=2000)))

        assert self.left_to_the_collector(run) == 0

    def test_prefixes_and_parses(self):
        def run():
            enumeration._collect_prefixes(9, 1, 2)
            construct.build(construct.parse_construction(
                "product(horizontal_sum(chain(2), boolean(2)), "
                "interval(chain(3), 0, 2a))"))
            with pytest.raises(StructuralError):
                construct.parse_construction("product(chain(2), foo(")

        assert self.left_to_the_collector(run) == 0


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
JOIN_DIFF = "diff.distributes_over_join"


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
            # the claim scans pairs only: a triple follows from its pairs
            assume(len(below) >= 2)
            family = data.draw(st.lists(st.sampled_from(below), min_size=2,
                                        max_size=2, unique=True))
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


class TestJoinDifferenceScan:
    """diff.distributes_over_join tests the pairs above each a; the scan
    that adds the triples (tests/oracle_cubic_claims.py) must reach the
    same report."""

    def test_same_reports_as_the_triple_scan(self, monkeypatch):
        instances = [E for E in small_classes(8) if derive_order(E).is_lattice]
        reports = [check(E, JOIN_DIFF) for E in instances]
        triples = replace(th._REGISTRY[JOIN_DIFF],
                          conclusion=join_difference_triples)
        monkeypatch.setitem(th._REGISTRY, JOIN_DIFF, triples)
        assert reports == [check(E, JOIN_DIFF) for E in instances]
        assert all(r.hypotheses_met and r.conclusion_holds for r in reports)


class TestModularMeasureOracle:
    """modular.measure reports verify_state's first "exchange" violation;
    the Fraction loop over every pair (tests/oracle_fraction_check.py) must
    give the same witness, on found states and on damaged ones."""

    def test_same_witness_on_damaged_states(self, monkeypatch):
        instances = [E for E in small_classes(9)
                     if derive_order(E).is_lattice] + [product([HS, chain(3)])]
        states = [(E, th._subadditive_state(E)) for E in instances]
        states = [(E, w) for E, w in states if w is not None]
        assert len(states) == 32
        failed = 0
        for E, w in states:
            assert th._modular_measure(E) == (True, None)
            for z in E.elements():
                for delta in (Fraction(1, 7), -w[z]):
                    damaged = list(w)
                    damaged[z] += delta
                    with monkeypatch.context() as mp:
                        mp.setattr(th, "_subadditive_state",
                                   lambda A: tuple(damaged))
                        got = th._modular_measure(E)
                    assert got == oracle_fraction_check.modular_measure(E, damaged)
                    failed += not got[0]
        assert failed > 100


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

    def test_interval_claims(self, lattices):
        for E in lattices:
            # every element of a finite algebra is finite and compact
            every = (1 << E.size) - 1
            for cid in ("atomic.interval_from_finite_joins",
                        "atomic.interval_from_compact_joins"):
                assert (tuple(th._REGISTRY[cid].conclusion(E))
                        == built_route.atomic_below_joins(E, every)
                        == (True, None))
            assert (th._finite_interval_complete(E)
                    == built_route.finite_interval_complete(E) == (True, None))

    def test_central_hypothesis(self, lattices):
        n5_times_2 = product([horizontal_sum([chain(3), chain(2)]), chain(1)])
        qualifying = 0
        for E in lattices + [n5_times_2]:
            got = th._qualifying_centrals(E)
            assert got == built_route.qualifying_centrals(E)
            qualifying += len(got)
        assert qualifying == 58

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


# -- the damage audit --------------------------------------------------------
#
# Each claim that still checks something fails on one damage to what it
# reads, with its hypotheses met: an order whose derive_order result is
# changed at one field (as seen from the named modules only), or a
# subadditive state that is moved or missing.  The claims concluded by
# _by_finiteness hold on any damage; README's "Claim registry" says why.


def _with(table, cells):
    """A join or meet table with each (x, y) -> v of cells set, both ways."""
    rows = [list(r) for r in table]
    for (x, y), v in cells.items():
        rows[x][y] = rows[y][x] = v
    return tuple(tuple(r) for r in rows)


def _damage_order(mp, E, modules, **fields):
    """derive_order(E), as the modules call it, returns E's order with
    fields replaced; every other algebra keeps its own."""
    damaged = replace(derive_order(E), **fields)
    for module in modules:
        mp.setattr(module, "derive_order",
                   lambda A: damaged if A is E else core.derive_order(A))


def drop_atom(mp, E):
    """The first atom is missing from atoms and atom_mask: the damage the
    atom-sum closure of the finite elements used to catch."""
    order = derive_order(E)
    a = order.atoms[0]
    _damage_order(mp, E, (structure, th), atoms=order.atoms[1:],
                  atom_mask=order.atom_mask & ~(1 << a))
    return (a,)


def drop_atom_from_list(mp, E):
    """atom_decomposition misses the first atom; atom_mask, which is_atomic
    reads, keeps it."""
    order = derive_order(E)
    _damage_order(mp, E, (structure,), atoms=order.atoms[1:])


def larger_join(mp, E):
    """The join of the two atoms is a larger upper bound below 1."""
    order = derive_order(E)
    x, y = order.atoms
    j = order.join[x][y]
    u = next(bits(order.up[j] & ~(1 << j | 1 << E.one)))
    _damage_order(mp, E, (th,), join=_with(order.join, {(x, y): u}))


def larger_dichotomy_join(mp, E):
    """An unsharp atom a and an atom b incompatible with it join above 2a."""
    order = derive_order(E)
    adj = structure.compatibility_adjacency(E)
    a = next(a for a in order.atoms if not structure.sharp_mask(E) >> a & 1)
    b = next(b for b in order.atoms if b != a and not adj[a] >> b & 1)
    u = next(bits(order.up[order.join[a][b]] & ~(1 << order.join[a][b])))
    _damage_order(mp, E, (th,), join=_with(order.join, {(a, b): u}))
    return (a, b)


def smaller_meet(*modules):
    """a' ^ 1 is 0 in place of a', for the first atom a."""
    def damage(mp, E):
        order = derive_order(E)
        a = E.orth[order.atoms[0]]
        _damage_order(mp, E, modules,
                      meet=_with(order.meet, {(a, E.one): E.zero}))
    return damage


def moved_state(mp, E):
    """The subadditive state is moved by 1/7 at the first atom."""
    w = list(th._subadditive_state(E))
    w[derive_order(E).atoms[0]] += Fraction(1, 7)
    mp.setattr(th, "_subadditive_state", lambda A: tuple(w))


def no_state(mp, E):
    """The subadditive LP finds no state."""
    mp.setattr(th, "_subadditive_state", lambda A: None)


def hs():
    return horizontal_sum([chain(2)] * 3)


def grid():
    return product([chain(2), chain(2)])


DAMAGES = [
    ("finite.interval_complete", grid, larger_join),
    ("sharp.hat_formula", hs, drop_atom_from_list),
    ("diff.distributes_over_join", grid, larger_join),
    ("sum.distributes_over_join", grid, larger_join),
    ("atomic.interval_from_finite_joins", hs, drop_atom),
    ("atomic.from_archimedean_block", hs, drop_atom),
    ("sharp.atomic_oml", lambda: boolean_algebra(2), smaller_meet(th)),
    ("atom.below_compact", hs, drop_atom),
    ("atomic.interval_from_compact_joins", hs, drop_atom),
    ("center.identity", lambda: boolean_algebra(2), smaller_meet(structure)),
    ("modular.measure", hs, moved_state),
    ("state.from_central_element", hs, no_state),
    ("state.atom_dichotomy", lambda: product([hs(), chain(1)]),
     larger_dichotomy_join),
    ("state.exists_unsharp_modular", hs, no_state),
]


class TestDamageAudit:
    @pytest.mark.parametrize("cid, build, damage", DAMAGES,
                             ids=[row[0] for row in DAMAGES])
    def test_damage_fails_the_claim(self, monkeypatch, cid, build, damage):
        clean = check(build(), cid)
        assert clean.hypotheses_met and clean.conclusion_holds
        E = build()  # a fresh instance keeps nothing derived before
        with monkeypatch.context() as mp:
            witness = damage(mp, E)
            report = check(E, cid)
        assert report.failed() and report.error is None, report
        if witness is not None:
            assert report.witness == witness

    def test_every_claim_that_can_fail_is_damaged(self):
        by_finiteness = [cid for cid in CLAIM_IDS
                         if th._REGISTRY[cid].conclusion is th._by_finiteness]
        assert len(by_finiteness) == 6
        assert ([row[0] for row in DAMAGES]
                == [cid for cid in CLAIM_IDS if cid not in by_finiteness])


def join_reads_as_other_atom(mp, E):
    """The join of atom x and an element u above it reads as the other atom
    y, which x is not below: (x v u) - x raises NotBelow."""
    order = derive_order(E)
    x, y = order.atoms
    u = next(bits(order.up[x] & ~(1 << x)))
    _damage_order(mp, E, (th,), join=_with(order.join, {(x, u): y}))


class TestRaisingConclusion:
    """Once its hypotheses hold, a conclusion that raises fails the claim,
    so a sweep cannot pass over it."""

    CID = "diff.distributes_over_join"

    def test_check_fails_the_claim(self, monkeypatch):
        E = grid()
        with monkeypatch.context() as mp:
            join_reads_as_other_atom(mp, E)
            report = check(E, self.CID)
        assert report.failed() and report.error is None, report
        assert report.hypothesis_detail == (("lattice", True),)
        assert report.witness == ("NotBelow", "1 is not below 3")

    def test_sweep_reports_the_claim_failed(self, monkeypatch):
        from effalg import enumeration

        E = grid()
        join_reads_as_other_atom(monkeypatch, E)
        monkeypatch.setattr(enumeration, "enumerate_algebras",
                            lambda config: iter([E]))
        [res] = sweep(EnumerationConfig(size=E.size), [self.CID])
        assert not res.passed and res.counterexample is E
        assert (res.hypotheses_met, res.checked) == (1, 1)

    def test_raising_hypothesis_stays_an_error(self, monkeypatch):
        def raising(E):
            raise EffectAlgebraError("boom")

        fake = th._Claim("never reached", (("raises", raising),),
                         lambda E: (False, None))
        monkeypatch.setitem(th._REGISTRY, "test.fake", fake)
        report = check(grid(), "test.fake")
        assert not report.hypotheses_met and not report.failed()
        assert report.error == "EffectAlgebraError: boom"
