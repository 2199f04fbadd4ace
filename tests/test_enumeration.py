"""Isomorph-free generation: counts, canonical keys, budgets, parallelism."""

import copy
import json
import random
import time
from pathlib import Path

import pytest

from conftest import make_b2, make_c4, make_e5
from effalg import enumeration
from effalg.algfile import load_algebra
from effalg.construct import boolean_algebra, chain, horizontal_sum, product
from effalg.core import FiniteEffectAlgebra, derive_order, validate
from effalg.enumeration import (
    UNDEF,
    UNKNOWN,
    EnumerationConfig,
    _Budget,
    _chunk_worker,
    _chunks,
    _f_values,
    _min_key_search,
    _run_chunk,
    _Search,
    _twins,
    _witness_cuts,
    canonical_key,
    enumerate_algebras,
    find_stateless,
    is_isomorphic,
)
from effalg.errors import BudgetExceeded, CheckpointError
from effalg.states import StateVector, find_state, fm_feasible, state_system
from oracle_eager_min_key import eager_min_key_search
from oracle_frame_min import frame_min_key
from oracle_labelled import (automorphism_count, frame_of, frames,
                             labelled_count, orbit_sums)
from oracle_naive import naive_classes
from oracle_twins import twin_lists

# class counts per size, frozen after the first computation and cross-checked
# against the naive oracle for sizes up to 5
KNOWN_COUNTS = {2: 1, 3: 1, 4: 3, 5: 4, 6: 10, 7: 14, 8: 40, 9: 60}

# the classes each filter keeps, sizes 2..9
FILTERED_COUNTS = {
    "lattice_only": (1, 1, 3, 4, 9, 12, 25, 34),
    "modular_only": (1, 1, 3, 3, 5, 4, 8, 6),
    "unsharp_only": (0, 1, 2, 4, 9, 14, 38, 60),
}

STATELESS9 = Path(__file__).parent / "fixtures" / "stateless9.alg"


def enumerate_size(n, **kw):
    return list(enumerate_algebras(EnumerationConfig(size=n, **kw)))


def record_canonicity_tests(monkeypatch, sizes):
    """(T, n, f) of every column test and leaf test that enumerating these
    sizes makes, in order, and the classes enumerated."""
    tables = []
    beaten = enumeration._beaten

    def recorded(T, n, f, witness):
        tables.append((T[:], n, f))
        return beaten(T, n, f, witness)

    monkeypatch.setattr(enumeration, "_beaten", recorded)
    classes = [E for n in sizes for E in enumerate_size(n)]
    monkeypatch.undo()
    return tables, classes


class TestCounts:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_regression_counts(self, n):
        assert len(enumerate_size(n)) == KNOWN_COUNTS[n]

    def test_larger_sizes(self):
        assert len(enumerate_size(8)) == KNOWN_COUNTS[8]
        assert len(enumerate_size(9)) == KNOWN_COUNTS[9]

    def test_search_visits_a_fixed_number_of_nodes(self):
        # the pruning is pinned, not just the classes: testing fewer
        # associativity conditions per cell still emits every class, at
        # the cost of more nodes
        assert len(enumerate_size(9, node_budget=5493)) == KNOWN_COUNTS[9]
        with pytest.raises(BudgetExceeded):
            enumerate_size(9, node_budget=5492)
        assert len(enumerate_size(10, node_budget=23925)) == 172
        with pytest.raises(BudgetExceeded):
            enumerate_size(10, node_budget=23924)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_naive_oracle(self, n):
        naive = naive_classes(n)
        fast = enumerate_size(n)
        assert len(naive) == len(fast)
        assert sorted(canonical_key(E) for E in naive) == \
            sorted(canonical_key(E) for E in fast)

    def test_no_two_emitted_are_isomorphic(self):
        algs = enumerate_size(6)
        keys = [canonical_key(E) for E in algs]
        assert len(set(keys)) == len(keys)

    def test_all_emitted_valid(self):
        for E in enumerate_size(6):
            assert validate(E) == []

    # find_stateless keeps its first hit because of this order
    @pytest.mark.parametrize("n,jobs", [(n, 1) for n in range(2, 10)] + [(7, 2)])
    def test_classes_come_in_ascending_key(self, n, jobs):
        keys = [canonical_key(E) for E in enumerate_size(n, jobs=jobs)]
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestOrbitCount:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
    def test_labelled_count_is_the_orbit_sum(self, n):
        # completeness and isomorph-freeness at once: in every frame, the
        # valid tables are the disjoint union of the classes' orbits
        sums = orbit_sums(enumerate_size(n), n)
        assert sums == {f: labelled_count(n, f) for f in frames(n)}


class TestFilters:
    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("flag", FILTERED_COUNTS)
    def test_filtered_counts(self, flag, n):
        assert len(enumerate_size(n, **{flag: True})) == FILTERED_COUNTS[flag][n - 2]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_stateless_classes(self, n):
        # every class up to size 8 carries a state; at size 9 exactly one
        # does not, the stored fixture
        stateless = [canonical_key(E) for E in enumerate_size(n)
                     if not isinstance(find_state(E), StateVector)]
        expected = [canonical_key(load_algebra(STATELESS9))] if n == 9 else []
        assert stateless == expected

    def test_lattice_filter(self):
        all6 = enumerate_size(6)
        lat6 = enumerate_size(6, lattice_only=True)
        assert len(lat6) == sum(derive_order(E).is_lattice for E in all6)
        assert 0 < len(lat6) < len(all6)  # the hexagon family is non-lattice

    def test_unsharp_filter(self):
        from effalg.structure import sharp_mask
        us = enumerate_size(5, unsharp_only=True)
        assert all(sharp_mask(E) != (1 << E.size) - 1 for E in us)

    def test_modular_filter(self):
        from effalg.structure import is_modular
        mods = enumerate_size(6, modular_only=True)
        for E in mods:
            assert is_modular(E)


class TestCanonicalKey:
    def _shuffle(self, E, seed):
        rng = random.Random(seed)
        perm = list(E.elements())
        rng.shuffle(perm)
        inv = [0] * E.size
        for i, p in enumerate(perm):
            inv[p] = i
        table = [[None] * E.size for _ in range(E.size)]
        for x in E.elements():
            for y in E.elements():
                v = E.sum[x][y]
                if v is not None:
                    table[perm[x]][perm[y]] = perm[v]
        return FiniteEffectAlgebra(
            size=E.size, zero=perm[E.zero], one=perm[E.one],
            sum=tuple(tuple(r) for r in table))

    def test_invariant_under_relabeling(self):
        for E in (make_b2(), make_c4(), make_e5()):
            base = canonical_key(E)
            for seed in range(5):
                assert canonical_key(self._shuffle(E, seed)) == base

    def test_matches_brute_force_frame_minimum(self):
        for n in range(2, 9):
            for i, E in enumerate(enumerate_size(n)):
                for seed in range(3):
                    shuffled = self._shuffle(E, 100 * i + seed)
                    assert canonical_key(shuffled) == frame_min_key(shuffled), \
                        (n, i, seed)

    def test_symmetric_extremes_match_frame_minimum(self):
        # twins of every kind: self-paired middles (k x chain(2)), elements
        # of two pairs (boolean(3)), the two elements of one pair (the
        # horizontal sum of boolean(2)s); and none at all
        twin_free = next(E for E in enumerate_size(8)
                         if automorphism_count(E, frame_of(E)) == 1)
        algebras = [horizontal_sum([chain(2)] * k) for k in range(3, 8)] + [
            boolean_algebra(3),
            horizontal_sum([boolean_algebra(2)] * 3),
            product([boolean_algebra(1), chain(3)]),
            twin_free,
        ]
        for i, E in enumerate(algebras):
            assert E.size <= 9
            for seed in range(3):
                shuffled = self._shuffle(E, 100 * i + seed)
                assert canonical_key(shuffled) == frame_min_key(shuffled), \
                    (i, seed)

    def test_fully_self_paired_within_half_a_second(self):
        # all 9! relabelings of the self-paired middles are automorphisms
        E = horizontal_sum([chain(2)] * 9)
        algebras = [E] + [self._shuffle(E, seed) for seed in range(4)]
        start = time.perf_counter()
        keys = [canonical_key(A) for A in algebras]
        elapsed = time.perf_counter() - start
        assert keys == [keys[0]] * 5
        assert elapsed < 0.5, elapsed

    def test_isomorphism_needs_no_search_across_frames(self, b2, c4,
                                                        monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("min-key search called")

        monkeypatch.setattr(enumeration, "_min_key_search", search)
        assert not is_isomorphic(b2, chain(2))  # sizes 4 and 3
        assert not is_isomorphic(b2, horizontal_sum([chain(2)] * 2))  # f 0, 2
        with pytest.raises(AssertionError, match="min-key search"):
            is_isomorphic(b2, c4)  # size 4, f = 0 both

    def test_distinguishes_non_isomorphic(self, b2, c4):
        assert canonical_key(b2) != canonical_key(c4)
        assert not is_isomorphic(b2, c4)

    def test_constructed_isomorphs_agree(self):
        from effalg.construct import boolean_algebra, interval, product
        B3 = boolean_algebra(3)
        upper = interval(B3, 1, 7)
        assert is_isomorphic(upper, boolean_algebra(2))
        X = make_c4()
        prod = product([boolean_algebra(1), X])
        assert is_isomorphic(prod, X) is False  # 8 elements vs 4
        assert is_isomorphic(interval(prod, 0, prod.size - 1), prod)


def frame_layout(n, f, rng):
    """A random frame-preserving relabeling, position -> element: zero and
    one stay, the self-paired middles move among 1..f and the pairs among
    the positions after them, each pair adjacent in either order."""
    fixed = list(range(1, f + 1))
    pairs = [[p, p + 1] for p in range(f + 1, n - 1, 2)]
    rng.shuffle(fixed)
    rng.shuffle(pairs)
    for pair in pairs:
        rng.shuffle(pair)
    return [0, *fixed, *(x for pair in pairs for x in pair), n - 1]


class TestMinKeyLayout:
    def test_every_frame_layout_gives_the_same_key(self):
        # canonical_key lays the frame out by an invariant; the key must
        # not depend on which frame-preserving layout it starts from
        rng = random.Random(15)
        for n in range(2, 9):
            for E in enumerate_size(n):
                f = sum(x == y for x, y in enumerate(E.orth))
                T = [UNDEF if v is None else v for row in E.sum for v in row]
                key = _min_key_search(T, n, f)
                assert (n, f, key) == canonical_key(E)
                for _ in range(5):
                    layout = frame_layout(n, f, rng)
                    rho = [0] * n
                    for i, x in enumerate(layout):
                        rho[x] = i
                    R = [UNDEF if v == UNDEF else rho[v]
                         for x in layout for v in (T[x * n + y] for y in layout)]
                    orth = [R[x * n:x * n + n].index(n - 1) for x in range(n)]
                    assert R[:n] == list(range(n))
                    assert all(orth[x] == x for x in range(1, f + 1))
                    assert all(orth[p] == p + 1 for p in range(f + 1, n - 1, 2))
                    assert _min_key_search(R, n, f) == key, (n, E.sum, layout)


class TestTwinSkip:
    def test_open_cells_leave_middles_twins(self):
        # with no sum of two middles decided, any two self-paired middles
        # can be swapped, open cells going to open cells
        n = 6
        twins = _twins(_Search(n, n - 2).T, n, n - 2)
        assert twins[1:n - 1] == [list(range(1, b)) for b in range(1, n - 1)]

    def test_twins_match_a_full_table_oracle(self, monkeypatch):
        # keys alone cannot catch a wrong twin list, so each list is
        # compared with the oracle's on every table, complete or partial,
        # that the search meets while enumerating sizes 2..8: one per
        # column test and one per leaf test
        tables, _ = record_canonicity_tests(monkeypatch, range(2, 9))
        assert len(tables) == 457
        partial = sum(UNKNOWN in T for T, _, _ in tables)
        assert 0 < partial < len(tables)
        for T, n, f in tables:
            assert [sorted(t) for t in _twins(T, n, f)] == twin_lists(T, n, f)

    def test_lazy_twin_scan_matches_the_eager_search(self, monkeypatch):
        # every column and leaf test that enumerating size 9 makes,
        # complete and partial tables alike, replayed against the search
        # that scans for twins up front; then the keys of the 60 classes
        calls, classes = record_canonicity_tests(monkeypatch, [9])
        assert len(calls) == 584
        assert len(classes) == 60
        scans = []

        def counted(T, n, f):
            scans.append(n)
            return _twins(T, n, f)

        monkeypatch.setattr(enumeration, "_twins", counted)
        for T, n, f in calls:
            assert (_min_key_search(T, n, f, True)
                    == eager_min_key_search(T, n, f, True))
        # some searches find their hit before a scan is needed
        assert 0 < len(scans) < len(calls)
        keys = [canonical_key(E) for E in classes]
        monkeypatch.setattr(enumeration, "_min_key_search", eager_min_key_search)
        assert [canonical_key(E) for E in classes] == keys

    def test_nearly_self_paired_frames_within_half_a_second(self):
        # the inner-node tests of these frames face up to 10! relabelings
        # of partial tables, which the twin skip brings down to a few
        chunks = [(f, prefix) for f, prefix in _chunks(12) if f in (8, 10)]
        classes = {8: 0, 10: 0}
        start = time.perf_counter()
        for f, prefix in chunks:
            classes[f] += len(_run_chunk(12, f, prefix, _Budget(None, None)))
        elapsed = time.perf_counter() - start
        assert classes == {8: 3, 10: 1}
        assert elapsed < 0.5, elapsed


class TestOrderlyShortcuts:
    """The partner-cell filter and the cut witness change no decision of
    the search they shortcut."""

    def test_witness_cuts_only_where_the_full_search_does(self, monkeypatch):
        # every column and leaf test of sizes 2..9, and every witness check
        # made inside them, against the eager min-key search
        checks, tests = [], []
        witness_cuts, beaten = enumeration._witness_cuts, enumeration._beaten

        def recorded_check(T, n, witness):
            cut = witness_cuts(T, n, witness)
            checks.append((T[:], n, cut))
            return cut

        def recorded_test(T, n, f, witness):
            cut = beaten(T, n, f, witness)
            tests.append((T[:], n, f, cut))
            return cut

        monkeypatch.setattr(enumeration, "_witness_cuts", recorded_check)
        monkeypatch.setattr(enumeration, "_beaten", recorded_test)
        for n in range(2, 10):
            enumerate_size(n)
        monkeypatch.undo()
        # _beaten makes one witness check per test
        assert len(checks) == len(tests)
        cuts = 0
        for (T, n, cut), (_, _, f, _) in zip(checks, tests):
            if cut:
                cuts += 1
                assert eager_min_key_search(T, n, f, True)
        # the witness decides some tests, and some cuts need the full search
        assert 0 < cuts < sum(cut for *_, cut in tests)
        for T, n, f, cut in tests:
            assert cut == eager_min_key_search(T, n, f, True)

    def test_witness_cuts_only_below_on_decided_cells(self):
        # size 6 with the pairs 1, 2 and 3, 4; the witness puts the pair 3, 4
        # at positions 1, 2, so it reads 3+3, 3+4, 4+4 where the identity
        # reads 1+1, 1+2, 2+2.  An entry is the sum's position, 6 where it
        # is undefined; 1+2 = 3+4 = 5 is fixed by the frame.
        n, f = 6, 0
        T = _Search(n, f).T

        def put(x, y, v):
            T[x * n + y] = T[y * n + x] = v

        put(1, 1, UNDEF)
        put(2, 2, UNDEF)
        put(4, 4, 3)      # position 1, below the identity's 6
        assert not _witness_cuts(T, n, [3, 4])   # 3+3 is open
        put(3, 3, UNDEF)
        assert _witness_cuts(T, n, [3, 4])       # two ties, then below
        assert not _witness_cuts(T, n, [1, 2])   # the identity ties
        put(4, 4, 1)
        assert not _witness_cuts(T, n, [3, 4])   # 1 has no position yet
        put(1, 1, UNKNOWN)
        put(3, 3, 4)
        # the identity's 1+1 is open: no entry from there on is compared
        assert not _witness_cuts(T, n, [3, 4])

    def test_filter_skips_only_candidates_assign_rejects(self, monkeypatch):
        skipped = []
        clashes = _Search.clashes

        def checked(search, x, y, v):
            clash = clashes(search, x, y, v)
            if clash:
                skipped.append(v)
                assert copy.deepcopy(search).assign(x, y, v) is False
            return clash

        monkeypatch.setattr(_Search, "clashes", checked)
        for n in range(2, 9):
            assert len(enumerate_size(n)) == KNOWN_COUNTS[n]
        assert skipped


class TestBudgets:
    def test_node_budget_raises_with_checkpoint(self):
        gen = enumerate_algebras(EnumerationConfig(size=7, node_budget=40))
        with pytest.raises(BudgetExceeded) as info:
            list(gen)
        cp = info.value.checkpoint
        assert cp["size"] == 7 and "done" in cp

    def test_resume_completes_the_enumeration(self):
        full = [canonical_key(E) for E in enumerate_size(6)]
        got = []
        checkpoint = None
        budget = 300
        for _ in range(100):
            cfg = EnumerationConfig(size=6, node_budget=budget,
                                    checkpoint=checkpoint)
            try:
                for E in enumerate_algebras(cfg):
                    got.append(canonical_key(E))
                break
            except BudgetExceeded as exc:
                # checkpoints must survive a JSON round-trip
                checkpoint = json.loads(json.dumps(exc.checkpoint))
        else:
            pytest.fail("resume loop did not converge")
        assert got == full

    def test_find_stateless_budget_spans_all_sizes(self):
        # size 8 alone takes exactly 2,196 nodes; sizes 5-7 take 588 more
        with pytest.raises(BudgetExceeded):
            find_stateless(8, node_budget=2196)

    def test_stateless_checkpoint_needs_its_fields_and_size(self):
        with pytest.raises(BudgetExceeded) as info:
            find_stateless(8, node_budget=1500)
        cp = info.value.checkpoint
        assert cp["size"] == 8
        with pytest.raises(CheckpointError):
            find_stateless(8, checkpoint=dict(cp, cleared_sizes=[2, 3, 4, 5, 6, 7]))
        with pytest.raises(CheckpointError):
            find_stateless(7, checkpoint=cp)

    def test_worker_past_the_deadline_reports_exhaustion(self):
        f = _f_values(7)[0]
        tables, _ = _chunk_worker((7, f, (), None, time.monotonic() - 1))
        assert tables is None


class TestParallel:
    def test_two_jobs_match_sequential(self):
        seq = [canonical_key(E) for E in enumerate_size(7)]
        par = [canonical_key(E) for E in enumerate_size(7, jobs=2)]
        assert par == seq


class TestFindStateless:
    def test_none_below_seven(self):
        res = find_stateless(6)
        assert res.found is None
        assert res.cleared_sizes == (2, 3, 4, 5, 6)

    def test_rediscovers_the_nine_element_instance(self):
        res = find_stateless(9)
        assert res.found is not None and res.found.size == 9
        assert res.cleared_sizes == (2, 3, 4, 5, 6, 7, 8)
        assert not isinstance(find_state(res.found), StateVector)
        # the independent elimination oracle agrees
        assert not fm_feasible(state_system(res.found))

    def test_matches_stored_fixture(self):
        fixture = load_algebra(STATELESS9)
        res = find_stateless(9)
        assert canonical_key(fixture) == canonical_key(res.found)

    def test_resume_keeps_the_first_hit(self):
        full = find_stateless(9)
        # this cut comes after the first stateless class of size 9
        with pytest.raises(BudgetExceeded) as info:
            find_stateless(9, node_budget=4500)
        cp = json.loads(json.dumps(info.value.checkpoint))
        assert cp["size"] == 9 and cp["found"] is not None
        res = find_stateless(9, checkpoint=cp)
        assert res.found.sum == full.found.sum and res.checked == full.checked == 133
