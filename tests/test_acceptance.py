"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test prints one PASS line (with its runtime) when it succeeds; a
failure is a release blocker.  Time bounds are asserted with the budgets
the criteria carry.
"""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    algebra_from_sums,
    make_b2,
    make_c3,
    make_c4,
    make_e5,
    make_hs2,
    random_families,
)
from effalg.algfile import load_algebra
from effalg.cli import main as cli_main
from effalg.construct import boolean_algebra, chain, horizontal_sum, product
from effalg.core import FiniteEffectAlgebra, bits, derive_order, validate
from effalg.enumeration import (
    EnumerationConfig,
    canonical_key,
    enumerate_algebras,
    find_stateless,
)
from effalg.states import (
    StateVector,
    find_state,
    find_subadditive_state,
    fm_feasible,
    state_system,
    state_via_exstate_procedure,
    verify_state,
)
from effalg.core import oplus_sum
from effalg.structure import (
    center_by_identity,
    compatibility_center,
    sharp_elements,
    sharp_hat_formula,
    smallest_sharp_over,
)
from effalg.theorems import (
    check,
    join_difference_family_holds,
    join_sum_family_holds,
    sweep,
)
from oracle_naive import naive_classes

FIXTURES = Path(__file__).parent / "fixtures"


class _Timer:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False

    def report(self, number, text):
        line = f"criterion {number:2d}: PASS ({self.elapsed:6.2f}s) {text}"
        print(line)
        assert self.elapsed < self.bound, f"over budget: {self.elapsed}s"


def all_instances(max_n, **kw):
    for n in range(2, max_n + 1):
        yield from enumerate_algebras(EnumerationConfig(size=n, **kw))


def test_criterion_01_axiom_gate():
    with _Timer(1.0) as t:
        for E in (make_b2(), make_c3(), make_c4(), make_e5(), make_hs2()):
            assert validate(E) == []

        mutations = []
        b2 = make_b2()
        tab = [list(r) for r in b2.sum]
        tab[2][1] = None  # drop one orientation of a+a'
        mutations.append(("Ei", FiniteEffectAlgebra(4, 0, 3, tuple(map(tuple, tab)))))
        mutations.append(("Eii", algebra_from_sums(
            5, 0, 4, [(1, 2, 4), (3, 3, 4), (1, 3, 2)])))
        mutations.append(("Eiii", algebra_from_sums(
            5, 0, 4, [(1, 2, 4), (3, 3, 4), (1, 3, 4)])))
        mutations.append(("Eiv", algebra_from_sums(
            3, 0, 2, [(1, 1, 2), (2, 1, 1)])))
        mutations.append(("zero-one", algebra_from_sums(2, 0, 0, [])))
        tab = [list(r) for r in b2.sum]
        tab[1][2] = 7
        mutations.append(("structural", FiniteEffectAlgebra(4, 0, 3, tuple(map(tuple, tab)))))

        for expected, broken in mutations:
            kinds = {v.kind for v in validate(broken)}
            assert expected in kinds, (expected, kinds)
    t.report(1, "axiom gate accepts the corpus and names each planted violation")


def test_criterion_02_worked_example():
    with _Timer(1.0) as t:
        e5 = make_e5()
        S = sharp_elements(e5)
        assert tuple(bits(S)) == (0, 1, 2, 4)  # {0, a, a', 1}
        two_b = oplus_sum(e5, [3, 3])
        assert two_b == 4  # the doubled unsharp atom is the top
        order = derive_order(e5)
        atoms_of_S = [s for s in bits(S) if s != e5.zero
                      and order.down[s] & S == (1 << e5.zero) | (1 << s)]
        assert atoms_of_S == [1, 2]
        assert two_b not in atoms_of_S
    t.report(2, "sharp set of the glued example and its non-atomic doubled atom")


def test_criterion_03_center_identity():
    with _Timer(60.0) as t:
        checked = 0
        for E in all_instances(6, lattice_only=True):
            cen = center_by_identity(E)
            other = compatibility_center(E) & sharp_elements(E)
            assert cen == other, canonical_key(E)
            checked += 1
        assert checked > 0
    t.report(3, f"center identity on all {checked} lattice classes to size 6")


def test_criterion_04_state_existence_floor():
    with _Timer(600.0) as t:
        checked = 0
        for E in all_instances(8):
            got = find_state(E)
            assert isinstance(got, StateVector), canonical_key(E)
            checked += 1
        assert checked == 73  # 1+1+3+4+10+14+40

        fixture = load_algebra(FIXTURES / "stateless9.alg")
        assert validate(fixture) == []
        cert = find_state(fixture)
        assert not isinstance(cert, StateVector)
        assert cert.verify()
        assert not fm_feasible(state_system(fixture))

        res = find_stateless(9)
        assert res.cleared_sizes == (2, 3, 4, 5, 6, 7, 8)
        assert canonical_key(res.found) == canonical_key(fixture)
    t.report(4, f"states exist on all {checked} classes to size 8; the nine-"
                "element stateless instance is rediscovered and certified")


SUBADDITIVE_STATES = []


def test_criterion_05_subadditive_state_floor():
    with _Timer(300.0) as t:
        hits = 0
        for E in all_instances(7, modular_only=True, unsharp_only=True):
            got = find_subadditive_state(E)
            assert isinstance(got, StateVector), canonical_key(E)
            assert verify_state(E, got, require_subadditive=True) == []
            SUBADDITIVE_STATES.append((E, got))
            hits += 1
        assert hits > 0
    t.report(5, f"subadditive states on all {hits} unsharp modular lattice "
                "classes to size 7")


def test_criterion_06_modular_measure():
    with _Timer(60.0) as t:
        assert SUBADDITIVE_STATES, "criterion 5 must run first"
        for E, got in SUBADDITIVE_STATES:
            order = derive_order(E)
            w = got.values
            for x in E.elements():
                for y in E.elements():
                    assert w[x] + w[y] == \
                        w[order.join[x][y]] + w[order.meet[x][y]]
    t.report(6, "every found subadditive state satisfies the exchange "
                "identity exactly")


def test_criterion_07_constructive_vs_solver():
    with _Timer(1.0) as t:
        e5, c4 = make_e5(), make_c4()
        state5, trace5 = state_via_exstate_procedure(e5)
        assert verify_state(e5, state5, require_subadditive=True) == []
        half = Fraction(1, 2)
        assert state5.values == (Fraction(0), half, half, half, Fraction(1))
        solver = find_subadditive_state(e5)
        assert solver.values == state5.values  # the half-state is unique

        state4, trace4 = state_via_exstate_procedure(c4)
        assert verify_state(c4, state4, require_subadditive=True) == []
        assert trace4.branch == "central-atom"
        assert trace5.branch == "dichotomy"
    t.report(7, "the atom-dichotomy procedure reproduces the solver's "
                "unique half-state exactly")


def test_criterion_08_hat_formula():
    with _Timer(60.0) as t:
        checked = 0
        for E in all_instances(6, modular_only=True):
            from effalg.structure import is_atomic
            if not is_atomic(E):
                continue
            for x in E.elements():
                assert sharp_hat_formula(E, x) == smallest_sharp_over(E, x)
                checked += 1
        assert checked > 0
    t.report(8, f"hat formula agrees with the scan on {checked} elements "
                "across modular atomic lattice classes to size 6")


def test_criterion_09_distributivity_laws():
    with _Timer(120.0) as t:
        for E in all_instances(6):
            report = check(E, "sum.distributes_over_join")
            assert report.hypotheses_met and report.conclusion_holds
            if derive_order(E).is_lattice:
                report = check(E, "diff.distributes_over_join")
                assert report.hypotheses_met and report.conclusion_holds

        named = [
            make_e5(),
            make_hs2(),
            product([boolean_algebra(2), chain(2)]),
        ]
        for E in named:
            order = derive_order(E)
            for fam, extra in random_families(E, 1000):
                assert join_sum_family_holds(E, fam, extra)
                if all(order.leq(extra, b) for b in fam):
                    assert join_difference_family_holds(E, fam, extra)
    t.report(9, "both join-distribution laws hold on all pairs to size 6 "
                "and on 1000 seeded families for the three named instances")


def test_criterion_10_dichotomy_sweep():
    with _Timer(300.0) as t:
        met_total = 0
        for n in range(2, 8):
            [res] = sweep(EnumerationConfig(size=n), ["state.atom_dichotomy"])
            assert res.passed, (n, res.counterexample)
            met_total += res.hypotheses_met
        assert met_total > 0
    t.report(10, f"atom dichotomy holds wherever its hypotheses are met "
                 f"({met_total} instances) across the size-7 sweep")


def test_criterion_11_enumerator_soundness():
    with _Timer(60.0) as t:
        for n in range(2, 6):
            naive = naive_classes(n)
            fast = list(enumerate_algebras(EnumerationConfig(size=n)))
            assert len(naive) == len(fast), n
            assert sorted(canonical_key(E) for E in naive) == \
                sorted(canonical_key(E) for E in fast), n
    t.report(11, "orderly counts to size 5 equal the naive "
                 "generate-and-dedupe oracle exactly")


def _machine_reports(tmp_path):
    e5 = tmp_path / "e5.alg"
    e5.write_text("version 1\nconstruct horizontal_sum(boolean(2), chain(2))\n")
    runs = [
        ("analyze", str(e5), "--json"),
        ("states", str(e5), "--subadditive", "--json"),
        ("states", str(FIXTURES / "stateless9.alg"), "--json"),
        ("theorems", str(e5), "--json"),
        ("theorems", "--sweep", "5", "--json"),
        ("enumerate", "6", "--json"),
    ]
    chunks = []
    for argv in runs:
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli_main(list(argv))
        json.loads(buf.getvalue())  # must stay well-formed
        chunks.append(buf.getvalue())
    return "\x00".join(chunks)


def test_criterion_12_determinism(tmp_path):
    with _Timer(120.0) as t:
        first = _machine_reports(tmp_path)
        second = _machine_reports(tmp_path)
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")
    t.report(12, "two runs of the machine-readable report set are "
                 "byte-identical")
