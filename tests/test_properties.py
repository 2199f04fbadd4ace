"""Property-based checks over randomly built and randomly damaged algebras."""

from fractions import Fraction
from math import prod

from hypothesis import assume, given, settings, strategies as st

from conftest import make_b2, make_c3, make_c4, make_e5, make_hex6, make_hs2
from effalg.construct import boolean_algebra, build, chain, ConstructionSpec
from effalg.core import (
    FiniteEffectAlgebra,
    derive_order,
    oplus_sum,
    validate,
)
from effalg.enumeration import canonical_key
from effalg.errors import StructuralError, UndefinedSum
from effalg.states import StateVector, find_state, verify_state
from effalg.structure import classify, section_involution
from effalg.theorems import check_all
from oracle_cubic_validate import validate as cubic_validate

CORPUS = [make_b2(), make_c3(), make_c4(), make_e5(), make_hs2(), make_hex6()]


def specs(max_depth=2):
    leaves = st.one_of(
        st.builds(lambda k: ConstructionSpec("boolean", (k,)), st.integers(1, 3)),
        st.builds(lambda m: ConstructionSpec("chain", (m,)), st.integers(1, 4)),
    )

    def compound(children):
        return st.one_of(
            st.builds(lambda ps: ConstructionSpec("horizontal_sum", tuple(ps)),
                      st.lists(children, min_size=1, max_size=3)),
            st.builds(lambda ps: ConstructionSpec("product", tuple(ps)),
                      st.lists(children, min_size=1, max_size=2)),
        )

    return st.recursive(leaves, compound, max_leaves=4)


def spec_size(spec):
    """The size of build(spec), read off the spec without building it.

    A drawn product can have up to 4,096 elements, so a test that bounds
    the size assumes on this before it builds."""
    if spec.kind == "boolean":
        return 1 << spec.args[0]
    if spec.kind == "chain":
        return spec.args[0] + 1
    sizes = [spec_size(part) for part in spec.args]
    if spec.kind == "product":
        return prod(sizes)
    return sizes[0] if len(sizes) == 1 else 2 + sum(n - 2 for n in sizes)


class TestConstructedAlgebras:
    @given(specs())
    @settings(max_examples=60, deadline=None)
    def test_every_construction_validates(self, spec):
        E = build(spec)
        assert validate(E) == []

    @given(specs())
    @settings(max_examples=40, deadline=None)
    def test_flags_carry_witnesses_exactly_when_false(self, spec):
        size = spec_size(spec)
        assume(size <= 64)
        E = build(spec)
        assert E.size == size
        flags = classify(E)
        for name in ("is_lattice", "is_modular", "is_distributive",
                     "is_orthomodular", "is_mv", "is_sharply_dominating",
                     "is_atomic", "is_archimedean"):
            flag = getattr(flags, name)
            assert flag.holds == (flag.witness is None)

    @given(specs())
    @settings(max_examples=30, deadline=None)
    def test_states_of_constructions_verify(self, spec):
        size = spec_size(spec)
        assume(size <= 40)
        E = build(spec)
        assert E.size == size
        got = find_state(E)
        assert isinstance(got, StateVector)
        assert verify_state(E, got) == []

    @given(specs(), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_canonical_key_is_label_blind(self, spec, rng):
        size = spec_size(spec)
        assume(size <= 16)
        E = build(spec)
        assert E.size == size
        perm = list(E.elements())
        rng.shuffle(perm)
        table = [[None] * E.size for _ in range(E.size)]
        for x in E.elements():
            for y in E.elements():
                v = E.sum[x][y]
                if v is not None:
                    table[perm[x]][perm[y]] = perm[v]
        shuffled = FiniteEffectAlgebra(
            size=E.size, zero=perm[E.zero], one=perm[E.one],
            sum=tuple(tuple(r) for r in table))
        assert canonical_key(shuffled) == canonical_key(E)


def theorem_instances():
    """Products of horizontal_sum([chain(2)] * k), k = 2-3, with up to two
    chains and Boolean algebras: modular, Archimedean, atomic lattices with
    unsharp elements, the class of the paper's main theorem."""
    chain2 = ConstructionSpec("chain", (2,))
    unsharp = st.builds(lambda k: ConstructionSpec("horizontal_sum", (chain2,) * k),
                        st.integers(2, 3))
    factor = st.one_of(
        st.builds(lambda m: ConstructionSpec("chain", (m,)), st.integers(1, 9)),
        st.builds(lambda k: ConstructionSpec("boolean", (k,)), st.integers(1, 2)),
    )
    return st.builds(lambda hs, rest: ConstructionSpec("product", (hs, *rest)),
                     unsharp, st.lists(factor, max_size=2))


class TestPaperTheorem:
    @given(theorem_instances())
    @settings(max_examples=25, deadline=None)
    def test_claims_hold_with_the_theorem_hypotheses_met(self, spec):
        size = spec_size(spec)
        assume(size <= 60)
        E = build(spec)
        assert E.size == size
        reports = {r.claim_id: r for r in check_all(E)}
        assert [cid for cid, r in reports.items() if r.failed() or r.error] == []
        assert reports["state.exists_unsharp_modular"].hypotheses_met


class TestIteratedSums:
    @given(st.integers(0, len(CORPUS) - 1),
           st.lists(st.integers(0, 5), max_size=5), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, idx, xs, rng):
        E = CORPUS[idx]
        xs = [x % E.size for x in xs]
        shuffled = xs[:]
        rng.shuffle(shuffled)
        try:
            expected = oplus_sum(E, xs)
            defined = True
        except UndefinedSum:
            defined = False
        try:
            got = oplus_sum(E, shuffled)
            assert defined and got == expected
        except UndefinedSum:
            assert not defined


class TestFuzzedTables:
    @given(st.integers(0, len(CORPUS) - 1), st.integers(0, 400),
           st.integers(-1, 8))
    @settings(max_examples=300, deadline=None)
    def test_validate_never_raises_on_mutations(self, idx, cell, value):
        E = CORPUS[idx]
        n = E.size
        x, y = (cell // n) % n, cell % n
        v = None if value < 0 or value >= n else value
        table = [list(r) for r in E.sum]
        table[x][y] = v
        mutated = FiniteEffectAlgebra(
            size=n, zero=E.zero, one=E.one,
            sum=tuple(tuple(r) for r in table))
        report = validate(mutated)  # must not raise, whatever the damage
        if table == [list(r) for r in E.sum]:
            assert report == []

    @given(st.integers(0, len(CORPUS) - 1),
           st.lists(st.tuples(st.integers(0, 400), st.integers(-1, 8),
                              st.booleans()), min_size=1, max_size=3),
           st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_validate_matches_the_cubic_oracle(self, idx, changes, as_lists):
        # up to three cells set, each alone or with its mirror, so that some
        # damage keeps the table symmetric; rows as tuples or as lists
        E = CORPUS[idx]
        n = E.size
        table = [list(r) for r in E.sum]
        for cell, value, mirror in changes:
            x, y = (cell // n) % n, cell % n
            v = None if value < 0 or value >= n else value
            table[x][y] = v
            if mirror:
                table[y][x] = v
        rows = table if as_lists else tuple(tuple(r) for r in table)
        mutated = FiniteEffectAlgebra(size=n, zero=E.zero, one=E.one, sum=rows)
        assert validate(mutated) == cubic_validate(mutated)

    @given(st.integers(0, len(CORPUS) - 1), st.integers(0, 400),
           st.integers(-1, 8))
    @settings(max_examples=200, deadline=None)
    def test_order_derivation_fails_loudly_or_works(self, idx, cell, value):
        E = CORPUS[idx]
        n = E.size
        x, y = (cell // n) % n, cell % n
        v = None if value < 0 or value >= n else value
        table = [list(r) for r in E.sum]
        table[x][y] = v
        mutated = FiniteEffectAlgebra(
            size=n, zero=E.zero, one=E.one,
            sum=tuple(tuple(r) for r in table))
        try:
            order = derive_order(mutated)
        except StructuralError:
            return  # non-poset tables are rejected, never mis-ordered
        for a in range(n):
            assert order.leq(a, a)


class TestSectionInvolutions:
    @given(st.integers(0, len(CORPUS) - 1))
    @settings(max_examples=len(CORPUS), deadline=None)
    def test_involution_identities(self, idx):
        E = CORPUS[idx]
        order = derive_order(E)
        for a in E.elements():
            for x in E.elements():
                if order.leq(a, x):
                    y = section_involution(E, a, x)
                    assert section_involution(E, a, y) == x


class TestStateValues:
    @given(st.integers(2, 6))
    @settings(max_examples=5, deadline=None)
    def test_chain_state_is_uniform(self, m):
        E = chain(m)
        got = find_state(E)
        assert isinstance(got, StateVector)
        assert got.values[1] == Fraction(1, m)

    @given(st.integers(1, 4))
    @settings(max_examples=4, deadline=None)
    def test_boolean_states_split_the_atoms(self, k):
        E = boolean_algebra(k)
        got = find_state(E)
        assert isinstance(got, StateVector)
        total = sum(got.values[1 << i] for i in range(k))
        assert total == 1
