"""The claims' earlier routes through built algebras.

Each function builds [0, z] with construct.interval, or a block as an
algebra of its own, and asks derive_order, is_modular, is_atomic or
is_archimedean about it, as the claim registry did before it read
intervals and blocks off the instance's own order.  Their verdicts and
witnesses are the ones the registry must report on lattice instances.
"""

from effalg.construct import interval
from effalg.core import FiniteEffectAlgebra, bits, derive_order
from effalg.structure import (CheckResult, center_by_identity, is_archimedean,
                              is_atomic, is_modular)


def lower_interval(E, z):
    """[0, z] as an algebra; [0, 1] is E itself."""
    return E if z == E.one else interval(E, E.zero, z)


def modular_below(E, z):
    """is_modular of [0, z] built as an algebra, for z nonzero, with its
    witness relabeled to E's elements: the interval's elements are those
    below z, in E's order."""
    got = is_modular(lower_interval(E, z))
    if got:
        return got
    carrier = list(bits(derive_order(E).down[z]))
    return CheckResult(False, tuple(carrier[i] for i in got.witness))


def qualifying_centrals(E):
    """The hypothesis of state.from_central_element: each nonzero central
    c, ascending, whose [0, c], built, is a modular lattice."""
    out = []
    for c in bits(center_by_identity(E)):
        if c == E.zero:
            continue
        sub = lower_interval(E, c)
        if derive_order(sub).is_lattice and is_modular(sub):
            out.append(c)
    return tuple(out)


def finite_interval_complete(E):
    """finite.interval_complete: each [0, x] with x nonzero is a lattice;
    witness (x,).  Every element of a finite algebra is finite."""
    for x in E.elements():
        if x != E.zero and not derive_order(lower_interval(E, x)).is_lattice:
            return False, (x,)
    return True, None


def atomic_below_joins(E, mask):
    """Every nonzero z that is the join of the elements of mask below it
    has an atomic interval [0, z]; witness (z,)."""
    order = derive_order(E)
    for z in E.elements():
        j = E.zero
        for d in bits(order.down[z] & mask):
            j = order.join[j][d]
        if j != z or z == E.zero:
            continue
        if not is_atomic(lower_interval(E, z)):
            return False, (z,)
    return True, None


def block_algebra(E, blk):
    """The block (a bitmask) as an algebra: E's sums restricted to its
    members."""
    members = tuple(bits(blk))
    pos = {x: i for i, x in enumerate(members)}
    table = tuple(
        tuple(pos[E.sum[x][y]] if E.sum[x][y] is not None else None
              for y in members)
        for x in members)
    return FiniteEffectAlgebra(
        size=len(members), zero=pos[E.zero], one=pos[E.one], sum=table)


def block_archimedean_atomic(E, blk):
    B = block_algebra(E, blk)
    return bool(is_archimedean(B) and is_atomic(B))
