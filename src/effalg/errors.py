"""Exception types shared across the package."""


class EffectAlgebraError(Exception):
    """Base class for all domain errors."""


class StructuralError(EffectAlgebraError):
    """Malformed input table (ragged rows, out-of-range index)."""


class NotBelow(EffectAlgebraError):
    """Difference y - x requested with x not below y."""


class ZeroElement(EffectAlgebraError):
    """Order of the zero element requested."""


class UndefinedSum(EffectAlgebraError):
    """A partial sum in an iterated sum is undefined.

    Carries the witness: the partial sum accumulated so far and the
    element whose addition failed.
    """

    def __init__(self, partial, nxt):
        super().__init__(f"sum undefined at partial={partial}, next={nxt}")
        self.partial = partial
        self.next = nxt


class MeetUndefined(EffectAlgebraError):
    """A required meet does not exist (non-lattice instance)."""

    def __init__(self, x):
        super().__init__(f"meet of {x} and its orthosupplement does not exist")
        self.element = x


class NotLattice(EffectAlgebraError):
    """Operation requires a lattice-ordered algebra."""


class NoMinimum(EffectAlgebraError):
    """No smallest sharp element over x; carries the antichain of minimal ones."""

    def __init__(self, x, antichain):
        super().__init__(f"no minimum sharp bound for {x}; minimal ones: {antichain}")
        self.element = x
        self.antichain = antichain


class HypothesisViolated(EffectAlgebraError):
    """A procedure's stated hypothesis fails on this instance."""

    def __init__(self, hypothesis, detail=None):
        msg = hypothesis if detail is None else f"{hypothesis}: {detail}"
        super().__init__(msg)
        self.hypothesis = hypothesis
        self.detail = detail


class NotInSection(EffectAlgebraError):
    """Section involution requested for x outside [a, 1]."""


class CapExceeded(EffectAlgebraError):
    """A guarded exhaustive scan would exceed its cap."""


class PartTooSmall(EffectAlgebraError):
    """Horizontal sum over a degenerate (1-element) part."""


class EmptyInterval(EffectAlgebraError):
    """Interval [a, b] with a = b (degenerate, rejected)."""


class SizeOverflow(EffectAlgebraError):
    """Constructed algebra would exceed the size guard."""


class NotCentral(EffectAlgebraError):
    """Central decomposition requested at a non-central element."""


class LiftFailed(EffectAlgebraError):
    """No subadditive state on the central interval; lift impossible.

    This signals either a bug or a hypothesis gap; the offending interval
    algebra is attached for inspection.
    """

    def __init__(self, interval_algebra, detail=""):
        super().__init__(f"no subadditive state on the central interval {detail}")
        self.interval_algebra = interval_algebra


class DichotomyFailed(EffectAlgebraError):
    """Atom dichotomy check failed; a falsification alarm, never ignored."""

    def __init__(self, atom, other, detail=""):
        super().__init__(f"dichotomy failed at atoms ({atom}, {other}) {detail}")
        self.atom = atom
        self.other = other


class UnknownClaim(EffectAlgebraError):
    """Claim id not present in the registry."""


class BudgetExceeded(EffectAlgebraError):
    """Search budget exhausted; carries a resumable checkpoint, or None
    where the command keeps none (theorems --sweep)."""

    def __init__(self, checkpoint, cleared_sizes=()):
        super().__init__("enumeration budget exceeded")
        self.checkpoint = checkpoint
        self.cleared_sizes = tuple(cleared_sizes)


class CheckpointError(EffectAlgebraError):
    """A checkpoint is unreadable or belongs to another enumeration."""


class InternalCheckFailed(EffectAlgebraError):
    """A built-in cross-check failed: either a bug or a genuine finding.

    Raised loudly instead of being silently ignored.
    """
