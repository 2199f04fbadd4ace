"""The .alg text format: hand-writable algebra files.

Explicit form:

    version 1
    elements 0 a a' b 1
    zero 0
    one 1
    sum a a' = 1
    sum b b = 1

Sums involving zero are implied (and may be overridden to build broken
fixtures); each unordered pair needs only one orientation.  Alternatively a
single `construct <spec>` line names a construction, e.g.
`construct horizontal_sum(boolean(2), chain(2))`.
"""

from __future__ import annotations

from .construct import MAX_DIGITS, build, parse_construction
from .core import FiniteEffectAlgebra
from .errors import EffectAlgebraError, InternalCheckFailed

__all__ = ["AlgebraFileError", "load_algebra", "loads_algebra", "dump_algebra"]

FORMAT_VERSION = 1


class AlgebraFileError(EffectAlgebraError):
    """Unreadable or ill-formed algebra file."""


def loads_algebra(text: str) -> FiniteEffectAlgebra:
    version = None
    labels = None
    zero_label = None
    one_label = None
    sums = []
    construct_spec = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]

        def fail(msg):
            raise AlgebraFileError(f"line {lineno}: {msg}")

        if key == "version":
            if len(parts) != 2 or not parts[1].isdecimal():
                fail("version needs a single integer")
            digits = len(parts[1].lstrip("0"))
            if digits > MAX_DIGITS:
                fail(f"unsupported version of {digits} digits")
            version = int(parts[1])
        elif key == "elements":
            if labels is not None:
                fail("duplicate elements line")
            labels = parts[1:]
            if not labels:
                fail("elements line is empty")
            if len(set(labels)) != len(labels):
                fail("element labels must be unique")
        elif key == "zero":
            if len(parts) != 2:
                fail("zero needs one label")
            zero_label = parts[1]
        elif key == "one":
            if len(parts) != 2:
                fail("one needs one label")
            one_label = parts[1]
        elif key == "sum":
            if len(parts) != 5 or parts[3] != "=":
                fail("sum lines look like: sum X Y = Z")
            sums.append((lineno, parts[1], parts[2], parts[4]))
        elif key == "construct":
            construct_spec = line[len("construct"):].strip()
            if not construct_spec:
                fail("construct needs a specification")
        else:
            fail(f"unknown directive {key!r}")

    if version != FORMAT_VERSION:
        raise AlgebraFileError(f"missing or unsupported version (need {FORMAT_VERSION})")
    if construct_spec is not None:
        if labels is not None or sums or zero_label or one_label:
            raise AlgebraFileError(
                "a file holds either a table or a construction, not both")
        try:
            return build(parse_construction(construct_spec))
        except InternalCheckFailed:
            raise
        except (EffectAlgebraError, RecursionError) as exc:  # too deep a nesting
            raise AlgebraFileError(f"bad construction: {exc}") from exc

    if labels is None:
        raise AlgebraFileError("no elements line and no construction")
    if zero_label is None or one_label is None:
        raise AlgebraFileError("zero and one must both be named")
    index = {lab: i for i, lab in enumerate(labels)}
    for lab in (zero_label, one_label):
        if lab not in index:
            raise AlgebraFileError(f"label {lab!r} is not an element")

    n = len(labels)
    zero = index[zero_label]
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        table[zero][x] = x
        table[x][zero] = x
    seen = {}
    for lineno, lx, ly, lz in sums:
        for lab in (lx, ly, lz):
            if lab not in index:
                raise AlgebraFileError(f"line {lineno}: unknown label {lab!r}")
        x, y, z = index[lx], index[ly], index[lz]
        pair = (min(x, y), max(x, y))
        if pair in seen and seen[pair] != z:
            raise AlgebraFileError(
                f"line {lineno}: pair ({lx},{ly}) already set differently")
        seen[pair] = z
        table[x][y] = z
        table[y][x] = z
    return FiniteEffectAlgebra(
        size=n, zero=zero, one=index[one_label],
        sum=tuple(tuple(r) for r in table), labels=tuple(labels))


def load_algebra(path) -> FiniteEffectAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AlgebraFileError(f"cannot read {path}: {exc}") from exc
    return loads_algebra(text)


def dump_algebra(E: FiniteEffectAlgebra) -> str:
    """Serialize a valid algebra; sums with zero stay implicit."""
    labels = [E.label(x) for x in E.elements()]
    if len(set(labels)) != len(labels):
        raise AlgebraFileError("labels are not unique; cannot serialize")
    for lab in labels:
        if not lab or any(c.isspace() for c in lab) or "#" in lab or lab == "=":
            raise AlgebraFileError(f"label {lab!r} is not file-safe")
    out = []
    out.append(f"version {FORMAT_VERSION}")
    out.append("elements " + " ".join(labels))
    out.append(f"zero {labels[E.zero]}")
    out.append(f"one {labels[E.one]}")
    for x in E.elements():
        for y in range(x, E.size):
            z = E.sum[x][y]
            if z is not None and x != E.zero and y != E.zero:
                out.append(f"sum {labels[x]} {labels[y]} = {labels[z]}")
    return "\n".join(out) + "\n"
