"""The four benchmark workloads: set-up, one timed pass, and its checks.

Each workload is a closed loop with one caller: the next pass starts when
the previous one has returned.  A pass times only the calls into effalg,
each inside ``timed()``, which the runner supplies; the checks against
the reference outputs recorded at the seed commit (``data/reference.json``)
and the re-verification of every state and certificate run outside it.

Calls into effalg go through module attributes (``cli.main``,
``states.find_state``, ``construct.build``), so that a traced run sees
them through the wrappers.

An operation (op) is what ``attempted`` and ``failed`` count: one command
for enum10, one instance verdict for states_lp, one claim row for sweep9
and one key for iso9.  A pass returns the ids of its ops and of those
that failed; the runner counts each op once per run, however many passes
re-ran it, so ``attempted`` and ``failed`` do not depend on how many
passes fit the window.  A failed op is one whose output differs from its
reference.  Any failed op also makes the run incorrect, except on iso9,
where a relabeled key that differs from its class's key is the known
label-blindness defect of ``canonical_key`` and is counted, not hidden.
The iso9 relabelings are a fixed set (the seed sets only the order of
the calls), so every run attempts the same keys and fails the same
ones; the reference lists those whose key differed at the seed commit,
and a key that differs where the seed commit's matched makes the run
incorrect.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from effalg import cli, construct, enumeration, states
from effalg.algfile import load_algebra
from effalg.construct import parse_construction
from effalg.core import FiniteEffectAlgebra, validate
from effalg.states import (
    InfeasibilityCertificate,
    StateVector,
    state_system,
    verify_state,
)

DATA = Path(__file__).resolve().parent / "data"

ISO9_RELABELINGS = 50  # K relabelings per class; 60 * (K + 1) keys a pass

# (query, construction).  ``stateless9`` is the 9-element stateless
# fixture; the construction language cannot name a file, so it is glued in
# by ``_build_instance``.  Labels stay as constructed: under Bland's rule
# the LP time moves 2-3x with the element order, which would swamp the
# seed-to-seed comparison.  The 40-element product(boolean(3), chain(4))
# (82 s at the seed) is left out until the LP gets a presolve.
STATES_LP_INSTANCES = (
    ("find_state", "product(boolean(2), chain(4))"),
    ("find_state", "product(chain(3), chain(4))"),
    ("find_state", "boolean(5)"),
    ("find_state", "horizontal_sum(stateless9, boolean(3))"),
    ("find_state", "horizontal_sum(stateless9, product(boolean(2), chain(3)))"),
    ("find_subadditive_state", "boolean(4)"),
    ("find_subadditive_state", "product(boolean(2), chain(3))"),
    ("state_space_dimension", "horizontal_sum(boolean(2), chain(4), chain(5))"),
    ("state_space_dimension", "product(boolean(1), chain(4))"),
)


@dataclass
class PassResult:
    ops: list  # the id of every op of the pass
    failed: set = field(default_factory=set)  # ids of the failed ops
    problems: list = field(default_factory=list)  # each makes the run incorrect


def load_reference() -> dict:
    with open(DATA / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_stateless9() -> FiniteEffectAlgebra:
    return load_algebra(DATA / "stateless9.alg")


def load_classes9() -> list[FiniteEffectAlgebra]:
    """The 60 classes of size 9 as the seed commit enumerated them."""
    with open(DATA / "classes9.json", encoding="utf-8") as fh:
        tables = json.load(fh)
    out = []
    for t in tables:
        n = len(t)
        E = FiniteEffectAlgebra(
            size=n, zero=0, one=n - 1,
            sum=tuple(tuple(None if v < 0 else v for v in row) for row in t))
        bad = validate(E)
        if bad:
            raise ValueError(f"classes9.json holds an invalid table: {bad[0]}")
        out.append(E)
    return out


def relabel(E: FiniteEffectAlgebra, perm) -> FiniteEffectAlgebra:
    n = E.size
    rows = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            v = E.sum[x][y]
            if v is not None:
                rows[perm[x]][perm[y]] = perm[v]
    return FiniteEffectAlgebra(size=n, zero=perm[E.zero], one=perm[E.one],
                               sum=tuple(tuple(r) for r in rows))


def iso9_perm(cls: int, index: int, n: int) -> list[int]:
    """Random relabeling ``index`` of class ``cls``, the same in every run."""
    perm = list(range(n))
    random.Random(f"iso9 {cls} {index}").shuffle(perm)
    return perm


def _build_instance(text: str, stateless9: FiniteEffectAlgebra):
    glue = "horizontal_sum(stateless9, "
    if text.startswith(glue):
        rest = construct.build(parse_construction(text[len(glue):-1]))
        return construct.horizontal_sum([stateless9, rest])
    return construct.build(parse_construction(text))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv, timed):
    buf = io.StringIO()
    with redirect_stdout(buf), timed():
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


class Workload:
    name = ""
    exercises = ""
    bypasses = ""

    def setup(self, seed: int, ref: dict):
        """Build this run's inputs from the seed; the program sees only these."""
        raise NotImplementedError

    def run_pass(self, inputs, ref: dict, timed) -> PassResult:
        """One pass; ``timed()`` encloses each call to be timed."""
        raise NotImplementedError


class Enum10(Workload):
    name = "enum10"
    exercises = "enumeration (search, leaf canonicity test), core.validate, cli"
    bypasses = "linsolve, states, theorems, structure"
    ARGV = ("enumerate", "10", "--json")

    def setup(self, seed, ref):
        return self.ARGV

    def run_pass(self, argv, ref, timed):
        code, out = run_cli(argv, timed)
        want = ref["enum10"]
        problems = []
        if code != want["exit_code"]:
            problems.append(f"exit code {code}, want {want['exit_code']}")
        if sha256(out) != want["stdout_sha256"]:
            problems.append(f"output differs from the reference: {out[:200]!r}")
        return PassResult(["enum10"], {"enum10"} if problems else set(), problems)


class Sweep9(Workload):
    name = "sweep9"
    exercises = ("enumeration (one pass per claim at the seed), theorems, "
                 "structure, small linsolve LPs, cli")
    bypasses = "large LPs, canonical_key outside the search"
    ARGV = ("theorems", "--sweep", "9", "--json")

    def setup(self, seed, ref):
        return self.ARGV

    def run_pass(self, argv, ref, timed):
        code, out = run_cli(argv, timed)
        want = ref["sweep9"]
        problems = []
        if code != want["exit_code"]:
            problems.append(f"exit code {code}, want {want['exit_code']}")
        try:
            rows = json.loads(out)["claims"]
        except (ValueError, KeyError, TypeError):
            rows = []
        got = {r.get("claim"): r for r in rows if isinstance(r, dict)}
        failed = {r["claim"] for r in want["rows"] if got.get(r["claim"]) != r}
        if failed:
            problems.append(f"{len(failed)} claim rows differ from the reference")
        if sha256(out) != want["stdout_sha256"]:
            problems.append("output bytes differ from the reference")
        return PassResult([r["claim"] for r in want["rows"]], failed, problems)


def _check_verdict(E, query, got, want):
    """Why ``got`` is wrong for this instance, or None when it checks out."""
    if query == "state_space_dimension":
        return None if got == want else f"dimension {got}, want {want}"
    subadditive = query == "find_subadditive_state"
    if isinstance(got, StateVector):
        if want != "state":
            return f"returned a state, want {want}"
        if got.parent != E:
            return "state belongs to another algebra"
        bad = verify_state(E, got, require_subadditive=subadditive)
        return f"state fails verify_state: {bad[0].message}" if bad else None
    if isinstance(got, InfeasibilityCertificate):
        if want != "no_state":
            return f"returned a certificate, want {want}"
        if got.system != state_system(E, subadditive=subadditive):
            return "certificate is for another linear system"
        return None if got.verify() else "certificate fails verification"
    return f"unexpected result {type(got).__name__}"


class StatesLP(Workload):
    name = "states_lp"
    exercises = "states, linsolve (large simplex and rank), construct in set-up"
    bypasses = "enumeration, theorems, cli"

    def setup(self, seed, ref):
        stateless9 = load_stateless9()
        cases = [(q, text, _build_instance(text, stateless9))
                 for q, text in STATES_LP_INSTANCES]
        random.Random(seed).shuffle(cases)
        return cases

    def run_pass(self, cases, ref, timed):
        verdicts = ref["states_lp"]
        results = []
        for query, text, E in cases:
            with timed():
                got = getattr(states, query)(E)
            results.append((query, text, E, got))
        failed, problems = set(), []
        for query, text, E, got in results:
            why = _check_verdict(E, query, got, verdicts[f"{query} {text}"])
            if why:
                failed.add(f"{query} {text}")
                problems.append(f"{query} {text}: {why}")
        return PassResult([f"{q} {t}" for q, t, _ in cases], failed, problems)


class Iso9(Workload):
    name = "iso9"
    exercises = "enumeration.canonical_key (min-key search)"
    bypasses = "search, linsolve, states, theorems, cli"

    def setup(self, seed, ref):
        classes = load_classes9()
        copies = [(i, j, relabel(E, iso9_perm(i, j, E.size)))
                  for i, E in enumerate(classes)
                  for j in range(ISO9_RELABELINGS)]
        random.Random(seed).shuffle(copies)
        return classes, copies

    def run_pass(self, inputs, ref, timed):
        classes, copies = inputs
        key = enumeration.canonical_key
        with timed():
            base = [key(E) for E in classes]
            keys = [key(F) for _, _, F in copies]
        problems = []
        if len(set(base)) != len(base):
            problems.append("two non-isomorphic classes share a key")
        known = ref["iso9"]["mismatched"]
        misses = {(i, j) for (i, j, _), k in zip(copies, keys) if k != base[i]}
        new = sorted((i, j) for i, j in misses if j not in known[str(i)])
        if new:
            problems.append(f"{len(new)} relabeled keys differ from their class's "
                            f"key where the seed commit's matched, e.g. {new[:3]}")
        ops = [(i, None) for i in range(len(base))] + [(i, j) for i, j, _ in copies]
        return PassResult(ops, misses, problems)


WORKLOADS = {w.name: w for w in (Enum10(), StatesLP(), Sweep9(), Iso9())}
