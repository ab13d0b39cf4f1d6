"""Temporal entailment: the inductive semantics, root homomorphisms, and a
sequence-matcher view of path/until queries used for fast evaluation and for
the bounded equivalence oracle.

Both the evaluator and the matcher read a query in its flat form
(`flat_form`): bodies r0..rn, the relation between neighbours and each
until filler. The evaluator decides "body i holds at time point ell and the
bodies after it follow as the relations say", memoised per (i, ell).

Both read the slices of a temporal instance through one `SliceTable`: per
domain query an int whose bit j says that the query holds at slice j, and
whose bit max_time+1 stands for every later time point. Slices beyond the
last timestamp are empty, so entailment of a fixed subquery is constant
there; quantified operators therefore only ever need that one
representative timestamp beyond the data. Tables are memoised per process
(`slice_table`), so the candidates of one uniqueness check share one table
per example instead of asking the reasoner again per candidate and slice.

The matcher keeps its set of NFA states as one int: bit 2i+1 is the state
"bodies 0..i are matched and body i sits at the current slice" (pinned),
bit 2i the same with body i strictly before it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from ..dl import Eliq, Ontology, reasoner
from .model import LEQ, LESS, SUC, ExampleSet, PathQuery, TInstance, flat_form


class SliceTable:
    """Which domain queries hold at which slice of one temporal instance.

    `bits(q)` is an int whose bit j says that q holds at slice j at the
    instance's point; bit `future` (max_time + 1) is the empty slice that
    every later time point sees. Each query costs one `certain_answer` per
    slice, once. `unsat` says that some slice is inconsistent with the
    ontology, so that the instance entails every query. Threads may fill
    one table together; a query they both compute gets the same bits.
    """

    def __init__(self, onto: Ontology, dinst: TInstance):
        self.r = r = reasoner(onto)
        self.point = dinst.point
        self.future = dinst.max_time + 1
        self.slices = dinst.slices + (dinst.slice_at(self.future),)
        self.unsat = not all(r.is_satisfiable(s) for s in dinst.slices)
        self._bits: dict[str, int] = {}

    def bits(self, q: Eliq) -> int:
        got = self._bits.get(q._key)
        if got is None:
            got = 0
            for j, s in enumerate(self.slices):
                if self.r.certain_answer(s, self.point, q):
                    got |= 1 << j
            self._bits[q._key] = got
        return got

    def holds(self, q: Eliq, m: int) -> bool:
        """q holds at time point m."""
        return self.bits(q) >> min(m, self.future) & 1 == 1


# a uniqueness check visits its examples in a cycle, once per candidate, so
# the bound must exceed the largest example set (75 in the benchmark's
# seed-11 characterise builds) or every visit misses
SLICE_TABLE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=SLICE_TABLE_CACHE_SIZE)
def slice_table(onto: Ontology, dinst: TInstance) -> SliceTable:
    """The `SliceTable` of dinst under onto. Memoised per process (at most
    SLICE_TABLE_CACHE_SIZE instances, emptied by `clear_slice_tables`), so
    the evaluator and every matcher run on one instance share its table."""
    return SliceTable(onto, dinst)


def clear_slice_tables() -> None:
    """Forget every memoised `slice_table`."""
    slice_table.cache_clear()


class TemporalEvaluator:
    def __init__(self, onto: Ontology, dinst: TInstance):
        self.d = dinst
        self.table = slice_table(onto, dinst)

    def entails(self, q, ell: int = 0) -> bool:
        if self.table.unsat:
            return True
        self._bodies, self._rels, self._fillers = flat_form(q)
        self._memo: dict = {}
        return self._from(0, ell)

    def _from(self, i: int, ell: int) -> bool:
        """Body i holds at ell and bodies i+1.. follow it as the relations say."""
        # every position past the data sees the all-empty future, so they are
        # interchangeable; clamping keeps the search space finite
        maxd = self.d.max_time
        ell = min(ell, maxd + 1)
        key = (i, ell)
        memo = self._memo
        if key in memo:
            return memo[key]
        body = self._bodies[i]
        holds = self.table.holds
        if not body.is_top and not holds(body, ell):
            out = False
        elif i == len(self._rels):
            out = True
        else:
            rel = self._rels[i]
            cap = max(ell, maxd) + 1
            if rel == SUC:
                out = self._from(i + 1, ell + 1)
            elif rel == LESS:
                out = any(self._from(i + 1, m) for m in range(ell + 1, cap + 1))
            elif rel == LEQ:
                out = any(self._from(i + 1, m) for m in range(ell, cap + 1))
            else:  # until: the filler holds strictly between; None is bottom
                filler = self._fillers[i]
                out = False
                for m in range(ell + 1, cap + 1):
                    if self._from(i + 1, m):
                        out = True
                        break
                    if filler is None or not holds(filler, m):
                        break
        memo[key] = out
        return out


def tentail(onto: Ontology, dinst: TInstance, ell: int, q) -> bool:
    """O,D,ell,point entails q; q may be a path query, an until query or a
    bare ELIQ."""
    return TemporalEvaluator(onto, dinst).entails(q, ell)


@dataclass(frozen=True)
class RootHom:
    assignment: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.assignment)


def root_homs(onto: Ontology, q: PathQuery, dinst: TInstance) -> list[RootHom]:
    """All root homomorphisms within the evaluation horizon, lexicographically."""
    holds = slice_table(onto, dinst).holds
    bodies, rels = q.chain
    horizon = dinst.max_time + q.tdp + 1
    out: list[RootHom] = []

    def extend(idx: int, positions: list[int]):
        if idx == len(bodies):
            out.append(
                RootHom(tuple((f"t{i}", p) for i, p in enumerate(positions)))
            )
            return
        rel = rels[idx - 1]
        prev = positions[-1]
        if rel == SUC:
            candidates = [prev + 1]
        elif rel == LESS:
            candidates = range(prev + 1, horizon + 1)
        else:
            candidates = range(prev, horizon + 1)
        for m in candidates:
            if m > horizon:
                continue
            if holds(bodies[idx], m):
                extend(idx + 1, positions + [m])

    if holds(bodies[0], 0):
        extend(1, [0])
    return out


# ------------------------------------------------------- sequence matchers

class SequenceMatcher:
    """NFA view of a path or until query over a stream of slice letters.

    A state set is one int (see the module docstring). A letter's profile is
    a pair of ints: bit 2i+1 of the first says that body i holds at the
    letter, bit 2i of the second that the until filler after body i does.
    """

    def __init__(self, onto: Ontology, q):
        self.onto = onto
        self.r = reasoner(onto)  # perfbench/spans.py keys traced runs by it
        self.bodies, self.rels, self.fillers = flat_form(q)
        self.final = n = len(self.bodies) - 1
        self._accepting = 3 << 2 * n
        self._occupied = (4 ** (n + 1) - 1) // 3  # bits 0, 2, .., 2n
        # states that advance on a matching letter: pinned ones before a
        # `suc`, any before a `less`, `leq` or `until`
        self._suc = self._later = self._leq = 0
        for i, rel in enumerate(self.rels):
            if rel == SUC:
                self._suc |= 1 << 2 * i
            else:
                self._later |= 1 << 2 * i
            if rel == LEQ:
                self._leq |= 2 << 2 * i
        # states that survive any letter unpinned: all of a path query's,
        # only the final one of an until query's
        self._stay = self._occupied if self.fillers is None else 1 << 2 * n

    def profiles(self, table: SliceTable) -> list[tuple[int, int]]:
        """The profile of every slice of the table, the empty future last."""
        bodies = [0] * (table.future + 1)
        fillers = [0] * (table.future + 1)
        for i, body in enumerate(self.bodies):
            _spread(bodies, table.bits(body), 2 << 2 * i)
        for i, filler in enumerate(self.fillers or ()):
            if filler is not None:
                _spread(fillers, table.bits(filler), 1 << 2 * i)
        return list(zip(bodies, fillers))

    def _close_leq(self, states: int, bodies: int) -> int:
        """Pinned states before a `leq` also match the next body here."""
        while True:
            more = (states & self._leq) << 2 & bodies & ~states
            if not more:
                return states
            states |= more

    def start(self, profile: tuple[int, int]) -> int:
        bodies, _ = profile
        return self._close_leq(bodies & 2, bodies)

    def step(self, states: int, profile: tuple[int, int]) -> int:
        bodies, fillers = profile
        occupied = (states | states >> 1) & self._occupied
        advancing = (states >> 1 & self._suc) | (occupied & self._later)
        new = (advancing << 3 & bodies) | (occupied & (self._stay | fillers))
        return self._close_leq(new, bodies)

    def accepts(self, states: int) -> bool:
        return states & self._accepting != 0

    def run(self, dinst: TInstance) -> bool:
        table = slice_table(self.onto, dinst)
        if table.unsat:
            return True
        profiles = self.profiles(table)
        tail = profiles.pop()
        states = self.start(profiles[0])
        for p in profiles[1:] + [tail] * (self.final + 2):
            if not states or self.accepts(states):
                break
            states = self.step(states, p)
        return self.accepts(states)


def _spread(out: list[int], bits: int, mark: int) -> None:
    """Set `mark` in out[j] for every bit j of `bits`."""
    j = 0
    while bits:
        if bits & 1:
            out[j] |= mark
        bits >>= 1
        j += 1


def fits(onto: Ontology, examples: ExampleSet, q) -> bool:
    """All positives entail q at (0, point); no negative does."""
    for d in examples.positives:
        if not tentail(onto, d, 0, q):
            return False
    for d in examples.negatives:
        if tentail(onto, d, 0, q):
            return False
    return True
