"""Temporal entailment: the inductive semantics and a sequence-matcher view
of path/until queries used for fast evaluation and for the bounded
equivalence oracle.

Both the evaluator and the matcher read a query in its flat form
(`flat_form`): bodies r0..rn, the relation between neighbours and each
until filler. The evaluator is one forward pass over time-point bitsets:
S0 is r0's bits at ell alone, and S(i+1) is r(i+1)'s bits within
`advance(Si, rel_i, filler_i)`, the points that the relation reaches from
Si (`suc` shifts by one, `less` takes every point above the lowest bit of
Si, `leq` adds Si itself, `until` carries through the filler's points). q
holds when Sn is not empty. The pass stops at the first empty Si, so a
body's bits are asked for only when the pass reaches it. The uniqueness
check in `tomq.verify` runs the same pass over many candidates, sharing
the states of common prefixes.

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

from ..dl import Eliq, Ontology, point_component, reasoner
from .model import LEQ, SUC, UNTIL, ExampleSet, TInstance, flat_form


class SliceTable:
    """Which domain queries hold at which slice of one temporal instance.

    `bits(q)` is an int whose bit j says that q holds at slice j at the
    instance's point; bit `future` (max_time + 1) is the empty slice that
    every later time point sees. Each query costs one `certain_answer` per
    slice, once. `unsat` says that some slice is inconsistent with the
    ontology, so that the instance entails every query. Otherwise each
    slice is kept as the point's connected component only, on which every
    certain answer at the point is the same (see the README). Threads may
    fill one table together; a query they both compute gets the same bits.
    """

    def __init__(self, onto: Ontology, dinst: TInstance):
        self.r = r = reasoner(onto)
        self.point = point = dinst.point
        self.future = dinst.max_time + 1
        self.unsat = not all(r.is_satisfiable(s) for s in dinst.slices)
        slices = dinst.slices + (dinst.slice_at(self.future),)
        if not self.unsat:
            slices = tuple(point_component(s, point) for s in slices)
        self.slices = slices
        self.everywhere = (2 << self.future) - 1
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

    def points(self, q: Eliq) -> int:
        """`bits(q)`, with ⊤ read off as every point without asking the
        reasoner; that is its bits whenever the table is not `unsat`."""
        return self.everywhere if q.is_top else self.bits(q)

    def holds(self, q: Eliq, m: int) -> bool:
        """q holds at time point m."""
        return self.bits(q) >> min(m, self.future) & 1 == 1


# a builder checks that its example set fits before the uniqueness check
# takes the same tables, so a bound above the largest example set (75 in the
# benchmark's seed-11 characterise builds) lets the check reuse them
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


def advance(states: int, rel: str, filler: int, future: int) -> int:
    """The time points the next body may sit at, given the points `states`
    at which the bodies so far are matched. Bits are time points as in
    `SliceTable`; bit `future` stands for every later point, so it reaches
    itself. `filler` is the until filler's bits (0 for the bottom filler)."""
    if not states:
        return 0
    last = 1 << future
    upto = (last << 1) - 1
    if rel == SUC:
        return (states << 1 | states & last) & upto
    if rel == UNTIL:
        # m is reached when m-1 is in states, or m-1 is reached and the
        # filler holds there: the carries of one addition
        carries = ((states | filler) + states) ^ (filler & ~states)
        return carries & upto | states & last
    # `less`: every point above the lowest one, up to the future
    low = states & -states
    later = upto ^ ((low << 1) - 1) | states & last
    return later | states if rel == LEQ else later


def tentail(onto: Ontology, dinst: TInstance, ell: int, q) -> bool:
    """O,D,ell,point entails q; q may be a path query, an until query or a
    bare ELIQ."""
    table = slice_table(onto, dinst)
    if table.unsat:
        return True
    bodies, rels, fillers = flat_form(q)
    future = table.future
    states = table.points(bodies[0]) & 1 << min(ell, future)
    for i, rel in enumerate(rels):
        if not states:
            return False
        filler = fillers[i] if fillers else None
        reach = advance(states, rel, 0 if filler is None else table.points(filler), future)
        states = reach & table.points(bodies[i + 1])
    return states != 0


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

    def accepts_at_end(self, states: int, future: tuple[int, int]) -> bool:
        """Whether the states accept within `final + 2` more letters of the
        empty future, whose profile is `future`."""
        for _ in range(self.final + 2):
            if not states or self.accepts(states):
                break
            states = self.step(states, future)
        return self.accepts(states)

    def run(self, dinst: TInstance, *, table: SliceTable | None = None) -> bool:
        """q holds at time point 0 of dinst; `table` is dinst's slice table
        when the caller already holds it."""
        if table is None:
            table = slice_table(self.onto, dinst)
        if table.unsat:
            return True
        profiles = self.profiles(table)
        future = profiles.pop()
        states = self.start(profiles[0])
        for p in profiles[1:]:
            if not states or self.accepts(states):
                break
            states = self.step(states, p)
        return self.accepts_at_end(states, future)


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
