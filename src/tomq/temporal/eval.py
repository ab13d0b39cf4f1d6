"""Temporal entailment: the inductive semantics and a sequence-matcher view
of path/until queries used for fast evaluation and for the temporal
equivalence oracle.

Both the evaluator and the matcher read a query in its flat form
(`flat_form`): bodies r0..rn, the relation between neighbours and each
until filler. The evaluator is one forward pass over time-point bitsets:
S0 is r0's bits at ell alone, and S(i+1) is r(i+1)'s bits within
`advance(Si, rel_i, filler_i)`, the points that the relation reaches from
Si (`suc` shifts by one, `less` takes every point above the lowest bit of
Si, `leq` adds Si itself, `until` carries through the filler's points). q
holds when Sn is not empty. The pass stops at the first empty Si, and it
asks for a body's bits only within the points the pass reaches, and for a
filler's only from the lowest point of Si on. Where only the lowest point
of S(i+1) matters (a `less` or `leq` step follows, or it is Sn), the pass
asks about the reached points in order and stops at the first where the
body holds. The uniqueness check in `tomq.verify` runs the same pass over
many candidates, sharing the states of common prefixes.

Both read the slices of a temporal instance through one `SliceTable`: per
domain query an int whose bit j says that the query holds at slice j, and
whose bit max_time+1 stands for every later time point. Slices beyond the
last timestamp are empty, so entailment of a fixed subquery is constant
there; quantified operators therefore only ever need that one
representative timestamp beyond the data. A table asks the reasoner for a
bit the first time a reader needs it, and only then: the evaluator masks
its reads to the points it reaches, and the matcher steps one slice at a
time and asks a slice only for the bodies its states advance into and the
until fillers they wait on, so a query settled in the first slices costs
certain answers at those slices only. Tables are memoised per process
(`slice_table`), so the candidates of one uniqueness check share one table
per example and ask the reasoner at most once per example, slice and
domain query.

The matcher keeps its set of NFA states as one int: bit 2i+1 is the state
"bodies 0..i are matched and body i sits at the current slice" (pinned),
bit 2i the same with body i strictly before it.
"""
from __future__ import annotations

import functools
import itertools
from typing import Optional

from ..dl import Eliq, Instance, Ontology, point_component, reasoner
from .model import LEQ, LESS, SUC, UNTIL, ExampleSet, TInstance, flat_form


class SliceTable:
    """Which domain queries hold at which slice of one temporal instance,
    asked of the reasoner on demand.

    `bits(q, mask)` is an int whose bit j says that q holds at slice j at
    the instance's point, for the slices of `mask` (every slice when mask is
    None); bit `future` (max_time + 1) is the empty slice that every later
    time point sees. A bit costs one `certain_answer` the first time a
    reader's mask covers it, and never again: per query the table keeps the
    slices it knows and their bits as one `(known, bits)` pair, and a plain
    int once every slice is known. `unsat` says that some slice is
    inconsistent with the ontology, so that the instance entails every
    query; it is decided when the table is built, since one clash anywhere
    settles every query. Otherwise a slice is read as the point's connected
    component only, cut out when a query first asks about it, on which every
    certain answer at the point is the same (see the README). The table
    holds on to its reasoner, which the registry may meanwhile evict.
    Threads may fill one table together: each publishes a correct pair, so
    a racing reader at worst asks again for bits another thread knew.
    """

    def __init__(self, onto: Ontology, dinst: TInstance):
        self.r = r = reasoner(onto)
        self.point = dinst.point
        self.future = dinst.max_time + 1
        self.unsat = not all(r.is_satisfiable(s) for s in dinst.slices)
        self.slices = dinst.slices + (dinst.slice_at(self.future),)
        self.everywhere = (2 << self.future) - 1
        # the slices that `certain_answer` reads, each cut out on first use
        self._parts: list[Optional[Instance]] = [None] * (self.future + 1)
        self._bits: dict[str, int | tuple[int, int]] = {}

    def _part(self, j: int) -> Instance:
        got = self._parts[j]
        if got is None:
            got = self.slices[j]
            if not self.unsat:
                got = point_component(got, self.point)
            self._parts[j] = got
        return got

    def bits(self, q: Eliq, mask: Optional[int] = None) -> int:
        """The slices of `mask` at which q holds; every slice's when mask is
        None. ⊤ holds everywhere without asking the reasoner, since a
        certain answer to ⊤ is always true."""
        got = self._bits.get(q._key)
        if got is None and q.is_top:
            got = self._bits[q._key] = self.everywhere
        if type(got) is int:
            return got if mask is None else got & mask
        want = self.everywhere if mask is None else mask & self.everywhere
        known, bits = got or (0, 0)
        todo = want & ~known
        if todo:
            certain, point = self.r.certain_answer, self.point
            known |= todo
            while todo:
                low = todo & -todo
                if certain(self._part(low.bit_length() - 1), point, q):
                    bits |= low
                todo ^= low
            self._bits[q._key] = bits if known == self.everywhere else (known, bits)
        return bits & want

    def lowest(self, q: Eliq, mask: int) -> int:
        """The lowest slice of `mask` at which q holds, as a one-bit int, or
        0; the slices are asked about in order, up to the first where q
        holds."""
        mask &= self.everywhere
        if self.knows(q):
            got = self.bits(q, mask)
            return got & -got
        while mask:
            low = mask & -mask
            if self.bits(q, low):
                return low
            mask ^= low
        return 0

    def knows(self, q: Eliq) -> bool:
        """Whether `bits(q)` would ask the reasoner nothing."""
        return q.is_top or type(self._bits.get(q._key)) is int


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
    bare ELIQ. The table is asked for body 0 at ell alone, each later body
    only where `advance` reaches (and only up to its first hit there when
    the next step is `less` or `leq`, or the body is the last), and an until
    filler only at and above the lowest point of the states, the only
    filler bits the carry reads."""
    table = slice_table(onto, dinst)
    if table.unsat:
        return True
    bodies, rels, fillers = flat_form(q)
    future = table.future
    states = table.bits(bodies[0], 1 << min(ell, future))
    for i, rel in enumerate(rels):
        if not states:
            return False
        filler = fillers[i] if fillers else None
        fill = 0 if filler is None else table.bits(filler, -(states & -states))
        reach = advance(states, rel, fill, future)
        # a `less` or `leq` step reads only the lowest point of the states
        # before it, and the last states are read only for being nonempty
        if i + 1 == len(rels) or rels[i + 1] in (LESS, LEQ):
            states = table.lowest(bodies[i + 1], reach)
        else:
            states = table.bits(bodies[i + 1], reach)
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
        # the domain queries a letter's profile is read from
        self.asked = self.bodies + tuple(f for f in self.fillers or () if f is not None)
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

    def profile_of(self, held) -> tuple[int, int]:
        """The profile of a letter at which exactly the domain queries in
        `held` hold."""
        bodies = sum(2 << 2 * i for i, body in enumerate(self.bodies) if body in held)
        fillers = sum(1 << 2 * i for i, f in enumerate(self.fillers or ()) if f in held)
        return bodies, fillers

    def _close_leq(self, states: int, bodies: int) -> int:
        """Pinned states before a `leq` also match the next body here."""
        while True:
            more = (states & self._leq) << 2 & bodies & ~states
            if not more:
                return states
            states |= more

    def _moves(self, states: int) -> tuple[int, int]:
        """The occupied states (as bits 2i) and those of them that advance
        on a letter where the next body holds."""
        occupied = (states | states >> 1) & self._occupied
        return occupied, (states >> 1 & self._suc) | (occupied & self._later)

    def start(self, profile: tuple[int, int]) -> int:
        bodies, _ = profile
        return self._close_leq(bodies & 2, bodies)

    def step(self, states: int, profile: tuple[int, int]) -> int:
        bodies, fillers = profile
        occupied, advancing = self._moves(states)
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

    def _read(self, table: SliceTable, j: int, want: int, wait: int) -> tuple[int, int]:
        """The profile of slice j restricted to the bodies of `want` (bits
        2i+1) and the fillers of `wait` (bits 2i): the bodies in ascending
        order, a pinned body before a `leq` wanting the next one too."""
        point, bodies, fillers = 1 << j, 0, 0
        while want:
            low = want & -want
            want ^= low
            if table.bits(self.bodies[low.bit_length() // 2 - 1], point):
                bodies |= low
                want |= (low & self._leq) << 2
        while wait:
            low = wait & -wait
            wait ^= low
            filler = self.fillers[low.bit_length() // 2]
            if filler is not None and table.bits(filler, point):
                fillers |= low
        return bodies, fillers

    def run(self, dinst: TInstance, *, table: SliceTable | None = None) -> bool:
        """q holds at time point 0 of dinst; `table` is dinst's slice table
        when the caller already holds it. The slices are stepped one at a
        time from slice 0, until the states are empty or accept, and then
        the empty future up to `final + 2` times.

        A slice is read lazily: slice 0 for body 0 alone, and a later one
        for body i+1 only when a state advances into it, and for the until
        filler after body i only when state i is occupied and not staying
        anyway. This is sound: `step` reads a body bit only where
        `advancing << 3` is set, or where `_close_leq` carries a pinned body
        across a `leq` (which `_read` follows, reading in ascending order),
        and a filler bit only for occupied states outside `_stay`; `start`
        reads body 0 and the same cascade. So the restricted profile gives
        the same next states as the full one."""
        if table is None:
            table = slice_table(self.onto, dinst)
        if table.unsat:
            return True
        future = table.future
        states = self.start(self._read(table, 0, 2, 0))
        for j in itertools.chain(range(1, future), itertools.repeat(future, self.final + 2)):
            if not states or self.accepts(states):
                break
            occupied, advancing = self._moves(states)
            states = self.step(states, self._read(table, j, advancing << 3, occupied & ~self._stay))
        return self.accepts(states)


def fits(onto: Ontology, examples: ExampleSet, q) -> bool:
    """All positives entail q at (0, point); no negative does."""
    for d in examples.positives:
        if not tentail(onto, d, 0, q):
            return False
    for d in examples.negatives:
        if tentail(onto, d, 0, q):
            return False
    return True
