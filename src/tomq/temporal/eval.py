"""Temporal entailment: the inductive semantics, root homomorphisms, and a
sequence-matcher view of path/until queries used for fast evaluation and for
the bounded equivalence oracle.

Both the evaluator and the matcher read a query in its flat form
(`flat_form`): bodies r0..rn, the relation between neighbours and each
until filler. The evaluator decides "body i holds at time point ell and the
bodies after it follow as the relations say", memoised per (i, ell).

Slices beyond the last timestamp are empty, so entailment of a fixed subquery
is constant there; quantified operators therefore only ever need one
representative timestamp beyond the data.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..dl import Eliq, Instance, Ontology, reasoner
from .model import LEQ, LESS, SUC, ExampleSet, PathQuery, TInstance, flat_form


class TemporalEvaluator:
    def __init__(self, onto: Ontology, dinst: TInstance):
        self.onto = onto
        self.d = dinst
        self.r = reasoner(onto)
        self._holds: dict = {}
        self.unsat = any(not self.r.is_satisfiable(s) for s in dinst.slices)

    def domain_holds(self, m: int, q: Eliq) -> bool:
        key = (min(m, self.d.max_time + 1), q._key)
        if key not in self._holds:
            self._holds[key] = self.r.certain_answer(
                self.d.slice_at(m), self.d.point, q
            )
        return self._holds[key]

    def entails(self, q, ell: int = 0) -> bool:
        if self.unsat:
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
        if not body.is_top and not self.domain_holds(ell, body):
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
                    if filler is None or not self.domain_holds(m, filler):
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
    ev = TemporalEvaluator(onto, dinst)
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
            if ev.domain_holds(m, bodies[idx]):
                extend(idx + 1, positions + [m])

    if ev.domain_holds(0, bodies[0]):
        extend(1, [0])
    return out


# ------------------------------------------------------- sequence matchers

class SequenceMatcher:
    """NFA view of a path or until query over a stream of slice letters.

    States are pairs (i, pinned): domain queries 0..i are matched and query
    position i sits at the current letter (pinned) or strictly before it.
    """

    def __init__(self, onto: Ontology, q):
        self.onto = onto
        self.r = reasoner(onto)
        self.bodies, self.rels, self.fillers = flat_form(q)
        self.final = len(self.bodies) - 1
        self._sat_cache: dict = {}

    def letter_profile(self, inst: Instance, point: str) -> tuple[frozenset, frozenset]:
        """Which bodies (and until-fillers) hold at this slice."""
        key = (inst._key, point)
        if key not in self._sat_cache:
            bodies = frozenset(
                i for i, b in enumerate(self.bodies)
                if self.r.certain_answer(inst, point, b)
            )
            fillers = frozenset()
            if self.fillers is not None:
                fillers = frozenset(
                    i for i, f in enumerate(self.fillers)
                    if f is not None and self.r.certain_answer(inst, point, f)
                )
            self._sat_cache[key] = (bodies, fillers)
        return self._sat_cache[key]

    def _close_leq(self, states: set, sat_bodies) -> set:
        if self.fillers is not None:
            return states
        changed = True
        while changed:
            changed = False
            for i, pinned in list(states):
                if pinned and i < self.final and self.rels[i] == LEQ and (i + 1) in sat_bodies:
                    if (i + 1, True) not in states:
                        states.add((i + 1, True))
                        changed = True
        return states

    def start(self, profile) -> frozenset:
        sat_bodies, _ = profile
        if 0 not in sat_bodies:
            return frozenset()
        return frozenset(self._close_leq({(0, True)}, sat_bodies))

    def step(self, states: frozenset, profile) -> frozenset:
        sat_bodies, sat_fillers = profile
        new: set = set()
        for i, pinned in states:
            if i < self.final and (i + 1) in sat_bodies:
                rel = self.rels[i]
                if rel == SUC:
                    if pinned:
                        new.add((i + 1, True))
                else:  # less, leq, until all allow a strictly later match here
                    new.add((i + 1, True))
            # the state survives unpinned when the letter may lie between matches
            if self.fillers is None or i == self.final:
                new.add((i, False))
            else:
                filler = self.fillers[i]
                if filler is not None and i in sat_fillers:
                    new.add((i, False))
        return frozenset(self._close_leq(new, sat_bodies))

    def accepts(self, states: frozenset) -> bool:
        return any(i == self.final for i, _ in states)

    def run(self, dinst: TInstance) -> bool:
        if any(not self.r.is_satisfiable(s) for s in dinst.slices):
            return True
        empty = Instance(dinst.slices[0].individuals)
        profiles = [self.letter_profile(s, dinst.point) for s in dinst.slices]
        states = self.start(profiles[0])
        for p in profiles[1:]:
            if self.accepts(states):
                return True
            states = self.step(states, p)
        tail = self.letter_profile(empty, dinst.point)
        for _ in range(self.final + 2):
            if self.accepts(states):
                return True
            states = self.step(states, tail)
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
