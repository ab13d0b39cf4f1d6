"""Temporal data instances and the two temporal query dialects.

Path queries are stored in block form: maximal next-connected runs of domain
queries, joined by connectors that are either a single `now-or-later` step or
a chain of n strict `later` steps. Parsing maps the operators X -> suc,
F -> <, Fr -> <= (`REL_OF_OP`, the one operator table) so a freshly parsed
query has all connectors of count 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from ..dl import Eliq, Instance, TOP_QUERY

LEQ = "leq"
LESS = "less"
SUC = "suc"
UNTIL = "until"

# the path operators, each with the relation it puts between neighbouring bodies
REL_OF_OP = {"X": SUC, "F": LESS, "Fr": LEQ}
OP_OF_REL = {rel: op for op, rel in REL_OF_OP.items()}


@dataclass(frozen=True)
class Conn:
    kind: str  # "leq" | "less"
    count: int = 1

    def __post_init__(self):
        if self.kind not in (LEQ, LESS):
            raise ValueError(self.kind)
        if self.kind == LESS and self.count < 1:
            raise ValueError("a later-chain needs at least one step")
        if self.kind == LEQ and self.count != 1:
            raise ValueError("now-or-later connectors are single")

    @property
    def ops(self) -> int:
        return self.count if self.kind == LESS else 1


def leq() -> Conn:
    return Conn(LEQ)


def less(n: int = 1) -> Conn:
    return Conn(LESS, n)


@dataclass(frozen=True)
class PathQuery:
    blocks: tuple[tuple[Eliq, ...], ...]
    connectors: tuple[Conn, ...]

    def __post_init__(self):
        if not self.blocks or any(not b for b in self.blocks):
            raise ValueError("blocks must be non-empty")
        if len(self.connectors) != len(self.blocks) - 1:
            raise ValueError("need exactly one connector between adjacent blocks")

    @cached_property
    def tdp(self) -> int:
        return sum(len(b) - 1 for b in self.blocks) + sum(c.ops for c in self.connectors)

    @cached_property
    def next_count(self) -> int:
        return sum(len(b) - 1 for b in self.blocks)

    @cached_property
    def strict_count(self) -> int:
        """Occurrences of X plus strict F steps; the gap parameter is this + 1."""
        return self.next_count + sum(c.count for c in self.connectors if c.kind == LESS)

    @cached_property
    def size(self) -> int:
        return sum(b.size for blk in self.blocks for b in blk) + self.tdp

    def bodies(self) -> list[Eliq]:
        return [b for blk in self.blocks for b in blk]

    def has_leq(self) -> bool:
        return any(c.kind == LEQ for c in self.connectors)

    @cached_property
    def chain(self) -> tuple[tuple[Eliq, ...], tuple[str, ...]]:
        """Flattened (bodies, relations) with later-chains expanded through
        trivial intermediate bodies."""
        bodies: list[Eliq] = list(self.blocks[0])
        rels: list[str] = [SUC] * (len(self.blocks[0]) - 1)
        for conn, blk in zip(self.connectors, self.blocks[1:]):
            if conn.kind == LEQ:
                rels.append(LEQ)
            else:
                for _ in range(conn.count - 1):
                    rels.append(LESS)
                    bodies.append(TOP_QUERY)
                rels.append(LESS)
            bodies.extend(blk)
            rels.extend([SUC] * (len(blk) - 1))
        return tuple(bodies), tuple(rels)

    @cached_property
    def _key(self) -> str:
        parts = []
        for i, blk in enumerate(self.blocks):
            if i:
                c = self.connectors[i - 1]
                parts.append("~<=~" if c.kind == LEQ else "~<%d~" % c.count)
            parts.append("^".join(b._key for b in blk))
        return "".join(parts)

    def __str__(self) -> str:
        from ..textio import print_pathquery

        return print_pathquery(self)


def pathquery(blocks: Sequence[Sequence[Eliq]], connectors: Sequence[Conn]) -> PathQuery:
    """Build a path query, regrouping interior trivial one-slice blocks that
    sit between strict connectors into a single later-chain (the two shapes
    denote the same query; the chain form is canonical)."""
    bl = [list(b) for b in blocks]
    cn = list(connectors)
    i = 1
    while i < len(bl) - 1:
        if (
            len(bl[i]) == 1
            and bl[i][0].is_top
            and cn[i - 1].kind == LESS
            and cn[i].kind == LESS
        ):
            cn[i - 1] = less(cn[i - 1].count + cn[i].count)
            del bl[i]
            del cn[i]
        else:
            i += 1
    return PathQuery(tuple(tuple(b) for b in bl), tuple(cn))


def pathquery_from_ops(bodies: Sequence[Eliq], ops: Sequence[str]) -> PathQuery:
    """Build a path query from bodies r_0..r_n and operators in {X, F, Fr}."""
    if len(ops) != len(bodies) - 1:
        raise ValueError("need one operator between adjacent bodies")
    blocks: list[list[Eliq]] = [[bodies[0]]]
    conns: list[Conn] = []
    for op, body in zip(ops, bodies[1:]):
        rel = REL_OF_OP.get(op)
        if rel is None:
            raise ValueError(f"unknown operator {op!r}")
        if rel == SUC:
            blocks[-1].append(body)
        else:
            conns.append(Conn(rel))
            blocks.append([body])
    return pathquery(blocks, conns)


@dataclass(frozen=True)
class UntilQuery:
    head: Eliq
    steps: tuple[tuple[Optional[Eliq], Eliq], ...] = ()
    # a None filler is the bottom filler: the until collapses to next

    @property
    def depth(self) -> int:
        return len(self.steps)

    @cached_property
    def size(self) -> int:
        total = self.head.size + len(self.steps)
        for filler, target in self.steps:
            total += (filler.size if filler is not None else 1) + target.size
        return total

    def targets(self) -> list[Eliq]:
        return [self.head] + [t for _, t in self.steps]

    @cached_property
    def _key(self) -> str:
        parts = [self.head._key]
        for filler, target in self.steps:
            parts.append("U[%s]%s" % ("!" if filler is None else filler._key, target._key))
        return ";".join(parts)

    def __str__(self) -> str:
        from ..textio import print_untilquery

        return print_untilquery(self)


def untilquery(head: Eliq, steps: Sequence[tuple[Optional[Eliq], Eliq]]) -> UntilQuery:
    return UntilQuery(head, tuple(steps))


def flat_form(q) -> tuple[tuple[Eliq, ...], tuple[str, ...], Optional[tuple[Optional[Eliq], ...]]]:
    """The one form the evaluator and the sequence matcher read: bodies
    r0..rn, the relation between neighbours (`suc`, `less`, `leq` or
    `until`) and, for an until query, the filler of each step (`None` for a
    path query or a bare ELIQ, which is the one-body form)."""
    if isinstance(q, PathQuery):
        bodies, rels = q.chain
        return bodies, rels, None
    if isinstance(q, UntilQuery):
        return tuple(q.targets()), (UNTIL,) * len(q.steps), tuple(f for f, _ in q.steps)
    if isinstance(q, Eliq):
        return (q,), (), None
    raise TypeError(q)


# ----------------------------------------------------- temporal instances

@dataclass(frozen=True)
class TInstance:
    slices: tuple[Instance, ...]
    point: str

    def __post_init__(self):
        if not self.slices:
            raise ValueError("a temporal instance has at least one slice")
        inds = self.slices[0].individuals
        for s in self.slices:
            if s.individuals != inds:
                raise ValueError("slices must share one individual set")
        if self.point not in inds:
            raise ValueError("point not among the individuals")

    @property
    def max_time(self) -> int:
        return len(self.slices) - 1

    @cached_property
    def size(self) -> int:
        return sum(s.size for s in self.slices)

    @cached_property
    def _key(self):
        return (tuple(s._key for s in self.slices), self.point)

    @cached_property
    def _hash(self) -> int:
        return hash((self.slices, self.point))

    def __hash__(self) -> int:
        # a long instance is hashed on every `slice_table` lookup
        return self._hash

    def __reduce__(self):
        # rebuilt rather than copied: the cached hash holds for one process
        return TInstance, (self.slices, self.point)

    def slice_at(self, m: int) -> Instance:
        if m <= self.max_time:
            return self.slices[m]
        return Instance(self.slices[0].individuals)

    def __str__(self) -> str:
        from ..textio import print_tinstance

        return print_tinstance(self)


def tinstance(slices: Sequence[Instance], point: str) -> TInstance:
    """Build a temporal instance, padding every slice to the shared individual set."""
    inds = frozenset().union(*(s.individuals for s in slices)) | {point}
    return TInstance(tuple(s.with_individuals(inds) for s in slices), point)


@dataclass(frozen=True)
class ExampleSet:
    positives: tuple[TInstance, ...]
    negatives: tuple[TInstance, ...]
    meta: tuple[tuple[str, str], ...] = ()  # builder configuration, advisory

    def __iter__(self):
        yield self.positives
        yield self.negatives


def example_set(
    positives: Iterable[TInstance],
    negatives: Iterable[TInstance],
    meta: Iterable[tuple[str, str]] = (),
) -> ExampleSet:
    def dedup(items):
        seen, out = set(), []
        for d in items:
            if d._key not in seen:
                seen.add(d._key)
                out.append(d)
        return tuple(sorted(out, key=lambda d: d._key))

    return ExampleSet(dedup(positives), dedup(negatives), tuple(meta))
