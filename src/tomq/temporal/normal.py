"""Normal form and safety for path queries; peerlessness and truncation for
until queries.

The normaliser applies the five rewrites in a fixed order, each to a
fixpoint, so the output is deterministic: drop trivial borders, keep
connectors in single-step form, drop entailed borders next to primitive
blocks under now-or-later, and promote now-or-later to strictly-later when
the adjacent bodies are incompatible. Dropping a body merges the temporal
relations around it; a swallowed next-step turns into one strict step.
"""
from __future__ import annotations

from typing import Optional

from ..dl import Ontology, reasoner
from ..dl.model import _axiom_roles
from ..domainchar import is_meet_reducible
from ..verify import CLASS_ELIQ, CLASS_P
from .model import Conn, LEQ, LESS, PathQuery, UntilQuery, leq, less, pathquery

_SUC = "swallowed-suc"


def _compose(parts: list) -> Optional[Conn]:
    """Merge adjacent temporal relations (connectors and swallowed next-steps)."""
    strict = 0
    for p in parts:
        if p is _SUC:
            strict += 1
        elif p.kind == LESS:
            strict += p.count
    if strict:
        return less(strict)
    return leq()


def normalize(onto: Ontology, q: PathQuery) -> PathQuery:
    r = reasoner(onto)
    blocks = [list(b) for b in q.blocks]
    conns: list = list(q.connectors)

    def drop_first(i: int):
        if len(blocks[i]) > 1:
            blocks[i].pop(0)
            conns[i - 1] = _compose([conns[i - 1], _SUC])
        else:
            _drop_block(i)

    def drop_last(i: int):
        if len(blocks[i]) > 1:
            blocks[i].pop()
            if i < len(conns):
                conns[i] = _compose([_SUC, conns[i]])
        else:
            _drop_block(i)

    def _drop_block(i: int):
        last = len(blocks) - 1
        del blocks[i]
        if i == 0:
            del conns[0]
        elif i < last:
            left, right = conns[i - 1], conns[i]
            del conns[i]
            conns[i - 1] = _compose([left, right])
        else:
            del conns[i - 1]

    def pass_trivial_borders() -> bool:
        for i in range(len(blocks)):
            first_matters = i > 0
            last_matters = i > 0 or len(blocks[i]) > 1
            if first_matters and r.trivial(blocks[i][0]):
                drop_first(i)
                return True
            if last_matters and r.trivial(blocks[i][-1]):
                drop_last(i)
                return True
        return False

    def pass_entailed_next_border() -> bool:
        for i in range(len(conns)):
            if conns[i].kind != LEQ:
                continue
            if len(blocks[i + 1]) == 1 and r.contains(blocks[i][-1], blocks[i + 1][0]):
                _drop_block(i + 1)
                return True
        return False

    def pass_entailed_prev_border() -> bool:
        for i in range(1, len(blocks) - 1):
            if conns[i].kind != LEQ:
                continue
            if len(blocks[i]) == 1 and r.contains(blocks[i + 1][0], blocks[i][0]):
                _drop_block(i)
                return True
        return False

    def pass_incompatible_leq() -> bool:
        for i in range(len(conns)):
            if conns[i].kind == LEQ and not r.compatible(blocks[i][-1], blocks[i + 1][0]):
                conns[i] = less(1)
                return True
        return False

    changed = True
    while changed:
        changed = False
        while pass_trivial_borders():
            changed = True
        while pass_entailed_next_border():
            changed = True
        while pass_entailed_prev_border():
            changed = True
        while pass_incompatible_leq():
            changed = True
    return pathquery(blocks, conns)


def infer_body_class(onto: Ontology, q: PathQuery) -> str:
    has_roles = bool(onto.signature.role_names) and (
        any(b.role_names for b in q.bodies())
        or any(True for ax in onto.axioms for _ in _axiom_roles(ax))
    )
    return CLASS_ELIQ if has_roles else CLASS_P


def is_safe(
    onto: Ontology,
    q: PathQuery,
    size_bound: int = 6,
    qclass: Optional[str] = None,
) -> Optional[bool]:
    """False when the normal form has a lone conjunct (a meet-reducible body
    in a primitive non-initial block); None when meet-reducibility could not
    be decided within the bound."""
    nq = normalize(onto, q)
    if qclass is None:
        qclass = infer_body_class(onto, nq)
    verdict = True
    for i in range(1, len(nq.blocks)):
        if len(nq.blocks[i]) != 1:
            continue
        mr = is_meet_reducible(onto, nq.blocks[i][0], qclass, size_bound)
        if mr is True:
            return False
        if mr is None:
            verdict = None
    return verdict


def is_peerless(onto: Ontology, q: UntilQuery) -> bool:
    """Each domain filler is containment-incomparable with its target; bottom
    fillers are exempt."""
    r = reasoner(onto)
    for filler, target in q.steps:
        if filler is None:
            continue
        if r.contains(target, filler) or r.contains(filler, target):
            return False
    return True


def until_truncate(q: UntilQuery, i: int) -> UntilQuery:
    """Replace the fillers of the first i steps by bottom."""
    steps = tuple(
        (None if j + 1 <= i else filler, target)
        for j, (filler, target) in enumerate(q.steps)
    )
    return UntilQuery(q.head, steps)
