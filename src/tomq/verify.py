"""Brute-force enumeration oracles and an exact temporal-equivalence oracle.

The enumeration checks are bounded by construction and say so in their
verdicts: a pass certifies the property against everything enumerable
within the given bounds, never beyond them. Temporal equivalence
(`tequiv_witness`) is decided exactly, by a product-automaton search over
every profile a slice can show.
"""
from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from .dl import (
    BOTTOM_QUERY,
    TOP_QUERY,
    Eliq,
    Ontology,
    Pointed,
    Role,
    Signature,
    anchored,
    conjoin,
    make_eliq,
    reasoner,
    sorted_queries,
)
from .temporal.eval import SequenceMatcher, SliceTable, advance, slice_table
from .temporal.model import (
    LEQ,
    OP_OF_REL,
    REL_OF_OP,
    UNTIL,
    ExampleSet,
    TInstance,
    pathquery_from_ops,
    tinstance,
    untilquery,
)

CLASS_P = "p"
CLASS_ELQ = "elq"
CLASS_ELIQ = "eliq"
CLASS_DIA = "dia"
CLASS_NEXTDIA = "nextdia"
CLASS_UNTIL = "until"
DOMAIN_CLASSES = (CLASS_P, CLASS_ELQ, CLASS_ELIQ)
TEMPORAL_CLASSES = (CLASS_DIA, CLASS_NEXTDIA, CLASS_UNTIL)


@dataclass(frozen=True)
class EnumSpec:
    signature: Signature
    qclass: str = CLASS_ELIQ
    size_bound: int = 4          # domain-query size (conjunct count for class p)
    depth_bound: int = 2         # temporal depth for dia/nextdia/until
    max_witnesses: int = 20


@dataclass
class Verdict:
    passed: bool
    witnesses: list = field(default_factory=list)
    bounded_by: Optional[EnumSpec] = None

    def __bool__(self):
        return self.passed


# -------------------------------------------------------------- enumeration

def _enum_prop(sig: Signature, size_bound: int) -> list[Eliq]:
    names = sorted(sig.concept_names)
    out = []
    for k in range(0, min(size_bound, len(names)) + 1):
        for combo in itertools.combinations(names, k):
            out.append(make_eliq(combo))
    return out


def _enum_trees(sig: Signature, size_bound: int, inverses: bool) -> list[Eliq]:
    """All canonical trees of size <= size_bound, in (size, key) order.

    One bottom-up pass by exact size. A tree of size s is a root with k names
    and an edge multiset of cost s - 1 - k, an edge costing its subtree's
    size. The multisets of cost c draw on the edges to trees of size <= c,
    listed in `make_eliq`'s edge order (role as printed, then subtree key);
    taken as non-decreasing index sequences over that list, each multiset
    comes once and already sorted, so every tree is built directly and
    exactly once."""
    names = sorted(sig.concept_names)
    roles = [Role(r) for r in sorted(sig.role_names)]
    if inverses:
        roles += [r.inverse for r in roles]
    roles.sort(key=str)
    out: list[Eliq] = []
    # edge_lists[c]: the edge multisets of total cost exactly c
    edge_lists: list[list[tuple]] = [[()]]
    for s in range(1, size_bound + 1):
        if s > 1:
            # trees of size < s are all built: the multisets of cost s - 1
            smaller = sorted(out, key=attrgetter("_key"))
            edges = [(role, t) for role in roles for t in smaller]
            edge_lists.append(_multisets(edges, s - 1))
        level = [
            Eliq(subset, lst)
            for k in range(min(s - 1, len(names)) + 1)
            for subset in itertools.combinations(names, k)
            for lst in edge_lists[s - 1 - k]
        ]
        out += sorted(level, key=attrgetter("_key"))
    return out


def _multisets(edges: list[tuple], cost: int) -> list[tuple]:
    """The non-decreasing index sequences over `edges` whose subtree sizes
    sum to exactly `cost`, as tuples of edges."""
    # per subtree size, the indices of its edges in increasing order
    by_size: list[list[int]] = [[] for _ in range(cost + 1)]
    for i, (_, t) in enumerate(edges):
        by_size[t.size].append(i)
    out: list[tuple] = []
    picked: list[tuple] = []

    def extend(start: int, left: int) -> None:
        if not left:
            out.append(tuple(picked))
            return
        for size in range(1, left + 1):
            at = by_size[size]
            for i in at[bisect.bisect_left(at, start):]:
                picked.append(edges[i])
                extend(i, left - size)
                picked.pop()

    extend(0, cost)
    return out


ENUM_CACHE_SIZE = 32


def enum_domain_queries(sig: Signature, qclass: str, size_bound: int) -> tuple[Eliq, ...]:
    """Every domain query of the class within the size bound, in a fixed
    order. The result depends only on the arguments and is memoised per
    process (at most ENUM_CACHE_SIZE keys, emptied by `clear_enum_cache`), so
    it is an immutable tuple that callers share."""
    return _enum_domain_cached(sig, qclass, size_bound)


@functools.lru_cache(maxsize=ENUM_CACHE_SIZE)
def _enum_domain_cached(sig: Signature, qclass: str, size_bound: int) -> tuple[Eliq, ...]:
    if qclass == CLASS_P:
        return tuple(_enum_prop(sig, size_bound))
    return tuple(_enum_trees(sig, size_bound, inverses=qclass != CLASS_ELQ))


def clear_enum_cache() -> None:
    """Forget every memoised `enum_domain_queries` result."""
    _enum_domain_cached.cache_clear()


def enum_shapes(spec: EnumSpec) -> tuple[tuple[Eliq, ...], list[tuple[list, ...]]]:
    """Every query of the class within the bounds as a flat shape over the
    domain, grouped, in the order of `enum_queries`: the domain, and groups
    of levels whose shapes are `itertools.product(*levels)`.

    A shape is (b0, step1, .., stepn): b0 indexes the domain, and step i is
    (rel, filler, body) with rel the relation before body i, filler the until
    filler's index (None for bottom, and for path queries) and body an index.
    A domain query's shape is (b0,). Within a group the last body varies
    fastest, so shapes sharing a prefix come one after another, and every
    step of a level is one shared object."""
    if spec.qclass not in DOMAIN_CLASSES + TEMPORAL_CLASSES:
        raise ValueError(f"unknown query class {spec.qclass!r}")
    if spec.qclass in DOMAIN_CLASSES:
        domain = enum_domain_queries(spec.signature, spec.qclass, spec.size_bound)
        return domain, [(range(len(domain)),)]
    domain = enum_domain_queries(spec.signature, CLASS_P, spec.size_bound)
    bodies = range(len(domain))
    if spec.qclass == CLASS_UNTIL:
        until_steps = [(UNTIL, f, b) for f in (None, *bodies) for b in bodies]
        return domain, [(bodies,) + (until_steps,) * k for k in range(spec.depth_bound + 1)]
    ops_menu = [op for op, rel in REL_OF_OP.items() if rel != LEQ or spec.qclass == CLASS_DIA]
    steps = {op: [(REL_OF_OP[op], None, b) for b in bodies] for op in ops_menu}
    return domain, [
        (bodies,) + tuple(steps[op] for op in ops)
        for k in range(spec.depth_bound + 1)
        for ops in itertools.product(ops_menu, repeat=k)
    ]


def shape_query(qclass: str, domain: tuple[Eliq, ...], shape: tuple):
    """The query that `enum_shapes` lists as this shape."""
    head, steps = domain[shape[0]], shape[1:]
    if qclass == CLASS_UNTIL:
        return untilquery(head, [
            (None if f is None else domain[f], domain[b]) for _, f, b in steps
        ])
    if qclass in (CLASS_DIA, CLASS_NEXTDIA):
        return pathquery_from_ops(
            [head] + [domain[b] for _, _, b in steps], [OP_OF_REL[rel] for rel, _, _ in steps]
        )
    return head


def enum_queries(spec: EnumSpec) -> Iterator:
    """Every query of the class within the bounds, once, in a fixed order."""
    domain, groups = enum_shapes(spec)
    for levels in groups:
        for shape in itertools.product(*levels):
            yield shape_query(spec.qclass, domain, shape)


# ------------------------------------------------------------------- checks

def check_frontier(onto: Ontology, q: Eliq, frontier: Iterable[Eliq], spec: EnumSpec) -> Verdict:
    """Frontier conditions: (a) each member strictly weaker than q, exactly;
    (b) everything weaker than q within the bound is covered by a member.

    A candidate of (b) is tested cheapest first: q ⊑ cand (read from q's
    homomorphism table), then whether some member covers it (read from the
    members' tables), and only then cand ⊑ q, a chase of the candidate's
    own hat. The three tests are one conjunction, so the order changes no
    verdict and no witness."""
    r = reasoner(onto)
    members = sorted_queries(frontier)
    witnesses = []
    for m in members:
        if not (r.contains(q, m) and not r.contains(m, q)):
            witnesses.append(("condition-a", m))
    for cand in enum_queries(spec):
        if len(witnesses) >= spec.max_witnesses:
            break
        if (r.contains(q, cand) and not any(r.contains(m, cand) for m in members)
                and not r.contains(cand, q)):
            witnesses.append(("condition-b", cand))
    return Verdict(not witnesses, witnesses, spec)


def check_split_partner(
    onto: Ontology, sig: Signature, queries: Iterable[Eliq], members: Iterable[Pointed], spec: EnumSpec
) -> Verdict:
    """Split-partner condition: for every candidate, ⊥ tried first and then
    every query the spec enumerates, some member entails the candidate at its
    point exactly when the candidate implies none of the target queries.
    Witnesses are the candidates on which the two sides disagree."""
    r = reasoner(onto)
    qs = list(queries)
    mems = list(members)
    witnesses = []

    def covered(cand: Eliq) -> bool:
        return any(r.certain_answer(p.instance, p.point, cand) for p in mems)

    def free_of_targets(cand: Eliq) -> bool:
        return all(not r.contains(cand, t) for t in qs)

    for cand in itertools.chain([BOTTOM_QUERY], enum_queries(spec)):
        if len(witnesses) >= spec.max_witnesses:
            break
        if covered(cand) != free_of_targets(cand):
            witnesses.append(cand)
    return Verdict(not witnesses, witnesses, spec)


class _ExamplePass:
    """The forward pass of `tentail` at time point 0 of one example, over the
    shapes of one uniqueness check. The state after each shape prefix is
    kept for the check, so a shape pays only for its last entry, and each
    domain query's bits are read once."""

    def __init__(self, table: SliceTable, domain: tuple[Eliq, ...]):
        self.table = table
        self.domain = domain
        self._points: list[Optional[int]] = [None] * len(domain)
        self._after: dict[tuple, int] = {(): 1}  # before b0: time point 0 alone
        self.state = 1                           # after the prefix entered last
        self.serial = -1

    def points(self, b: int) -> int:
        got = self._points[b]
        if got is None:
            got = self._points[b] = self.table.bits(self.domain[b])
        return got

    def extend(self, state: int, entry) -> int:
        """The state after one more entry of a shape: b0, or a step."""
        if type(entry) is int:
            return state & self.points(entry)
        rel, filler, body = entry
        fill = 0 if filler is None else self.points(filler)
        return advance(state, rel, fill, self.table.future) & self.points(body)

    def after(self, prefix: tuple) -> int:
        got = self._after.get(prefix)
        if got is None:
            got = self.after(prefix[:-1])
            if got:
                got = self.extend(got, prefix[-1])
            self._after[prefix] = got
        return got

    def enter(self, prefix: tuple, serial: int) -> None:
        self.state = self.after(prefix)
        self.serial = serial

    def entails(self, last) -> bool:
        """The shape `prefix + (last,)` holds at time point 0."""
        return self.state != 0 and self.extend(self.state, last) != 0


def _fitting_shapes(groups: list, checks: list) -> Iterator[tuple]:
    """The shapes of the groups, in order, that every check's example entails
    (a positive) or does not (a negative); the checks run in order and stop
    at the first that refuses. A prefix that a positive example refuses as a
    whole is skipped."""
    serial = 0
    for levels in groups:
        *inner, last = levels
        for prefix in itertools.product(*inner):
            serial += 1
            for entry in last:
                for ex, want in checks:
                    if ex.serial != serial:
                        ex.enter(prefix, serial)
                    if ex.entails(entry) != want:
                        break
                else:
                    yield prefix + (entry,)
                    continue
                if want and not ex.state:
                    break


def check_unique_characterisation(onto: Ontology, q, examples: ExampleSet, spec: EnumSpec) -> Verdict:
    """Pass iff q fits and every enumerated query fitting the example set is
    temporally equivalent to q, decided exactly; the verdict is bounded by
    the candidate enumeration alone.

    Candidates are decided as flat shapes (`enum_shapes`) by the forward
    bitset pass of `tentail`, per example in order, with the state after
    each shape prefix kept per example for the check. A prefix on which a
    positive example's pass is already empty is skipped whole. Only a shape
    that fits becomes a query; `SequenceMatcher.run` re-checks it on every
    example, independently of the pass, before `tequiv_bounded` compares it
    with q; a candidate equal to q needs no comparison. The matcher also
    decides whether q fits. Every example's table is fetched once and held
    for the whole check.

    The verdict holds only within ``spec.qclass``: class ``dia`` enumerates
    next, later and now-or-later (``X``, ``F``, ``Fr``), class ``nextdia``
    only ``X`` and ``F``, so a set unique in ``nextdia`` may still admit a
    now-or-later fitter in ``dia``."""
    # fetched once and held: a set larger than the `slice_table` memo would
    # otherwise evict its own tables and rebuild them
    held = [
        (d, slice_table(onto, d), want)
        for want, ds in ((True, examples.positives), (False, examples.negatives))
        for d in ds
    ]
    if not _matcher_fits(onto, held, q):
        return Verdict(False, [("target-does-not-fit", q)], spec)
    domain, groups = enum_shapes(spec)
    # an inconsistent example entails every query: a positive one accepts
    # every candidate, and a negative one cannot occur once q fits
    checks = [(_ExamplePass(table, domain), want) for _, table, want in held if not table.unsat]
    witnesses = []
    for shape in _fitting_shapes(groups, checks):
        if len(witnesses) >= spec.max_witnesses:
            break
        cand = shape_query(spec.qclass, domain, shape)
        if not _matcher_fits(onto, held, cand):  # independent re-check
            continue
        if cand != q and not tequiv_bounded(onto, cand, q):
            witnesses.append(cand)
    return Verdict(not witnesses, witnesses, spec)


def _matcher_fits(onto: Ontology, held: list, q) -> bool:
    """Every positive of `held` ((example, its table, positive?) triples)
    entails q by the sequence matcher, and no negative does."""
    matcher = SequenceMatcher(onto, q)
    return all(matcher.run(d, table=table) == want for d, table, want in held)


# ------------------------------------------------------ temporal equivalence

def closed_profiles(onto: Ontology, bodies: Iterable[Eliq]) -> dict[frozenset, Eliq]:
    """Every profile (the set of `bodies` holding at the point) that a
    consistent slice can show, each with a conjunction c whose hat shows it:
    the closure {b : c ⊑ b}; ⊤'s comes first. An inconsistent slice makes
    every query hold, as a profile of every body would, so it never tells
    two queries apart; when ⊤ is unsatisfiable, that is ⊤'s profile.

    Complete: a slice with profile P entails ⊓P, and whatever ⊓P entails the
    slice does, so P is the closure of ⊓P. Adding P's members one at a time
    to ⊤ reaches it, since ⊓P entails each conjunction on the way: it is
    satisfiable and its closure lies inside P. A kept conjunction is
    equivalent to ⊓ of its profile, so which one is kept does not matter."""
    r = reasoner(onto)
    bodies = tuple(dict.fromkeys(bodies))

    def closure(c: Eliq) -> frozenset:
        return frozenset(b for b, held in zip(bodies, r.contains_all(c, bodies)) if held)

    out = {closure(TOP_QUERY): TOP_QUERY}
    queue = list(out.items())
    for held, c in queue:  # grows while it is read: breadth first
        for b in bodies:
            if b in held:
                continue
            cb = conjoin(c, b)
            if not r.query_satisfiable(cb):
                continue
            got = closure(cb)
            if got not in out:
                out[got] = cb
                queue.append((got, cb))
    return out


def tequiv_bounded(onto: Ontology, q1, q2, length_bound: Optional[int] = None) -> bool:
    """No temporal instance (of at most `length_bound` slices, if given)
    tells q1 and q2 apart under the ontology."""
    return tequiv_witness(onto, q1, q2, length_bound) is None


def tequiv_witness(onto: Ontology, q1, q2, length_bound: Optional[int] = None) -> Optional[TInstance]:
    """A shortest temporal instance on which q1 and q2 disagree at time
    point 0, or None if there is none (of at most `length_bound` slices, if
    given).

    The matchers see a slice only through its profile, so the letters are
    the profiles of `closed_profiles`, and a word ends in the empty future,
    whose profile is ⊤'s. The search runs breadth first over pairs of
    matcher states, each expanded once; there are finitely many, so it is
    exhaustive. Only the word returned is built, from the hats of its
    letters' conjunctions."""
    m1, m2 = SequenceMatcher(onto, q1), SequenceMatcher(onto, q2)
    profiles = closed_profiles(onto, m1.asked + m2.asked)
    conjunctions = list(profiles.values())
    letters = [(m1.profile_of(p), m2.profile_of(p)) for p in profiles]
    e1, e2 = letters[0]  # ⊤'s profile: the empty slices after a word
    seen: set[tuple[int, int]] = set()
    level = [((m1.start(p1), m2.start(p2)), (i,)) for i, (p1, p2) in enumerate(letters)]
    while level:
        nxt = []
        for (s1, s2), word in level:
            if (s1, s2) in seen:
                continue
            seen.add((s1, s2))
            if m1.accepts_at_end(s1, e1) != m2.accepts_at_end(s2, e2):
                r = reasoner(onto)
                return tinstance([anchored(r.hat(conjunctions[i]), "x") for i in word], "a")
            if len(word) != length_bound:
                for i, (p1, p2) in enumerate(letters):
                    nxt.append(((m1.step(s1, p1), m2.step(s2, p2)), word + (i,)))
        level = nxt
    return None
