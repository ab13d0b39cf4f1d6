"""Brute-force enumeration oracles.

These checks are bounded by construction and say so in their verdicts: a pass
certifies the property against everything enumerable within the given bounds,
never beyond them.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .dl import (
    BOTTOM_QUERY,
    Eliq,
    Instance,
    Ontology,
    Pointed,
    Role,
    Signature,
    conjoin,
    make_eliq,
    reasoner,
    rename_instance,
)
from .temporal.eval import SequenceMatcher, SliceTable, advance, slice_table
from .temporal.model import (
    LEQ,
    LESS,
    SUC,
    UNTIL,
    ExampleSet,
    PathQuery,
    TInstance,
    UntilQuery,
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
    names = sorted(sig.concept_names)
    roles = [Role(r) for r in sorted(sig.role_names)]
    if inverses:
        roles = roles + [Role(r, True) for r in sorted(sig.role_names)]
    roles.sort(key=str)
    tree_memo: dict[int, list[Eliq]] = {}
    list_memo: dict[int, list[tuple]] = {}

    def trees(budget: int) -> list[Eliq]:
        """All canonical trees of size <= budget."""
        if budget in tree_memo:
            return tree_memo[budget]
        out = set()
        if budget >= 1:
            for k in range(0, min(budget - 1, len(names)) + 1):
                for subset in itertools.combinations(names, k):
                    for children in child_lists(budget - 1 - k):
                        out.add(make_eliq(subset, children))
        result = sorted(out, key=lambda q: (q.size, q._key))
        tree_memo[budget] = result
        return result

    def child_lists(budget: int) -> list[tuple]:
        """Edge multisets whose total cost (one per edge plus subtree size)
        stays within budget, in non-decreasing canonical order."""
        if budget in list_memo:
            return list_memo[budget]
        out = [()]
        if budget >= 1:
            for role in roles:
                for sub in trees(budget):
                    head = (role, sub)
                    for rest in child_lists(budget - sub.size):
                        if rest and (str(rest[0][0]), rest[0][1]._key) < (str(role), sub._key):
                            continue
                        out.append((head,) + rest)
        seen, result = set(), []
        for lst in out:
            key = tuple((str(r), s._key) for r, s in lst)
            if key not in seen:
                seen.add(key)
                result.append(lst)
        list_memo[budget] = result
        return result

    return trees(size_bound)


ENUM_CACHE_SIZE = 32


def enum_domain_queries(sig: Signature, qclass: str, size_bound: int) -> tuple[Eliq, ...]:
    """Every domain query of the class within the size bound, in a fixed
    order. The result depends only on the arguments and is memoised per
    process (at most ENUM_CACHE_SIZE keys, emptied by `clear_enum_cache`), so
    it is an immutable tuple that callers share."""
    return _enum_domain_cached(sig, qclass, size_bound)


@functools.lru_cache(maxsize=ENUM_CACHE_SIZE)
def _enum_domain_cached(sig: Signature, qclass: str, size_bound: int) -> tuple[Eliq, ...]:
    if qclass == CLASS_P or not sig.role_names:
        return tuple(_enum_prop(sig, size_bound))
    return tuple(_enum_trees(sig, size_bound, inverses=qclass != CLASS_ELQ))


def clear_enum_cache() -> None:
    """Forget every memoised `enum_domain_queries` result."""
    _enum_domain_cached.cache_clear()


_REL_OF_OP = {"X": SUC, "F": LESS, "Fr": LEQ}
_OP_OF_REL = {rel: op for op, rel in _REL_OF_OP.items()}


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
    domain_classes = (CLASS_P, CLASS_ELQ, CLASS_ELIQ)
    if spec.qclass not in domain_classes + (CLASS_DIA, CLASS_NEXTDIA, CLASS_UNTIL):
        raise ValueError(f"unknown query class {spec.qclass!r}")
    if spec.qclass in domain_classes:
        domain = enum_domain_queries(spec.signature, spec.qclass, spec.size_bound)
        return domain, [(range(len(domain)),)]
    domain = enum_domain_queries(spec.signature, CLASS_P, spec.size_bound)
    bodies = range(len(domain))
    if spec.qclass == CLASS_UNTIL:
        until_steps = [(UNTIL, f, b) for f in (None, *bodies) for b in bodies]
        return domain, [(bodies,) + (until_steps,) * k for k in range(spec.depth_bound + 1)]
    ops_menu = ["X", "F"] if spec.qclass == CLASS_NEXTDIA else ["X", "F", "Fr"]
    steps = {op: [(_REL_OF_OP[op], None, b) for b in bodies] for op in ops_menu}
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
            [head] + [domain[b] for _, _, b in steps], [_OP_OF_REL[rel] for rel, _, _ in steps]
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
    (b) everything weaker than q within the bound is covered by a member."""
    r = reasoner(onto)
    members = sorted(set(frontier), key=lambda m: (m.size, m._key))
    witnesses = []
    for m in members:
        if not (r.contains(q, m) and not r.contains(m, q)):
            witnesses.append(("condition-a", m))
    for cand in enum_queries(spec):
        if len(witnesses) >= spec.max_witnesses:
            break
        if not r.contains(q, cand):
            continue
        if r.contains(cand, q):
            continue
        if not any(r.contains(m, cand) for m in members):
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
            got = self._points[b] = self.table.points(self.domain[b])
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
    equivalent to q (bounded temporal equivalence).

    Candidates are decided as flat shapes (`enum_shapes`) by the forward
    bitset pass of `tentail`, per example in order, with the state after
    each shape prefix kept per example for the check. A prefix on which a
    positive example's pass is already empty is skipped whole. Only a shape
    that fits becomes a query; `SequenceMatcher.run` re-checks it on every
    example, independently of the pass, before `tequiv_bounded` runs. The
    matcher also decides whether q fits. Every example's table is fetched
    once and held for the whole check.

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
    length_bound = _default_length_bound(q)
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
        if not tequiv_bounded(onto, cand, q, length_bound):
            witnesses.append(cand)
    return Verdict(not witnesses, witnesses, spec)


def _matcher_fits(onto: Ontology, held: list, q) -> bool:
    """Every positive of `held` ((example, its table, positive?) triples)
    entails q by the sequence matcher, and no negative does."""
    matcher = SequenceMatcher(onto, q)
    return all(matcher.run(d, table=table) == want for d, table, want in held)


# -------------------------------------------------- bounded temporal equiv

def _default_length_bound(q) -> int:
    if isinstance(q, PathQuery):
        b = q.strict_count + 1
        return (q.tdp + 1) * (b + 1)
    n = q.depth
    return (n + 1) * (n + 2)


def _letters(onto: Ontology, q1, q2, domain_size: int) -> list[Pointed]:
    """Slice alphabet: hats of the enumerated domain queries over the combined
    signature plus the bodies of both queries, and the empty slice."""
    r = reasoner(onto)
    sig = onto.signature
    bodies: set[Eliq] = set()
    for q in (q1, q2):
        if isinstance(q, PathQuery):
            bodies.update(q.bodies())
        elif isinstance(q, UntilQuery):
            bodies.update(q.targets())
            bodies.update(f for f, _ in q.steps if f is not None)
    qclass = CLASS_ELIQ if sig.role_names else CLASS_P
    pool = set(enum_domain_queries(sig, qclass, domain_size)) | bodies
    pairs = {conjoin(x, y) for x in bodies for y in bodies}
    pool |= pairs
    letters = [Pointed(Instance(frozenset(("a",))), "a")]
    seen = {letters[0].instance._key}
    for q in sorted(pool, key=lambda q: (q.size, q._key)):
        if q.is_bottom or not r.query_satisfiable(q):
            continue
        h = r.hat(q)
        if h.instance._key not in seen:
            seen.add(h.instance._key)
            letters.append(h)
    return letters


def tequiv_bounded(
    onto: Ontology, q1, q2, length_bound: int, domain_size: int = 2,
    alphabet: Optional[list[Pointed]] = None,
) -> bool:
    got = tequiv_witness(onto, q1, q2, length_bound, domain_size, alphabet)
    return got is None


def tequiv_witness(
    onto: Ontology, q1, q2, length_bound: int, domain_size: int = 2,
    alphabet: Optional[list[Pointed]] = None,
) -> Optional[TInstance]:
    """A temporal instance on which q1 and q2 disagree, from instances
    assembled out of the alphabet slices, up to the length bound; None if they
    agree on all of them. Product-automaton search, so the bound is cheap."""
    letters = alphabet if alphabet is not None else _letters(onto, q1, q2, domain_size)
    m1, m2 = SequenceMatcher(onto, q1), SequenceMatcher(onto, q2)
    renamed = []
    for p in letters:
        ren = {p.point: "a"}
        fresh = 0
        for ind in sorted(p.instance.individuals):
            if ind != p.point:
                ren[ind] = f"x{fresh}"
                fresh += 1
        renamed.append(rename_instance(p.instance, ren))
    # the letters as the slices of one instance over their shared
    # individuals: the table's future slice is the empty letter that ends
    # every word
    alphabet_inst = tinstance(renamed, "a")
    slices = alphabet_inst.slices
    table = SliceTable(onto, alphabet_inst)
    profiles1, profiles2 = m1.profiles(table), m2.profiles(table)
    e1, e2 = profiles1.pop(), profiles2.pop()
    start_items = []
    for i in range(len(slices)):
        s1, s2 = m1.start(profiles1[i]), m2.start(profiles2[i])
        start_items.append(((s1, s2), [i]))
    seen = set()
    frontier = start_items
    for _length in range(1, length_bound + 1):
        nxt = []
        for (s1, s2), word in frontier:
            if m1.accepts_at_end(s1, e1) != m2.accepts_at_end(s2, e2):
                return tinstance([slices[i] for i in word], "a")
            key = (s1, s2)
            if key in seen:
                continue
            seen.add(key)
            if _length == length_bound:
                continue
            for i in range(len(slices)):
                nxt.append(((m1.step(s1, profiles1[i]), m2.step(s2, profiles2[i])), word + [i]))
        frontier = nxt
        if not frontier:
            break
    return None
