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
from .temporal.eval import SequenceMatcher, SliceTable
from .temporal.model import (
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


def enum_queries(spec: EnumSpec) -> Iterator:
    """Every query of the class within the bounds, once, in a fixed order."""
    if spec.qclass in (CLASS_P, CLASS_ELQ, CLASS_ELIQ):
        yield from enum_domain_queries(spec.signature, spec.qclass, spec.size_bound)
        return
    domain = enum_domain_queries(spec.signature, CLASS_P, spec.size_bound)
    if spec.qclass in (CLASS_DIA, CLASS_NEXTDIA):
        ops_menu = ["X", "F"] if spec.qclass == CLASS_NEXTDIA else ["X", "F", "Fr"]
        for k in range(spec.depth_bound + 1):
            for ops in itertools.product(ops_menu, repeat=k):
                for bodies in itertools.product(domain, repeat=k + 1):
                    yield pathquery_from_ops(list(bodies), list(ops))
        return
    if spec.qclass == CLASS_UNTIL:
        fillers = (None,) + domain
        for k in range(spec.depth_bound + 1):
            for head in domain:
                for steps in itertools.product(
                    itertools.product(fillers, domain), repeat=k
                ):
                    yield untilquery(head, list(steps))
        return
    raise ValueError(f"unknown query class {spec.qclass!r}")


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


def _fits_fast(matcher: SequenceMatcher, examples: ExampleSet) -> bool:
    return all(matcher.run(d) for d in examples.positives) and not any(
        matcher.run(d) for d in examples.negatives
    )


def check_unique_characterisation(onto: Ontology, q, examples: ExampleSet, spec: EnumSpec) -> Verdict:
    """Pass iff q fits and every enumerated query fitting the example set is
    equivalent to q (bounded temporal equivalence).

    The verdict holds only within ``spec.qclass``: class ``dia`` enumerates
    next, later and now-or-later (``X``, ``F``, ``Fr``), class ``nextdia``
    only ``X`` and ``F``, so a set unique in ``nextdia`` may still admit a
    now-or-later fitter in ``dia``."""
    from .temporal.eval import fits

    if not fits(onto, examples, q):
        return Verdict(False, [("target-does-not-fit", q)], spec)
    length_bound = _default_length_bound(q)
    witnesses = []
    for cand in enum_queries(spec):
        if len(witnesses) >= spec.max_witnesses:
            break
        matcher = SequenceMatcher(onto, cand)
        if not _fits_fast(matcher, examples):
            continue
        if not fits(onto, examples, cand):  # independent re-check of the witness path
            continue
        if not tequiv_bounded(onto, cand, q, length_bound):
            witnesses.append(cand)
    return Verdict(not witnesses, witnesses, spec)


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

    def accepts(mm: SequenceMatcher, states, profile_empty) -> bool:
        cur = states
        for _ in range(mm.final + 2):
            if mm.accepts(cur):
                return True
            cur = mm.step(cur, profile_empty)
        return mm.accepts(cur)

    start_items = []
    for i in range(len(slices)):
        s1, s2 = m1.start(profiles1[i]), m2.start(profiles2[i])
        start_items.append(((s1, s2), [i]))
    seen = set()
    frontier = start_items
    for _length in range(1, length_bound + 1):
        nxt = []
        for (s1, s2), word in frontier:
            if accepts(m1, s1, e1) != accepts(m2, s2, e2):
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
