"""Frontiers, split-partners, meet-reducibility and the negative examples
of singular-positive characterisations of domain queries.

Frontier search is generate-and-verify: candidates come from one-step
weakenings plus the tree cores that q entails, listed into the chase of q's
canonical instance (`verify.enum_domain_queries` into
`verify.entailment_target`, one tree per equivalence class), and a set is
only returned when the brute-force frontier check passes at the same bound;
its condition (b) reads the same listing, memoised. Which one-step
weakenings q entails is decided with the pool through that chase
(`Reasoner.contains_all`). The members are kept in one ordered pass
(`_least_weakenings`): an entailed candidate is first tested against the
kept members, from their homomorphism tables, and only one that none covers
is chased to test whether it entails q; the check tests in the same order.
Members that pass the check must also pass the path probes
(`_path_probe_witness`): role chains up to length size_bound + 3, with an
optional name at root and tip, listed up to MAX_PATH_PROBES shapes, of which
none may be a strict weakening of q that no member entails. They reach
lengths the check's listing cannot, and refuse would-be frontiers over
looping ontologies.
Each search runs once per process for its arguments, in the bounded memo
`frontier_search`, whose `FrontierSearch(members, refusal)` is kept on a
refusal too: `members` are the least strict weakenings of the pool, and
`refusal` is None, the check's first witness `("condition-b", c)` or
`("probe", p)`, which `reason()` prints as `<check> witness <query>`.
`frontier` returns that result or None; the learner, the example-set
builders and the CLI read it, and meet-reducibility its members.
Split-partners follow the type/product construction. The consistent types
over the closure are the satisfiable closed profiles that the closure
search of the equivalence oracle finds (`verify.closed_profiles`), so no
sign assignment is tried one by one.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Iterable, Optional

from .dl import (
    TOP_QUERY,
    Disjoint,
    Eliq,
    ExistsLhs,
    ExistsRhs,
    Instance,
    Ontology,
    Pointed,
    Role,
    Signature,
    SubBasic,
    anchored,
    conjoin,
    conjoin_all,
    exists,
    make_eliq,
    merge_instances,
    point_component,
    reasoner,
    sorted_queries,
)
from .dl.model import _axiom_names
from .dl.reason import _HomTable
from .errors import NoCharacterisationFound, SplitSizeExceeded, UnsatisfiableQuery, UnsupportedDialect
from .verify import (
    CLASS_ELIQ, CLASS_ELQ, CLASS_P, EnumSpec, check_frontier, closed_profiles, entailment_target,
    enum_domain_queries,
)


@dataclass(frozen=True)
class FrontierSearch:
    members: tuple[Eliq, ...]
    refusal: Optional[tuple[str, Eliq]] = None

    def reason(self) -> str:
        return "{} witness {}".format(*self.refusal)


@dataclass(frozen=True)
class SplitPartner:
    members: tuple[Pointed, ...]


def one_step_weakenings(q: Eliq) -> list[Eliq]:
    """Drop one concept name, drop one leaf edge, or empty a leaf of its
    names; only syntactic candidates, the verifier decides what survives.

    No zigzag is proposed: the child C of an edge along r rewritten as
    C & ex r-.ex r.C maps both ways with q (its r- edge goes back to the
    parent and the second C onto the first), so it is never a strict
    weakening. A zigzag that is one comes from the enumeration."""

    def variants(node: Eliq) -> list[Eliq]:
        vs = []
        names = node.names
        for i in range(len(names)):
            vs.append(make_eliq(names[:i] + names[i + 1:], node.edges))
        for i, (role, child) in enumerate(node.edges):
            rest = node.edges[:i] + node.edges[i + 1:]
            if not child.edges and not child.names:
                vs.append(make_eliq(names, rest))
            if not child.edges and child.names:
                vs.append(make_eliq(names, rest + ((role, TOP_QUERY),)))
            for sub in variants(child):
                vs.append(make_eliq(names, rest + ((role, sub),)))
        return vs

    return sorted_queries(variants(q))


FRONTIER_CACHE_SIZE = 1024


def frontier(
    onto: Ontology, q: Eliq, qclass: str = CLASS_ELIQ, size_bound: int = 6
) -> Optional[FrontierSearch]:
    """A frontier of q within the class, the memoised search result, or None
    on a refusal. A class-`p` frontier is exact, not merely verified."""
    search = frontier_search(onto, q, qclass, size_bound)
    return search if search.refusal is None else None


@functools.lru_cache(maxsize=FRONTIER_CACHE_SIZE)
def frontier_search(onto: Ontology, q: Eliq, qclass: str, size_bound: int) -> FrontierSearch:
    """The frontier search for q. Its result, a refusal too, depends only on
    the arguments and is memoised per process (at most FRONTIER_CACHE_SIZE
    keys, emptied by `clear_frontier_cache`); an unsatisfiable q raises
    UnsatisfiableQuery on every call. Two threads missing on one key may
    both search, and the memo keeps one of the two equal results."""
    r = reasoner(onto)
    if not r.query_satisfiable(q):
        raise UnsatisfiableQuery("frontier of an unsatisfiable query")
    if r.trivial(q):
        return FrontierSearch(())
    sig = onto.signature
    if qclass == CLASS_P:
        pool = enum_domain_queries(sig, CLASS_P, len(sig.concept_names))
        return FrontierSearch(tuple(_least_weakenings(onto, q, pool)))
    into = entailment_target(r, q, size_bound)
    pool = set(one_step_weakenings(q)).union(enum_domain_queries(sig, qclass, size_bound, into))
    if qclass == CLASS_ELQ:
        pool = [c for c in pool if not c.has_inverse()]
    members = tuple(_least_weakenings(onto, q, pool))
    verdict = check_frontier(onto, q, members, EnumSpec(sig, qclass, size_bound=size_bound))
    if not verdict.passed:
        return FrontierSearch(members, verdict.witnesses[0])
    witness = _path_probe_witness(onto, q, members, size_bound + 3, qclass)
    return FrontierSearch(members, None if witness is None else ("probe", witness))


def clear_frontier_cache() -> None:
    """Forget every memoised `frontier_search` result."""
    frontier_search.cache_clear()


def _least_weakenings(onto: Ontology, q: Eliq, pool: Iterable[Eliq]) -> list[Eliq]:
    """The containment-least strict weakenings of q in pool, one per
    equivalence class (the first in size-then-key order), in that order.

    One ordered pass keeps an antichain `least`. q ⊑ c is decided for the
    whole pool at once (`Reasoner.contains_all`). A c that q entails is
    skipped when some m in `least` has m ⊑ c, a test read from m's
    homomorphism table, so c's hat is never chased; else it is skipped when
    c ⊑ q, as then c ≡ q; else every m with c ⊑ m leaves `least`, and c
    joins it. After each step, `least` holds the first representative of
    every minimal class among the strict weakenings read so far, and some
    member entails each of them. A c ≡ q is never covered, as m ⊑ c would
    give m ⊑ q; so the result is exactly the pairwise filter's, the minimal
    classes of every strict weakening in the pool."""
    r = reasoner(onto)
    pool = sorted_queries(pool)
    least: list[Eliq] = []
    for c, weaker in zip(pool, r.contains_all(q, pool)):
        if not weaker or any(r.contains(m, c) for m in least) or r.contains(c, q):
            continue
        least = [m for m in least if not r.contains(c, m)]
        least.append(c)
    return least


MAX_PATH_PROBES = 20000

# (root name or None, role chain, tip name or None); see path_probes
ProbeShape = tuple[Optional[str], tuple[Role, ...], Optional[str]]


def path_probes(sig: Signature, max_len: int, qclass: str = CLASS_ELIQ) -> "ProbeShapes":
    """Caterpillar probes: a role chain with optional single names at root and
    tip. Cheap to test at lengths the full enumeration cannot reach; they are
    the shapes that defeat would-be frontiers built over looping ontologies.

    A probe is given as a shape `(root_name, chain, tip_name)`, not as a
    query: `chain` is a nonempty tuple of roles and either name may be None.
    It stands for `root_name & ex r1. ... ex rk. tip_name`, which
    `probe_eliq` builds. Shapes are listed by chain length, then by chain
    (roles in printed order, inverses included unless the class is `elq`,
    whose frontiers no inverse-role probe may refute), then root name, then
    tip name, and the listing is cut after MAX_PATH_PROBES shapes."""
    roles = [Role(r) for r in sorted(sig.role_names)]
    if qclass != CLASS_ELQ:
        roles += [r.inverse for r in roles]
    return ProbeShapes(sorted(roles, key=str), [None] + sorted(sig.concept_names), max_len)


class ProbeShapes:
    """`path_probes`' listing, iterated in order. Level L holds
    len(roles) ** L chains, each with a row of len(names) ** 2 shapes, one
    per (root name, tip name); chain k of a level extends chain
    k // len(roles) of the level before by roles[k % len(roles)]. `levels`
    is the length of the longest chain listed."""

    __slots__ = ("roles", "names", "levels", "_len")

    def __init__(self, roles: list[Role], names: list[Optional[str]], max_len: int):
        self.roles, self.names = roles, names
        self.levels = self._len = 0
        while roles and self.levels < max_len and self._len < MAX_PATH_PROBES:
            self.levels += 1
            self._len += len(names) ** 2 * len(roles) ** self.levels
        self._len = min(self._len, MAX_PATH_PROBES)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[ProbeShape]:
        shapes = (
            (root_name, chain, tip_name)
            for level in range(1, self.levels + 1)
            for chain in itertools.product(self.roles, repeat=level)
            for root_name, tip_name in itertools.product(self.names, repeat=2)
        )
        return itertools.islice(shapes, self._len)


def probe_eliq(shape: ProbeShape) -> Eliq:
    """The query a probe shape stands for."""
    root_name, chain, tip_name = shape
    node = TOP_QUERY if tip_name is None else make_eliq([tip_name])
    for role in reversed(chain):
        node = exists(role, node)
    if root_name is not None:
        node = conjoin(make_eliq([root_name]), node)
    return node


def _path_probe_witness(
    onto: Ontology, q: Eliq, members: Sequence[Eliq], max_len: int, qclass: str
) -> Optional[Eliq]:
    """The first path probe, in listing order, that q entails, no member
    entails and that does not entail q, or None. Such a probe is a strict
    weakening of q that no member covers, so the members are no frontier.

    q is satisfiable: `frontier_search` raises UnsatisfiableQuery first.
    An unsatisfiable member entails every probe, so then there is no witness.

    The probes are checked as shapes, without building them: the chains are
    walked breadth first through the homomorphism table that the reasoner
    keeps for the hat of q and of each member (`Reasoner.table`), over a
    chase at least as deep as the longest chain listed; one chase serves
    every length. Only the chains along which q reaches some element are
    walked (`_reached_chains`); every shape of another chain is one q does
    not entail. A chain's row of shapes, one per (root name, tip name),
    starts k rows after its level's first shape, k being its index in the
    level. The walk returns None at the first probe it would build at or
    past the listing's cut, which may fall inside a level or inside a row.

    A row is decided root by root, with set operations. q entails the shape
    when the root name is at its point and the tip name on some element it
    reaches (any element, without one); a member entails it when the root
    name is at its point and the tip name in its own tips, so the tips no
    member covers under a root are q's tips less the union of the tips of
    the members that hold the root. Of these, a probe is built only when no
    weaker probe has already been built and found to entail q:
    - a root r is settled on a chain when (r, prefix, None) entailed q for
      the chain or a prefix of it; the bare (None, prefix, None) settles
      every root q allows;
    - a tip t is settled on a row when (None, chain, t) entailed q.
    A shape with a settled root or tip is skipped. That is sound under any
    ontology: the settling probe maps homomorphically into every shape it
    settles (names dropped, the chain cut to a prefix), so each such shape
    entails the settling probe, hence q, and is no witness. A chain whose
    settled roots cover every root q allows is not extended. The settling
    probes come first in the listing (shorter chains, then None before
    names), so this walk builds the same probes in the same order, and
    returns the same witness, as a walk that tests each shape's weakenings
    one by one (`tests/helpers.py::reference_probe_walk`)."""
    shapes = path_probes(onto.signature, max_len, qclass)
    r = reasoner(onto)
    if not shapes or not all(map(r.query_satisfiable, members)):
        return None
    names, width = shapes.names, len(shapes.names)
    hats = [r.hat(x) for x in (q, *members)]
    tables = [r.table(h.instance, shapes.levels) for h in hats]
    points = [frozenset((h.point,)) for h in hats]
    q_roots, *m_roots = (_tip_names(table, names, point) for table, point in zip(tables, points))
    # each root name q allows: its column, and the members whose point holds it
    holders = [
        (i, root, [k for k, roots in enumerate(m_roots) if root in roots])
        for i, root in enumerate(names)
        if root in q_roots
    ]
    for lo, chain, reach, settled in _reached_chains(tables, points, shapes, q_roots):
        if lo >= len(shapes):
            return None
        q_tips = _tip_names(tables[0], names, reach[0])
        m_tips = [_tip_names(table, names, ends) for table, ends in zip(tables[1:], reach[1:])]
        settled_tips: set[Optional[str]] = set()
        for i, root, holding in holders:
            if root in settled:
                continue
            live = q_tips.difference(settled_tips, *(m_tips[k] for k in holding))
            for j, tip in enumerate(names):
                if tip not in live:
                    continue
                if lo + i * width + j >= len(shapes):
                    return None
                probe = probe_eliq((root, chain, tip))
                if not r.contains(probe, q):
                    return probe
                if tip is None:
                    settled.update(q_roots if root is None else (root,))
                    break
                if root is None:
                    settled_tips.add(tip)
    return None


def _reached_chains(
    tables: list[_HomTable], points: list[frozenset[str]], shapes: ProbeShapes, roots: frozenset
) -> Iterator[tuple[int, tuple[Role, ...], list[frozenset[str]], set]]:
    """The chains of `shapes` along which the first table's query reaches
    some element, in listing order, each as (the position of its row's first
    shape, its roles, the elements each table's query reaches along it from
    its point, its settled roots). Breadth first: a level keeps only such
    chains, each with its index k in the level, whose child along roles[j]
    has index k * len(roles) + j; the other queries' reach is computed only
    there. A chain starts with a copy of its parent's settled roots, which
    the caller adds to while it decides the chain's row, and is not extended
    once they include every root name in `roots`."""
    roles, row = shapes.roles, len(shapes.names) ** 2
    level = [(0, (), points, set())]
    start = 0  # the position of the current level's first shape
    for length in range(1, shapes.levels + 1):
        kept = []
        for k, chain, reach, settled in level:
            if roots <= settled:
                continue
            for j, role in enumerate(roles):
                q_reach = _successors(tables[0], reach[0], role)
                if not q_reach:
                    continue
                index, longer = k * len(roles) + j, chain + (role,)
                ends = [q_reach] + [_successors(t, e, role) for t, e in zip(tables[1:], reach[1:])]
                inherited = set(settled)
                kept.append((index, longer, ends, inherited))
                yield start + index * row, longer, ends, inherited
        level = kept
        start += row * len(roles) ** length


def _successors(table: _HomTable, ends: frozenset[str], role: Role) -> frozenset[str]:
    """The elements one `role` step from `ends` in the table's instance."""
    return frozenset(b for a in ends for b in table.successors(a, role))


def _tip_names(table: _HomTable, names: list[Optional[str]], ends: Iterable[str]) -> frozenset:
    """The names of `names` (None among them) that a shape may carry at these
    chain ends: None and every name on some end, or nothing when there is no
    end."""
    if not ends:
        return frozenset()
    catoms = table.inst.catoms
    return frozenset(c for c in names if c is None or any((c, a) in catoms for a in ends))


def is_meet_reducible(
    onto: Ontology, q: Eliq, qclass: str = CLASS_ELIQ, size_bound: int = 6
) -> Optional[bool]:
    """True/False via a verified frontier; falls back to a bounded search for
    a witnessing conjunction, returning None when neither path decides.

    The fallback pairs only the refused search's members, the least strict
    weakenings in its pool, which decides the same as pairing every strict
    weakening in that pool: a kept m_i entails each strict weakening c_i, so
    c_1 ⊓ c_2 ⊑ q gives m_1 ⊓ m_2 ⊑ q; and m_1 ≠ m_2, as m_1 = m_2 would
    entail q, which no strict weakening does. The pool holds every tree q
    entails within the bound, so no meet of two of them is missed."""
    r = reasoner(onto)
    front = frontier(onto, q, qclass, size_bound)
    if front is not None:
        # a frontier is an antichain, one member per equivalence class
        return len(front.members) >= 2
    members = frontier_search(onto, q, qclass, size_bound).members
    if any(r.contains(conjoin(q1, q2), q) for q1, q2 in itertools.combinations(members, 2)):
        return True
    return None


# ------------------------------------------------------------ split-partners

@dataclass(frozen=True)
class TypeAtlas:
    elements: tuple[Eliq, ...]
    types: tuple[frozenset[int], ...]   # positive element indices per type
    type_instance: Instance
    type_ids: tuple[str, ...]


def _subconcepts(q: Eliq) -> set[Eliq]:
    out = set()

    def walk(node: Eliq):
        if node.is_top or node.is_bottom:
            return
        out.add(node)
        out.update(make_eliq([n]) for n in node.names)
        for role, child in node.edges:
            out.add(make_eliq(edges=[(role, child)]))
            walk(child)

    walk(q)
    return out


def _ontology_subconcepts(onto: Ontology) -> set[Eliq]:
    """The concept names of the axioms, and their existentials with fillers."""
    out = {make_eliq([n]) for ax in onto.axioms for n in _axiom_names(ax)}
    for ax in onto.axioms:
        if isinstance(ax, (SubBasic, Disjoint)):
            out.update(exists(b.role) for b in (ax.lhs, ax.rhs) if b.kind == "exists")
        elif isinstance(ax, (ExistsRhs, ExistsLhs)):
            out.add(exists(ax.role, make_eliq([ax.filler])))
    return out


MAX_CLOSURE = 16
DEFAULT_ATOM_BUDGET = 10 ** 6


def type_atlas(onto: Ontology, sig: Signature, queries: Sequence[Eliq]) -> TypeAtlas:
    """Maximal consistent sign assignments over the closure, and the instance
    over them. An assignment is consistent iff its positives are satisfiable
    and entail no negated element, that is iff they form a satisfiable closed
    profile (`closed_profiles`); the search reaches every such profile. The
    types come in the order of their sign vectors, negative before positive
    and the first element deciding first."""
    r = reasoner(onto)
    elements: set[Eliq] = set()
    for name in sorted(sig.concept_names):
        elements.add(make_eliq([name]))
    elements |= _ontology_subconcepts(onto)
    for q in queries:
        if not q.is_bottom:
            elements |= _subconcepts(q)
    elems = sorted_queries(elements)
    if len(elems) > MAX_CLOSURE:
        raise SplitSizeExceeded(f"closure of {len(elems)} concepts is beyond the atlas budget")
    index = {e: j for j, e in enumerate(elems)}
    profiles = closed_profiles(onto, elems)
    types = sorted(
        (frozenset(map(index.get, p)) for p, c in profiles.items() if r.query_satisfiable(c)),
        key=lambda tp: [j in tp for j in range(len(elems))],
    )
    type_ids = tuple(f"t{i}" for i in range(len(types)))
    catoms = []
    for i, tp in enumerate(types):
        for j in tp:
            e = elems[j]
            if not e.edges and len(e.names) == 1:
                catoms.append((e.names[0], type_ids[i]))
    ratoms = []
    for p in sorted(sig.role_names):
        for i, tp in enumerate(types):
            for k, tp2 in enumerate(types):
                if _edge_possible(onto, elems, tp, tp2, Role(p)):
                    ratoms.append((p, type_ids[i], type_ids[k]))
    inst = Instance(frozenset(type_ids), frozenset(catoms), frozenset(ratoms))
    return TypeAtlas(tuple(elems), tuple(types), inst, type_ids)


def _edge_possible(onto, elems, tp_from, tp_to, role: Role) -> bool:
    """Can an element of type tp_from have a role-successor of type tp_to?
    Asked of the two types' hats joined by one role edge, "a" to "b"."""
    r = reasoner(onto)
    hl = r.hat(conjoin_all(elems[j] for j in sorted(tp_from)))
    hr = r.hat(conjoin_all(elems[j] for j in sorted(tp_to)))
    base = merge_instances([anchored(hl, "l_", "a"), anchored(hr, "r_", "b")])
    pattern = Instance(base.individuals, base.catoms, base.ratoms | {role.ratom("a", "b")})
    if not r.is_satisfiable(pattern):
        return False
    for j, e in enumerate(elems):
        if j not in tp_from and r.certain_answer(pattern, "a", e):
            return False
        if j not in tp_to and r.certain_answer(pattern, "b", e):
            return False
    return True


# split partners kept: above the 41 and 56 distinct keys of the benchmark's
# 480 seed-1 and seed-11 characterise builds
SPLIT_PARTNER_CACHE_SIZE = 128


def split_partner(onto: Ontology, sig: Signature, queries: Sequence[Eliq]) -> SplitPartner:
    """The n-fold product of the type instance, pointed at every tuple whose
    i-th type refutes the i-th query; components are trimmed to the point.
    The result depends only on the arguments and is memoised per process (at
    most SPLIT_PARTNER_CACHE_SIZE keys, emptied by
    `clear_split_partner_cache`); a refusal is not memoised."""
    return _split_partner_cached(onto, sig, tuple(queries))


def clear_split_partner_cache() -> None:
    """Forget every memoised `split_partner` result."""
    _split_partner_cached.cache_clear()


@functools.lru_cache(maxsize=SPLIT_PARTNER_CACHE_SIZE)
def _split_partner_cached(onto: Ontology, sig: Signature, queries: tuple[Eliq, ...]) -> SplitPartner:
    if onto.dialect not in ("dl-lite-h", "dl-lite-f", "dl-lite-f-minus", "elhif-nf"):
        raise UnsupportedDialect(onto.dialect)
    qs = list(queries)
    atlas = type_atlas(onto, sig, qs)
    n = len(qs)
    elems = {e: i for i, e in enumerate(atlas.elements)}

    def refutes(tp: frozenset[int], q: Eliq) -> bool:
        if q.is_bottom:
            return True
        if q.is_top:
            return False
        return elems[q] not in tp

    per_query_types = [[i for i, tp in enumerate(atlas.types) if refutes(tp, q)] for q in qs]
    if n and len(atlas.types) ** n * max(1, len(sig.role_names)) > DEFAULT_ATOM_BUDGET:
        raise SplitSizeExceeded("product instance would exceed the atom budget")
    members: list[Pointed] = []
    seen = set()
    if n == 0:
        return SplitPartner(())
    product_inst, tuple_ids = _product_instance(atlas, n)
    for combo in itertools.product(*per_query_types):
        point = tuple_ids[combo]
        comp = point_component(product_inst, point)
        p = Pointed(anchored(Pointed(comp, point), "u"), "a")
        if p not in seen:
            seen.add(p)
            members.append(p)
    return SplitPartner(tuple(members))


def _product_instance(atlas: TypeAtlas, n: int):
    """The n-fold product of the type instance: a tuple of types carries the
    names its types share, and the role atoms of a role are the n-fold
    products of that role's type edges."""
    combos = itertools.product(range(len(atlas.types)), repeat=n)
    ids = {combo: "p" + "_".join(str(c) for c in combo) for combo in combos}
    names = [atlas.type_instance.names_at(tid) for tid in atlas.type_ids]
    catoms = [
        (nm, ind) for combo, ind in ids.items() for nm in frozenset.intersection(*(names[c] for c in combo))
    ]
    index = {tid: i for i, tid in enumerate(atlas.type_ids)}
    edges: dict[str, set] = {}
    for r, x, y in atlas.type_instance.ratoms:
        edges.setdefault(r, set()).add((index[x], index[y]))
    ratoms = [
        (r, ids[tuple(x for x, _ in tup)], ids[tuple(y for _, y in tup)])
        for r, pairs in edges.items()
        for tup in itertools.product(pairs, repeat=n)
    ]
    inst = Instance(frozenset(ids.values()), frozenset(catoms), frozenset(ratoms))
    return inst, ids


# ------------------------------------------------------------- negatives

def negatives_for(
    onto: Ontology, q: Eliq, sig: Signature, qclass: str = CLASS_ELIQ, size_bound: int = 6
) -> tuple[Pointed, ...]:
    """The negative examples of a singular-positive characterisation of q:
    the hats of a verified frontier's members (none for a trivial q), else
    the members of q's split-partner."""
    front = frontier(onto, q, qclass, size_bound)
    if front is not None:
        return tuple(map(reasoner(onto).hat, front.members))
    try:
        return split_partner(onto, sig, [q]).members
    except (SplitSizeExceeded, UnsupportedDialect):
        raise NoCharacterisationFound(f"no negatives found for {q}") from None
