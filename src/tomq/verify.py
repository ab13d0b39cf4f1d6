"""Brute-force enumeration oracles and an exact temporal-equivalence oracle.

The enumeration checks are bounded by construction and say so in their
verdicts: a pass certifies the property against everything enumerable
within the given bounds, never beyond them. Tree queries are enumerated
once up to equivalence, as cores (`_enum_trees`): every tree within the
bound is equivalent to a listed one no larger, and every verdict is
invariant under equivalence, so it holds for the unlisted trees too; only
the witness lists lose the redundant entries. The frontier check lists only
the cores its query entails, into the query's chase. Temporal equivalence
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
    Instance,
    Ontology,
    Pointed,
    Reasoner,
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


def _enum_trees(
    sig: Signature, size_bound: int, inverses: bool, into: Optional[Pointed] = None
) -> list[Eliq]:
    """Exactly the cores among the canonical trees of size <= size_bound
    that map into the pointed instance `into` with the root at its point,
    in (size, key) order, the order of the full listing (`tests/helpers.py`
    keeps it as `enum_trees`). Without `into` the target is the universal
    instance (`_universal`), into which every tree maps, so every core is
    listed: over {A} and R at size 5 that is 86 of the 282 ELIQs and 20 of
    the 44 ELQs. A tree is a core when every map of it into itself that
    fixes the root (a homomorphism under the empty ontology) is onto.

    Sound: a tree that is no core maps into a proper subtree of itself that
    holds the root, and the two are equivalent under every ontology. Its
    core, the smallest such subtree, is a core of smaller size, so it is
    listed: every tree left out folds onto a listed smaller one, and every
    verdict read off the listing holds for the trees left out.

    One bottom-up pass by exact size. A tree of size s is a root with k names
    and an edge set of cost s - 1 - k, an edge costing its subtree's size.
    The edge sets of cost c draw on the edges to listed trees of size <= c,
    in `make_eliq`'s edge order (role as printed, then subtree key); taken as
    increasing index sequences over that list (`_multisets`), each set comes
    once and already sorted, so every tree is built directly and at most
    once. Three rules leave a tree out, and each holds of no core, so every
    core is listed (complete):
    1. A child is not listed. By induction the child is no core, and a map
       folding the child extends by the identity to one folding the tree.
    2. Two edges (r, S), (r, S') of one role where S maps into S' along
       downward edges (`_multisets`, which also never picks an edge twice).
       Sending S onto S' and fixing the rest folds the tree.
    3. With inverse roles, `_folds`, which is exact, finds a fold.

    `_folds` rests on this: a tree T is no core iff some node v with a child
    c along r has another r-neighbour c' (a child, or v's parent when the
    parent's edge is r-) such that the subtree at c maps into T with c sent
    to c'. If so, that map on the subtree and the identity elsewhere maps T
    into itself, and not onto: a bijection that fixes everything outside
    the subtree maps the subtree onto itself, but c leaves it. Conversely,
    T retracts onto its core C, a proper subtree that holds the root; some v
    in C has a child c outside C, and the retraction fixes v, maps the
    subtree at c into C and sends c to an r-neighbour of v in C. So a tree
    without a fan (a node with two neighbours along one role) is a core and
    is listed unchecked. A fan of T is new only at its root (two edges of
    one role) or at a root child c along r with an edge along r- of its own
    (c's parent is its other r- neighbour); any other fan is a child's, so
    the listed trees with a fan are kept as a set.

    Without inverse roles every map runs downward, and c' is a child of v,
    since a parent is a neighbour only along an inverse role. So rules 1 and
    2 alone are exact: at the root a fold is one of rule 2, and below it the
    fold lies inside a child, which rule 1 has left out.

    The target. Each tree built carries its image: the target elements, as
    bits, to which it maps its root. With b the size bound, the image of a
    tree of size s is cut to the ball of radius b - s around the point
    (steps along the signature's roles, backwards too only with inverse
    roles), and a tree whose image is empty is left out, as a tree and as
    a child; the trees listed are those whose image holds the point. An
    image is the elements of the ball that carry the root's names and lie
    in the parent set of each edge: for an edge (r, S), the elements with
    an r-successor in S's image. `_multisets` intersects the parent sets as
    it picks edges and cuts an edge set at its first empty intersection.

    Distance rule: in a tree of size <= b, a subtree of size s at depth d
    has d nodes above it besides its own s, so d <= b - s, and a map of the
    tree at the point sends the subtree's root at most d steps away. Its
    parent, of size >= s + 1, sits within b - s - 1 steps, so the parent's
    successors lie within b - s: the cut images decide every parent within
    its own ball, and by induction the listing holds exactly the trees that
    map at the point.

    Into the chase of q's hat (`entailment_target`) the listed trees are
    those q entails. By `Reasoner.table`'s argument one chase serves every
    query of role depth at most its depth, and a tree of size <= b has role
    depth <= b - 1. Inside it, a subtree of size s at depth d has height at
    most s - 1, so d + height <= b - 1: every element that the maps of the
    subtree read lies within b - 1 steps of the point, and the chase to
    depth b - 1 holds those elements and all of their atoms.

    The child rule, the same-role cut, `_folds` and the (size, key) order
    are the same whatever the target."""
    names = sorted(sig.concept_names)
    roles = [Role(r) for r in sorted(sig.role_names)]
    if inverses:
        roles += [r.inverse for r in roles]
    roles.sort(key=str)
    # every edge listed holds one of these role objects, so roles compare by identity
    inverse = {r: next(x for x in roles if x == r.inverse) for r in roles} if inverses else {}
    below: dict[tuple[Eliq, Eliq], bool] = {}

    def downward(s: Eliq, t: Eliq) -> bool:
        """s maps into t, root to root, along downward edges only."""
        got = below.get((s, t))
        if got is None:
            got = below[s, t] = all(n in t.names for n in s.names) and all(
                any(r2 is r and downward(c, c2) for r2, c2 in t.edges) for r, c in s.edges
            )
        return got

    if into is None:
        into = _universal(sig)
    target = into.instance
    # an element per bit: the point first (bit 1), then the rest in sorted order
    bit = {e: 1 << i for i, e in enumerate([into.point] + sorted(target.individuals - {into.point}))}
    everything = (1 << len(bit)) - 1
    carried = {n: 0 for n in names}
    for n, e in target.catoms:
        if n in carried:
            carried[n] |= bit[e]
    # before[r][i]: the elements with an r-successor at bit i; near[i]: the
    # elements one step from bit i along some role (forward only, without inverses)
    before: dict[Role, list[int]] = {r: [0] * len(bit) for r in roles}
    near = [0] * len(bit)
    for p, a, b in target.ratoms:
        if p in sig.role_names:
            i, j = bit[a].bit_length() - 1, bit[b].bit_length() - 1
            near[i] |= bit[b]
            before[Role(p)][j] |= bit[a]
            if inverses:
                near[j] |= bit[a]
                before[Role(p, True)][i] |= bit[b]
    # ball[k]: the elements within k steps of the point
    ball = [1]
    while len(ball) < size_bound:
        ball.append(ball[-1] | _spread(near, ball[-1]))

    out: list[Eliq] = []
    image: dict[Eliq, int] = {}
    fans: set[Eliq] = set()  # the listed trees with a fan
    # edge_lists[c]: the edge sets of total cost exactly c, each with its parent set
    edge_lists: list[list[tuple[tuple, int]]] = [[((), everything)]]
    for s in range(1, size_bound + 1):
        within = ball[size_bound - s]
        if s > 1:
            # trees of size < s are all built: the edge sets of cost s - 1
            smaller = sorted(out, key=attrgetter("_key"))
            edges, above = [], []
            for role in roles:
                for t in smaller:
                    at = _spread(before[role], image[t])
                    if at:
                        edges.append((role, t))
                        above.append(at)
            edge_lists.append(_multisets(edges, above, s - 1, within, downward))
        level = []
        for k in range(min(s - 1, len(names)) + 1):
            subsets = [(subset, functools.reduce(int.__and__, map(carried.get, subset), everything))
                       for subset in itertools.combinations(names, k)]
            for lst, at in edge_lists[s - 1 - k]:
                at &= within
                if not at:
                    continue
                # a fan in a child, at the root (same-role edges are adjacent in
                # the sorted set) or at a child with an edge back along r-
                fan = inverses and any(
                    c in fans or (i and lst[i - 1][0] is r) or any(r2 is inverse[r] for r2, _ in c.edges)
                    for i, (r, c) in enumerate(lst)
                )
                for subset, names_at in subsets:
                    got = at & names_at
                    if got and not (fan and _folds(subset, lst, inverse)):
                        t = Eliq(subset, lst)
                        image[t] = got
                        if fan:
                            fans.add(t)
                        level.append(t)
        out += sorted(level, key=attrgetter("_key"))
    return [t for t in out if image[t] & 1]


def _universal(sig: Signature) -> Pointed:
    """The one-element instance with every concept name and a self-loop
    along every role of the signature: every tree over it maps there."""
    return Pointed(Instance(
        frozenset(("a",)),
        frozenset((n, "a") for n in sig.concept_names),
        frozenset((p, "a", "a") for p in sig.role_names),
    ), "a")


def _spread(masks: list[int], bits: int) -> int:
    """The union of masks[i] over the set bits i of `bits`."""
    out = 0
    while bits:
        low = bits & -bits
        out |= masks[low.bit_length() - 1]
        bits ^= low
    return out


def _multisets(edges: list[tuple], above: list[int], cost: int, within: int, downward) -> list[tuple]:
    """The increasing index sequences over `edges` whose subtree sizes sum
    to exactly `cost`, as (tuple of edges, the elements of `within` that
    lie in every picked edge's parent set `above[i]`, as bits), without an
    empty such set and without two edges of one role one of whose subtrees
    maps into the other's along downward edges (`downward(s, t)`: s into
    t, memoised by the caller). A sequence is cut as soon as its set is
    empty or such a pair is picked."""
    # per subtree size, the indices of its edges in increasing order
    by_size: list[list[int]] = [[] for _ in range(cost + 1)]
    for i, (_, t) in enumerate(edges):
        by_size[t.size].append(i)
    out: list[tuple] = []
    picked: list[tuple] = []

    def extend(start: int, left: int, at: int) -> None:
        if not left:
            out.append((tuple(picked), at))
            return
        for size in range(1, left + 1):
            ats = by_size[size]
            for i in ats[bisect.bisect_left(ats, start):]:
                r, t = edges[i]
                narrowed = at & above[i]
                if not narrowed or any(r2 is r and (downward(t, t2) or downward(t2, t)) for r2, t2 in picked):
                    continue
                picked.append(edges[i])
                extend(i + 1, left - size, narrowed)
                picked.pop()

    extend(0, cost, within)
    return out


def _folds(root_names: tuple[str, ...], edges: tuple, inverse: dict[Role, Role]) -> bool:
    """The tree with these root names and edges is no core: some node v
    with a child c along r has another r-neighbour c' such that the subtree
    at c maps into the tree with c sent to c' (see `_enum_trees`). Nodes
    are numbered breadth first, the root 0, each with its subtree, its
    parent and its neighbours as (role, node) pairs, the parent's along the
    inverse role."""
    subs: list = [None]
    up = [-1]
    around: list[list[tuple[Role, int]]] = [[]]
    queue = [(0, edges)]
    for i, node_edges in queue:  # grows while it is read
        for r, c in node_edges:
            j = len(subs)
            around[i].append((r, j))
            around.append([(inverse[r], i)])
            queue.append((j, c.edges))
            subs.append(c)
            up.append(i)
    memo: dict[tuple[Eliq, int], bool] = {}

    def maps(s: Eliq, x: int) -> bool:
        got = memo.get((s, x))
        if got is None:
            at = subs[x].names if x else root_names
            got = memo[s, x] = all(n in at for n in s.names) and all(
                any(r2 is r and maps(c, y) for r2, y in around[x]) for r, c in s.edges
            )
        return got

    for v, ends in enumerate(around):
        if len(ends) > 1:
            for r, c in ends:
                if up[c] == v:
                    for r2, d in ends:
                        if r2 is r and d != c and maps(subs[c], d):
                            return True
    return False


ENUM_CACHE_SIZE = 32


def enum_domain_queries(
    sig: Signature, qclass: str, size_bound: int, into: Optional[Pointed] = None
) -> tuple[Eliq, ...]:
    """Every domain query of the class within the size bound, in a fixed
    order: every conjunction of names for class `p`, and for `elq` and
    `eliq` the smallest tree of each class of trees equivalent under the
    empty ontology, its core (`_enum_trees`). Given `into`, a pointed
    instance, only the queries that map into it at its point are listed,
    in the same order; into `entailment_target(r, q, size_bound)` those
    are the queries q entails. The result depends only on the arguments and
    is memoised per process (at most ENUM_CACHE_SIZE keys, emptied by
    `clear_enum_cache`), so it is an immutable tuple that callers share."""
    return _enum_domain_cached(sig, qclass, size_bound, into)


@functools.lru_cache(maxsize=ENUM_CACHE_SIZE)
def _enum_domain_cached(
    sig: Signature, qclass: str, size_bound: int, into: Optional[Pointed]
) -> tuple[Eliq, ...]:
    if qclass == CLASS_P:
        at = sig.concept_names if into is None else into.instance.names_at(into.point)
        return tuple(c for c in _enum_prop(sig, size_bound) if at.issuperset(c.names))
    return tuple(_enum_trees(sig, size_bound, qclass != CLASS_ELQ, into))


def entailment_target(r: Reasoner, q: Eliq, size_bound: int) -> Optional[Pointed]:
    """The target into which `enum_domain_queries` lists exactly the
    queries within `size_bound` that q entails: the chase of q's hat at
    least size_bound - 1 deep (`Reasoner.table`), at its point, which
    decides every tree of that size (see `_enum_trees`). None, the full
    listing, for an unsatisfiable q, which entails every query."""
    if not r.query_satisfiable(q):
        return None
    h = r.hat(q)
    return Pointed(r.table(h.instance, size_bound - 1).inst, h.point)


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

    The candidates of (b) are the queries within the bound that q entails,
    listed into q's chase (`enum_domain_queries` into
    `entailment_target`), so q ⊑ cand is not tested again. A candidate is
    tested cheapest first: whether some member covers it (read from the
    members' homomorphism tables), and only then cand ⊑ q, a chase of the
    candidate's own hat. The two tests are one conjunction, so the order
    changes no verdict and no witness."""
    r = reasoner(onto)
    members = sorted_queries(frontier)
    witnesses = []
    for m in members:
        if not (r.contains(q, m) and not r.contains(m, q)):
            witnesses.append(("condition-a", m))
    into = entailment_target(r, q, spec.size_bound)
    for cand in enum_domain_queries(spec.signature, spec.qclass, spec.size_bound, into):
        if len(witnesses) >= spec.max_witnesses:
            break
        if not any(r.contains(m, cand) for m in members) and not r.contains(cand, q):
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
    domain query's bits are read once. `fitting` narrows a run of a
    prefix's last entries (`_runs`) to those the example decides as wanted;
    the shape ending in body b holds when b holds at one of the points of
    `reach`, and each body is tested once per reach."""

    def __init__(self, table: SliceTable, domain: tuple[Eliq, ...]):
        self.table = table
        self.domain = domain
        self._points: list[Optional[int]] = [None] * len(domain)
        self._after: dict[tuple, int] = {(): 1}  # before b0: time point 0 alone
        self.state = 1                           # after the prefix entered last
        self.serial = -1
        self.reach = 1                           # where the run aimed at last puts its body
        self.run = -1
        self._held: dict[int, tuple[int, int]] = {}  # reach -> (bodies asked, those holding)

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
        self.run = -1

    def fitting(self, serial: int, prefix: tuple, k: int, run: tuple, fit: int, want: bool) -> int:
        """The bodies of `fit` (bits) with which run number k of the last
        entries of prefix number `serial` holds (want) or fails (not want).
        The run's steps are (rel, filler, body) for `run` = (rel, filler),
        or bare bodies when rel is None; the prefix is entered and the run
        aimed at once, and nothing is read when the run reaches no point."""
        if self.serial != serial:
            self.enter(prefix, serial)
        if self.run != k:
            (rel, filler), reach = run, self.state
            if rel is not None and reach:
                fill = 0 if filler is None else self.points(filler)
                reach = advance(reach, rel, fill, self.table.future)
            self.reach, self.run = reach, k
        reach = self.reach
        if not reach:
            return 0 if want else fit
        asked, held = self._held.get(reach, (0, 0))
        todo = fit & ~asked
        if todo:
            asked |= todo
            while todo:
                low = todo & -todo
                if reach & self.points(low.bit_length() - 1):
                    held |= low
                todo ^= low
            self._held[reach] = (asked, held)
        return fit & held if want else fit & ~held


def _runs(last) -> list[tuple]:
    """The entries of a last level as runs, in order: stretches sharing a
    relation and filler ((None, None) for bare domain queries) with bodies
    in increasing index order, each as ((rel, filler), its bodies as bits,
    its entry per body)."""
    runs: list[list] = []
    for entry in last:
        step, body = ((None, None), entry) if type(entry) is int else (entry[:2], entry[2])
        if not runs or runs[-1][0] != step or runs[-1][1] >> body:
            runs.append([step, 0, {}])
        runs[-1][1] |= 1 << body
        runs[-1][2][body] = entry
    return [tuple(run) for run in runs]


def _fitting_shapes(groups: list, checks: list) -> Iterator[tuple]:
    """The shapes of the groups, in order, that every check's example entails
    (a positive) or does not (a negative).

    The last entries of a prefix are taken a run at a time (`_runs`): the
    run's bodies go through the checks in order, each example narrowing
    them (`_ExamplePass.fitting`) until none is left, and the survivors
    are yielded in body order. A prefix that a positive refuses as a whole
    is skipped. The shapes, and the bits each example reads, are those of
    the entry-by-entry loop that `tests/helpers.py` keeps as the
    reference."""
    serial = 0
    for levels in groups:
        *inner, last = levels
        runs = _runs(last)
        for prefix in itertools.product(*inner):
            serial += 1
            for k, (run, fit, entry_of) in enumerate(runs):
                for ex, want in checks:
                    fit = ex.fitting(serial, prefix, k, run, fit, want)
                    if not fit:
                        break
                else:
                    while fit:
                        low = fit & -fit
                        fit ^= low
                        yield prefix + (entry_of[low.bit_length() - 1],)
                    continue
                if want and not ex.state:
                    break  # a positive refuses the prefix as a whole


def check_unique_characterisation(onto: Ontology, q, examples: ExampleSet, spec: EnumSpec) -> Verdict:
    """Pass iff q fits and every enumerated query fitting the example set is
    temporally equivalent to q, decided exactly; the verdict is bounded by
    the candidate enumeration alone.

    Candidates are decided as flat shapes (`enum_shapes`) by the forward
    bitset pass of `tentail`, per example in order, with the state after
    each shape prefix kept per example for the check. The last entries of
    a prefix are decided a run at a time, every consistent example in turn
    narrowing the run's bodies the same way (`_fitting_shapes`). A prefix
    on which a positive example's pass is already empty is skipped whole. Only
    a shape that fits becomes a query; `SequenceMatcher.run` re-checks it
    on every example, independently of the pass, and a disagreement raises
    RuntimeError rather than dropping a candidate that may be the only
    witness. Then `tequiv_bounded` compares the candidate with q; a
    candidate equal to q needs no comparison. The matcher also
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
            raise RuntimeError(f"the bitset pass and the sequence matcher disagree on whether {cand} fits")
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
