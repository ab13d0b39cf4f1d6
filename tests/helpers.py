"""Seeded random generators for ontologies, instances and queries, and
reference implementations for the tests: `successors`, a scan of an
instance's role atoms, `root_homs`, a path-query evaluator, `enum_trees`, a
tree-query enumerator that lists every tree, `reference_is_core` and
`reference_core`, cores found by removing leaves, `reference_letters`, a
slice alphabet built from enumerated domain queries, `reference_contains`,
containment decided pair by pair, `reference_strict_weakenings` and `reference_maximal`, the pairwise
filter the frontier search once ran, `frontier_pool` and
`frontier_candidates`, the pool of that search and its candidate sets,
`reference_prop_frontier`, the class-`p` frontier by a loop
over subsets of names, `reference_probe_shapes`, the path-probe listing
built as a list, `reference_types`, the sign-vector loop over a type
closure, `reference_fitting_shapes`, the uniqueness check's pass that tests
every candidate on every example in turn, `reference_realisation`, a
tagged instance realised without the anchoring and padding memos, and
`reference_saturation`, one rule loop over every individual of an instance."""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from tomq.dl import (
    BOT,
    DL_LITE_F,
    DL_LITE_F_MINUS,
    DL_LITE_H,
    ELHIF_NF,
    TOP,
    ConjLhs,
    Disjoint,
    Eliq,
    ExistsLhs,
    ExistsRhs,
    Func,
    Instance,
    Ontology,
    Pointed,
    Reasoner,
    Role,
    RoleSub,
    Signature,
    SubBasic,
    atom,
    conjoin,
    conjoin_all,
    exists,
    exists_basic,
    hom_exists,
    induced_instance,
    instance,
    instance_to_eliq,
    make_eliq,
    name_basic,
    ontology,
    reasoner,
    rename_instance,
    signature,
    top_basic,
)
from tomq.dl.reason import Saturation, _func_clash, _index_edge, _Named
from tomq.domainchar import MAX_PATH_PROBES, one_step_weakenings
from tomq.errors import UnsupportedAxiom
from tomq.temporal.eval import slice_table
from tomq.temporal.model import LESS, SUC, PathQuery, TInstance, flat_form
from tomq.verify import CLASS_ELIQ, CLASS_ELQ, CLASS_P, enum_domain_queries


def rand_role(rng: random.Random, sig: Signature) -> Role:
    return Role(rng.choice(sorted(sig.role_names)), rng.random() < 0.4)


def rand_basic(rng: random.Random, sig: Signature):
    if sig.role_names and rng.random() < 0.4:
        return exists_basic(rand_role(rng, sig))
    if rng.random() < 0.1:
        return top_basic()
    return name_basic(rng.choice(sorted(sig.concept_names)))


def rand_name(rng: random.Random, sig: Signature, top_ok=True) -> str:
    names = sorted(sig.concept_names)
    if top_ok and rng.random() < 0.15:
        return TOP
    return rng.choice(names)


def rand_ontology(
    rng: random.Random, sig: Signature, dialect: str, max_axioms: int = 6
) -> Ontology:
    axioms = []
    n = rng.randint(0, max_axioms)
    for _ in range(n):
        if dialect == ELHIF_NF:
            kind = rng.choice(["exrhs", "exlhs", "conj", "conj", "func", "rsub"])
            if kind == "exrhs" and sig.role_names:
                axioms.append(
                    ExistsRhs(rand_name(rng, sig), rand_role(rng, sig), rand_name(rng, sig))
                )
            elif kind == "exlhs" and sig.role_names:
                axioms.append(
                    ExistsLhs(rand_role(rng, sig), rand_name(rng, sig), rand_name(rng, sig, top_ok=False))
                )
            elif kind == "conj":
                rhs = rand_name(rng, sig, top_ok=False)
                if rng.random() < 0.15:
                    rhs = BOT
                axioms.append(ConjLhs(rand_name(rng, sig), rand_name(rng, sig), rhs))
            elif kind == "func" and sig.role_names:
                axioms.append(Func(rand_role(rng, sig)))
            elif kind == "rsub" and sig.role_names:
                axioms.append(RoleSub(rand_role(rng, sig), rand_role(rng, sig)))
        else:
            kind = rng.choice(["sub", "sub", "sub", "disj", "extra"])
            if kind == "sub":
                axioms.append(SubBasic(rand_basic(rng, sig), rand_basic(rng, sig)))
            elif kind == "disj":
                axioms.append(Disjoint(rand_basic(rng, sig), rand_basic(rng, sig)))
            elif dialect == DL_LITE_H and sig.role_names:
                axioms.append(RoleSub(rand_role(rng, sig), rand_role(rng, sig)))
            elif dialect in (DL_LITE_F, DL_LITE_F_MINUS) and sig.role_names:
                axioms.append(Func(rand_role(rng, sig)))
    try:
        return Ontology(sig, frozenset(axioms), dialect)
    except UnsupportedAxiom:
        return rand_ontology(rng, sig, dialect, max_axioms)


def rand_instance(rng: random.Random, sig: Signature, max_inds=4, max_atoms=7) -> Instance:
    inds = [f"i{k}" for k in range(rng.randint(1, max_inds))]
    cat, rat = [], []
    for _ in range(rng.randint(0, max_atoms)):
        if sig.role_names and rng.random() < 0.45 and len(inds) > 1:
            rat.append(
                (rng.choice(sorted(sig.role_names)), rng.choice(inds), rng.choice(inds))
            )
        else:
            cat.append((rng.choice(sorted(sig.concept_names)), rng.choice(inds)))
    return instance(inds, cat, rat)


def rand_eliq(rng: random.Random, sig: Signature, max_size=5) -> Eliq:
    budget = rng.randint(1, max_size)

    def build(budget: int) -> Eliq:
        names = []
        edges = []
        while budget > 0:
            if sig.role_names and rng.random() < 0.4 and budget >= 2:
                sub_budget = rng.randint(1, budget - 1)
                budget -= sub_budget + 1
                edges.append((rand_role(rng, sig), build(sub_budget - 1)))
            elif rng.random() < 0.8:
                names.append(rng.choice(sorted(sig.concept_names)))
                budget -= 1
            else:
                break
        return make_eliq(names, edges)

    return build(budget)


def rand_long_slices(rng: random.Random, sig: Signature, inds: list[str], count: int) -> list[Instance]:
    """Random slices over `inds`, with up to 12 concept and 12 role atoms,
    role atoms with distinct sources and distinct targets, as the
    benchmark's long instances draw them."""
    names, roles = sorted(sig.concept_names), sorted(sig.role_names)
    out = []
    for _ in range(count):
        nc, nr = rng.randint(0, 12), rng.randint(0, 12)
        cat = zip(rng.choices(names, k=nc), rng.choices(inds, k=nc))
        rat = zip(rng.choices(roles, k=nr), rng.sample(inds, nr), rng.sample(inds, nr))
        out.append(Instance(frozenset(inds), frozenset(cat), frozenset(rat)))
    return out


SMALL_SIG = signature(["A", "B"], ["R"])
PROP_SIG = signature(["A", "B"])


def successors(inst: Instance, a: str, role: Role) -> frozenset[str]:
    """The individuals a reaches along role in inst, by one scan of its role atoms."""
    if role.inverted:
        return frozenset(x for r, x, y in inst.ratoms if r == role.name and y == a)
    return frozenset(y for r, x, y in inst.ratoms if r == role.name and x == a)


@dataclass(frozen=True)
class RootHom:
    assignment: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.assignment)


def root_homs(onto: Ontology, q: PathQuery, dinst: TInstance) -> list[RootHom]:
    """All root homomorphisms within the evaluation horizon, lexicographically:
    body i of q sits at time point ti, each body holds at its point, and the
    points respect the relations of q's chain."""
    table = slice_table(onto, dinst)

    def holds(body: Eliq, m: int) -> bool:
        return table.bits(body, 1 << min(m, table.future)) != 0

    bodies, rels = q.chain
    horizon = dinst.max_time + q.tdp + 1
    out: list[RootHom] = []

    def extend(idx: int, positions: list[int]):
        if idx == len(bodies):
            out.append(RootHom(tuple((f"t{i}", p) for i, p in enumerate(positions))))
            return
        prev = positions[-1]
        if rels[idx - 1] == SUC:
            candidates = [prev + 1]
        elif rels[idx - 1] == LESS:
            candidates = range(prev + 1, horizon + 1)
        else:
            candidates = range(prev, horizon + 1)
        for m in candidates:
            if m <= horizon and holds(bodies[idx], m):
                extend(idx + 1, positions + [m])

    if holds(bodies[0], 0):
        extend(1, [0])
    return out


def enum_trees(sig: Signature, size_bound: int, inverses: bool) -> list[Eliq]:
    """Every canonical tree query over the signature of size <= size_bound,
    in (size, key) order: trees and edge multisets built top-down by budget,
    each through `make_eliq`, with duplicates dropped by key."""
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
        """Edge multisets whose total cost (the subtree sizes) stays within
        budget, in non-decreasing canonical order."""
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


def _leaf_removals(q: Eliq):
    """q's induced instance with one leaf (a node other than the point with
    a single role atom) removed, for each leaf in turn, with the point."""
    p = induced_instance(q)
    inst = p.instance
    for leaf in sorted(inst.individuals - {p.point}):
        atoms = [a for a in inst.ratoms if leaf in a[1:]]
        if len(atoms) == 1:
            yield Instance(
                inst.individuals - {leaf},
                frozenset(a for a in inst.catoms if a[1] != leaf),
                inst.ratoms - {atoms[0]},
            ), p.point


def reference_is_core(q: Eliq) -> bool:
    """q is a core: `hom_exists` maps q into none of its leaf removals."""
    return not any(hom_exists(q, inst, point) for inst, point in _leaf_removals(q))


def reference_core(q: Eliq) -> Eliq:
    """q's core, by removing one leaf at a time, the first in name order
    that q still maps past (`hom_exists`), while there is one; each step
    keeps a query equivalent to q."""
    while True:
        for inst, point in _leaf_removals(q):
            if hom_exists(q, inst, point):
                q = instance_to_eliq(inst, point)
                break
        else:
            return q


def reference_letters(onto: Ontology, q1, q2, domain_size: int = 2) -> list[Pointed]:
    """A slice alphabet for telling q1 and q2 apart that owes nothing to
    their profiles: the empty slice, then the hats of the satisfiable
    domain queries up to `domain_size` over the ontology's signature (class
    p when it has no role), of the bodies and until fillers of both queries
    and of their pairwise conjunctions, one letter per distinct hat."""
    r = reasoner(onto)
    sig = onto.signature
    bodies: set[Eliq] = set()
    for q in (q1, q2):
        qbodies, _, fillers = flat_form(q)
        bodies.update(qbodies)
        bodies.update(f for f in fillers or () if f is not None)
    qclass = CLASS_ELIQ if sig.role_names else CLASS_P
    pool = set(enum_domain_queries(sig, qclass, domain_size)) | bodies
    pool |= {conjoin(x, y) for x in bodies for y in bodies}
    letters = [Pointed(Instance(frozenset(("a",))), "a")]
    seen = {letters[0].instance}
    for q in sorted(pool, key=lambda q: (q.size, q._key)):
        if q.is_bottom or not r.query_satisfiable(q):
            continue
        h = r.hat(q)
        if h.instance not in seen:
            seen.add(h.instance)
            letters.append(h)
    return letters


def reference_contains(r: Reasoner, q1: Eliq, q2: Eliq) -> bool:
    """q1 ⊑ q2 decided for one pair, without the containment cache or a
    homomorphism table kept with the hat: true when q1 is unsatisfiable or q2
    is ⊤, false when q2 is ⊥, and otherwise whether q2 maps to the point of
    the chase of q1's hat to q2's role depth (`hom_exists`)."""
    if not r.query_satisfiable(q1) or q2.is_top:
        return True
    if q2.is_bottom:
        return False
    h = r.hat(q1)
    return hom_exists(q2, r.chase(h.instance, q2.role_depth), h.point)


def reference_strict_weakenings(r: Reasoner, q: Eliq, pool) -> list[Eliq]:
    """The members c of pool, in order, with q ⊑ c and not c ⊑ q, decided
    pair by pair (`reference_contains`)."""
    return [c for c in pool if reference_contains(r, q, c) and not reference_contains(r, c, q)]


def reference_maximal(r: Reasoner, candidates) -> list[Eliq]:
    """The containment-least candidates by the pairwise filter `frontier` once
    ran: in size-then-key order, the first of each equivalence class is
    picked, then the picked ones that no other picked one strictly entails
    are kept, each pair decided by `reference_contains`."""
    picked: list[Eliq] = []
    for c in sorted(set(candidates), key=lambda c: (c.size, c._key)):
        if not any(reference_contains(r, c, p) and reference_contains(r, p, c) for p in picked):
            picked.append(c)
    return [
        c for c in picked
        if not any(reference_contains(r, d, c) and not reference_contains(r, c, d) for d in picked if d is not c)
    ]


def frontier_pool(onto: Ontology, q: Eliq, qclass: str, size_bound: int) -> list[Eliq]:
    """The pool of `domainchar.frontier`, widened to every tree, in
    size-then-key order: every conjunction of names for class `p`, else the
    one-step weakenings of q plus every tree of the class up to the bound
    (`enum_trees`, not only the cores that `frontier` reads), with no
    inverse role for `elq`."""
    sig = onto.signature
    if qclass == CLASS_P:
        pool = set(enum_domain_queries(sig, CLASS_P, len(sig.concept_names)))
    else:
        pool = set(one_step_weakenings(q)) | set(enum_trees(sig, size_bound, qclass != CLASS_ELQ))
    pool = [c for c in pool if not (qclass == CLASS_ELQ and c.has_inverse())]
    return sorted(pool, key=lambda c: (c.size, c._key))


def frontier_candidates(onto: Ontology, q: Eliq, qclass: str, size_bound: int) -> list[list[Eliq]]:
    """The candidate sets the bounded frontier search would propose, for
    inspection: what `domainchar.frontier` searches, then its one-step
    weakenings alone, each by the pairwise reference filter."""
    r = Reasoner(onto)
    candidates = reference_strict_weakenings(r, q, frontier_pool(onto, q, qclass, size_bound))
    sets = [reference_maximal(r, candidates)]
    steps = set(one_step_weakenings(q))
    weak = [c for c in candidates if c in steps]
    if weak:
        sets.append(reference_maximal(r, weak))
    return sets


def reference_prop_frontier(onto: Ontology, q: Eliq) -> list[Eliq]:
    """The class-`p` frontier of q by the subset loop `frontier` once ran:
    every conjunction of signature names, by number of names, that q entails
    and that does not entail q, then the containment-least ones, all decided
    pair by pair (`reference_contains`)."""
    names = sorted(onto.signature.concept_names)
    r = Reasoner(onto)
    pool = [make_eliq(combo) for k in range(len(names) + 1) for combo in itertools.combinations(names, k)]
    return reference_maximal(r, reference_strict_weakenings(r, q, pool))


def reference_probe_shapes(sig: Signature, max_len: int, qclass: str = CLASS_ELIQ) -> list:
    """`path_probes`' listing built eagerly as a list: chains level by level,
    each extended by every role, a row of (root name, tip name) per chain,
    cut after MAX_PATH_PROBES shapes."""
    roles = [Role(r) for r in sorted(sig.role_names)]
    if qclass != CLASS_ELQ:
        roles += [r.inverse for r in roles]
    roles.sort(key=str)
    names = [None] + sorted(sig.concept_names)
    probes = []
    chains = [()]
    for _ in range(max_len):
        chains = [c + (r,) for c in chains for r in roles]
        for chain in chains:
            for root_name in names:
                for tip_name in names:
                    probes.append((root_name, chain, tip_name))
                    if len(probes) >= MAX_PATH_PROBES:
                        return probes
    return probes


def reference_types(onto: Ontology, elems) -> list[frozenset[int]]:
    """The consistent types over the closure `elems` by the sign-vector test
    that `type_atlas` once ran: every assignment of signs, in
    `itertools.product` order, whose positives are satisfiable and entail no
    negated element, each given by its positive indices. Asks a reasoner of
    its own."""
    r = Reasoner(onto)
    types = []
    for signs in itertools.product((False, True), repeat=len(elems)):
        posq = conjoin_all(e for e, s in zip(elems, signs) if s)
        if r.query_satisfiable(posq) and not any(
            r.contains(posq, e) for e, s in zip(elems, signs) if not s
        ):
            types.append(frozenset(i for i, s in enumerate(signs) if s))
    return types


def reference_fitting_shapes(groups: list, checks: list):
    """The shapes `verify._fitting_shapes` yields, by the loop it once ran:
    each last entry of a prefix is tested on every check's example in turn
    (`_ExamplePass.extend` from its state after the prefix) up to the first
    that refuses, and a prefix that a positive refuses as a whole is
    skipped."""
    serial = 0
    for levels in groups:
        *inner, last = levels
        for prefix in itertools.product(*inner):
            serial += 1
            for entry in last:
                for ex, want in checks:
                    if ex.serial != serial:
                        ex.enter(prefix, serial)
                    if (ex.state != 0 and ex.extend(ex.state, entry) != 0) != want:
                        break
                else:
                    yield prefix + (entry,)
                    continue
                if want and not ex.state:
                    break


def reference_realisation(t, gaps=None) -> TInstance:
    """What `TaggedBNormal.to_tinstance` realises, built afresh: every block
    slice renamed from its pointed instance, and every empty slice and
    every padded slice a new `Instance`."""
    slices: list[Instance] = []
    tag = 0
    for i, block in enumerate(t.blocks):
        if i:
            gap = t.b if gaps is None else gaps.get(i - 1, t.b)
            slices.extend(Instance(frozenset(("a",))) for _ in range(gap))
        for s in block:
            p = s.slice
            others = sorted(p.instance.individuals - {p.point})
            ren = {ind: f"s{tag}_{k}" for k, ind in enumerate(others)}
            ren[p.point] = "a"
            slices.append(rename_instance(p.instance, ren))
            tag += 1
    inds = frozenset().union(*(s.individuals for s in slices))
    return TInstance(tuple(Instance(inds, s.catoms, s.ratoms) for s in slices), "a")


def reference_saturation(r: Reasoner, inst: Instance) -> Saturation:
    """What `r.saturate(inst)` computes, by one rule loop over every
    individual of inst in sorted order, linked by role atoms or not, round
    after round until nothing changes or one is inconsistent."""
    edges = set(r._closed_edges(inst))
    names: dict[str, set[str]] = {a: set() for a in inst.individuals}
    for c, a in inst.catoms:
        names[a].add(c)
    succ: dict = {}
    for e in edges:
        _index_edge(succ, e)
    groups: dict[str, list] = {a: [] for a in inst.individuals}
    els = [_Named(a, names, groups[a], succ, edges, r) for a in sorted(inst.individuals)]
    consistent = not _func_clash(r._funcs, edges)
    changed = True
    while changed and consistent:
        changed = False
        known = len(edges)
        for el in els:
            changed = r._step(el, None) or changed
            if BOT in el.t:
                consistent = False
                break
        if len(edges) != known and _func_clash(r._funcs, edges):
            consistent = False
    return Saturation(consistent, names, frozenset(edges), groups)
