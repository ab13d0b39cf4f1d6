"""`Reasoner.contains_all`, the one containment procedure (`contains` asks
it about one pair), against containment decided pair by pair on a reasoner
of its own (`helpers.reference_contains`); and the one homomorphism table
per instance (`Reasoner.table`) that containment, certain answers and
pointed entailment share, deepened on demand."""
import random

from helpers import rand_eliq, rand_instance, rand_ontology, reference_contains

from tomq.dl import (
    BOT,
    BOTTOM_QUERY,
    DIALECTS,
    TOP_QUERY,
    Basic,
    ConjLhs,
    Disjoint,
    Func,
    ELHIF_NF,
    ExistsRhs,
    Instance,
    Ontology,
    Pointed,
    Reasoner,
    Role,
    RoleSub,
    SubBasic,
    atom,
    conjoin,
    exists,
    exists_basic,
    hom_exists,
    induced_instance,
    name_basic,
    signature,
)
from tomq.errors import UnsupportedAxiom

SIG = signature(["A", "B"], ["R", "S"])
R = Role("R")


def _roles_of(ax):
    """The roles an axiom names, bare or inside a basic concept."""
    for value in vars(ax).values():
        if isinstance(value, Role):
            yield value
        elif isinstance(value, Basic) and value.role is not None:
            yield value.role


def _needs_chase(r: Reasoner, q1, q2) -> bool:
    """q2 does not map into q1's hat itself, so when q1 entails q2, only the
    chase's anonymous elements answer it."""
    h = r.hat(q1)
    return not hom_exists(q2, h.instance, h.point)


def test_contains_all_agrees_with_reference():
    rng = random.Random(20261019)
    counts = dict.fromkeys(
        ("pairs", "true", "false", "unsat_left", "needs_chase", "func", "rolesub", "inverse", "bot"), 0)
    for k in range(240):
        onto = rand_ontology(rng, SIG, DIALECTS[k % len(DIALECTS)], max_axioms=8)
        axioms = onto.axioms
        counts["func"] += any(isinstance(ax, Func) for ax in axioms)
        counts["rolesub"] += any(isinstance(ax, RoleSub) for ax in axioms)
        counts["inverse"] += any(role.inverted for ax in axioms for role in _roles_of(ax))
        counts["bot"] += any(
            isinstance(ax, Disjoint) or (isinstance(ax, ConjLhs) and ax.rhs == BOT) for ax in axioms
        )
        batch, single = Reasoner(onto), Reasoner(onto)
        pool = [rand_eliq(rng, SIG, max_size=6) for _ in range(40)]
        lefts = [BOTTOM_QUERY] + [rand_eliq(rng, SIG, max_size=5) for _ in range(9)]
        for q1 in lefts:
            qs = [TOP_QUERY, BOTTOM_QUERY] + rng.sample(pool, 30)
            qs += rng.sample(qs, 4)  # repeats
            # some keys already cached, by the one-pair test
            for q2 in rng.sample(qs, 3):
                batch.contains(q1, q2)
            got = batch.contains_all(q1, qs)
            want = [reference_contains(single, q1, q2) for q2 in qs]
            assert got == want, (onto, q1, [q2 for q2, g, w in zip(qs, got, want) if g != w])
            # every answer is cached, so a later one-pair test hits
            assert [batch._contains_cache[(q1._key, q2._key)] for q2 in qs] == want
            assert batch.contains_all(q1, qs) == want
            assert batch.contains_all(q1, []) == []
            satisfiable = single.query_satisfiable(q1)
            counts["unsat_left"] += not satisfiable and not q1.is_bottom
            counts["pairs"] += len(qs)
            counts["true"] += sum(want)
            counts["false"] += len(want) - sum(want)
            if satisfiable:
                counts["needs_chase"] += sum(
                    w and not q2.is_bottom and _needs_chase(single, q1, q2) for q2, w in zip(qs, want)
                )
    floors = {"pairs": 80000, "true": 35000, "false": 35000, "unsat_left": 200, "needs_chase": 3000,
              "func": 60, "rolesub": 50, "inverse": 120, "bot": 70}
    assert all(counts[name] >= floor for name, floor in floors.items()), counts



def _with_r_loop(onto):
    """onto plus axioms under which A starts an endless R-path, or None when
    the dialect refuses them."""
    if onto.dialect == ELHIF_NF:
        loop = {ExistsRhs("A", R, "A")}
    else:
        loop = {SubBasic(name_basic("A"), exists_basic(R)), SubBasic(exists_basic(R.inverse), exists_basic(R))}
    try:
        return Ontology(onto.signature, onto.axioms | loop, onto.dialect)
    except UnsupportedAxiom:
        return None


def test_left_query_table_rebuilt_deeper_and_reused_shallower():
    """One left query asked, through `contains`, a depth-0, a depth-2, then a
    depth-1 right query: the first builds q1's table over a chase of depth 0,
    the second replaces it with one over a depth-2 chase, and the third reads
    that same table. Every answer matches `reference_contains`. Half
    the ontologies give A an endless R-path, and then q1 holds A and the
    depth-2 query is often an R-path, which only the deeper chase answers."""
    rng = random.Random(20261020)
    by_depth: dict = {0: [], 1: [], 2: []}
    while any(len(qs) < 60 for qs in by_depth.values()):
        q = rand_eliq(rng, SIG, max_size=6)
        if not q.is_top and q.role_depth in by_depth:
            by_depth[q.role_depth].append(q)
    paths = [exists(R, exists(R)), exists(R, exists(R, atom("A"))), conjoin(atom("A"), exists(R, exists(R)))]
    counts = dict.fromkeys(("satisfiable", "true", "false", "needs_depth_2"), 0)
    for k in range(400):
        onto = rand_ontology(rng, SIG, DIALECTS[k % len(DIALECTS)], max_axioms=8)
        q1 = rand_eliq(rng, SIG, max_size=5)
        right = [rng.choice(by_depth[d]) for d in (0, 2, 1)]
        looped = _with_r_loop(onto) if k % 2 else None
        if looped is not None:
            onto, q1, right[1] = looped, conjoin(atom("A"), q1), rng.choice(paths + by_depth[2][:3])
        r = Reasoner(onto)
        satisfiable = r.query_satisfiable(q1)
        tables = []
        for q2 in right:
            assert r.contains(q1, q2) == reference_contains(Reasoner(onto), q1, q2), (onto, q1, q2)
            if satisfiable:
                tables.append(r._tables[r.hat(q1).instance])
        if satisfiable:
            counts["satisfiable"] += 1
            assert [t.depth for t in tables] == [0, 2, 2] and tables[1] is tables[2]
            h = r.hat(q1)
            deep = right[1]
            counts["needs_depth_2"] += r.contains(q1, deep) and not hom_exists(
                deep, r.chase(h.instance, 1), h.point)
        answers = [r.contains(q1, q2) for q2 in right]
        counts["true"] += sum(answers)
        counts["false"] += len(answers) - sum(answers)
    floors = {"satisfiable": 250, "true": 150, "false": 250, "needs_depth_2": 40}
    assert all(counts[name] >= floor for name, floor in floors.items()), counts


def test_top_and_bottom_on_the_right_build_no_chase():
    """`contains(q, ⊤)`, `contains(q, ⊥)` and a batch of only those two,
    each asked of a fresh reasoner, answer without chasing q's hat; the
    first other query asked builds q's table."""
    rng = random.Random(20261021)
    counts = dict.fromkeys(("satisfiable", "unsatisfiable"), 0)
    for k in range(120):
        onto = rand_ontology(rng, SIG, DIALECTS[k % len(DIALECTS)], max_axioms=8)
        q = rand_eliq(rng, SIG, max_size=5)
        single, batch = Reasoner(onto), Reasoner(onto)
        unsat = not single.query_satisfiable(q)
        assert single.contains(q, TOP_QUERY) is True
        assert single.contains(q, BOTTOM_QUERY) is unsat
        assert batch.contains_all(q, [BOTTOM_QUERY, TOP_QUERY, BOTTOM_QUERY]) == [unsat, True, unsat]
        assert not single._tables and not batch._tables
        counts["unsatisfiable" if unsat else "satisfiable"] += 1
        if not unsat and not q.is_top:
            batch.contains_all(q, [TOP_QUERY, q])
            assert batch.hat(q).instance in batch._tables
    assert counts["satisfiable"] >= 60 and counts["unsatisfiable"] >= 10, counts


def _point_subtree(chased: Instance, point: str) -> Instance:
    """The chase restricted to the point and the anonymous elements below it
    (a chase element's name starts with its named ancestor's and `>`)."""
    keep = frozenset(e for e in chased.individuals if e.split(">", 1)[0] == point)
    return Instance(keep, frozenset(a for a in chased.catoms if a[1] in keep),
                    frozenset(a for a in chased.ratoms if a[1] in keep and a[2] in keep))


def test_certain_answers_and_entailment_read_one_deepened_table():
    """On one reasoner, the queries about a data instance of 2-4 individuals
    are asked deepest first, so that the shallower ones are answered from a
    table built deeper. Each `certain_answer` equals `hom_exists` into a
    fresh chase at the query's role depth, and each `pointed_entails` the
    same call on a fresh reasoner. Half the ontologies give A an endless
    R-path, which makes the deeper chase hold elements the shallow one
    lacks."""
    rng = random.Random(20261022)
    paths = [exists(R, exists(R, exists(R))), exists(R, exists(R, atom("A"))), exists(R.inverse, exists(R))]
    counts = dict.fromkeys(("true", "false", "via_neighbour", "deeper", "entails", "not_entails"), 0)
    for k in range(160):
        onto = rand_ontology(rng, SIG, DIALECTS[k % len(DIALECTS)], max_axioms=8)
        if k % 2:
            onto = _with_r_loop(onto) or onto
        inst = rand_instance(rng, SIG, max_inds=4, max_atoms=8)
        while len(inst.individuals) < 2:
            inst = rand_instance(rng, SIG, max_inds=4, max_atoms=8)
        r, fresh = Reasoner(onto), Reasoner(onto)
        if not fresh.is_satisfiable(inst):
            continue
        qs = [rand_eliq(rng, SIG, max_size=5) for _ in range(6)] + rng.sample(paths, 2)
        for q in sorted(qs, key=lambda q: -q.role_depth):
            chased = fresh.chase(inst, q.role_depth)
            for point in sorted(inst.individuals):
                got = r.certain_answer(inst, point, q)
                assert got == hom_exists(q, chased, point), (onto, inst, point, q)
                counts["true" if got else "false"] += 1
                counts["via_neighbour"] += got and not hom_exists(q, _point_subtree(chased, point), point)
                if q.edges:
                    held = r._tables[inst]
                    counts["deeper"] += held.depth > q.role_depth and len(held.inst.individuals) > len(
                        chased.individuals)
        targets = [induced_instance(q) for q in qs if not q.is_top]
        for tgt in sorted(targets, key=lambda p: -len(p.instance.individuals)):
            for point in sorted(inst.individuals):
                src = Pointed(inst, point)
                got = r.pointed_entails(src, tgt)
                assert got == Reasoner(onto).pointed_entails(src, tgt), (onto, inst, point, tgt)
                counts["entails" if got else "not_entails"] += 1
    floors = {"true": 600, "false": 1300, "via_neighbour": 75, "deeper": 300, "entails": 350,
              "not_entails": 1300}
    assert all(counts[name] >= floor for name, floor in floors.items()), counts
