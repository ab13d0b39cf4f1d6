"""Reasoning primitives: saturation, chase, certain answers, containment."""
import random

import pytest

from tomq.dl import (
    BOT,
    DL_LITE_F,
    DL_LITE_F_MINUS,
    DL_LITE_H,
    ELHIF_NF,
    ConjLhs,
    Disjoint,
    ExistsLhs,
    ExistsRhs,
    Func,
    Instance,
    Ontology,
    Pointed,
    Role,
    RoleSub,
    SubBasic,
    atom,
    conjoin,
    cycle_edge,
    empty_ontology,
    exists,
    exists_basic,
    induced_instance,
    instance,
    instance_to_eliq,
    make_eliq,
    name_basic,
    ontology,
    reasoner,
    signature,
)
from tomq.dl.reason import general_hom_exists, hom_exists
from tomq.errors import NotTreeShaped, UnsupportedAxiom

from helpers import rand_eliq, rand_instance, rand_ontology

R = Role("R")
S = Role("S")
P = Role("P")
A, B, C = atom("A"), atom("B"), atom("C")


def test_saturate_one_step_implication():
    O = ontology([SubBasic(name_basic("A"), name_basic("B"))], DL_LITE_H, signature(["A", "B"]))
    inst = instance(["a"], [("A", "a")])
    out = reasoner(O).saturate(inst).instance(inst)
    assert out.catoms == frozenset({("A", "a"), ("B", "a")})


def test_saturate_conjunction_clash():
    O = ontology([ConjLhs("A", "B", BOT)], ELHIF_NF, signature(["A", "B"]))
    assert not reasoner(O).saturate(instance(["a"], [("A", "a"), ("B", "a")])).consistent


def test_saturate_functionality_clash_named():
    O = ontology([Func(P)], DL_LITE_F, signature(["A"], ["P"]))
    got = reasoner(O).saturate(instance(["a", "b", "c"], [], [("P", "a", "b"), ("P", "a", "c")]))
    assert not got.consistent


def test_saturate_role_inclusion_closure():
    O = ontology([RoleSub(R, S), ExistsLhs(S, "A", "B")], ELHIF_NF, signature(["A", "B"], ["R", "S"]))
    inst = instance(["a", "b"], [("A", "b")], [("R", "a", "b")])
    out = reasoner(O).saturate(inst).instance(inst)
    assert ("S", "a", "b") in out.ratoms
    assert ("B", "a") in out.catoms


def test_chase_two_rounds():
    O = ontology([ExistsRhs("A", R, "A")], ELHIF_NF, signature(["A"], ["R"]))
    base = instance(["a"], [("A", "a")])
    out = reasoner(O).chase(base, 2)
    assert len(out.individuals) == 3
    x1 = next(b for r, x, b in out.ratoms if x == "a")
    x2 = next(b for r, x, b in out.ratoms if x == x1)
    assert ("A", x1) in out.catoms and ("A", x2) in out.catoms


def test_chase_depth_zero_unchanged():
    O = empty_ontology(signature(["A"], ["R"]))
    base = instance(["a", "b"], [("A", "a")], [("R", "a", "b")])
    assert reasoner(O).chase(base, 0).individuals == base.individuals


def test_chase_functional_reuse():
    O = ontology(
        [SubBasic(name_basic("A"), exists_basic(S)), Func(S)],
        DL_LITE_F,
        signature(["A"], ["S"]),
    )
    out = reasoner(O).chase(instance(["a", "b"], [("A", "a")], [("S", "a", "b")]), 3)
    assert out.individuals == frozenset({"a", "b"})


def test_chase_monotone_in_depth():
    rng = random.Random(7)
    for _ in range(25):
        sig = signature(["A", "B"], ["R", "S"])
        O = rand_ontology(rng, sig, rng.choice([DL_LITE_H, ELHIF_NF]))
        inst = rand_instance(rng, sig)
        r = reasoner(O)
        if not r.is_satisfiable(inst):
            continue
        d = rng.randint(0, 2)
        small, big = r.chase(inst, d), r.chase(inst, d + 1)
        assert small.catoms <= big.catoms and small.ratoms <= big.ratoms


def test_certain_answer_basics():
    sig = signature(["A"], ["R"])
    assert reasoner(empty_ontology(sig)).certain_answer(instance(["a"], [("A", "a")]), "a", A)
    O = ontology([ExistsLhs(R, "A", "A")], ELHIF_NF, sig)
    assert reasoner(O).certain_answer(instance(["a", "b"], [("A", "b")], [("R", "a", "b")]), "a", A)
    zig = exists(R, exists(R.inverse, exists(R)))
    assert reasoner(empty_ontology(sig)).certain_answer(instance(["a", "b"], [], [("R", "a", "b")]), "a", zig)


def test_certain_answer_unsatisfiable_is_all_yes():
    O = ontology([Disjoint(name_basic("A"), name_basic("B"))], DL_LITE_H, signature(["A", "B", "C"]))
    bad = instance(["a"], [("A", "a"), ("B", "a")])
    assert reasoner(O).certain_answer(bad, "a", atom("C"))
    assert reasoner(O).certain_answer(bad, "a", make_eliq())


def test_hat_examples():
    sig = signature(["A", "B"], ["R", "S"])
    h = reasoner(empty_ontology(sig)).hat(exists(R, A))
    assert len(h.instance.individuals) == 2
    assert h.instance.ratoms == frozenset({("R", "a", "a.0")})

    O = ontology([Func(S)], DL_LITE_F, signature(["A", "B"], ["S"]))
    h2 = reasoner(O).hat(conjoin(exists(S, A), exists(S, B)))
    assert len(h2.instance.individuals) == 2
    (merged,) = [i for i in h2.instance.individuals if i != "a"]
    assert h2.instance.names_at(merged) == frozenset({"A", "B"})

    h3 = reasoner(empty_ontology(sig)).hat(conjoin(A, B))
    assert h3.instance.catoms == frozenset({("A", "a"), ("B", "a")})
    assert len(h3.instance.individuals) == 1


def test_hat_surjective_quotient_hom():
    # a surjective homomorphism from the induced instance onto the hat, root to point
    rng = random.Random(13)
    sig = signature(["A", "B"], ["R", "S"])
    for _ in range(40):
        O = rand_ontology(rng, sig, rng.choice([DL_LITE_F, ELHIF_NF]))
        q = rand_eliq(rng, sig)
        if q.is_top:
            continue
        ind = induced_instance(q)
        h = reasoner(O).hat(q)
        assert general_hom_exists(ind.instance, ind.point, h.instance, h.point)
        # surjectivity: every hat individual is the image of an induced one;
        # the quotient never invents individuals, so sizes certify it
        assert h.instance.individuals <= ind.instance.individuals


def test_contains_examples():
    Oe = empty_ontology(signature(["A", "B"]))
    assert reasoner(Oe).contains(conjoin(A, B), A)
    assert not reasoner(Oe).contains(A, conjoin(A, B))

    Of = ontology([Func(S)], DL_LITE_F, signature(["A", "B"], ["S"]))
    assert reasoner(Of).contains(conjoin(exists(S, A), exists(S, B)), exists(S, conjoin(A, B)))

    Oc = ontology(
        [ExistsRhs("A", R, "A"), ExistsLhs(R, "A", "A")],
        ELHIF_NF,
        signature(["A", "B"], ["R"]),
    )
    assert reasoner(Oc).contains(conjoin(B, exists(R, A)), conjoin(A, B))


def test_contains_agrees_with_chase_hom_oracle():
    rng = random.Random(99)
    sig = signature(["A", "B"], ["R", "S"])
    checked = 0
    for _ in range(200):
        O = rand_ontology(rng, sig, rng.choice([DL_LITE_H, DL_LITE_F, ELHIF_NF]))
        q1, q2 = rand_eliq(rng, sig), rand_eliq(rng, sig)
        r = reasoner(O)
        if not r.query_satisfiable(q1):
            continue
        h = r.hat(q1)
        oracle = hom_exists(q2, r.chase(h.instance, q2.role_depth), h.point)
        assert r.contains(q1, q2) == oracle
        checked += 1
    assert checked > 100


def test_saturate_idempotent_and_monotone():
    rng = random.Random(5)
    sig = signature(["A", "B"], ["R"])
    for _ in range(40):
        O = rand_ontology(rng, sig, rng.choice([DL_LITE_H, ELHIF_NF]))
        inst = rand_instance(rng, sig)
        r = reasoner(O)
        sat = r.saturate(inst)
        if not sat.consistent:
            continue
        out = sat.instance(inst)
        again = r.saturate(out)
        assert again.consistent
        assert again.instance(out) == out
        assert inst.catoms <= out.catoms


def test_certain_answer_preserved_under_homomorphisms():
    # if A maps homomorphically into A' and (O, A') is satisfiable, answers carry over
    rng = random.Random(21)
    sig = signature(["A", "B"], ["R"])
    checked = 0
    while checked < 30:
        O = rand_ontology(rng, sig, rng.choice([DL_LITE_H, ELHIF_NF]))
        small = rand_instance(rng, sig, max_inds=3, max_atoms=4)
        extra = rand_instance(rng, sig, max_inds=3, max_atoms=4)
        big = Instance(
            small.individuals | extra.individuals,
            small.catoms | extra.catoms,
            small.ratoms | extra.ratoms,
        )
        r = reasoner(O)
        if not r.is_satisfiable(big):
            continue
        point = sorted(small.individuals)[0]
        q = rand_eliq(rng, sig)
        if r.certain_answer(small, point, q):
            assert r.certain_answer(big, point, q)
        checked += 1


def test_dialect_validation_table():
    sig = signature(["A", "B"], ["R", "S"])
    sub = SubBasic(name_basic("A"), name_basic("B"))
    rsub = RoleSub(R, S)
    func = Func(R)
    exr = ExistsRhs("A", R, "B")
    cases = [
        (DL_LITE_H, [sub, rsub], True),
        (DL_LITE_H, [func], False),
        (DL_LITE_H, [exr], False),
        (DL_LITE_F, [sub, func], True),
        (DL_LITE_F, [rsub], False),
        (ELHIF_NF, [exr, func, rsub], True),
        (ELHIF_NF, [sub], False),
    ]
    for dialect, axioms, ok in cases:
        if ok:
            Ontology(sig, frozenset(axioms), dialect)
        else:
            with pytest.raises(UnsupportedAxiom):
                Ontology(sig, frozenset(axioms), dialect)
    # dl-lite-f-minus forbids B [= ex S when func(S-) is present
    bad = [SubBasic(name_basic("A"), exists_basic(S)), Func(S.inverse)]
    Ontology(sig, frozenset(bad), DL_LITE_F)
    with pytest.raises(UnsupportedAxiom):
        Ontology(sig, frozenset(bad), DL_LITE_F_MINUS)


def test_instance_to_eliq_roundtrip():
    got = instance_to_eliq(instance(["a", "b"], [("A", "b")], [("R", "b", "a")]), "a")
    assert got == exists(R.inverse, A)
    with pytest.raises(NotTreeShaped):
        instance_to_eliq(instance(["a"], [], [("R", "a", "a")]), "a")
    with pytest.raises(NotTreeShaped):
        instance_to_eliq(
            instance(["a", "b", "c"], [], [("R", "a", "b"), ("R", "b", "c"), ("R", "c", "a")]),
            "a",
        )


def _connected_instance(rng: random.Random) -> Instance:
    """A random spanning tree over up to five individuals plus up to two
    extra role atoms, which may be self-loops or parallel to a tree edge."""
    inds = [f"i{k}" for k in range(rng.randint(1, 5))]
    ratoms = set()
    for k in range(1, len(inds)):
        x, y = inds[k], rng.choice(inds[:k])
        ratoms.add((rng.choice("RS"), *rng.sample((x, y), 2)))
    for _ in range(rng.choice((0, 0, 1, 2))):
        ratoms.add((rng.choice("RS"), rng.choice(inds), rng.choice(inds)))
    catoms = [(rng.choice("AB"), x) for x in inds if rng.random() < 0.4]
    return instance(inds, catoms, ratoms)


def _connected_without(inst: Instance, edge) -> bool:
    adj = {a: set() for a in inst.individuals}
    for r, x, y in inst.ratoms - {edge}:
        adj[x].add(y)
        adj[y].add(x)
    start = min(inst.individuals)
    seen, todo = {start}, [start]
    while todo:
        for m in adj[todo.pop()] - seen:
            seen.add(m)
            todo.append(m)
    return seen == inst.individuals


def test_cycle_edge_agrees_with_instance_to_eliq():
    """On connected instances, `cycle_edge` finds no edge exactly when
    `instance_to_eliq` reads a tree, exactly when there is one role atom
    fewer than individuals; a found edge lies on a cycle, so dropping it
    keeps the instance connected."""
    rng = random.Random(13)
    outcomes = {True: 0, False: 0}
    for _ in range(1500):
        inst = _connected_instance(rng)
        point = rng.choice(sorted(inst.individuals))
        edge = cycle_edge(inst)
        try:
            q = instance_to_eliq(inst, point)
        except NotTreeShaped:
            q = None
        assert (edge is None) == (q is not None) == (len(inst.ratoms) == len(inst.individuals) - 1)
        if q is None:
            assert edge in inst.ratoms and _connected_without(inst, edge)
        else:
            assert q.size == 1 + len(inst.catoms) + len(inst.ratoms)
        outcomes[q is not None] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 300, outcomes


def test_compatible_and_conjoin():
    O = ontology([ConjLhs("A", "B", BOT)], ELHIF_NF, signature(["A", "B"]))
    assert not reasoner(O).compatible(A, B)
    assert reasoner(empty_ontology(signature(["A", "B"]))).compatible(A, B)
    assert conjoin(A, exists(R, B)) == make_eliq(["A"], [(R, B)])


def test_equivalence_via_containment():
    O = ontology(
        [ConjLhs("A", "Top", "B"), ConjLhs("A", "Top", "C"), ConjLhs("B", "C", "A")],
        ELHIF_NF,
        signature(["A", "B", "C"]),
    )
    assert reasoner(O).equivalent(A, conjoin(B, C))
    assert not reasoner(O).equivalent(A, B)
    assert reasoner(empty_ontology(signature(["A"]))).equivalent(A, A)


def test_pointed_entails_refuses_targets_away_from_their_point():
    # src's chase holds C six R-steps down, deeper than the two individuals
    # of tgt would make it chase; an unconnected target is refused
    names = ["A", "B1", "B2", "B3", "B4", "B5", "C"]
    chain = [ExistsRhs(x, R, y) for x, y in zip(names, names[1:])]
    O = ontology(chain, ELHIF_NF, signature(names, ["R"]))
    r = reasoner(O)
    src = Pointed(instance(["a"], [("A", "a")]), "a")
    with pytest.raises(ValueError):
        r.pointed_entails(src, Pointed(instance(["x", "y"], [("C", "y")]), "x"))
    deep = C
    for _ in names[1:]:
        deep = exists(R, deep)
    assert r.pointed_entails(src, r.hat(deep))
