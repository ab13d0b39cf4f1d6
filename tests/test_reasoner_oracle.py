"""An independent completion-style reasoner for the inverse-free,
functionality-free fragment, written from scratch here and cross-checked
against the main engine on random inputs."""
import random

from tomq.dl import (
    ELHIF_NF,
    INCONSISTENT,
    BOT,
    ConjLhs,
    Eliq,
    ExistsLhs,
    ExistsRhs,
    Instance,
    Ontology,
    Role,
    TOP,
    certain_answer,
    make_eliq,
    reasoner,
    saturate,
    signature,
)

from helpers import rand_instance, successors

NAMES = ["A", "B", "C"]
ROLES = ["R", "S"]
SIG = signature(NAMES, ROLES)


def rand_el_ontology(rng):
    axioms = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(["exr", "exl", "conj", "conj"])
        pick = lambda: rng.choice(NAMES + [TOP])
        if kind == "exr":
            axioms.append(ExistsRhs(pick(), Role(rng.choice(ROLES)), pick()))
        elif kind == "exl":
            axioms.append(ExistsLhs(Role(rng.choice(ROLES)), pick(), rng.choice(NAMES)))
        else:
            rhs = rng.choice(NAMES + [BOT]) if rng.random() < 0.9 else BOT
            axioms.append(ConjLhs(pick(), pick(), rhs))
    return Ontology(SIG, frozenset(axioms), ELHIF_NF)


def rand_elq(rng, budget=4):
    names = [n for n in NAMES if rng.random() < 0.3]
    edges = []
    while budget > 1 and rng.random() < 0.5:
        sub = rand_elq(rng, budget=budget - 2)
        edges.append((Role(rng.choice(ROLES)), sub))
        budget -= 1 + sub.size
    return make_eliq(names, edges)


class Completion:
    """Subsumption closure: for every seed name, the names it entails and the
    existentials it forces. Complete for the fragment because anonymous
    elements carry a single seed."""

    def __init__(self, onto):
        self.conj = [ax for ax in onto.axioms if isinstance(ax, ConjLhs)]
        self.exr = [ax for ax in onto.axioms if isinstance(ax, ExistsRhs)]
        self.exl = [ax for ax in onto.axioms if isinstance(ax, ExistsLhs)]
        self.sub: dict[str, set[str]] = {}
        self.exists: dict[str, set[tuple[str, str]]] = {}
        for seed in NAMES + [TOP]:
            self.sub[seed] = {seed, TOP}
            self.exists[seed] = set()
        changed = True
        while changed:
            changed = False
            for seed in NAMES + [TOP]:
                if self._close(self.sub[seed], self.exists[seed]):
                    changed = True

    def _close(self, names: set, exs: set) -> bool:
        changed = False
        for ax in self.conj:
            if ax.lhs1 in names and ax.lhs2 in names and ax.rhs not in names:
                names.add(ax.rhs)
                changed = True
        for ax in self.exr:
            if ax.lhs in names and (ax.role.name, ax.filler) not in exs:
                exs.add((ax.role.name, ax.filler))
                changed = True
        for ax in self.exl:
            for rname, filler in list(exs):
                if rname == ax.role.name and ax.filler in self.sub.get(filler, {filler, TOP}):
                    if ax.rhs not in names:
                        names.add(ax.rhs)
                        changed = True
        return changed

    def saturate_named(self, inst: Instance):
        names = {a: set(inst.names_at(a)) | {TOP} for a in inst.individuals}
        exs = {a: set() for a in inst.individuals}
        changed = True
        while changed:
            changed = False
            for a in inst.individuals:
                for ax in self.exl:
                    for b in successors(inst, a, Role(ax.role.name)):
                        if (ax.filler in names[b] or ax.filler == TOP) and ax.rhs not in names[a]:
                            names[a].add(ax.rhs)
                            changed = True
                if self._close(names[a], exs[a]):
                    changed = True
        reachable = set()
        frontier = [f for ex in exs.values() for _, f in ex]
        while frontier:
            f = frontier.pop()
            if f in reachable:
                continue
            reachable.add(f)
            for n in self.sub[f]:
                frontier.extend(g for _, g in self.exists.get(n, ()))
        consistent = all(BOT not in ns for ns in names.values()) and all(
            BOT not in self.sub[f] for f in reachable
        )
        return names, exs, consistent

    def holds_anon(self, seed: str, q: Eliq) -> bool:
        if not set(q.names) <= self.sub[seed]:
            return False
        for role, child in q.edges:
            if role.inverted:
                return False
            if not any(
                r == role.name and self.holds_anon(f, child)
                for r, f in self.exists[seed]
            ):
                return False
        return True

    def certain(self, inst: Instance, point: str, q: Eliq) -> bool:
        names, exs, consistent = self.saturate_named(inst)
        if not consistent:
            return True

        def holds(a: str, node: Eliq) -> bool:
            if not set(node.names) <= names[a]:
                return False
            for role, child in node.edges:
                if role.inverted:
                    return False
                named_hit = any(
                    holds(b, child) for b in successors(inst, a, role)
                )
                anon_hit = any(
                    r == role.name and self.holds_anon(f, child)
                    for r, f in exs[a]
                )
                if not (named_hit or anon_hit):
                    return False
            return True

        return holds(point, q)


# Witnesses of type A and B alternate below a:A, and a witness is C exactly
# when its R-successor is. The witness a>R:B>R:A is C because its successor
# is a B; a witness type estimated while it was still being evaluated once
# left that type stale in the memo, so ex R.ex R.C was not entailed at a.
R = Role("R")
ALTERNATING = Ontology(
    SIG,
    frozenset(
        [ExistsRhs("A", R, "B"), ExistsRhs("B", R, "A"), ConjLhs("B", TOP, "C"), ExistsLhs(R, "C", "C")]
    ),
    ELHIF_NF,
)
ALTERNATING_CASE = (
    ALTERNATING,
    Instance(frozenset(["a"]), frozenset([("A", "a")])),
    make_eliq([], [(R, make_eliq([], [(R, make_eliq(["C"]))]))]),
)


def test_saturation_agrees_with_independent_completion():
    rng = random.Random(424242)
    cases = [
        (rand_el_ontology(rng), rand_instance(rng, SIG, max_inds=3, max_atoms=6))
        for _ in range(300)
    ]
    checked = 0
    for onto, inst in cases + [ALTERNATING_CASE[:2]]:
        oracle = Completion(onto)
        names, _, consistent = oracle.saturate_named(inst)
        got = saturate(onto, inst)
        if got is INCONSISTENT:
            assert not consistent
            continue
        assert consistent
        for a in inst.individuals:
            mine = got.names_at(a)
            theirs = {n for n in names[a] if n not in (TOP, BOT)}
            assert mine == theirs, (sorted(map(str, onto.axioms)), a, mine, theirs)
        checked += 1
    assert checked > 150


def test_certain_answers_agree_with_independent_completion():
    rng = random.Random(31337)
    cases = []
    for _ in range(250):
        onto = rand_el_ontology(rng)
        inst = rand_instance(rng, SIG, max_inds=3, max_atoms=5)
        cases.append((onto, inst, rand_elq(rng)))
    agreements = 0
    for onto, inst, q in cases + [ALTERNATING_CASE]:
        point = sorted(inst.individuals)[0]
        oracle = Completion(onto)
        assert certain_answer(onto, inst, point, q) == oracle.certain(inst, point, q), (
            sorted(map(str, onto.axioms)),
            sorted(inst.catoms),
            sorted(inst.ratoms),
            q._key,
        )
        agreements += 1
    assert agreements == 251
