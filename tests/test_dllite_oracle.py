"""An independent oracle for the three DL-Lite dialects: the canonical model
(Calvanese et al., JAR 2007), written from scratch here and cross-checked
against the reasoner's certain answers and containments on seeded inputs.

The model, unfolded lazily from the named individuals:
- a named individual's basic concepts are the closure, under `SubBasic` and
  the role hierarchy, of its concept atoms and the ∃S of its role-closed
  edges;
- an element whose type holds ∃S but that has no S-neighbour gets one fresh
  S-child, whose type is the closure of {∃S⁻};
- the instance is consistent when it has no `bot` atom, no named individual
  has two successors along a functional role, and no reachable type holds
  both sides of a `Disjoint`.
In DL-Lite no dialect has both `Func` and role inclusions, so a fresh child
never clashes with a functional role: its parent is its only neighbour.
"""
import random
from collections import Counter

from tomq.dl import (
    BOT,
    DL_LITE_F,
    DL_LITE_F_MINUS,
    DL_LITE_H,
    Disjoint,
    Func,
    Ontology,
    Role,
    RoleSub,
    SubBasic,
    exists_basic,
    name_basic,
    reasoner,
    signature,
    top_basic,
)

from helpers import rand_eliq, rand_instance, rand_ontology

SIG = signature(["A", "B", "C"], ["R", "S"])
ROLES = [Role(n, inv) for n in sorted(SIG.role_names) for inv in (False, True)]
ONTOLOGIES_PER_DIALECT = 400


class DLLite:
    """What the canonical model takes from the ontology alone: the role
    hierarchy, type closure, and the type and needs of a fresh S-child."""

    def __init__(self, onto: Ontology):
        incl = [(ax.sub, ax.sup) for ax in onto.axioms if isinstance(ax, RoleSub)]
        incl += [(a.inverse, b.inverse) for a, b in incl]
        self.sup = {r: {r} for r in ROLES}  # r ↦ every s with r ⊑* s
        changed = True
        while changed:
            changed = False
            for a, b in incl:
                for r in ROLES:
                    if a in self.sup[r] and b not in self.sup[r]:
                        self.sup[r].add(b)
                        changed = True
        self.subs = [(ax.lhs, ax.rhs) for ax in onto.axioms if isinstance(ax, SubBasic)]
        self.disjoint = [(ax.lhs, ax.rhs) for ax in onto.axioms if isinstance(ax, Disjoint)]
        self.func = {ax.role for ax in onto.axioms if isinstance(ax, Func)}
        self.anon = {s: self.closure({exists_basic(s.inverse)}) for s in ROLES}

    def closure(self, basics: set) -> frozenset:
        out = set(basics) | {top_basic()}
        changed = True
        while changed:
            changed = False
            for b in [b for b in out if b.kind == "exists"]:
                supers = {exists_basic(s) for s in self.sup[b.role]}
                if not supers <= out:
                    out |= supers
                    changed = True
            for lhs, rhs in self.subs:
                if lhs in out and rhs not in out:
                    out.add(rhs)
                    changed = True
        return frozenset(out)

    def needs(self, tp: frozenset, present) -> list[Role]:
        """The roles s with ∃s in tp and no s-neighbour among `present`."""
        return [s for s in ROLES if exists_basic(s) in tp and s not in present]

    def clash(self, tp: frozenset) -> bool:
        return any(b1 in tp and b2 in tp for b1, b2 in self.disjoint)


class CanonicalModel:
    """The canonical model of (onto, inst). An element is a path: a named
    individual followed by the roles of the fresh children taken from it."""

    def __init__(self, lite: DLLite, inst):
        self.lite = lite
        self.succ = {(a, r): set() for a in inst.individuals for r in ROLES}
        for name, a, b in inst.ratoms:
            for s in lite.sup[Role(name)]:
                self.succ[(a, s)].add(b)
                self.succ[(b, s.inverse)].add(a)
        self.types = {
            a: lite.closure({name_basic(c) for c, x in inst.catoms if x == a}
                            | {exists_basic(r) for r in ROLES if self.succ[(a, r)]})
            for a in inst.individuals
        }
        self.consistent = (
            not any(c == BOT for c, _ in inst.catoms)
            and not any(len(self.succ[(a, f)]) > 1 for a in inst.individuals for f in lite.func)
            and not any(lite.clash(tp) for tp in self._reachable_types())
        )

    def _reachable_types(self):
        yield from self.types.values()
        todo = {s for a, tp in self.types.items() for s in self._needs((a,))}
        seen = set()
        while todo:
            s = todo.pop()
            seen.add(s)
            yield self.lite.anon[s]
            todo |= set(self.lite.needs(self.lite.anon[s], self._up(s))) - seen

    def _up(self, s: Role) -> set:
        """The roles along which an s-child reaches its parent."""
        return {t.inverse for t in self.lite.sup[s]}

    def _needs(self, el: tuple) -> list[Role]:
        if len(el) == 1:
            present = {r for r in ROLES if self.succ[(el[0], r)]}
            return self.lite.needs(self.types[el[0]], present)
        return self.lite.needs(self.lite.anon[el[-1]], self._up(el[-1]))

    def _neighbours(self, el: tuple, role: Role):
        if len(el) == 1:
            yield from ((b,) for b in self.succ[(el[0], role)])
        elif role in self._up(el[-1]):
            yield el[:-1]
        yield from (el + (s,) for s in self._needs(el) if role in self.lite.sup[s])

    def holds(self, el: tuple, q) -> bool:
        tp = self.types[el[0]] if len(el) == 1 else self.lite.anon[el[-1]]
        return all(name_basic(n) in tp for n in q.names) and all(
            any(self.holds(b, child) for b in self._neighbours(el, role)) for role, child in q.edges
        )

    def certain(self, point: str, q) -> bool:
        return not self.consistent or self.holds((point,), q)


def dllite_cases():
    """(ontology, [(instance, queries)]) per seeded ontology, in each dialect."""
    for d, dialect in enumerate((DL_LITE_H, DL_LITE_F, DL_LITE_F_MINUS)):
        rng = random.Random(20261019 + d)
        for _ in range(ONTOLOGIES_PER_DIALECT):
            onto = rand_ontology(rng, SIG, dialect)
            yield onto, [
                (rand_instance(rng, SIG), [rand_eliq(rng, SIG) for _ in range(4)]) for _ in range(3)
            ]


def test_certain_answers_and_containment_agree_with_the_canonical_model():
    counts = Counter()
    for onto, draws in dllite_cases():
        r, lite = reasoner(onto), DLLite(onto)
        plain = DLLite(Ontology(SIG, frozenset(), onto.dialect))
        queries = [q for _, qs in draws for q in qs]
        for inst, qs in draws:
            model, bare = CanonicalModel(lite, inst), CanonicalModel(plain, inst)
            for q in qs:
                for a in sorted(inst.individuals):
                    got = r.certain_answer(inst, a, q)
                    assert got == model.certain(a, q), (sorted(map(str, onto.axioms)), inst, a, q._key)
                    counts["answers"] += 1
                    counts["true"] += got
                    counts["inconsistent"] += not model.consistent
                    counts["through the ontology"] += got and model.consistent and not bare.certain(a, q)
        for q1 in queries[:3]:
            hat = r.hat(q1)
            model = CanonicalModel(lite, hat.instance)
            want = [model.certain(hat.point, q2) for q2 in queries]
            assert r.contains_all(q1, queries) == want, (sorted(map(str, onto.axioms)), q1._key)
            counts["containments"] += len(queries)
            counts["contained"] += sum(want)
    # seeded, so these are fixed: 14 293, 6 580, 912, 43 200 and 17 354
    assert counts["true"] >= 13000, counts
    assert counts["inconsistent"] >= 6000, counts
    assert counts["through the ontology"] >= 800, counts
    assert counts["containments"] == 43200 and counts["contained"] >= 15000, counts
