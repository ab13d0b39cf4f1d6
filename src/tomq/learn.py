"""Exact learning of path queries from membership queries.

The learner turns a positive example into the target query in five stages:
make every slice tree-shaped (minimise/unwind), drop redundant timepoints,
close under the gap-introducing rewrite rules, resolve meet-reducible
primitive blocks by frontier-word replacement, and finally read off the
connectors by join and gap probes. Every mutation is committed only after the
teacher confirms the result is still a positive example.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

from .dl import (
    Eliq,
    Instance,
    Ontology,
    Pointed,
    cycle_edge,
    empty_instance,
    instance_to_eliq,
    point_component,
    reasoner,
)
from .domainchar import FrontierSearch, frontier, frontier_search
from .errors import (
    BudgetExceeded,
    NotPositiveInitialExample,
    NotTreeShaped,
    UnsafeQuery,
    UnsupportedDialect,
)
from .temporal.eval import SequenceMatcher
from .temporal.model import Conn, PathQuery, TInstance, leq, less, pathquery, tinstance
from .temporal.normal import normalize
from .tempchar import (
    MODE_DEPTH,
    MODE_SAFE,
    TaggedBNormal,
    TaggedSlice,
    _join_variant,
    rule_variants,
    splice_word,
)
from .verify import CLASS_ELIQ


@dataclass
class Teacher:
    """Answers membership queries about a hidden target truthfully."""

    onto: Ontology
    target: PathQuery
    budget: int = 10_000
    membership_count: int = 0
    max_query_size: int = 0
    transcript: list = field(default_factory=list)

    def __post_init__(self):
        self._matcher = SequenceMatcher(self.onto, self.target)

    def membership(self, dinst: TInstance) -> bool:
        if self.membership_count >= self.budget:
            raise BudgetExceeded(f"budget of {self.budget} membership queries exhausted")
        self.membership_count += 1
        self.max_query_size = max(self.max_query_size, dinst.size)
        answer = self._matcher.run(dinst)
        self.transcript.append((dinst, answer, self.membership_count))
        return answer


@dataclass(frozen=True)
class LearnerConfig:
    variant: str = MODE_SAFE             # a tempchar mode: safe, depth or nextdia
    depth: Optional[int] = None          # known temporal depth, depth variant
    frontier_bound: int = 6
    budget: int = 10_000
    # frontiers are always ELIQ frontiers: a constant, not a field, readable
    # here for the frontier span key of perfbench/spans.py
    qclass: ClassVar[str] = CLASS_ELIQ

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.variant == MODE_DEPTH and self.depth is None:
            raise ValueError("the depth variant needs the target depth")


# -------------------------------------------------------------- slice tooling

def saturate_names(onto: Ontology, inst: Instance) -> Instance:
    """Add every entailed concept-name atom; keep the stored role atoms as
    they are so tree-shaped slices stay tree-shaped."""
    sat = reasoner(onto).saturate(inst)
    if not sat.consistent:
        raise NotPositiveInitialExample("instance is unsatisfiable wrt the ontology")
    return Instance(inst.individuals, sat.catoms, inst.ratoms)


def unwind_step(inst: Instance, edge: tuple[str, str, str], fresh_prefix: str) -> Instance:
    """Double the slice along one cycle edge: add a disjoint copy and cross
    the chosen edge between the original and the copy."""
    r, a, b = edge
    copy_of = {ind: f"{fresh_prefix}{ind}" for ind in sorted(inst.individuals)}
    inds = set(inst.individuals) | set(copy_of.values())
    cat = set(inst.catoms)
    rat = set(inst.ratoms)
    for c, x in inst.catoms:
        cat.add((c, copy_of[x]))
    for s, x, y in inst.ratoms:
        rat.add((s, copy_of[x], copy_of[y]))
    a2, b2 = copy_of[a], copy_of[b]
    for s, x, y in list(rat):
        if (x, y) == (a, b):
            rat.discard((s, x, y))
            rat.add((s, a, b2))
        elif (x, y) == (a2, b2):
            rat.discard((s, x, y))
            rat.add((s, a2, b))
    return Instance(frozenset(inds), frozenset(cat), frozenset(rat))


def gap_blocks(slices: list[Instance], b: int) -> list[list[Instance]]:
    """Group a slice sequence into gap-normal blocks. A run of at least b
    empty slices between two non-empty ones ends a block and is dropped,
    and so are the empty slices at the end; a shorter run stays inside its
    block. Only the first block may start with empty slices; it is a single
    empty slice when nothing else is left of it."""
    blocks: list[list[Instance]] = [[]]
    run: list[Instance] = []
    for s in slices:
        if s.is_trivial():
            run.append(s)
            continue
        if len(run) >= b:
            blocks.append([])
        else:
            blocks[-1].extend(run)
        blocks[-1].append(s)
        run = []
    if not blocks[0]:
        blocks[0] = [empty_instance()]
    return blocks


def _prune_bare_individuals(slices: list[Instance], point: str) -> list[Instance]:
    used = {point}
    for s in slices:
        used |= {a for _, a in s.catoms}
        used |= {a for _, a, b in s.ratoms for a in (a, b)}
    return [
        Instance(
            frozenset(used),
            frozenset((c, a) for c, a in s.catoms if a in used),
            frozenset(s.ratoms),
        )
        for s in slices
    ]


class Learner:
    def __init__(self, onto: Ontology, teacher: Teacher, config: LearnerConfig):
        self.onto = onto
        self.teacher = teacher
        self.config = config
        self.r = reasoner(onto)
        self.rule_a_commits = 0
        teacher.budget = config.budget

    # ------------------------------------------------------------- plumbing

    def ask(self, slices: list[Instance], point: str) -> bool:
        return self.teacher.membership(tinstance(list(slices), point))

    def frontier_of(self, q: Eliq) -> FrontierSearch:
        """q's verified frontier, else UnsupportedDialect naming the refusal."""
        bound = self.config.frontier_bound
        front = frontier(self.onto, q, CLASS_ELIQ, bound)
        if front is None:
            reason = frontier_search(self.onto, q, CLASS_ELIQ, bound).reason()
            raise UnsupportedDialect(f"no verified frontier for {q} within bound {bound}: {reason}")
        return front

    def negatives_of(self, q: Eliq) -> list[Pointed]:
        return [self.r.hat(m) for m in self.frontier_of(q).members]

    # ------------------------------------------------------- step 1: shaping

    def minimise_pass(self, slices: list[Instance], point: str) -> tuple[list[Instance], bool]:
        changed = False
        progress = True
        while progress:
            progress = False
            for i in range(len(slices)):
                for ind in sorted(slices[i].individuals):
                    s = slices[i]
                    keep_c = frozenset((c, a) for c, a in s.catoms if a != ind)
                    keep_r = frozenset(
                        (r, a, b) for r, a, b in s.ratoms if ind not in (a, b)
                    )
                    if keep_c == s.catoms and keep_r == s.ratoms:
                        continue
                    candidate = slices.copy()
                    candidate[i] = Instance(s.individuals, keep_c, keep_r)
                    if self.ask(candidate, point):
                        slices = candidate
                        changed = progress = True
        return slices, changed

    def drop_foreign_components(self, slices: list[Instance], point: str) -> list[Instance]:
        candidate = [point_component(s, point).with_individuals(s.individuals) for s in slices]
        if any(c.catoms != s.catoms or c.ratoms != s.ratoms for c, s in zip(candidate, slices)):
            if not self.ask(candidate, point):
                raise RuntimeError("dropping disconnected slice parts lost positivity")
            return candidate
        return slices

    def treeify(self, slices: list[Instance], point: str) -> list[Instance]:
        slices, _ = self.minimise_pass(slices, point)
        slices = self.drop_foreign_components(slices, point)
        fresh = 0
        while True:
            cyclic = [
                (i, cycle_edge(point_component(s, point))) for i, s in enumerate(slices)
            ]
            cyclic = [(i, e) for i, e in cyclic if e is not None]
            if not cyclic:
                break
            i, edge = cyclic[0]
            fresh += 1
            slices = slices.copy()
            slices[i] = unwind_step(slices[i], edge, f"w{fresh}_")
            slices = [s.with_individuals(slices[i].individuals) for s in slices]
            slices, _ = self.minimise_pass(slices, point)
            slices = self.drop_foreign_components(slices, point)
        return _prune_bare_individuals(slices, point)

    # ---------------------------------------------------- step 2: timepoints

    def drop_timepoints(self, slices: list[Instance], point: str) -> list[Instance]:
        i = 0
        while i < len(slices) and len(slices) > 1:
            candidate = slices[:i] + slices[i + 1 :]
            if self.ask(candidate, point):
                slices = candidate
            else:
                i += 1
        return slices

    # -------------------------------------------------------- tagged handling

    def tagged_from_slices(
        self, blocks: list[list[Instance]], point: str, b: int
    ) -> TaggedBNormal:
        def tagged(s: Instance) -> TaggedSlice:
            # saturation is local to components, and a connected one is stored
            comp = saturate_names(self.onto, point_component(s, point))
            try:
                q = instance_to_eliq(comp, point)
            except NotTreeShaped as exc:  # pragma: no cover - treeify precedes
                raise RuntimeError("non-tree slice after shaping") from exc
            negs = () if self.r.trivial(q) else tuple(self.negatives_of(q))
            return TaggedSlice(Pointed(comp, point), q, negs)

        return TaggedBNormal(self.onto, b, tuple(tuple(tagged(s) for s in blk) for blk in blocks))

    def tagged_positive(self, t: TaggedBNormal) -> bool:
        return self.teacher.membership(t.to_tinstance())

    def tagged_minimise(self, t: TaggedBNormal) -> TaggedBNormal:
        d = t.to_tinstance()
        slices, _ = self.minimise_pass(list(d.slices), d.point)
        slices = self.drop_foreign_components(slices, d.point)
        slices = _prune_bare_individuals(slices, d.point)
        return self.blocks_from_realised(slices, d.point, t.b)

    def blocks_from_realised(self, slices: list[Instance], point: str, b: int) -> TaggedBNormal:
        """Re-parse a realised slice sequence into gap-normal tagged blocks."""
        return self.tagged_from_slices(gap_blocks(slices, b), point, b)

    # --------------------------------------------------------- step 3: rules

    def close_under_rules(self, t: TaggedBNormal) -> TaggedBNormal:
        """Rules b and c to a fixpoint, then rules a, d and e; each pass
        commits the first rule, in group order, that keeps t positive."""
        for group in (("b", "c"), ("a", "d", "e")):
            progress = True
            while progress:
                for rule in group:
                    progress, t = self._try_rule(t, rule)
                    if progress:
                        if rule == "a":
                            self.rule_a_commits += 1
                        break
        return t

    def _try_rule(self, t: TaggedBNormal, rule: str) -> tuple[bool, TaggedBNormal]:
        for _, t2 in rule_variants(t, rule):
            if self.tagged_positive(t2):
                return True, self._commit(t2)
        return False, t

    def _commit(self, t: TaggedBNormal) -> TaggedBNormal:
        """Re-parse the realised sequence into gap-normal blocks, minimise,
        and confirm the result is still a positive example. Only the
        pointed slices are compared: tags and negatives do not change the
        instance the teacher is asked about."""
        d = t.to_tinstance()
        t2 = self.blocks_from_realised(list(d.slices), d.point, t.b)
        if t2.slices() != t.slices() and not self.tagged_positive(t2):
            raise RuntimeError("gap normalisation lost positivity")
        return self.tagged_minimise(t2)

    # ------------------------------------------------- step 4: lone conjuncts

    def star_step(self, t: TaggedBNormal) -> TaggedBNormal:
        if self.config.variant == MODE_SAFE:
            return self._star_safe(t)
        exponent = (
            self.config.depth if self.config.variant == MODE_DEPTH else t.b
        )
        return self._star_fixed(t, exponent)

    def _eligible_blocks(self, t: TaggedBNormal, need_reducible: bool) -> list[int]:
        out = []
        for i in range(1, len(t.blocks)):
            if len(t.blocks[i]) != 1:
                continue
            q = t.blocks[i][0].tag
            if q is None or self.r.trivial(q):
                continue
            if need_reducible and len(self.frontier_of(q).members) < 2:
                continue
            out.append(i)
        return out

    def _star_safe(self, t: TaggedBNormal) -> TaggedBNormal:
        guard = 0
        while True:
            guard += 1
            if guard > 200:  # pragma: no cover - budget exhausts first
                raise RuntimeError("lone-conjunct elimination failed to stabilise")
            eligible = self._eligible_blocks(t, need_reducible=True)
            if not eligible:
                return t
            i = eligible[0]
            word = self.negatives_of(t.blocks[i][0].tag)
            k = 1
            while not self.tagged_positive(splice_word(t, i, word * k)):
                k *= 2
                if k > 4096:
                    raise UnsafeQuery(
                        f"no power up to 4096 of the frontier word of {t.blocks[i][0].tag} "
                        "is positive: the target has a lone conjunct, which the safe variant "
                        "cannot learn; try the depth variant (--mode depth=N)"
                    )
            lo, hi = max(1, k // 2), k
            while lo < hi:
                mid = (lo + hi) // 2
                if self.tagged_positive(splice_word(t, i, word * mid)):
                    hi = mid
                else:
                    lo = mid + 1
            t2 = self._commit(splice_word(t, i, word * lo))
            t = self.close_under_rules(t2)

    def _star_fixed(self, t: TaggedBNormal, exponent: int) -> TaggedBNormal:
        processed: set = set()
        progress = True
        while progress:
            progress = False
            for i in self._eligible_blocks(t, need_reducible=False):
                inst = t.blocks[i][0].slice.instance
                if inst in processed:
                    continue
                word = self.negatives_of(t.blocks[i][0].tag)
                if not word:
                    processed.add(inst)
                    continue
                t2 = splice_word(t, i, word * max(1, exponent))
                if self.tagged_positive(t2):
                    t = self.close_under_rules(self._commit(t2))
                    progress = True
                    break
                processed.add(inst)
        return t

    # ------------------------------------------------- step 5: connector read

    def infer_connectors(self, t: TaggedBNormal) -> PathQuery:
        bodies = [[s.tag for s in blk] for blk in t.blocks]
        if any(q is None for blk in bodies for q in blk):
            raise RuntimeError("untagged slice at readout")
        conns: list[Conn] = []
        for i in range(len(t.blocks) - 1):
            conns.append(self._connector_at(t, i))
        return pathquery(bodies, conns)

    def _connector_at(self, t: TaggedBNormal, i: int) -> Conn:
        left, right = t.blocks[i][-1].tag, t.blocks[i + 1][0].tag
        if self.r.compatible(left, right):
            if self.teacher.membership(_join_variant(t, i).to_tinstance()):
                return leq()
        for gap in range(0, t.b + 1):
            if self.teacher.membership(t.to_tinstance({i: gap})):
                return less(gap + 1)
        raise RuntimeError("no connector explains the boundary")

    # ----------------------------------------------------------------- drive

    def run(self, initial: TInstance) -> PathQuery:
        point = initial.point
        slices = [saturate_names(self.onto, s) for s in initial.slices]
        if not self.ask(slices, point):
            raise NotPositiveInitialExample("the teacher rejects the initial example")
        slices = self.treeify(slices, point)
        slices = self.drop_timepoints(slices, point)
        b = len(slices)
        t = self.tagged_from_slices([list(slices)], point, b)
        t = self.close_under_rules(t)
        t = self.star_step(t)
        t = self.close_under_rules(t)
        return normalize(self.onto, self.infer_connectors(t))
