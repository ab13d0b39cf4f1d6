"""Reasoning for the Horn dialects: saturation, bounded chase, certain answers,
containment and equivalence.

One rule step, `Reasoner._step`, applies every axiom once to one element:
conjunction, `SubBasic`, disjointness, existential right- and left-hand
sides, and the evaluation of the element's witness groups. Existential
obligations are summarised as witness groups: the obligations of one element
whose roles share a functional super-role collapse into a single group,
otherwise one group per (role, filler). A clash puts `bot` into the type.

The step sees an element's neighbours through a view. `saturate` runs it over
every named individual (`_Named`: the neighbours are the named individuals
linked by stored edges) until nothing changes. A witness type is the same
step run to a fixpoint on one anonymous element (`_Anon`): its one neighbour
is its parent, frozen at type `ptype` and linked by the inverses of
`uproles`, and what functional roles force onto the parent is collected as
the witness's pushed names and roles.

Witness types are memoised under (fillers, up-roles, parent type) and depend
on each other cyclically. Each top-level evaluation owns a `_Fixpoint`: its
recursion stack, its estimates and its changed flag. A key reached again
while on the stack gets its current estimate, at first just its fillers. The
evaluation repeats until no estimate it handed out differs from the value
computed for it, and only then publishes every value of its last pass to the
reasoner's shared memo. Published values are final, so a memo hit is one
dict lookup, and threads sharing a reasoner share nothing in progress.

The chase materialises the groups as fresh individuals up to a depth bound,
reusing a named successor whenever the obligation's role has a functional
super-role already realised by a named edge.

Saturations, chases and certain answers are cached under the `Instance`
itself: equal instances are exactly those with equal `key()`, and hashing
one reads the cached hashes of its three frozensets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import UnsatisfiableQuery
from .eliq import Eliq, conjoin, induced_instance
from .model import (
    BOT,
    TOP,
    Basic,
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
    rename_instance,
)

_EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class Group:
    """A bundle of existential obligations realised by one anonymous witness."""

    roles: frozenset[Role]
    fillers: frozenset[str]

    def sort_key(self):
        return (tuple(sorted(map(str, self.roles))), tuple(sorted(self.fillers)))


@dataclass
class Saturation:
    consistent: bool
    names: dict[str, set[str]]
    edges: frozenset[tuple[str, str, str]]  # role-closure of the stored atoms
    groups: dict[str, list[Group]]

    def instance(self, base: Instance) -> Instance:
        cat = frozenset(
            (c, a) for a, ns in self.names.items() for c in ns if c not in (TOP, BOT)
        )
        return Instance(base.individuals, cat, self.edges)


def _index_edge(succ: dict, e: tuple[str, str, str]) -> None:
    succ.setdefault((e[1], Role(e[0])), set()).add(e[2])
    succ.setdefault((e[2], Role(e[0], True)), set()).add(e[1])


class _Named:
    """A named individual as the rule step sees it: its neighbours are the
    named individuals linked to it by stored edges, and a functional
    obligation is realised on them by new edges."""

    __slots__ = ("a", "t", "groups", "gtypes", "names", "succ", "edges", "r")

    def __init__(self, a, names, groups, succ, edges, r):
        self.a = a
        self.t = names[a]
        self.groups = groups
        self.gtypes: dict[Group, frozenset[str]] = {}
        self.names = names
        self.succ = succ
        self.edges = edges
        self.r = r

    def neighbour_has(self, role: Role, filler: str) -> bool:
        """Has a named `role`-successor of a type containing `filler`?"""
        names = self.names
        for b in self.succ.get((self.a, role), ()):
            if filler == TOP or filler in names[b]:
                return True
        return False

    def force(self, role: Role, fset: frozenset[str], fsup) -> Optional[bool]:
        """Realise the obligation role.fset on the named successors along its
        functional super-roles `fsup`: None when there are none, else
        whether anything changed."""
        targets = set()
        for f in fsup:
            targets |= self.succ.get((self.a, f), _EMPTY)
        if not targets:
            return None
        changed = False
        for b in sorted(targets):
            for s in self.r.super_roles(role):
                e = (s.name, b, self.a) if s.inverted else (s.name, self.a, b)
                if e not in self.edges:
                    self.edges.add(e)
                    changed = True
                _index_edge(self.succ, e)
            names = self.names[b]
            for x in fset:
                if x not in names:
                    names.add(x)
                    changed = True
        return changed


class _Anon:
    """A witness as the rule step sees it: its one neighbour is its parent, of
    the frozen type `ptype` and linked by the roles `down`; a functional
    obligation towards the parent is collected in `pushed` (names) and
    `proles` (roles the parent additionally reaches the witness by)."""

    __slots__ = ("t", "groups", "gtypes", "down", "ptype", "pushed", "proles")

    def __init__(self, fillers, down, ptype):
        self.t = set(fillers)
        self.t.discard(TOP)
        self.groups: list[Group] = []
        self.gtypes: dict[Group, frozenset[str]] = {}
        self.down = down
        self.ptype = ptype
        self.pushed: set[str] = set()
        self.proles: set[Role] = set()

    def neighbour_has(self, role: Role, filler: str) -> bool:
        """Is the parent a `role`-successor of a type containing `filler`?"""
        return role in self.down and (filler == TOP or filler in self.ptype)

    def force(self, role: Role, fset: frozenset[str], fsup) -> Optional[bool]:
        """Push the obligation role.fset onto the parent when one of its
        functional super-roles `fsup` leads there: None when none does, else
        whether anything changed."""
        if not any(f in self.down for f in fsup):
            return None
        before = (len(self.pushed), len(self.proles))
        self.pushed.update(fset)
        if role not in self.down:
            self.proles.add(role.inverse)
        return (len(self.pushed), len(self.proles)) != before


class _Fixpoint:
    """One top-level witness-type evaluation: its recursion stack, its
    estimates and its changed flag, private to the call."""

    __slots__ = ("r", "est", "stack", "done", "handed", "changed")

    def __init__(self, r: "Reasoner"):
        self.r = r
        self.est: dict = {}

    def solve(self, key):
        """Evaluate `key` in passes until no estimate handed out in a pass
        differs from the value computed for it, then publish that pass."""
        while True:
            self.stack, self.done, self.handed = set(), set(), set()
            self.changed = False
            value = self.visit(key)
            if not self.changed:
                break
        self.r._anon.update({k: self.est[k] for k in self.done})
        return value

    def visit(self, key):
        """The value of `key` in this pass: its estimate while it is on the
        stack, else computed once per pass."""
        if key in self.stack:
            self.handed.add(key)
            got = self.est.get(key)
            if got is None:
                got = self.est[key] = (key[0] - {TOP}, _EMPTY, _EMPTY, ())
            return got
        if key in self.done:
            return self.est[key]
        self.stack.add(key)
        value = self.r._evaluate(key, self)
        self.stack.discard(key)
        self.done.add(key)
        if key in self.handed and value != self.est[key]:
            self.changed = True
        self.est[key] = value
        return value


class Reasoner:
    def __init__(self, onto: Ontology):
        self.onto = onto
        self._rc = self._role_closure()
        self.func_decl = frozenset(ax.role for ax in onto.axioms if isinstance(ax, Func))
        self._sat_cache: dict = {}
        self._chase_cache: dict = {}
        self._hat_cache: dict = {}
        self._certain_cache: dict = {}
        self._contains_cache: dict = {}
        self._anon: dict = {}
        self._subbasic = onto.axioms_of(SubBasic)
        self._disjoint = onto.axioms_of(Disjoint)
        self._exrhs = onto.axioms_of(ExistsRhs)
        self._exlhs = onto.axioms_of(ExistsLhs)
        self._conjlhs = onto.axioms_of(ConjLhs)
        # only these axioms put `bot` into a type or clash on a functional
        # role; without them every instance without `bot` data is consistent
        self._may_clash = bool(self._disjoint or self.func_decl) or any(
            ax.rhs == BOT for ax in self._conjlhs
        )

    # ------------------------------------------------------------------ roles

    def _role_closure(self) -> dict[Role, frozenset[Role]]:
        roles = set()
        for name in self.onto.signature.role_names:
            roles.add(Role(name))
            roles.add(Role(name, True))
        subs = [ax for ax in self.onto.axioms if isinstance(ax, RoleSub)]
        out = {}
        for r in roles:
            seen = {r}
            frontier = [r]
            while frontier:
                cur = frontier.pop()
                for ax in subs:
                    for nxt in ((ax.sup,) if ax.sub == cur else ()) + (
                        (ax.sup.inverse,) if ax.sub.inverse == cur else ()
                    ):
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
            out[r] = frozenset(seen)
        return out

    def super_roles(self, role: Role) -> frozenset[Role]:
        return self._rc.get(role, frozenset((role,)))

    def functional_supers(self, role: Role) -> frozenset[Role]:
        return self.super_roles(role) & self.func_decl

    def _closed_edges(self, inst: Instance) -> frozenset[tuple[str, str, str]]:
        out = set()
        for p, a, b in inst.ratoms:
            for s in self.super_roles(Role(p)):
                out.add((s.name, b, a) if s.inverted else (s.name, a, b))
        return frozenset(out)

    # -------------------------------------------------------------- rule step

    def _step(self, el, fp: Optional[_Fixpoint]) -> bool:
        """Apply every rule once to the element `el` (a `_Named` or `_Anon`);
        True when anything changed. `fp` is the witness evaluation `el`
        belongs to, None for a named individual."""
        t = el.t
        changed = False
        for ax in self._conjlhs:
            if (ax.lhs1 in t or ax.lhs1 == TOP) and (ax.lhs2 in t or ax.lhs2 == TOP):
                if ax.rhs != TOP and ax.rhs not in t:
                    t.add(ax.rhs)
                    changed = True
        for ax in self._subbasic:
            if self._holds(el, ax.lhs):
                if ax.rhs.kind == "name":
                    if ax.rhs.name not in t:
                        t.add(ax.rhs.name)
                        changed = True
                elif ax.rhs.kind == "exists":
                    if self._oblige(el, ax.rhs.role, None):
                        changed = True
        for ax in self._disjoint:
            if BOT not in t and self._holds(el, ax.lhs) and self._holds(el, ax.rhs):
                t.add(BOT)
                changed = True
        for ax in self._exrhs:
            if ax.lhs in t or ax.lhs == TOP:
                if self._oblige(el, ax.role, ax.filler):
                    changed = True
        for ax in self._exlhs:
            if ax.rhs != TOP and ax.rhs not in t and self._reaches(el, ax.role, ax.filler):
                t.add(ax.rhs)
                changed = True
        groups = el.groups
        for i, g in enumerate(list(groups)):
            ct, cpushed, croles, _ = self._witness((g.fillers, g.roles, frozenset(t)), fp)
            if croles - g.roles:
                groups[i] = Group(g.roles | croles, g.fillers)
                changed = True
                continue
            if el.gtypes.get(g) != ct:
                el.gtypes[g] = ct
                changed = True
            if BOT in ct and BOT not in t:
                t.add(BOT)
                changed = True
            for x in cpushed:
                if x not in t and x != TOP:
                    t.add(x)
                    changed = True
        return changed

    def _reaches(self, el, role: Role, filler: str) -> bool:
        """Has `el` a `role`-successor (neighbour or witness) of a type
        containing `filler`? Any successor counts when `filler` is Top."""
        if el.neighbour_has(role, filler):
            return True
        for g in el.groups:
            for r in g.roles:
                if role in self.super_roles(r):
                    if filler == TOP or filler in el.gtypes.get(g, _EMPTY):
                        return True
                    break
        return False

    def _holds(self, el, b: Basic) -> bool:
        if b.kind == "top":
            return True
        if b.kind == "name":
            return b.name in el.t
        return self._reaches(el, b.role, TOP)

    def _oblige(self, el, role: Role, filler: Optional[str]) -> bool:
        """Place the obligation role.filler on `el`; True when something changed."""
        fset = _EMPTY if filler in (None, TOP) else frozenset((filler,))
        groups = el.groups
        fsup = self.functional_supers(role)
        if fsup:
            forced = el.force(role, fset, fsup)
            if forced is not None:
                return forced
            for i, g in enumerate(groups):
                gf = set()
                for r in g.roles:
                    gf |= self.functional_supers(r)
                if gf & fsup:
                    ng = Group(g.roles | {role}, g.fillers | fset)
                    if ng != g:
                        groups[i] = ng
                        return True
                    return False
            groups.append(Group(frozenset((role,)), fset))
            return True
        g = Group(frozenset((role,)), fset)
        if g in groups:
            return False
        groups.append(g)
        return True

    # ------------------------------------------------------------- saturation

    def saturate(self, inst: Instance) -> Saturation:
        got = self._sat_cache.get(inst)
        if got is None:
            got = self._sat_cache[inst] = self._saturate(inst)
        return got

    def _saturate(self, inst: Instance) -> Saturation:
        edges = set(self._closed_edges(inst))
        names: dict[str, set[str]] = {a: set() for a in inst.individuals}
        for c, a in inst.catoms:
            names[a].add(c)
        succ: dict[tuple[str, Role], set[str]] = {}
        for e in edges:
            _index_edge(succ, e)
        groups: dict[str, list[Group]] = {a: [] for a in inst.individuals}
        els = [
            _Named(a, names, groups[a], succ, edges, self)
            for a in sorted(inst.individuals)
        ]

        def func_clash() -> bool:
            return any(
                len(succ.get((a, f), ())) > 1
                for f in self.func_decl
                for a in inst.individuals
            )

        consistent = not func_clash()
        rounds_left = 8 * (
            (len(inst.individuals) + 4)
            * (
                len(self.onto.signature.concept_names)
                + len(self.onto.signature.role_names)
                + len(self.onto.axioms)
                + 4
            )
            + 16
        )
        changed = True
        while changed and consistent:
            changed = False
            rounds_left -= 1
            if rounds_left < 0:  # pragma: no cover - safety net
                raise RuntimeError("saturation did not stabilise")
            for el in els:
                if self._step(el, None):
                    changed = True
                if BOT in el.t:
                    consistent = False
            if func_clash():
                consistent = False
        return Saturation(consistent, names, frozenset(edges), groups)

    # ------------------------------------------------ anonymous witness types

    def _witness(self, key, fp: Optional[_Fixpoint] = None) -> tuple:
        """(type, names forced onto the parent, roles the parent additionally
        reaches the witness by, child groups) of a witness created via the
        up-roles below a parent of the given type; `key` is
        (fillers, up-roles, parent type). Evaluated inside `fp`, or as a
        top-level evaluation of its own when `fp` is None."""
        got = self._anon.get(key)
        if got is not None:
            return got
        if fp is not None:
            return fp.visit(key)
        return _Fixpoint(self).solve(key)

    def _evaluate(self, key, fp: _Fixpoint) -> tuple:
        fillers, uproles, ptype = key
        down = frozenset(s for u in uproles for s in self.super_roles(u.inverse))
        el = _Anon(fillers, down, ptype)
        while self._step(el, fp):
            pass
        return (
            frozenset(el.t),
            frozenset(el.pushed),
            frozenset(el.proles),
            tuple(sorted(el.groups, key=Group.sort_key)),
        )

    # ------------------------------------------------------------------ chase

    def chase(self, inst: Instance, depth: int) -> Instance:
        key = (inst, depth)
        if key in self._chase_cache:
            return self._chase_cache[key]
        sat = self.saturate(inst)
        if not sat.consistent:
            raise UnsatisfiableQuery("cannot chase an unsatisfiable instance")
        inds = set(inst.individuals)
        cat = {(c, a) for a, ns in sat.names.items() for c in ns if c not in (TOP, BOT)}
        rat = set(sat.edges)
        frontier: list[tuple[str, Group, frozenset[str], int]] = []
        for a in sorted(inst.individuals):
            for g in sorted(sat.groups[a], key=Group.sort_key):
                frontier.append((a, g, frozenset(sat.names[a]), 1))
        while frontier:
            parent, g, ptype, d = frontier.pop(0)
            if d > depth:
                continue
            tp, _, _, children = self._witness((g.fillers, g.roles, ptype))
            w = self._witness_name(parent, g, inds)
            inds.add(w)
            for c in sorted(tp):
                if c not in (TOP, BOT):
                    cat.add((c, w))
            for r in sorted(g.roles, key=str):
                for s in sorted(self.super_roles(r), key=str):
                    rat.add((s.name, w, parent) if s.inverted else (s.name, parent, w))
            for cg in children:
                frontier.append((w, cg, tp, d + 1))
        out = Instance(frozenset(inds), frozenset(cat), frozenset(rat))
        self._chase_cache[key] = out
        return out

    @staticmethod
    def _witness_name(parent: str, g: Group, taken: set[str]) -> str:
        rtok = "+".join(sorted(str(r) for r in g.roles))
        ftok = "+".join(sorted(g.fillers))
        base = f"{parent}>{rtok}" + (f":{ftok}" if ftok else "")
        name = base
        i = 2
        while name in taken:
            name = f"{base}#{i}"
            i += 1
        return name

    # -------------------------------------------------------- certain answers

    def is_satisfiable(self, inst: Instance) -> bool:
        if not self._may_clash and not any(c == BOT for c, _ in inst.catoms):
            return True
        return self.saturate(inst).consistent

    def certain_answer(self, inst: Instance, point: str, q: Eliq) -> bool:
        ckey = (inst, point, q._key)
        got = self._certain_cache.get(ckey)
        if got is None:
            got = self._certain_cache[ckey] = self._certain_answer(inst, point, q)
        return got

    def _certain_answer(self, inst: Instance, point: str, q: Eliq) -> bool:
        if not self.is_satisfiable(inst):
            return True
        if q.is_bottom:
            return False
        if q.is_top:
            return True
        chased = self.chase(inst, q.role_depth)
        return hom_exists(q, chased, point)

    # ------------------------------------------------------------ containment

    def hat(self, q: Eliq) -> Pointed:
        """The containment-reduction instance of q: the induced instance,
        quotiented to a fixpoint by functionality over the role-closed atoms."""
        key = q._key
        if key in self._hat_cache:
            return self._hat_cache[key]
        if q.is_bottom:
            raise UnsatisfiableQuery("the inconsistency query has no reduction instance")
        pointed = induced_instance(q)
        inst, point = pointed.instance, pointed.point
        while True:
            succ: dict[tuple[str, Role], set[str]] = {}
            for e in self._closed_edges(inst):
                _index_edge(succ, e)
            merge = None
            for f in sorted(self.func_decl, key=str):
                for a in sorted(inst.individuals):
                    ss = sorted(succ.get((a, f), ()))
                    if len(ss) > 1:
                        merge = (ss[0], ss[1])
                        break
                if merge:
                    break
            if not merge:
                break
            keep, drop = merge
            if drop == point:
                keep, drop = drop, keep
            inst = rename_instance(inst, {drop: keep})
        out = Pointed(inst, point)
        self._hat_cache[key] = out
        return out

    def query_satisfiable(self, q: Eliq) -> bool:
        if q.is_bottom:
            return False
        return self.is_satisfiable(self.hat(q).instance)

    def contains(self, q1: Eliq, q2: Eliq) -> bool:
        key = (q1._key, q2._key)
        if key in self._contains_cache:
            return self._contains_cache[key]
        out = self._contains(q1, q2)
        self._contains_cache[key] = out
        return out

    def _contains(self, q1: Eliq, q2: Eliq) -> bool:
        if not self.query_satisfiable(q1):
            return True
        if q2.is_top:
            return True
        if q2.is_bottom:
            return False
        h = self.hat(q1)
        return self.certain_answer(h.instance, h.point, q2)

    def equivalent(self, q1: Eliq, q2: Eliq) -> bool:
        return self.contains(q1, q2) and self.contains(q2, q1)

    def compatible(self, q1: Eliq, q2: Eliq) -> bool:
        return self.query_satisfiable(conjoin(q1, q2))

    def trivial(self, q: Eliq) -> bool:
        """q is equivalent to Top wrt the ontology."""
        return q.is_top or self.contains(Eliq(), q)

    # ---------------------------------------------------- pointed entailment

    def pointed_entails(self, src: Pointed, tgt: Pointed) -> bool:
        """Does the pointed instance `src`, read as a query, entail `tgt`'s query?

        Works for arbitrary (possibly cyclic) instances via a backtracking
        homomorphism search into the bounded chase of `src`.
        """
        if not self.is_satisfiable(src.instance):
            return True
        depth = max(1, len(tgt.instance.individuals))
        chased = self.chase(src.instance, depth)
        return general_hom_exists(tgt.instance, tgt.point, chased, src.point)


def hom_exists(q: Eliq, inst: Instance, point: str) -> bool:
    """Tree-homomorphism check of q into inst (no ontology) by dynamic
    programming over (query node, individual)."""
    if q.is_bottom:
        return False
    memo: dict[tuple[str, str], bool] = {}

    def ok(node: Eliq, e: str) -> bool:
        k = (node._key, e)
        if k in memo:
            return memo[k]
        memo[k] = False  # cycle guard; tree queries cannot actually recurse
        res = all((c, e) in inst.catoms for c in node.names) and all(
            any(ok(child, e2) for e2 in sorted(inst.successors(e, role)))
            for role, child in node.edges
        )
        memo[k] = res
        return res

    return ok(q, point)


def general_hom_exists(src: Instance, spoint: str, tgt: Instance, tpoint: str) -> bool:
    """Backtracking homomorphism search from an arbitrary instance into tgt."""
    order = sorted(src.individuals)
    order.remove(spoint)
    order = [spoint] + order
    assignment: dict[str, str] = {}

    def consistent(v: str, e: str) -> bool:
        if any((c, e) not in tgt.catoms for c, x in src.catoms if x == v):
            return False
        for r, x, y in src.ratoms:
            if x == v and y in assignment and (r, e, assignment[y]) not in tgt.ratoms:
                return False
            if y == v and x in assignment and (r, assignment[x], e) not in tgt.ratoms:
                return False
            if x == v and y == v and (r, e, e) not in tgt.ratoms:
                return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        candidates = [tpoint] if v == spoint else sorted(tgt.individuals)
        for e in candidates:
            if consistent(v, e):
                assignment[v] = e
                if search(i + 1):
                    return True
                del assignment[v]
        return False

    return search(0)


_REASONERS: dict[Ontology, Reasoner] = {}


def reasoner(onto: Ontology) -> Reasoner:
    """The one `Reasoner` of this ontology. Threads racing on a new ontology
    all get the one `setdefault` kept."""
    got = _REASONERS.get(onto)
    if got is None:
        got = _REASONERS.setdefault(onto, Reasoner(onto))
    return got
