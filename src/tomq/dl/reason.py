"""Reasoning for the Horn dialects: saturation, bounded chase, certain answers,
containment and equivalence.

One rule step, `Reasoner._step`, applies every axiom once to one element:
conjunction, `SubBasic`, disjointness, existential right- and left-hand
sides, and the evaluation of the element's witness groups. Existential
obligations are summarised as witness groups: the obligations of one element
whose roles share a functional super-role collapse into a single group,
otherwise one group per (role, filler). A clash puts `bot` into the type.

The step sees an element's neighbours through a view. `saturate` runs it, in
rounds until nothing changes (`_rounds`), over the named individuals that
role atoms link (`_Named`: the neighbours are the named individuals linked
by stored edges). Saturation is local to connected components, and `force`
adds edges only between individuals already linked, so an individual no
role atom touches has the type, groups and verdict of a lone individual
with its names: each reasoner keeps these per name set. A witness type is
the same step run to a fixpoint on one anonymous element (`_Anon`): its one
neighbour is its parent, frozen at type `ptype` and linked by the inverses
of `uproles`, and what functional roles force onto the parent is collected
as the witness's pushed names and roles.

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

Consistency is decided from the data alone when saturation can neither
derive ⊥ nor add an edge: with no `Disjoint`, no `ConjLhs … ⊑ bot`, no
`bot` data atom and no role inclusion, every edge `force` adds is already
stored, so saturation's verdict is its initial check for an individual with
two distinct successors along a functional role (`_func_clash`; DL-Lite_F
satisfiability reduces to the same check, Calvanese et al., JAR 2007).
Otherwise it is the verdict of `saturate`.

Certain answers, containment and the path probes read every tree
homomorphism from the one table kept per instance (`Reasoner.table`).

Saturations, homomorphism tables and certain answers are cached under the
`Instance` itself, a frozen value whose hash reads the cached hashes of its
three frozensets. A saturation is cached exactly when its instance has one
individual or role atoms link all of them: an instance with an unlinked
individual beside others is a slice, which callers read again only through
its components, and `_lone` keeps its unlinked part by name set. Each cache
holds at most its module-constant bound of entries and is emptied when full
(`_put`); the registry `reasoner(onto)` keeps at most REASONER_CACHE_SIZE
reasoners, the least recently used leaving first.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence

from ..errors import UnsatisfiableQuery
from .eliq import Eliq, conjoin, induced_instance, point_component
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
    _put,
    rename_instance,
)

_EMPTY: frozenset = frozenset()

# Entries per cache of one reasoner. Each sits well above the highest fill
# measured on the benchmark's ops (CHANGES.md), so that no op evicts.
SAT_CACHE_SIZE = 1024
TABLE_CACHE_SIZE = 1024
HAT_CACHE_SIZE = 1024
CERTAIN_CACHE_SIZE = 4096
CONTAINS_CACHE_SIZE = 8192
WITNESS_CACHE_SIZE = 4096
# name sets of unlinked individuals: one key per subset of the data's
# concept names, at most 8 per reasoner on the benchmark's `answer` ops
LONE_CACHE_SIZE = 1024


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
    # an unlinked individual's type and groups are frozen, shared with `_lone`
    names: dict[str, AbstractSet[str]]
    edges: frozenset[tuple[str, str, str]]  # role-closure of the stored atoms
    groups: dict[str, Sequence[Group]]

    @property
    def catoms(self) -> frozenset[tuple[str, str]]:
        """The saturated concept atoms, Top and bot left out."""
        return frozenset((c, a) for a, ns in self.names.items() for c in ns if c not in (TOP, BOT))

    def instance(self, base: Instance) -> Instance:
        return Instance(base.individuals, self.catoms, self.edges)


def _func_clash(funcs: dict[str, tuple[bool, ...]], edges) -> bool:
    """Has some individual two distinct successors along a functional role?
    `funcs` maps a role name to its functional directions (True: inverse),
    `edges` are (role name, from, to) triples."""
    seen: dict = {}
    for p, a, b in edges:
        for inv in funcs.get(p, ()):
            src, dst = (b, a) if inv else (a, b)
            if seen.setdefault((p, inv, src), dst) != dst:
                return True
    return False


def _index_edge(succ: dict, atom: tuple[str, str, str]) -> None:
    """Index the stored atom (P, a, b) in a successor index keyed by
    (element, role name, inverted): b follows a along P, and a follows b
    along P-."""
    p, a, b = atom
    succ.setdefault((a, p, False), set()).add(b)
    succ.setdefault((b, p, True), set()).add(a)


def _successor_index(atoms) -> dict[tuple[str, str, bool], set[str]]:
    """The successor index (`_index_edge`) of the role atoms `atoms`."""
    succ: dict[tuple[str, str, bool], set[str]] = {}
    for atom in atoms:
        _index_edge(succ, atom)
    return succ


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
        for b in self.succ.get((self.a, role.name, role.inverted), ()):
            if filler == TOP or filler in names[b]:
                return True
        return False

    def force(self, role: Role, fset: frozenset[str], fsup) -> Optional[bool]:
        """Realise the obligation role.fset on the named successors along its
        functional super-roles `fsup`: None when there are none, else
        whether anything changed."""
        targets = set()
        for f in fsup:
            targets |= self.succ.get((self.a, f.name, f.inverted), _EMPTY)
        if not targets:
            return None
        changed = False
        for b in sorted(targets):
            for s in self.r.super_roles(role):
                e = s.ratom(self.a, b)
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
        anon = self.r._anon
        for k in self.done:
            _put(anon, k, self.est[k], WITNESS_CACHE_SIZE)
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
        self.func_decl = fd = frozenset(ax.role for ax in onto.axioms if isinstance(ax, Func))
        self._fsup = {r: sup & fd for r, sup in self._rc.items()}
        self._funcs = {f.name: tuple(g.inverted for g in fd if g.name == f.name) for f in fd}
        self._role_incl = any(len(s) > 1 for s in self._rc.values())
        self._sat_cache: dict = {}
        self._tables: dict = {}
        self._hat_cache: dict = {}
        self._certain_cache: dict = {}
        self._contains_cache: dict = {}
        self._anon: dict = {}
        self._lone: dict = {}
        self._subbasic = onto.axioms_of(SubBasic)
        self._disjoint = onto.axioms_of(Disjoint)
        self._exrhs = onto.axioms_of(ExistsRhs)
        self._exlhs = onto.axioms_of(ExistsLhs)
        self._conjlhs = onto.axioms_of(ConjLhs)
        # only these axioms put `bot` into a type; the one other clash is on
        # a functional role
        self._bot_axioms = bool(self._disjoint) or any(ax.rhs == BOT for ax in self._conjlhs)

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
        got = self._rc.get(role)
        return frozenset((role,)) if got is None else got

    def functional_supers(self, role: Role) -> frozenset[Role]:
        got = self._fsup.get(role)
        return frozenset((role,)) & self.func_decl if got is None else got

    def _closed_edges(self, inst: Instance) -> frozenset[tuple[str, str, str]]:
        if not self._role_incl:
            return inst.ratoms
        out = set()
        for p, a, b in inst.ratoms:
            for s in self.super_roles(Role(p)):
                out.add(s.ratom(a, b))
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
        """The saturation of inst: a cache lookup, or else `_saturate`."""
        got = self._sat_cache.get(inst)
        return got if got is not None else self._saturate(inst)

    def _saturate(self, inst: Instance) -> Saturation:
        """Runs the rule loop (`_rounds`) once over the individuals that role
        atoms link. Every other individual takes its verdict, type and groups
        from `_lone`, kept per name set. Stores the saturation by the rule of
        the module docstring."""
        edges = set(self._closed_edges(inst))
        names: dict[str, AbstractSet[str]] = {a: set() for a in inst.individuals}
        for c, a in inst.catoms:
            names[a].add(c)
        groups: dict[str, Sequence[Group]] = {a: [] for a in inst.individuals}
        linked = {x for _, a, b in edges for x in (a, b)}
        for a in sorted(inst.individuals - linked):
            key = frozenset(names[a])
            got = self._lone.get(key)
            if got is None:
                one, gs = {a: set(key)}, {a: []}
                got = (self._rounds([a], one, gs, set()), frozenset(one[a]), tuple(gs[a]))
                got = _put(self._lone, key, got, LONE_CACHE_SIZE)
            consistent, t, gs = got
            names[a], groups[a] = t, gs
            if not consistent:
                break
        else:
            consistent = self._rounds(sorted(linked), names, groups, edges)
        sat = Saturation(consistent, names, frozenset(edges), groups)
        if len(inst.individuals) == 1 or len(linked) == len(inst.individuals):
            sat = _put(self._sat_cache, inst, sat, SAT_CACHE_SIZE)
        return sat

    def _rounds(self, order: list[str], names: dict, groups: dict, edges: set) -> bool:
        """Step the named individuals `order`, in that order, round after
        round until nothing changes or one is inconsistent, updating `names`,
        `groups` and `edges` in place; their verdict."""
        succ = _successor_index(edges)
        els = [_Named(a, names, groups[a], succ, edges, self) for a in order]
        consistent = not _func_clash(self._funcs, edges)
        rounds_left = 8 * (
            (len(order) + 4)
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
            known = len(edges)
            rounds_left -= 1
            if rounds_left < 0:  # pragma: no cover - safety net
                raise RuntimeError("saturation did not stabilise")
            for el in els:
                if self._step(el, None):
                    changed = True
                if BOT in el.t:
                    consistent = False
                    break
            # only `force` adds edges, and only a new edge can clash
            if len(edges) != known and _func_clash(self._funcs, edges):
                consistent = False
        return consistent

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
        """The chase of satisfiable inst to depth `depth`, built breadth first
        and anew on every call (`table` keeps what is read again)."""
        sat = self.saturate(inst)
        if not sat.consistent:
            raise UnsatisfiableQuery("cannot chase an unsatisfiable instance")
        inds = set(inst.individuals)
        cat = set(sat.catoms)
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
                    rat.add(s.ratom(parent, w))
            for cg in children:
                frontier.append((w, cg, tp, d + 1))
        return Instance(frozenset(inds), frozenset(cat), frozenset(rat))

    def table(self, inst: Instance, depth: int) -> "_HomTable":
        """The tree-homomorphism table into the chase of satisfiable inst, at
        least `depth` deep. One table is kept per instance; a deeper request
        replaces it, and a shallower one reads it.

        One chase serves every shallower query: anonymous elements hang below
        a single parent, so k steps from a named individual reach only
        anonymous elements of depth at most k, and the chase, built breadth
        first, has the same such elements and atoms at every depth bound from
        k on. A memo entry (subtree, element) is a fact about the one chase
        the table holds. A thread racing this may put back a shallower table:
        each caller asks the table it holds, deep enough for it, so that
        costs only a rebuild."""
        got = self._tables.get(inst)
        if got is None or got.depth < depth:
            got = _HomTable(self.chase(inst, depth), depth)
            self._tables.pop(inst, None)
            _put(self._tables, inst, got, TABLE_CACHE_SIZE)
        return got

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
        """Saturates only when ⊥ axioms, `bot` data or role inclusions under
        `Func` can make the verdict differ from the data's."""
        if not self._bot_axioms and not any(c == BOT for c, _ in inst.catoms):
            if not self.func_decl:
                return True
            if not self._role_incl:
                return not _func_clash(self._funcs, inst.ratoms)
        return self.saturate(inst).consistent

    def certain_answer(self, inst: Instance, point: str, q: Eliq) -> bool:
        ckey = (inst, point, q._key)
        got = self._certain_cache.get(ckey)
        if got is None:
            got = self._certain_answer(inst, point, q)
            got = _put(self._certain_cache, ckey, got, CERTAIN_CACHE_SIZE)
        return got

    def _certain_answer(self, inst: Instance, point: str, q: Eliq) -> bool:
        """True on an inconsistent inst. Else a query without edges holds
        when its names are in the point's saturated type, as the chase adds
        no concept atom to a named individual and a depth-0 homomorphism
        reads only the point's; any other query is mapped into the chase to
        its role depth (`table`)."""
        if not self.is_satisfiable(inst):
            return True
        if q.is_bottom:
            return False
        if q.is_top:
            return True
        if not q.edges:
            return self.saturate(inst).names.get(point, _EMPTY).issuperset(q.names)
        return self.table(inst, q.role_depth).maps(q, point)

    # ------------------------------------------------------------ containment

    def hat(self, q: Eliq) -> Pointed:
        """The containment-reduction instance of q: the induced instance,
        quotiented to a fixpoint by functionality over the role-closed atoms."""
        got = self._hat_cache.get(q._key)
        if got is not None:
            return got
        if q.is_bottom:
            raise UnsatisfiableQuery("the inconsistency query has no reduction instance")
        pointed = induced_instance(q)
        inst, point = pointed.instance, pointed.point
        while True:
            succ = _successor_index(self._closed_edges(inst))
            # the first (functional role, individual), in sorted order, with two successors
            merge = next((ss[:2] for f in sorted(self.func_decl, key=str) for a in sorted(inst.individuals)
                          for ss in [sorted(succ.get((a, f.name, f.inverted), ()))] if len(ss) > 1), None)
            if merge is None:
                break
            keep, drop = merge
            if drop == point:
                keep, drop = drop, keep
            inst = rename_instance(inst, {drop: keep})
        # racing threads keep one entry, so they share its memos
        return _put(self._hat_cache, q._key, Pointed(inst, point), HAT_CACHE_SIZE)

    def query_satisfiable(self, q: Eliq) -> bool:
        if q.is_bottom:
            return False
        return self.is_satisfiable(self.hat(q).instance)

    def contains(self, q1: Eliq, q2: Eliq) -> bool:
        got = self._contains_cache.get((q1._key, q2._key))
        return self.contains_all(q1, (q2,))[0] if got is None else got

    def contains_all(self, q1: Eliq, qs: Sequence[Eliq]) -> list[bool]:
        """`contains(q1, q2)` for every q2 of qs, in order, each answer also
        written to the containment cache.

        Unsatisfiable q1 is contained in everything, and ⊤ contains every
        query and ⊥ none other. The remaining keys not cached yet are decided
        through the homomorphism table of q1's hat (`table`), at least as
        deep as the deepest of them; with none, no chase is built."""
        k1 = q1._key
        cache = self._contains_cache
        got = []
        depth = -1  # of the deepest miss other than ⊤ and ⊥
        for q2 in qs:
            known = cache.get((k1, q2._key))
            got.append(known)
            if known is None and q2.role_depth > depth and not (q2.is_top or q2.is_bottom):
                depth = q2.role_depth
        if None not in got:
            return got
        unsat = not self.query_satisfiable(q1)
        if depth >= 0 and not unsat:
            h = self.hat(q1)
            table, point = self.table(h.instance, depth), h.point
        for i, known in enumerate(got):
            if known is None:
                q2 = qs[i]
                answer = unsat or q2.is_top or (not q2.is_bottom and table.maps(q2, point))
                got[i] = _put(cache, (k1, q2._key), answer, CONTAINS_CACHE_SIZE)
        return got

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

        `tgt` may be cyclic but must be connected to its point, else
        ValueError: it is mapped by backtracking into the chase that `table`
        keeps for `src`, at least |tgt.individuals| deep, which holds every
        element it can reach.
        """
        if point_component(tgt.instance, tgt.point) is not tgt.instance:
            raise ValueError("pointed_entails needs a target connected to its point")
        if not self.is_satisfiable(src.instance):
            return True
        depth = max(1, len(tgt.instance.individuals))
        chased = self.table(src.instance, depth).inst
        return general_hom_exists(tgt.instance, tgt.point, chased, src.point)


class _HomTable:
    """Tree homomorphisms of queries into one instance, a chase to depth
    `depth` when `Reasoner.table` keeps it: a successor index, built on
    first use and published only when complete, and one memo over (subtree
    key, element) shared by every query asked."""

    __slots__ = ("inst", "depth", "succ", "memo")

    def __init__(self, inst: Instance, depth: int = 0):
        self.inst = inst
        self.depth = depth
        self.succ: Optional[dict[tuple[str, str, bool], set[str]]] = None
        self.memo: dict[tuple[str, str], bool] = {}

    def maps(self, node: Eliq, e: str) -> bool:
        """Does the tree `node` map into the instance with its root at `e`?"""
        k = (node._key, e)
        got = self.memo.get(k)
        if got is None:
            catoms = self.inst.catoms
            got = all((c, e) in catoms for c in node.names) and all(
                any(self.maps(child, e2) for e2 in self.successors(e, role))
                for role, child in node.edges
            )
            self.memo[k] = got
        return got

    def successors(self, e: str, role: Role) -> set[str]:
        """The elements e reaches along role, from the successor index."""
        succ = self.succ
        if succ is None:  # published once full: threads share the table
            succ = self.succ = _successor_index(self.inst.ratoms)
        return succ.get((e, role.name, role.inverted), ())


def hom_exists(q: Eliq, inst: Instance, point: str) -> bool:
    """Tree-homomorphism check of q into inst (no ontology) by dynamic
    programming over (query node, individual): a `_HomTable` asked once."""
    return not q.is_bottom and _HomTable(inst).maps(q, point)


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


# ontologies whose reasoners the registry keeps: above the 165-178 that the
# benchmark's characterise ops reason over at seeds 1, 7 and 11, which they
# reuse
REASONER_CACHE_SIZE = 256


def reasoner(onto: Ontology) -> Reasoner:
    """The `Reasoner` of this ontology, memoised per process (at most
    REASONER_CACHE_SIZE ontologies, the least recently used evicted first,
    emptied by `clear_reasoners`). An evicted reasoner is built anew on the
    next call, so eviction costs recomputation, never an answer; a reasoner
    a caller holds on to, as a `SliceTable` does, stays valid. Two threads
    missing on one ontology may each build one."""
    return _reasoners(onto)


_reasoners = functools.lru_cache(maxsize=REASONER_CACHE_SIZE)(Reasoner)


def clear_reasoners() -> None:
    """Forget every memoised `reasoner`."""
    _reasoners.cache_clear()
