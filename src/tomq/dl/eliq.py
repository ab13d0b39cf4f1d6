"""Tree-shaped queries with one answer variable (ELIQs) in canonical form.

A query is a rooted tree: a set of concept names per node and a role per
edge. Children are kept sorted by (role, subtree) so structural equality is
cheap; semantic equivalence always goes through the reasoner.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from ..errors import NotTreeShaped
from .model import Instance, Pointed, Role, TOP, TOP_KEY, instance


@dataclass(frozen=True, eq=False, init=False)
class Eliq:
    """A query node. Its key, size (symbol count: one for the root plus one
    per name occurrence and edge), role depth and hash are computed once,
    when it is built; equality and hashing go through the key, which
    `make_eliq` makes canonical."""

    names: tuple[str, ...] = ()
    edges: tuple[tuple[Role, "Eliq"], ...] = ()
    is_bottom: bool = False

    def __init__(self, names: tuple[str, ...] = (), edges: tuple[tuple[Role, "Eliq"], ...] = (),
                 is_bottom: bool = False):
        if is_bottom:
            if names or edges:
                raise ValueError("the inconsistency query carries no structure")
            key, size, depth = "!", 1, 0
        else:
            parts = list(names)
            parts.extend(f"<{r}>({c._key})" for r, c in edges)
            key = "&".join(parts) if parts else TOP_KEY
            size = 1 + len(names) + sum(c.size for _, c in edges)
            depth = 1 + max(c.role_depth for _, c in edges) if edges else 0
        # the dataclass is frozen, so the attributes go straight into the dict
        self.__dict__.update(names=names, edges=edges, is_bottom=is_bottom, _key=key, size=size,
                             role_depth=depth, _hash=hash(key))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Eliq:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Eliq") -> bool:
        return self._key < other._key

    @cached_property
    def concept_names(self) -> frozenset[str]:
        out = set(self.names)
        for _, c in self.edges:
            out |= c.concept_names
        return frozenset(out)

    @cached_property
    def role_names(self) -> frozenset[str]:
        out = set()
        for r, c in self.edges:
            out.add(r.name)
            out |= c.role_names
        return frozenset(out)

    @property
    def is_top(self) -> bool:
        return not self.is_bottom and not self.names and not self.edges

    def has_inverse(self) -> bool:
        return any(r.inverted or c.has_inverse() for r, c in self.edges)

    def __str__(self) -> str:
        from ..textio import print_eliq

        return print_eliq(self)


BOTTOM_QUERY = Eliq(is_bottom=True)
TOP_QUERY = Eliq()


def make_eliq(names: Iterable[str] = (), edges: Iterable[tuple[Role, Eliq]] = ()) -> Eliq:
    names = tuple(sorted(set(n for n in names if n != TOP)))
    if TOP_KEY in names:
        raise ValueError(f"{TOP_KEY!r} is reserved: it is the key of Top")
    edges = tuple(sorted(edges, key=lambda e: (str(e[0]), e[1]._key)))
    return Eliq(names, edges)


def sorted_queries(qs: Iterable[Eliq]) -> list[Eliq]:
    """The distinct queries of qs, smallest first and equal sizes by key."""
    return sorted(set(qs), key=lambda q: (q.size, q._key))


def atom(name: str) -> Eliq:
    return make_eliq([name])


def exists(role: Role, sub: Eliq = TOP_QUERY) -> Eliq:
    return make_eliq(edges=[(role, sub)])


def conjoin(q1: Eliq, q2: Eliq) -> Eliq:
    """Merge two queries at the root."""
    if q1.is_bottom or q2.is_bottom:
        return BOTTOM_QUERY
    return make_eliq(q1.names + q2.names, q1.edges + q2.edges)


def conjoin_all(qs: Iterable[Eliq]) -> Eliq:
    out = TOP_QUERY
    for q in qs:
        out = conjoin(out, q)
    return out


def induced_instance(q: Eliq, root: str = "a") -> Pointed:
    """The instance obtained by turning variables into constants, rooted at `root`.

    Anonymous individuals carry path-encoded names so output is reproducible.
    """
    if q.is_bottom:
        raise ValueError("the inconsistency query induces no instance")
    cat, rat, inds = [], [], [root]

    def walk(node: Eliq, name: str):
        for c in node.names:
            cat.append((c, name))
        for i, (role, child) in enumerate(node.edges):
            cname = f"{name}.{i}"
            inds.append(cname)
            if role.inverted:
                rat.append((role.name, cname, name))
            else:
                rat.append((role.name, name, cname))
            walk(child, cname)

    walk(q, root)
    return Pointed(instance(inds, cat, rat), root)


def cycle_edge(inst: Instance) -> Optional[tuple[str, str, str]]:
    """A role atom lying on an undirected cycle (self-loops and parallel
    edges included), or None for a forest."""
    atoms = sorted(inst.ratoms)
    seen_pairs = set()
    for r, a, b in atoms:
        if a == b:
            return (r, a, b)
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            return (r, a, b)
        seen_pairs.add(pair)
    parent: dict[str, str] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for r, a, b in atoms:
        ra, rb = find(a), find(b)
        if ra == rb:
            return (r, a, b)
        parent[ra] = rb
    return None


def instance_to_eliq(inst: Instance, point: str) -> Eliq:
    """Read a connected, acyclic instance back as a tree query rooted at `point`.

    Edges pointing towards the root become inverted roles. Raises
    NotTreeShaped when `cycle_edge` finds an edge or an atom is disconnected
    from the point.
    """
    if point not in inst.individuals:
        raise NotTreeShaped(f"point {point!r} not in the instance")
    edge = cycle_edge(inst)
    if edge is not None:
        raise NotTreeShaped("role atom {}({},{}) lies on a cycle".format(*edge))
    adj: dict[str, list[tuple[Role, str]]] = {a: [] for a in inst.individuals}
    for r, x, y in inst.ratoms:
        adj[x].append((Role(r), y))
        adj[y].append((Role(r, True), x))

    visited = set()

    def build(node: str, parent: str | None) -> Eliq:
        visited.add(node)
        children = [
            (role, build(nxt, node))
            for role, nxt in sorted(adj[node], key=lambda e: (str(e[0]), e[1]))
            if nxt != parent
        ]
        return make_eliq(inst.names_at(node), children)

    q = build(point, None)
    touched = {a for _, a in inst.catoms} | {x for _, x, y in inst.ratoms} | {
        y for _, x, y in inst.ratoms
    }
    if touched - visited:
        raise NotTreeShaped("instance has atoms disconnected from the point")
    return q


def point_component(inst: Instance, point: str) -> Instance:
    """Restrict to the connected component of `point` (other individuals
    dropped); `inst` itself when the component is all of it."""
    keep = {point}
    frontier = [point]
    adj: dict[str, set[str]] = {}
    for _, x, y in inst.ratoms:
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    while frontier:
        n = frontier.pop()
        for m in adj.get(n, ()):
            if m not in keep:
                keep.add(m)
                frontier.append(m)
    if len(keep) == len(inst.individuals):
        return inst
    return Instance(
        frozenset(keep),
        frozenset((c, a) for c, a in inst.catoms if a in keep),
        frozenset((r, a, b) for r, a, b in inst.ratoms if a in keep),
    )
