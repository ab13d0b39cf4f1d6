"""Signatures, roles, axioms, ontologies and data instances.

Everything here is immutable and hashable so that reasoning results can be
cached per ontology / instance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import UnsupportedAxiom

TOP = "Top"
BOT = "bot"
TOP_KEY = "T"  # Top's `Eliq` key, so no concept or role may be named so

DL_LITE_H = "dl-lite-h"
DL_LITE_F = "dl-lite-f"
DL_LITE_F_MINUS = "dl-lite-f-minus"
ELHIF_NF = "elhif-nf"

DIALECTS = (DL_LITE_H, DL_LITE_F, DL_LITE_F_MINUS, ELHIF_NF)


@dataclass(frozen=True, order=True)
class Role:
    """A role name or its inverse."""

    name: str
    inverted: bool = False

    @property
    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def ratom(self, a: str, b: str) -> tuple[str, str, str]:
        """The stored atom of this role from a to b: P-(a,b) is stored as (P,b,a)."""
        return (self.name, b, a) if self.inverted else (self.name, a, b)

    def __str__(self) -> str:
        return self.name + ("-" if self.inverted else "")


@dataclass(frozen=True, order=True)
class Basic:
    """Basic concept: Top, a concept name, or an unqualified existential."""

    kind: str  # "top" | "name" | "exists"
    name: str = ""
    role: Optional[Role] = None

    def __str__(self) -> str:
        if self.kind == "top":
            return TOP
        if self.kind == "name":
            return self.name
        return f"ex {self.role}"


def top_basic() -> Basic:
    return Basic("top")


def name_basic(name: str) -> Basic:
    return Basic("name", name)


def exists_basic(role: Role) -> Basic:
    return Basic("exists", "", role)


@dataclass(frozen=True, order=True)
class SubBasic:
    lhs: Basic
    rhs: Basic


@dataclass(frozen=True, order=True)
class Disjoint:
    lhs: Basic
    rhs: Basic


@dataclass(frozen=True, order=True)
class Func:
    role: Role


@dataclass(frozen=True, order=True)
class RoleSub:
    sub: Role
    sup: Role


@dataclass(frozen=True, order=True)
class ExistsRhs:
    """A [= ex R . A'   (A, A' concept names or Top)"""

    lhs: str
    role: Role
    filler: str


@dataclass(frozen=True, order=True)
class ExistsLhs:
    """ex R . A [= A'"""

    role: Role
    filler: str
    rhs: str


@dataclass(frozen=True, order=True)
class ConjLhs:
    """A & A' [= B   (B a concept name or bot)"""

    lhs1: str
    lhs2: str
    rhs: str


Axiom = object  # union of the dataclasses above


@dataclass(frozen=True)
class Signature:
    concept_names: frozenset[str]
    role_names: frozenset[str]

    def __post_init__(self):
        if not (self.concept_names or self.role_names):
            raise ValueError("signature must be non-empty")
        overlap = self.concept_names & self.role_names
        if overlap:
            raise ValueError(f"identifiers used as both concept and role: {sorted(overlap)}")
        for reserved in (TOP, BOT, TOP_KEY):
            if reserved in self.concept_names or reserved in self.role_names:
                raise ValueError(f"{reserved!r} is reserved")


def signature(concepts: Iterable[str], roles: Iterable[str] = ()) -> Signature:
    return Signature(frozenset(concepts), frozenset(roles))


_DIALECT_SHAPES = {
    DL_LITE_H: (SubBasic, Disjoint, RoleSub),
    DL_LITE_F: (SubBasic, Disjoint, Func),
    DL_LITE_F_MINUS: (SubBasic, Disjoint, Func),
    ELHIF_NF: (ExistsRhs, ExistsLhs, ConjLhs, Func, RoleSub),
}


@dataclass(frozen=True)
class Ontology:
    signature: Signature
    axioms: frozenset
    dialect: str

    def __post_init__(self):
        validate_ontology(self)

    def axioms_of(self, kind) -> list:
        return sorted((ax for ax in self.axioms if isinstance(ax, kind)), key=str)


def _check_name(sig: Signature, name: str, allow_top=False, allow_bot=False):
    if name == TOP:
        if not allow_top:
            raise UnsupportedAxiom("Top not allowed in this position")
        return
    if name == BOT:
        if not allow_bot:
            raise UnsupportedAxiom("bot not allowed in this position")
        return
    if name not in sig.concept_names:
        raise UnsupportedAxiom(f"unknown concept name {name!r}")


def _check_role(sig: Signature, role: Role):
    if role.name not in sig.role_names:
        raise UnsupportedAxiom(f"unknown role name {role.name!r}")


def _check_basic(sig: Signature, b: Basic, allow_top=True):
    if b.kind == "top":
        if not allow_top:
            raise UnsupportedAxiom("Top not allowed here")
    elif b.kind == "name":
        _check_name(sig, b.name)
    else:
        _check_role(sig, b.role)


def validate_ontology(onto: Ontology) -> None:
    """Reject axiom shapes outside the dialect and names outside the signature."""
    if onto.dialect not in DIALECTS:
        raise UnsupportedAxiom(f"unknown dialect {onto.dialect!r}")
    shapes = _DIALECT_SHAPES[onto.dialect]
    sig = onto.signature
    for ax in onto.axioms:
        if not isinstance(ax, shapes):
            raise UnsupportedAxiom(f"{type(ax).__name__} not allowed in dialect {onto.dialect}")
        if isinstance(ax, (SubBasic, Disjoint)):
            _check_basic(sig, ax.lhs)
            _check_basic(sig, ax.rhs)
        elif isinstance(ax, Func):
            _check_role(sig, ax.role)
        elif isinstance(ax, RoleSub):
            _check_role(sig, ax.sub)
            _check_role(sig, ax.sup)
        elif isinstance(ax, ExistsRhs):
            _check_name(sig, ax.lhs, allow_top=True)
            _check_role(sig, ax.role)
            _check_name(sig, ax.filler, allow_top=True)
        elif isinstance(ax, ExistsLhs):
            _check_role(sig, ax.role)
            _check_name(sig, ax.filler, allow_top=True)
            _check_name(sig, ax.rhs, allow_top=True)
        elif isinstance(ax, ConjLhs):
            _check_name(sig, ax.lhs1, allow_top=True)
            _check_name(sig, ax.lhs2, allow_top=True)
            _check_name(sig, ax.rhs, allow_top=True, allow_bot=True)
    if onto.dialect == DL_LITE_F_MINUS:
        func = {ax.role for ax in onto.axioms if isinstance(ax, Func)}
        for ax in onto.axioms:
            if isinstance(ax, SubBasic) and ax.rhs.kind == "exists" and ax.rhs.role.inverse in func:
                raise UnsupportedAxiom(
                    f"{DL_LITE_F_MINUS} forbids B [= ex {ax.rhs.role} with func {ax.rhs.role.inverse}"
                )


def ontology(axioms: Iterable, dialect: str, sig: Signature | None = None) -> Ontology:
    axioms = frozenset(axioms)
    if sig is None:
        concepts, roles = set(), set()
        for ax in axioms:
            for part in _axiom_names(ax):
                concepts.add(part)
            for role in _axiom_roles(ax):
                roles.add(role.name)
        if not (concepts or roles):
            concepts = {"A"}
        sig = Signature(frozenset(concepts), frozenset(roles))
    return Ontology(sig, axioms, dialect)


def _axiom_names(ax):
    if isinstance(ax, (SubBasic, Disjoint)):
        for b in (ax.lhs, ax.rhs):
            if b.kind == "name":
                yield b.name
    elif isinstance(ax, ExistsRhs):
        yield from (n for n in (ax.lhs, ax.filler) if n not in (TOP, BOT))
    elif isinstance(ax, ExistsLhs):
        yield from (n for n in (ax.filler, ax.rhs) if n not in (TOP, BOT))
    elif isinstance(ax, ConjLhs):
        yield from (n for n in (ax.lhs1, ax.lhs2, ax.rhs) if n not in (TOP, BOT))


def _axiom_roles(ax):
    if isinstance(ax, (SubBasic, Disjoint)):
        for b in (ax.lhs, ax.rhs):
            if b.kind == "exists":
                yield b.role
    elif isinstance(ax, Func):
        yield ax.role
    elif isinstance(ax, RoleSub):
        yield ax.sub
        yield ax.sup
    elif isinstance(ax, (ExistsRhs, ExistsLhs)):
        yield ax.role


def empty_ontology(sig: Signature) -> Ontology:
    """The ontology with no axioms over sig. It is built anew on each call;
    equal ontologies share one `reasoner`, which is keyed by value."""
    return Ontology(sig, frozenset(), DL_LITE_H)


def _put(cache: dict, key, value, bound: int):
    """Store value under key in a cache of at most `bound` entries, and
    return the entry kept. A full cache is first emptied by one
    `dict.clear()`, which a racing thread cannot break as it can an
    iteration over the cache; each racing writer may add one entry past the
    bound. Of two threads storing one key, both get the first value."""
    if len(cache) >= bound:
        cache.clear()
    return cache.setdefault(key, value)


# entries of each memo that a value object keeps of what is derived from it
DERIVED_MEMO_SIZE = 32


def _memo(obj, name: str) -> dict:
    """The memo `name` kept on the frozen value object obj, made on first
    use: the derived values depend on obj's value alone, so value-equal
    objects may keep different memos. Bounded by DERIVED_MEMO_SIZE through
    `_put`, and never pickled (`__reduce__`)."""
    got = obj.__dict__.get(name)
    if got is None:
        got = obj.__dict__.setdefault(name, {})
    return got


@dataclass(frozen=True)
class Instance:
    """A data instance: unary and binary atoms over a finite individual set.

    Inverse role atoms are normalised away by `Role.ratom`'s rule.
    Top(a) holds implicitly for every individual.
    """

    individuals: frozenset[str]
    catoms: frozenset[tuple[str, str]] = frozenset()         # (concept, individual)
    ratoms: frozenset[tuple[str, str, str]] = frozenset()    # (role name, from, to)

    def __post_init__(self):
        for _, a in self.catoms:
            if a not in self.individuals:
                raise ValueError(f"individual {a!r} not declared")
        for _, a, b in self.ratoms:
            if a not in self.individuals or b not in self.individuals:
                raise ValueError("role atom over undeclared individual")

    @property
    def size(self) -> int:
        """One per atom, plus one per individual that no atom mentions."""
        bare = self.individuals.difference(
            (a for _, a in self.catoms), (x for _, a, b in self.ratoms for x in (a, b)))
        return len(self.catoms) + len(self.ratoms) + len(bare)

    def names_at(self, a: str) -> frozenset[str]:
        return frozenset(c for c, x in self.catoms if x == a)

    def with_individuals(self, more: Iterable[str]) -> "Instance":
        """This instance over its individuals and `more`. A padded copy is
        kept on the instance per individual set (see `_memo`), so slices
        padded alike are one object."""
        inds = self.individuals | frozenset(more)
        if inds == self.individuals:
            return self
        memo = _memo(self, "_padded")
        got = memo.get(inds)
        if got is None:
            got = _put(memo, inds, Instance(inds, self.catoms, self.ratoms), DERIVED_MEMO_SIZE)
        return got

    def is_trivial(self) -> bool:
        return not self.catoms and not self.ratoms

    @property
    def _key(self) -> tuple:
        cached = self.__dict__.get("_key_cache")
        if cached is None:
            cached = (
                tuple(sorted(self.individuals)),
                tuple(sorted(self.catoms)),
                tuple(sorted(self.ratoms)),
            )
            object.__setattr__(self, "_key_cache", cached)
        return cached

    def __reduce__(self):
        # rebuilt rather than copied: the key and the memos stay behind
        return Instance, (self.individuals, self.catoms, self.ratoms)


def instance(individuals: Iterable[str], catoms=(), ratoms=()) -> Instance:
    """Build an instance, normalising inverse role atoms given as (Role, a, b)."""
    cat, rat = set(), set()
    inds = set(individuals)
    for c, a in catoms:
        if c == TOP:
            inds.add(a)
            continue
        cat.add((c, a))
        inds.add(a)
    for r, a, b in ratoms:
        rat.add(r.ratom(a, b) if isinstance(r, Role) else (r, a, b))
        inds.update((a, b))
    return Instance(frozenset(inds), frozenset(cat), frozenset(rat))


def empty_instance(individuals: Iterable[str] = ("a",)) -> Instance:
    return Instance(frozenset(individuals))


@dataclass(frozen=True)
class Pointed:
    instance: Instance
    point: str

    def __post_init__(self):
        if self.point not in self.instance.individuals:
            raise ValueError(f"point {self.point!r} not in the instance")

    def __reduce__(self):
        # rebuilt rather than copied: the memo of `anchored` stays behind
        return Pointed, (self.instance, self.point)


def merge_instances(parts: Iterable[Instance]) -> Instance:
    inds, cat, rat = set(), set(), set()
    for p in parts:
        inds |= p.individuals
        cat |= p.catoms
        rat |= p.ratoms
    return Instance(frozenset(inds), frozenset(cat), frozenset(rat))


def rename_instance(inst: Instance, mapping: dict[str, str]) -> Instance:
    f = lambda x: mapping.get(x, x)
    return Instance(
        frozenset(f(a) for a in inst.individuals),
        frozenset((c, f(a)) for c, a in inst.catoms),
        frozenset((r, f(a), f(b)) for r, a, b in inst.ratoms),
    )


def anchored(p: Pointed, prefix: str, at: str = "a") -> Instance:
    """The pointed instance renamed so that its point is `at` and its k-th
    other individual, in sorted order, is `prefix` followed by k. The result
    is kept on p (see `_memo`) per `at` and, when p has another individual,
    per prefix, so that value-equal anchorings of p are one object."""
    key = (prefix if len(p.instance.individuals) > 1 else "", at)
    memo = _memo(p, "_anchored")
    got = memo.get(key)
    if got is None:
        ren = {ind: f"{prefix}{k}" for k, ind in enumerate(sorted(p.instance.individuals - {p.point}))}
        ren[p.point] = at
        got = _put(memo, key, rename_instance(p.instance, ren), DERIVED_MEMO_SIZE)
    return got
