"""Plain-text formats for ontologies, queries, temporal instances, example
sets and transcripts, plus their printers. Formats are line-oriented and
diffable; parse(print(x)) is the identity on canonical forms.

Reserved words: Top, bot, ex, func, and the temporal operator tokens X, F,
Fr, U; R- denotes the inverse of R. No concept or role may be named Top,
bot or T (⊤'s query key).
"""
from __future__ import annotations

import re
from typing import Iterable, Optional

from .dl import (
    BOT,
    BOTTOM_QUERY,
    DIALECTS,
    ELHIF_NF,
    TOP,
    TOP_KEY,
    TOP_QUERY,
    Basic,
    ConjLhs,
    Disjoint,
    Eliq,
    ExistsLhs,
    ExistsRhs,
    Func,
    Instance,
    Ontology,
    Role,
    RoleSub,
    Signature,
    SubBasic,
    conjoin_all,
    exists_basic,
    make_eliq,
    name_basic,
    top_basic,
)
from .errors import ParseError
from .temporal.model import (
    OP_OF_REL,
    REL_OF_OP,
    ExampleSet,
    PathQuery,
    TInstance,
    UntilQuery,
    pathquery_from_ops,
    tinstance,
    untilquery,
)

OP_TOKENS = tuple(REL_OF_OP)
RESERVED = {TOP, BOT, TOP_KEY, "ex", "func", "U"} | set(OP_TOKENS)

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED_NAMES = frozenset((TOP, BOT, TOP_KEY))


def reject_reserved(names: set, line=None) -> None:
    """Raise `ParseError` when a concept or role of `names` has a reserved name."""
    bad = _RESERVED_NAMES & names
    if bad:
        raise ParseError(f"{min(bad)!r} is reserved and names no concept or role", line)


# ------------------------------------------------------------------- roles

def _parse_role(tok: str, line=None) -> Role:
    inverted = tok.endswith("-")
    name = tok[:-1] if inverted else tok
    if not _NAME.fullmatch(name):
        raise ParseError(f"bad role name {tok!r}", line)
    return Role(name, inverted)


def _concept(tok: str, concepts: set, line, special=(TOP,)) -> str:
    """tok, one of `special` or a concept name, which is added to `concepts`;
    `ParseError` when it is neither."""
    if tok not in special:
        if not _NAME.fullmatch(tok):
            raise ParseError(f"bad concept name {tok!r}", line)
        concepts.add(tok)
    return tok


# ---------------------------------------------------------------- ontology

def parse_ontology(text: str) -> Ontology:
    dialect = None
    declared_roles: set[str] = set()
    axioms = []
    concepts: set[str] = set()
    roles: set[str] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dialect:"):
            dialect = line.split(":", 1)[1].strip()
            if dialect not in DIALECTS:
                raise ParseError(f"unknown dialect {dialect!r}", ln)
            continue
        header, _, listed = line.partition(":")
        if header in ("roles", "concepts"):
            for t in filter(None, (t.strip() for t in listed.split(","))):
                if header == "concepts":
                    _concept(t, concepts, ln, ())
                elif _NAME.fullmatch(t):
                    declared_roles.add(t)
                else:
                    raise ParseError(f"bad role name {t!r}", ln)
            reject_reserved(declared_roles | concepts, ln)
            continue
        if dialect is None:
            raise ParseError("the dialect header must come first", ln)
        axioms.append((ln, line))
    if dialect is None:
        raise ParseError("missing `dialect:` header")

    # first pass: every name after `ex` or `func`, and both sides of a
    # subsumption between declared roles, is a role
    roles |= declared_roles
    for ln, line in axioms:
        for m in re.finditer(r"\b(?:ex|func)\s+([A-Za-z_][A-Za-z0-9_]*)-?", line):
            roles.add(m.group(1))
        reject_reserved(roles, ln)

    parsed = []
    for ln, line in axioms:
        parsed.append(_parse_axiom(line, dialect, roles, concepts, ln))
        reject_reserved(concepts, ln)
    sig = Signature(frozenset(concepts - roles), frozenset(roles))
    return Ontology(sig, frozenset(parsed), dialect)


def _parse_basic(tok: str, concepts: set, ln: int) -> Basic:
    tok = tok.strip()
    if tok == TOP:
        return top_basic()
    if tok.startswith("ex "):
        return exists_basic(_parse_role(tok[3:].strip(), ln))
    return name_basic(_concept(tok, concepts, ln))


def _parse_axiom(line: str, dialect: str, roles: set, concepts: set, ln: int):
    if line.startswith("func "):
        return Func(_parse_role(line[5:].strip(), ln))
    if "[=" not in line:
        raise ParseError("an axiom needs `[=` or `func`", ln)
    lhs, rhs = (part.strip() for part in line.split("[=", 1))
    # role inclusion: both sides bare role tokens already known to be roles
    def _role_tok(t):
        base = t[:-1] if t.endswith("-") else t
        return base in roles and _NAME.fullmatch(base)

    if "&" not in lhs and not lhs.startswith("ex") and _role_tok(lhs) and _role_tok(rhs):
        return RoleSub(_parse_role(lhs, ln), _parse_role(rhs, ln))

    if "&" in lhs:
        l1, l2 = (t.strip() for t in lhs.split("&", 1))
        if dialect == ELHIF_NF:
            return _named_conj(l1, l2, rhs, concepts, ln)
        if rhs != BOT:
            raise ParseError("conjunction axioms in DL-Lite must end in bot", ln)
        return Disjoint(_parse_basic(l1, concepts, ln), _parse_basic(l2, concepts, ln))

    if lhs.startswith("ex ") and "." in lhs:
        head, filler = (t.strip() for t in lhs[3:].split(".", 1))
        role = _parse_role(head, ln)
        return ExistsLhs(role, _concept(filler, concepts, ln), _concept(rhs, concepts, ln, (TOP, BOT)))

    if rhs.startswith("ex ") and "." in rhs:
        head, filler = (t.strip() for t in rhs[3:].split(".", 1))
        role = _parse_role(head, ln)
        return ExistsRhs(_concept(lhs, concepts, ln), role, _concept(filler, concepts, ln))

    if dialect == ELHIF_NF:
        if rhs.startswith("ex "):
            role = _parse_role(rhs[3:].strip(), ln)
            return ExistsRhs(_concept(lhs, concepts, ln), role, TOP)
        if lhs.startswith("ex "):
            return ExistsLhs(_parse_role(lhs[3:].strip(), ln), TOP, _concept(rhs, concepts, ln))
        return _named_conj(lhs, TOP, rhs, concepts, ln)

    b1 = _parse_basic(lhs, concepts, ln)
    b2 = _parse_basic(rhs, concepts, ln) if rhs != BOT else None
    if b2 is None:
        raise ParseError("bare `[= bot` needs a conjunction on the left", ln)
    return SubBasic(b1, b2)


def _named_conj(l1: str, l2: str, rhs: str, concepts: set, ln: int) -> ConjLhs:
    return ConjLhs(
        _concept(l1, concepts, ln), _concept(l2, concepts, ln), _concept(rhs, concepts, ln, (TOP, BOT))
    )


def print_ontology(onto: Ontology) -> str:
    lines = [f"dialect: {onto.dialect}"]
    if onto.signature.role_names:
        lines.append("roles: " + ",".join(sorted(onto.signature.role_names)))
    if onto.signature.concept_names:
        lines.append("concepts: " + ",".join(sorted(onto.signature.concept_names)))
    for ax in sorted(onto.axioms, key=_axiom_sort_key):
        lines.append(_print_axiom(ax, onto.dialect))
    return "\n".join(lines) + "\n"


def _axiom_sort_key(ax):
    return (type(ax).__name__, str(ax))


def _print_axiom(ax, dialect: str) -> str:
    if isinstance(ax, Func):
        return f"func {ax.role}"
    if isinstance(ax, RoleSub):
        return f"{ax.sub} [= {ax.sup}"
    if isinstance(ax, SubBasic):
        return f"{ax.lhs} [= {ax.rhs}"
    if isinstance(ax, Disjoint):
        return f"{ax.lhs} & {ax.rhs} [= {BOT}"
    if isinstance(ax, ExistsRhs):
        return f"{ax.lhs} [= ex {ax.role} . {ax.filler}"
    if isinstance(ax, ExistsLhs):
        return f"ex {ax.role} . {ax.filler} [= {ax.rhs}"
    if isinstance(ax, ConjLhs):
        return f"{ax.lhs1} & {ax.lhs2} [= {ax.rhs}"
    raise TypeError(ax)


# ------------------------------------------------------------------ queries

class _Tokens:
    def __init__(self, text: str):
        self.toks = re.findall(r"\(|\)|&|\.|;|U\[|\]|[A-Za-z_][A-Za-z0-9_]*-?|\S", text)
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")


def parse_eliq(text: str) -> Eliq:
    ts = _Tokens(text)
    q = _parse_eliq_conj(ts, stop_at_ops=False)
    if ts.peek() is not None:
        raise ParseError(f"trailing input {ts.peek()!r}")
    return q


def _parse_eliq_conj(ts: _Tokens, stop_at_ops: bool) -> Eliq:
    parts = [_parse_eliq_atom(ts, stop_at_ops)]
    while ts.peek() == "&":
        save = ts.pos
        ts.next()
        if stop_at_ops and ts.peek() in OP_TOKENS:
            ts.pos = save
            break
        parts.append(_parse_eliq_atom(ts, stop_at_ops))
    return conjoin_all(parts)


def _parse_eliq_atom(ts: _Tokens, stop_at_ops: bool) -> Eliq:
    tok = ts.peek()
    if tok == "(":
        ts.next()
        q = _parse_eliq_conj(ts, stop_at_ops=False)
        ts.expect(")")
        return q
    if tok == "ex":
        ts.next()
        role = _parse_role(ts.next())
        ts.expect(".")
        sub = _parse_eliq_atom(ts, stop_at_ops)
        return make_eliq(edges=[(role, sub)])
    if tok == TOP:
        ts.next()
        return TOP_QUERY
    if tok == BOT:
        ts.next()
        return BOTTOM_QUERY
    if tok and _NAME.fullmatch(tok) and tok not in RESERVED:
        ts.next()
        return make_eliq([tok])
    raise ParseError(f"unexpected token {tok!r} in a domain query")


def print_eliq(q: Eliq) -> str:
    if q.is_bottom:
        return BOT
    if q.is_top:
        return TOP
    parts = list(q.names)
    for role, child in q.edges:
        sub = print_eliq(child)
        if len(child.names) + len(child.edges) > 1:
            sub = f"({sub})"
        parts.append(f"ex {role}.{sub}")
    return " & ".join(parts)


def parse_pathquery(text: str) -> PathQuery:
    ts = _Tokens(text)
    bodies, ops = _parse_path_tail(ts)
    if ts.peek() is not None:
        raise ParseError(f"trailing input {ts.peek()!r}")
    return pathquery_from_ops(bodies, ops)


def _parse_path_tail(ts: _Tokens):
    if ts.peek() in OP_TOKENS:
        op = ts.next()
        bodies, ops = _parse_op_argument(ts)
        return [TOP_QUERY] + bodies, [op] + ops
    head = _parse_eliq_conj(ts, stop_at_ops=True)
    if ts.peek() == "&":
        ts.next()
        if ts.peek() not in OP_TOKENS:
            raise ParseError(f"expected a temporal operator after `&`, got {ts.peek()!r}")
        op = ts.next()
        bodies, ops = _parse_op_argument(ts)
        return [head] + bodies, [op] + ops
    return [head], []


def _parse_op_argument(ts: _Tokens):
    if ts.peek() == "(":
        ts.next()
        bodies, ops = _parse_path_tail(ts)
        ts.expect(")")
        return bodies, ops
    return _parse_path_tail(ts)


def print_pathquery(q: PathQuery) -> str:
    bodies, rels = q.chain
    out = print_eliq(bodies[-1])
    for body, rel in zip(reversed(bodies[:-1]), reversed(rels)):
        inner = f"{OP_OF_REL[rel]}({out})"
        if body.is_top:
            out = inner
        else:
            out = f"{print_eliq(body)} & {inner}"
    return out


def parse_untilquery(text: str) -> UntilQuery:
    segments = [s.strip() for s in text.split(";")]
    if not segments or not segments[0]:
        raise ParseError("an until query starts with its head query")
    head = parse_eliq(segments[0])
    steps = []
    for seg in segments[1:]:
        m = re.fullmatch(r"U\[(.*)\]\s*(.*)", seg)
        if not m:
            raise ParseError(f"bad until step {seg!r}")
        filler_text, target_text = m.group(1).strip(), m.group(2).strip()
        filler = None if filler_text == BOT else parse_eliq(filler_text)
        steps.append((filler, parse_eliq(target_text)))
    return untilquery(head, steps)


def print_untilquery(q: UntilQuery) -> str:
    parts = [print_eliq(q.head)]
    for filler, target in q.steps:
        f = BOT if filler is None else print_eliq(filler)
        parts.append(f"U[{f}] {print_eliq(target)}")
    return " ; ".join(parts)


# ---------------------------------------------------------------- instances

_ATOM = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(-?)\(([^)]*)\)")


def parse_tinstance(text: str) -> TInstance:
    return _parse_tinstance_lines(enumerate(text.splitlines(), start=1))


def _parse_tinstance_lines(lines: Iterable[tuple[int, str]]) -> TInstance:
    """A temporal instance from its (line number, line) pairs; errors name
    those line numbers."""
    point = None
    per_time: dict[int, list] = {}
    max_t = -1
    for ln, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("point:"):
            point = line.split(":", 1)[1].strip()
            continue
        m = re.fullmatch(r"t=(-?\d+):\s*(.*)", line)
        if not m:
            raise ParseError(f"expected `t=<n>: ...`, got {line!r}", ln)
        t = int(m.group(1))
        if t < 0:
            raise ParseError("timestamps start at 0", ln)
        if t in per_time:
            raise ParseError(f"t={t} is given twice", ln)
        per_time[t] = _parse_atoms(m.group(2).strip(), ln)
        max_t = max(max_t, t)
    if point is None:
        raise ParseError("missing `point:` line")
    if max_t < 0:
        max_t = 0
        per_time[0] = []
    inds = {point}
    for atoms in per_time.values():
        for item in atoms:
            inds.update(item[1:])
    slices = []
    for t in range(max_t + 1):
        atoms = per_time.get(t, [])
        cat = frozenset((a[0], a[1]) for a in atoms if len(a) == 2)
        rat = frozenset((a[0], a[1], a[2]) for a in atoms if len(a) == 3)
        slices.append(Instance(frozenset(inds), cat, rat))
    out = tinstance(slices, point)
    return out


def _parse_atoms(body: str, ln: int) -> list[tuple]:
    if body in ("-", ""):
        return []
    out = []
    rest = _ATOM.sub("", body)
    if rest.strip(", \t"):
        raise ParseError(f"bad atom list {body!r}", ln)
    for m in _ATOM.finditer(body):
        pred, inv, args = m.group(1), m.group(2), [a.strip() for a in m.group(3).split(",")]
        args = [a for a in args if a]
        if len(args) == 1:
            if inv:
                raise ParseError("only roles can be inverted", ln)
            if pred == TOP_KEY:  # Top(a) holds anyway and bot(a) is a clash, but T names nothing
                reject_reserved({pred}, ln)
            out.append((pred, args[0]))
        elif len(args) == 2:
            reject_reserved({pred}, ln)
            out.append(Role(pred, bool(inv)).ratom(*args))
        else:
            raise ParseError(f"atoms take one or two individuals, got {m.group(0)!r}", ln)
    return out


def _slice_atoms(s: Instance, sep: str) -> str:
    """A slice's atoms in sorted order, concept atoms first, joined by
    `sep`; "-" for an empty slice."""
    atoms = [f"{c}({a})" for c, a in sorted(s.catoms)]
    atoms += [f"{r}({a},{b})" for r, a, b in sorted(s.ratoms)]
    return sep.join(atoms) if atoms else "-"


def print_tinstance(d: TInstance) -> str:
    lines = [f"point: {d.point}"]
    lines += [f"t={t}: " + _slice_atoms(s, ", ") for t, s in enumerate(d.slices)]
    return "\n".join(lines) + "\n"


def parse_exampleset(text: str) -> ExampleSet:
    section = None
    chunks: dict[str, list[list[tuple[int, str]]]] = {"positive": [], "negative": []}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped in ("[positive]", "[negative]"):
            section = stripped[1:-1]
            continue
        if section is None:
            raise ParseError("example sets start with [positive] or [negative]", ln)
        if stripped.startswith("point:"):
            chunks[section].append([])
        if not chunks[section]:
            raise ParseError("an instance starts with its `point:` line", ln)
        chunks[section][-1].append((ln, stripped))
    pos = [_parse_tinstance_lines(c) for c in chunks["positive"]]
    neg = [_parse_tinstance_lines(c) for c in chunks["negative"]]
    return ExampleSet(tuple(pos), tuple(neg))


def print_exampleset(es: ExampleSet) -> str:
    out = [f"# {k}: {v}" for k, v in es.meta]
    out.append("[positive]")
    for d in es.positives:
        out.append(print_tinstance(d).rstrip("\n"))
    out.append("[negative]")
    for d in es.negatives:
        out.append(print_tinstance(d).rstrip("\n"))
    return "\n".join(out) + "\n"


# --------------------------------------------------------------- transcript

def print_transcript_line(d: TInstance, answer: bool, count: int) -> str:
    fields = [d.point] + [_slice_atoms(s, " ") for s in d.slices]
    return "|".join(fields) + "\t" + ("yes" if answer else "no") + f"\t{count}"


def print_transcript(entries) -> str:
    return "\n".join(print_transcript_line(d, ans, n) for d, ans, n in entries) + "\n"
