"""Builders of uniquely characterising example sets: the rewrite rules over
gap-normal tagged instances, the next/later family, and the until
construction with its two split-partner suppliers (signature complements
for propositional queries, split-partner members under an ontology).
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .dl import (
    BOTTOM_QUERY,
    Eliq,
    Instance,
    Ontology,
    Pointed,
    Signature,
    conjoin,
    empty_ontology,
    reasoner,
    rename_instance,
)
from .domainchar import PREFER_FRONTIER, SingularPlus, negatives_for, split_partner
from .errors import (
    NoCharacterisationFound,
    NotPeerless,
    NotPropositional,
    RuleNotApplicable,
    TrailingTopTarget,
    UnsafeQuery,
)
from .temporal.eval import fits, tentail
from .temporal.model import (
    LEQ,
    ExampleSet,
    PathQuery,
    TInstance,
    UntilQuery,
    example_set,
    tinstance,
)
from .temporal.normal import infer_body_class, is_peerless, is_safe, normalize, until_truncate

RULES = ("a", "b", "c", "d", "e", "f")

MODE_SAFE = "safe"
MODE_DEPTH = "depth"
MODE_NEXTDIA = "nextdia"


def _point_slice(p: Pointed, tag: int) -> Instance:
    """Rename a pointed instance so its point is the shared individual `a`
    and its helpers carry a per-slice prefix."""
    ren = {p.point: "a"}
    for k, ind in enumerate(sorted(p.instance.individuals - {p.point})):
        ren[ind] = f"s{tag}_{k}"
    return rename_instance(p.instance, ren)


def empty_slice() -> Instance:
    return Instance(frozenset(("a",)))


@dataclass(frozen=True)
class TaggedBNormal:
    """A gap-normal temporal instance whose block slices remember the domain
    query they realise and that query's negative instances."""

    onto: Ontology
    b: int
    blocks: tuple[tuple[Pointed, ...], ...]
    tags: tuple[tuple[Optional[Eliq], ...], ...]
    negatives: tuple[tuple[tuple[Pointed, ...], ...], ...]

    def block_count(self) -> int:
        return len(self.blocks)

    def to_tinstance(self, gaps: Optional[dict[int, int]] = None) -> TInstance:
        """The realisation: the block slices in order, `b` empty slices
        between blocks i and i+1, or `gaps[i]` where given."""
        slices: list[Instance] = []
        tag = 0
        for i, block in enumerate(self.blocks):
            if i:
                gap = self.b if gaps is None else gaps.get(i - 1, self.b)
                slices.extend(empty_slice() for _ in range(gap))
            for p in block:
                slices.append(_point_slice(p, tag))
                tag += 1
        return tinstance(slices, "a")

    def rows(self) -> tuple[list, list, list]:
        """Mutable copies of the blocks, tags and negatives."""
        return (
            [list(b) for b in self.blocks],
            [list(b) for b in self.tags],
            [list(b) for b in self.negatives],
        )

    def rebuilt(self, blocks, tags, negs) -> "TaggedBNormal":
        """The same ontology and gap bound over edited rows."""
        return TaggedBNormal(
            self.onto,
            self.b,
            tuple(tuple(b) for b in blocks),
            tuple(tuple(b) for b in tags),
            tuple(tuple(b) for b in negs),
        )


def tagged_from_queries(
    onto: Ontology,
    b: int,
    query_blocks: Sequence[Sequence[Eliq]],
    supplier: Callable[[Eliq], Optional[SingularPlus]],
) -> TaggedBNormal:
    r = reasoner(onto)
    blocks, tags, negs = [], [], []
    for qb in query_blocks:
        row_b, row_t, row_n = [], [], []
        for q in qb:
            row_b.append(r.hat(q))
            row_t.append(q)
            sp = supplier(q)
            row_n.append(tuple(sp.negatives) if sp is not None else ())
        blocks.append(tuple(row_b))
        tags.append(tuple(row_t))
        negs.append(tuple(row_n))
    return TaggedBNormal(onto, b, tuple(blocks), tuple(tags), tuple(negs))


def _is_trivial_tag(onto: Ontology, tag: Optional[Eliq]) -> bool:
    if tag is None:
        return False
    return reasoner(onto).trivial(tag)


def rule_applications(t: TaggedBNormal, rule: str) -> list[tuple]:
    """All (position, choice) pairs where the rule applies, in reading order."""
    out = []
    if rule == "a":
        for i, block in enumerate(t.blocks):
            for j in range(len(block)):
                if (i, j) == (0, 0):
                    continue
                if _is_trivial_tag(t.onto, t.tags[i][j]):
                    continue
                for c in range(len(t.negatives[i][j])):
                    out.append(((i, j), c))
    elif rule == "b":
        for i, block in enumerate(t.blocks):
            for j in range(len(block) - 1):
                out.append(((i, j), None))
    elif rule == "c":
        for i, block in enumerate(t.blocks):
            for j in range(1, len(block) - 1):
                if not _is_trivial_tag(t.onto, t.tags[i][j]):
                    out.append(((i, j), None))
    elif rule == "d":
        for i, block in enumerate(t.blocks):
            if len(block) < 2:
                continue
            last = len(block) - 1
            for c in range(len(t.negatives[i][last])):
                out.append(((i, "end"), c))
            for c in range(len(t.negatives[i][0])):
                out.append(((i, "start"), c))
    elif rule == "e":
        if not _is_trivial_tag(t.onto, t.tags[0][0]):
            if len(t.blocks[0]) == 1:
                for c in range(len(t.negatives[0][0])):
                    out.append(((0, 0), c))
            else:
                out.append(((0, 0), None))
    elif rule == "f":
        for i in range(1, len(t.blocks)):
            if len(t.blocks[i]) != 1:
                continue
            members = _distinct_negatives(t, i, 0)
            if len(members) >= 2:
                out.append(((i, 0), None))
    return out


def _distinct_negatives(t: TaggedBNormal, i: int, j: int) -> list[Pointed]:
    """Negative instances for the tagged slice, pruned to pairwise
    non-equivalent representatives."""
    r = reasoner(t.onto)
    kept: list[Pointed] = []
    for p in t.negatives[i][j]:
        if not any(
            r.pointed_entails(p, q) and r.pointed_entails(q, p) for q in kept
        ):
            kept.append(p)
    return kept


def apply_rule(
    t: TaggedBNormal, rule: str, position: tuple, choice=None, exponent: int = 1
) -> TaggedBNormal:
    """One rewrite step; raises RuleNotApplicable when the side conditions of
    the rule fail at this position."""
    blocks, tags, negs = t.rows()

    if rule == "a":
        i, j = position
        if (i, j) == (0, 0) or _is_trivial_tag(t.onto, t.tags[i][j]):
            raise RuleNotApplicable("rule a skips the very first slice and trivial slices")
        options = t.negatives[i][j]
        if not options:
            raise RuleNotApplicable("no negative instances for this slice")
        blocks[i][j] = options[choice if choice is not None else 0]
        tags[i][j] = None
        negs[i][j] = ()
    elif rule == "b":
        i, j = position
        if j + 1 >= len(blocks[i]):
            raise RuleNotApplicable("rule b needs two adjacent slices in a block")
        _split_block(blocks, tags, negs, i, j + 1)
    elif rule == "c":
        i, j = position
        if not (0 < j < len(blocks[i]) - 1):
            raise RuleNotApplicable("rule c only duplicates interior slices")
        if _is_trivial_tag(t.onto, t.tags[i][j]):
            raise RuleNotApplicable("rule c skips trivial slices")
        blocks[i].insert(j, blocks[i][j])
        tags[i].insert(j, tags[i][j])
        negs[i].insert(j, negs[i][j])
        _split_block(blocks, tags, negs, i, j + 1)
    elif rule == "d":
        i, side = position
        if len(blocks[i]) < 2:
            raise RuleNotApplicable("rule d needs a non-primitive block")
        if side == "end":
            j = len(blocks[i]) - 1
            options = t.negatives[i][j]
            if not options:
                raise RuleNotApplicable("no negative instances for the border slice")
            blocks[i].insert(j, options[choice or 0])
            tags[i].insert(j, None)
            negs[i].insert(j, ())
            _split_block(blocks, tags, negs, i, j + 1)
        elif side == "start":
            options = t.negatives[i][0]
            if not options:
                raise RuleNotApplicable("no negative instances for the border slice")
            blocks[i].insert(1, options[choice or 0])
            tags[i].insert(1, None)
            negs[i].insert(1, ())
            _split_block(blocks, tags, negs, i, 1)
        else:
            raise RuleNotApplicable(f"unknown rule d side {side!r}")
    elif rule == "e":
        if position != (0, 0):
            raise RuleNotApplicable("rule e only touches the very first slice")
        if _is_trivial_tag(t.onto, t.tags[0][0]):
            raise RuleNotApplicable("rule e skips a trivial head")
        if len(blocks[0]) == 1:
            options = t.negatives[0][0]
            if not options:
                raise RuleNotApplicable("no negative instances for the head slice")
            blocks.insert(0, [options[choice or 0]])
            tags.insert(0, [None])
            negs.insert(0, [()])
        else:
            blocks.insert(0, [blocks[0][0]])
            tags.insert(0, [tags[0][0]])
            negs.insert(0, [negs[0][0]])
    elif rule == "f":
        i, j = position
        if len(t.blocks[i]) != 1 or i == 0:
            raise RuleNotApplicable("rule f replaces non-initial primitive blocks")
        members = _distinct_negatives(t, i, 0)
        if len(members) < 2:
            raise RuleNotApplicable("rule f needs at least two distinct negatives")
        return splice_word(t, i, members * exponent)
    else:
        raise RuleNotApplicable(f"unknown rule {rule!r}")
    return t.rebuilt(blocks, tags, negs)


def splice_word(t: TaggedBNormal, i: int, word: Sequence[Pointed]) -> TaggedBNormal:
    """Block i replaced by one untagged single-slice block per member of `word`."""
    blocks, tags, negs = t.rows()
    blocks[i : i + 1] = [[p] for p in word]
    tags[i : i + 1] = [[None] for _ in word]
    negs[i : i + 1] = [[()] for _ in word]
    return t.rebuilt(blocks, tags, negs)


def _split_block(blocks, tags, negs, i: int, at: int):
    head_b, tail_b = blocks[i][:at], blocks[i][at:]
    head_t, tail_t = tags[i][:at], tags[i][at:]
    head_n, tail_n = negs[i][:at], negs[i][at:]
    blocks[i : i + 1] = [head_b, tail_b]
    tags[i : i + 1] = [head_t, tail_t]
    negs[i : i + 1] = [head_n, tail_n]


# ----------------------------------------------------------- next/later class

def characterise_dia(
    onto: Ontology,
    q: PathQuery,
    sig: Signature,
    mode: tuple = (MODE_SAFE,),
    policy: str = PREFER_FRONTIER,
    size_bound: int = 6,
    qclass: Optional[str] = None,
) -> ExampleSet:
    """The example set for a path query over next/later/now-or-later.

    Positives: the gap-normal realisation plus one tightened variant per
    boundary. Negatives: the under-tightened variants, the point weakenings
    and every single rule application; depth mode adds the lone-conjunct
    replacement rule.
    """
    r = reasoner(onto)
    nq = normalize(onto, q)
    if qclass is None:
        qclass = infer_body_class(onto, nq)
    meta = (("mode", mode[0] + (f"={mode[1]}" if len(mode) > 1 else "")), ("negatives", policy))
    if len(nq.blocks) == 1 and len(nq.blocks[0]) == 1 and r.trivial(nq.blocks[0][0]):
        return example_set([tinstance([empty_slice()], "a")], [], meta)
    if mode[0] == MODE_SAFE:
        safe = is_safe(onto, nq, size_bound, qclass)
        if safe is False:
            raise UnsafeQuery("query has a lone conjunct; not uniquely characterisable here")
        if safe is None:
            raise UnsafeQuery("safety undecided within the bound")
    if mode[0] == MODE_NEXTDIA and nq.has_leq():
        raise UnsafeQuery("now-or-later connectors are outside the next/later class")

    supplier_cache: dict = {}

    def supplier(body: Eliq) -> Optional[SingularPlus]:
        key = body._key
        if key not in supplier_cache:
            try:
                supplier_cache[key] = negatives_for(
                    onto, body, sig, policy, qclass, size_bound
                )
            except NoCharacterisationFound:
                raise NoCharacterisationFound(
                    f"no negatives available for block body {body!r}"
                )
        return supplier_cache[key]

    b = nq.strict_count + 1
    base = tagged_from_queries(onto, b, nq.blocks, supplier)
    positives: list[TInstance] = [base.to_tinstance()]
    negatives: list[TInstance] = []

    for i, conn in enumerate(nq.connectors):
        if conn.kind == LEQ:
            positives.append(_join_variant(base, i).to_tinstance())
        else:
            # a later-chain of n steps is witnessed tightest by n-1 empties;
            # one fewer refutes it, so that variant goes to the negatives
            positives.append(base.to_tinstance({i: conn.count - 1}))
            if conn.count > 1:
                negatives.append(base.to_tinstance({i: conn.count - 2}))
            if conn.count == 1 and r.compatible(nq.blocks[i][-1], nq.blocks[i + 1][0]):
                negatives.append(_join_variant(base, i).to_tinstance())

    negatives.extend(t.to_tinstance() for t in _point_weakenings(base))
    rules = ("a", "b") if mode[0] == MODE_NEXTDIA else ("a", "b", "c", "d", "e")
    for rule in rules:
        for position, choice in rule_applications(base, rule):
            negatives.append(apply_rule(base, rule, position, choice).to_tinstance())
    if mode[0] == MODE_DEPTH:
        for position, choice in rule_applications(base, "f"):
            negatives.append(
                apply_rule(base, "f", position, choice, exponent=mode[1]).to_tinstance()
            )

    return _finish(onto, positives, negatives, nq, meta)


def _point_weakenings(t: TaggedBNormal) -> list[TaggedBNormal]:
    """The realisation with its point slice (block 0, slice 0) replaced by
    each negative instance of that slice's tag. Without these negatives the
    target with r0 weakened fits the set too. Rule a skips that slice, and
    the learner's rule closure relies on the skip, so the builder adds the
    weakenings as a step of its own; rule e does not cover them, since it
    never runs in nextdia mode and only copies the slice of a longer first
    block."""
    if _is_trivial_tag(t.onto, t.tags[0][0]):
        return []
    out = []
    for member in t.negatives[0][0]:
        blocks, tags, negs = t.rows()
        blocks[0][0] = member
        tags[0][0] = None
        negs[0][0] = ()
        out.append(t.rebuilt(blocks, tags, negs))
    return out


def _join_variant(t: TaggedBNormal, i: int) -> TaggedBNormal:
    """Merge blocks i and i+1 with the conjunction of the touching borders,
    read off the tags."""
    joined_body = conjoin(t.tags[i][-1], t.tags[i + 1][0])
    blocks, tags, negs = t.rows()
    blocks[i : i + 2] = [blocks[i][:-1] + [reasoner(t.onto).hat(joined_body)] + blocks[i + 1][1:]]
    tags[i : i + 2] = [tags[i][:-1] + [joined_body] + tags[i + 1][1:]]
    negs[i : i + 2] = [negs[i][:-1] + [()] + negs[i + 1][1:]]
    return t.rebuilt(blocks, tags, negs)


def _finish(onto, positives, negatives, q, meta=()) -> ExampleSet:
    es = example_set(positives, negatives, meta)
    pos_keys = {d._key for d in es.positives}
    kept = []
    for d in es.negatives:
        if d._key in pos_keys:
            warnings.warn("negative example coincides with a positive; dropped")
            continue
        kept.append(d)
    es = ExampleSet(es.positives, tuple(kept), es.meta)
    if not fits(onto, es, q):
        bad_pos = [d for d in es.positives if not tentail(onto, d, 0, q)]
        bad_neg = [d for d in es.negatives if tentail(onto, d, 0, q)]
        raise RuntimeError(
            f"constructed example set does not fit: {len(bad_pos)} bad positives, "
            f"{len(bad_neg)} bad negatives"
        )
    return es


# ------------------------------------------------------------ until classes

def characterise_prop_until(q: UntilQuery, sig: Signature) -> ExampleSet:
    """Example set for a peerless propositional until query wrt the empty
    ontology: the until construction with signature-complement slices as
    split-partners (the full slice less one name of each query)."""
    if any(b.role_names for b in q.targets()) or any(
        f is not None and f.role_names for f, _ in q.steps
    ):
        raise NotPropositional("until bodies must be conjunctions of concept names")
    onto = empty_ontology(sig)
    if not is_peerless(onto, q):
        raise NotPeerless("fillers must be containment-incomparable with targets")
    full = frozenset(sig.concept_names)

    def complement_slices(qs: tuple[Eliq, ...]) -> list[Instance]:
        if any(t.is_top for t in qs):
            return []
        slices = dict.fromkeys(
            full - set(c) for c in itertools.product(*(sorted(t.names) for t in qs))
        )
        return [
            Instance(frozenset(("a",)), frozenset((n, "a") for n in s), frozenset())
            for s in slices
        ]

    return _until_examples(onto, q, complement_slices, "until-propositional")


def characterise_until(
    onto: Ontology, q: UntilQuery, sig: Signature, combo_cap: int = 64
) -> ExampleSet:
    """Example set for a peerless until query wrt a Horn ontology, negatives
    drawn from split-partner members. A trivial final target is refused here
    only: the propositional family builds example sets for those."""
    if not is_peerless(onto, q):
        raise NotPeerless("fillers must be containment-incomparable with targets")
    if reasoner(onto).trivial(q.targets()[-1]):
        raise TrailingTopTarget("the final target must not be trivial")
    split_cache: dict = {}

    def split_slices(qs: tuple[Eliq, ...]) -> list[Instance]:
        key = tuple(sorted(t._key for t in qs))
        if key not in split_cache:
            members = split_partner(onto, sig, list(qs) or [BOTTOM_QUERY]).members
            split_cache[key] = [_point_slice(p, k) for k, p in enumerate(members)]
        return split_cache[key]

    return _until_examples(onto, q, split_slices, "until-split", combo_cap)


def _until_examples(
    onto: Ontology,
    q: UntilQuery,
    split_slices: Callable[[tuple[Eliq, ...]], list[Instance]],
    family: str,
    combo_cap: Optional[int] = None,
) -> ExampleSet:
    """The until construction over a split-slice supplier: `split_slices(qs)`
    gives the point slices of a split-partner of the queries qs, of bottom
    when qs is empty. At most `combo_cap` words of bottom slices are used.

    Positives: the targets' realisation, with fillers inserted once or
    twice. Negatives: words of bottom slices, such words with one target's
    split slice, and for each split slice inserted before a target the
    first suffix refuting the query truncated there; only words that do
    not entail q are kept.

    The realisation with the split slice inserted, `hats[:i] + [mem] +
    hats[i:]`, is no family of its own: it is the suffix search's first
    candidate, and the truncated query (bottom fillers, which mean next)
    entails q. So whenever that word does not entail q, it does not entail
    the truncated query either, and the search returns it.
    """
    r = reasoner(onto)
    n = q.depth
    targets = q.targets()
    hats = [_point_slice(r.hat(t), 100 + k) for k, t in enumerate(targets)]
    fhats = [None] + [
        None if f is None else _point_slice(r.hat(f), 200 + k)
        for k, (f, _) in enumerate(q.steps)
    ]

    def mk(seq: Sequence[Instance]) -> TInstance:
        return tinstance(list(seq), "a")

    positives = [mk(hats)]
    for i in range(1, n + 1):
        if fhats[i] is not None:
            positives.append(mk(hats[:i] + [fhats[i]] + hats[i:]))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if fhats[i] is None and fhats[j] is None:
                continue
            for k in (1, 2):
                li = [] if fhats[i] is None else [fhats[i]] * k
                lj = [] if fhats[j] is None else [fhats[j]]
                positives.append(mk(hats[:i] + li + hats[i:j] + lj + hats[j:]))

    negatives: list[TInstance] = []
    bottoms = split_slices(())
    combos = itertools.product(range(len(bottoms)), repeat=n) if bottoms else ()
    words = [[bottoms[c] for c in combo] for combo in itertools.islice(combos, combo_cap)]
    if n >= 1:
        negatives.extend(mk(seq) for seq in words)
    for p in range(n + 1):
        for mem in split_slices((targets[p],)):
            negatives.extend(mk(seq[:p] + [mem] + seq[p:]) for seq in words)
    for i, (filler, target) in enumerate(q.steps, 1):
        for mem in _until_members(split_slices, filler, target):
            found = _search_suffix(onto, q, hats, fhats, i, mem)
            if found is not None:
                negatives.append(found)

    negatives = [d for d in negatives if not tentail(onto, d, 0, q)]
    return _finish(onto, positives, negatives, q, (("family", family),))


def _until_members(split_slices, filler, target) -> list[Instance]:
    """Split slices of (filler, target), of the filler, and of bottom, each
    slice once; a bottom filler drops out."""
    qs = (target,) if filler is None else (filler, target)
    out = []
    seen = set()
    for mem in split_slices(qs) + split_slices(qs[:-1]) + split_slices(()):
        if mem._key not in seen:
            seen.add(mem._key)
            out.append(mem)
    return out


def _search_suffix(onto, q, hats, fhats, i, mem) -> Optional[TInstance]:
    """Lexicographic search over filler-repetition counts for the tail of the
    refutation instance; the first instance within the length cap that fails
    the truncated query wins."""
    n = q.depth
    cap = (n + 1) ** 2
    qd = until_truncate(q, i)
    free = [j for j in range(i + 1, n + 1) if fhats[j] is not None]
    for counts in _lex_vectors(len(free), cap):
        seq = list(hats[:i]) + [mem] + [hats[i]]
        ci = 0
        for j in range(i + 1, n + 1):
            if fhats[j] is not None:
                seq.extend([fhats[j]] * counts[ci])
                ci += 1
            seq.append(hats[j])
        if len(seq) - 1 > cap:
            continue
        d = tinstance(seq, "a")
        if not tentail(onto, d, 0, qd):
            return d
    return None


def _lex_vectors(k: int, cap: int):
    if k == 0:
        yield ()
        return
    for total in range(0, cap + 1):
        for combo in itertools.product(range(total + 1), repeat=k):
            if sum(combo) == total:
                yield combo
