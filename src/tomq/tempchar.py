"""Builders of uniquely characterising example sets: the rewrite rules over
gap-normal tagged instances, the next/later family, and the until
construction with its two split-partner suppliers (signature complements
for propositional queries, split-partner members under an ontology).

A tagged instance (`TaggedBNormal`) is one grid of blocks, each a tuple of
`TaggedSlice`s: the pointed slice, the domain query it realises and that
query's negative instances. Every edit replaces one block by zero or more
blocks (`TaggedBNormal.replaced`). The rewrite rules a-f are written once,
in `rule_variants`, which yields each application with its result; the
next/later builder takes them as negatives, and the learner closes a
positive example under them.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .dl import (
    BOTTOM_QUERY,
    TOP_QUERY,
    Eliq,
    Instance,
    Ontology,
    Pointed,
    Signature,
    anchored,
    conjoin,
    empty_instance,
    empty_ontology,
    reasoner,
)
from .domainchar import negatives_for, split_partner
from .errors import (
    NotPeerless,
    NotPropositional,
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

MODE_SAFE = "safe"
MODE_DEPTH = "depth"
MODE_NEXTDIA = "nextdia"


class TaggedSlice(NamedTuple):
    """A block slice, the domain query it realises (None for a slice a rule
    put in) and that query's negative instances."""

    slice: Pointed
    tag: Optional[Eliq] = None
    negatives: tuple = ()


@dataclass(frozen=True)
class TaggedBNormal:
    """A gap-normal temporal instance as one grid of tagged block slices."""

    onto: Ontology
    b: int
    blocks: tuple[tuple[TaggedSlice, ...], ...]

    def slices(self) -> tuple[tuple[Pointed, ...], ...]:
        """The grid of pointed slices, without tags and negatives."""
        return tuple(tuple(s.slice for s in block) for block in self.blocks)

    def replaced(self, i: int, *blocks: Sequence[TaggedSlice]) -> "TaggedBNormal":
        """Block i replaced by the given blocks, or removed when none is given."""
        new = tuple(tuple(block) for block in blocks)
        return TaggedBNormal(self.onto, self.b, self.blocks[:i] + new + self.blocks[i + 1 :])

    def to_tinstance(self, gaps: Optional[dict[int, int]] = None) -> TInstance:
        """The realisation: the block slices in order, `b` empty slices
        between blocks i and i+1, or `gaps[i]` where given.

        Every slice is anchored and padded through the memos that
        `anchored` and `Instance.with_individuals` keep on it, and every gap
        is ⊤'s hat (cached by the reasoner) anchored as a slice is, so a gap
        and a ⊤ negative are one object. The variants of one base thus
        realise a value-equal slice as one object, anchored once and padded
        once per individual set, and builds over the same hats share them
        too."""
        empty = anchored(reasoner(self.onto).hat(TOP_QUERY), "")
        slices: list[Instance] = []
        tag = 0
        for i, block in enumerate(self.blocks):
            if i:
                gap = self.b if gaps is None else gaps.get(i - 1, self.b)
                slices.extend([empty] * gap)
            for s in block:
                slices.append(anchored(s.slice, f"s{tag}_"))
                tag += 1
        return tinstance(slices, "a")


def tagged_from_queries(
    onto: Ontology,
    b: int,
    query_blocks: Sequence[Sequence[Eliq]],
    supplier: Callable[[Eliq], Optional[Sequence[Pointed]]],
) -> TaggedBNormal:
    """The tagged instance of the query blocks: one slice per query, its hat,
    tagged with the query and `supplier`'s negatives for it (none for None)."""
    r = reasoner(onto)

    def tagged(q: Eliq) -> TaggedSlice:
        hat = r.hat(q)
        return TaggedSlice(hat, q, tuple(supplier(q) or ()))

    return TaggedBNormal(onto, b, tuple(tuple(tagged(q) for q in qb) for qb in query_blocks))


def _is_trivial_tag(onto: Ontology, tag: Optional[Eliq]) -> bool:
    if tag is None:
        return False
    return reasoner(onto).trivial(tag)


def rule_variants(
    t: TaggedBNormal, rule: str, exponent: int = 1
) -> Iterator[tuple[tuple, TaggedBNormal]]:
    """Every single application of the rule, in reading order, as
    ((position, choice), result); `choice` indexes the negative put in, or
    is None. `exponent` repeats the word of rule f.

    a: a tagged slice other than the point slice is replaced by one of its
       negatives. b: a block is split between two slices. c: an interior
       slice is doubled and the block split between the copies. d: a
       negative of the last slice goes before it, or one of the first slice
       after it, and the block is split next to it. e: a negative of a
       one-slice head block goes in front of it as a block of its own, or
       the first slice of a longer one does. f: a later one-slice block is
       replaced by the word of its distinct negatives. Rules a, c and e
       skip slices whose tag is trivial."""
    onto = t.onto
    blocks = t.blocks
    if rule == "a":
        for i, block in enumerate(blocks):
            for j, s in enumerate(block):
                if (i, j) == (0, 0) or _is_trivial_tag(onto, s.tag):
                    continue
                for c, neg in enumerate(s.negatives):
                    yield ((i, j), c), t.replaced(i, block[:j] + (TaggedSlice(neg),) + block[j + 1 :])
    elif rule == "b":
        for i, block in enumerate(blocks):
            for j in range(len(block) - 1):
                yield ((i, j), None), t.replaced(i, block[: j + 1], block[j + 1 :])
    elif rule == "c":
        for i, block in enumerate(blocks):
            for j in range(1, len(block) - 1):
                if not _is_trivial_tag(onto, block[j].tag):
                    yield ((i, j), None), t.replaced(i, block[: j + 1], block[j:])
    elif rule == "d":
        for i, block in enumerate(blocks):
            if len(block) < 2:
                continue
            for c, neg in enumerate(block[-1].negatives):
                yield ((i, "end"), c), t.replaced(i, block[:-1] + (TaggedSlice(neg),), block[-1:])
            for c, neg in enumerate(block[0].negatives):
                yield ((i, "start"), c), t.replaced(i, block[:1], (TaggedSlice(neg),) + block[1:])
    elif rule == "e":
        head = blocks[0]
        if not _is_trivial_tag(onto, head[0].tag):
            if len(head) == 1:
                for c, neg in enumerate(head[0].negatives):
                    yield ((0, 0), c), t.replaced(0, (TaggedSlice(neg),), head)
            else:
                yield ((0, 0), None), t.replaced(0, head[:1], head)
    elif rule == "f":
        for i in range(1, len(blocks)):
            if len(blocks[i]) == 1:
                members = _distinct_negatives(onto, blocks[i][0])
                if len(members) >= 2:
                    yield ((i, 0), None), splice_word(t, i, members * exponent)
    else:
        raise ValueError(f"unknown rule {rule!r}")


def _distinct_negatives(onto: Ontology, s: TaggedSlice) -> list[Pointed]:
    """The slice's negative instances, pruned to pairwise non-equivalent
    representatives."""
    r = reasoner(onto)
    kept: list[Pointed] = []
    for p in s.negatives:
        if not any(
            r.pointed_entails(p, q) and r.pointed_entails(q, p) for q in kept
        ):
            kept.append(p)
    return kept


def splice_word(t: TaggedBNormal, i: int, word: Sequence[Pointed]) -> TaggedBNormal:
    """Block i replaced by one untagged single-slice block per member of `word`."""
    return t.replaced(i, *((TaggedSlice(p),) for p in word))


# ----------------------------------------------------------- next/later class

def characterise_dia(
    onto: Ontology,
    q: PathQuery,
    sig: Signature,
    mode: tuple = (MODE_SAFE,),
    size_bound: int = 6,
) -> ExampleSet:
    """The example set for a path query over next/later/now-or-later.

    Positives: the gap-normal realisation plus one tightened variant per
    boundary. Negatives: the under-tightened variants, the point weakenings
    and every single rule application; depth mode adds the lone-conjunct
    replacement rule.
    """
    r = reasoner(onto)
    nq = normalize(onto, q)
    qclass = infer_body_class(onto, nq)
    meta = (("mode", mode[0] + (f"={mode[1]}" if len(mode) > 1 else "")), ("negatives", "prefer-frontier"))
    if len(nq.blocks) == 1 and len(nq.blocks[0]) == 1 and r.trivial(nq.blocks[0][0]):
        return example_set([tinstance([empty_instance()], "a")], [], meta)
    if mode[0] == MODE_SAFE:
        safe = is_safe(onto, nq, size_bound)
        if safe is False:
            raise UnsafeQuery("query has a lone conjunct; not uniquely characterisable here")
        if safe is None:
            raise UnsafeQuery("safety undecided within the bound")
    if mode[0] == MODE_NEXTDIA and nq.has_leq():
        raise UnsafeQuery("now-or-later connectors are outside the next/later class")

    def supplier(body: Eliq) -> tuple[Pointed, ...]:
        return negatives_for(onto, body, sig, qclass, size_bound)

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
    if mode[0] == MODE_DEPTH:
        rules += ("f",)
    exponent = mode[1] if mode[0] == MODE_DEPTH else 1
    for rule in rules:
        negatives.extend(v.to_tinstance() for _, v in rule_variants(base, rule, exponent))

    return _finish(onto, positives, negatives, nq, meta)


def _point_weakenings(t: TaggedBNormal) -> list[TaggedBNormal]:
    """The realisation with its point slice (block 0, slice 0) replaced by
    each negative instance of that slice's tag. Without these negatives the
    target with r0 weakened fits the set too. Rule a skips that slice, and
    the learner's rule closure relies on the skip, so the builder adds the
    weakenings as a step of its own; rule e does not cover them, since it
    never runs in nextdia mode and only copies the slice of a longer first
    block."""
    head = t.blocks[0]
    if _is_trivial_tag(t.onto, head[0].tag):
        return []
    return [t.replaced(0, (TaggedSlice(neg),) + head[1:]) for neg in head[0].negatives]


def _join_variant(t: TaggedBNormal, i: int) -> TaggedBNormal:
    """Merge blocks i and i+1 with the conjunction of the touching borders,
    read off the tags."""
    left, right = t.blocks[i], t.blocks[i + 1]
    body = conjoin(left[-1].tag, right[0].tag)
    joined = left[:-1] + (TaggedSlice(reasoner(t.onto).hat(body), body),) + right[1:]
    return t.replaced(i + 1).replaced(i, joined)


def _finish(onto, positives, negatives, q, meta=()) -> ExampleSet:
    es = example_set(positives, negatives, meta)
    pos = set(es.positives)
    kept = []
    for d in es.negatives:
        if d in pos:
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


# words of bottom slices the split-partner until construction uses at most
UNTIL_COMBO_CAP = 64


def characterise_until(onto: Ontology, q: UntilQuery, sig: Signature) -> ExampleSet:
    """Example set for a peerless until query wrt a Horn ontology, negatives
    drawn from split-partner members. A trivial final target is refused here
    only: the propositional family builds example sets for those."""
    if not is_peerless(onto, q):
        raise NotPeerless("fillers must be containment-incomparable with targets")
    if reasoner(onto).trivial(q.targets()[-1]):
        raise TrailingTopTarget("the final target must not be trivial")
    # order-insensitive, unlike split_partner's memo: (B, A) reuses the members built for (A, B)
    split_cache: dict = {}

    def split_slices(qs: tuple[Eliq, ...]) -> list[Instance]:
        key = tuple(sorted(t._key for t in qs))
        if key not in split_cache:
            members = split_partner(onto, sig, list(qs) or [BOTTOM_QUERY]).members
            split_cache[key] = [anchored(p, f"s{k}_") for k, p in enumerate(members)]
        return split_cache[key]

    return _until_examples(onto, q, split_slices, "until-split", UNTIL_COMBO_CAP)


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
    hats = [anchored(r.hat(t), f"s{100 + k}_") for k, t in enumerate(targets)]
    fhats = [None] + [
        None if f is None else anchored(r.hat(f), f"s{200 + k}_")
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
    return list(dict.fromkeys(split_slices(qs) + split_slices(qs[:-1]) + split_slices(())))


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
