"""Rewrite rules over tagged gap-normal instances and the example-set builders."""
import random

import pytest

from tomq.dl import (
    DL_LITE_H,
    ELHIF_NF,
    TOP_QUERY,
    ConjLhs,
    Role,
    atom,
    conjoin,
    empty_ontology,
    instance,
    make_eliq,
    reasoner,
    signature,
)
from tomq.domainchar import negatives_for
from tomq.errors import NotPeerless, TomqError, TrailingTopTarget, UnsafeQuery
from tomq.tempchar import (
    MODE_DEPTH,
    MODE_NEXTDIA,
    MODE_SAFE,
    _join_variant,
    _point_weakenings,
    characterise_dia,
    characterise_prop_until,
    characterise_until,
    rule_variants,
    tagged_from_queries,
)
from tomq.temporal.eval import fits, tentail
from tomq.temporal.model import (
    ExampleSet,
    example_set,
    pathquery_from_ops,
    tinstance,
    untilquery,
)
from tomq.temporal.normal import is_safe, normalize, until_truncate
from tomq.verify import EnumSpec, check_unique_characterisation

from helpers import rand_ontology, reference_realisation, root_homs

A, B = atom("A"), atom("B")
SIG_A = signature(["A"])
SIG_AB = signature(["A", "B"])
OE_A = empty_ontology(SIG_A)
OE_AB = empty_ontology(SIG_AB)
DIA_A = pathquery_from_ops([TOP_QUERY, A], ["F"])
ALGEBRA = ontology = None


def slices_of(d):
    return ["".join(sorted(set(n for n, _ in s.catoms))) for s in d.slices]


def dia_tagged(onto, sig, q=DIA_A, b=2):
    def supplier(body):
        return negatives_for(onto, body, sig, qclass="p", size_bound=4)

    from tomq.temporal.normal import normalize

    nq = normalize(onto, q)
    return tagged_from_queries(onto, b, nq.blocks, supplier)


def test_rule_a_replaces_with_negative():
    t = dia_tagged(OE_A, SIG_A)
    apps = dict(rule_variants(t, "a"))
    assert list(apps) == [((1, 0), 0)]
    out = apps[((1, 0), 0)]
    assert slices_of(out.to_tinstance()) == ["", "", "", ""]


def test_rule_a_skips_head_and_trivial():
    t = dia_tagged(OE_A, SIG_A)
    assert ((0, 0), 0) not in dict(rule_variants(t, "a"))


def test_rule_b_splits_blocks():
    q = pathquery_from_ops([A, B], ["X"])
    t = dia_tagged(OE_AB, SIG_AB, q=q, b=2)
    out = dict(rule_variants(t, "b"))[((0, 0), None)]
    assert slices_of(out.to_tinstance()) == ["A", "", "", "B"]
    assert len(out.blocks) == 2


def test_rule_c_duplicates_interior():
    q = pathquery_from_ops([A, B, A], ["X", "X"])
    t = dia_tagged(OE_AB, SIG_AB, q=q, b=2)
    out = dict(rule_variants(t, "c"))[((0, 1), None)]
    assert slices_of(out.to_tinstance()) == ["A", "B", "", "", "B", "A"]


def test_rule_e_head_variants():
    q = pathquery_from_ops([A, B], ["F"])
    t = dia_tagged(OE_AB, SIG_AB, q=q, b=2)
    out = dict(rule_variants(t, "e"))[((0, 0), 0)]
    # primitive head: a negative instance goes in front
    assert slices_of(out.to_tinstance()) == ["", "", "", "A", "", "", "B"]


def test_rules_b_c_grow_length_a_keeps_it():
    t = dia_tagged(OE_AB, SIG_AB, q=pathquery_from_ops([A, B, A], ["X", "X"]), b=2)
    base_len = len(t.to_tinstance().slices)
    for rule in ("b", "c"):
        for _, out in rule_variants(t, rule):
            assert len(out.to_tinstance().slices) > base_len
    for _, out in rule_variants(t, "a"):
        assert len(out.to_tinstance().slices) == base_len


def test_characterise_dia_diamond():
    E = characterise_dia(OE_A, DIA_A, SIG_A, mode=(MODE_SAFE,))
    assert {tuple(slices_of(d)) for d in E.positives} == {("", "", "", "A"), ("", "A")}
    assert {tuple(slices_of(d)) for d in E.negatives} == {("", "", "", ""), ("A",)}
    assert fits(OE_A, E, DIA_A)


def test_characterise_dia_unsafe_rejected():
    from tomq.dl import ontology as mk_onto

    alg = mk_onto(
        [ConjLhs("A", "Top", "B"), ConjLhs("A", "Top", "C"), ConjLhs("B", "C", "A")],
        ELHIF_NF,
        signature(["A", "B", "C"]),
    )
    with pytest.raises(UnsafeQuery):
        characterise_dia(alg, DIA_A, signature(["A", "B", "C"]), mode=(MODE_SAFE,))
    # depth mode still characterises it within the bounded class
    E = characterise_dia(alg, DIA_A, signature(["A", "B", "C"]), mode=(MODE_DEPTH, 1))
    assert fits(alg, E, DIA_A)


def test_characterise_dia_trivial_query():
    E = characterise_dia(OE_A, pathquery_from_ops([TOP_QUERY], []), SIG_A)
    assert len(E.positives) == 1 and not E.negatives
    assert E.positives[0].max_time == 0


def test_characterise_nextdia_mode():
    q = pathquery_from_ops([TOP_QUERY, A, B], ["X", "F"])
    E = characterise_dia(OE_AB, q, SIG_AB, mode=(MODE_NEXTDIA,))
    assert fits(OE_AB, E, q)
    spec = EnumSpec(SIG_AB, "nextdia", size_bound=2, depth_bound=3)
    assert check_unique_characterisation(OE_AB, q, E, spec).passed
    diar = pathquery_from_ops([TOP_QUERY, A], ["Fr"])
    with pytest.raises(UnsafeQuery):
        characterise_dia(OE_AB, diar, SIG_AB, mode=(MODE_NEXTDIA,))


def test_characterise_prop_until_next():
    q = untilquery(TOP_QUERY, [(None, A)])
    E = characterise_prop_until(q, SIG_AB)
    shown = {tuple(slices_of(d)) for d in E.negatives}
    assert ("", "B", "A") in shown
    assert ("AB",) in shown
    assert fits(OE_AB, E, q)


def test_characterise_prop_until_requires_peerless():
    with pytest.raises(NotPeerless):
        characterise_prop_until(untilquery(TOP_QUERY, [(A, A)]), SIG_AB)


def test_characterise_until_matches_worked_example():
    q = untilquery(TOP_QUERY, [(None, A)])
    E = characterise_until(OE_AB, q, SIG_AB)
    pos = {tuple(slices_of(d)) for d in E.positives}
    neg = {tuple(slices_of(d)) for d in E.negatives}
    assert ("", "A") in pos
    assert ("", "B", "A") in neg
    assert ("", "AB", "A") not in neg  # that one entails the query
    assert fits(OE_AB, E, q)


def test_characterise_until_guards():
    with pytest.raises(TrailingTopTarget):
        characterise_until(OE_AB, untilquery(A, [(None, TOP_QUERY)]), SIG_AB)
    with pytest.raises(NotPeerless):
        characterise_until(OE_AB, untilquery(TOP_QUERY, [(conjoin(A, B), A)]), SIG_AB)


def test_until_uniqueness_bounded():
    spec = EnumSpec(SIG_AB, "until", size_bound=2, depth_bound=2)
    for q in [
        untilquery(TOP_QUERY, [(None, A)]),
        untilquery(TOP_QUERY, [(B, A)]),
        untilquery(B, [(B, A), (None, B)]),
    ]:
        E = characterise_until(OE_AB, q, SIG_AB)
        v = check_unique_characterisation(OE_AB, q, E, spec)
        assert v.passed, [w._key for w in v.witnesses][:3]


def test_unique_root_hom_into_gap_normal_realisation():
    # for safe queries the gap-normal positive admits exactly one root
    # homomorphism, and it maps each block onto its slice interval
    from tomq.temporal.normal import normalize

    for onto, sig, q in [
        (OE_A, SIG_A, DIA_A),
        (OE_AB, SIG_AB, pathquery_from_ops([A, B, A], ["X", "F"])),
        (OE_AB, SIG_AB, pathquery_from_ops([A, B], ["Fr"])),
    ]:
        nq = normalize(onto, q)
        b = nq.strict_count + 1

        def supplier(body):
            return negatives_for(onto, body, sig, qclass="p", size_bound=4)

        base = tagged_from_queries(onto, b, nq.blocks, supplier)
        d_b = base.to_tinstance()
        homs = root_homs(onto, nq, d_b)
        assert len(homs) == 1
        positions = [p for _, p in homs[0].assignment]
        intervals = []
        start = 0
        for blk in nq.blocks:
            intervals.append(list(range(start, start + len(blk))))
            start += len(blk) + b
        flat = [p for interval in intervals for p in interval]
        assert positions == flat


def test_until_uniqueness_under_ontology():
    from tomq.dl import DL_LITE_H, SubBasic, name_basic, ontology as mk_onto

    sig = signature(["A", "B", "C"])
    O = mk_onto([SubBasic(name_basic("A"), name_basic("B"))], DL_LITE_H, sig)
    C = atom("C")
    spec = EnumSpec(sig, "until", size_bound=2, depth_bound=2)
    for q in [
        untilquery(TOP_QUERY, [(C, A)]),
        untilquery(B, [(None, A)]),
        untilquery(TOP_QUERY, [(C, A), (None, C)]),
        untilquery(C, [(B, C)]),
    ]:
        E = characterise_until(O, q, sig)
        v = check_unique_characterisation(O, q, E, spec)
        assert v.passed, (q._key, [w._key for w in v.witnesses][:2])


def test_example_set_metadata_recorded():
    E = characterise_dia(OE_A, DIA_A, SIG_A, mode=(MODE_SAFE,))
    assert ("mode", "safe") in E.meta
    assert ("negatives", "prefer-frontier") in E.meta


def test_fits_vacuous_and_negative():
    empty = example_set([], [])
    assert fits(OE_AB, empty, DIA_A)
    E = characterise_dia(OE_A, DIA_A, SIG_A)
    xa = pathquery_from_ops([TOP_QUERY, A], ["X"])
    assert not fits(OE_A, E, xa)


@pytest.mark.parametrize("mode", [MODE_NEXTDIA, MODE_SAFE])
def test_point_body_is_weakened(mode):
    # without a negative whose point slice is weakened, X(A) fits the set
    # built for A & X(A) as well
    q = pathquery_from_ops([A, A], ["X"])
    E = characterise_dia(OE_A, q, SIG_A, mode=(mode,))
    assert not fits(OE_A, E, pathquery_from_ops([TOP_QUERY, A], ["X"]))
    qclass = "nextdia" if mode == MODE_NEXTDIA else "dia"
    v = check_unique_characterisation(OE_A, q, E, EnumSpec(SIG_A, qclass, 2, 1))
    assert v.passed, [str(w) for w in v.witnesses]


ROLE_SIG = signature(["A", "B"], ["R"])
NAMES_SIG = signature(["A", "B", "C"])
PROPERTY_DRAWS = 48


def _names_body(rng, names):
    return make_eliq(sorted(rng.sample(names, rng.randint(1, 2))))


def _edge_body(rng):
    """A name or nothing at the root, and one R or R- edge to a name or ⊤."""
    child = make_eliq(rng.sample(["A", "B"], rng.randint(0, 1)))
    root = rng.sample(["A", "B"], rng.randint(0, 1))
    return make_eliq(root, [(Role("R", rng.random() < 0.5), child)])


def _property_builds():
    """Seeded builder outputs in the four modes, with names-only bodies over
    {A, B, C} and bodies with a role edge over {A, B} and R, over the empty
    ontology and small random ones: (mode, kind, onto, query, examples,
    spec). Draws that a builder refuses are skipped."""
    rng = random.Random(20261018)
    out = []
    for k in range(PROPERTY_DRAWS):
        kind = ("names", "edges")[k % 2]
        mode = (MODE_SAFE, MODE_DEPTH, MODE_NEXTDIA, "until")[k // 2 % 4]
        sig = NAMES_SIG if kind == "names" else ROLE_SIG
        names = sorted(sig.concept_names)
        if k // 8 % 2:
            onto = rand_ontology(rng, sig, rng.choice([DL_LITE_H, ELHIF_NF]), max_axioms=3)
        else:
            onto = empty_ontology(sig)

        def body():
            return _names_body(rng, names) if kind == "names" else _edge_body(rng)

        r = reasoner(onto)
        try:
            if mode == "until":
                head = body()
                filler = None if rng.random() < 0.4 else _names_body(rng, names)
                q = untilquery(head, [(filler, body())])
                if not all(r.query_satisfiable(b) for b in q.targets()):
                    continue
                es = characterise_until(onto, q, sig)
                spec = EnumSpec(sig, "until", 2, q.depth)
            else:
                depth = 1 + k // 16 % 2
                q = pathquery_from_ops([body() for _ in range(depth + 1)],
                                       [rng.choice(["X", "F", "Fr"]) for _ in range(depth)])
                if not all(r.query_satisfiable(b) for b in q.bodies()):
                    continue
                nq = normalize(onto, q)
                if mode == MODE_SAFE and is_safe(onto, nq, 6) is not True:
                    continue
                if mode == MODE_NEXTDIA and nq.has_leq():
                    continue
                es = characterise_dia(
                    onto, q, sig, mode=(mode, nq.tdp) if mode == MODE_DEPTH else (mode,)
                )
                spec = EnumSpec(sig, "nextdia" if mode == MODE_NEXTDIA else "dia", 2, nq.tdp)
        except TomqError:
            continue
        out.append((mode, kind, onto, q, es, spec))
    return out


def test_builder_outputs_are_unique_within_bounds():
    builds = _property_builds()
    assert {(b[0], b[1]) for b in builds} == {
        (mode, kind)
        for mode in (MODE_SAFE, MODE_DEPTH, MODE_NEXTDIA, "until")
        for kind in ("names", "edges")
    }
    failed = []
    for mode, kind, onto, q, es, spec in builds:
        v = check_unique_characterisation(onto, q, es, spec)
        if not v.passed:
            failed.append((mode, kind, str(q), [str(w) for w in v.witnesses[:2]]))
    assert not failed, f"{len(failed)} of {len(builds)} sets not unique, first {failed[:3]}"


def test_suffix_search_returns_a_later_candidate():
    """The suffix search of the until construction does not always stop at
    its first candidate, so it cannot be cut to that one. For
    A ; U[B] D ; U[C] D ; U[D] G over {A, B, C, D, G}, with the split slice
    A,C,D,G put after the first target, the search tries filler counts
    (0, 0), (0, 1), (1, 0) for the fillers C and D: the first two words
    entail the query truncated there, the third does not, and it is a
    negative of the built set."""
    C, D, G = atom("C"), atom("D"), atom("G")
    q = untilquery(A, [(B, D), (C, D), (D, G)])
    sig = signature(["A", "B", "C", "D", "G"])
    onto = empty_ontology(sig)

    def word(*slices):  # each slice a string of one-letter names
        return tinstance([instance(["a"], [(n, "a") for n in s]) for s in slices], "a")

    truncated = until_truncate(q, 1)
    first = word("A", "ACDG", "D", "D", "G")
    second = word("A", "ACDG", "D", "D", "D", "G")
    third = word("A", "ACDG", "D", "C", "D", "G")
    assert tentail(onto, first, 0, truncated) and tentail(onto, second, 0, truncated)
    assert not tentail(onto, third, 0, truncated)
    negatives = [slices_of(d) for d in characterise_prop_until(q, sig).negatives]
    assert slices_of(third) in negatives
    assert slices_of(first) not in negatives and slices_of(second) not in negatives


def _tagged_variants(t):
    """The tagged instance and every variant the next/later builder
    realises from it: each gap tightened to 0 or 1 empty slices, the joined
    borders, the point weakenings and each rule a-f applied once, as
    (tagged instance, gaps) pairs."""
    out = [(t, None)]
    for i in range(len(t.blocks) - 1):
        out += [(t, {i: 0}), (t, {i: 1}), (_join_variant(t, i), None)]
    out += [(v, None) for v in _point_weakenings(t)]
    out += [(v, None) for rule in "abcdef" for _, v in rule_variants(t, rule)]
    return out


def test_realisations_share_value_equal_slices():
    """Every realisation of a build's variants equals, by value, one built
    afresh without the anchoring and padding memos, and value-equal slices
    across the variants are one object. A second build realises the same
    instances, and its base, made of hats, shares the first's slices."""
    rng = random.Random(20261020)
    variants = 0
    for k in range(16):
        sig = ROLE_SIG if k % 2 else NAMES_SIG
        names = sorted(sig.concept_names)
        onto = rand_ontology(rng, sig, (DL_LITE_H, ELHIF_NF)[k // 2 % 2], max_axioms=3) if k % 4 > 1 \
            else empty_ontology(sig)
        body = (lambda: _edge_body(rng)) if sig is ROLE_SIG else (lambda: _names_body(rng, names))
        q = pathquery_from_ops([body() for _ in range(3)], [rng.choice(["X", "F", "Fr"]) for _ in range(2)])
        if not all(reasoner(onto).query_satisfiable(b) for b in q.bodies()):
            continue
        nq = normalize(onto, q)

        members: dict = {}

        def supplier(b):
            # one object per value, as a hat is: a split-partner member is
            # built afresh on each call, so its slices are not shared
            negatives = negatives_for(onto, b, sig, "eliq" if sig is ROLE_SIG else "p", 3)
            return tuple(members.setdefault(p, p) for p in negatives)

        seen: dict = {}
        realised = []
        for t, gaps in _tagged_variants(tagged_from_queries(onto, nq.strict_count + 1, nq.blocks, supplier)):
            d = t.to_tinstance(gaps)
            assert d == reference_realisation(t, gaps), (k, str(q))
            assert all(seen.setdefault(s, s) is s for s in d.slices), (k, str(q))
            realised.append(d)
        # the base's slices are hats and empty slices, which a second build shares
        again = _tagged_variants(tagged_from_queries(onto, nq.strict_count + 1, nq.blocks, supplier))
        assert [t.to_tinstance(gaps) for t, gaps in again] == realised
        assert all(seen[s] is s for s in again[0][0].to_tinstance().slices)
        variants += len(realised)
    assert variants >= 150, variants
