"""Frontiers, split-partners, meet-reducibility, singular+ characterisations."""
import itertools

import pytest

from tomq.dl import (
    BOTTOM_QUERY,
    DL_LITE_H,
    ELHIF_NF,
    TOP_QUERY,
    ConjLhs,
    Disjoint,
    ExistsLhs,
    ExistsRhs,
    Pointed,
    Role,
    SubBasic,
    atom,
    conjoin,
    empty_ontology,
    exists,
    instance,
    name_basic,
    ontology,
    reasoner,
    signature,
)
from tomq.dl.reason import general_hom_exists
from tomq.domainchar import (
    Frontier,
    frontier,
    is_meet_reducible,
    negatives_for,
    singular_plus_from_frontier,
    singular_plus_from_split,
    split_partner,
    type_atlas,
)
from tomq.errors import UnsatisfiableQuery
from tomq.verify import EnumSpec, check_frontier, check_split_partner

from helpers import frontier_candidates

A, B, C = atom("A"), atom("B"), atom("C")
R = Role("R")
SIG_AB = signature(["A", "B"])
SIG_ABC = signature(["A", "B", "C"])
SIG_ABR = signature(["A", "B"], ["R"])

ALGEBRA = ontology(
    [ConjLhs("A", "Top", "B"), ConjLhs("A", "Top", "C"), ConjLhs("B", "C", "A")],
    ELHIF_NF,
    SIG_ABC,
)
EL_LOOP = ontology(
    [ExistsRhs("A", R, "A"), ExistsLhs(R, "A", "A")], ELHIF_NF, SIG_ABR
)


def test_frontier_of_top_is_empty():
    assert frontier(empty_ontology(SIG_AB), TOP_QUERY, "p", 6).members == ()


def test_frontier_prop_conjunction():
    f = frontier(empty_ontology(SIG_AB), conjoin(A, B), "p", 6)
    assert set(f.members) == {A, B}


def test_frontier_closure_algebra():
    f = frontier(ALGEBRA, A, "p", 6)
    assert set(f.members) == {B, C}
    assert check_frontier(ALGEBRA, A, f.members, EnumSpec(SIG_ABC, "p", 6)).passed


def test_frontier_unsatisfiable_query_rejected():
    O = ontology([Disjoint(name_basic("A"), name_basic("B"))], DL_LITE_H, SIG_AB)
    with pytest.raises(UnsatisfiableQuery):
        frontier(O, conjoin(A, B), "p", 6)


def test_frontier_none_within_bound_for_el_loop():
    assert frontier(EL_LOOP, conjoin(A, B), "eliq", 6) is None


def _pairwise_incomparable(O, members) -> bool:
    r = reasoner(O)
    return not any(r.contains(x, y) for x, y in itertools.permutations(members, 2))


def test_minimal_frontier():
    # a frontier is already minimal: one member per equivalence class, and
    # no member entails another
    Oe = empty_ontology(SIG_AB)
    Obc = ontology([SubBasic(name_basic("B"), name_basic("C"))], DL_LITE_H, signature(["B", "C"]))
    for O, q, qclass in [
        (Oe, conjoin(A, B), "p"),
        (Oe, A, "p"),
        (empty_ontology(SIG_ABC), conjoin(conjoin(A, B), C), "p"),
        (Obc, conjoin(atom("B"), atom("C")), "p"),
        (ALGEBRA, A, "p"),
        (empty_ontology(SIG_ABR), conjoin(A, exists(R, A)), "eliq"),
    ]:
        f = frontier(O, q, qclass, 6)
        assert f is not None and f.members
        assert _pairwise_incomparable(O, f.members)


def test_meet_reducible():
    Oe = empty_ontology(SIG_AB)
    assert is_meet_reducible(Oe, conjoin(A, B), "p", 6) is True
    assert is_meet_reducible(ALGEBRA, A, "p", 6) is True
    assert is_meet_reducible(Oe, A, "p", 6) is False


def test_meet_reducible_matches_minimal_frontier_size():
    for O, q, qclass in [
        (empty_ontology(SIG_AB), A, "p"),
        (empty_ontology(SIG_AB), conjoin(A, B), "p"),
        (ALGEBRA, A, "p"),
        (ALGEBRA, atom("B"), "p"),
        (empty_ontology(SIG_ABR), exists(R, A), "eliq"),
    ]:
        f = frontier(O, q, qclass, 6)
        if f is None:
            continue
        assert _pairwise_incomparable(O, f.members)
        assert is_meet_reducible(O, q, qclass, 6) is (len(f.members) >= 2)


def test_split_partner_disjointness():
    O = ontology([Disjoint(name_basic("A"), name_basic("B"))], DL_LITE_H, SIG_AB)
    s = split_partner(O, SIG_AB, [BOTTOM_QUERY])
    assert check_split_partner(O, SIG_AB, [BOTTOM_QUERY], s.members, EnumSpec(SIG_AB, "p", 4)).passed
    paper_pair = [
        Pointed(instance(["a"], [("A", "a")]), "a"),
        Pointed(instance(["a"], [("B", "a")]), "a"),
    ]
    assert check_split_partner(O, SIG_AB, [BOTTOM_QUERY], paper_pair, EnumSpec(SIG_AB, "p", 4)).passed


def test_split_partner_always_satisfiable_ontology():
    O = ontology([SubBasic(name_basic("A"), name_basic("B"))], DL_LITE_H, SIG_ABR)
    s = split_partner(O, SIG_ABR, [BOTTOM_QUERY])
    assert check_split_partner(O, SIG_ABR, [BOTTOM_QUERY], s.members, EnumSpec(SIG_ABR, "eliq", 5)).passed
    b_sigma = Pointed(
        instance(["a"], [("A", "a"), ("B", "a")], [("R", "a", "a")]), "a"
    )
    assert check_split_partner(O, SIG_ABR, [BOTTOM_QUERY], [b_sigma], EnumSpec(SIG_ABR, "eliq", 5)).passed


def test_split_partner_el_loop():
    s = split_partner(EL_LOOP, SIG_ABR, [conjoin(A, B)])
    assert check_split_partner(
        EL_LOOP, SIG_ABR, [conjoin(A, B)], s.members, EnumSpec(SIG_ABR, "eliq", 6)
    ).passed


def test_split_partner_members_project_to_type_instance():
    atlas = type_atlas(EL_LOOP, SIG_ABR, [conjoin(A, B)])
    s = split_partner(EL_LOOP, SIG_ABR, [conjoin(A, B)])
    for p in s.members:
        assert any(
            general_hom_exists(p.instance, p.point, atlas.type_instance, tid)
            for tid in atlas.type_ids
        )


def test_singular_plus_constructions():
    Oe = empty_ontology(SIG_AB)
    sp = singular_plus_from_frontier(Oe, A, Frontier((TOP_QUERY,)))
    assert sp.positive.instance.catoms == frozenset({("A", "a")})
    assert [p.instance.catoms for p in sp.negatives] == [frozenset()]

    sp2 = singular_plus_from_frontier(Oe, conjoin(A, B), Frontier((A, B)))
    assert {tuple(sorted(p.instance.catoms)) for p in sp2.negatives} == {
        (("A", "a"),),
        (("B", "a"),),
    }

    sp3 = singular_plus_from_frontier(Oe, TOP_QUERY, Frontier(()))
    assert sp3.negatives == ()

    s = split_partner(EL_LOOP, SIG_ABR, [conjoin(A, B)])
    sp4 = singular_plus_from_split(EL_LOOP, conjoin(A, B), s)
    assert sp4.provenance == "split"
    assert len(sp4.negatives) == len(s.members)


def test_negatives_for_policy():
    Oe = empty_ontology(SIG_ABR)
    n1 = negatives_for(Oe, A, SIG_ABR, qclass="eliq", size_bound=4)
    assert n1.provenance == "frontier"
    n2 = negatives_for(EL_LOOP, conjoin(A, B), SIG_ABR, qclass="eliq", size_bound=6)
    assert n2.provenance == "split"
    n3 = negatives_for(Oe, TOP_QUERY, SIG_ABR, qclass="eliq", size_bound=4)
    assert n3.negatives == ()


def test_el_loop_candidates_beaten_by_path_family():
    r = reasoner(EL_LOOP)
    q = conjoin(A, B)

    def qn(n):
        t = TOP_QUERY
        for _ in range(n):
            t = exists(R, t)
        return conjoin(B, t)

    def rnm(n, m):
        t = atom("B")
        for _ in range(m):
            t = exists(R.inverse, t)
        for _ in range(n):
            t = exists(R, t)
        return t

    family = [qn(n) for n in range(1, 9)] + [
        rnm(n, m) for n in range(2, 7) for m in range(1, n)
    ]
    for members in frontier_candidates(EL_LOOP, q, "eliq", 6):
        hits = [
            w
            for w in family
            if r.contains(q, w)
            and not r.contains(w, q)
            and not any(r.contains(mm, w) for mm in members)
        ]
        assert hits, f"candidate set of size {len(members)} not beaten"
