"""Frontiers, split-partners, meet-reducibility, and the negatives of
singular+ characterisations."""
import itertools
import random

import pytest

from tomq.dl import (
    BOTTOM_QUERY,
    DIALECTS,
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
from tomq import domainchar
from tomq.dl.reason import Reasoner, general_hom_exists
from tomq.domainchar import (
    _least_weakenings,
    frontier,
    is_meet_reducible,
    negatives_for,
    split_partner,
    type_atlas,
)
from tomq.errors import UnsatisfiableQuery
from tomq.textio import parse_eliq, print_eliq
from tomq.verify import EnumSpec, check_frontier, check_split_partner

from helpers import (
    frontier_candidates,
    frontier_pool,
    rand_eliq,
    rand_ontology,
    reference_maximal,
    reference_prop_frontier,
    reference_strict_weakenings,
)

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
BACK_LOOP = ontology([ExistsRhs("A", R.inverse, "A")], ELHIF_NF, signature(["A"], ["R"]))  # A ⊑ ∃R⁻.A


def test_frontier_of_top_is_empty():
    assert frontier(empty_ontology(SIG_AB), TOP_QUERY, "p", 6).members == ()


def test_frontier_prop_conjunction():
    f = frontier(empty_ontology(SIG_AB), conjoin(A, B), "p", 6)
    assert set(f.members) == {A, B}


def test_prop_frontier_matches_subset_loop():
    """The class-`p` frontier, the strict weakenings among every conjunction
    of names, against the subset loop with pairwise containment
    (`helpers.reference_prop_frontier`), over seeded concept-only ontologies
    of all four dialects. The bound does not change a class-`p` frontier."""
    rng = random.Random(20261022)
    sig = signature(["A", "B", "C", "D"])
    counts = dict.fromkeys(("queries", "trivial", "single", "several", "axioms"), 0)
    for k in range(160):
        onto = rand_ontology(rng, sig, DIALECTS[k % len(DIALECTS)], max_axioms=6)
        counts["axioms"] += bool(onto.axioms)
        for _ in range(3):
            q = rand_eliq(rng, sig, max_size=4)
            if not reasoner(onto).query_satisfiable(q):
                continue
            got = frontier(onto, q, "p", rng.randint(0, 6)).members
            assert list(got) == reference_prop_frontier(onto, q), (onto, q)
            counts["queries"] += 1
            counts[("trivial", "single", "several")[min(len(got), 2)]] += 1
    floors = {"queries": 300, "trivial": 30, "single": 60, "several": 60, "axioms": 120}
    assert all(counts[name] >= floor for name, floor in floors.items()), counts


def test_least_weakenings_match_pairwise_filter():
    """`_least_weakenings`, one ordered pass keeping an antichain, against the
    pairwise filter it replaced (`helpers.reference_maximal` over
    `helpers.reference_strict_weakenings`, containment pair by pair), element
    for element: seeded ontologies of all four dialects with classes p, elq
    and eliq, the looping EL_LOOP and the cyclic existential A ⊑ ∃R⁻.A. The
    pool comes shuffled, as the pass orders it itself; a class-`p` frontier
    is the pass's result, and a verified one of elq or eliq is too."""
    rng = random.Random(20261019)
    cases = [
        (EL_LOOP, conjoin(A, B), "eliq", 6),
        (EL_LOOP, A, "eliq", 4),
        (EL_LOOP, conjoin(A, B), "elq", 5),
        (BACK_LOOP, A, "eliq", 5),
        (BACK_LOOP, A, "elq", 5),
        (BACK_LOOP, exists(R, A), "eliq", 4),
    ]
    for k in range(150):
        onto = rand_ontology(rng, SIG_ABR, DIALECTS[k % len(DIALECTS)], max_axioms=5)
        qclass = ("p", "elq", "eliq")[k % 3]
        q = rand_eliq(rng, SIG_AB if qclass == "p" else SIG_ABR, max_size=3)
        cases.append((onto, q, qclass, 3))
    counts = dict.fromkeys(("cases", "several", "dropped", "verified"), 0)
    for onto, q, qclass, bound in cases:
        if not reasoner(onto).query_satisfiable(q):
            continue
        pool = frontier_pool(onto, q, qclass, bound)
        r = Reasoner(onto)
        weaker = reference_strict_weakenings(r, q, pool)
        want = reference_maximal(r, weaker)
        got = _least_weakenings(onto, q, rng.sample(pool, len(pool)))
        assert got == want, (onto, q, qclass)
        front = frontier(onto, q, qclass, bound)
        if front is not None:
            assert list(front.members) == want, (onto, q, qclass)
            counts["verified"] += 1
        counts["cases"] += 1
        counts["several"] += len(want) >= 2
        counts["dropped"] += len(weaker) > len(want)
    floors = {"cases": 120, "several": 25, "dropped": 40, "verified": 100}
    assert all(counts[name] >= floor for name, floor in floors.items()), counts


def test_check_frontier_witnesses_on_refused_case():
    """`check_frontier`'s verdicts and witness lists on EL_LOOP and A & B,
    whose frontier the bounded search refuses, as recorded before the
    member-cover test was moved ahead of cand ⊑ q: the search's members
    pass the check (the path probes refute them), and two smaller sets fail
    it with these witnesses, in this order."""
    q = conjoin(A, B)

    def witnesses(members, bound):
        verdict = check_frontier(EL_LOOP, q, [parse_eliq(m) for m in members], EnumSpec(SIG_ABR, "eliq", bound))
        assert verdict.passed == (not verdict.witnesses)
        return [(kind, print_eliq(c)) for kind, c in verdict.witnesses]

    searched = [
        "ex R.(A & ex R-.B)", "B & ex R.ex R-.(A & B)", "B & ex R.ex R.ex R-.A",
        "B & ex R.ex R.ex R.ex R.Top", "B & ex R.(ex R.Top & ex R-.A)",
    ]
    assert [print_eliq(m) for m in frontier_candidates(EL_LOOP, q, "eliq", 6)[0]] == searched
    assert witnesses(searched, 6) == []
    assert witnesses(["A", "B"], 4) == [
        ("condition-b", "B & ex R.Top"),
        ("condition-b", "ex R.ex R-.B"),
        ("condition-b", "B & ex R.ex R-.Top"),
        ("condition-b", "B & ex R.ex R.Top"),
        ("condition-b", "B & ex R.Top & ex R.Top"),
    ]
    assert witnesses(["A", "B & ex R.ex R.Top"], 5) == [
        ("condition-b", "ex R.ex R-.(A & B)"),
        ("condition-b", "ex R.(A & ex R-.B)"),
        ("condition-b", "A & ex R.ex R-.B"),
        ("condition-b", "B & ex R.ex R-.A"),
        ("condition-b", "B & ex R.ex R.ex R.Top"),
    ]
    assert len(witnesses(["A", "B & ex R.ex R.Top"], 6)) == 20


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


def test_meet_reducible_fallback_when_search_refuses():
    """With no verified frontier, `is_meet_reducible` searches the strict
    weakenings for two whose conjunction entails q: A & B is the meet of A
    and B, and for A nothing within the bound decides."""
    assert frontier(EL_LOOP, conjoin(A, B), "eliq", 4) is None
    assert frontier(EL_LOOP, A, "eliq", 4) is None
    assert is_meet_reducible(EL_LOOP, conjoin(A, B), "eliq", 4) is True
    assert is_meet_reducible(EL_LOOP, A, "eliq", 4) is None


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
    """Frontier-backed negatives are the hats of the frontier members;
    split-backed ones are the split-partner's members."""
    Oe = empty_ontology(SIG_AB)
    r = reasoner(Oe)
    assert frontier(Oe, A, "p", 6).members == (TOP_QUERY,)
    assert r.hat(A).instance.catoms == frozenset({("A", "a")})  # the positive
    assert [p.instance.catoms for p in negatives_for(Oe, A, SIG_AB, "p")] == [frozenset()]

    negs = negatives_for(Oe, conjoin(A, B), SIG_AB, "p")
    assert negs == tuple(r.hat(m) for m in frontier(Oe, conjoin(A, B), "p", 6).members)
    assert {tuple(sorted(p.instance.catoms)) for p in negs} == {(("A", "a"),), (("B", "a"),)}

    assert negatives_for(Oe, TOP_QUERY, SIG_AB, "p") == ()

    s = split_partner(EL_LOOP, SIG_ABR, [conjoin(A, B)])
    assert s.members
    assert negatives_for(EL_LOOP, conjoin(A, B), SIG_ABR, "eliq", 6) == s.members


def test_negatives_for_policy(monkeypatch):
    """A verified frontier is used whenever there is one; the split-partner
    only when the search refuses. ⊤'s frontier is empty, so its negatives
    are (), an answer, and the split path is never asked."""
    Oe = empty_ontology(SIG_ABR)
    front = frontier(Oe, A, "eliq", 4)
    assert front is not None and front.members
    assert frontier(EL_LOOP, conjoin(A, B), "eliq", 6) is None
    split = split_partner(EL_LOOP, SIG_ABR, [conjoin(A, B)]).members
    assert negatives_for(EL_LOOP, conjoin(A, B), SIG_ABR, qclass="eliq", size_bound=6) == split

    def no_split(*args):
        raise AssertionError("split path asked")

    monkeypatch.setattr(domainchar, "split_partner", no_split)
    n1 = negatives_for(Oe, A, SIG_ABR, qclass="eliq", size_bound=4)
    assert n1 == tuple(reasoner(Oe).hat(m) for m in front.members)
    assert negatives_for(Oe, TOP_QUERY, SIG_ABR, qclass="eliq", size_bound=4) == ()


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
