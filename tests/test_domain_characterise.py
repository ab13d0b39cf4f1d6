"""Frontiers, split-partners, meet-reducibility, and the negatives of
singular+ characterisations."""
import collections
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
    anchored,
    atom,
    conjoin,
    empty_ontology,
    exists,
    exists_basic,
    hom_exists,
    induced_instance,
    instance,
    make_eliq,
    name_basic,
    ontology,
    reasoner,
    signature,
)
from tomq import domainchar, verify
from tomq.dl.reason import Reasoner, general_hom_exists
from tomq.domainchar import (
    _least_weakenings,
    clear_frontier_cache,
    frontier,
    frontier_search,
    is_meet_reducible,
    negatives_for,
    one_step_weakenings,
    split_partner,
    type_atlas,
)
from tomq.errors import UnsatisfiableQuery
from tomq.textio import parse_eliq, print_eliq
from tomq.temporal.model import example_set, tinstance
from tomq.verify import (
    EnumSpec,
    check_frontier,
    check_split_partner,
    check_unique_characterisation,
    entailment_target,
    enum_domain_queries,
)

from helpers import (
    enum_trees,
    frontier_candidates,
    frontier_pool,
    rand_eliq,
    rand_ontology,
    reference_contains,
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


def weakening_cases(rng: random.Random) -> list:
    """(ontology, query, class, bound): EL_LOOP and A ⊑ ∃R⁻.A, then 150
    seeded ontologies over {A, B},{R} in all four dialects with classes p,
    elq and eliq."""
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
    return cases


def test_least_weakenings_match_pairwise_filter():
    """The members of the frontier search, kept by `_least_weakenings` in one
    ordered pass, against the pairwise filter it replaced
    (`helpers.reference_maximal` over `helpers.reference_strict_weakenings`,
    containment pair by pair) over the search's pool widened to every tree
    (`helpers.frontier_pool`), element for element: seeded ontologies of all
    four dialects with classes p, elq and eliq, the looping EL_LOOP and the
    cyclic existential A ⊑ ∃R⁻.A. They agree on every case, a refused
    search's members too; a verified frontier is the search's own result."""
    rng = random.Random(20261019)
    cases = weakening_cases(rng)
    counts = dict.fromkeys(("cases", "several", "dropped", "verified", "refused"), 0)
    for onto, q, qclass, bound in cases:
        if not reasoner(onto).query_satisfiable(q):
            continue
        pool = frontier_pool(onto, q, qclass, bound)
        r = Reasoner(onto)
        weaker = reference_strict_weakenings(r, q, pool)
        want = reference_maximal(r, weaker)
        search = frontier_search(onto, q, qclass, bound)
        assert list(search.members) == want, (onto, q, qclass)
        verified = frontier(onto, q, qclass, bound) is search
        assert verified == (search.refusal is None), (onto, q, qclass)
        counts["verified" if verified else "refused"] += 1
        counts["cases"] += 1
        counts["several"] += len(want) >= 2
        counts["dropped"] += len(weaker) > len(want)
    floors = {"cases": 120, "several": 25, "dropped": 40, "verified": 100, "refused": 10}
    assert all(counts[name] >= floor for name, floor in floors.items()), counts


def test_memoised_frontier_matches_fresh_search():
    """`frontier_search` memoises each search per process: over the cases of
    `test_least_weakenings_match_pairwise_filter`, all of them memoised
    together, a second call is a cache hit that returns the same object,
    which `frontier` returns too unless the search refused, and each
    result, a refusal too, equals a fresh search made after
    `clear_frontier_cache` and the search run without the memo."""
    search = frontier_search.__wrapped__
    clear_frontier_cache()
    cases = [
        (onto, q, qclass, bound)
        for onto, q, qclass, bound in weakening_cases(random.Random(20261019))
        if reasoner(onto).query_satisfiable(q)
    ]
    memo = [frontier_search(*case) for case in cases]
    hits = frontier_search.cache_info().hits
    assert all(frontier_search(*case) is got for case, got in zip(cases, memo))
    assert all(frontier(*case) is (got if got.refusal is None else None) for case, got in zip(cases, memo))
    assert frontier_search.cache_info().hits == hits + 2 * len(cases)
    for case, got in zip(cases, memo):
        clear_frontier_cache()
        assert frontier_search.cache_info().currsize == 0
        assert frontier_search(*case) == search(*case) == got, case
    assert sum(got.refusal is not None for got in memo) >= 10
    assert len({onto.dialect for onto, _, _, _ in cases}) == len(DIALECTS)


def test_full_tree_listing_gives_the_same_results(monkeypatch):
    """The search and the checks read only tree cores, and the frontier
    search and its check only those q entails; with every tree listed
    instead (`helpers.enum_trees` patched in for the memoised listing, and
    filtered by `Reasoner.contains(q, c)` where a listing into q's chase is
    asked for), the frontier search's members and refusal (the search run
    without its memo), the least strict weakenings in the listing and the
    verdicts of `check_frontier`, `check_split_partner` and the class-eliq
    uniqueness check are the same, on EL_LOOP, A ⊑ ∃R⁻.A and seeded
    ontologies of all four dialects with classes elq and eliq. Each
    check is asked of a candidate set and of the set less its last member,
    so that verdicts of both kinds are compared."""
    rng = random.Random(20261021)
    cases = [(EL_LOOP, conjoin(A, B), "eliq", 5), (BACK_LOOP, exists(R, A), "eliq", 5)]
    for k in range(32):
        onto = rand_ontology(rng, SIG_ABR, DIALECTS[k % len(DIALECTS)], max_axioms=4)
        q = rand_eliq(rng, SIG_ABR, max_size=4)
        if reasoner(onto).query_satisfiable(q) and not reasoner(onto).trivial(q):
            cases.append((onto, q, ("elq", "eliq")[k // len(DIALECTS) % 2], 4))
    search = frontier_search.__wrapped__

    current = {}

    def results() -> list:
        out = []
        for onto, q, qclass, bound in cases:
            r, sig = reasoner(onto), onto.signature
            current.update(r=r, q=q)
            front = search(onto, q, qclass, bound)
            weaker = _least_weakenings(onto, q, enum_domain_queries(sig, qclass, bound))
            split = split_partner(onto, sig, [q]).members
            pos = [tinstance([anchored(r.hat(q), "x")], "a")]
            neg = [tinstance([anchored(r.hat(m), "x")], "a") for m in weaker]
            out.append((onto, q, front, weaker, [
                (check_frontier(onto, q, weaker[:cut], EnumSpec(sig, qclass, bound)).passed,
                 check_split_partner(onto, sig, [q], split[:cut], EnumSpec(sig, qclass, bound)).passed,
                 check_unique_characterisation(
                     onto, q, example_set(pos, neg[:cut]), EnumSpec(sig, "eliq", bound)).passed)
                for cut in (None, -1)
            ]))
        return out

    reduced = results()

    def full(sig, qclass, bound, into):
        listed = verify._enum_prop(sig, bound) if qclass == "p" else enum_trees(sig, bound, qclass != "elq")
        if into is None:
            return tuple(listed)
        r, q = current["r"], current["q"]
        assert into == entailment_target(r, q, bound)
        return tuple(c for c in listed if r.contains(q, c))

    monkeypatch.setattr(verify, "_enum_domain_cached", full)
    assert enum_domain_queries(SIG_ABR, "eliq", 4) == tuple(enum_trees(SIG_ABR, 4, True))
    assert results() == reduced
    verdicts = [v for *_, pair in reduced for v in pair]
    assert len(cases) >= 25 and len({onto.dialect for onto, *_ in cases}) == len(DIALECTS)
    assert sum(front.refusal is not None for _, _, front, *_ in reduced) >= 2
    assert sum(front.refusal is None for _, _, front, *_ in reduced) >= 20
    for check in range(3):
        assert 10 <= sum(v[check] for v in verdicts) <= len(verdicts) - 10, check


def zigzag_candidates(q):
    """The candidates `one_step_weakenings` once added: at one edge (r, C)
    of q, C rewritten as C & ex r-.ex r.C."""
    out = []
    for i, (role, child) in enumerate(q.edges):
        rest = q.edges[:i] + q.edges[i + 1:]
        zig = conjoin(child, exists(role.inverse, exists(role, child)))
        out.append(make_eliq(q.names, rest + ((role, zig),)))
        out.extend(make_eliq(q.names, rest + ((role, sub),)) for sub in zigzag_candidates(child))
    return out


def test_zigzag_candidates_map_both_ways():
    """A zigzag candidate maps both ways with its query under the empty
    ontology (`hom_exists`), so it is never a strict weakening under any
    ontology; `one_step_weakenings` no longer proposes it."""
    rng = random.Random(20261021)
    sig = signature(["A", "B"], ["R", "S"])
    seen = 0
    for _ in range(300):
        q = rand_eliq(rng, sig, max_size=6)
        steps = set(one_step_weakenings(q))
        for z in zigzag_candidates(q):
            assert hom_exists(z, induced_instance(q).instance, "a"), (q, z)
            assert hom_exists(q, induced_instance(z).instance, "a"), (q, z)
            assert z not in steps, (q, z)
            seen += 1
    assert seen >= 150, seen


def test_check_frontier_witnesses_on_refused_case():
    """`check_frontier`'s verdicts and witness lists on EL_LOOP and A & B,
    whose frontier the bounded search refuses, as recorded before the
    member-cover test was moved ahead of cand ⊑ q: the search's members
    pass the check (the path probes refute them), and two smaller sets fail
    it with these witnesses, in this order. The candidates are tree cores:
    B & ex R.ex R-.Top and B & ex R.Top & ex R.Top, once listed after
    B & ex R.Top and equivalent to it, are no longer candidates."""
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
        ("condition-b", "B & ex R.ex R.Top"),
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


def test_meet_reducible_fallback_matches_pairwise_search():
    """Where `frontier` refuses, `is_meet_reducible` pairs only the refused
    search's members; on seeded cases over {A, B},{R} in all four dialects,
    bodies up to size 5 at bound 3, it decides as the pairwise search does
    over the search's pool widened to every tree (`helpers.frontier_pool`):
    every strict weakening (`helpers.reference_strict_weakenings`), then
    every pair, containment decided pair by pair."""
    rng = random.Random(20261021)
    counts = {"refused": 0, "above": 0, True: 0, None: 0}
    for k in range(800):
        onto = rand_ontology(rng, SIG_ABR, DIALECTS[k % len(DIALECTS)], max_axioms=6)
        qclass = ("elq", "eliq")[k % 2]
        q = rand_eliq(rng, SIG_ABR, max_size=5)
        if not reasoner(onto).query_satisfiable(q) or frontier(onto, q, qclass, 3) is not None:
            continue
        r = Reasoner(onto)
        weaker = reference_strict_weakenings(r, q, frontier_pool(onto, q, qclass, 3))
        meet = any(reference_contains(r, conjoin(c1, c2), q) for c1, c2 in itertools.combinations(weaker, 2))
        want = True if meet else None
        assert is_meet_reducible(onto, q, qclass, 3) is want, (onto, q, qclass)
        counts["refused"] += 1
        counts["above"] += q.size > 3
        counts[want] += 1
    floors = {"refused": 100, "above": 35, True: 55, None: 40}
    assert all(counts[name] >= floor for name, floor in floors.items()), counts


def test_every_refusal_names_a_real_witness(monkeypatch):
    """A refused frontier search names a real witness: a strict weakening of
    q that no member entails, each containment decided pair by pair
    (`helpers.reference_contains`); a probe's role chain is at most three
    longer than the bound, and a condition-b witness lies within the bound.
    Cases: those of `weakening_cases` with classes elq and eliq, in all four
    dialects, EL_LOOP among them, and draw 18 (A ⊑ ∃R⁻, ex S-.A) at bounds
    4 and 5. The search's own members never fail condition (b), whose
    candidates are all in the pool the members cover; so each case is also
    searched with its last member dropped (`_least_weakenings` patched, the
    search run without the memo), and those refusals name condition-b
    witnesses."""
    draw_18 = ontology([SubBasic(name_basic("A"), exists_basic(R.inverse))], DL_LITE_H, signature(["A"], ["R", "S"]))
    cases = [
        (onto, q, qclass, bound)
        for onto, q, qclass, bound in weakening_cases(random.Random(20261019))
        if qclass != "p" and reasoner(onto).query_satisfiable(q)
    ]
    cases += [(draw_18, parse_eliq("ex S-.A"), "eliq", bound) for bound in (4, 5)]
    least = domainchar._least_weakenings
    counts = collections.Counter(cases=len(cases), dialects=len({onto.dialect for onto, *_ in cases}))
    for dropped in ("", "dropped "):
        if dropped:
            monkeypatch.setattr(domainchar, "_least_weakenings", lambda onto, q, pool: least(onto, q, pool)[:-1])
        for onto, q, qclass, bound in cases:
            search = frontier_search.__wrapped__(onto, q, qclass, bound)
            if search.refusal is None:
                continue
            kind, witness = search.refusal
            r = Reasoner(onto)
            assert reference_contains(r, q, witness) and not reference_contains(r, witness, q), (q, witness)
            assert not any(reference_contains(r, m, witness) for m in search.members), (q, witness)
            if kind == "probe":
                assert witness.role_depth <= bound + 3, (q, witness)
            else:
                assert kind == "condition-b" and witness.size <= bound, (q, kind, witness)
            counts[dropped + kind] += 1
    assert counts["condition-b"] == 0, counts
    floors = {"cases": 90, "dialects": len(DIALECTS), "probe": 15, "dropped condition-b": 60}
    assert all(counts[name] >= floor for name, floor in floors.items()), counts


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
