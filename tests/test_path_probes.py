"""Path probes: the chain walk in `_path_probe_witness` against the per-probe
containment loop and the per-shape walk it replaced, the probes it skips
because a weaker probe already entails the query, the probe listing and its
cut, the refusal of draw 18's frontier, and the ELQ frontiers that
inverse-role probes used to refuse."""
import random

import helpers
from helpers import rand_eliq, rand_ontology, reference_probe_shapes, reference_probe_walk

import tomq.domainchar as domainchar
from tomq.dl import (
    DL_LITE_F,
    DL_LITE_F_MINUS,
    DL_LITE_H,
    ELHIF_NF,
    TOP_QUERY,
    BOT,
    ConjLhs,
    Disjoint,
    ExistsLhs,
    ExistsRhs,
    Ontology,
    Reasoner,
    Role,
    SubBasic,
    atom,
    conjoin,
    conjoin_all,
    empty_ontology,
    exists,
    exists_basic,
    make_eliq,
    name_basic,
    ontology,
    signature,
)
from tomq.domainchar import (
    MAX_PATH_PROBES,
    _path_probe_witness,
    frontier,
    frontier_search,
    path_probes,
    probe_eliq,
)
from tomq.errors import UnsupportedAxiom
from tomq.textio import parse_eliq, print_eliq
from tomq.verify import EnumSpec, check_frontier

R, S = Role("R"), Role("S")


def reference_probes(sig, max_len, forward_only=False):
    """Every probe built as a query, in the listing order, under the cut."""
    probes = []
    for root_name, chain, tip_name in reference_probe_shapes(sig, max_len, "elq" if forward_only else "eliq"):
        node = TOP_QUERY if tip_name is None else make_eliq([tip_name])
        for role in reversed(chain):
            node = exists(role, node)
        if root_name is not None:
            node = conjoin(make_eliq([root_name]), node)
        probes.append(node)
    return probes


def reference_witness(onto, q, members, max_len, qclass, entailing=None):
    """One containment test per probe, with a reasoner of its own. The probes
    that q entails, no member entails and that entail q are appended to
    `entailing` when a list is given."""
    r = Reasoner(onto)
    for probe in reference_probes(onto.signature, max_len, qclass == "elq"):
        if not r.contains(q, probe) or any(r.contains(m, probe) for m in members):
            continue
        if not r.contains(probe, q):
            return probe
        if entailing is not None:
            entailing.append(probe)
    return None


SIGS = (signature(["A", "B"], ["R"]), signature(["A", "B"], ["R", "S"]))
DIALECTS = (DL_LITE_H, DL_LITE_F, DL_LITE_F_MINUS, ELHIF_NF)


def with_loop(rng, onto):
    """onto plus axioms under which a chase loops, and a query that the loop
    makes equivalent to many probes: A ⊑ ∃R.A and ∃R.A ⊑ A with q = A in
    ELHIF normal form, ∃R⁻ ⊑ ∃R and ∃R ⊑ A with q = ∃R in DL-Lite (R drawn,
    maybe inverse). None if the dialect refuses the axioms."""
    role = Role(rng.choice(sorted(onto.signature.role_names)), rng.random() < 0.4)
    if onto.dialect == ELHIF_NF:
        loop = {ExistsRhs("A", role, "A"), ExistsLhs(role, "A", "A")}
        q = atom("A")
    else:
        loop = {
            SubBasic(exists_basic(role.inverse), exists_basic(role)),
            SubBasic(exists_basic(role), name_basic("A")),
        }
        q = exists(role)
    try:
        return Ontology(onto.signature, onto.axioms | loop, onto.dialect), q
    except UnsupportedAxiom:
        return None, None


def draw_probe_case(rng, sigs, looping):
    """An ontology over one of `sigs` in a drawn dialect, a satisfiable
    query and up to three members, or None when the draw fails. A looping
    case (`with_loop`) keeps only the members that do not entail q, as
    frontier members do not."""
    sig = rng.choice(sigs)
    onto = rand_ontology(rng, sig, rng.choice(DIALECTS), max_axioms=5)
    if looping:
        onto, q = with_loop(rng, onto)
        if onto is None:
            return None
    else:
        q = rand_eliq(rng, sig, max_size=5)
    r = Reasoner(onto)
    if not r.query_satisfiable(q):
        return None
    pool = [rand_eliq(rng, sig, max_size=4) for _ in range(4)] + [TOP_QUERY]
    members = rng.sample(pool, rng.randint(0, 3))
    if looping:
        members = [m for m in members if not r.contains(m, q)]
    return onto, q, members


def test_chain_walk_matches_per_probe_containment():
    """250 random cases, then 150 over looping ontologies (`with_loop`),
    whose query is equivalent to many probes and whose members do not entail
    it, as frontier members do not: there the probes whose weakening already
    entails q are skipped."""
    rng = random.Random(20261018)
    cases = witnessed = two_entailing = 0
    while cases < 400:
        drawn = draw_probe_case(rng, SIGS, looping=cases >= 250)
        if drawn is None:
            continue
        onto, q, members = drawn
        max_len = rng.randint(1, 4 if len(onto.signature.role_names) == 1 else 3)
        qclass = rng.choice(("eliq", "elq"))
        entailing = []
        want = reference_witness(onto, q, members, max_len, qclass, entailing)
        got = _path_probe_witness(onto, q, members, max_len, qclass)
        assert (got and got._key) == (want and want._key), (onto, q, members, max_len, qclass)
        cases += 1
        witnessed += want is not None
        two_entailing += len(entailing) >= 2
    assert witnessed >= cases // 5
    assert two_entailing >= cases // 5


def test_row_walk_matches_per_shape_walk(monkeypatch):
    """1 200 seeded cases: the row walk returns the witness of the per-shape
    walk it replaced (`reference_probe_walk`), builds the same shapes in the
    same order, and walks no chain the per-shape walk does not. Signatures
    from SIGS and {A,B,C} over R, the four dialects, every third case over a
    looping ontology (`with_loop`), chains up to length 5, `eliq` and `elq`.
    The floors make the settling rules fire: roots settled by (r, chain,
    None), tips settled by (None, chain, t), and chains not extended because
    the bare chain settles every root."""
    built, chains = [], []

    def recorded(shape):
        built.append(shape)
        return probe_eliq(shape)

    def counted(walk):
        def chains_of(*args):
            for chain in walk(*args):
                chains.append(chain[1])
                yield chain
        return chains_of

    monkeypatch.setattr(domainchar, "probe_eliq", recorded)
    monkeypatch.setattr(domainchar, "_reached_chains", counted(domainchar._reached_chains))
    monkeypatch.setattr(helpers, "_reference_reached_chains", counted(helpers._reference_reached_chains))
    rng = random.Random(20261022)
    sigs = SIGS + (signature(["A", "B", "C"], ["R"]),)
    cases = witnessed = roots_settled = tips_settled = pruned = 0
    while cases < 1200:
        drawn = draw_probe_case(rng, sigs, looping=cases % 3 == 0)
        if drawn is None:
            continue
        onto, q, members = drawn
        max_len = rng.randint(1, 5)
        qclass = rng.choice(("eliq", "elq"))
        built.clear()
        chains.clear()
        want = reference_probe_walk(onto, q, members, max_len, qclass)
        want_built, want_chains = built[:], chains[:]
        built.clear()
        chains.clear()
        got = _path_probe_witness(onto, q, members, max_len, qclass)
        case = (onto, q, members, max_len, qclass)
        assert got == want and built == want_built, case
        assert set(chains) <= set(want_chains), case
        cases += 1
        witnessed += got is not None
        entailing = built[:-1] if got is not None else built
        roots_settled += any(root is not None and tip is None for root, _, tip in entailing)
        tips_settled += any(root is None and tip is not None for root, _, tip in entailing)
        pruned += len(chains) < len(want_chains)
    # 303, 35, 30 and 227 at this seed
    assert witnessed >= 250
    assert roots_settled >= 25
    assert tips_settled >= 25
    assert pruned >= 150


def test_weaker_probe_entailing_q_skips_stronger(monkeypatch):
    """EL_LOOP (A ⊑ ∃R.A, ∃R.A ⊑ A) with q = A: the witness is the reference
    loop's, and only probes with no weakening known to entail q are built."""
    sig = signature(["A", "B"], ["R"])
    el_loop = ontology([ExistsRhs("A", R, "A"), ExistsLhs(R, "A", "A")], ELHIF_NF, sig)
    q = atom("A")
    built = []

    def counted(shape):
        built.append(shape)
        return probe_eliq(shape)

    monkeypatch.setattr(domainchar, "probe_eliq", counted)
    cases = (
        ([exists(R)], 3, exists(R, exists(R))),
        ([exists(R), exists(R, exists(R))], 4, exists(R, exists(R.inverse, q))),
        ([], 1, exists(R)),
    )
    for members, n_built, witness in cases:
        built.clear()
        got = _path_probe_witness(el_loop, q, members, 4, "eliq")
        assert got == witness == reference_witness(el_loop, q, members, 4, "eliq")
        assert len(built) == n_built, built


def test_probe_listing_and_cut():
    sig = signature(["A", "B", "C"], ["R", "S"])
    probes = path_probes(sig, 9)
    shapes = list(probes)
    # 16 shapes per chain over 4 roles: lengths 1-4 give 5440, the cut falls
    # after 910 of the 1024 chains of length 5
    assert len(probes) == len(shapes) == MAX_PATH_PROBES
    assert probes.levels == 5
    assert shapes[0] == (None, (R,), None)
    assert shapes[5440] == (None, (R, R, R, R, R), None)
    assert shapes[-1] == ("C", (S.inverse, S, R, S.inverse, R.inverse), "C")
    assert [probe_eliq(s) for s in shapes] == reference_probes(sig, 9)
    small = signature(["A"], ["R", "S"])
    assert [probe_eliq(s) for s in path_probes(small, 3, "elq")] == reference_probes(small, 3, True)


def test_probe_shapes_decoded_like_the_eager_listing():
    """`path_probes` lists, lazily, the same shapes as the eager builder it
    replaced, cut at the same place, which falls inside a level for
    {A,B,C},{R,S} and inside a row for {A,B},{R,S}; `levels` is the length
    of the longest chain listed, and a signature with no role lists none."""
    sigs = (signature(["A"], ["R"]), signature(["A", "B"], ["R", "S"]),
            signature(["A", "B", "C"], ["R", "S"]))
    cuts = 0
    for sig in sigs:
        for qclass in ("eliq", "elq"):
            for max_len in range(1, 10):
                want = reference_probe_shapes(sig, max_len, qclass)
                probes = path_probes(sig, max_len, qclass)
                assert list(probes) == want and len(probes) == len(want)
                assert probes.levels == len(want[-1][1])
                cuts += len(want) == MAX_PATH_PROBES
    # {A,B},{R,S} and {A,B,C},{R,S} are cut from length 6 and 5 on, for eliq
    assert cuts == 4 + 5
    roleless = path_probes(signature(["A"], []), 3)
    assert list(roleless) == [] and len(roleless) == roleless.levels == 0


def path_query(chain, tip=TOP_QUERY):
    """ex r1. ... ex rk. tip for the chain r1 ... rk."""
    node = tip
    for role in reversed(chain):
        node = exists(role, node)
    return node


def test_chain_walk_matches_per_probe_containment_at_the_cut():
    """The level walk against the per-probe loop on listings cut inside a
    level: {A,B,C},{R,S} (16 shapes per chain) is cut after 910 of the 1 024
    chains of length 5, {A,B},{R,S} (9 shapes per chain) after two shapes of
    chain 858 of length 6. Over a looping ontology (`with_loop`), q holds a
    path along the last chain listed and the member only its prefix, both
    with a longer R-path, so the witness is the last chain's probe; an
    unsatisfiable member entails every probe and leaves no witness. With B
    at the path's tip in q and the whole path in the member, the one
    separating shape (None, chain, B) is listed for {A,B,C} and past the cut
    for {A,B}, which then has no witness."""
    rng = random.Random(20261019)
    cases = (
        (signature(["A", "B", "C"], ["R", "S"]), ELHIF_NF, ConjLhs("B", "C", BOT), ["B", "C"],
         ("C", (S.inverse, S, R, S.inverse, R.inverse), "C")),
        (signature(["A", "B"], ["R", "S"]), DL_LITE_H, Disjoint(name_basic("A"), name_basic("B")), ["A", "B"],
         (None, (R, S.inverse, R.inverse, R.inverse, S, S), "A")),
    )
    for sig, dialect, clash, clashing, last_shape in cases:
        shapes = list(path_probes(sig, 9))
        assert len(shapes) == MAX_PATH_PROBES and shapes[-1] == last_shape
        last = last_shape[1]
        onto, q0 = with_loop(rng, Ontology(sig, frozenset({clash}), dialect))
        longer = path_query((R,) * (len(last) + 1))
        q = conjoin_all([q0, path_query(last), longer])
        member = conjoin_all([q0, path_query(last[:-1]), longer])
        got = _path_probe_witness(onto, q, [member], 9, "eliq")
        assert got == reference_witness(onto, q, [member], 9, "eliq") == path_query(last)
        unsat = make_eliq(clashing)
        assert not Reasoner(onto).query_satisfiable(unsat)
        assert _path_probe_witness(onto, q, [member, unsat], 9, "eliq") is None
        tipped = conjoin_all([q0, path_query(last, atom("B")), longer])
        listed = (None, last, "B") in shapes
        got = _path_probe_witness(onto, tipped, [q], 9, "eliq")
        assert got == reference_witness(onto, tipped, [q], 9, "eliq")
        assert got == (path_query(last, atom("B")) if listed else None)
        assert listed == (len(sig.concept_names) == 3)


def test_draw_18_refused_by_a_probe_until_bound_6():
    """ROADMAP item 4's draw 18 (DL-Lite_H, A ⊑ ∃R⁻; the frontier of
    ex S-.A): at bounds 4 and 5 the search's members pass `check_frontier`,
    but a path probe no member covers refuses them, and the search keeps
    that probe as its refusal; at bound 6 the members pass both checks and
    `frontier` returns them."""
    sig = signature(["A"], ["R", "S"])
    onto = ontology([SubBasic(name_basic("A"), exists_basic(R.inverse))], DL_LITE_H, sig)
    q = parse_eliq("ex S-.A")
    witnesses = {4: "ex S-.ex R-.ex R.A", 5: "ex S-.ex R-.ex R.ex S.ex S-.A"}
    for bound, witness in witnesses.items():
        search = frontier_search(onto, q, "eliq", bound)
        assert search.refusal == ("probe", parse_eliq(witness))
        assert check_frontier(onto, q, search.members, EnumSpec(sig, "eliq", size_bound=bound)).passed
        assert frontier(onto, q, "eliq", bound) is None
    front = frontier(onto, q, "eliq", 6)
    assert front is not None
    assert [print_eliq(m) for m in front.members] == [
        "ex S-.ex R-.ex R.(A & ex S.Top)",
        "ex S-.(ex R-.Top & ex S.ex S-.A)",
    ]


def test_elq_frontier_not_refused_by_inverse_probes():
    sig = signature(["A"], ["R"])
    onto = empty_ontology(sig)
    q = exists(R, atom("A"))
    front = frontier(onto, q, "elq", 4)
    assert front is not None and list(front.members) == [exists(R)]
    assert check_frontier(onto, q, list(front.members), EnumSpec(sig, "elq", size_bound=4)).passed
