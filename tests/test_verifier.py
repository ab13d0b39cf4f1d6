"""Enumeration oracles: completeness counts, determinism, soundness."""
import itertools
import random
import signal

import pytest

from helpers import (
    enum_trees,
    rand_eliq,
    rand_instance,
    rand_ontology,
    reference_core,
    reference_fitting_shapes,
    reference_is_core,
    reference_letters,
)

from tomq.dl import (
    DIALECTS,
    DL_LITE_H,
    ELHIF_NF,
    TOP_QUERY,
    Disjoint,
    ExistsRhs,
    Reasoner,
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
    name_basic,
    ontology,
    signature,
)
from tomq.temporal.model import (
    PathQuery,
    example_set,
    pathquery_from_ops,
    tinstance,
    untilquery,
)
import tomq.verify as verify
from tomq.cli import main
from tomq.tempchar import MODE_DEPTH, characterise_dia, characterise_until
from tomq.temporal.eval import SliceTable, tentail
from tomq.textio import parse_pathquery, parse_untilquery, print_eliq
from tomq.verify import (
    ENUM_CACHE_SIZE,
    EnumSpec,
    check_frontier,
    check_split_partner,
    check_unique_characterisation,
    clear_enum_cache,
    enum_domain_queries,
    enum_queries,
    tequiv_bounded,
    tequiv_witness,
)

A, B = atom("A"), atom("B")
R = Role("R")
SIG_AB = signature(["A", "B"])
SIG_ABR = signature(["A", "B"], ["R"])
OE = empty_ontology(SIG_AB)
OER = empty_ontology(SIG_ABR)


def test_enum_prop_exact():
    got = enum_domain_queries(SIG_AB, "p", 2)
    assert [q._key for q in got] == ["T", "A", "B", "A&B"]


def test_enum_eliq_small():
    got = enum_domain_queries(signature(["A"], ["R"]), "eliq", 2)
    keys = {q._key for q in got}
    assert {"T", "A", "<R>(T)", "<R->(T)"} <= keys
    assert all(q.size <= 2 for q in got)


@pytest.mark.parametrize("qclass", ["eliq", "elq"])
def test_enum_trees_one_size_measure_with_and_without_roles(qclass):
    """A role-free signature lists, at every bound, exactly the role-free
    trees that the same signature with an unused role lists: one size
    measure, not a conjunct count."""
    names = ["A", "B", "C"]
    for bound in range(5):
        plain = enum_domain_queries(signature(names), qclass, bound)
        with_role = enum_domain_queries(signature(names, ["R"]), qclass, bound)
        assert plain == tuple(q for q in with_role if not q.edges), bound
    assert [q._key for q in enum_domain_queries(signature(["A", "B"]), qclass, 2)] == ["T", "A", "B"]


def test_enum_elq_has_no_inverses():
    got = enum_domain_queries(signature(["A"], ["R"]), "elq", 3)
    assert all(not q.has_inverse() for q in got)
    assert exists(R, A) in got


ENUM_CONCEPTS = ([], ["A"], ["A", "B"], ["A", "B", "C"])
ENUM_ROLES = ([], ["R"], ["R", "S"])


@pytest.mark.parametrize("qclass", ["eliq", "elq"])
def test_enum_trees_agree_with_reference(qclass):
    """The one-pass enumerator, over its universal target (no `into`),
    lists exactly the cores among the reference's trees
    (`reference_is_core`), in the reference's key order, for every
    signature and bound listed; and every tree it leaves out folds onto a
    listed tree of smaller size, its core (`reference_core`), mapping both
    ways with it."""
    inverses = qclass != "elq"
    checked = dropped = 0
    for concepts in ENUM_CONCEPTS:
        for roles in ENUM_ROLES:
            if not concepts and not roles:
                continue
            sig = signature(concepts, roles)
            for bound in range(6):
                got = verify._enum_trees(sig, bound, inverses)
                full = enum_trees(sig, bound, inverses)
                want = [q for q in full if reference_is_core(q)]
                assert got == want, (concepts, roles, bound)
                assert [q._key for q in got] == [q._key for q in want], (concepts, roles, bound)
                listed = set(got)
                for q in full:
                    if q in listed:
                        continue
                    core = reference_core(q)
                    assert core in listed and core.size < q.size, (q, core)
                    assert hom_exists(q, induced_instance(core).instance, "a"), (q, core)
                    assert hom_exists(core, induced_instance(q).instance, "a"), (q, core)
                    dropped += 1
                checked += len(want)
    # listed and left out add up to the reference's 17 047 (eliq) and 2 691 (elq) trees
    assert (checked, dropped) == {"eliq": (9535, 7512), "elq": (1843, 848)}[qclass]


class _Hang(Exception):
    pass


def _hang(*_):
    raise _Hang


def test_entailed_listing_is_the_full_listing_filtered_by_containment():
    """Listed into q's chase (`entailment_target`), `enum_domain_queries`
    gives exactly the queries of the full listing that q entails
    (`Reasoner.contains(q, c)`), in the full listing's order: for classes
    p, elq and eliq, over seeded ontologies of all four dialects and
    signatures with 0-2 roles, and over ontologies whose chase of q loops
    (A ⊑ ∃R.A, A ⊑ ∃R⁻.A, and A ⊑ ∃R with ∃R⁻ ⊑ A). Each case runs under a
    3 s alarm and is skipped when it rings, since a rare seeded ELHIF-NF
    draw hangs in `query_satisfiable`; each case has a fresh `Reasoner`, so
    an interrupted one is never asked again."""
    loops = [
        ontology([ExistsRhs("A", R, "A")], ELHIF_NF, SIG_ABR),
        ontology([ExistsRhs("A", R.inverse, "A")], ELHIF_NF, SIG_ABR),
        ontology([SubBasic(name_basic("A"), exists_basic(R)),
                  SubBasic(exists_basic(R.inverse), name_basic("A"))], DL_LITE_H, SIG_ABR),
    ]
    cases = [(onto, q, qclass, 5) for onto in loops for q in (A, conjoin(A, B), exists(R, B))
             for qclass in ("elq", "eliq")]
    rng = random.Random(20261022)
    for k in range(1200):
        sig = signature(["A", "B"], ["R", "S"][:k % 3])
        onto = rand_ontology(rng, sig, DIALECTS[k % len(DIALECTS)], max_axioms=5)
        cases.append((onto, rand_eliq(rng, sig, max_size=4), ("p", "elq", "eliq")[k // 12 % 3], 5 - k % 3 // 2))
    checked = smaller = deeper = skipped = 0
    old = signal.signal(signal.SIGALRM, _hang)
    try:
        for onto, q, qclass, bound in cases:
            signal.alarm(3)
            try:
                r, sig = Reasoner(onto), onto.signature
                into = verify.entailment_target(r, q, bound)
                got = enum_domain_queries(sig, qclass, bound, into)
                full = enum_domain_queries(sig, qclass, bound)
                want = tuple(c for c in full if r.contains(q, c))
            except _Hang:
                skipped += 1
                continue
            finally:
                signal.alarm(0)
            assert got == want, (onto, q, qclass, bound)
            checked += 1
            smaller += len(got) < len(full)
            deeper += into is not None and len(into.instance.individuals) > len(r.hat(q).instance.individuals)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert skipped <= 5 and checked >= 1190, (checked, skipped)
    assert smaller >= 800 and deeper >= 140, (smaller, deeper)


@pytest.mark.parametrize("qclass", ["eliq", "elq"])
def test_cli_enumerate_lists_the_reference_trees(qclass, capsys):
    assert main(["enumerate", "--sigma", "A,B,R", "--roles", "R", "--class", qclass, "--bound", "4"]) == 0
    want = [q for q in enum_trees(SIG_ABR, 4, qclass != "elq") if reference_is_core(q)]
    assert capsys.readouterr().out.splitlines() == [print_eliq(q) for q in want]


def test_enum_pathquery_count_matches_closed_form():
    # over one concept name: bodies {Top, A}; depth <= 1 gives
    # 2 single-body queries plus 2 * 3 * 2 one-operator queries
    spec = EnumSpec(signature(["A"]), "dia", size_bound=1, depth_bound=1)
    got = list(enum_queries(spec))
    assert len(got) == 2 + 2 * 3 * 2
    assert len({q._key for q in got}) == len(got)


def test_enum_until_count_matches_closed_form():
    # heads and targets over {Top, A}, fillers add bottom: 2 + 2*(3*2)
    spec = EnumSpec(signature(["A"]), "until", size_bound=1, depth_bound=1)
    got = list(enum_queries(spec))
    assert len(got) == 2 + 2 * 3 * 2


def test_enum_deterministic_golden():
    spec = EnumSpec(SIG_ABR, "eliq", size_bound=3)
    first = [q._key for q in enum_queries(spec)]
    second = [q._key for q in enum_queries(spec)]
    assert first == second
    assert first[:6] == ["T", "<R->(T)", "<R>(T)", "A", "B", "<R->(<R->(T))"]


def test_enum_domain_queries_memoised_as_one_tuple():
    first = enum_domain_queries(SIG_ABR, "eliq", 3)
    assert isinstance(first, tuple)
    assert enum_domain_queries(SIG_ABR, "eliq", 3) is first
    clear_enum_cache()
    again = enum_domain_queries(SIG_ABR, "eliq", 3)
    assert again is not first and again == first


def test_enum_cache_bounded_and_cleared():
    info = verify._enum_domain_cached.cache_info
    assert info().maxsize == ENUM_CACHE_SIZE
    for bound in range(ENUM_CACHE_SIZE + 5):
        enum_domain_queries(SIG_AB, "p", bound)
    assert info().currsize == ENUM_CACHE_SIZE
    clear_enum_cache()
    assert info().currsize == 0


def test_enum_queries_same_after_clear():
    """The temporal classes build on the memoised tuple of domain queries
    (`until` prepends its ⊥ filler to it); a warm cache and a cold one give
    the same queries in the same order."""
    for qclass in ("until", "dia"):
        spec = EnumSpec(SIG_AB, qclass, size_bound=1, depth_bound=1)
        warm = [q._key for q in enum_queries(spec)]
        clear_enum_cache()
        cold = [q._key for q in enum_queries(spec)]
        assert warm == cold and len(set(warm)) == len(warm) > 0


def test_check_frontier_zigzag_witness():
    spec = EnumSpec(SIG_ABR, "eliq", size_bound=6)
    verdict = check_frontier(OER, exists(R, A), [exists(R)], spec)
    assert not verdict.passed
    zig = exists(R, exists(R.inverse, exists(R, A)))
    assert zig in [w for _, w in verdict.witnesses]
    assert check_frontier(OER, A, [TOP_QUERY], spec).passed
    assert check_frontier(OER, TOP_QUERY, [], spec).passed


def test_check_split_partner_negative_probe():
    from tomq.dl import Pointed

    members = [Pointed(instance(["a"], [("A", "a")]), "a")]
    verdict = check_split_partner(OE, SIG_AB, [A], members, EnumSpec(SIG_AB, "p", 2))
    assert not verdict.passed
    assert B in verdict.witnesses


def test_tequiv_operator_identities():
    dia = pathquery_from_ops([TOP_QUERY, A], ["F"])
    xfr = pathquery_from_ops([TOP_QUERY, TOP_QUERY, A], ["X", "Fr"])
    diar = pathquery_from_ops([TOP_QUERY, A], ["Fr"])
    assert tequiv_bounded(OE, dia, xfr)
    w = tequiv_witness(OE, dia, diar)
    assert w is not None and w.max_time == 0
    assert sorted(w.slices[0].catoms) == [("A", "a")]
    botua = untilquery(TOP_QUERY, [(None, A)])
    xa = pathquery_from_ops([TOP_QUERY, A], ["X"])
    assert tequiv_bounded(OE, botua, xa)


def test_tequiv_under_ontology():
    from tomq.dl import ConjLhs, ELHIF_NF, ontology

    sig = signature(["A", "B", "C", "D"])
    Op = ontology(
        [
            ConjLhs("A", "Top", "B"),
            ConjLhs("A", "Top", "C"),
            ConjLhs("B", "C", "A"),
            ConjLhs("D", "Top", "A"),
        ],
        ELHIF_NF,
        sig,
    )
    from tomq.temporal.model import leq, less, pathquery

    lhs = pathquery([[TOP_QUERY], [A], [atom("D")]], [less(1), leq()])
    rhs = pathquery([[TOP_QUERY], [atom("D")]], [less(1)])
    assert tequiv_bounded(Op, lhs, rhs)
    # with ⊤ unsatisfiable every slice is inconsistent, so every query holds
    O_bot = ontology([ConjLhs("Top", "Top", "bot")], ELHIF_NF, sig)
    assert tequiv_bounded(O_bot, lhs, parse_pathquery("bot"))


def test_tequiv_exact_beyond_the_old_length_bound():
    """Three slices tell `A ; U[Top] Top ; U[bot] ex R.Top` from `bot`; the
    old oracle's bound for a depth-0 target was two, and within two slices
    the queries agree."""
    O = empty_ontology(signature(["A"], ["R"]))
    q1 = parse_untilquery("A ; U[Top] Top ; U[bot] ex R.Top")
    q2 = parse_pathquery("bot")
    w = tequiv_witness(O, q1, q2)
    assert w is not None and len(w.slices) == 3
    assert tentail(O, w, 0, q1) and not tentail(O, w, 0, q2)
    assert tequiv_witness(O, q1, q2, length_bound=2) is None
    assert tequiv_bounded(O, q1, q2, 2) and not tequiv_bounded(O, q1, q2)


DIFF_SIG = signature(["A", "B"], ["R"])


def _rand_path(rng):
    k = rng.choice([0, 1, 1, 2, 2])
    return [rand_eliq(rng, DIFF_SIG, max_size=2) for _ in range(k + 1)], [
        rng.choice(["X", "F", "Fr"]) for _ in range(k)
    ]


def _rand_pair(rng):
    """A random query of class dia, nextdia or until over random bodies and
    operators, and a path-query partner: another random one, the same
    bodies and operators with one operator or body changed, or a rewrite:
    F b as X Fr b, else the bodies as bottom-filled untils (equivalent to a
    chain of X). Rewrites of an until query are near misses."""
    bodies, ops = _rand_path(rng)
    kind = rng.choice(["random", "op", "body", "rewrite"])
    if rng.random() < 0.3:
        head, *rest = bodies
        fillers = [None if rng.random() < 0.4 else rand_eliq(rng, DIFF_SIG, max_size=2) for _ in rest]
        q1 = untilquery(head, list(zip(fillers, rest)))
    else:
        if rng.random() < 0.3:
            ops = [op if op != "Fr" else "F" for op in ops]  # class nextdia
        q1 = pathquery_from_ops(bodies, ops)
    if kind == "random" or (kind == "op" and not ops):
        return q1, pathquery_from_ops(*_rand_path(rng))
    if kind == "op":
        i = rng.randrange(len(ops))
        ops = ops[:i] + [rng.choice([op for op in ("X", "F", "Fr") if op != ops[i]])] + ops[i + 1:]
        return q1, pathquery_from_ops(bodies, ops)
    if kind == "body":
        i = rng.randrange(len(bodies))
        bodies = bodies[:i] + [rand_eliq(rng, DIFF_SIG, max_size=2)] + bodies[i + 1:]
        return q1, pathquery_from_ops(bodies, ops)
    if "F" in ops:
        i = ops.index("F")
        return q1, pathquery_from_ops(
            bodies[: i + 1] + [TOP_QUERY] + bodies[i + 1:], ops[:i] + ["X", "Fr"] + ops[i + 1:]
        )
    return q1, untilquery(bodies[0], [(None, b) for b in bodies[1:]])


def test_tequiv_exact_against_reference_words():
    """Differential check of the exact oracle against words of up to three
    letters of `reference_letters`, each decided by `tentail`: a pair that
    some such word tells apart gets a witness, and every witness tells its
    pair apart by `tentail`. The words are enumerated only for pairs the
    oracle calls equivalent, since a witness already settles the first
    check; every fifth such pair takes domain queries up to size 3 into
    the alphabet, the others up to size 2."""
    rng = random.Random(160016)
    equivalent = separated = 0
    for case in range(400):
        onto = rand_ontology(rng, DIFF_SIG, DIALECTS[case % len(DIALECTS)], max_axioms=4)
        q1, q2 = _rand_pair(rng)
        if q1 == q2:
            continue
        w = tequiv_witness(onto, q1, q2)
        if w is not None:
            separated += 1
            assert tentail(onto, w, 0, q1) != tentail(onto, w, 0, q2), (case, str(q1), str(q2))
            continue
        domain_size = 3 if equivalent % 5 == 0 else 2
        equivalent += 1
        letters = [anchored(p, "x") for p in reference_letters(onto, q1, q2, domain_size)]
        for n in range(1, 4):
            for word in itertools.product(letters, repeat=n):
                d = tinstance(word, "a")
                assert tentail(onto, d, 0, q1) == tentail(onto, d, 0, q2), (case, str(q1), str(q2), str(d))
    assert equivalent >= 60 and separated >= 200, (equivalent, separated)


def test_check_unique_characterisation_direction():
    dia = pathquery_from_ops([TOP_QUERY, A], ["F"])
    from tomq.tempchar import characterise_dia

    E = characterise_dia(empty_ontology(signature(["A"])), dia, signature(["A"]))
    spec = EnumSpec(SIG_AB, "dia", size_bound=2, depth_bound=3)
    assert check_unique_characterisation(OE, dia, E, spec).passed
    # dropping the negatives lets weaker queries fit
    loose = example_set(E.positives, [])
    verdict = check_unique_characterisation(OE, dia, loose, spec)
    assert not verdict.passed
    assert verdict.witnesses


def test_witnesses_rechecked_by_direct_entailment():
    # any uniqueness witness reported must genuinely fit by the slow path
    from tomq.temporal.eval import fits

    dia = pathquery_from_ops([TOP_QUERY, A], ["F"])
    loose = example_set(
        [tinstance([instance(["a"]), instance(["a"], [("A", "a")])], "a")], []
    )
    spec = EnumSpec(SIG_AB, "dia", size_bound=2, depth_bound=2)
    verdict = check_unique_characterisation(OE, dia, loose, spec)
    assert not verdict.passed
    for w in verdict.witnesses:
        assert fits(OE, loose, w)


def test_matcher_disagreement_raises(monkeypatch):
    """A candidate the bitset pass says fits but the matcher refuses is an
    evaluator disagreement: the check raises instead of dropping it, which
    would turn the failing verdict above into a pass."""
    dia = pathquery_from_ops([TOP_QUERY, A], ["F"])
    loose = example_set(
        [tinstance([instance(["a"]), instance(["a"], [("A", "a")])], "a")], []
    )
    spec = EnumSpec(SIG_AB, "dia", size_bound=2, depth_bound=2)
    monkeypatch.setattr(verify, "_matcher_fits", lambda onto, held, q: q == dia)
    with pytest.raises(RuntimeError, match="disagree"):
        check_unique_characterisation(OE, dia, loose, spec)


FIT_CLASSES = ("dia", "nextdia", "until", "p", "elq", "eliq")
CLASH_AB = ontology([Disjoint(name_basic("A"), name_basic("B"))], DL_LITE_H, SIG_ABR)


def _rand_tinstance(rng):
    return tinstance([rand_instance(rng, SIG_ABR, 2, 4) for _ in range(rng.randint(1, 3))], "i0")


def _fitting_cases(qclass):
    """Seeded example sets for one class: random ones over the empty
    ontology and small random ones, a built set with half its negatives,
    a built `until` set and a built depth-mode set with all their examples,
    whose many later examples narrow the runs the first lets through, one
    with an inconsistent positive, one whose first consistent example is a
    negative and one with no consistent example."""
    rng = random.Random(4040 + FIT_CLASSES.index(qclass))
    cases = []
    for k in range(10):
        onto = OER if k % 2 else rand_ontology(rng, SIG_ABR, DIALECTS[k // 2 % len(DIALECTS)], 4)
        cases.append((onto, example_set(
            [_rand_tinstance(rng) for _ in range(rng.randint(1, 3))],
            [_rand_tinstance(rng) for _ in range(rng.randint(0, 3))],
        )))
    built = characterise_dia(OE, pathquery_from_ops([A, B], ["F"]), SIG_AB)
    cases.append((OE, example_set(built.positives, built.negatives[::2])))
    cases.append((OE, characterise_until(OE, untilquery(B, [(B, A), (None, B)]), SIG_AB)))
    depth = pathquery_from_ops([A, B, A], ["X", "F"])
    cases.append((OE, characterise_dia(OE, depth, SIG_AB, (MODE_DEPTH, 2))))
    clash = tinstance([instance(["a"], [("A", "a"), ("B", "a")])], "a")
    ok = [_rand_tinstance(rng) for _ in range(3)]
    cases.append((CLASH_AB, example_set([clash, ok[0]], ok[1:])))
    cases.append((CLASH_AB, example_set([clash], ok)))
    cases.append((CLASH_AB, example_set([clash], [])))
    return cases


@pytest.mark.parametrize("qclass", FIT_CLASSES)
def test_fitting_shapes_agree_with_the_reference_loop(qclass, monkeypatch):
    """The per-run pass of the uniqueness check yields the shapes of the
    entry-by-entry loop it replaced, in order, and asks the reasoner for
    the same number of certain answers, every table read from scratch."""
    calls = [0]
    certain_answer = Reasoner.certain_answer

    def counted(self, *args):
        calls[0] += 1
        return certain_answer(self, *args)

    monkeypatch.setattr(Reasoner, "certain_answer", counted)
    fitted = 0
    for onto, examples in _fitting_cases(qclass):
        spec = EnumSpec(SIG_ABR if qclass in ("elq", "eliq") else SIG_AB, qclass, 3, 2)
        domain, groups = verify.enum_shapes(spec)
        got = []
        for fitting in (reference_fitting_shapes, verify._fitting_shapes):
            tables = [
                (SliceTable(onto, d), want)
                for want, ds in ((True, examples.positives), (False, examples.negatives))
                for d in ds
            ]
            checks = [(verify._ExamplePass(t, domain), want) for t, want in tables if not t.unsat]
            calls[0] = 0
            got.append((list(fitting(groups, checks)), calls[0]))
        assert got[0] == got[1], (qclass, examples)
        fitted += len(got[0][0])
    assert fitted >= 5, fitted
