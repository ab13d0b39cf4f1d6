"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1b and 4b re-check the two worked objects of the paper verbatim and
assert what they actually satisfy, each verdict confirmed without the
verifier that gave it:

- 1b: the published diamond example set characterises ``F A`` uniquely among
  next/later queries (class ``nextdia``), but not in class ``dia``, where the
  now-or-later query ``Fr A`` fits it too; the one-slice instance ({A})
  tells the two apart. Adding that instance as a negative makes the set
  unique in ``dia`` as well.
- 4b: the drawn count-2 pair is not a split-partner of ``A & B``, because its
  second member entails ``A & B`` at the point; an independent completion
  reasoner confirms the entailment.

Which query class the published set was claimed for, and whether the drawn
pair was transcribed as the paper meant it, is not settled by ``PAPER.md``
(it holds only the abstract).
"""
import random
import sys
import time

import pytest

from tomq.cli import main
from tomq.dl import (
    DL_LITE_F,
    DL_LITE_H,
    ELHIF_NF,
    Pointed,
    Role,
    TOP_QUERY,
    atom,
    conjoin,
    empty_ontology,
    exists,
    instance,
    ontology,
    reasoner,
    signature,
)
from tomq.dl.model import ConjLhs, ExistsLhs, ExistsRhs, Func
from tomq.dl.reason import general_hom_exists, hom_exists
from tomq.domainchar import frontier, split_partner
from tomq.errors import BudgetExceeded, UnsupportedDialect
from tomq.learn import Learner, LearnerConfig, Teacher
from tomq.tempchar import characterise_dia, characterise_until, tagged_from_queries
from tomq.temporal.eval import fits, tentail
from tomq.temporal.model import (
    example_set,
    pathquery_from_ops,
    tinstance,
    untilquery,
)
from tomq.temporal.normal import is_safe, normalize
from tomq.textio import parse_exampleset, parse_pathquery
from tomq.verify import (
    EnumSpec,
    check_frontier,
    check_split_partner,
    check_unique_characterisation,
    tequiv_bounded,
    tequiv_witness,
)

sys.path.insert(0, "tests")
from helpers import frontier_candidates, rand_eliq, rand_instance, rand_ontology
from test_reasoner_oracle import Completion

A, B = atom("A"), atom("B")
R = Role("R")

EL_LOOP = ontology(
    [ExistsRhs("A", R, "A"), ExistsLhs(R, "A", "A")],
    ELHIF_NF,
    signature(["A", "B"], ["R"]),
)
ALGEBRA = ontology(
    [ConjLhs("A", "Top", "B"), ConjLhs("A", "Top", "C"), ConjLhs("B", "C", "A")],
    ELHIF_NF,
    signature(["A", "B", "C"]),
)
DIA_A = pathquery_from_ops([TOP_QUERY, A], ["F"])


def _report(criterion: str, ok: bool, elapsed: float, note: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({note})" if note else ""
    print(f"ACCEPTANCE {criterion}: {status} in {elapsed:.1f}s{extra}")


def sl(*names):
    return instance(["a"], [(n, "a") for n in names])


def ti(*slices):
    return tinstance([sl(*s) for s in slices], "a")


def test_acceptance_1_diamond_characterisation(tmp_path):
    t0 = time.time()
    onto_f = tmp_path / "o.onto"
    onto_f.write_text("dialect: dl-lite-h\nconcepts: A\n")
    query_f = tmp_path / "q.q"
    query_f.write_text("F A\n")
    out_f = tmp_path / "E.txt"
    code = main(
        [
            "characterise",
            "--ontology",
            str(onto_f),
            "--query",
            str(query_f),
            "--sigma",
            "A",
            "--mode",
            "safe",
            "--out",
            str(out_f),
        ]
    )
    assert code == 0
    E = parse_exampleset(out_f.read_text())
    Oe = empty_ontology(signature(["A", "B"]))
    assert fits(Oe, E, DIA_A)
    spec = EnumSpec(signature(["A", "B"]), "dia", size_bound=2, depth_bound=3)
    verdict = check_unique_characterisation(Oe, DIA_A, E, spec)
    ok = verdict.passed and time.time() - t0 < 30
    _report("1", ok, time.time() - t0)
    assert verdict.passed, [w._key for w in verdict.witnesses][:3]
    assert time.time() - t0 < 30


def test_acceptance_1b_published_example_set():
    # E+ = { (empty,{A}), (empty,empty,{A}) }, E- = { (empty) } as published.
    # It is unique for F A among next/later queries; class dia also enumerates
    # now-or-later, and Fr A fits the set as well (it differs from F A on the
    # one-slice instance ({A})). Adding ({A}) as a negative restores
    # uniqueness in dia. Which class the paper meant is not settled by PAPER.md.
    t0 = time.time()
    sig = signature(["A", "B"])
    Oe = empty_ontology(sig)
    published = example_set([ti((), ("A",)), ti((), (), ("A",))], [ti(())])
    assert fits(Oe, published, DIA_A)

    nextdia = EnumSpec(sig, "nextdia", size_bound=2, depth_bound=3)
    in_nextdia = check_unique_characterisation(Oe, DIA_A, published, nextdia)
    assert in_nextdia.passed, [w._key for w in in_nextdia.witnesses][:3]

    dia = EnumSpec(sig, "dia", size_bound=2, depth_bound=3)
    in_dia = check_unique_characterisation(Oe, DIA_A, published, dia)
    assert not in_dia.passed
    now_or_later = parse_pathquery("Fr A")
    assert now_or_later in in_dia.witnesses
    lone_a = ti(("A",))
    assert tentail(Oe, lone_a, 0, now_or_later) and not tentail(Oe, lone_a, 0, DIA_A)
    for w in in_dia.witnesses:
        assert fits(Oe, published, w), w._key
        d = tequiv_witness(Oe, w, DIA_A)
        assert d is not None, w._key
        assert tentail(Oe, d, 0, w) != tentail(Oe, d, 0, DIA_A), w._key

    extended = example_set(list(published.positives), list(published.negatives) + [lone_a])
    in_dia_extended = check_unique_characterisation(Oe, DIA_A, extended, dia)
    assert in_dia_extended.passed, [w._key for w in in_dia_extended.witnesses][:3]
    _report("1b", True, time.time() - t0, "unique in nextdia; Fr A also fits in dia")


def test_acceptance_2_safety_gate(tmp_path):
    t0 = time.time()
    assert is_safe(empty_ontology(signature(["A"])), DIA_A) is True
    assert is_safe(ALGEBRA, DIA_A) is False

    alg_f = tmp_path / "alg.onto"
    alg_f.write_text(
        "dialect: elhif-nf\nconcepts: A,B,C\nA & Top [= B\nA & Top [= C\nB & C [= A\n"
    )
    query_f = tmp_path / "q.q"
    query_f.write_text("F A\n")
    assert (
        main(
            [
                "characterise",
                "--ontology",
                str(alg_f),
                "--query",
                str(query_f),
                "--sigma",
                "A,B,C",
                "--mode",
                "safe",
            ]
        )
        == 1
    )
    out_f = tmp_path / "E.txt"
    assert (
        main(
            [
                "characterise",
                "--ontology",
                str(alg_f),
                "--query",
                str(query_f),
                "--sigma",
                "A,B,C",
                "--mode",
                "depth=1",
                "--out",
                str(out_f),
            ]
        )
        == 0
    )
    E = parse_exampleset(out_f.read_text())
    sig = signature(["A", "B", "C"])
    spec = EnumSpec(sig, "dia", size_bound=3, depth_bound=1)
    verdict = check_unique_characterisation(ALGEBRA, DIA_A, E, spec)
    ok = verdict.passed and time.time() - t0 < 60
    _report("2", ok, time.time() - t0)
    assert verdict.passed, [w._key for w in verdict.witnesses][:3]
    assert time.time() - t0 < 60


def test_acceptance_3_until_example():
    t0 = time.time()
    sig = signature(["A", "B"])
    Oe = empty_ontology(sig)
    q = untilquery(TOP_QUERY, [(None, A)])
    E = characterise_until(Oe, q, sig)

    def shape(d):
        return tuple("".join(sorted(set(n for n, _ in s.catoms))) for s in d.slices)

    assert ("", "A") in {shape(d) for d in E.positives}
    assert ("", "B", "A") in {shape(d) for d in E.negatives}
    spec = EnumSpec(sig, "until", size_bound=2, depth_bound=2)
    verdict = check_unique_characterisation(Oe, q, E, spec)
    ok = verdict.passed and time.time() - t0 < 30
    _report("3", ok, time.time() - t0)
    assert verdict.passed, [w._key for w in verdict.witnesses][:3]
    assert time.time() - t0 < 30


COUNT2_LITERAL = [
    Pointed(
        instance(
            ["a", "b"],
            [("A", "a"), ("A", "b"), ("B", "b")],
            [("R", "a", "b"), ("R", "b", "a"), ("R", "b", "b")],
        ),
        "a",
    ),
    Pointed(
        instance(
            ["a", "b"],
            [("B", "a"), ("A", "b"), ("B", "b")],
            [("R", "a", "b"), ("R", "b", "a"), ("R", "b", "b")],
        ),
        "a",
    ),
]

# same pair with the second instance's stray arrow turned into a loop at the
# point; this variant does satisfy the definition
COUNT2_REPAIRED = [
    COUNT2_LITERAL[0],
    Pointed(
        instance(
            ["a", "b"],
            [("B", "a"), ("A", "b"), ("B", "b")],
            [("R", "a", "a"), ("R", "b", "a"), ("R", "b", "b")],
        ),
        "a",
    ),
]


def test_acceptance_4_split_partner_fidelity():
    t0 = time.time()
    sig = signature(["A", "B"], ["R"])
    q = conjoin(A, B)
    spec = EnumSpec(sig, "eliq", size_bound=6)
    generated = split_partner(EL_LOOP, sig, [q])
    assert check_split_partner(EL_LOOP, sig, [q], generated.members, spec).passed
    assert check_split_partner(EL_LOOP, sig, [q], COUNT2_REPAIRED, spec).passed

    # bottom split-partners from the worked examples
    from tomq.dl import BOTTOM_QUERY, Disjoint, SubBasic, name_basic

    sig_ab = signature(["A", "B"])
    O2 = ontology([Disjoint(name_basic("A"), name_basic("B"))], DL_LITE_H, sig_ab)
    s2 = split_partner(O2, sig_ab, [BOTTOM_QUERY])
    assert check_split_partner(O2, sig_ab, [BOTTOM_QUERY], s2.members, EnumSpec(sig_ab, "p", 4)).passed
    O1 = ontology([SubBasic(name_basic("A"), name_basic("B"))], DL_LITE_H, sig)
    s1 = split_partner(O1, sig, [BOTTOM_QUERY])
    assert check_split_partner(O1, sig, [BOTTOM_QUERY], s1.members, EnumSpec(sig, "eliq", 5)).passed
    ok = time.time() - t0 < 120
    _report("4", ok, time.time() - t0)
    assert ok


def test_acceptance_4b_count2_pair_verbatim():
    # The pair exactly as drawn is not a split-partner of A & B: R(a,b) and
    # A(b) give A(a) through ex R.A [= A, so the second member entails A & B
    # at the point, and every witness implies the target. Whether the figure
    # was transcribed as meant is not settled by PAPER.md; COUNT2_REPAIRED,
    # checked in test 4, is the variant that passes.
    t0 = time.time()
    sig = signature(["A", "B"], ["R"])
    q = conjoin(A, B)
    spec = EnumSpec(sig, "eliq", size_bound=6)
    verdict = check_split_partner(EL_LOOP, sig, [q], COUNT2_LITERAL, spec)
    assert not verdict.passed
    assert q in verdict.witnesses
    r = reasoner(EL_LOOP)
    for w in verdict.witnesses:
        assert r.contains(w, q), w._key

    oracle = Completion(EL_LOOP)
    assert [oracle.certain(p.instance, p.point, q) for p in COUNT2_LITERAL] == [False, True]
    assert [oracle.certain(p.instance, p.point, q) for p in COUNT2_REPAIRED] == [False, False]
    _report("4b", True, time.time() - t0, "verbatim pair entails its own query")


def test_acceptance_5_frontier_negative_probe():
    t0 = time.time()
    q = conjoin(A, B)
    assert frontier(EL_LOOP, q, "eliq", 6) is None

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
        rnm(n, m) for n in range(2, 8) for m in range(1, n)
    ]
    r = reasoner(EL_LOOP)
    for members in frontier_candidates(EL_LOOP, q, "eliq", 6):
        hits = [
            w
            for w in family
            if r.contains(q, w)
            and not r.contains(w, q)
            and not any(r.contains(m, w) for m in members)
        ]
        assert hits, f"candidate set of {len(members)} members not refuted by the family"
    ok = time.time() - t0 < 120
    _report("5", ok, time.time() - t0)
    assert ok


def test_acceptance_6_frontier_zigzag_sanity():
    t0 = time.time()
    sig = signature(["A", "B"], ["R"])
    Oe = empty_ontology(sig)
    spec = EnumSpec(sig, "eliq", size_bound=6)
    verdict = check_frontier(Oe, exists(R, A), [exists(R)], spec)
    zig = exists(R, exists(R.inverse, exists(R, A)))
    assert not verdict.passed
    assert zig in [w for _, w in verdict.witnesses]
    assert check_frontier(Oe, A, [TOP_QUERY], spec).passed
    _report("6", True, time.time() - t0)


MEMBERSHIP_C = 0.25       # frozen from the corpus: observed max ratio 0.0625
QUERY_SIZE_C = 0.3        # frozen from the corpus: observed max ratio 0.070


def _gen_case(rng):
    names = ["A", "B", "C"][: rng.randint(1, 3)]
    roles = ["R", "S"][: rng.randint(0, 2)]
    sig = signature(names, roles)
    dialect = rng.choice([DL_LITE_H, ELHIF_NF])
    O = rand_ontology(rng, sig, dialect, max_axioms=6)
    k = rng.randint(0, 3)
    bodies = [rand_eliq(rng, sig, max_size=3) for _ in range(k + 1)]
    ops = [rng.choice(["X", "F", "Fr"]) for _ in range(k)]
    return sig, O, pathquery_from_ops(bodies, ops)


def test_acceptance_7_learner_roundtrip():
    t0 = time.time()
    rng = random.Random(20260809)
    runs = 0
    cases = 0
    draws = 0
    while cases < 25 and draws < 500:
        draws += 1
        sig, O, raw = _gen_case(rng)
        r = reasoner(O)
        if any(not r.query_satisfiable(body) for body in raw.bodies()):
            continue
        q = normalize(O, raw)
        if len(q.blocks) == 1 and len(q.blocks[0]) == 1 and r.trivial(q.blocks[0][0]):
            continue
        initial = tagged_from_queries(
            O, q.strict_count + 1, q.blocks, lambda x: None
        ).to_tinstance()
        measure = (q.size + len(O.axioms) + 1 + initial.size) ** 3
        variants = [("depth", q.tdp)]
        if is_safe(O, q, 5) is True:
            variants.insert(0, ("safe", None))
        if not q.has_leq():
            variants.append(("nextdia", None))
        results = []
        try:
            for variant, depth in variants:
                teacher = Teacher(O, q, budget=20000)
                config = LearnerConfig(
                    variant=variant, depth=depth, frontier_bound=5, budget=20000
                )
                learner = Learner(O, teacher, config)
                learned = learner.run(initial)
                assert tequiv_bounded(O, learned, q), (
                    variant,
                    learned._key,
                    q._key,
                    sorted(map(str, O.axioms)),
                )
                assert teacher.membership_count <= MEMBERSHIP_C * measure
                assert teacher.max_query_size <= QUERY_SIZE_C * measure
                assert learner.rule_a_commits <= MEMBERSHIP_C * measure
                counts = [n for _, _, n in teacher.transcript]
                assert counts == sorted(counts)
                results.append(teacher.membership_count)
        except UnsupportedDialect:
            # no verified frontier within the bound for some body: the
            # theorem's computable-frontier precondition fails, skip the draw
            continue
        runs += len(results)
        cases += 1
    elapsed = time.time() - t0
    ok = cases == 25 and elapsed < 300
    _report("7", ok, elapsed, f"{cases} cases, {runs} runs")
    assert cases == 25
    assert elapsed < 300


def test_acceptance_8_normal_form_properties():
    t0 = time.time()
    rng = random.Random(4711)
    sig = signature(["A", "B"])
    checked = 0
    for _ in range(200):
        O = rand_ontology(rng, sig, rng.choice([DL_LITE_H, ELHIF_NF]), max_axioms=4)
        k = rng.randint(0, 3)
        bodies = [
            conjoin_names(rng) for _ in range(k + 1)
        ]
        ops = [rng.choice(["X", "F", "Fr"]) for _ in range(k)]
        q = pathquery_from_ops(bodies, ops)
        nq = normalize(O, q)
        assert nq.size <= q.size
        assert nq.tdp <= q.tdp
        for _ in range(100):
            d = ti(*[tuple(x for x in ("A", "B") if rng.random() < 0.4) for _ in range(rng.randint(1, 4))])
            assert tentail(O, d, 0, q) == tentail(O, d, 0, nq)
        checked += 1
    assert checked == 200

    # the worked rewrite: F(A & Fr D) collapses to F D over the algebra
    sig4 = signature(["A", "B", "C", "D"])
    Op = ontology(
        [
            ConjLhs("A", "Top", "B"),
            ConjLhs("A", "Top", "C"),
            ConjLhs("B", "C", "A"),
            ConjLhs("D", "Top", "A"),
        ],
        ELHIF_NF,
        sig4,
    )
    from tomq.temporal.model import leq, less, pathquery

    got = normalize(Op, pathquery([[TOP_QUERY], [A], [atom("D")]], [less(1), leq()]))
    want = pathquery([[TOP_QUERY], [atom("D")]], [less(1)])
    assert got == want
    assert tequiv_bounded(Op, got, want)
    elapsed = time.time() - t0
    _report("8", elapsed < 60, elapsed)
    assert elapsed < 60


def conjoin_names(rng):
    from tomq.dl import make_eliq

    return make_eliq([n for n in ("A", "B") if rng.random() < 0.5])


def test_acceptance_9_reasoning_cross_check():
    t0 = time.time()
    rng = random.Random(99)
    sig = signature(["A", "B"], ["R", "S"])
    checked = 0
    while checked < 200:
        O = rand_ontology(rng, sig, rng.choice([DL_LITE_H, DL_LITE_F, ELHIF_NF]))
        q1, q2 = rand_eliq(rng, sig), rand_eliq(rng, sig)
        r = reasoner(O)
        if not r.query_satisfiable(q1):
            continue
        h = r.hat(q1)
        oracle = hom_exists(q2, r.chase(h.instance, q2.role_depth), h.point)
        deeper = hom_exists(q2, r.chase(h.instance, q2.role_depth + 2), h.point)
        assert r.contains(q1, q2) == oracle == deeper
        checked += 1

    # every hat admits a surjective homomorphic image of the induced instance
    from tomq.dl import induced_instance

    rng2 = random.Random(7)
    for _ in range(80):
        O = rand_ontology(rng2, sig, rng2.choice([DL_LITE_F, ELHIF_NF]))
        q = rand_eliq(rng2, sig)
        if q.is_top:
            continue
        ind = induced_instance(q)
        h = reasoner(O).hat(q)
        assert general_hom_exists(ind.instance, ind.point, h.instance, h.point)
        assert h.instance.individuals <= ind.instance.individuals

    S = Role("S")
    Of = ontology([Func(S)], DL_LITE_F, signature(["A", "B"], ["S"]))
    assert reasoner(Of).contains(
        conjoin(exists(S, A), exists(S, B)), exists(S, conjoin(A, B))
    )
    elapsed = time.time() - t0
    _report("9", elapsed < 60, elapsed)
    assert elapsed < 60
