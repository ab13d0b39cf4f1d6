"""Property-based invariants over randomly drawn ontologies, instances and
queries."""
import hypothesis.strategies as st
from hypothesis import given, settings

from tomq.dl import (
    DL_LITE_F,
    DL_LITE_H,
    ELHIF_NF,
    Instance,
    Role,
    conjoin,
    empty_ontology,
    instance_to_eliq,
    make_eliq,
    reasoner,
    signature,
)
from tomq.errors import NotTreeShaped
from tomq.temporal.eval import SequenceMatcher, tentail
from tomq.temporal.model import pathquery_from_ops, tinstance, untilquery
from tomq.temporal.normal import normalize
from tomq.textio import (
    parse_eliq,
    parse_pathquery,
    parse_tinstance,
    parse_untilquery,
    print_eliq,
    print_pathquery,
    print_tinstance,
    print_untilquery,
)

SIG = signature(["A", "B"], ["R"])
SIG_P = signature(["A", "B"])

names = st.sets(st.sampled_from(["A", "B"]), max_size=2)
roles = st.builds(Role, st.just("R"), st.booleans())


@st.composite
def eliqs(draw, depth=2):
    base = st.builds(lambda ns: make_eliq(sorted(ns)), names)
    if depth == 0:
        return draw(base)
    q = draw(base)
    for _ in range(draw(st.integers(0, 2))):
        child = draw(eliqs(depth=depth - 1))
        q = conjoin(q, make_eliq(edges=[(draw(roles), child)]))
    return q


@st.composite
def instances(draw):
    inds = [f"i{k}" for k in range(draw(st.integers(1, 3)))]
    cat = draw(
        st.lists(
            st.tuples(st.sampled_from(["A", "B"]), st.sampled_from(inds)), max_size=5
        )
    )
    rat = draw(
        st.lists(
            st.tuples(st.just("R"), st.sampled_from(inds), st.sampled_from(inds)),
            max_size=4,
        )
    )
    return Instance(frozenset(inds), frozenset(cat), frozenset(rat))


@st.composite
def dl_lite_h_ontologies(draw):
    from tomq.dl import Disjoint, RoleSub, SubBasic, exists_basic, name_basic

    basics = st.one_of(
        st.builds(name_basic, st.sampled_from(["A", "B"])),
        st.builds(exists_basic, roles),
    )
    axioms = draw(
        st.lists(
            st.one_of(
                st.builds(SubBasic, basics, basics),
                st.builds(Disjoint, basics, basics),
                st.builds(RoleSub, roles, roles),
            ),
            max_size=4,
        )
    )
    from tomq.dl import Ontology

    return Ontology(SIG, frozenset(axioms), DL_LITE_H)


@st.composite
def pathqueries(draw):
    k = draw(st.integers(0, 3))
    bodies = [make_eliq(sorted(draw(names))) for _ in range(k + 1)]
    ops = [draw(st.sampled_from(["X", "F", "Fr"])) for _ in range(k)]
    return pathquery_from_ops(bodies, ops)


@st.composite
def tinstances(draw):
    n = draw(st.integers(1, 4))
    slices = []
    for _ in range(n):
        cat = frozenset((nm, "a") for nm in draw(names))
        slices.append(Instance(frozenset(("a",)), cat, frozenset()))
    return tinstance(slices, "a")


@given(dl_lite_h_ontologies(), instances())
def test_saturate_idempotent(onto, inst):
    r = reasoner(onto)
    sat = r.saturate(inst)
    if not sat.consistent:
        return
    out = sat.instance(inst)
    again = r.saturate(out)
    assert again.consistent
    assert again.instance(out) == out


@given(dl_lite_h_ontologies(), eliqs(), eliqs())
def test_containment_is_a_preorder_sample(onto, q1, q2):
    r = reasoner(onto)
    assert r.contains(q1, q1)
    both = conjoin(q1, q2)
    assert r.contains(both, q1) and r.contains(both, q2)


@given(dl_lite_h_ontologies(), eliqs(), eliqs(), eliqs())
def test_containment_transitive_sample(onto, q1, q2, q3):
    r = reasoner(onto)
    if r.contains(q1, q2) and r.contains(q2, q3):
        assert r.contains(q1, q3)


@given(eliqs())
def test_induced_instance_reads_back(q):
    from tomq.dl import induced_instance

    pointed = induced_instance(q)
    try:
        back = instance_to_eliq(pointed.instance, pointed.point)
    except NotTreeShaped:
        return  # conjoined duplicate edges can merge shapes; skip those
    Oe = empty_ontology(SIG)
    assert reasoner(Oe).equivalent(q, back)


@given(pathqueries(), tinstances())
def test_matcher_matches_evaluator(q, d):
    Oe = empty_ontology(SIG_P)
    assert SequenceMatcher(Oe, q).run(d) == tentail(Oe, d, 0, q)


@given(pathqueries())
def test_normalize_idempotent(q):
    Oe = empty_ontology(SIG_P)
    once = normalize(Oe, q)
    assert normalize(Oe, once) == once
    assert once.size <= q.size and once.tdp <= q.tdp


@given(pathqueries(), tinstances())
def test_normalize_preserves_entailment(q, d):
    Oe = empty_ontology(SIG_P)
    assert tentail(Oe, d, 0, q) == tentail(Oe, d, 0, normalize(Oe, q))


@given(eliqs())
def test_eliq_print_parse_roundtrip(q):
    assert parse_eliq(print_eliq(q)) == q


@given(pathqueries())
def test_pathquery_print_parse_roundtrip(q):
    assert parse_pathquery(print_pathquery(q)) == q


@given(st.lists(st.tuples(st.one_of(st.none(), eliqs(depth=0)), eliqs(depth=0)), max_size=2))
def test_untilquery_print_parse_roundtrip(steps):
    q = untilquery(make_eliq(["A"]), steps)
    assert parse_untilquery(print_untilquery(q)) == q


@given(tinstances())
def test_tinstance_print_parse_roundtrip(d):
    assert parse_tinstance(print_tinstance(d))._key == d._key
