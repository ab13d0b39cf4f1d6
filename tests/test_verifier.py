"""Enumeration oracles: completeness counts, determinism, soundness."""
import itertools

import pytest

from helpers import enum_trees

from tomq.dl import (
    TOP_QUERY,
    Role,
    atom,
    conjoin,
    empty_ontology,
    exists,
    instance,
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
from tomq.textio import print_eliq
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


def test_enum_elq_has_no_inverses():
    got = enum_domain_queries(signature(["A"], ["R"]), "elq", 3)
    assert all(not q.has_inverse() for q in got)
    assert exists(R, A) in got


ENUM_CONCEPTS = ([], ["A"], ["A", "B"], ["A", "B", "C"])
ENUM_ROLES = ([], ["R"], ["R", "S"])


@pytest.mark.parametrize("qclass", ["eliq", "elq"])
def test_enum_trees_agree_with_reference(qclass):
    """The one-pass enumerator gives the reference's trees, equal and in the
    same key order, for every signature and bound listed."""
    inverses = qclass != "elq"
    checked = 0
    for concepts in ENUM_CONCEPTS:
        for roles in ENUM_ROLES:
            if not concepts and not roles:
                continue
            sig = signature(concepts, roles)
            for bound in range(6):
                got = verify._enum_trees(sig, bound, inverses)
                want = enum_trees(sig, bound, inverses)
                assert got == want, (concepts, roles, bound)
                assert [q._key for q in got] == [q._key for q in want], (concepts, roles, bound)
                checked += len(want)
    assert checked == {"eliq": 17047, "elq": 2691}[qclass]


@pytest.mark.parametrize("qclass", ["eliq", "elq"])
def test_cli_enumerate_lists_the_reference_trees(qclass, capsys):
    assert main(["enumerate", "--sigma", "A,B,R", "--roles", "R", "--class", qclass, "--bound", "4"]) == 0
    want = enum_trees(SIG_ABR, 4, qclass != "elq")
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
    assert tequiv_bounded(OE, dia, xfr, 8)
    w = tequiv_witness(OE, dia, diar, 8)
    assert w is not None and w.max_time == 0
    assert sorted(w.slices[0].catoms) == [("A", "a")]
    botua = untilquery(TOP_QUERY, [(None, A)])
    xa = pathquery_from_ops([TOP_QUERY, A], ["X"])
    assert tequiv_bounded(OE, botua, xa, 8)


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
    assert tequiv_bounded(Op, lhs, rhs, 8)


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
