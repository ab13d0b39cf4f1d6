"""Temporal semantics, root homomorphisms, normal form, safety, gap blocks."""
import random

import pytest

from tomq.dl import (
    DL_LITE_H,
    ELHIF_NF,
    TOP_QUERY,
    ConjLhs,
    SubBasic,
    atom,
    conjoin,
    empty_ontology,
    instance,
    make_eliq,
    name_basic,
    ontology,
    signature,
)
from tomq.learn import gap_blocks
from tomq.temporal.eval import SequenceMatcher, tentail
from tomq.temporal.model import (
    TInstance,
    leq,
    less,
    pathquery,
    pathquery_from_ops,
    tinstance,
    untilquery,
)
from tomq.temporal.normal import (
    is_peerless,
    is_safe,
    normalize,
    until_truncate,
)

from helpers import rand_ontology, root_homs

A, B, D = atom("A"), atom("B"), atom("D")
SIG = signature(["A", "B", "D"])
OE = empty_ontology(SIG)
DIA_A = pathquery_from_ops([TOP_QUERY, A], ["F"])


def sl(*names):
    return instance(["a"], [(n, "a") for n in names])


def ti(*slices):
    return tinstance([sl(*s) for s in slices], "a")


def rand_ti(rng, n=None):
    n = n or rng.randint(1, 5)
    return ti(*[tuple(x for x in ("A", "B", "D") if rng.random() < 0.4) for _ in range(n)])


def test_tentail_strict_diamond():
    assert tentail(OE, ti((), ("A",)), 0, DIA_A)
    assert not tentail(OE, ti(("A",)), 0, DIA_A)


def test_tentail_through_ontology():
    Od = ontology([SubBasic(name_basic("D"), name_basic("A"))], DL_LITE_H, SIG)
    assert tentail(Od, ti((), ("D",)), 0, DIA_A)


def test_tentail_until():
    bua = untilquery(TOP_QUERY, [(B, A)])
    assert tentail(OE, ti((), ("B",), ("A",)), 0, bua)
    assert not tentail(OE, ti((), ("D",), ("A",)), 0, bua)


def test_tentail_unsatisfiable_slice_entails_everything():
    Ox = ontology([ConjLhs("A", "B", "bot")], ELHIF_NF, signature(["A", "B"]))
    d = tinstance([instance(["a"], [("A", "a"), ("B", "a")])], "a")
    assert tentail(Ox, d, 0, pathquery_from_ops([TOP_QUERY, atom("B")], ["X"]))


def test_root_homs_examples():
    assert [h.as_dict() for h in root_homs(OE, DIA_A, ti((), ("A",)))] == [
        {"t0": 0, "t1": 1}
    ]
    diar = pathquery_from_ops([TOP_QUERY, A], ["Fr"])
    assert [h.as_dict() for h in root_homs(OE, diar, ti(("A",)))] == [{"t0": 0, "t1": 0}]
    assert [h.as_dict() for h in root_homs(OE, DIA_A, ti((), (), ("A",)))] == [
        {"t0": 0, "t1": 2}
    ]


def test_root_homs_iff_tentail():
    rng = random.Random(3)
    for _ in range(500):
        k = rng.randint(0, 3)
        bodies = [make_eliq([n for n in ("A", "B") if rng.random() < 0.4]) for _ in range(k + 1)]
        ops = [rng.choice(["X", "F", "Fr"]) for _ in range(k)]
        q = pathquery_from_ops(bodies, ops)
        d = rand_ti(rng)
        assert bool(root_homs(OE, q, d)) == tentail(OE, d, 0, q)


def test_matcher_agrees_with_direct_evaluation():
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randint(0, 3)
        bodies = [make_eliq([n for n in ("A", "B") if rng.random() < 0.4]) for _ in range(k + 1)]
        ops = [rng.choice(["X", "F", "Fr"]) for _ in range(k)]
        q = pathquery_from_ops(bodies, ops)
        d = rand_ti(rng)
        assert SequenceMatcher(OE, q).run(d) == tentail(OE, d, 0, q)
    for _ in range(300):
        k = rng.randint(0, 3)
        head = make_eliq([n for n in ("A", "B") if rng.random() < 0.4])
        steps = [
            (
                None
                if rng.random() < 0.3
                else make_eliq([n for n in ("A", "B") if rng.random() < 0.5]),
                make_eliq([n for n in ("A", "B") if rng.random() < 0.5]),
            )
            for _ in range(k)
        ]
        q = untilquery(head, steps)
        d = rand_ti(rng)
        assert SequenceMatcher(OE, q).run(d) == tentail(OE, d, 0, q)


def test_operator_algebra():
    rng = random.Random(0)
    xfra = pathquery_from_ops([TOP_QUERY, TOP_QUERY, A], ["X", "Fr"])
    xa = pathquery_from_ops([TOP_QUERY, A], ["X"])
    botua = untilquery(TOP_QUERY, [(None, A)])
    for _ in range(200):
        d = rand_ti(rng)
        assert tentail(OE, d, 0, DIA_A) == tentail(OE, d, 0, xfra)
        assert tentail(OE, d, 0, botua) == tentail(OE, d, 0, xa)
        # next shifts the evaluation point
        assert tentail(OE, d, 0, xa) == tentail(OE, d, 1, A)


def test_entailment_constant_beyond_data():
    rng = random.Random(5)
    for _ in range(60):
        d = rand_ti(rng)
        q = pathquery_from_ops(
            [make_eliq([n for n in ("A", "B") if rng.random() < 0.4]) for _ in range(2)],
            [rng.choice(["X", "F", "Fr"])],
        )
        answers = {tentail(OE, d, d.max_time + k, q) for k in range(1, 4)}
        assert len(answers) == 1


def test_normalize_examples():
    # collapse of later followed by now-or-later
    q1 = pathquery_from_ops([A, TOP_QUERY, B], ["F", "Fr"])
    assert normalize(OE, q1) == pathquery_from_ops([A, B], ["F"])
    # the worked simplification: F(A & Fr D) becomes F D under the algebra
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
    q2 = pathquery([[TOP_QUERY], [A], [D]], [less(1), leq()])
    assert normalize(Op, q2) == pathquery([[TOP_QUERY], [D]], [less(1)])
    # idempotence on an already-normal query
    q3 = pathquery_from_ops([A, B], ["F"])
    assert normalize(OE, q3) == q3


def test_normalize_preserves_entailment_and_shrinks():
    rng = random.Random(17)
    sig = signature(["A", "B"])
    for _ in range(100):
        O = rand_ontology(rng, sig, ELHIF_NF, max_axioms=3)
        k = rng.randint(0, 3)
        bodies = [make_eliq([n for n in ("A", "B") if rng.random() < 0.5]) for _ in range(k + 1)]
        ops = [rng.choice(["X", "F", "Fr"]) for _ in range(k)]
        q = pathquery_from_ops(bodies, ops)
        nq = normalize(O, q)
        assert nq.size <= q.size
        assert nq.tdp <= q.tdp
        for _ in range(20):
            d = rand_ti(rng)
            assert tentail(O, d, 0, q) == tentail(O, d, 0, nq)


def test_is_safe():
    assert is_safe(OE, DIA_A) is True
    alg = ontology(
        [ConjLhs("A", "Top", "B"), ConjLhs("A", "Top", "C"), ConjLhs("B", "C", "A")],
        ELHIF_NF,
        signature(["A", "B", "C"]),
    )
    assert is_safe(alg, pathquery_from_ops([TOP_QUERY, atom("A")], ["F"])) is False
    assert is_safe(OE, pathquery_from_ops([TOP_QUERY, conjoin(A, B)], ["X"])) is True


def test_is_peerless():
    assert is_peerless(OE, untilquery(TOP_QUERY, [(None, A)]))
    assert not is_peerless(OE, untilquery(TOP_QUERY, [(A, A)]))
    assert is_peerless(OE, untilquery(TOP_QUERY, [(B, A)]))


def test_until_truncate():
    q = untilquery(TOP_QUERY, [(B, A), (A, B)])
    t1 = until_truncate(q, 1)
    assert t1.steps[0][0] is None and t1.steps[1][0] == A
    t2 = until_truncate(q, 2)
    assert all(f is None for f, _ in t2.steps)


def test_gap_blocks():
    def shapes(*slices, b):
        return [[sorted(s.names_at("a")) for s in blk] for blk in gap_blocks([sl(*x) for x in slices], b)]

    assert shapes((), (), (), ("A",), b=2) == [[[]], [["A"]]]
    assert shapes(("A",), (), (), (), ("B",), ("A",), b=3) == [[["A"]], [["B"], ["A"]]]
    # runs shorter than the gap stay inside the one block
    assert shapes((), ("A",), (), ("B",), b=2) == [[[], ["A"], [], ["B"]]]
    assert shapes(("A",), (), (), (), ("B",), b=2) == [[["A"]], [["B"]]]
    # an emptied border: the empty slices at the end are dropped
    assert shapes(("A",), (), (), ("B",), (), b=2) == [[["A"]], [["B"]]]
    # with every slice emptied, one empty block is left
    assert shapes((), (), b=1) == [[[]]]
