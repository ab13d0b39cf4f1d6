"""What the reasoning caches keep, and that what they drop costs no answer.

The registry `reasoner(onto)` holds at most REASONER_CACHE_SIZE reasoners; an
evicted ontology gets a fresh reasoner, with a fresh reasoner's answers, and a
`SliceTable` keeps answering with the reasoner it was built with. The
consistency sweep of a `SliceTable` keeps no saturation of a slice, since
only the point's component is chased afterwards. `split_partner` is
memoised up to its bound until `clear_split_partner_cache`. A `TInstance`
and an `Eliq` cache their hashes and are pickled without them, and an
`Instance` or `Pointed` is pickled without its memos.
"""
import gc
import os
import pickle
import random
import subprocess
import sys
import weakref
from pathlib import Path

import tomq

from tomq.dl import (
    DIALECTS,
    DL_LITE_H,
    Disjoint,
    Pointed,
    Reasoner,
    anchored,
    clear_reasoners,
    empty_ontology,
    instance,
    name_basic,
    ontology,
    point_component,
    reasoner,
    signature,
)
from tomq.dl import reason
from tomq import domainchar
from tomq.domainchar import clear_split_partner_cache, split_partner
from tomq.temporal.eval import SliceTable, clear_slice_tables, slice_table, tentail
from tomq.temporal.model import pathquery_from_ops, tinstance
from tomq.textio import parse_eliq

from helpers import rand_eliq, rand_instance, rand_ontology

SIG = signature(["A", "B"], ["R"])


def test_registry_holds_at_most_its_bound_and_answers_as_fresh_reasoners():
    rng = random.Random(3031)
    ontos = []
    while len(ontos) < reason.REASONER_CACHE_SIZE + 24:
        onto = rand_ontology(rng, SIG, DIALECTS[len(ontos) % len(DIALECTS)], max_axioms=4)
        if onto not in ontos:
            ontos.append(onto)
    qs = [rand_eliq(rng, SIG, max_size=3) for _ in range(6)]
    pairs = [(q1, q2) for q1 in qs for q2 in qs]
    inst = rand_instance(rng, SIG, max_inds=3, max_atoms=5)
    point = min(inst.individuals)
    dinst = tinstance([inst, rand_instance(rng, SIG, max_inds=3, max_atoms=5)], point)
    path = pathquery_from_ops(qs[:2], ["F"])

    def answers(r: Reasoner) -> tuple:
        return (
            tuple(r.contains(q1, q2) for q1, q2 in pairs),
            tuple(r.certain_answer(inst, point, q) for q in qs),
        )

    want = [answers(Reasoner(onto)) for onto in ontos]
    clear_reasoners()
    clear_slice_tables()
    first = reasoner(ontos[0])
    table = slice_table(ontos[0], dinst)
    assert table.r is first
    entails = tentail(ontos[0], dinst, 0, path)
    for _ in range(2):  # the second pass finds the first ontologies evicted
        for onto, expected in zip(ontos, want):
            assert answers(reasoner(onto)) == expected
            assert reason._reasoners.cache_info().currsize <= reason.REASONER_CACHE_SIZE
    assert reason._reasoners.cache_info().currsize == reason.REASONER_CACHE_SIZE
    assert reasoner(ontos[0]) is not first  # evicted, then built anew
    # the memoised table keeps its own reasoner and its answers
    assert slice_table(ontos[0], dinst) is table and table.r is first
    assert tentail(ontos[0], dinst, 0, path) == entails
    clear_reasoners()
    assert reason._reasoners.cache_info().currsize == 0


def test_empty_ontologies_share_a_reasoner_and_are_not_kept():
    """Equal empty ontologies share one reasoner through the value-keyed
    registry, and once it is cleared nothing keeps them alive."""
    sig = signature(["A", "C"], ["S"])
    assert reasoner(empty_ontology(sig)) is reasoner(empty_ontology(sig))
    kept = weakref.ref(empty_ontology(sig))
    clear_reasoners()
    gc.collect()
    assert kept() is None


def test_split_partner_is_memoised_until_cleared():
    """Two calls on one (ontology, signature, queries) key share one result,
    a list and a tuple of the queries alike; `clear_split_partner_cache`
    forgets it, and the next call builds a value-equal one."""
    onto, sig = empty_ontology(SIG), signature(["A", "B"])
    a = parse_eliq("A & B")
    clear_split_partner_cache()
    first = split_partner(onto, sig, [a])
    assert split_partner(onto, sig, (a,)) is first
    assert domainchar._split_partner_cached.cache_info().maxsize == domainchar.SPLIT_PARTNER_CACHE_SIZE
    clear_split_partner_cache()
    again = split_partner(onto, sig, [a])
    assert again == first and again is not first


def test_consistency_sweep_keeps_no_full_slice_saturation():
    """Under `Disjoint` the sweep decides every slice by saturation; slices
    of several components are then read through the point's component, so
    no saturation of a full slice is kept."""
    onto = ontology([Disjoint(name_basic("A"), name_basic("B"))], DL_LITE_H, SIG)
    slices = [
        instance(["a", "b", "c"], [("A", "a"), ("A", "c")], [("R", "a", "b")]),
        instance(["a", "b", "c"], [("B", "b"), ("A", "c")], [("R", "b", "c")]),
        instance(["a", "b", "c"], [("A", "a"), ("B", "b")]),
    ]
    dinst = tinstance(slices, "a")
    assert all(point_component(s, "a") != s for s in dinst.slices)
    table = SliceTable(onto, dinst)
    r = table.r
    assert not table.unsat
    assert not any(s in r._sat_cache for s in dinst.slices)
    for q in ("A", "ex R.Top", "ex R.B"):
        table.bits(parse_eliq(q))
    assert not any(s in r._sat_cache for s in dinst.slices)
    assert point_component(dinst.slices[0], "a") in r._sat_cache
    # an inconsistent slice still makes the table unsat
    clash = instance(["a", "b"], [("A", "b"), ("B", "b")])
    assert SliceTable(onto, tinstance([slices[0], clash], "a")).unsat
    assert clash not in r._sat_cache


def test_tinstance_hash_is_cached_and_not_pickled():
    slices = [instance(["a"], [("A", "a")]), instance(["a", "b"], [], [("R", "a", "b")])]
    d, e = tinstance(slices, "a"), tinstance(list(slices), "a")
    assert d == e and hash(d) == hash(e) == hash((d.slices, d.point))
    back = pickle.loads(pickle.dumps(d))
    assert back == d and "_hash" not in back.__dict__ and hash(back) == hash(d)


def _python(code: str, hashseed: int, stdin: bytes = b"") -> bytes:
    """The standard output of `code` run by a fresh interpreter under the
    given hash seed, with this checkout's tomq importable."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=str(Path(tomq.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, check=True)
    return done.stdout


def test_eliq_pickled_in_one_process_hashes_as_built_in_another():
    """An `Eliq` keeps the hash of its key, which string hashing makes
    differ between processes, so it is rebuilt on unpickling."""
    built = "from tomq.dl import Role, atom, exists; q = exists(Role('R'), atom('A'))"
    data = _python(f"import pickle, sys; {built}; sys.stdout.buffer.write(pickle.dumps(q))", 1)
    check = (f"import pickle, sys; {built}; back = pickle.loads(sys.stdin.buffer.read()); "
             "print(back == q, hash(back) == hash(q), back in {q})")
    assert _python(check, 2, data).split() == [b"True", b"True", b"True"]


def test_pickled_instances_and_pointed_carry_no_memo():
    p = Pointed(instance(["a", "b"], [("A", "a")], [("R", "a", "b")]), "a")
    inst = anchored(p, "s0_")
    padded = inst.with_individuals(["c"])
    assert inst._key and "_padded" in inst.__dict__ and "_anchored" in p.__dict__
    for obj in (p, inst, padded):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj)
        assert set(back.__dict__) == set(type(obj).__dataclass_fields__), back.__dict__.keys()
