"""The two shortcuts of temporal answering against the slow paths they skip.

`Reasoner.is_satisfiable` answers without saturating when no axiom of the
ontology can derive ⊥ and no data atom is `bot`; it must agree with
`saturate(inst).consistent`. A consistent `SliceTable` reasons over the
point's connected component of each slice only; its bits must agree with
the full-slice answer `not consistent or hom_exists(q, chase(s), point)`.
The uniqueness check holds one table per example for its whole run.
"""
import random

from tomq.dl import (
    BOT,
    DIALECTS,
    DL_LITE_F,
    DL_LITE_H,
    ELHIF_NF,
    Func,
    Instance,
    Reasoner,
    RoleSub,
    empty_ontology,
    hom_exists,
    point_component,
    reasoner,
    signature,
)
from tomq.tempchar import characterise_until
from tomq.temporal import eval as temporal_eval
from tomq.temporal.eval import SequenceMatcher, clear_slice_tables, slice_table, tentail
from tomq.temporal.model import tinstance
from tomq.textio import parse_eliq, parse_tinstance, parse_untilquery
from tomq.verify import EnumSpec, check_unique_characterisation

from helpers import rand_eliq, rand_instance, rand_ontology

SIG = signature(["A", "B", "C"], ["R", "S"])
MAX_AXIOMS = 5  # larger ELHIF-NF draws can hit the witness step that never ends


# ------------------------------------------------------------ bot data atoms

def test_bot_data_atom_makes_the_instance_inconsistent():
    """Over the empty ontology, which derives no ⊥, a `bot` data atom still
    makes its slice inconsistent, also in another component than the
    point's, so the instance entails every query."""
    onto = empty_ontology(signature(["A", "B"], ["R"]))
    r = reasoner(onto)
    clear_slice_tables()
    for text in ("t=0: bot(a)\npoint: a", "t=0: A(a), R(b,c), bot(c)\nt=1: B(a)\npoint: a"):
        dinst = parse_tinstance(text)
        assert not r.is_satisfiable(dinst.slices[0])
        assert r.is_satisfiable(dinst.slice_at(dinst.max_time + 1))
        table = slice_table(onto, dinst)
        assert table.unsat and table.slices[0] == dinst.slices[0]
        for q in ("B", "ex R.A", "A & B"):
            assert tentail(onto, dinst, 0, parse_eliq(q))
        q = parse_untilquery("A ; U[B] ex R.B")
        assert tentail(onto, dinst, 0, q)
        assert SequenceMatcher(onto, q).run(dinst)


# ------------------------------------------------------- satisfiability rule

def _with_bot(rng: random.Random, inst: Instance) -> Instance:
    """inst, with a `bot` atom on one of its individuals one time in eight."""
    if rng.random() >= 0.125:
        return inst
    a = rng.choice(sorted(inst.individuals))
    return Instance(inst.individuals, inst.catoms | {(BOT, a)}, inst.ratoms)


def test_is_satisfiable_agrees_with_saturation():
    seen = {"func": 0, "rolesub": 0, "inverse": 0, "no-clash": 0, "bot-data": 0}
    outcomes = set()
    for d, dialect in enumerate(DIALECTS):
        rng = random.Random(6301 + d)
        for _ in range(120):
            onto = rand_ontology(rng, SIG, dialect, max_axioms=MAX_AXIOMS)
            fast, slow = Reasoner(onto), Reasoner(onto)
            axioms = onto.axioms
            seen["func"] += any(isinstance(ax, Func) for ax in axioms)
            seen["rolesub"] += any(isinstance(ax, RoleSub) for ax in axioms)
            seen["inverse"] += "inverted=True" in repr(sorted(axioms, key=str))
            seen["no-clash"] += not fast._may_clash
            for _ in range(4):
                inst = _with_bot(rng, rand_instance(rng, SIG, max_inds=4, max_atoms=8))
                seen["bot-data"] += any(c == BOT for c, _ in inst.catoms)
                want = slow.saturate(inst).consistent
                assert fast.is_satisfiable(inst) == want, (dialect, sorted(map(str, axioms)), inst)
                outcomes.add((fast._may_clash, want))
    assert all(seen.values()), seen
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


# ------------------------------------------------------------ component rule

def _long_slices(rng: random.Random, inds: list[str], count: int) -> list[Instance]:
    """Random slices over 20 individuals, role atoms with distinct sources
    and distinct targets, as the benchmark's long instances draw them."""
    names, roles = sorted(SIG.concept_names), sorted(SIG.role_names)
    out = []
    for _ in range(count):
        nc, nr = rng.randint(0, 12), rng.randint(0, 12)
        cat = zip(rng.choices(names, k=nc), rng.choices(inds, k=nc))
        rat = zip(rng.choices(roles, k=nr), rng.sample(inds, nr), rng.sample(inds, nr))
        out.append(Instance(frozenset(inds), frozenset(cat), frozenset(rat)))
    return out


def _full_slice_bits(ref: Reasoner, dinst, q) -> int:
    bits = 0
    for j in range(dinst.max_time + 2):
        s = dinst.slice_at(j)
        if not ref.saturate(s).consistent or hom_exists(q, ref.chase(s, q.role_depth), dinst.point):
            bits |= 1 << j
    return bits


def test_component_bits_agree_with_full_slices():
    inds = [f"i{k}" for k in range(20)]
    clear_slice_tables()
    split = tables = unsat = 0
    for d, dialect in enumerate((DL_LITE_H, DL_LITE_F, ELHIF_NF)):
        rng = random.Random(7717 + d)
        for _ in range(25):
            onto = rand_ontology(rng, SIG, dialect, max_axioms=MAX_AXIOMS)
            dinst = tinstance(_long_slices(rng, inds, 3), inds[0])
            table = slice_table(onto, dinst)
            tables += 1
            unsat += table.unsat
            split += sum(
                len(point_component(s, dinst.point).individuals) < len(inds) for s in dinst.slices
            )
            ref = Reasoner(onto)
            for _ in range(4):
                q = rand_eliq(rng, SIG, max_size=4)
                assert table.bits(q) == _full_slice_bits(ref, dinst, q), (dialect, str(q))
    assert unsat < tables and split > tables  # most slices have several components


# ----------------------------------------------------- tables of one check

def test_uniqueness_check_builds_each_example_table_once():
    """A depth-2 until set of 570 examples, more than the `slice_table` memo
    holds: the check builds each example's table once."""
    onto = empty_ontology(signature(["A", "B", "C"], ["R"]))
    sig = signature(["A", "B", "C"])
    q = parse_untilquery("B & C ; U[bot] A & B ; U[A] B")
    examples = characterise_until(onto, q, sig)
    distinct = set(examples.positives) | set(examples.negatives)
    assert len(distinct) == 570 > temporal_eval.SLICE_TABLE_CACHE_SIZE
    built = []
    init = temporal_eval.SliceTable.__init__

    def counting_init(self, onto, dinst):
        built.append(dinst)
        init(self, onto, dinst)

    clear_slice_tables()
    temporal_eval.SliceTable.__init__ = counting_init
    try:
        verdict = check_unique_characterisation(onto, q, examples, EnumSpec(sig, "until", 1, 2, 1))
    finally:
        temporal_eval.SliceTable.__init__ = init
    assert verdict.passed
    of_examples = [d for d in built if d in distinct]
    assert len(of_examples) == len(set(of_examples)) == len(distinct)
