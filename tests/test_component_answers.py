"""The shortcuts of temporal answering against the slow paths they skip.

`Reasoner.is_satisfiable` answers without saturating when no axiom of the
ontology can derive ⊥ and no data atom is `bot`: from the data's
functional-role clashes when the ontology has `Func` and no role inclusion,
else outright. It must agree with `saturate(inst).consistent`, and role
inclusions under `Func` must still saturate. `saturate` reads unlinked
individuals by their names alone and must agree with one rule loop over
every individual; it caches a saturation exactly when role atoms link
every individual of its instance, or it has just one.
`certain_answer` reads a query without edges off the point's saturated
type; it must agree with `hom_exists(q, chase(inst, 0), point)`. A
consistent `SliceTable` reasons over the point's connected component of
each slice only; its bits must agree with the full-slice answer `not
consistent or hom_exists(q, chase(s), point)`. The uniqueness check holds
one table per example for its whole run.
"""
import random

from tomq.dl import (
    BOT,
    DIALECTS,
    DL_LITE_F,
    DL_LITE_F_MINUS,
    DL_LITE_H,
    ELHIF_NF,
    ExistsRhs,
    Func,
    Instance,
    Ontology,
    Reasoner,
    Role,
    RoleSub,
    TOP,
    empty_ontology,
    hom_exists,
    make_eliq,
    point_component,
    reasoner,
    signature,
)
from tomq.dl.reason import _func_clash
from tomq.errors import UnsupportedAxiom
from tomq.tempchar import characterise_until
from tomq.temporal import eval as temporal_eval
from tomq.temporal.eval import SequenceMatcher, clear_slice_tables, slice_table, tentail
from tomq.temporal.model import tinstance
from tomq.textio import parse_eliq, parse_tinstance, parse_untilquery
from tomq.verify import EnumSpec, check_unique_characterisation

from helpers import (
    rand_eliq,
    rand_instance,
    rand_long_slices,
    rand_ontology,
    rand_role,
    reference_saturation,
    successors,
)

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


def _path(r: Reasoner, inst: Instance) -> str:
    """Which way `is_satisfiable` decides inst: "saturate", from the "data"
    alone, or "none" when nothing can clash."""
    if r._bot_axioms or any(c == BOT for c, _ in inst.catoms):
        return "saturate"
    if not r.func_decl:
        return "none"
    return "saturate" if r._role_incl else "data"


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
            seen["no-clash"] += not (fast._bot_axioms or fast.func_decl)
            for _ in range(4):
                inst = _with_bot(rng, rand_instance(rng, SIG, max_inds=4, max_atoms=8))
                seen["bot-data"] += any(c == BOT for c, _ in inst.catoms)
                want = slow.saturate(inst).consistent
                assert fast.is_satisfiable(inst) == want, (dialect, sorted(map(str, axioms)), inst)
                outcomes.add((_path(fast, inst), want))
    assert all(seen.values()), seen
    assert outcomes == {
        ("saturate", True), ("saturate", False), ("data", True), ("data", False), ("none", True)
    }


def _func_no_rolesub(rng: random.Random, dialect: str) -> Ontology:
    """A random ontology of the dialect with its role inclusions dropped and
    one to three random `Func` axioms, forward or inverse, added."""
    onto = rand_ontology(rng, SIG, dialect, max_axioms=MAX_AXIOMS)
    axioms = {ax for ax in onto.axioms if not isinstance(ax, RoleSub)}
    axioms |= {Func(rand_role(rng, SIG)) for _ in range(rng.randint(1, 3))}
    try:
        return Ontology(SIG, frozenset(axioms), dialect)
    except UnsupportedAxiom:  # DL-Lite_F- forbids Func(R-) next to B [= ex R
        return _func_no_rolesub(rng, dialect)


def _dense_instance(rng: random.Random) -> Instance:
    """Up to ten role atoms over at most four individuals, self-loops
    allowed, a few concept atoms and sometimes a `bot` atom."""
    inds = [f"i{k}" for k in range(rng.randint(1, 4))]
    roles = sorted(SIG.role_names)
    rat = {(rng.choice(roles), rng.choice(inds), rng.choice(inds)) for _ in range(rng.randint(1, 10))}
    cat = {(rng.choice(sorted(SIG.concept_names)), rng.choice(inds)) for _ in range(rng.randint(0, 3))}
    return _with_bot(rng, Instance(frozenset(inds), frozenset(cat), frozenset(rat)))


def _clashes(inst: Instance, funcs) -> bool:
    """Has an individual of inst two successors along a role of `funcs`?"""
    return any(len(successors(inst, a, f)) > 1 for f in funcs for a in inst.individuals)


def test_data_rule_agrees_with_saturation_under_func():
    """DL-Lite_F, DL-Lite_F- and ELHIF-NF with `Func` and no role inclusion,
    on dense role data: the data rule against a separate reasoner's
    saturation, and on the data path both against successor counts taken
    from the instance itself, since the two share `_func_clash`."""
    counts = {(path, want): 0 for path in ("data", "saturate") for want in (True, False)}
    inverse_clashes = 0
    for d, dialect in enumerate((DL_LITE_F, DL_LITE_F_MINUS, ELHIF_NF)):
        rng = random.Random(4409 + d)
        for _ in range(60):
            onto = _func_no_rolesub(rng, dialect)
            fast, slow = Reasoner(onto), Reasoner(onto)
            assert not fast._role_incl
            for _ in range(6):
                inst = _dense_instance(rng)
                want = slow.saturate(inst).consistent
                assert fast.is_satisfiable(inst) == want, (dialect, sorted(map(str, onto.axioms)), inst)
                path = _path(fast, inst)
                counts[path, want] += 1
                if path == "data":
                    assert want == (not _clashes(inst, fast.func_decl))
                    forward = {f for f in fast.func_decl if not f.inverted}
                    inverse_clashes += not want and not _clashes(inst, forward)
    assert counts["data", True] >= 250 and counts["data", False] >= 220, counts
    assert counts["saturate", True] >= 70 and counts["saturate", False] >= 250, counts
    assert inverse_clashes >= 60


def test_role_inclusion_under_func_needs_saturation():
    """r [= f and r [= g with f, g functional: the obligation A [= ex r.Top
    is realised on a's f- and g-successors b and c, which gives a two
    f-successors. The data alone has no clash."""
    sig = signature(["A"], ["f", "g", "r"])
    f, g, r = Role("f"), Role("g"), Role("r")
    onto = Ontology(
        sig,
        frozenset({Func(f), Func(g), RoleSub(r, f), RoleSub(r, g), ExistsRhs("A", r, TOP)}),
        ELHIF_NF,
    )
    inst = Instance(
        frozenset("abc"), frozenset({("A", "a")}), frozenset({("f", "a", "b"), ("g", "a", "c")})
    )
    fast = Reasoner(onto)
    assert fast._role_incl and not _func_clash(fast._funcs, inst.ratoms)
    assert not Reasoner(onto).saturate(inst).consistent
    assert not fast.is_satisfiable(inst)


def test_verdict_only_check_reads_unlinked_individuals_by_their_names():
    """`saturate` steps only the individuals that role atoms link and reads
    every other one by its names, remembered per name set: against one rule
    loop over every individual on a separate reasoner, field by field and
    groups in order, where individuals share a name set and where a clash
    is on a lone individual or in the linked part. Where `is_satisfiable`
    saturates, it gives the same verdict. A saturation is cached exactly
    when its instance has one individual or role atoms link all of them."""
    seen = {(where, want): 0 for where in ("lone", "linked", "none") for want in (True, False)}
    stored = {"one": 0, "linked": 0, "slice": 0}
    shared = inconsistent = 0
    for d, dialect in enumerate(DIALECTS):
        rng = random.Random(7717 + d)
        for _ in range(150):
            onto = rand_ontology(rng, SIG, dialect, max_axioms=MAX_AXIOMS)
            fast, slow = Reasoner(onto), Reasoner(onto)
            for _ in range(6):
                inst = _with_bot(rng, rand_instance(rng, SIG, max_inds=6, max_atoms=8))
                ref = reference_saturation(slow, inst)
                want = ref.consistent
                where = (dialect, sorted(map(str, onto.axioms)), inst)
                saturating = _path(fast, inst) == "saturate"
                if saturating:
                    assert fast.is_satisfiable(inst) == want, where
                got = fast.saturate(inst)
                assert got.consistent == want, where
                if want:  # nothing reads the partial state of an inconsistent one
                    assert got.names == ref.names and got.edges == ref.edges, where
                    assert {a: list(gs) for a, gs in got.groups.items()} == ref.groups, where
                linked = {x for _, a, b in inst.ratoms for x in (a, b)}
                side = "slice" if linked < inst.individuals else "linked"
                if len(inst.individuals) == 1:
                    side = "one"
                assert (inst in fast._sat_cache) == (side != "slice"), where
                stored[side] += 1
                alone = [
                    Instance(frozenset((a,)), frozenset(x for x in inst.catoms if x[1] == a))
                    for a in inst.individuals - linked
                ]
                shared += len({frozenset(c for c, _ in one.catoms) for one in alone}) < len(alone)
                inconsistent += not want
                if saturating:
                    lone_clash = not all(reference_saturation(slow, one).consistent for one in alone)
                    seen["lone" if lone_clash else "linked" if linked else "none", want] += 1
    assert shared >= 1100 and inconsistent >= 850, (shared, inconsistent)
    assert stored["one"] >= 520 and stored["linked"] >= 660 and stored["slice"] >= 2000, stored
    assert seen["lone", False] >= 320 and seen["linked", False] >= 370, seen
    assert seen["linked", True] >= 280 and seen["none", True] >= 260, seen
    assert seen["lone", True] == seen["none", False] == 0, seen


# ------------------------------------------------------- name-only answers

def test_edge_free_answers_agree_with_the_depth_0_chase():
    """On consistent instances of every dialect, a query without edges holds
    at a point, also one the data gives no name, exactly when it maps into
    the chase to depth 0."""
    names = sorted(SIG.concept_names)
    seen = {(bare, want): 0 for bare in (True, False) for want in (True, False)}
    for d, dialect in enumerate(DIALECTS):
        rng = random.Random(5209 + d)
        for _ in range(120):
            onto = rand_ontology(rng, SIG, dialect, max_axioms=MAX_AXIOMS)
            fast, ref = Reasoner(onto), Reasoner(onto)
            for _ in range(3):
                inst = rand_instance(rng, SIG, max_inds=4, max_atoms=8)
                if not ref.saturate(inst).consistent:
                    continue
                chased = ref.chase(inst, 0)
                for point in sorted(inst.individuals):
                    bare = not any(a == point for _, a in inst.catoms)
                    for _ in range(3):
                        q = make_eliq(rng.sample(names, rng.randint(1, len(names))))
                        want = hom_exists(q, chased, point)
                        assert fast.certain_answer(inst, point, q) == want, (dialect, str(q), inst, point)
                        seen[bare, want] += 1
    assert seen[True, True] >= 50 and seen[True, False] >= 4000, seen  # names only derived
    assert seen[False, True] >= 1200 and seen[False, False] >= 2600, seen


# ------------------------------------------------------------ component rule

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
            dinst = tinstance(rand_long_slices(rng, SIG, inds, 3), inds[0])
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
