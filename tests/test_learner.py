"""Membership-query learner: teacher, steps, and full runs."""
import pytest

from tomq.dl import (
    DL_LITE_H,
    TOP_QUERY,
    Role,
    SubBasic,
    atom,
    conjoin,
    empty_instance,
    empty_ontology,
    exists,
    exists_basic,
    instance,
    name_basic,
    ontology,
    signature,
)
from tomq.errors import BudgetExceeded, NotPositiveInitialExample
from tomq.learn import (
    Learner,
    LearnerConfig,
    Teacher,
    saturate_names,
    unwind_step,
)
from tomq.temporal.model import pathquery_from_ops, tinstance, untilquery
from tomq.verify import tequiv_bounded

A, B = atom("A"), atom("B")
SIG_AB = signature(["A", "B"])
OE = empty_ontology(SIG_AB)
DIA_A = pathquery_from_ops([TOP_QUERY, A], ["F"])


def sl(*names):
    return instance(["a"], [(n, "a") for n in names])


def ti(*slices):
    return tinstance([sl(*s) for s in slices], "a")


def test_membership_answers_and_counters():
    teacher = Teacher(OE, DIA_A)
    assert teacher.membership(ti((), ("A",)))
    assert not teacher.membership(ti(()))
    assert teacher.membership_count == 2
    assert teacher.max_query_size >= 1
    assert [ans for _, ans, _ in teacher.transcript] == [True, False]
    assert [n for _, _, n in teacher.transcript] == [1, 2]


def test_membership_budget():
    teacher = Teacher(OE, DIA_A, budget=1)
    teacher.membership(ti(("A",)))
    with pytest.raises(BudgetExceeded):
        teacher.membership(ti(("A",)))


def test_unwind_step_doubles_cycle():
    inst = instance(["a", "b"], [], [("R", "a", "b"), ("R", "b", "a")])
    out = unwind_step(inst, ("R", "a", "b"), "w_")
    assert len(out.individuals) == 4
    # the rewired graph is an undirected 4-cycle: still cyclic but longer
    assert ("R", "a", "w_b") in out.ratoms and ("R", "w_a", "b") in out.ratoms
    assert ("R", "a", "b") not in out.ratoms


def test_learn_diamond_from_noisy_example():
    teacher = Teacher(OE, DIA_A)
    init = ti(("B",), ("A", "B"), ("A",))
    out = Learner(OE, teacher, LearnerConfig(variant="safe")).run(init)
    assert tequiv_bounded(OE, out, DIA_A)
    assert teacher.membership_count <= 200


def test_learn_with_role_hierarchy_ontology():
    sig = signature(["A", "B"], ["P"])
    O = ontology([SubBasic(exists_basic(Role("P", True)), name_basic("B"))], DL_LITE_H, sig)
    P = Role("P")
    target = pathquery_from_ops([TOP_QUERY, exists(P, A)], ["X"])
    init = tinstance(
        [empty_instance(["a", "c"]), instance(["a", "c"], [("A", "c"), ("B", "c")], [("P", "a", "c")])],
        "a",
    )
    teacher = Teacher(O, target)
    out = Learner(O, teacher, LearnerConfig(variant="safe")).run(init)
    assert tequiv_bounded(O, out, target)


def test_learn_rejects_negative_initial_example():
    teacher = Teacher(OE, DIA_A)
    with pytest.raises(NotPositiveInitialExample):
        Learner(OE, teacher, LearnerConfig(variant="safe")).run(ti(()))


def test_learn_depth_and_nextdia_variants():
    q = pathquery_from_ops([TOP_QUERY, A, B], ["F", "X"])
    init = ti((), ("A",), ("B",))
    for config in [
        LearnerConfig(variant="depth", depth=2),
        LearnerConfig(variant="nextdia"),
        LearnerConfig(variant="safe"),
    ]:
        teacher = Teacher(OE, q)
        out = Learner(OE, teacher, config).run(init)
        assert tequiv_bounded(OE, out, q), (config.variant, out._key)


def test_learn_now_or_later_connector():
    q = pathquery_from_ops([A, B], ["Fr"])
    init = ti(("A", "B"),)
    teacher = Teacher(OE, q)
    out = Learner(OE, teacher, LearnerConfig(variant="safe")).run(init)
    assert tequiv_bounded(OE, out, q)


def test_unwind_inside_learning_run():
    # cyclic slice forces the doubling step before minimisation can finish
    sig = signature(["A"], ["R"])
    O = empty_ontology(sig)
    R = Role("R")
    target = pathquery_from_ops([exists(R, A)], [])
    cyc = instance(["a", "b"], [("A", "b")], [("R", "a", "b"), ("R", "b", "a"), ("R", "b", "b")])
    teacher = Teacher(O, target)
    out = Learner(O, teacher, LearnerConfig(variant="safe")).run(tinstance([cyc], "a"))
    assert tequiv_bounded(O, out, target)


class _StarRecorder(Learner):
    """A learner that records whether its star step changed the grid."""

    def star_step(self, t):
        out = super().star_step(t)
        self.star_changed = out.slices() != t.slices()
        return out


def test_star_step_splices_a_frontier_word():
    # the one slice holding A and B must be split for F (A & Fr B): each
    # variant commits one splice of the frontier word of A & B
    q = pathquery_from_ops([TOP_QUERY, A, B], ["F", "Fr"])
    init = ti((), ("A", "B"))
    for config in [LearnerConfig(variant="safe"), LearnerConfig(variant="depth", depth=q.tdp)]:
        teacher = Teacher(OE, q)
        learner = _StarRecorder(OE, teacher, config)
        out = learner.run(init)
        assert learner.star_changed, config.variant
        assert tequiv_bounded(OE, out, q), (config.variant, out._key)


def test_teacher_confirms_characterisation_of_output():
    from tomq.tempchar import characterise_dia

    teacher = Teacher(OE, DIA_A)
    init = ti(("B",), ("A", "B"), ("A",))
    out = Learner(OE, teacher, LearnerConfig(variant="safe")).run(init)
    E = characterise_dia(OE, out, SIG_AB)
    confirmer = Teacher(OE, DIA_A)
    assert all(confirmer.membership(d) for d in E.positives)
    assert not any(confirmer.membership(d) for d in E.negatives)


def test_saturate_names_keeps_role_atoms():
    sig = signature(["A", "B"], ["P"])
    O = ontology([SubBasic(name_basic("A"), name_basic("B"))], DL_LITE_H, sig)
    inst = instance(["a", "b"], [("A", "a")], [("P", "a", "b")])
    out = saturate_names(O, inst)
    assert ("B", "a") in out.catoms
    assert out.ratoms == inst.ratoms
