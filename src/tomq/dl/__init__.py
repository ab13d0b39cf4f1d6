"""Ontologies, instances, tree queries and the reasoning primitives."""
from __future__ import annotations

from ..errors import UnsatisfiableQuery
from .eliq import (
    BOTTOM_QUERY,
    TOP_QUERY,
    Eliq,
    atom,
    conjoin,
    conjoin_all,
    cycle_edge,
    exists,
    induced_instance,
    instance_to_eliq,
    make_eliq,
    point_component,
)
from .model import (
    BOT,
    DIALECTS,
    DL_LITE_F,
    DL_LITE_F_MINUS,
    DL_LITE_H,
    ELHIF_NF,
    TOP,
    TOP_KEY,
    Basic,
    ConjLhs,
    Disjoint,
    ExistsLhs,
    ExistsRhs,
    Func,
    Instance,
    Ontology,
    Pointed,
    Role,
    RoleSub,
    Signature,
    SubBasic,
    anchored,
    empty_instance,
    empty_ontology,
    exists_basic,
    instance,
    merge_instances,
    name_basic,
    ontology,
    rename_instance,
    signature,
    top_basic,
    validate_ontology,
)
from .reason import Reasoner, clear_reasoners, general_hom_exists, hom_exists, reasoner


class _Inconsistent:
    def __repr__(self):
        return "Inconsistent"


INCONSISTENT = _Inconsistent()


def saturate(onto: Ontology, inst: Instance):
    """All entailed concept-name and role atoms, or INCONSISTENT."""
    sat = reasoner(onto).saturate(inst)
    if not sat.consistent:
        return INCONSISTENT
    return sat.instance(inst)


def chase(onto: Ontology, inst: Instance, depth: int) -> Instance:
    return reasoner(onto).chase(inst, depth)


def certain_answer(onto: Ontology, inst: Instance, point: str, q: Eliq) -> bool:
    return reasoner(onto).certain_answer(inst, point, q)


def hat(onto: Ontology, q: Eliq) -> Pointed:
    return reasoner(onto).hat(q)


def contains(onto: Ontology, q1: Eliq, q2: Eliq) -> bool:
    return reasoner(onto).contains(q1, q2)


def equivalent(onto: Ontology, q1: Eliq, q2: Eliq) -> bool:
    return reasoner(onto).equivalent(q1, q2)


def compatible(onto: Ontology, q1: Eliq, q2: Eliq) -> bool:
    return reasoner(onto).compatible(q1, q2)
