"""Frozen input generators for the benchmark workloads.

The first block copies the seeded generators of tests/helpers.py that the
workloads use (rand_ontology, rand_eliq) and acceptance 7's case generator,
so that later edits to the test helpers cannot silently change a workload.
selftest.py checks that the copies still reproduce acceptance 7's corpus.

The library only ever sees what these functions return; the seed never
reaches it.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from tomq.dl import (
    BOT,
    DL_LITE_F,
    DL_LITE_F_MINUS,
    DL_LITE_H,
    ELHIF_NF,
    TOP,
    Disjoint,
    Eliq,
    ExistsLhs,
    ExistsRhs,
    Func,
    Instance,
    Ontology,
    Role,
    RoleSub,
    Signature,
    SubBasic,
    exists_basic,
    make_eliq,
    name_basic,
    reasoner,
    signature,
    top_basic,
)
from tomq.dl.model import ConjLhs
from tomq.errors import UnsupportedAxiom
from tomq.tempchar import tagged_from_queries
from tomq.temporal.model import PathQuery, TInstance, pathquery_from_ops, tinstance, untilquery
from tomq.temporal.normal import is_peerless, is_safe, normalize
from tomq.textio import print_ontology, print_pathquery


# ------------------------------------------- copies of the test generators

def rand_role(rng: random.Random, sig: Signature) -> Role:
    return Role(rng.choice(sorted(sig.role_names)), rng.random() < 0.4)


def rand_basic(rng: random.Random, sig: Signature):
    if sig.role_names and rng.random() < 0.4:
        return exists_basic(rand_role(rng, sig))
    if rng.random() < 0.1:
        return top_basic()
    return name_basic(rng.choice(sorted(sig.concept_names)))


def rand_name(rng: random.Random, sig: Signature, top_ok=True) -> str:
    names = sorted(sig.concept_names)
    if top_ok and rng.random() < 0.15:
        return TOP
    return rng.choice(names)


def rand_ontology(
    rng: random.Random, sig: Signature, dialect: str, max_axioms: int = 6
) -> Ontology:
    axioms = []
    n = rng.randint(0, max_axioms)
    for _ in range(n):
        if dialect == ELHIF_NF:
            kind = rng.choice(["exrhs", "exlhs", "conj", "conj", "func", "rsub"])
            if kind == "exrhs" and sig.role_names:
                axioms.append(
                    ExistsRhs(rand_name(rng, sig), rand_role(rng, sig), rand_name(rng, sig))
                )
            elif kind == "exlhs" and sig.role_names:
                axioms.append(
                    ExistsLhs(rand_role(rng, sig), rand_name(rng, sig), rand_name(rng, sig, top_ok=False))
                )
            elif kind == "conj":
                rhs = rand_name(rng, sig, top_ok=False)
                if rng.random() < 0.15:
                    rhs = BOT
                axioms.append(ConjLhs(rand_name(rng, sig), rand_name(rng, sig), rhs))
            elif kind == "func" and sig.role_names:
                axioms.append(Func(rand_role(rng, sig)))
            elif kind == "rsub" and sig.role_names:
                axioms.append(RoleSub(rand_role(rng, sig), rand_role(rng, sig)))
        else:
            kind = rng.choice(["sub", "sub", "sub", "disj", "extra"])
            if kind == "sub":
                axioms.append(SubBasic(rand_basic(rng, sig), rand_basic(rng, sig)))
            elif kind == "disj":
                axioms.append(Disjoint(rand_basic(rng, sig), rand_basic(rng, sig)))
            elif dialect == DL_LITE_H and sig.role_names:
                axioms.append(RoleSub(rand_role(rng, sig), rand_role(rng, sig)))
            elif dialect in (DL_LITE_F, DL_LITE_F_MINUS) and sig.role_names:
                axioms.append(Func(rand_role(rng, sig)))
    try:
        return Ontology(sig, frozenset(axioms), dialect)
    except UnsupportedAxiom:
        return rand_ontology(rng, sig, dialect, max_axioms)


def rand_eliq(rng: random.Random, sig: Signature, max_size=5) -> Eliq:
    budget = rng.randint(1, max_size)

    def build(budget: int) -> Eliq:
        names = []
        edges = []
        while budget > 0:
            if sig.role_names and rng.random() < 0.4 and budget >= 2:
                sub_budget = rng.randint(1, budget - 1)
                budget -= sub_budget + 1
                edges.append((rand_role(rng, sig), build(sub_budget - 1)))
            elif rng.random() < 0.8:
                names.append(rng.choice(sorted(sig.concept_names)))
                budget -= 1
            else:
                break
        return make_eliq(names, edges)

    return build(budget)


def gen_case(rng: random.Random):
    """Acceptance 7's draw: a signature, an ontology and a raw path query."""
    names = ["A", "B", "C"][: rng.randint(1, 3)]
    roles = ["R", "S"][: rng.randint(0, 2)]
    sig = signature(names, roles)
    dialect = rng.choice([DL_LITE_H, ELHIF_NF])
    O = rand_ontology(rng, sig, dialect, max_axioms=6)
    k = rng.randint(0, 3)
    bodies = [rand_eliq(rng, sig, max_size=3) for _ in range(k + 1)]
    ops = [rng.choice(["X", "F", "Fr"]) for _ in range(k)]
    return sig, O, pathquery_from_ops(bodies, ops)


# ------------------------------------------------------------------ learn

LEARN_SEED = 20260809   # acceptance 7's corpus seed
MAX_DRAWS = 500         # acceptance 7's draw cap


@dataclass(frozen=True)
class LearnCase:
    draw: int
    sig: Signature
    onto: Ontology
    target: PathQuery
    initial: TInstance

    @property
    def digest(self) -> str:
        text = print_ontology(self.onto) + "\n" + print_pathquery(self.target)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def measure(self) -> int:
        """Acceptance 7's size measure for its query-count and size bounds."""
        q = self.target
        return (q.size + len(self.onto.axioms) + 1 + self.initial.size) ** 3


def learn_cases(seed: int = LEARN_SEED):
    """Acceptance 7's stream of draws that pass its draw filter (satisfiable
    bodies, non-trivial normal form), with their initial examples."""
    rng = random.Random(seed)
    for draw in range(1, MAX_DRAWS + 1):
        sig, O, raw = gen_case(rng)
        r = reasoner(O)
        if any(not r.query_satisfiable(body) for body in raw.bodies()):
            continue
        q = normalize(O, raw)
        if len(q.blocks) == 1 and len(q.blocks[0]) == 1 and r.trivial(q.blocks[0][0]):
            continue
        initial = tagged_from_queries(
            O, q.strict_count + 1, q.blocks, lambda x: None
        ).to_tinstance()
        yield LearnCase(draw, sig, O, q, initial)


def learn_variants(case: LearnCase) -> list[tuple[str, Optional[int]]]:
    """Acceptance 7's learner variants for a case, in its order."""
    q, O = case.target, case.onto
    variants: list[tuple[str, Optional[int]]] = [("depth", q.tdp)]
    if is_safe(O, q, 5) is True:
        variants.insert(0, ("safe", None))
    if not q.has_leq():
        variants.append(("nextdia", None))
    return variants


# ----------------------------------------------------------- characterise

@dataclass(frozen=True)
class CharOp:
    sig: Signature
    onto: Ontology
    query: object            # PathQuery or UntilQuery
    mode: tuple              # ("safe",) / ("depth", N) / ("nextdia",) / ("until",)
    qclass: str              # verification class
    depth_bound: int


def _names_query(rng: random.Random, names: list[str]) -> Eliq:
    return make_eliq(sorted(rng.sample(names, rng.randint(1, min(2, len(names))))))


# Every run cycles through the same op shapes (signature size, query kind,
# temporal depth, mode, empty or random ontology), so seeds differ
# in content but not in mix: verification cost grows steeply with signature
# size and depth, and a seed-drawn mix moved the medians by a third between
# seeds. Until queries stay at depth 1: at depth 2 one op cost up to 1.4 s
# and a seed's few such ops set its throughput. Depth-1 path queries come
# twice, so that the median op lies among them rather than in the sparse gap
# between the cheap and the expensive shapes.
CHAR_SHAPES = tuple(
    (names, kind, depth, mode, empty)
    for empty in (True, False)
    for names, kind, depth, mode in (
        [(n, "path", d, m) for n in (2, 3) for d in (1, 1, 2) for m in ("depth", "safe", "nextdia")]
        + [(2, "until", 1, "until"), (3, "until", 1, "until")]
    )
)


def _char_op(rng: random.Random, shape) -> Optional[CharOp]:
    """One draw of the shape, or None when the query fails the filter, has
    another depth once normalised, or does not admit the shape's mode."""
    n_names, kind, depth, mode, empty = shape
    names = ["A", "B", "C"][:n_names]
    sig = signature(names)
    if empty:
        onto = Ontology(sig, frozenset(), ELHIF_NF)
    else:
        onto = rand_ontology(rng, sig, rng.choice([DL_LITE_H, ELHIF_NF]), max_axioms=3)
    r = reasoner(onto)
    if kind == "until":
        steps = [
            (None if rng.random() < 0.4 else _names_query(rng, names), _names_query(rng, names))
            for _ in range(depth)
        ]
        q = untilquery(_names_query(rng, names), steps)
        if not all(r.query_satisfiable(b) for b in q.targets()):
            return None
        if not is_peerless(onto, q) or r.trivial(q.targets()[-1]):
            return None
        return CharOp(sig, onto, q, ("until",), "until", q.depth)
    bodies = [_names_query(rng, names) for _ in range(depth + 1)]
    raw = pathquery_from_ops(bodies, [rng.choice(["X", "F", "Fr"]) for _ in range(depth)])
    if not all(r.query_satisfiable(b) for b in raw.bodies()):
        return None
    nq = normalize(onto, raw)
    if nq.tdp != depth:
        return None
    if mode == "safe" and is_safe(onto, nq, 6) is not True:
        return None
    if mode == "nextdia" and nq.has_leq():
        return None
    qclass = "nextdia" if mode == "nextdia" else "dia"
    return CharOp(sig, onto, raw, ("depth", depth) if mode == "depth" else (mode,), qclass, depth)


def characterise_ops(seed: int, count: int) -> list[CharOp]:
    """Path and until queries over concept-name signatures, with the empty
    ontology or a small concept-only one. The mode follows what the query
    admits; the uniqueness check runs in the class and depth of that mode."""
    rng = random.Random(seed)
    ops: list[CharOp] = []
    while len(ops) < count:
        op = _char_op(rng, CHAR_SHAPES[len(ops) % len(CHAR_SHAPES)])
        if op is not None:
            ops.append(op)
    return ops


# ----------------------------------------------------------------- answer

ANSWER_SLICES = 100
ANSWER_INDIVIDUALS = 20
ANSWER_ATOMS = 12         # up to this many concept and as many role atoms a slice


@dataclass(frozen=True)
class AnswerOp:
    onto: Ontology
    query: object            # PathQuery or UntilQuery
    dinst: TInstance


def _long_instance(rng: random.Random, sig: Signature) -> TInstance:
    """Random slices. Role atoms of one slice have distinct sources and
    distinct targets, so that functional roles rarely make a slice
    inconsistent: an inconsistent instance entails every query after a few
    saturations, and with unrestricted atoms nearly half the ops were that."""
    inds = [f"i{k}" for k in range(ANSWER_INDIVIDUALS)]
    names, roles = sorted(sig.concept_names), sorted(sig.role_names)
    individuals = frozenset(inds)
    slices = []
    for _ in range(ANSWER_SLICES):
        nc, nr = rng.randint(0, ANSWER_ATOMS), rng.randint(0, ANSWER_ATOMS)
        cat = zip(rng.choices(names, k=nc), rng.choices(inds, k=nc))
        rat = zip(rng.choices(roles, k=nr), rng.sample(inds, nr), rng.sample(inds, nr))
        slices.append(Instance(individuals, frozenset(cat), frozenset(rat)))
    return tinstance(slices, inds[0])


# Every run cycles through the same dialects and query kinds, so seeds differ
# in content but not in mix.
ANSWER_SHAPES = tuple(
    (dialect, kind)
    for dialect in (DL_LITE_H, DL_LITE_F, ELHIF_NF)
    for kind in ("path", "path", "until")
)


def answer_ops(seed: int, count: int) -> list[AnswerOp]:
    """Random DL-Lite-H / DL-Lite-F / ELHIF ontologies, each with one long
    temporal instance answered for a path or until query."""
    rng = random.Random(seed)
    ops: list[AnswerOp] = []
    while len(ops) < count:
        dialect, kind = ANSWER_SHAPES[len(ops) % len(ANSWER_SHAPES)]
        sig = signature(["A", "B", "C"][: rng.randint(2, 3)], ["R", "S"][: rng.randint(1, 2)])
        onto = rand_ontology(rng, sig, dialect, max_axioms=5)
        dinst = _long_instance(rng, sig)
        if kind == "until":
            steps = [
                (None if rng.random() < 0.3 else rand_eliq(rng, sig, max_size=2),
                 rand_eliq(rng, sig, max_size=3))
                for _ in range(rng.randint(1, 2))
            ]
            q = untilquery(rand_eliq(rng, sig, max_size=3), steps)
        else:
            k = rng.randint(1, 3)
            q = pathquery_from_ops(
                [rand_eliq(rng, sig, max_size=3) for _ in range(k + 1)],
                [rng.choice(["X", "F", "Fr"]) for _ in range(k)],
            )
        ops.append(AnswerOp(onto, q, dinst))
    return ops
