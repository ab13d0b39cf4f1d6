"""Golden values of temporal entailment and of the two until builders.

The other evaluator tests use the empty ontology at time 0 only. This file
pins `tentail` at every time point from 0 to `max_time + 2` on seeded random
temporal instances, over seeded random ontologies in all four dialects, for
three kinds of query per case: a path query over X, F and Fr, an until query
with bottom and domain fillers, and a bare ELIQ. Answers are stored as bit
strings, one bit per time point.

It also pins the until example sets: a digest of `print_exampleset` (meta
lines included) for `characterise_prop_until` and `characterise_until` over
the empty ontology and a DL-Lite_H ontology, each over a signature with and
without a role name. Trailing-top targets are drawn too; a build that raises
stores the exception's class name, so the place of each guard is pinned.

The next/later builder is pinned the same way: `characterise_dia` in the
modes safe, nextdia and depth (exponent the query's temporal depth) on
seeded path queries over concept names, with the empty ontology and a small
concept-only ELHIF ontology. The digests fix the order of every negative, so
the order in which the rewrite rules are applied is pinned too.

The ontologies have at most `MAX_AXIOMS` axioms. With larger ones a few
ELHIF-NF draws hit the witness step that never terminates (see ROADMAP item
4); at this size none does.

Re-record only after a deliberate change of entailment or of the builders:

    PYTHONPATH=src python3 tests/test_temporal_golden.py --record
"""
import hashlib
import json
import random
import sys
from pathlib import Path

from tomq.dl import (
    DIALECTS,
    DL_LITE_H,
    ELHIF_NF,
    TOP_QUERY,
    Disjoint,
    Role,
    SubBasic,
    empty_ontology,
    exists,
    exists_basic,
    make_eliq,
    name_basic,
    ontology,
    signature,
)
from tomq.dl.model import ConjLhs
from tomq.errors import TomqError
from tomq.tempchar import (
    MODE_DEPTH,
    MODE_NEXTDIA,
    MODE_SAFE,
    characterise_dia,
    characterise_prop_until,
    characterise_until,
)
from tomq.temporal.eval import tentail
from tomq.temporal.model import pathquery_from_ops, tinstance, untilquery
from tomq.temporal.normal import normalize
from tomq.textio import print_exampleset

from helpers import rand_eliq, rand_instance, rand_ontology

GOLDEN = Path(__file__).with_name("temporal_golden.json")
SIG = signature(["A", "B", "C"], ["R"])
MAX_AXIOMS = 5
ENTAIL_CASES_PER_DIALECT = 150
BUILDS_PER_SETTING = 80
DIA_QUERIES_PER_SETTING = 60

R = Role("R")
SIG_P = signature(["A", "B", "C"])
SIG_PR = signature(["A", "B"], ["R"])


def _body(rng: random.Random):
    if rng.random() < 0.2:
        return TOP_QUERY
    return rand_eliq(rng, SIG, max_size=2)


def _tinstance(rng: random.Random):
    slices = [
        rand_instance(rng, SIG, max_inds=2, max_atoms=6)
        for _ in range(rng.randint(1, 4))
    ]
    return tinstance(slices, "i0")


def entail_cases():
    """(case id, ontology, temporal instance, {kind: query}), seeded per dialect."""
    for d, dialect in enumerate(DIALECTS):
        rng = random.Random(20261019 + d)
        for k in range(ENTAIL_CASES_PER_DIALECT):
            onto = rand_ontology(rng, SIG, dialect, max_axioms=MAX_AXIOMS)
            dinst = _tinstance(rng)
            n = rng.randint(1, 4)
            path = pathquery_from_ops(
                [_body(rng) for _ in range(n)],
                [rng.choice(["X", "F", "Fr"]) for _ in range(n - 1)],
            )
            steps = [
                (None if rng.random() < 0.4 else _body(rng), _body(rng))
                for _ in range(rng.randint(1, 3))
            ]
            until = untilquery(_body(rng), steps)
            queries = {"path": path, "until": until, "eliq": rand_eliq(rng, SIG, 4)}
            yield f"{dialect}/{k}", onto, dinst, queries


def answers(onto, dinst, q) -> str:
    """One bit per time point 0..max_time + 2."""
    return "".join(
        "1" if tentail(onto, dinst, ell, q) else "0"
        for ell in range(dinst.max_time + 3)
    )


def _prop_body(rng: random.Random, names):
    return make_eliq(rng.sample(names, rng.randint(0, min(2, len(names)))))


def _rand_until(rng: random.Random, sig):
    """Bodies are sets of concept names, or a bare R or R- edge when the
    signature has R; most fillers avoid their target's names, so that most
    queries are peerless."""
    names = sorted(sig.concept_names)

    def body():
        if sig.role_names and rng.random() < 0.15:
            return exists(rng.choice([R, R.inverse]))
        return _prop_body(rng, names)

    steps = []
    for _ in range(rng.randint(0, 2)):
        target = body()
        rest = [n for n in names if n not in target.names]
        if rng.random() < 0.35:
            filler = None
        elif rest and rng.random() < 0.75:
            filler = make_eliq(rng.sample(rest, rng.randint(1, len(rest))))
        else:
            filler = body()
        steps.append((filler, target))
    return untilquery(body(), steps)


BUILD_SETTINGS = (
    ("empty", SIG_P, empty_ontology(SIG_P)),
    ("empty-R", SIG_PR, empty_ontology(SIG_PR)),
    (
        "dllite",
        SIG_P,
        ontology(
            [SubBasic(name_basic("A"), name_basic("B")),
             Disjoint(name_basic("B"), name_basic("C"))],
            DL_LITE_H,
            SIG_P,
        ),
    ),
    (
        "dllite-R",
        SIG_PR,
        ontology(
            [SubBasic(name_basic("A"), name_basic("B")),
             SubBasic(exists_basic(R.inverse), name_basic("A"))],
            DL_LITE_H,
            SIG_PR,
        ),
    ),
)


def _digest(build) -> str:
    try:
        text = print_exampleset(build())
    except TomqError as e:
        return "raises " + type(e).__name__
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_cases():
    """(case id, thunk building an example set), seeded per setting: the
    propositional builder on the ontology-free settings, the split-partner
    builder on all four."""
    for s, (name, sig, onto) in enumerate(BUILD_SETTINGS):
        rng = random.Random(20261020 + s)
        for k in range(BUILDS_PER_SETTING):
            q = _rand_until(rng, sig)
            if not onto.axioms:
                yield f"prop/{name}/{k}", (lambda q=q, sig=sig: characterise_prop_until(q, sig))
            yield f"split/{name}/{k}", (
                lambda q=q, sig=sig, onto=onto: characterise_until(onto, q, sig)
            )


DIA_SETTINGS = (
    ("empty", empty_ontology(SIG_P)),
    (
        "elhif",
        ontology(
            [ConjLhs("A", "Top", "B"), ConjLhs("B", "C", "A")], ELHIF_NF, SIG_P
        ),
    ),
)


def _rand_path(rng: random.Random):
    """One to four bodies of at most two concept names over X, F and Fr."""
    n = rng.randint(1, 4)
    names = sorted(SIG_P.concept_names)
    return pathquery_from_ops(
        [_prop_body(rng, names) for _ in range(n)],
        [rng.choice(["X", "F", "Fr"]) for _ in range(n - 1)],
    )


def dia_cases():
    """(case id, thunk building an example set): each seeded path query in
    the three modes of `characterise_dia`."""
    for s, (name, onto) in enumerate(DIA_SETTINGS):
        rng = random.Random(20261021 + s)
        for k in range(DIA_QUERIES_PER_SETTING):
            q = _rand_path(rng)
            modes = {
                "safe": (MODE_SAFE,),
                "nextdia": (MODE_NEXTDIA,),
                "depth": (MODE_DEPTH, normalize(onto, q).tdp),
            }
            for label, mode in modes.items():
                yield f"dia/{name}/{k}/{label}", (
                    lambda q=q, onto=onto, mode=mode: characterise_dia(onto, q, SIG_P, mode=mode)
                )


def entail_answers() -> dict:
    return {
        cid: {kind: answers(onto, dinst, q) for kind, q in queries.items()}
        for cid, onto, dinst, queries in entail_cases()
    }


def build_digests() -> dict:
    return {cid: _digest(build) for cid, build in build_cases()}


def dia_digests() -> dict:
    return {cid: _digest(build) for cid, build in dia_cases()}


def test_tentail_matches_golden_answers():
    stored = json.loads(GOLDEN.read_text())["entail"]
    got = entail_answers()
    assert sorted(got) == sorted(stored)
    failed = [cid for cid in got if got[cid] != stored[cid]]
    assert not failed, f"temporal entailment changed in cases {failed}"


def test_until_example_sets_match_golden_digests():
    stored = json.loads(GOLDEN.read_text())["build"]
    got = build_digests()
    assert sorted(got) == sorted(stored)
    failed = [cid for cid in got if got[cid] != stored[cid]]
    assert not failed, f"until example sets changed in cases {failed}"


def test_dia_example_sets_match_golden_digests():
    stored = json.loads(GOLDEN.read_text())["dia"]
    got = dia_digests()
    assert sorted(got) == sorted(stored)
    failed = [cid for cid in got if got[cid] != stored[cid]]
    assert not failed, f"next/later example sets changed in cases {failed}"


def test_golden_cases_exercise_both_answers_and_guards():
    """The stored values are not degenerate: answers vary over time, and
    builds include example sets and both guard refusals."""
    stored = json.loads(GOLDEN.read_text())
    bits = [a for case in stored["entail"].values() for a in case.values()]
    assert sum("0" in a and "1" in a for a in bits) >= 40
    digests = list(stored["build"].values())
    for guard in ("NotPeerless", "NotPropositional", "TrailingTopTarget"):
        assert "raises " + guard in digests
    assert sum(not v.startswith("raises") for v in digests) >= 200
    dia = stored["dia"]
    assert "raises UnsafeQuery" in dia.values()
    for mode in ("safe", "nextdia", "depth"):
        built = [v for cid, v in dia.items() if cid.endswith(mode) and not v.startswith("raises")]
        assert len(built) >= 20, mode


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    data = {"entail": entail_answers(), "build": build_digests(), "dia": dia_digests()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(data['entail'])} entailment cases, "
          f"{len(data['build'])} until builds and {len(data['dia'])} next/later builds in {GOLDEN}")
