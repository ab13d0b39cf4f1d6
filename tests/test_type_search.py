"""The consistent types of `type_atlas` and the members of `split_partner`.

`type_atlas` reads its types off the closure search of the exact
equivalence oracle (`verify.closed_profiles`). The first test checks them
against `helpers.reference_types`, the sign-vector loop the atlas once ran,
as the same list in the same order, over seeded random ontologies in all
four dialects with role-carrying signatures. The second pins digests of
`split_partner`'s members (points, individuals and atoms, in order) on
seeded role-carrying cases; a case whose closure is over the atlas budget
is digested as such. The third pins where the split-partner check passes
and where it fails.

Re-record only after a deliberate change of the split-partner construction:

    PYTHONPATH=src python3 tests/test_type_search.py --record
"""
import hashlib
import json
import random
import sys
from pathlib import Path

from tomq.dl import DIALECTS, Func, signature
from tomq.domainchar import split_partner, type_atlas
from tomq.errors import SplitSizeExceeded
from tomq.verify import EnumSpec, check_split_partner

from helpers import rand_eliq, rand_ontology, reference_types

GOLDEN = Path(__file__).with_name("split_golden.json")
SIG = signature(["A", "B"], ["R"])


def type_cases():
    """(case id, ontology, queries), seeded per dialect: three queries per
    case, so that closures of 9 and more elements come up."""
    for d, dialect in enumerate(DIALECTS):
        rng = random.Random(20261019 + d)
        for k in range(20):
            onto = rand_ontology(rng, SIG, dialect, max_axioms=12)
            qs = [rand_eliq(rng, SIG, max_size=8) for _ in range(3)]
            yield f"{dialect}/{k}", onto, qs


def split_cases():
    """(case id, ontology, query), seeded per dialect."""
    for d, dialect in enumerate(DIALECTS):
        rng = random.Random(20261119 + d)
        for k in range(25):
            onto = rand_ontology(rng, SIG, dialect, max_axioms=8)
            yield f"{dialect}/{k}", onto, rand_eliq(rng, SIG, max_size=5)


def test_types_match_the_sign_vector_loop():
    large = 0
    for cid, onto, qs in type_cases():
        try:
            atlas = type_atlas(onto, SIG, qs)
        except SplitSizeExceeded:
            continue
        assert list(atlas.types) == reference_types(onto, atlas.elements), cid
        large += len(atlas.elements) >= 9
    assert large >= 12, large


def case_digest(onto, q) -> str:
    try:
        members = split_partner(onto, SIG, [q]).members
    except SplitSizeExceeded:
        return "exceeded"
    parts = [
        [p.point, sorted(p.instance.individuals), sorted(p.instance.catoms), sorted(p.instance.ratoms)]
        for p in members
    ]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def test_split_partner_members_match_golden_digests():
    stored = json.loads(GOLDEN.read_text())
    got = {cid: case_digest(onto, q) for cid, onto, q in split_cases()}
    assert sorted(got) == sorted(stored)
    failed = [cid for cid in got if got[cid] != stored[cid]]
    assert not failed, f"split-partner members changed in cases {failed}"


# The split-partner check fails on these cases, each with a `Func` axiom.
# This is a defect of `split_partner`, not its spec: the type instance
# refuses role edges out of a type that already holds ∃R under `func R`
# (`_edge_possible` joins the two hats by a second R edge, and the clash
# check refuses it; dl-lite-f/3 has no role atom at all), and the product
# may give an element two successors along a functional role, which makes a
# member inconsistent (the `bot` witnesses).
FUNC_SPLIT_FAILURES = [
    "dl-lite-f/3", "dl-lite-f/6", "dl-lite-f/8", "dl-lite-f/9", "dl-lite-f/11",
    "dl-lite-f/13", "dl-lite-f/15", "dl-lite-f/24",
    "dl-lite-f-minus/7", "dl-lite-f-minus/9", "dl-lite-f-minus/14", "dl-lite-f-minus/17",
    "dl-lite-f-minus/20", "dl-lite-f-minus/21", "dl-lite-f-minus/22", "dl-lite-f-minus/23",
    "elhif-nf/4", "elhif-nf/7", "elhif-nf/14", "elhif-nf/15", "elhif-nf/22",
]


def test_split_partner_check_passes_without_func():
    """`check_split_partner` (class eliq, bound 4) on the members of every
    split case: it passes on all the cases without a `Func` axiom, and fails
    on exactly FUNC_SPLIT_FAILURES among those with one, a known defect
    pinned here so that a change to it shows."""
    spec = EnumSpec(SIG, "eliq", size_bound=4)
    counts = {"plain": 0, "func": 0}
    failed = []
    for cid, onto, q in split_cases():
        kind = "func" if any(isinstance(ax, Func) for ax in onto.axioms) else "plain"
        counts[kind] += 1
        if not check_split_partner(onto, SIG, [q], split_partner(onto, SIG, [q]).members, spec).passed:
            failed.append((kind, cid))
    assert counts == {"plain": 58, "func": 42}
    assert failed == [("func", cid) for cid in FUNC_SPLIT_FAILURES]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    digests = {cid: case_digest(onto, q) for cid, onto, q in split_cases()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}")
