"""The consistent types of `type_atlas` and the members of `split_partner`.

`type_atlas` reads its types off the closure search of the exact
equivalence oracle (`verify.closed_profiles`). The first test checks them
against `helpers.reference_types`, the sign-vector loop the atlas once ran,
as the same list in the same order, over seeded random ontologies in all
four dialects with role-carrying signatures. The second pins digests of
`split_partner`'s members (points, individuals and atoms, in order) on
seeded role-carrying cases; a case whose closure is over the atlas budget
is digested as such.

Re-record only after a deliberate change of the split-partner construction:

    PYTHONPATH=src python3 tests/test_type_search.py --record
"""
import hashlib
import json
import random
import sys
from pathlib import Path

from tomq.dl import DIALECTS, signature
from tomq.domainchar import split_partner, type_atlas
from tomq.errors import SplitSizeExceeded

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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    digests = {cid: case_digest(onto, q) for cid, onto, q in split_cases()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}")
