"""Golden digests of saturation and the bounded chase where no oracle reaches.

`tests/test_reasoner_oracle.py` cross-checks the reasoner against an
independent completion, but only for inverse-free, functionality-free EL,
and `tests/test_dllite_oracle.py` checks the three DL-Lite dialects against
their canonical model. ELHIF-NF with inverse roles, `Func` or role
inclusions has no oracle, and stays pinned here: seeded random ontologies in
all four dialects with a random instance and the reduction instance of a
random query each. Per case it stores a digest of
`saturate` (names, edges and witness groups of every individual) and of
`chase(., 3)`; an inconsistent instance is digested as such, since nothing
reads the partial state of an inconsistent saturation.

Re-record only after a deliberate change of the reasoner's results:

    PYTHONPATH=src python3 tests/test_reasoner_golden.py --record
"""
import hashlib
import json
import random
import sys
from pathlib import Path

from tomq.dl import DIALECTS, Reasoner, signature

from helpers import rand_eliq, rand_instance, rand_ontology

GOLDEN = Path(__file__).with_name("reasoner_golden.json")
SIG = signature(["A", "B", "C"], ["R", "S"])
CASES_PER_DIALECT = 200


def golden_cases():
    """(case id, ontology, instance) triples, seeded per dialect."""
    for d, dialect in enumerate(DIALECTS):
        rng = random.Random(20261018 + d)
        for k in range(CASES_PER_DIALECT):
            onto = rand_ontology(rng, SIG, dialect, max_axioms=16)
            inst = rand_instance(rng, SIG, max_inds=3, max_atoms=6)
            q = rand_eliq(rng, SIG, max_size=5)
            yield f"{dialect}/{k}", onto, inst, q


def _digest_instance(r: Reasoner, inst) -> list:
    sat = r.saturate(inst)
    if not sat.consistent:
        return ["inconsistent"]
    chased = r.chase(inst, 3)
    return [
        sorted((a, sorted(ns)) for a, ns in sat.names.items()),
        sorted(sat.edges),
        sorted(
            (a, [(sorted(map(str, g.roles)), sorted(g.fillers)) for g in gs])
            for a, gs in sat.groups.items()
        ),
        sorted(chased.individuals),
        sorted(chased.catoms),
        sorted(chased.ratoms),
    ]


def case_digest(onto, inst, q) -> str:
    """Digest of one case, computed on a reasoner of its own."""
    r = Reasoner(onto)
    parts = [_digest_instance(r, inst), _digest_instance(r, r.hat(q).instance)]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def test_saturation_and_chase_match_golden_digests():
    stored = json.loads(GOLDEN.read_text())
    got = {cid: case_digest(onto, inst, q) for cid, onto, inst, q in golden_cases()}
    assert sorted(got) == sorted(stored)
    failed = [cid for cid in got if got[cid] != stored[cid]]
    assert not failed, f"saturation or chase changed in cases {failed}"


def test_golden_cases_reach_witnesses_and_functional_merges():
    """The cases exercise what the oracle cannot: anonymous witnesses below
    named individuals, merged functional groups, and inverse roles."""
    witnessed = merged = inverse = 0
    for _, onto, inst, q in golden_cases():
        r = Reasoner(onto)
        for i in (inst, r.hat(q).instance):
            sat = r.saturate(i)
            if not sat.consistent:
                continue
            groups = [g for gs in sat.groups.values() for g in gs]
            witnessed += bool(groups)
            merged += any(len(g.roles) > 1 for g in groups)
            inverse += any(ro.inverted for g in groups for ro in g.roles)
    assert witnessed >= 250 and merged >= 10 and inverse >= 120, (witnessed, merged, inverse)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    digests = {cid: case_digest(onto, inst, q) for cid, onto, inst, q in golden_cases()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}")
