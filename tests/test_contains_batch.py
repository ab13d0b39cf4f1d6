"""`Reasoner.contains_all`, the batched containment test of the frontier
search, against one `contains` call per pair on a reasoner of its own."""
import random

from helpers import rand_eliq, rand_ontology

from tomq.dl import (
    BOT,
    BOTTOM_QUERY,
    DIALECTS,
    TOP_QUERY,
    Basic,
    ConjLhs,
    Disjoint,
    Func,
    Reasoner,
    Role,
    RoleSub,
    hom_exists,
    signature,
)

SIG = signature(["A", "B"], ["R", "S"])


def _roles_of(ax):
    """The roles an axiom names, bare or inside a basic concept."""
    for value in vars(ax).values():
        if isinstance(value, Role):
            yield value
        elif isinstance(value, Basic) and value.role is not None:
            yield value.role


def _needs_chase(r: Reasoner, q1, q2) -> bool:
    """q2 does not map into q1's hat itself, so when q1 entails q2, only the
    chase's anonymous elements answer it."""
    h = r.hat(q1)
    return not hom_exists(q2, h.instance, h.point)


def test_contains_all_agrees_with_contains():
    rng = random.Random(20261019)
    counts = dict.fromkeys(
        ("pairs", "true", "false", "unsat_left", "needs_chase", "func", "rolesub", "inverse", "bot"), 0)
    for k in range(240):
        onto = rand_ontology(rng, SIG, DIALECTS[k % len(DIALECTS)], max_axioms=8)
        axioms = onto.axioms
        counts["func"] += any(isinstance(ax, Func) for ax in axioms)
        counts["rolesub"] += any(isinstance(ax, RoleSub) for ax in axioms)
        counts["inverse"] += any(role.inverted for ax in axioms for role in _roles_of(ax))
        counts["bot"] += any(
            isinstance(ax, Disjoint) or (isinstance(ax, ConjLhs) and ax.rhs == BOT) for ax in axioms
        )
        batch, single = Reasoner(onto), Reasoner(onto)
        pool = [rand_eliq(rng, SIG, max_size=6) for _ in range(40)]
        lefts = [BOTTOM_QUERY] + [rand_eliq(rng, SIG, max_size=5) for _ in range(9)]
        for q1 in lefts:
            qs = [TOP_QUERY, BOTTOM_QUERY] + rng.sample(pool, 30)
            qs += rng.sample(qs, 4)  # repeats
            # some keys already cached, by the one-pair test
            for q2 in rng.sample(qs, 3):
                batch.contains(q1, q2)
            got = batch.contains_all(q1, qs)
            want = [single.contains(q1, q2) for q2 in qs]
            assert got == want, (onto, q1, [q2 for q2, g, w in zip(qs, got, want) if g != w])
            # every answer is cached, so a later one-pair test hits
            assert [batch._contains_cache[(q1._key, q2._key)] for q2 in qs] == want
            assert batch.contains_all(q1, qs) == want
            assert batch.contains_all(q1, []) == []
            satisfiable = single.query_satisfiable(q1)
            counts["unsat_left"] += not satisfiable and not q1.is_bottom
            counts["pairs"] += len(qs)
            counts["true"] += sum(want)
            counts["false"] += len(want) - sum(want)
            if satisfiable:
                counts["needs_chase"] += sum(
                    w and not q2.is_bottom and _needs_chase(single, q1, q2) for q2, w in zip(qs, want)
                )
    floors = {"pairs": 80000, "true": 35000, "false": 35000, "unsat_left": 200, "needs_chase": 3000,
              "func": 60, "rolesub": 50, "inverse": 120, "bot": 70}
    assert all(counts[name] >= floor for name, floor in floors.items()), counts

