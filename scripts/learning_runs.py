"""Seeded learning experiments: draw random ontology/target pairs, run every
applicable learner variant, and report query counts.

Run from the repository root:  python3 scripts/learning_runs.py [cases] [seed]
"""
import random
import sys
import time

from tomq.dl import DL_LITE_H, ELHIF_NF, reasoner, signature
from tomq.errors import UnsupportedDialect
from tomq.learn import Learner, LearnerConfig, Teacher
from tomq.tempchar import tagged_from_queries
from tomq.temporal.model import pathquery_from_ops
from tomq.temporal.normal import is_safe, normalize
from tomq.textio import print_pathquery
from tomq.verify import tequiv_bounded

sys.path.insert(0, "tests")
from helpers import rand_eliq, rand_ontology


def gen_case(rng):
    sig = signature(["A", "B", "C"][: rng.randint(1, 3)], ["R", "S"][: rng.randint(0, 2)])
    onto = rand_ontology(rng, sig, rng.choice([DL_LITE_H, ELHIF_NF]), max_axioms=6)
    k = rng.randint(0, 3)
    bodies = [rand_eliq(rng, sig, max_size=3) for _ in range(k + 1)]
    ops = [rng.choice(["X", "F", "Fr"]) for _ in range(k)]
    return sig, onto, pathquery_from_ops(bodies, ops)


def main():
    wanted = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20260809
    rng = random.Random(seed)
    done = 0
    while done < wanted:
        sig, onto, raw = gen_case(rng)
        r = reasoner(onto)
        if any(not r.query_satisfiable(b) for b in raw.bodies()):
            continue
        target = normalize(onto, raw)
        if len(target.blocks) == 1 and len(target.blocks[0]) == 1 and r.trivial(
            target.blocks[0][0]
        ):
            continue
        initial = tagged_from_queries(
            onto, target.strict_count + 1, target.blocks, lambda q: None
        ).to_tinstance()
        variants = [("depth", target.tdp)]
        if is_safe(onto, target, 5) is True:
            variants.insert(0, ("safe", None))
        if not target.has_leq():
            variants.append(("nextdia", None))
        print(f"--- case {done}: target {print_pathquery(target)}")
        try:
            for variant, depth in variants:
                teacher = Teacher(onto, target, budget=20000)
                config = LearnerConfig(variant=variant, depth=depth, frontier_bound=5, budget=20000)
                t0 = time.time()
                learned = Learner(onto, teacher, config).run(initial)
                ok = tequiv_bounded(onto, learned, target)
                print(
                    f"    {variant:8s}: {teacher.membership_count:4d} queries, "
                    f"max size {teacher.max_query_size:4d}, "
                    f"{'ok' if ok else 'MISMATCH: ' + print_pathquery(learned)} "
                    f"({time.time() - t0:.1f}s)"
                )
        except UnsupportedDialect as exc:
            print(f"    skipped: {exc}")
            continue
        done += 1


if __name__ == "__main__":
    main()
