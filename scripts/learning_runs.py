"""Seeded learning experiments: draw random ontology/target pairs, run every
applicable learner variant, and report query counts.

Run from the repository root:  python3 scripts/learning_runs.py [cases] [seed]
"""
import random
import sys
import time

from tomq.errors import UnsupportedDialect
from tomq.learn import Learner, LearnerConfig, Teacher
from tomq.textio import print_pathquery
from tomq.verify import tequiv_bounded

sys.path.insert(0, "tests")
from helpers import learner_corpus_draw


def main():
    wanted = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20260809
    rng = random.Random(seed)
    done = 0
    while done < wanted:
        draw = learner_corpus_draw(rng)
        if draw is None:
            continue
        onto, target, initial, variants = draw
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
