"""Rebuild perfbench/learn_pool.json, the learn workload's stored baseline.

    python3 perfbench/make_pool.py

Replays acceptance 7 (seed 20260809, frontier bound 5, budget 20000): draws
cases until 25 of them learn in every variant, and runs every variant of
every kept draw, refused ones included. Each run goes in a forked child, cold,
as in a benchmark run. Its outcome, membership count, maximum query size and
transcript digest are stored, with its time scaled to the reference host as
`ref_s`, which only chooses and sizes the slice a benchmark run takes.
Rebuild only when a change is meant to alter the learner's behaviour; takes
about three minutes on a 2-core x86-64 host.
"""
from __future__ import annotations

import json
import os
import platform
import sys
import time

import run

ACCEPTANCE_CASES = 25


def learn_once(payload):
    """One learner run, for run.run_forked: returns its seconds and outcome,
    and leaves the baseline fields in RESULT, which the child sends back."""
    from tomq.errors import UnsupportedDialect
    from tomq.learn import Learner, LearnerConfig, Teacher

    case, (variant, depth) = payload
    teacher = Teacher(case.onto, case.target, budget=20000)
    config = LearnerConfig(variant=variant, depth=depth, frontier_bound=5, budget=20000)
    t0 = time.perf_counter()
    try:
        Learner(case.onto, teacher, config).run(case.initial)
    except UnsupportedDialect:
        return time.perf_counter() - t0, "unsupported"
    elapsed = time.perf_counter() - t0
    RESULT.update(
        membership=teacher.membership_count,
        max_query_size=teacher.max_query_size,
        transcript=run.transcript_digest(teacher),
    )
    return elapsed, "learned"


RESULT: dict = {}


def main() -> int:
    run.import_library()
    import gen

    ops = []
    cases = runs = kept = 0
    for case in gen.learn_cases():
        if cases == ACCEPTANCE_CASES:
            break
        kept += 1
        learned_all = True
        variants = gen.learn_variants(case)
        for variant, depth in variants:
            elapsed, scale, outcome, fields = run.run_forked(
                learn_once, (case, (variant, depth)), deadline_s=600.0, after=RESULT.copy)
            if outcome not in ("learned", "unsupported"):
                sys.exit(f"draw {case.draw} {variant}: {outcome}")
            learned_all &= outcome == "learned"
            entry = {
                "draw": case.draw, "case": case.digest, "variant": variant, "depth": depth,
                "outcome": outcome, "ref_s": round(elapsed * scale, 4),
            }
            entry.update(fields)
            ops.append(entry)
            print(json.dumps(entry), flush=True)
        if learned_all:
            cases += 1
            runs += len(variants)
    pool = {
        "seed": gen.LEARN_SEED,
        "kept_draws": kept,
        "cases": cases,
        "runs": runs,
        "ref_host": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}",
        "ops": ops,
    }
    (run.HERE / "learn_pool.json").write_text(json.dumps(pool, indent=1) + "\n")
    print(f"{kept} kept draws, {cases} cases, {runs} runs, {len(ops)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
