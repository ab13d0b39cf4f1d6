"""Self-checks of the benchmark itself.

    python3 perfbench/selftest.py          # about 35 s
    python3 perfbench/selftest.py --full   # also replays every learn op, about 3 min

1. The frozen generators still give acceptance 7's corpus for seed 20260809:
   the stored pool has 25 cases and 72 runs, every kept draw regenerates with
   the stored digest, and its variants are the stored ones. With --full,
   every learner run reproduces its stored outcome and baseline.
2. The per-op deadline stops a real hang: query satisfiability of B & C
   does not terminate for the ELHIF-NF ontology below. The op fails at its
   deadline, the next op on that ontology fails without running, and an op
   on another ontology still runs. In a forked child (learn's ops) the
   child's alarm stops it, and a child that blocks the alarm is killed.
3. The tracer replaces every wrapped entry point wherever it was imported,
   and a small frontier computation records calls in the layers it passes.
"""
from __future__ import annotations

import itertools
import signal
import sys
import time

import run


def expect(condition: bool, what) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {what}")


def check_corpus(full: bool) -> None:
    import gen

    pool = run.learn_pool()
    expect((pool["cases"], pool["runs"]) == (25, 72), (pool["cases"], pool["runs"]))
    cases = list(itertools.islice(gen.learn_cases(), pool["kept_draws"]))
    by_draw: dict[int, list] = {}
    for entry in pool["ops"]:
        by_draw.setdefault(entry["draw"], []).append(entry)
    expect([c.draw for c in cases] == list(by_draw), "kept draws changed")
    learned_cases = learned_runs = 0
    for case in cases:
        entries = by_draw[case.draw]
        expect(all(e["case"] == case.digest for e in entries), f"draw {case.draw} changed")
        variants = [(e["variant"], e["depth"]) for e in entries]
        expect(gen.learn_variants(case) == variants, f"draw {case.draw}: variants changed")
        if all(e["outcome"] == "learned" for e in entries):
            learned_cases += 1
            learned_runs += len(entries)
    expect((learned_cases, learned_runs) == (25, 72), (learned_cases, learned_runs))
    if full:
        runs, _ = run.run_rounds(
            [run.Op(case.onto, (case, e)) for case in cases for e in by_draw[case.draw]],
            run.run_learn, deadline_s=120.0, rounds=1, cap_s=1e9,
        )
        bad = [o for op_runs in runs for _, _, o, _ in op_runs if o != run.PASS]
        expect(not bad, bad)
    print(f"corpus: {len(cases)} kept draws, 25 cases, 72 runs"
          + (", every run matches its baseline" if full else ""))


def hanging_ontology():
    from tomq.dl import ELHIF_NF, Role, ontology, signature
    from tomq.dl.model import ConjLhs, ExistsLhs, ExistsRhs, Func, RoleSub

    R, S = Role("R"), Role("S")
    return ontology(
        [
            ConjLhs("C", "A", "A"),          # C & A [= A
            ConjLhs("Top", "B", "A"),        # Top & B [= A
            ExistsLhs(R, "A", "C"),          # ex R.A [= C
            ExistsRhs("A", S.inverse, "B"),  # A [= ex S-.B
            ExistsRhs("B", R.inverse, "A"),  # B [= ex R-.A
            Func(R),                         # func R
            RoleSub(S, R.inverse),           # S [= R-
            RoleSub(S.inverse, R),           # S- [= R
        ],
        ELHIF_NF,
        signature(["A", "B", "C"], ["R", "S"]),
    )


def check_deadline() -> None:
    from tomq.dl import atom, conjoin, empty_ontology, reasoner, signature

    hang = hanging_ontology()
    other = empty_ontology(signature(["A", "B"]))
    query = conjoin(atom("B"), atom("C"))

    def execute(onto):
        t0 = time.perf_counter()
        reasoner(onto).query_satisfiable(query if onto is hang else atom("A"))
        return time.perf_counter() - t0, run.PASS

    def blocked(onto):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        return execute(onto)

    # forked ops first, while this process's reasoners are untouched: the
    # child's alarm stops the hang, and a child that blocks it is killed
    t0 = time.perf_counter()
    forked = [run.run_forked(fn, onto, deadline_s=2.0)[2]
              for fn, onto in ((execute, hang), (blocked, hang), (execute, other))]
    expect(forked == ["deadline", "deadline", run.PASS], forked)
    expect(time.perf_counter() - t0 < 2 * 2.0 + run.RUN_GRACE_S + 5, "a forked op outlived its deadline")

    ops = [run.Op(hang, hang), run.Op(hang, hang), run.Op(other, other)]
    t0 = time.perf_counter()
    results, _ = run.run_ops(ops, execute, deadline_s=2.0)
    outcomes = [o for _, _, o in results]
    expect(outcomes == ["deadline", "interrupted-ontology", run.PASS], outcomes)
    expect(time.perf_counter() - t0 < 10, "the deadline did not stop the hang in time")
    print(f"deadline: in process {outcomes}, forked {forked}")


def check_tracer() -> None:
    import spans
    import tomq
    import tomq.cli  # noqa: F401  (imports most entry points by name)
    from tomq.dl import ELHIF_NF, Role, atom, exists, ontology, signature
    from tomq.dl.model import ExistsRhs

    tracer = spans.Tracer()
    tracer.install()
    for module, name in [
        ("tomq.learn", "frontier"), ("tomq.domainchar", "frontier"),
        ("tomq.domainchar", "enum_domain_queries"), ("tomq.domainchar", "check_frontier"),
        ("tomq.tempchar", "negatives_for"), ("tomq.tempchar", "tentail"),
        ("tomq.cli", "normalize"), ("tomq.learn", "normalize"), ("tomq.dl", "hom_exists"),
    ]:
        expect(hasattr(getattr(sys.modules[module], name), "__wrapped__"), (module, name))
    onto = ontology([ExistsRhs("A", Role("R"), "B")], ELHIF_NF, signature(["A", "B"], ["R"]))
    tomq.domainchar.frontier(onto, exists(Role("R"), atom("B")), "eliq", 2)
    got = tracer.summary(1.0)
    for layer in ("domainchar.frontier", "domainchar.path_probes", "verify.enum_domain_queries",
                  "verify.check_frontier", "dl.contains", "dl.hat"):
        expect(got[f"{layer}.calls"] > 0, layer)
    expect({name for name, _ in spans.metric_names()} <= set(got), "summary lacks a metric")
    print(f"tracer: {len(spans.LAYERS)} layers wrapped, {len(tracer.layer)} spans recorded")


def check_tail() -> None:
    for n, want in ((37, (32.5, 4)), (100, (89.5, 10)), (500, (449.5, 50)), (1, (0.0, 1)), (5, (4.0, 1))):
        got = run.tail_band([float(i) for i in range(n)])
        expect(got == want, f"tail of {n} samples: {got}, want {want}")


def main() -> int:
    run.import_library()
    check_tail()
    check_deadline()
    check_corpus("--full" in sys.argv[1:])
    check_tracer()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
