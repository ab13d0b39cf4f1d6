"""Threads sharing one `Reasoner` get the answers one thread gets.

Each reasoning call keeps its fixpoint state to itself and publishes only
final values to the reasoner's caches, so concurrent calls may repeat work
but must neither fail nor cache a wrong answer. The same holds for the
process-wide memo of slice tables that the sequence matcher and the
temporal evaluator share, and that they fill on demand: threads starting
from cold or partly filled tables, and filling one table bit by bit, get
one thread's answers. So does the process-wide frontier memo, which
threads fill from cold while they share fresh reasoners. And so do threads
under bounds of a few entries on every reasoner cache and on the registry,
so that eviction runs all the time. Last, threads sharing reasoners and
every process-wide memo build example sets and run the learner, and each
output is the one a single thread prints.
"""
import functools
import random
import sys
import threading

from tomq.dl import (
    DIALECTS,
    DL_LITE_H,
    ELHIF_NF,
    Reasoner,
    clear_reasoners,
    empty_ontology,
    make_eliq,
    reasoner,
    signature,
)
from tomq.dl import reason
from tomq.domainchar import clear_frontier_cache, frontier
from tomq.errors import TomqError
from tomq.learn import Learner, LearnerConfig, Teacher
from tomq.tempchar import characterise_dia, characterise_until, tagged_from_queries
from tomq.temporal.eval import (
    SLICE_TABLE_CACHE_SIZE,
    SequenceMatcher,
    clear_slice_tables,
    slice_table,
    tentail,
)
from tomq.temporal.model import flat_form, pathquery_from_ops, tinstance, untilquery
from tomq.temporal.normal import is_safe, normalize
from tomq.textio import print_exampleset, print_pathquery, print_transcript

from helpers import rand_eliq, rand_instance, rand_ontology

SIG = signature(["A", "B", "C"], ["R", "S"])
THREADS = 4


def _workload():
    rng = random.Random(6061)
    work = []
    for k in range(80):
        onto = rand_ontology(rng, SIG, DIALECTS[k % len(DIALECTS)], max_axioms=8)
        qs = [rand_eliq(rng, SIG, max_size=4) for _ in range(14)]
        work.append((onto, [(q1, q2) for q1 in qs for q2 in qs]))
    return work


def _run_threads(worker) -> None:
    """Run worker(n) in THREADS threads under a shortened switch interval and
    wait for them, failing when one does not finish."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,), daemon=True) for n in range(THREADS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads), "a worker did not finish"


def test_threads_sharing_a_reasoner_agree_with_one_thread():
    work = _workload()
    expected = []
    for onto, pairs in work:
        r = Reasoner(onto)
        expected.append([r.contains(q1, q2) for q1, q2 in pairs])
    shared = [Reasoner(onto) for onto, _ in work]
    got = [[[None] * len(pairs) for _, pairs in work] for _ in range(THREADS)]
    errors = []

    def worker(n: int) -> None:
        """Even threads test one pair at a time, odd ones a row of pairs
        with one left query at a time through the batch."""
        order = random.Random(n)
        try:
            for k, (_, pairs) in enumerate(work):
                idx = list(range(len(pairs)))
                order.shuffle(idx)
                if n % 2 == 0:
                    for i in idx:
                        got[n][k][i] = shared[k].contains(*pairs[i])
                    continue
                rows: dict = {}
                for i in idx:
                    rows.setdefault(pairs[i][0]._key, []).append(i)
                for row in rows.values():
                    answers = shared[k].contains_all(pairs[row[0]][0], [pairs[i][1] for i in row])
                    for i, answer in zip(row, answers):
                        got[n][k][i] = answer
        except Exception as exc:  # reported below, with the thread that raised it
            errors.append((n, repr(exc)))

    _run_threads(worker)
    assert not errors, errors[:5]
    wrong = [
        (n, k, i)
        for n in range(THREADS)
        for k, row in enumerate(expected)
        for i, want in enumerate(row)
        if got[n][k][i] != want
    ]
    assert not wrong, f"{len(wrong)} answers differ from one thread's, first {wrong[:5]}"


def _temporal_workload():
    """(ontology, temporal instance, query) triples: more instances than the
    slice-table memo holds, each asked several path and until queries."""
    rng = random.Random(7877)
    sig = signature(["A", "B"], ["R"])
    work = []
    for k in range(SLICE_TABLE_CACHE_SIZE // 8 + 2):
        onto = rand_ontology(rng, sig, DIALECTS[k % len(DIALECTS)], max_axioms=4)
        for _ in range(8):
            slices = [rand_instance(rng, sig, max_inds=2, max_atoms=4) for _ in range(rng.randint(1, 3))]
            dinst = tinstance(slices, "i0")
            for _ in range(2):
                bodies = [rand_eliq(rng, sig, max_size=2) for _ in range(rng.randint(1, 3))]
                ops = [rng.choice(["X", "F", "Fr"]) for _ in bodies[1:]]
                work.append((onto, dinst, pathquery_from_ops(bodies, ops)))
            steps = [(None if rng.random() < 0.4 else rand_eliq(rng, sig, 2), rand_eliq(rng, sig, 2))]
            work.append((onto, dinst, untilquery(rand_eliq(rng, sig, 2), steps)))
    return work


def _answers(onto, dinst, q) -> tuple:
    """The matcher's answer, `tentail` at every time point, and each body's
    bits read one slice at a time, so that threads fill a table bit by bit."""
    table = slice_table(onto, dinst)
    return (
        SequenceMatcher(onto, q).run(dinst),
        tuple(tentail(onto, dinst, ell, q) for ell in range(dinst.max_time + 3)),
        tuple(table.bits(b, 1 << j) for b in flat_form(q)[0] for j in range(table.future + 1)),
    )


def test_threads_sharing_slice_tables_agree_with_one_thread():
    work = _temporal_workload()
    expected = [_answers(*item) for item in work]
    # start the threads cold: no memoised table, and fresh reasoners that
    # the threads fill together through `reasoner(onto)`; then a third of
    # the tables partly filled, by `tentail` at time point 0 alone
    clear_slice_tables()
    clear_reasoners()
    for onto, dinst, q in work[::3]:
        tentail(onto, dinst, 0, q)
    got = [[None] * len(work) for _ in range(THREADS)]
    errors = []

    def worker(n: int) -> None:
        idx = list(range(len(work)))
        random.Random(n).shuffle(idx)
        try:
            for i in idx:
                got[n][i] = _answers(*work[i])
        except Exception as exc:  # reported below, with the thread that raised it
            errors.append((n, repr(exc)))

    _run_threads(worker)
    assert not errors, errors[:5]
    wrong = [(n, i) for n in range(THREADS) for i, want in enumerate(expected) if got[n][i] != want]
    assert not wrong, f"{len(wrong)} answers differ from one thread's, first {wrong[:5]}"


def test_threads_sharing_the_frontier_memo_agree_with_one_thread():
    rng = random.Random(5051)
    sig = signature(["A", "B"], ["R"])
    work = []
    for k in range(60):
        onto = rand_ontology(rng, sig, DIALECTS[k % len(DIALECTS)], max_axioms=5)
        q = rand_eliq(rng, sig, max_size=5)
        if Reasoner(onto).query_satisfiable(q):
            work.append((onto, q, ("elq", "eliq")[k % 2], 4))
    clear_frontier_cache()
    expected = [frontier(*case) for case in work]
    # start the threads cold: no memoised frontier, and fresh reasoners that
    # the threads fill together through `reasoner(onto)`
    clear_frontier_cache()
    clear_reasoners()
    got = [[None] * len(work) for _ in range(THREADS)]
    errors = []

    def worker(n: int) -> None:
        idx = list(range(len(work)))
        random.Random(n).shuffle(idx)
        try:
            for i in idx:
                got[n][i] = frontier(*work[i])
        except Exception as exc:  # reported below, with the thread that raised it
            errors.append((n, repr(exc)))

    _run_threads(worker)
    assert not errors, errors[:5]
    assert len(work) >= 50 and any(f is None for f in expected), len(work)
    wrong = [(n, i) for n in range(THREADS) for i, want in enumerate(expected) if got[n][i] != want]
    assert not wrong, f"{len(wrong)} frontiers differ from one thread's, first {wrong[:5]}"


# every new bound, shrunk so that evictions run all the time
SMALL_BOUNDS = {
    "SAT_CACHE_SIZE": 2,
    "TABLE_CACHE_SIZE": 3,
    "HAT_CACHE_SIZE": 2,
    "CERTAIN_CACHE_SIZE": 4,
    "CONTAINS_CACHE_SIZE": 3,
    "WITNESS_CACHE_SIZE": 2,
    "LONE_CACHE_SIZE": 2,
}
CACHES = ("_sat_cache", "_tables", "_hat_cache", "_certain_cache", "_contains_cache", "_anon", "_lone")


def test_threads_agree_with_one_thread_while_every_cache_evicts(monkeypatch):
    """The threads take the ontologies in one order, each shuffling the
    items of an ontology its own way, so that they share its reasoner while
    the registry of three evicts the ones before."""
    rng = random.Random(4041)
    sig = signature(["A", "B"], ["R"])
    by_onto: dict = {}
    for item in _temporal_workload():
        by_onto.setdefault(item[0], []).append(("tentail", item))
    for k in range(40):
        onto = rand_ontology(rng, sig, DIALECTS[k % len(DIALECTS)], max_axioms=5)
        qs = [rand_eliq(rng, sig, max_size=4) for _ in range(6)]
        by_onto.setdefault(onto, []).extend(("contains", (onto, q1, q2)) for q1 in qs for q2 in qs)
    groups = list(by_onto.values())
    rng.shuffle(groups)
    work = [w for group in groups for w in group]

    def answer(kind, item):
        if kind == "tentail":
            return _answers(*item)
        onto, q1, q2 = item
        r = reasoner(onto)
        return r.contains(q1, q2), r.contains_all(q1, [q2, q1])

    clear_slice_tables()
    clear_reasoners()
    expected = [answer(*w) for w in work]
    for name, bound in SMALL_BOUNDS.items():
        monkeypatch.setattr(reason, name, bound)
    monkeypatch.setattr(reason, "_reasoners", functools.lru_cache(maxsize=3)(Reasoner))
    evictions, seen = [], []
    put = reason._put

    def counting_put(cache, key, value, bound):
        if len(cache) >= bound:
            evictions.append(bound)
        return put(cache, key, value, bound)

    monkeypatch.setattr(reason, "_put", counting_put)
    clear_slice_tables()
    got = [[None] * len(work) for _ in range(THREADS)]
    errors = []

    def worker(n: int) -> None:
        order, start = random.Random(n), 0
        try:
            for group in groups:
                idx = list(range(start, start + len(group)))
                start += len(group)
                order.shuffle(idx)
                for i in idx:
                    got[n][i] = answer(*work[i])
                seen.append(reasoner(group[0][1][0]))
        except Exception as exc:  # reported below, with the thread that raised it
            errors.append((n, repr(exc)))

    try:
        _run_threads(worker)
    finally:
        clear_slice_tables()
    assert not errors, errors[:5]
    assert len(evictions) > 500, len(evictions)
    wrong = [(n, i) for n in range(THREADS) for i, want in enumerate(expected) if got[n][i] != want]
    assert not wrong, f"{len(wrong)} answers differ from one thread's, first {wrong[:5]}"
    # each racing writer may add one entry past a bound before the next clear
    for r in set(seen):
        for cache, bound in zip(CACHES, SMALL_BOUNDS.values()):
            assert len(getattr(r, cache)) < bound + THREADS, (cache, len(getattr(r, cache)))


def _build_jobs() -> list:
    """Seeded example-set builds over {A, B, C}, the empty ontology or a
    small one with role axioms, cycling through `safe`, `nextdiamond` and
    until sets of depth 1."""
    rng = random.Random(3301)
    names = ["A", "B", "C"]
    sig, role_sig = signature(names), signature(names, ["R"])

    def body():
        return make_eliq(sorted(rng.sample(names, rng.randint(1, 2))))

    jobs = []
    for k in range(24):
        if k % 2:
            onto = rand_ontology(rng, role_sig, rng.choice([DL_LITE_H, ELHIF_NF]), max_axioms=3)
        else:
            onto = empty_ontology(sig)
        if k % 3 == 2:
            q = untilquery(body(), [(None if rng.random() < 0.4 else body(), body())])
            jobs.append(functools.partial(characterise_until, onto, q, sig))
        else:
            q = pathquery_from_ops([body(), body()], [rng.choice(["X", "F", "Fr"])])
            jobs.append(functools.partial(characterise_dia, onto, q, sig, (("safe", "nextdia")[k % 3],)))
    return jobs


def _learn(onto, target, config):
    teacher = Teacher(onto, target, budget=config.budget)
    initial = tagged_from_queries(onto, target.strict_count + 1, target.blocks, lambda q: None)
    learned = Learner(onto, teacher, config).run(initial.to_tinstance())
    return print_pathquery(learned), teacher.membership_count, print_transcript(teacher.transcript)


def _learn_jobs() -> list:
    """Seeded learner runs drawn as `scripts/learning_runs.py` draws them,
    each in one variant: `depth`, `nextdia` or `safe` in turn, `depth` where
    the turn's variant does not apply."""
    rng = random.Random(20260809)
    jobs = []
    while len(jobs) < 10:
        sig = signature(["A", "B", "C"][: rng.randint(1, 3)], ["R", "S"][: rng.randint(0, 2)])
        onto = rand_ontology(rng, sig, rng.choice([DL_LITE_H, ELHIF_NF]), max_axioms=6)
        k = rng.randint(0, 3)
        bodies = [rand_eliq(rng, sig, max_size=3) for _ in range(k + 1)]
        raw = pathquery_from_ops(bodies, [rng.choice(["X", "F", "Fr"]) for _ in range(k)])
        if not all(reasoner(onto).query_satisfiable(b) for b in bodies):
            continue
        target = normalize(onto, raw)
        variant = ("depth", "nextdia", "safe")[len(jobs) % 3]
        if variant == "nextdia" and target.has_leq():
            variant = "depth"
        if variant == "safe" and is_safe(onto, target, 5) is not True:
            variant = "depth"
        depth = target.tdp if variant == "depth" else None
        config = LearnerConfig(variant=variant, depth=depth, frontier_bound=5, budget=20000)
        jobs.append(functools.partial(_learn, onto, target, config))
    return jobs


def _output(job):
    """What a job prints, or the name of the refusal it raises."""
    try:
        got = job()
    except TomqError as exc:
        return type(exc).__name__
    return got if type(got) is tuple else print_exampleset(got)


def test_threads_building_and_learning_agree_with_one_thread():
    """Example-set builds and learner runs, started cold in four threads
    that share reasoners and the slice-table and frontier memos."""
    jobs = _build_jobs() + _learn_jobs()
    expected = [_output(job) for job in jobs]
    clear_slice_tables()
    clear_reasoners()
    clear_frontier_cache()
    got = [[None] * len(jobs) for _ in range(THREADS)]
    errors = []

    def worker(n: int) -> None:
        idx = list(range(len(jobs)))
        random.Random(n).shuffle(idx)
        try:
            for i in idx:
                got[n][i] = _output(jobs[i])
        except Exception as exc:  # reported below, with the thread that raised it
            errors.append((n, repr(exc)))

    _run_threads(worker)
    assert not errors, errors[:5]
    assert sum(type(e) is tuple for e in expected) == 10
    assert sum(type(e) is str and e.startswith("#") for e in expected) >= 20
    wrong = [(n, i) for n in range(THREADS) for i, want in enumerate(expected) if got[n][i] != want]
    assert not wrong, f"{len(wrong)} outputs differ from one thread's, first {wrong[:5]}"
