"""Threads sharing one `Reasoner` get the answers one thread gets.

Each reasoning call keeps its fixpoint state to itself and publishes only
final values to the reasoner's caches, so concurrent calls may repeat work
but must neither fail nor cache a wrong answer.
"""
import random
import sys
import threading

from tomq.dl import DIALECTS, Reasoner, signature

from helpers import rand_eliq, rand_ontology

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
        order = random.Random(n)
        try:
            for k, (_, pairs) in enumerate(work):
                idx = list(range(len(pairs)))
                order.shuffle(idx)
                for i in idx:
                    got[n][k][i] = shared[k].contains(*pairs[i])
        except Exception as exc:  # reported below, with the thread that raised it
            errors.append((n, repr(exc)))

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
    assert not errors, errors[:5]
    wrong = [
        (n, k, i)
        for n in range(THREADS)
        for k, row in enumerate(expected)
        for i, want in enumerate(row)
        if got[n][k][i] != want
    ]
    assert not wrong, f"{len(wrong)} answers differ from one thread's, first {wrong[:5]}"
