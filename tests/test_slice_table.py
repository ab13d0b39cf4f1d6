"""The slice table and the bitset sequence matcher against the per-letter
matcher they replaced.

`reference_run` is that matcher, kept here as the reference: states are a
frozenset of pairs (i, pinned), and each slice's letter profile asks the
reasoner once per body and until filler, with the empty slice as the tail.
Over seeded random ontologies in all four dialects, `SequenceMatcher.run`,
`tentail` at every time point from 0 to `max_time + 2`, and the bits of the
slice table must all agree with it. The uniqueness check must give the same
verdict, and the same witnesses in the same order, as a candidate loop over
the reference matcher.
"""
import random

from tomq.dl import (
    DIALECTS,
    DL_LITE_H,
    ELHIF_NF,
    TOP_QUERY,
    Instance,
    Reasoner,
    atom,
    empty_ontology,
    instance,
    make_eliq,
    reasoner,
    signature,
)
from tomq.errors import TomqError
from tomq.tempchar import characterise_dia, characterise_until
from tomq.temporal.eval import (
    SLICE_TABLE_CACHE_SIZE,
    SequenceMatcher,
    clear_slice_tables,
    slice_table,
    tentail,
)
from tomq.temporal.model import LEQ, SUC, flat_form, pathquery_from_ops, tinstance, untilquery
from tomq.temporal.normal import is_safe, normalize
from tomq.verify import (
    EnumSpec,
    _default_length_bound,
    check_unique_characterisation,
    enum_queries,
    tequiv_bounded,
)

from helpers import rand_eliq, rand_instance, rand_ontology

SIG = signature(["A", "B", "C"], ["R"])
MAX_AXIOMS = 5  # larger ELHIF-NF draws can hit the witness step that never ends
CASES_PER_DIALECT = 150


# ------------------------------------------------------------- the reference

def _profile(r: Reasoner, parts, inst: Instance, point: str):
    bodies, _, fillers = parts
    sat_bodies = frozenset(i for i, b in enumerate(bodies) if r.certain_answer(inst, point, b))
    sat_fillers = frozenset(
        i for i, f in enumerate(fillers or ())
        if f is not None and r.certain_answer(inst, point, f)
    )
    return sat_bodies, sat_fillers


def _close_leq(parts, states: set, sat_bodies) -> frozenset:
    bodies, rels, fillers = parts
    final = len(bodies) - 1
    changed = fillers is None
    while changed:
        changed = False
        for i, pinned in list(states):
            if pinned and i < final and rels[i] == LEQ and (i + 1) in sat_bodies:
                if (i + 1, True) not in states:
                    states.add((i + 1, True))
                    changed = True
    return frozenset(states)


def _step(parts, states: frozenset, profile) -> frozenset:
    bodies, rels, fillers = parts
    final = len(bodies) - 1
    sat_bodies, sat_fillers = profile
    new: set = set()
    for i, pinned in states:
        if i < final and (i + 1) in sat_bodies and (pinned or rels[i] != SUC):
            new.add((i + 1, True))
        if fillers is None or i == final or (fillers[i] is not None and i in sat_fillers):
            new.add((i, False))
    return _close_leq(parts, new, sat_bodies)


def reference_run(r: Reasoner, q, dinst, ell: int = 0) -> bool:
    """q holds at time point ell of dinst, by the per-letter matcher."""
    if any(not r.is_satisfiable(s) for s in dinst.slices):
        return True
    parts = flat_form(q)
    final = len(parts[0]) - 1
    empty = Instance(dinst.slices[0].individuals)
    letters = [_profile(r, parts, s, dinst.point) for s in dinst.slices[ell:]]
    tail = _profile(r, parts, empty, dinst.point)
    first, rest = (letters[0], letters[1:]) if letters else (tail, [])
    states = _close_leq(parts, {(0, True)}, first[0]) if 0 in first[0] else frozenset()
    for p in rest + [tail] * (final + 2):
        if any(i == final for i, _ in states):
            return True
        states = _step(parts, states, p)
    return any(i == final for i, _ in states)


# ----------------------------------------------------------------- the cases

def _body(rng: random.Random):
    if rng.random() < 0.2:
        return TOP_QUERY
    return rand_eliq(rng, SIG, max_size=2)


def cases():
    """(case id, ontology, temporal instance, queries), seeded per dialect:
    a path query over X, F and Fr (Fr drawn twice as often, so that chains
    of now-or-later steps appear), an until query whose fillers are bottom
    about half the time, and a bare ELIQ."""
    for d, dialect in enumerate(DIALECTS):
        rng = random.Random(4409 + d)
        for k in range(CASES_PER_DIALECT):
            onto = rand_ontology(rng, SIG, dialect, max_axioms=MAX_AXIOMS)
            slices = [rand_instance(rng, SIG, max_inds=2, max_atoms=6) for _ in range(rng.randint(1, 4))]
            dinst = tinstance(slices, "i0")
            n = rng.randint(1, 4)
            path = pathquery_from_ops(
                [_body(rng) for _ in range(n)],
                [rng.choice(["X", "F", "Fr", "Fr"]) for _ in range(n - 1)],
            )
            steps = [
                (None if rng.random() < 0.5 else _body(rng), _body(rng))
                for _ in range(rng.randint(1, 3))
            ]
            until = untilquery(_body(rng), steps)
            yield f"{dialect}/{k}", onto, dinst, (path, until, rand_eliq(rng, SIG, 4))


def test_matcher_and_tentail_agree_with_reference():
    clear_slice_tables()
    wrong = []
    for cid, onto, dinst, queries in cases():
        ref = Reasoner(onto)
        for q in queries:
            want = [reference_run(ref, q, dinst, ell) for ell in range(dinst.max_time + 3)]
            got = [tentail(onto, dinst, ell, q) for ell in range(dinst.max_time + 3)]
            if got != want:
                wrong.append((cid, str(q), "tentail", got, want))
            if SequenceMatcher(onto, q).run(dinst) != want[0]:
                wrong.append((cid, str(q), "run", not want[0], want[0]))
    assert not wrong, f"{len(wrong)} answers differ, first {wrong[:3]}"


def test_slice_table_bits_agree_with_reference():
    clear_slice_tables()
    wrong = []
    for cid, onto, dinst, queries in cases():
        ref = Reasoner(onto)
        table = slice_table(onto, dinst)
        domain = set()
        for q in queries:
            bodies, _, fillers = flat_form(q)
            domain.update(bodies)
            domain.update(f for f in fillers or () if f is not None)
        for b in domain:
            want = sum(
                1 << j
                for j in range(dinst.max_time + 2)
                if ref.certain_answer(dinst.slice_at(j), dinst.point, b)
            )
            if table.bits(b) != want:
                wrong.append((cid, str(b), bin(table.bits(b)), bin(want)))
        unsat = any(not ref.is_satisfiable(s) for s in dinst.slices)
        if table.unsat != unsat:
            wrong.append((cid, "unsat", table.unsat, unsat))
    assert not wrong, f"{len(wrong)} tables differ, first {wrong[:3]}"


# --------------------------------------------------------- uniqueness verdicts

def reference_unique(onto, q, examples, spec) -> tuple[bool, list[str]]:
    """The candidate loop of `check_unique_characterisation` over the
    reference matcher, on a reasoner of its own."""
    ref = Reasoner(onto)
    if not (
        all(reference_run(ref, q, d) for d in examples.positives)
        and not any(reference_run(ref, q, d) for d in examples.negatives)
    ):
        return False, ["target-does-not-fit"]
    witnesses = []
    for cand in enum_queries(spec):
        if len(witnesses) >= spec.max_witnesses:
            break
        if not all(reference_run(ref, cand, d) for d in examples.positives):
            continue
        if any(reference_run(ref, cand, d) for d in examples.negatives):
            continue
        if not tequiv_bounded(onto, cand, q, _default_length_bound(q)):
            witnesses.append(str(cand))
    return not witnesses, witnesses


def _builds():
    """Seeded example-set builds in the four modes, over the empty ontology
    and small concept-only ones: (mode, ontology, query, examples, spec)."""
    rng = random.Random(8117)
    names = ["A", "B"]
    sig = signature(names)

    def body():
        return make_eliq(sorted(rng.sample(names, rng.randint(1, 2))))

    out = []
    for k in range(128):
        if k % 2:
            onto = rand_ontology(rng, sig, rng.choice([DL_LITE_H, ELHIF_NF]), max_axioms=3)
        else:
            onto = empty_ontology(sig)
        r = reasoner(onto)
        mode = ("safe", "depth", "nextdia", "until")[k // 2 % 4]
        depth = 1 + k // 8 % 2
        if mode == "until":
            q = untilquery(body(), [(None if rng.random() < 0.4 else body(), body())])
            if r.trivial(q.targets()[-1]) or not all(r.query_satisfiable(b) for b in q.targets()):
                continue
            try:
                es = characterise_until(onto, q, sig)
            except TomqError:  # the builder's guards; not what is compared here
                continue
            out.append((mode, onto, q, es, EnumSpec(sig, "until", 2, q.depth)))
            continue
        q = pathquery_from_ops([body() for _ in range(depth + 1)],
                               [rng.choice(["X", "F", "Fr"]) for _ in range(depth)])
        if not all(r.query_satisfiable(b) for b in q.bodies()):
            continue
        nq = normalize(onto, q)
        if mode == "safe" and is_safe(onto, nq, 6) is not True:
            continue
        if mode == "nextdia" and nq.has_leq():
            continue
        es = characterise_dia(onto, q, sig, mode=("depth", nq.tdp) if mode == "depth" else (mode,))
        qclass = "nextdia" if mode == "nextdia" else "dia"
        out.append((mode, onto, q, es, EnumSpec(sig, qclass, 2, nq.tdp)))
    return out


def test_uniqueness_verdicts_agree_with_reference_loop():
    builds = _builds()
    assert {b[0] for b in builds} == {"safe", "depth", "nextdia", "until"}
    outcomes = set()
    for mode, onto, q, es, spec in builds:
        verdict = check_unique_characterisation(onto, q, es, spec)
        got = (verdict.passed, [
            w[0] if isinstance(w, tuple) else str(w) for w in verdict.witnesses
        ])
        assert got == reference_unique(onto, q, es, spec), (mode, str(q))
        outcomes.add(verdict.passed)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------- memo

A = atom("A")


def _dinst(length: int):
    return tinstance([instance(["a"], [("A", "a")])] * length, "a")


def test_slice_table_memo_shared_bounded_and_cleared():
    info = slice_table.cache_info
    assert info().maxsize == SLICE_TABLE_CACHE_SIZE
    onto = empty_ontology(signature(["A"]))
    clear_slice_tables()
    first = slice_table(onto, _dinst(2))
    assert slice_table(onto, _dinst(2)) is first  # an equal instance shares it
    assert first.bits(A) == 0b011
    for length in range(1, SLICE_TABLE_CACHE_SIZE + 6):
        slice_table(onto, _dinst(length))
    assert info().currsize == SLICE_TABLE_CACHE_SIZE
    clear_slice_tables()
    assert info().currsize == 0
    again = slice_table(onto, _dinst(2))
    assert again is not first and again.bits(A) == first.bits(A)
