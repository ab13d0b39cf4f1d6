"""The slice table and the bitset sequence matcher against the per-letter
matcher they replaced.

`reference_run` is that matcher, kept here as the reference: states are a
frozenset of pairs (i, pinned), and each slice's letter profile asks the
reasoner once per body and until filler, with the empty slice as the tail.
Over seeded random ontologies in all four dialects, `SequenceMatcher.run`,
`tentail` at every time point from 0 to `max_time + 2`, and the bits of the
slice table must all agree with it, also when a fresh table is read under
random masks in random orders, and on 100-slice instances like the
benchmark's, where the table fills only the slices a pass reaches and the
matcher asks only for what a state of the reference needs there. The
uniqueness check must give the same verdict, and the same witnesses in the
same order, as a candidate loop over the reference matcher.
"""
import random

from tomq.dl import (
    DIALECTS,
    DL_LITE_F,
    DL_LITE_H,
    ELHIF_NF,
    TOP_QUERY,
    Instance,
    Reasoner,
    atom,
    empty_ontology,
    instance,
    make_eliq,
    point_component,
    reasoner,
    signature,
)
from tomq.errors import TomqError
from tomq.tempchar import characterise_dia, characterise_until
from tomq.temporal.eval import (
    SLICE_TABLE_CACHE_SIZE,
    SequenceMatcher,
    SliceTable,
    clear_slice_tables,
    slice_table,
    tentail,
)
from tomq.temporal.model import (
    LEQ,
    SUC,
    example_set,
    flat_form,
    pathquery_from_ops,
    tinstance,
    untilquery,
)
from tomq.temporal.normal import is_safe, normalize
from tomq.verify import (
    EnumSpec,
    check_unique_characterisation,
    enum_queries,
    tequiv_bounded,
)

from helpers import rand_eliq, rand_instance, rand_long_slices, rand_ontology

SIG = signature(["A", "B", "C"], ["R"])
MAX_AXIOMS = 5  # larger ELHIF-NF draws can hit the witness step that never ends
CASES_PER_DIALECT = 150
BUILD_DRAWS = 64


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


def _domain(queries) -> list:
    """The bodies and until fillers of the queries, in a fixed order."""
    out = {}
    for q in queries:
        bodies, _, fillers = flat_form(q)
        out.update(dict.fromkeys(bodies))
        out.update(dict.fromkeys(f for f in fillers or () if f is not None))
    return list(out)


def _reference_bits(ref: Reasoner, dinst, b) -> int:
    return sum(
        1 << j
        for j in range(dinst.max_time + 2)
        if ref.certain_answer(dinst.slice_at(j), dinst.point, b)
    )


def _mask(rng: random.Random, future: int):
    """A read mask over slices 0..future: none, empty, one slice, a random
    set reaching past the future bit, a prefix, or every point from one on
    (a negative int, as `tentail` reads until fillers)."""
    kind = rng.randrange(6)
    if kind == 0:
        return None
    if kind == 1:
        return 0
    if kind == 2:
        return 1 << rng.randrange(future + 1)
    if kind == 3:
        return rng.getrandbits(future + 3)
    if kind == 4:
        return (1 << rng.randrange(future + 2)) - 1
    return -(1 << rng.randrange(future + 1))


def _masked_reads_wrong(rng: random.Random, table: SliceTable, wants: dict, reads: int) -> list:
    """Read `table` (fresh) with random masks in a random order of queries,
    by `bits` or by `lowest`, then every query in full by `bits`; the reads
    that differ from `wants[q] & mask`, or from its lowest bit."""
    wrong = []
    order = [rng.choice(list(wants)) for _ in range(reads)] + list(wants)
    for k, b in enumerate(order):
        mask = _mask(rng, table.future) if k < reads else None
        want = wants[b] if mask is None else wants[b] & mask
        if mask is not None and rng.random() < 0.5:
            got, want = table.lowest(b, mask), want & -want
        else:
            got = table.bits(b, mask)
        if got != want or (mask is None and not table.knows(b)):
            wrong.append((str(b), mask, bin(got), bin(want)))
    return wrong


def test_slice_table_bits_agree_with_reference():
    """In full, and read with random masks in random orders from a fresh
    table: `bits(q, mask)` is the full bits within the mask, and
    `lowest(q, mask)` their lowest bit."""
    clear_slice_tables()
    rng = random.Random(2203)
    wrong = []
    for cid, onto, dinst, queries in cases():
        ref = Reasoner(onto)
        table = slice_table(onto, dinst)
        wants = {b: _reference_bits(ref, dinst, b) for b in _domain(queries)}
        for b, want in wants.items():
            if table.bits(b) != want:
                wrong.append((cid, str(b), bin(table.bits(b)), bin(want)))
        unsat = any(not ref.is_satisfiable(s) for s in dinst.slices)
        if table.unsat != unsat:
            wrong.append((cid, "unsat", table.unsat, unsat))
        wrong += [(cid, *w) for w in _masked_reads_wrong(rng, SliceTable(onto, dinst), wants, 8)]
    assert not wrong, f"{len(wrong)} tables differ, first {wrong[:3]}"


# ------------------------------------------------------------ long instances

LONG_SIG = signature(["A", "B", "C"], ["R", "S"])
LONG_INDS = [f"i{k}" for k in range(20)]
LONG_CASES_PER_DIALECT = 20


def long_cases():
    """(case id, ontology, temporal instance, queries) on 100-slice,
    20-individual instances drawn as the benchmark's `answer` ops draw them:
    DL-Lite_H, DL-Lite_F and ELHIF-NF, a path query over X, F and Fr and
    an until query whose fillers are bottom a third of the time."""
    for d, dialect in enumerate((DL_LITE_H, DL_LITE_F, ELHIF_NF)):
        rng = random.Random(5527 + d)
        for k in range(LONG_CASES_PER_DIALECT):
            onto = rand_ontology(rng, LONG_SIG, dialect, max_axioms=MAX_AXIOMS)
            dinst = tinstance(rand_long_slices(rng, LONG_SIG, LONG_INDS, 100), LONG_INDS[0])
            n = rng.randint(2, 4)
            path = pathquery_from_ops(
                [rand_eliq(rng, LONG_SIG, max_size=3) for _ in range(n)],
                [rng.choice(["X", "F", "Fr"]) for _ in range(n - 1)],
            )
            steps = [
                (None if rng.random() < 0.3 else rand_eliq(rng, LONG_SIG, max_size=2),
                 rand_eliq(rng, LONG_SIG, max_size=3))
                for _ in range(rng.randint(1, 2))
            ]
            until = untilquery(rand_eliq(rng, LONG_SIG, max_size=3), steps)
            yield f"long/{dialect}/{k}", onto, dinst, (path, until)


def test_long_instances_agree_with_reference():
    """`tentail` at a few time points, `SequenceMatcher.run`, and masked
    reads of a fresh table, against the reference matcher and full bits."""
    clear_slice_tables()
    rng = random.Random(3319)
    wrong = []
    answers = set()
    for cid, onto, dinst, queries in long_cases():
        ref = Reasoner(onto)
        for q in queries:
            for ell in (0, rng.randrange(1, dinst.max_time), dinst.max_time + 1):
                want = reference_run(ref, q, dinst, ell)
                answers.add(want)
                if tentail(onto, dinst, ell, q) != want:
                    wrong.append((cid, str(q), "tentail", ell, want))
            if SequenceMatcher(onto, q).run(dinst) != reference_run(ref, q, dinst):
                wrong.append((cid, str(q), "run"))
        wants = {b: _reference_bits(ref, dinst, b) for b in _domain(queries)}
        wrong += [(cid, *w) for w in _masked_reads_wrong(rng, SliceTable(onto, dinst), wants, 12)]
    assert not wrong, f"{len(wrong)} answers differ, first {wrong[:3]}"
    assert answers == {True, False}


def test_a_first_body_failing_at_the_start_asks_little(monkeypatch):
    """When body 0 fails at the time point asked, `tentail` and
    `SequenceMatcher.run` (at time point 0) each ask the reasoner exactly
    one certain answer: body 0's at that point."""
    answer = Reasoner.certain_answer
    asked = []

    def counting(self, inst, point, q):
        asked.append((inst, q))
        return answer(self, inst, point, q)

    monkeypatch.setattr(Reasoner, "certain_answer", counting)
    seen = 0
    for cid, onto, dinst, queries in long_cases():
        ref = Reasoner(onto)
        if any(not ref.is_satisfiable(s) for s in dinst.slices):
            continue
        first = point_component(dinst.slices[0], dinst.point)
        for q in queries:
            head = flat_form(q)[0][0]
            if head.is_top or answer(ref, dinst.slices[0], dinst.point, head):
                continue
            seen += 1
            for holds in (lambda: tentail(onto, dinst, 0, q), lambda: SequenceMatcher(onto, q).run(dinst)):
                clear_slice_tables()
                asked.clear()
                assert not holds()
                assert asked == [(first, head)], (cid, str(q))
    assert seen >= 12


def _needed(r: Reasoner, q, dinst) -> tuple[bool, list[set]]:
    """`reference_run(r, q, dinst)`, and per slice that it steps through,
    the domain queries that some state there needs: a body that a state
    advances into, also across a `leq` from a body entered at that slice,
    and a filler that a state waits on. The needs of the empty future are
    gathered over every time it is stepped."""
    if any(not r.is_satisfiable(s) for s in dinst.slices):
        return True, []
    bodies, rels, fillers = parts = flat_form(q)
    final = len(bodies) - 1
    empty = Instance(dinst.slices[0].individuals)
    needs = [set() for _ in range(dinst.max_time + 2)]
    states = None
    for j, letter in enumerate(list(dinst.slices) + [empty] * (final + 2)):
        if states is not None and any(i == final for i, _ in states):
            break
        profile = _profile(r, parts, letter, dinst.point)
        need = needs[min(j, dinst.max_time + 1)]
        if states is None:
            need.add(bodies[0])
            states = _close_leq(parts, {(0, True)}, profile[0]) if 0 in profile[0] else frozenset()
        else:
            for i, pinned in states:
                if i < final and (pinned or rels[i] != SUC):
                    need.add(bodies[i + 1])
                if fillers and i < final and fillers[i] is not None:
                    need.add(fillers[i])
            states = _step(parts, states, profile)
        need |= {bodies[i + 1] for i, pinned in states if pinned and i < final and rels[i] == LEQ}
    return any(i == final for i, _ in states), needs


def test_matcher_reads_only_what_a_state_needs():
    """Every (domain query, slice) pair that `SequenceMatcher.run` asks of a
    fresh table on the long instances is one that the eager reference,
    stepped alongside, needed there; and many of the pairs that an eager
    read of each slice it steps through would ask are skipped."""
    extra, skipped = [], 0
    for cid, onto, dinst, queries in long_cases():
        ref = Reasoner(onto)
        for q in queries:
            table = SliceTable(onto, dinst)
            asked, bits = set(), table.bits
            table.bits = lambda b, mask: asked.add((b, mask.bit_length() - 1)) or bits(b, mask)
            matcher = SequenceMatcher(onto, q)
            holds, needs = _needed(ref, q, dinst)
            assert matcher.run(dinst, table=table) == holds, (cid, str(q))
            extra += [(cid, str(q), str(b), j) for b, j in asked if b not in needs[j]]
            # an eager read asks every body and filler at each slice it reads
            skipped += len({j for _, j in asked}) * len(set(matcher.asked)) - len(asked)
    assert not extra, f"{len(extra)} reads no state needed, first {extra[:3]}"
    assert skipped >= 900, skipped  # 955 with these seeds


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
        if not tequiv_bounded(onto, cand, q):
            witnesses.append(str(cand))
    return not witnesses, witnesses


def _builds():
    """Seeded example-set builds in the four modes over signature {A, B, C},
    at temporal depth 1 and 2, over the empty ontology and small ones with
    role axioms, each checked with a witness cut of 1 or 3: (mode, ontology,
    query, examples, spec). Bodies have size 2 at most, and until sets of
    depth 2 are checked against bodies of size 1."""
    rng = random.Random(8117)
    names = ["A", "B", "C"]
    sig = signature(names)
    role_sig = signature(names, ["R"])

    def body():
        return make_eliq(sorted(rng.sample(names, rng.randint(1, 2))))

    out = []
    for k in range(BUILD_DRAWS):
        if k % 2:
            onto = rand_ontology(rng, role_sig, rng.choice([DL_LITE_H, ELHIF_NF]), max_axioms=3)
        else:
            onto = empty_ontology(sig)
        r = reasoner(onto)
        mode = ("safe", "depth", "nextdia", "until")[k // 2 % 4]
        depth = 1 + k // 8 % 2
        cut = (1, 3)[k // 16 % 2]
        if mode == "until":
            # the reference loop takes seconds on an until set of depth 2
            # (some 570 negatives), even over the 4 bodies of size 1: such
            # sets are drawn only in the first half and checked at size 1
            if k >= BUILD_DRAWS // 2:
                depth = 1
            head = body()
            q = untilquery(head, [(None if rng.random() < 0.4 else body(), body()) for _ in range(depth)])
            if r.trivial(q.targets()[-1]) or not all(r.query_satisfiable(b) for b in q.targets()):
                continue
            try:
                es = characterise_until(onto, q, sig)
            except TomqError:  # the builder's guards; not what is compared here
                continue
            out.append((mode, onto, q, es, EnumSpec(sig, "until", 3 - depth, q.depth, cut)))
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
        out.append((mode, onto, q, es, EnumSpec(sig, qclass, 2, nq.tdp, cut)))
    return out


def test_uniqueness_verdicts_agree_with_reference_loop():
    """Every build, and the same build with its negatives dropped, which ⊤
    then fits, so that it is not unique."""
    builds = _builds()
    assert {b[0] for b in builds} == {"safe", "depth", "nextdia", "until"}
    outcomes = set()
    for mode, onto, q, es, spec in builds:
        for examples in (es, example_set(es.positives, [])):
            verdict = check_unique_characterisation(onto, q, examples, spec)
            got = (verdict.passed, [
                w[0] if isinstance(w, tuple) else str(w) for w in verdict.witnesses
            ])
            assert got == reference_unique(onto, q, examples, spec), (mode, str(q))
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
