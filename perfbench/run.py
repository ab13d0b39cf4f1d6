"""tomq benchmark: seeded learn, characterise and answer workloads.

One run measures one workload in a fresh interpreter:

    python3 perfbench/run.py --workload learn --seed 1 --seconds 20 --trace 0

It prints one line per metric and, as its last line, a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The line before it,
starting with `# info`, carries what is recorded but not gated.

    python3 perfbench/run.py --workload all --seed 1

runs every workload untraced and traced, each in its own interpreter, prints
the end-to-end table, the leading layers and the tracing overhead, and
writes them to perfbench/out/BENCH_seed<seed>.json (or --out).

Load model: a closed loop with one client. One thread calls the library,
each call waiting for the previous one, and every run starts in a fresh
interpreter so the process-global reasoner registry starts cold, as it does
on each CLI call. `learn` goes further: each of its ops runs in a forked
child of the set-up process, so every learner run starts cold and can be
repeated; one child runs at a time and is waited for. See
perfbench/README.md for the workloads, the metrics and which layer should
move which metric.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("learn", "characterise", "answer")
# fresh interpreters timed for setup_s, whose median is reported: at least
# the first number, and more, up to the second, while the probes so far took
# less than SETUP_BUDGET_S (short set-ups are the noisy ones)
SETUP_PROBES = (3, 9)
SETUP_BUDGET_S = 3.0
RUN_CAP_S = 120.0         # no op starts after this long, so a run ends within 180 s
RUN_GRACE_S = 5.0         # a forked op's child is killed this long after its deadline
CAL_LOOPS = 40000         # HostSpeed sample around each op
CAL_REF_S = 0.0045        # its time on the reference host at full speed
PROBE_LOOPS = 2000        # HostSpeed sample inside an op
PROBE_EVERY_S = 0.005     # of process CPU time between samples inside an op
DEADLINE_S = {"learn": 30.0, "characterise": 20.0, "answer": 20.0}
# workloads whose ops each run in a forked child, and how many times
FORKED = {"learn": 3}
LEARN_OP_CAP_S = 0.6      # learn takes only the corpus runs up to this reference time
# ops per second on the reference host (see README.md); sets the length of
# the fixed op list so that a run measures about --seconds of work
NOMINAL_RATE = {"characterise": 24.0, "answer": 25.0}

# acceptance 7's bounds, frozen from its corpus
MEMBERSHIP_C = 0.25
QUERY_SIZE_C = 0.3

PASS = "ok"
# failures that count in `failed` without making the run incorrect: the
# characterisation builder's known non-unique sets, and ops stopped by the
# deadline (or skipped because an earlier op on their ontology was)
KNOWN_FAILURES = ("nonunique", "deadline", "interrupted-ontology")


class Deadline(BaseException):
    """Raised from the alarm handler; a BaseException so that no handler
    inside the library swallows it."""


def _on_alarm(signum, frame):
    raise Deadline()


def import_library():
    """Import tomq from this checkout's src/, or exit non-zero without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import tomq
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tomq from {ROOT / 'src'}: {exc}")
    if Path(tomq.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        sys.exit(f"perfbench: tomq resolved to {tomq.__file__}, not this checkout's src/")


# ------------------------------------------------------------- workloads

@dataclass
class Op:
    onto: object
    payload: object


def learn_pool() -> dict:
    path = HERE / "learn_pool.json"
    if not path.is_file():
        sys.exit(f"perfbench: missing {path}")
    return json.loads(path.read_text())


def build_learn(seed: int, seconds: float) -> list[Op]:
    """A fixed slice of acceptance 7's corpus, in a fixed order.

    Every op has a stored baseline in learn_pool.json, which only a fixed
    corpus can have. The slice takes the runs whose reference time is at
    most LEARN_OP_CAP_S in stride-4 order (the 0th, 4th, 8th, ..., then the
    1st, 5th, ...) until their reference times, over the rounds each op is
    run, reach --seconds, and at least 20 ops; refusals are included. The
    seed is not used: learner runs cost from 1 ms to 7 s, a seed-drawn
    subset moved the median op time by 15-50 % between seeds, and the
    longer runs are too few to repeat. The cap keeps runs in which the
    frontier enumeration still leads (domainchar.path_probes takes a third
    of their self time, as it does in the longer runs)."""
    import gen

    pool = learn_pool()
    short = [e for e in pool["ops"] if e["ref_s"] <= LEARN_OP_CAP_S]
    order = [short[i] for start in range(4) for i in range(start, len(short), 4)]
    chosen, budget = [], 0.0
    for entry in order:
        if budget * FORKED["learn"] >= seconds and len(chosen) >= 20:
            break
        chosen.append(entry)
        budget += entry["ref_s"]
    cases = {c.draw: c for c in itertools.islice(gen.learn_cases(), pool["kept_draws"])}
    ops = []
    for entry in chosen:
        case = cases[entry["draw"]]
        if case.digest != entry["case"]:
            sys.exit(f"perfbench: draw {entry['draw']} no longer matches learn_pool.json")
        ops.append(Op(case.onto, (case, entry)))
    return ops


def build_characterise(seed: int, seconds: float) -> list[Op]:
    import gen

    count = max(20, round(NOMINAL_RATE["characterise"] * seconds))
    return [Op(op.onto, op) for op in gen.characterise_ops(seed, count)]


def build_answer(seed: int, seconds: float) -> list[Op]:
    import gen

    count = max(20, round(NOMINAL_RATE["answer"] * seconds))
    return [Op(op.onto, op) for op in gen.answer_ops(seed, count)]


def transcript_digest(teacher) -> str:
    from tomq.textio import print_transcript

    return hashlib.sha256(print_transcript(teacher.transcript).encode()).hexdigest()[:16]


def run_learn(payload) -> tuple[float, str]:
    """One Learner(...).run(initial); the output is checked against the
    target and acceptance 7's bounds, then against the stored baseline."""
    from tomq.errors import UnsupportedDialect
    from tomq.learn import Learner, LearnerConfig, Teacher
    from tomq import verify

    case, expected = payload
    q, O = case.target, case.onto
    teacher = Teacher(O, q, budget=20000)
    config = LearnerConfig(
        variant=expected["variant"], depth=expected["depth"], frontier_bound=5, budget=20000
    )
    t0 = time.perf_counter()
    learner = Learner(O, teacher, config)
    try:
        learned = learner.run(case.initial)
    except UnsupportedDialect:
        learned = None
    elapsed = time.perf_counter() - t0
    if expected["outcome"] == "unsupported":
        return elapsed, PASS if learned is None else "learned-where-baseline-refused"
    if learned is None:
        return elapsed, "refused-where-baseline-learned"
    if not verify.tequiv_bounded(O, learned, q, (q.tdp + 1) * (q.strict_count + 2)):
        return elapsed, "not-equivalent"
    measure = case.measure
    if (
        teacher.membership_count > MEMBERSHIP_C * measure
        or teacher.max_query_size > QUERY_SIZE_C * measure
        or learner.rule_a_commits > MEMBERSHIP_C * measure
    ):
        return elapsed, "over-bound"
    counts = [n for _, _, n in teacher.transcript]
    if counts != sorted(counts):
        return elapsed, "transcript-order"
    got = (teacher.membership_count, teacher.max_query_size, transcript_digest(teacher))
    want = (expected["membership"], expected["max_query_size"], expected["transcript"])
    return elapsed, PASS if got == want else "baseline-mismatch"


def run_characterise(op) -> tuple[float, str]:
    """One example-set build plus its bounded uniqueness check."""
    from tomq import tempchar, verify

    spec = verify.EnumSpec(op.sig, op.qclass, size_bound=2, depth_bound=op.depth_bound)
    t0 = time.perf_counter()
    if op.mode[0] == "until":
        es = tempchar.characterise_until(op.onto, op.query, op.sig)
    else:
        es = tempchar.characterise_dia(op.onto, op.query, op.sig, mode=op.mode)
    verdict = verify.check_unique_characterisation(op.onto, op.query, es, spec)
    elapsed = time.perf_counter() - t0
    if verdict.passed:
        return elapsed, PASS
    first = verdict.witnesses[0]
    if isinstance(first, tuple) and first[0] == "target-does-not-fit":
        return elapsed, "set-does-not-fit"
    return elapsed, "nonunique"


def run_answer(op) -> tuple[float, str]:
    """One query on one long instance, answered by the entailment evaluator
    and by the sequence matcher; the two must agree."""
    from tomq.temporal import eval as teval

    t0 = time.perf_counter()
    by_eval = teval.tentail(op.onto, op.dinst, 0, op.query)
    by_matcher = teval.SequenceMatcher(op.onto, op.query).run(op.dinst)
    elapsed = time.perf_counter() - t0
    return elapsed, PASS if by_eval == by_matcher else "evaluator-matcher-disagree"


BUILD = {"learn": build_learn, "characterise": build_characterise, "answer": build_answer}
EXECUTE = {"learn": run_learn, "characterise": run_characterise, "answer": run_answer}


# ------------------------------------------------------------- op loop

_CAL_TABLE = {i: i * 7919 for i in range(1024)}


class HostSpeed:
    """Samples how fast the host runs a fixed pure-Python loop, so that op
    and setup times can be scaled to the reference host's speed.

    On the 2-core reference VM the interpreter ran at two speeds 1.6x apart,
    switching every few seconds, and the same inputs moved by a quarter from
    run to run. A sample is taken around every op and, from a SIGPROF timer,
    every PROBE_EVERY_S of CPU time inside it; an op's time is scaled by the
    reference loop cost over the mean loop cost of the samples from the one
    before it to the one after it, and the samples inside it are not op
    time. Sampling every 5 ms rather than every 20 ms halved what was left
    of the noise on `learn`; a loop over a 1M-entry list, to follow the
    host's memory speed, tracked the library worse. The loop allocates no
    tracked objects, so it neither triggers nor absorbs the library's
    garbage collections."""

    def __init__(self):
        self.loops: list[int] = []
        self.seconds: list[float] = []
        self.starts: list[float] = []
        self._sampling = False

    def sample(self, loops: int = CAL_LOOPS) -> float:
        table = _CAL_TABLE
        acc = 0
        t0 = time.perf_counter()
        for i in range(loops):
            acc ^= table[i & 1023] + i
        elapsed = time.perf_counter() - t0
        self.loops.append(loops)
        self.seconds.append(elapsed)
        self.starts.append(t0)
        return elapsed

    def _on_prof(self, signum, frame):
        # the timer counts the handler's own CPU time; on a host slow enough
        # for a sample to outlast PROBE_EVERY_S it must not nest
        if not self._sampling:
            self._sampling = True
            self.sample(PROBE_LOOPS)
            self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scale(self, first: int) -> float:
        """Reference over observed loop cost for the samples from index
        `first` to the last one."""
        return CAL_REF_S / CAL_LOOPS * sum(self.loops[first:]) / sum(self.seconds[first:])

    def net(self, first: int, t0: float, elapsed: float) -> float:
        """`elapsed` seconds from `t0` less the samples taken inside them
        (from index `first` on), so the sampler does not count as op time."""
        end = t0 + elapsed
        return elapsed - sum(s for t, s in zip(self.starts[first:], self.seconds[first:])
                             if t0 <= t < end)


def run_ops(ops: list[Op], execute, deadline_s: float, cap_s: float = RUN_CAP_S):
    """Run ops in order under a per-op alarm. Returns, per attempted op, its
    wall seconds, the host-speed scale for them and its outcome, and the
    loop's wall time. An op past its deadline fails; so does every later op
    on its ontology, because an interrupted reasoner can keep partial
    fixpoint state."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    interrupted = set()
    results: list[tuple[float | None, float | None, str]] = []
    loop_start = time.perf_counter()
    speed = HostSpeed()
    speed.sample()
    try:
        with speed:
            for op in ops:
                used = time.perf_counter() - loop_start
                if used >= cap_s:
                    break
                if op.onto in interrupted:
                    results.append((None, None, "interrupted-ontology"))
                    continue
                first = len(speed.loops) - 1
                t0 = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, min(deadline_s, cap_s - used + 1.0))
                try:
                    elapsed, outcome = execute(op.payload)
                except Deadline:
                    elapsed, outcome = time.perf_counter() - t0, "deadline"
                    interrupted.add(op.onto)
                except Exception as exc:  # a failing op is recorded, the run goes on
                    elapsed, outcome = time.perf_counter() - t0, f"error:{type(exc).__name__}"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                speed.sample()
                results.append((speed.net(first, t0, elapsed), speed.scale(first), outcome))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return results, time.perf_counter() - loop_start


def _forked_child(execute, payload, deadline_s: float, after, out_fd: int) -> None:
    """Body of the child in run_forked: run the op under its alarm and the
    host-speed sampler, write [seconds, scale, outcome, after()] as JSON and
    exit without running the parent's cleanup."""
    try:
        signal.signal(signal.SIGALRM, _on_alarm)
        speed = HostSpeed()
        speed.sample()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            with speed:
                elapsed, outcome = execute(payload)
        except Deadline:
            elapsed, outcome = time.perf_counter() - t0, "deadline"
        except Exception as exc:  # a failing op is recorded, the run goes on
            elapsed, outcome = time.perf_counter() - t0, f"error:{type(exc).__name__}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        speed.sample()
        report = [speed.net(0, t0, elapsed), speed.scale(0), outcome, after() if after else None]
    except BaseException as exc:
        report = [None, None, f"error:{type(exc).__name__}", None]
    data = json.dumps(report).encode()
    while data:
        data = data[os.write(out_fd, data):]
    os._exit(0)


def run_forked(execute, payload, deadline_s: float, after=None) -> list:
    """Run one op in a forked child of this process and wait for it.

    Every op then starts from the state this process had after set-up: the
    reasoner registry is cold, as on a CLI call, and a repeat of an op does
    the same work as its first run. Returns the child's [wall seconds,
    host-speed scale, outcome, after()]; a child that outlives its deadline
    by RUN_GRACE_S is killed and its op fails."""
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _forked_child(execute, payload, deadline_s, after, wfd)
    os.close(wfd)
    chunks, killed = [], False
    end = time.monotonic() + deadline_s + RUN_GRACE_S
    try:
        while True:
            left = end - time.monotonic()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            if select.select([rfd], [], [], left)[0]:
                chunk = os.read(rfd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if killed:
        return [None, None, "deadline", None]
    if code != 0 or not chunks:
        return [None, None, f"error:child-exit-{code}", None]
    return json.loads(b"".join(chunks))


def run_rounds(ops: list[Op], execute, deadline_s: float, rounds: int, after=None,
               cap_s: float = RUN_CAP_S):
    """Run every op `rounds` times, each run in a forked child (run_forked),
    a whole round of the list before the next, so that the repeats of an op
    are spread over the run rather than caught in one state of the host. An
    op that fails is not repeated. Returns, per op, the list of its runs
    and the loop's wall time."""
    gc.collect()
    gc.freeze()   # the children neither scan nor copy the set-up heap
    runs: list[list[list]] = [[] for _ in ops]
    loop_start = time.perf_counter()
    try:
        for _ in range(rounds):
            for i, op in enumerate(ops):
                used = time.perf_counter() - loop_start
                if used >= cap_s:
                    return runs, time.perf_counter() - loop_start
                if runs[i] and runs[i][-1][2] != PASS:
                    continue
                runs[i].append(run_forked(execute, op.payload,
                                          min(deadline_s, cap_s - used + 1.0), after))
    finally:
        gc.unfreeze()
    return runs, time.perf_counter() - loop_start


# ------------------------------------------------------------- metrics

TAIL_BAND = (85, 95)


def tail_band(times: list[float]) -> tuple[float, int]:
    """The mean of the op times ranked from the 85th to the 95th percentile
    (at least one), and how many that is. One order statistic near the
    90th moved by 15 % between seeds on `characterise`, where the tail is
    sparse; the band mean of its ~50 ops by 4 %. The top 5 % are left out:
    on `answer` they are the ten or so ops that absorb a full garbage
    collection of every earlier op's caches."""
    xs = sorted(times)
    lo, hi = (len(xs) * p // 100 for p in TAIL_BAND)
    lo = min(lo, len(xs) - 1)
    band = xs[lo:max(hi, lo + 1)]
    return statistics.fmean(band), len(band)


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )


def probe_setup(args) -> tuple[list[float], list[float]]:
    """Host-scaled and wall seconds of fresh interpreters that import the
    library and build this run's inputs, then exit. Each probe samples the
    host's speed while it builds and reports the samples on its last line;
    they scale its time, with the parent's samples taken around it, and do
    not count as set-up time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    scaled, wall = [], []
    least, most = SETUP_PROBES
    while len(wall) < least or (len(wall) < most and sum(wall) < SETUP_BUDGET_S):
        speed = HostSpeed()
        speed.sample()
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - t0
        speed.sample()
        if done.returncode != 0:
            sys.exit(f"perfbench: setup probe failed: {done.stderr.decode()[-500:]}")
        loops, seconds = json.loads(done.stdout.decode().splitlines()[-1])
        speed.loops.append(loops)
        speed.seconds.append(seconds)
        wall.append(elapsed - seconds)
        scaled.append(wall[-1] * speed.scale(0))
    return scaled, wall


def setup_probe(args) -> int:
    """The child of probe_setup: build the inputs under the host-speed
    sampler and print the samples' total loops and seconds."""
    speed = HostSpeed()
    with speed:
        import_library()
        BUILD[args.workload](args.seed, args.seconds)
    print(json.dumps([sum(speed.loops), sum(speed.seconds)]))
    return 0


def run_workload(args) -> int:
    import_library()
    setup_scaled, setup_wall = ([], []) if args.trace else probe_setup(args)
    ops = BUILD[args.workload](args.seed, args.seconds)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    deadline = DEADLINE_S[args.workload]
    layer_reports = []
    if args.workload in FORKED:
        # the traced run only needs one pass; each child reports its layers
        after = tracer.counters if tracer else None
        rounds = 1 if tracer else FORKED[args.workload]
        runs, loop_wall = run_rounds(ops, EXECUTE[args.workload], deadline, rounds, after=after)
        layer_reports = [run[3] for op_runs in runs for run in op_runs if run[3] is not None]
        runs = [[run[:3] for run in op_runs] for op_runs in runs]
    else:
        results, loop_wall = run_ops(ops, EXECUTE[args.workload], deadline)
        runs = [[result] for result in results]
        rounds = 1
    flat = [run for op_runs in runs for run in op_runs]
    if not flat:
        sys.exit("perfbench: no op ran")

    outcomes = Counter(outcome for _, _, outcome in flat)
    attempted = len(flat)
    failed = attempted - outcomes[PASS]
    correct = all(o == PASS or o in KNOWN_FAILURES for o in outcomes)
    timed = [(t, scale) for t, scale, _ in flat if t is not None]
    # an op's time is the median of its runs; only forked ops have several
    op_times, op_wall = [], []
    for op_runs in runs:
        done = [(t, scale) for t, scale, _ in op_runs if t is not None]
        if done:
            op_times.append(statistics.median(t * scale for t, scale in done))
            op_wall.append(statistics.median(t for t, _ in done))
    tail, tail_n = tail_band(op_times)
    # forked ops run in children; set-up probes are children too, but smaller
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_listed": len(ops),
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "outcomes": dict(sorted(outcomes.items())),
        "tail_band": list(TAIL_BAND),
        "tail_samples": tail_n,
        "timed_samples": len(op_times),
        "loop_wall_s": loop_wall,
        "round_wall_s": loop_wall / rounds,
        "setup_samples_s": setup_scaled,
        "host_speed": statistics.median(scale for _, scale in timed),
        "wall": {
            "ops_per_s": len(timed) / sum(t for t, _ in timed),
            "op_p50_s": statistics.median(op_wall),
            "op_tail_s": tail_band(op_wall)[0],
            "setup_s": statistics.median(setup_wall) if setup_wall else None,
        },
        "src_lines": src_lines(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "traced": bool(args.trace),
    }
    if tracer is None:
        metrics = {
            "ops_per_s": (len(timed) / sum(t * scale for t, scale in timed), "1/s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "op_tail_s": (tail, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_scaled), "s"),
        }
    else:
        import spans

        counters = tracer.counters()
        for extra in layer_reports:
            spans.add_counters(counters, extra)
        layer_values = spans.summarise(counters, sum(t for t, _ in timed))
        metrics = {name: (layer_values[name], unit) for name, unit in spans.metric_names()}
        info["layer_seconds"] = {name: value for name, value in layer_values.items()
                                 if name.endswith(("self_s", "incl_s"))}
        idle = [name for name in spans.PREDICTED_BUSY[args.workload]
                if layer_values[f"{name}.calls"] == 0]
        if idle:
            sys.exit(f"perfbench: traced run recorded no call in {', '.join(idle)}; a wrapper is lost")
        info["spans"] = sum(counters[layer.name][0] for layer in spans.LAYERS)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {name:48s} {value:14.6g} {unit}")
    print(f"{args.workload:13s} {'failed_frac':48s} {failed / attempted:14.6g} ratio "
          f"({failed}/{attempted}; {dict(outcomes)})")
    if not args.trace:
        print(f"{args.workload:13s} op_tail_s is the mean of {tail_n} of {len(op_times)} timed ops, "
              f"p{TAIL_BAND[0]}-p{TAIL_BAND[1]}")
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------- all workloads

def _child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} (trace {trace}) failed: {done.stderr[-800:]}")
    info = next(json.loads(l[len("# info "):]) for l in lines if l.startswith("# info "))
    return json.loads(lines[-1]), info


def run_all(args) -> int:
    import_library()
    report = {"seed": args.seed, "seconds": args.seconds, "info": {
        "src_lines": src_lines(), "nproc": os.cpu_count(), "python": sys.version.split()[0]},
        "workloads": {}}
    for workload in WORKLOADS:
        plain, plain_info = _child(workload, args.seed, args.seconds, 0)
        traced, traced_info = _child(workload, args.seed, args.seconds, 1)
        overhead = traced_info["round_wall_s"] / plain_info["round_wall_s"]
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        layers.update(traced_info["layer_seconds"])
        report["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failed_frac": plain_info["failed_frac"],
            "end_to_end": plain["metrics"],
            "tail_samples": plain_info["tail_samples"],
            "timed_samples": plain_info["timed_samples"],
            "outcomes": plain_info["outcomes"],
            "per_layer": layers,
            "tracing_overhead": overhead,
        }
        print(f"== {workload}  (seed {args.seed}, {plain['attempted']} ops, "
              f"correct={plain['correct']})")
        for name, m in plain["metrics"].items():
            print(f"   {name:14s} {m['value']:12.6g} {m['unit']}")
        print(f"   {'failed_frac':14s} {plain_info['failed_frac']:12.6g} "
              f"({plain['failed']}/{plain['attempted']})")
        print(f"   op_tail_s is the mean of {plain_info['tail_samples']} of {plain_info['timed_samples']} ops; "
              f"tracing overhead {overhead:.2f}x wall")
        selfs = sorted(((v, k[: -len(".self_s")]) for k, v in layers.items()
                        if k.endswith(".self_s")), reverse=True)
        for value, name in selfs[:6]:
            rep = layers.get(f"{name}.repeat_frac")
            print(f"   {name:40s} self {value:8.3f} s ({layers[name + '.self_share']:5.1%} of op time)"
                  f"  calls {layers[name + '.calls']:>9}" + ("" if rep is None else f"  repeat {rep:.2f}"))
    out = Path(args.out) if args.out else HERE / "out" / f"BENCH_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="report path for --workload all")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
