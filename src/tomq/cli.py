"""Command-line surface.

Exit codes: 0 success or passing verdict; 1 semantic negative (not entailed,
failing verdict, unsafe query); 2 usage error; 3 unsupported dialect or an
exhausted bound/budget.
"""
from __future__ import annotations

import argparse
import sys

from . import dl
from .dl import Ontology, Signature, empty_ontology, signature
from .domainchar import frontier, split_partner
from .errors import (
    BudgetExceeded,
    NoCharacterisationFound,
    NotPeerless,
    NotPropositional,
    ParseError,
    SplitSizeExceeded,
    TomqError,
    TrailingTopTarget,
    UnsafeQuery,
    UnsupportedAxiom,
    UnsupportedDialect,
)
from .learn import Learner, LearnerConfig, Teacher
from .tempchar import (
    MODE_DEPTH,
    MODE_NEXTDIA,
    MODE_SAFE,
    characterise_dia,
    characterise_prop_until,
    characterise_until,
    tagged_from_queries,
)
from .temporal.eval import tentail
from .temporal.model import PathQuery, tinstance
from .temporal.normal import is_safe, normalize
from .textio import (
    parse_eliq,
    parse_exampleset,
    parse_ontology,
    parse_pathquery,
    parse_tinstance,
    parse_untilquery,
    print_eliq,
    print_exampleset,
    print_pathquery,
    print_tinstance,
    print_transcript,
    reject_reserved,
)
from .verify import (
    CLASS_DIA,
    CLASS_ELIQ,
    CLASS_NEXTDIA,
    CLASS_UNTIL,
    DOMAIN_CLASSES,
    TEMPORAL_CLASSES,
    EnumSpec,
    check_frontier,
    check_split_partner,
    check_unique_characterisation,
    enum_queries,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_out(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_ontology(args, sigma: Signature | None = None):
    if getattr(args, "ontology", None):
        return parse_ontology(_read(args.ontology))
    if sigma is None:
        raise ParseError("either --ontology or --sigma is required")
    return empty_ontology(sigma)


def _parse_sigma(args, onto=None):  # noqa: C901
    names = []
    if getattr(args, "sigma", None):
        names = [t.strip() for t in args.sigma.split(",") if t.strip()]
    roles = set()
    if getattr(args, "roles", None):
        roles |= {t.strip() for t in args.roles.split(",") if t.strip()}
    if onto is not None:
        roles |= {n for n in names if n in onto.signature.role_names}
    reject_reserved(set(names) | roles)
    concepts = [n for n in names if n not in roles]
    if onto is not None:
        concepts += sorted(onto.signature.concept_names - set(concepts))
        roles |= onto.signature.role_names
    if not names and onto is not None:
        return onto.signature
    if not concepts and not roles:
        return None
    return signature(concepts, roles)


def _widened_ontology(args) -> Ontology:
    """The ontology over its own signature widened by the names `--sigma`
    and `--roles` add, so that frontiers are searched over them too."""
    onto = _load_ontology(args, _parse_sigma(args))
    sigma = _parse_sigma(args, onto)
    return onto if sigma == onto.signature else Ontology(sigma, onto.axioms, onto.dialect)


def _load_query(args):
    text = _read(args.query)
    if args.qclass == CLASS_UNTIL:
        return parse_untilquery(text)
    if args.qclass in DOMAIN_CLASSES:
        return parse_eliq(text)
    return parse_pathquery(text)


def _at_least(low: int):
    """An argparse `type` reading an integer no smaller than `low`."""
    def read(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return read


NON_NEGATIVE, POSITIVE = _at_least(0), _at_least(1)


def _mode(args):
    m = getattr(args, "mode", None) or "safe"
    if m == "safe":
        return (MODE_SAFE,)
    if m == "nextdiamond":
        return (MODE_NEXTDIA,)
    if m.startswith("depth="):
        n = m.split("=", 1)[1]
        if not n.isdecimal():
            raise ParseError(f"mode depth=N needs a non-negative integer N, got {n!r}")
        return (MODE_DEPTH, int(n))
    raise ParseError(f"unknown mode {m!r}")


def _characterise_mode(args):
    """`--class nextdia` builds the next/later example set, as `--mode
    nextdiamond` does; any other `--mode` with it is a usage error."""
    if args.qclass != CLASS_NEXTDIA:
        return _mode(args)
    if args.mode not in (None, "nextdiamond"):
        raise ParseError(f"--class nextdia builds with mode nextdiamond, got --mode {args.mode}")
    return (MODE_NEXTDIA,)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tomq")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--ontology")
        p.add_argument("--sigma", help="comma-separated signature names")
        p.add_argument("--roles", help="names in --sigma that are roles")
        p.add_argument("--out")
        return p

    every_class = DOMAIN_CLASSES + TEMPORAL_CLASSES
    p = add("entail", help="does the instance entail the query at time 0")
    p.add_argument("--query", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--class", dest="qclass", default=CLASS_DIA, choices=every_class)

    p = add("normalform", help="print the normal form of a path query")
    p.add_argument("--query", required=True)

    p = add("safe", help="is the path query safe wrt the ontology")
    p.add_argument("--query", required=True)
    p.add_argument("--bound", type=NON_NEGATIVE, default=6)

    p = add("frontier", help="bounded verified frontier of a domain query")
    p.add_argument("--query", required=True)
    p.add_argument("--class", dest="qclass", default=CLASS_ELIQ, choices=DOMAIN_CLASSES)
    p.add_argument("--bound", type=NON_NEGATIVE, default=6)

    p = add("split-partner", help="split-partner of a set of domain queries")
    p.add_argument("--query", required=True, help="file with one domain query per line")

    p = add("characterise", help="uniquely characterising example set")
    p.add_argument("--query", required=True)
    p.add_argument("--class", dest="qclass", default=CLASS_DIA, choices=TEMPORAL_CLASSES)
    p.add_argument("--mode", help="safe (the default), depth=N or nextdiamond")
    p.add_argument("--bound", type=NON_NEGATIVE, default=6)

    p = add("learn", help="learn a hidden path query with membership queries")
    p.add_argument("--target", required=True)
    p.add_argument("--budget", type=POSITIVE, default=10000)
    p.add_argument("--mode", default="safe")
    p.add_argument("--bound", type=NON_NEGATIVE, default=6)
    p.add_argument("--initial", help="positive example file; derived from the target if absent")
    p.add_argument("--transcript")

    p = add("verify", help="re-check a characterisation, frontier or split-partner")
    p.add_argument("--what", choices=["characterisation", "frontier", "split-partner"], required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--class", dest="qclass", choices=every_class,
                   help="dia for a characterisation by default, eliq otherwise")
    p.add_argument("--examples", help="example-set file (characterisation)")
    p.add_argument("--members", help="file of members: example-set sections or queries")
    p.add_argument("--bound", type=NON_NEGATIVE, default=4)
    p.add_argument("--depth", type=NON_NEGATIVE, default=2)

    p = add("enumerate", help="list every query of a class within bounds")
    p.add_argument("--class", dest="qclass", default=CLASS_ELIQ, choices=every_class)
    p.add_argument("--bound", type=NON_NEGATIVE, default=3)
    p.add_argument("--depth", type=NON_NEGATIVE, default=1)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _dispatch(args)
    except (ParseError, UnsupportedAxiom) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ParseError) else EXIT_UNSUPPORTED
    except (UnsupportedDialect, SplitSizeExceeded, BudgetExceeded, NoCharacterisationFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (UnsafeQuery, NotPeerless, NotPropositional, TrailingTopTarget) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except TomqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:  # noqa: C901
    cmd = args.command
    if cmd == "entail":
        sigma = _parse_sigma(args)
        onto = _load_ontology(args, sigma)
        q = _load_query(args)
        d = parse_tinstance(_read(args.instance))
        return EXIT_OK if tentail(onto, d, 0, q) else EXIT_NEGATIVE

    if cmd == "normalform":
        sigma = _parse_sigma(args)
        onto = _load_ontology(args, sigma)
        q = parse_pathquery(_read(args.query))
        _write_out(args, print_pathquery(normalize(onto, q)) + "\n")
        return EXIT_OK

    if cmd == "safe":
        sigma = _parse_sigma(args)
        onto = _load_ontology(args, sigma)
        q = parse_pathquery(_read(args.query))
        verdict = is_safe(onto, q, args.bound)
        if verdict is None:
            print("unknown: bound exhausted", file=sys.stderr)
            return EXIT_UNSUPPORTED
        print("safe" if verdict else "unsafe")
        return EXIT_OK if verdict else EXIT_NEGATIVE

    if cmd == "frontier":
        onto = _widened_ontology(args)
        q = parse_eliq(_read(args.query))
        front = frontier(onto, q, args.qclass, args.bound)
        if front is None:
            print("not found within bound", file=sys.stderr)
            return EXIT_UNSUPPORTED
        _write_out(args, "".join(print_eliq(m) + "\n" for m in front.members))
        return EXIT_OK

    if cmd == "split-partner":
        onto = _load_ontology(args, _parse_sigma(args))
        sigma = _parse_sigma(args, onto)
        queries = [parse_eliq(line) for line in _read(args.query).splitlines() if line.strip()]
        sp = split_partner(onto, sigma, queries)
        chunks = []
        for p in sp.members:
            chunks.append(print_tinstance(tinstance([p.instance], p.point)))
        _write_out(args, "\n".join(chunks))
        return EXIT_OK

    if cmd == "characterise":
        onto = _widened_ontology(args)
        sigma = onto.signature
        if args.qclass == CLASS_UNTIL:
            q = parse_untilquery(_read(args.query))
            try:
                es = characterise_until(onto, q, sigma)
            except TrailingTopTarget:
                if onto.axioms:
                    raise
                es = characterise_prop_until(q, sigma)
        else:
            q = parse_pathquery(_read(args.query))
            es = characterise_dia(onto, q, sigma, _characterise_mode(args), size_bound=args.bound)
        _write_out(args, print_exampleset(es))
        return EXIT_OK

    if cmd == "learn":
        onto = _widened_ontology(args)
        target = parse_pathquery(_read(args.target))
        teacher = Teacher(onto, target, budget=args.budget)
        mode = _mode(args)
        config = LearnerConfig(
            variant=mode[0],
            depth=mode[1] if mode[0] == MODE_DEPTH else None,
            frontier_bound=args.bound,
            budget=args.budget,
        )
        if args.initial:
            initial = parse_tinstance(_read(args.initial))
        else:
            initial = _initial_from_target(onto, target)
        learner = Learner(onto, teacher, config)
        learned = learner.run(initial)
        _write_out(args, print_pathquery(learned) + "\n")
        print(
            f"membership queries: {teacher.membership_count}, "
            f"max query size: {teacher.max_query_size}",
            file=sys.stderr,
        )
        if args.transcript:
            with open(args.transcript, "w", encoding="utf-8") as fh:
                fh.write(print_transcript(teacher.transcript))
        return EXIT_OK

    if cmd == "verify":
        onto = _load_ontology(args, _parse_sigma(args))
        sigma = _parse_sigma(args, onto)
        if args.what == "characterisation":
            qclass = args.qclass or CLASS_DIA
            q = (
                parse_untilquery(_read(args.query))
                if qclass == CLASS_UNTIL
                else parse_pathquery(_read(args.query))
            )
            es = parse_exampleset(_read(args.examples))
            spec = EnumSpec(sigma, qclass, size_bound=args.bound, depth_bound=args.depth)
            verdict = check_unique_characterisation(onto, q, es, spec)
        else:
            qclass = args.qclass or CLASS_ELIQ
            if qclass not in DOMAIN_CLASSES:
                raise ParseError(f"--what {args.what} takes a domain class, got {qclass!r}")
            spec = EnumSpec(sigma, qclass, size_bound=args.bound)
            if args.what == "frontier":
                q = parse_eliq(_read(args.query))
                members = [parse_eliq(l) for l in _read(args.members).splitlines() if l.strip()]
                verdict = check_frontier(onto, q, members, spec)
            else:
                queries = [parse_eliq(l) for l in _read(args.query).splitlines() if l.strip()]
                es = parse_exampleset(_read(args.members))
                members = [dl.Pointed(d.slices[0], d.point) for d in es.positives]
                verdict = check_split_partner(onto, sigma, queries, members, spec)
        print("pass" if verdict.passed else f"fail ({len(verdict.witnesses)} witnesses)")
        return EXIT_OK if verdict.passed else EXIT_NEGATIVE

    if cmd == "enumerate":
        sigma = _parse_sigma(args)
        if sigma is None:
            raise ParseError("enumerate needs --sigma")
        spec = EnumSpec(sigma, args.qclass, size_bound=args.bound, depth_bound=args.depth)
        _write_out(args, "".join(f"{q}\n" for q in enum_queries(spec)))
        return EXIT_OK

    raise ParseError(f"unknown command {cmd!r}")


def _initial_from_target(onto, target: PathQuery):
    """A canonical positive example: the gap-normal realisation of the target."""
    nq = normalize(onto, target)
    b = nq.strict_count + 1
    base = tagged_from_queries(onto, b, nq.blocks, lambda q: None)
    return base.to_tinstance()


if __name__ == "__main__":
    sys.exit(main())
