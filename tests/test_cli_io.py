"""Parsers, printers, round-trips, and the command-line exit codes."""
import random
import re

import pytest

from tomq.dl import (
    DIALECTS,
    ConjLhs,
    Disjoint,
    ExistsLhs,
    ExistsRhs,
    Func,
    Role,
    RoleSub,
    SubBasic,
    atom,
    exists,
    make_eliq,
    signature,
)
from tomq import cli, domainchar
from tomq.cli import main
from tomq.errors import ParseError
from tomq.textio import (
    parse_eliq,
    parse_exampleset,
    parse_ontology,
    parse_pathquery,
    parse_tinstance,
    parse_untilquery,
    print_eliq,
    print_exampleset,
    print_ontology,
    print_pathquery,
    print_tinstance,
    print_untilquery,
)

from helpers import rand_ontology

A, B = atom("A"), atom("B")
R = Role("R")


def test_parse_ontology_axiom_shapes():
    O = parse_ontology("dialect: dl-lite-h\nA [= B\n")
    (ax,) = O.axioms
    assert isinstance(ax, SubBasic)

    O2 = parse_ontology("dialect: dl-lite-f\nfunc P\n")
    (ax2,) = O2.axioms
    assert ax2 == Func(Role("P"))

    O3 = parse_ontology("dialect: elhif-nf\nex R . A [= A\n")
    (ax3,) = O3.axioms
    assert ax3 == ExistsLhs(R, "A", "A")

    O4 = parse_ontology("dialect: dl-lite-h\nA & B [= bot\n")
    (ax4,) = O4.axioms
    assert isinstance(ax4, Disjoint)

    O5 = parse_ontology("dialect: elhif-nf\nA & B [= bot\nA [= ex R . B\n")
    kinds = {type(ax).__name__ for ax in O5.axioms}
    assert kinds == {"ConjLhs", "ExistsRhs"}

    O6 = parse_ontology("dialect: dl-lite-h\nroles: R,S\nR [= S\nex S- [= B\n")
    kinds6 = {type(ax).__name__ for ax in O6.axioms}
    assert kinds6 == {"RoleSub", "SubBasic"}


def test_parse_ontology_errors():
    with pytest.raises(ParseError):
        parse_ontology("A [= B\n")  # missing dialect header
    with pytest.raises(ParseError):
        parse_ontology("dialect: owl-full\n")
    for body in (
        "A [= ex R . B C",
        "ex R . A+B [= C",
        "A x [= ex R . B",
        "A [= ex R . Top x",
        "concepts: A B, C",
        "roles: R S",
    ):  # a malformed name, never a new concept or role
        with pytest.raises(ParseError):
            parse_ontology(f"dialect: elhif-nf\n{body}\n")


def test_ontology_roundtrip():
    src = (
        "dialect: elhif-nf\n"
        "roles: R\n"
        "concepts: A,B\n"
        "A & Top [= B\n"
        "A [= ex R . A\n"
        "ex R . A [= B\n"
        "func R-\n"
    )
    O = parse_ontology(src)
    printed = print_ontology(O)
    assert print_ontology(parse_ontology(printed)) == printed


def test_seeded_ontologies_roundtrip():
    """Printing and re-parsing gives back the axioms, dialect and signature
    of seeded random ontologies in every dialect."""
    rng = random.Random(20261019)
    sig = signature(["A", "B", "C"], ["R", "S"])
    for dialect in DIALECTS:
        for _ in range(400):
            O = rand_ontology(rng, sig, dialect)
            back = parse_ontology(print_ontology(O))
            assert (back.axioms, back.dialect, back.signature) == (O.axioms, O.dialect, O.signature)


def test_query_roundtrips():
    cases_eliq = ["A", "Top", "A & ex R.(B & ex R-.Top)", "ex P.B"]
    for text in cases_eliq:
        q = parse_eliq(text)
        assert parse_eliq(print_eliq(q)) == q
    q1 = parse_pathquery("ex P.B & X(ex P.A & F A)")
    assert len(q1.blocks) == 2 and q1.blocks[1] == (atom("A"),)
    assert parse_pathquery(print_pathquery(q1)) == q1
    assert parse_pathquery("F A") == parse_pathquery("F(A)")
    uq = parse_untilquery("Top ; U[bot] A")
    assert uq.steps == ((None, A),)
    assert parse_untilquery(print_untilquery(uq)) == uq


def test_tinstance_parsing():
    d = parse_tinstance("point: a\nt=1: A(a)\n")
    assert d.max_time == 1 and d.slices[0].is_trivial()
    assert d.slices[1].catoms == frozenset({("A", "a")})
    d2 = parse_tinstance("point: a\nt=0: -\n")
    assert d2.max_time == 0 and d2.slices[0].is_trivial()
    d3 = parse_tinstance("point: a\nt=0: P-(a,b)\n")
    assert d3.slices[0].ratoms == frozenset({("P", "b", "a")})
    with pytest.raises(ParseError):
        parse_tinstance("point: a\nt=-1: A(a)\n")
    with pytest.raises(ParseError):
        parse_tinstance("t=0: A(a)\n")


def test_atom_arity_errors_are_parse_errors(tmp_path):
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: A\nroles: R\n")
    query = tmp_path / "q.q"
    query.write_text("F A\n")
    for atom_text in ("R(a,b,c)", "A()"):
        text = f"point: a\nt=0: {atom_text}\n"
        with pytest.raises(ParseError, match=re.escape(repr(atom_text))):
            parse_tinstance(text)
        inst = tmp_path / "bad.ti"
        inst.write_text(text)
        args = ["entail", "--ontology", str(onto), "--query", str(query), "--instance", str(inst)]
        assert main(args) == 2


def test_roundtrip_golden_corpus():
    import itertools
    import random

    rng = random.Random(29)
    corpus = []
    names = ["A", "B"]
    for k in range(50):
        n = rng.randint(1, 4)
        lines = ["point: a"]
        for t in range(n):
            atoms = []
            for nm in names:
                if rng.random() < 0.4:
                    atoms.append(f"{nm}(a)")
            if rng.random() < 0.3:
                atoms.append("P(a,b)")
            lines.append(f"t={t}: " + (", ".join(sorted(atoms)) if atoms else "-"))
        corpus.append("\n".join(lines) + "\n")
    for text in corpus:
        d = parse_tinstance(text)
        assert print_tinstance(parse_tinstance(print_tinstance(d))) == print_tinstance(d)


def test_exampleset_roundtrip():
    text = (
        "[positive]\n"
        "point: a\n"
        "t=0: -\n"
        "t=1: A(a)\n"
        "[negative]\n"
        "point: a\n"
        "t=0: B(a)\n"
    )
    es = parse_exampleset(text)
    assert len(es.positives) == 1 and len(es.negatives) == 1
    assert parse_exampleset(print_exampleset(es)) == es


def test_cli_exit_codes(tmp_path):
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: A\n")
    query = tmp_path / "q.q"
    query.write_text("F A\n")
    inst_yes = tmp_path / "yes.ti"
    inst_yes.write_text("point: a\nt=1: A(a)\n")
    inst_no = tmp_path / "no.ti"
    inst_no.write_text("point: a\nt=0: -\n")

    assert main(["entail", "--ontology", str(onto), "--query", str(query), "--instance", str(inst_yes)]) == 0
    assert main(["entail", "--ontology", str(onto), "--query", str(query), "--instance", str(inst_no)]) == 1
    assert main(["safe", "--ontology", str(onto), "--query", str(query)]) == 0
    # no --ontology, --sigma or --roles: no signature to read, a usage error
    assert main(["normalform", "--query", str(query)]) == 2

    alg = tmp_path / "alg.onto"
    alg.write_text(
        "dialect: elhif-nf\nconcepts: A,B,C\nA & Top [= B\nA & Top [= C\nB & C [= A\n"
    )
    assert main(["safe", "--ontology", str(alg), "--query", str(query)]) == 1

    out = tmp_path / "E.txt"
    assert (
        main(
            [
                "characterise",
                "--ontology",
                str(onto),
                "--query",
                str(query),
                "--sigma",
                "A",
                "--mode",
                "safe",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "verify",
                "--what",
                "characterisation",
                "--ontology",
                str(onto),
                "--query",
                str(query),
                "--examples",
                str(out),
                "--sigma",
                "A,B",
                "--bound",
                "2",
                "--depth",
                "3",
            ]
        )
        == 0
    )
    # unsafe query in safe mode is the semantic-negative exit
    assert (
        main(
            [
                "characterise",
                "--ontology",
                str(alg),
                "--query",
                str(query),
                "--sigma",
                "A,B,C",
                "--mode",
                "safe",
            ]
        )
        == 1
    )
    # frontier that does not exist within the bound exhausts it
    el = tmp_path / "el.onto"
    el.write_text("dialect: elhif-nf\nconcepts: A,B\nroles: R\nA [= ex R . A\nex R . A [= A\n")
    qab = tmp_path / "ab.q"
    qab.write_text("A & B\n")
    assert (
        main(
            ["frontier", "--ontology", str(el), "--query", str(qab), "--class", "eliq", "--bound", "6"]
        )
        == 3
    )
    # usage error
    assert main(["entail", "--query", str(query)]) == 2


def test_cli_characterise_trailing_top_until(tmp_path, capsys):
    """A trailing-top until query has no split-partner example set; over no
    axioms the CLI builds the propositional one instead."""
    query = tmp_path / "q.q"
    query.write_text("A ; U[bot] Top\n")
    args = ["characterise", "--class", "until", "--sigma", "A,B", "--query", str(query)]
    assert main(args) == 0
    assert "# family: until-propositional" in capsys.readouterr().out
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: A,B\nA [= B\n")
    assert main(args + ["--ontology", str(onto)]) == 1
    assert "final target must not be trivial" in capsys.readouterr().err
    # characterise_prop_until refuses a role in a body
    query.write_text("ex R.Top ; U[bot] Top\n")
    assert main(args[:3] + ["--sigma", "A,B,R", "--roles", "R", "--query", str(query)]) == 1
    assert "concept names" in capsys.readouterr().err


def test_cli_reserved_names_are_usage_errors(tmp_path, capsys):
    """A concept or role named Top, bot or T, in --sigma or in an ontology
    file, is an `error:` line and the usage exit code, not a traceback."""
    assert main(["enumerate", "--sigma", "T,A", "--class", "eliq", "--bound", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: 'T' is reserved")
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: bot,A\n")
    query = tmp_path / "q.q"
    query.write_text("A\n")
    assert main(["frontier", "--ontology", str(onto), "--query", str(query), "--class", "p"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'bot' is reserved") and "at line 2" in err
    with pytest.raises(ParseError, match="at line 3"):
        parse_ontology("dialect: dl-lite-h\nA [= B\nTop & T [= bot\n")
    with pytest.raises(ParseError, match="at line 2"):
        parse_ontology("dialect: dl-lite-h\nA [= ex bot\n")


def test_reserved_atoms_in_instance_files_are_usage_errors(tmp_path, capsys):
    """A concept atom T, or a role atom named T, Top or bot, in an instance
    or example-set file is an `error:` line with its line number and the
    usage exit code, not a traceback; bot(a) and Top(a) are data."""
    target = tmp_path / "t.q"
    target.write_text("A & F(B)\n")
    initial = tmp_path / "init.ti"
    initial.write_text("point: a\nt=0: A(a), T(a)\nt=1: B(a)\n")
    assert main(["learn", "--sigma", "A,B", "--target", str(target), "--initial", str(initial)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'T' is reserved") and "at line 2" in err
    for name in ("T", "Top", "bot"):
        with pytest.raises(ParseError, match=f"'{name}' is reserved.*at line 3"):
            parse_tinstance(f"point: a\nt=0: A(a)\nt=1: {name}(a,b)\n")
        with pytest.raises(ParseError, match=f"'{name}' is reserved"):
            parse_exampleset(f"[positive]\npoint: a\nt=0: {name}-(a,b)\n")
    d = parse_tinstance("point: a\nt=0: bot(a), Top(a)\n")
    assert d.slices[0].catoms == frozenset({("bot", "a"), ("Top", "a")})


def test_exampleset_errors_name_file_lines():
    """A `ParseError` inside an example-set file names the line of the file,
    not the line within its instance; comments and blank lines count."""
    text = "[positive]\npoint: a\nt=0: A(a)\n\n[negative]  # refuted\npoint: b\nt=1: T(b)\n"
    with pytest.raises(ParseError, match="'T' is reserved.*at line 7$"):
        parse_exampleset(text)
    with pytest.raises(ParseError, match="at line 3$"):
        parse_exampleset("# a set\n[positive]\nt=0: A(a)\n")


def test_cli_learn_roundtrip(tmp_path):
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: A\n")
    target = tmp_path / "t.q"
    target.write_text("F A\n")
    out = tmp_path / "learned.q"
    transcript = tmp_path / "tr.log"
    code = main(
        [
            "learn",
            "--ontology",
            str(onto),
            "--target",
            str(target),
            "--budget",
            "10000",
            "--out",
            str(out),
            "--transcript",
            str(transcript),
        ]
    )
    assert code == 0
    learned = parse_pathquery(out.read_text())
    from tomq.verify import tequiv_bounded
    from tomq.dl import empty_ontology, signature

    assert tequiv_bounded(empty_ontology(signature(["A"])), learned, parse_pathquery("F A"))
    lines = transcript.read_text().splitlines()
    assert lines and all("\t" in l for l in lines)
    counts = [int(l.rsplit("\t", 1)[1]) for l in lines]
    assert counts == sorted(counts)


def test_cli_learn_rejects_an_unsafe_target_in_safe_mode(tmp_path, capsys):
    """F (A & B) has a lone conjunct: the safe variant finds no positive
    frontier word, and the CLI says so in one `rejected:` line."""
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: A,B\n")
    target = tmp_path / "t.q"
    target.write_text("F (A & B)\n")
    assert main(["learn", "--ontology", str(onto), "--target", str(target)]) == 1
    err = capsys.readouterr().err
    assert len([l for l in err.splitlines() if l.startswith("rejected:")]) == 1, err
    assert "--mode depth=N" in err and "Traceback" not in err, err


def test_cli_learn_refusal_names_the_query_and_bound(tmp_path, capsys):
    """A learner refusal prints its query in ELIQ syntax, not as a dataclass,
    with the bound, the refusing check and its witness: under A ⊑ ∃R⁻ the
    body ex S-.A has no verified frontier within bound 4, as a path probe
    refuses it."""
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: A\nroles: R,S\nA [= ex R-\n")
    target = tmp_path / "t.q"
    target.write_text("ex S-.A\n")
    argv = ["learn", "--ontology", str(onto), "--target", str(target), "--budget", "2000", "--bound", "4"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    want = "error: no verified frontier for ex S-.A within bound 4: probe witness ex S-.ex R-.ex R.A"
    assert err.splitlines() == [want], err


def test_cli_frontier_refusal_names_a_probe_witness(tmp_path, capsys):
    """`frontier` at exit 3 names the bound, the refusing check and its
    witness on stderr, and prints nothing on stdout: draw 18 (A ⊑ ∃R⁻, the
    frontier of ex S-.A) is refused at bound 5 by a path probe."""
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: A\nroles: R,S\nA [= ex R-\n")
    query = tmp_path / "q.q"
    query.write_text("ex S-.A\n")
    assert main(["frontier", "--ontology", str(onto), "--query", str(query), "--bound", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == "", out
    assert err.splitlines() == ["not found within bound 5: probe witness ex S-.ex R-.ex R.ex S.ex S-.A"], err


def test_cli_frontier_refusal_names_a_condition_b_witness(tmp_path, capsys, monkeypatch):
    """A refusal by `check_frontier` names its first condition-b witness.
    The search's own members never fail condition (b), so the last member
    is dropped (`_least_weakenings` patched, and the search run without its
    memo): of the frontier A & ex R.ex R-.(A & B), B & ex R.ex R-.(A & B)
    of A & B under A ⊑ ∃R, the first member leaves B uncovered."""
    least = domainchar._least_weakenings
    monkeypatch.setattr(domainchar, "_least_weakenings", lambda onto, q, pool: least(onto, q, pool)[:-1])
    monkeypatch.setattr(cli, "frontier_search", domainchar.frontier_search.__wrapped__)
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: A,B\nroles: R\nA [= ex R\n")
    query = tmp_path / "q.q"
    query.write_text("A & B\n")
    assert main(["frontier", "--ontology", str(onto), "--query", str(query), "--bound", "6"]) == 3
    out, err = capsys.readouterr()
    assert out == "", out
    assert err.splitlines() == ["not found within bound 6: condition-b witness B"], err


def _usage_error(capsys, argv) -> str:
    """Run the CLI on argv, expecting the usage exit code with one `error:`
    line and no traceback on stderr; return stderr."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len([l for l in err.splitlines() if "error:" in l]) == 1 and "Traceback" not in err, err
    return err


def test_repeated_timestamp_is_a_parse_error(tmp_path, capsys):
    """A second `t=<n>:` line for the same n is refused, naming that line,
    in instance and example-set files alike; it never replaces the first."""
    text = "point: a\nt=0: A(a)\nt=0: B(a)\n"
    with pytest.raises(ParseError, match="t=0 is given twice at line 3$"):
        parse_tinstance(text)
    with pytest.raises(ParseError, match="t=1 is given twice at line 6$"):
        parse_exampleset("[positive]\npoint: a\nt=0: -\nt=1: A(a)\n# again\nt=1: -\n")
    query = tmp_path / "q.q"
    query.write_text("A\n")
    inst = tmp_path / "d.ti"
    inst.write_text(text)
    args = ["entail", "--sigma", "A,B", "--class", "eliq", "--query", str(query), "--instance", str(inst)]
    assert "at line 3" in _usage_error(capsys, args)
    inst.write_text("point: a\nt=0: A(a)\nt=1: B(a)\n")
    assert main(args) == 0


def test_cli_class_values_per_subcommand(tmp_path, capsys):
    """Each subcommand takes only the --class values it serves; any other
    value is a usage error that lists them. `enumerate` runs with every
    class, `entail` and `frontier` with every domain class."""
    from tomq.verify import DOMAIN_CLASSES, TEMPORAL_CLASSES

    query = tmp_path / "q.q"
    query.write_text("A\n")
    inst = tmp_path / "d.ti"
    inst.write_text("point: a\nt=0: A(a)\n")
    every = DOMAIN_CLASSES + TEMPORAL_CLASSES
    subcommands = {
        "entail": (every, ["--query", str(query), "--instance", str(inst)]),
        "verify": (every, ["--what", "frontier", "--query", str(query), "--members", str(query)]),
        "enumerate": (every, []),
        "frontier": (DOMAIN_CLASSES, ["--query", str(query)]),
        "characterise": (TEMPORAL_CLASSES, ["--query", str(query)]),
    }
    assert set(every) == {"p", "elq", "eliq", "dia", "nextdia", "until"}
    for cmd, (allowed, rest) in subcommands.items():
        for bad in ["x", "ELIQ"] + [c for c in every if c not in allowed]:
            err = _usage_error(capsys, [cmd, "--sigma", "A", "--class", bad] + rest)
            assert f"invalid choice: '{bad}'" in err
            assert all(f"'{c}'" in err.split("choose from", 1)[1] for c in allowed)
    for qclass in every:
        assert main(["enumerate", "--sigma", "A", "--class", qclass, "--bound", "1"]) == 0
    for qclass in DOMAIN_CLASSES:
        assert main(["entail", "--sigma", "A", "--class", qclass] + subcommands["entail"][1]) == 0
        assert main(["frontier", "--sigma", "A", "--class", qclass, "--query", str(query)]) == 0


def test_cli_mode_depth_needs_a_non_negative_integer(tmp_path, capsys):
    """`--mode depth=N` with N not a non-negative integer is a usage error,
    for `characterise` and `learn` alike, not a traceback."""
    query = tmp_path / "q.q"
    query.write_text("F A\n")
    for n in ("x", "-1", "1.5", ""):
        for cmd in (["characterise", "--query"], ["learn", "--target"]):
            err = _usage_error(capsys, cmd + [str(query), "--sigma", "A", "--mode", f"depth={n}"])
            assert err.startswith(f"error: mode depth=N needs a non-negative integer N, got {n!r}")
    assert main(["characterise", "--query", str(query), "--sigma", "A", "--mode", "depth=1"]) == 0


def test_cli_verify_frontier_honours_a_domain_class(tmp_path, capsys):
    """Under DL-Lite_H with A ⊑ ∃R, the class-p frontier of A ⊓ B is A, B:
    `verify --what frontier --class p` passes on it, while ELIQs (the
    class when none is given) such as B ⊓ ∃R.⊤ are left uncovered, and
    the failing verdict lists them, one per equivalence class (B ⊓ ∃R.⊤
    stands for B ⊓ ∃R.∃R⁻.⊤ and B ⊓ ∃R.⊤ ⊓ ∃R.⊤). A temporal class is a
    usage error there."""
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: A,B\nroles: R\nA [= ex R\n")
    query = tmp_path / "q.q"
    query.write_text("A & B\n")
    members = tmp_path / "members.txt"
    base = ["--ontology", str(onto), "--query", str(query)]
    assert main(["frontier", "--class", "p", "--out", str(members)] + base) == 0
    assert members.read_text() == "A\nB\n"
    capsys.readouterr()
    verify = ["verify", "--what", "frontier", "--members", str(members)] + base
    assert main(verify + ["--class", "p"]) == 0
    assert capsys.readouterr().out == "pass\n"
    uncovered = ["B & ex R.Top", "ex R.ex R-.B"]
    for eliq in ([], ["--class", "eliq"]):
        assert main(verify + eliq) == 1
        assert capsys.readouterr().out == "".join(
            line + "\n" for line in ["fail (2 witnesses)"] + [f"condition-b: {w}" for w in uncovered])
    assert "takes a domain class, got 'dia'" in _usage_error(capsys, verify + ["--class", "dia"])


def test_cli_verify_frontier_lists_what_q_entails(tmp_path, capsys):
    """Condition (b) of `verify --what frontier` reads only the trees q
    entails. Under A ⊑ ∃R, with members A and B at bound 3, the one
    uncovered weakening of A ⊓ B is B ⊓ ∃R.⊤. With A ⊓ B ⊑ ⊥ added, q is
    unsatisfiable and entails every tree, so every tree that neither member
    covers is a witness, in the listing's order."""
    query = tmp_path / "q.q"
    query.write_text("A & B\n")
    members = tmp_path / "members.txt"
    members.write_text("A\nB\n")
    onto = tmp_path / "o.onto"
    verify = ["verify", "--what", "frontier", "--ontology", str(onto), "--query", str(query),
              "--members", str(members), "--bound", "3"]
    axioms = "dialect: dl-lite-h\nconcepts: A,B\nroles: R\nA [= ex R\n"
    onto.write_text(axioms)
    assert main(verify) == 1
    assert capsys.readouterr().out == "fail (1 witness)\ncondition-b: B & ex R.Top\n"
    onto.write_text(axioms + "A & B [= bot\n")
    assert main(verify) == 1
    uncovered = [
        "ex R-.Top", "ex R-.ex R-.Top", "ex R-.A", "ex R-.B", "ex R.ex R.Top", "ex R.A", "ex R.B",
        "ex R.Top & ex R-.Top", "A & ex R-.Top", "B & ex R-.Top", "B & ex R.Top",
    ]
    assert capsys.readouterr().out == "".join(
        line + "\n" for line in ["fail (11 witnesses)"] + [f"condition-b: {w}" for w in uncovered])


def test_cli_characterise_class_nextdia_builds_the_next_later_set(tmp_path, capsys):
    """`characterise --class nextdia` of F A over {A, B} prints the set that
    `--mode nextdiamond` does, not the `dia` one; any other `--mode` with
    it is a usage error."""
    query = tmp_path / "q.q"
    query.write_text("F A\n")
    base = ["characterise", "--sigma", "A,B", "--query", str(query)]

    def printed(*extra) -> str:
        assert main(base + list(extra)) == 0
        return capsys.readouterr().out

    nextdia = printed("--mode", "nextdiamond")
    assert printed("--class", "nextdia") == nextdia
    assert printed("--class", "nextdia", "--mode", "nextdiamond") == nextdia
    assert printed("--class", "dia") != nextdia
    for mode in ("safe", "depth=1"):
        err = _usage_error(capsys, base + ["--class", "nextdia", "--mode", mode])
        assert err.startswith(f"error: --class nextdia builds with mode nextdiamond, got --mode {mode}")


def test_cli_characterise_class_until_takes_no_mode(tmp_path, capsys):
    """`characterise --class until` has one builder: any `--mode` given with
    it is a usage error, a valid one included, and without one it builds."""
    query = tmp_path / "q.q"
    query.write_text("A ; U[B] C\n")
    base = ["characterise", "--class", "until", "--sigma", "A,B,C", "--query", str(query)]
    for mode in ("depth=3", "bogus", "safe"):
        err = _usage_error(capsys, base + ["--mode", mode])
        assert err.startswith(f"error: --class until takes no --mode, got --mode {mode}"), err
    assert main(base) == 0
    assert "[positive]" in capsys.readouterr().out


def test_cli_bounds_are_non_negative_and_budgets_positive(tmp_path, capsys):
    """A negative `--bound` or `--depth` and a non-positive `--budget` are
    usage errors, not a vacuous pass or a traceback. Within a bound of 1 or
    more, `verify --what frontier` of A ⊓ B with the member A finds B
    uncovered."""
    query = tmp_path / "q.q"
    query.write_text("A & B\n")
    members = tmp_path / "members.txt"
    members.write_text("A\n")
    path = tmp_path / "path.q"
    path.write_text("A\n")
    sigma = ["--sigma", "A,B"]
    verify = ["verify", "--what", "frontier", "--class", "p", "--query", str(query),
              "--members", str(members)] + sigma
    calls = [
        (verify + ["--bound", "-1"], "--bound", 0),
        (verify + ["--depth", "-1"], "--depth", 0),
        (["frontier", "--class", "p", "--query", str(query), "--bound", "-1"] + sigma, "--bound", 0),
        (["enumerate", "--class", "dia", "--bound", "-2"] + sigma, "--bound", 0),
        (["enumerate", "--class", "dia", "--depth", "-1"] + sigma, "--depth", 0),
        (["characterise", "--query", str(path), "--bound", "-1"] + sigma, "--bound", 0),
        (["safe", "--query", str(path), "--bound", "-3"] + sigma, "--bound", 0),
        (["learn", "--target", str(path), "--bound", "-1"] + sigma, "--bound", 0),
        (["learn", "--target", str(path), "--budget", "0"] + sigma, "--budget", 1),
        (["learn", "--target", str(path), "--budget", "x"] + sigma, "--budget", None),
    ]
    for argv, flag, low in calls:
        err = _usage_error(capsys, argv)
        want = "expected an integer" if low is None else f"must be at least {low}"
        assert f"argument {flag}: {want}" in err, err
    for bound in ("1", "3"):
        assert main(verify + ["--bound", bound]) == 1
        assert capsys.readouterr().out == "fail (1 witness)\ncondition-b: B\n"


def test_cli_frontier_reads_sigma_with_an_ontology(tmp_path, capsys):
    """`frontier` searches over `--sigma` and the ontology's own signature
    together, as `verify` checks: with A ⊑ ∃R and B given by `--sigma`
    alone, the frontier of A ⊓ B is that of the ontology declaring B, and
    `verify --what frontier` passes on it."""
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nA [= ex R\n")
    declared = tmp_path / "declared.onto"
    declared.write_text("dialect: dl-lite-h\nconcepts: A,B\nA [= ex R\n")
    query = tmp_path / "q.q"
    query.write_text("A & B\n")
    members = tmp_path / "members.txt"
    base = ["--query", str(query), "--class", "eliq"]
    assert main(["frontier", "--ontology", str(declared)] + base) == 0
    want = capsys.readouterr().out
    assert want == "A & ex R.ex R-.(A & B)\nB & ex R.ex R-.(A & B)\n"
    with_sigma = ["--ontology", str(onto), "--sigma", "A,B"] + base
    assert main(["frontier", "--out", str(members)] + with_sigma) == 0
    assert members.read_text() == want
    assert main(["verify", "--what", "frontier", "--members", str(members)] + with_sigma) == 0
    assert capsys.readouterr().out == "pass\n"


def test_cli_characterise_and_learn_read_sigma_with_an_ontology(tmp_path, capsys):
    """`characterise` and `learn` search over the ontology widened by
    `--sigma`, as `frontier` does: with A ⊑ ∃R and B given by `--sigma`
    alone, they print what they print over the ontology declaring B. The
    depth-1 set of F(A ⊓ B) is then fitted by the target and no longer by
    F(B ⊓ ∃R.⊤), which is not equivalent to it."""
    from tomq.temporal.eval import fits

    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nA [= ex R\n")
    declared = tmp_path / "declared.onto"
    declared.write_text("dialect: dl-lite-h\nconcepts: A,B\nA [= ex R\n")
    query = tmp_path / "q.q"
    query.write_text("F (A & B)\n")
    depth = ["--mode", "depth=1"]

    def printed(cmd, given) -> tuple[str, str]:
        assert main([cmd, "--ontology", str(given), "--query" if cmd == "characterise" else "--target",
                     str(query)] + depth + (["--sigma", "A,B"] if given is onto else [])) == 0
        got = capsys.readouterr()
        return got.out, got.err

    out, _ = printed("characterise", onto)
    assert (out, "") == printed("characterise", declared)
    es, parsed = parse_exampleset(out), parse_ontology(onto.read_text())
    assert fits(parsed, es, parse_pathquery("F (A & B)"))
    assert not fits(parsed, es, parse_pathquery("F (B & ex R.Top)"))
    learned = printed("learn", onto)
    assert learned == printed("learn", declared)
    assert learned[0] == "F(A & B)\n"


def test_cli_safe_reads_sigma_with_an_ontology(tmp_path, capsys):
    """`safe` reads the ontology widened by `--sigma`, as `characterise`
    does: A ⊓ B is a lone conjunct once B is in the signature, whether the
    ontology declares it or `--sigma` adds it."""
    onto = tmp_path / "oa.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: A\n")
    declared = tmp_path / "oab.onto"
    declared.write_text("dialect: dl-lite-h\nconcepts: A,B\n")
    query = tmp_path / "q.q"
    query.write_text("A & F(A & B)\n")
    with_sigma = ["--ontology", str(onto), "--sigma", "A,B", "--query", str(query)]
    assert main(["safe", "--ontology", str(declared), "--query", str(query)]) == 1
    assert capsys.readouterr().out == "unsafe\n"
    assert main(["safe"] + with_sigma) == 1
    assert capsys.readouterr().out == "unsafe\n"
    assert main(["characterise"] + with_sigma) == 1
    assert "lone conjunct" in capsys.readouterr().err


def test_cli_safe_and_verify_write_out(tmp_path, capsys):
    """`safe --out` and `verify --out` write their verdict line to the file
    and print nothing; the exit code is the same as without `--out`."""
    query = tmp_path / "q.q"
    query.write_text("F A\n")
    examples = tmp_path / "es.txt"
    sigma = ["--sigma", "A,B", "--query", str(query)]
    assert main(["characterise", "--out", str(examples)] + sigma) == 0
    verdict = tmp_path / "verdict.txt"
    assert main(["safe", "--out", str(verdict)] + sigma) == 0
    assert (capsys.readouterr().out, verdict.read_text()) == ("", "safe\n")
    verify = ["verify", "--what", "characterisation", "--examples", str(examples), "--bound", "2"]
    assert main(verify + ["--out", str(verdict)] + sigma) == 0
    assert (capsys.readouterr().out, verdict.read_text()) == ("", "pass\n")


def test_cli_entail_offers_no_out(tmp_path, capsys):
    """`entail` answers by its exit code alone, so `--out` is a usage error."""
    query, inst = tmp_path / "q.q", tmp_path / "d.txt"
    query.write_text("A\n")
    inst.write_text("point: a\nt=0: A(a)\n")
    args = ["entail", "--sigma", "A", "--query", str(query), "--instance", str(inst)]
    assert main(args) == 0
    assert main(args + ["--out", str(tmp_path / "o.txt")]) == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


def test_cli_enumerate_reads_the_ontology_signature(tmp_path, capsys):
    """`enumerate --ontology` enumerates over the ontology's signature,
    widened by `--sigma` as for every other command. Without an ontology,
    a `--sigma` name that `--roles` does not list is a concept name."""
    assert main(["enumerate", "--sigma", "A,R", "--class", "eliq", "--bound", "2"]) == 0
    assert capsys.readouterr().out == "Top\nA\nR\n"
    onto = tmp_path / "o.onto"
    onto.write_text("dialect: dl-lite-h\nconcepts: A,B\n")
    assert main(["enumerate", "--ontology", str(onto), "--class", "p", "--bound", "2"]) == 0
    assert capsys.readouterr().out == "Top\nA\nB\nA & B\n"
    assert main(["enumerate", "--ontology", str(onto), "--sigma", "C", "--class", "p", "--bound", "1"]) == 0
    assert capsys.readouterr().out == "Top\nA\nB\nC\n"
