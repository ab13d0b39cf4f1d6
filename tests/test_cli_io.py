"""Parsers, printers, round-trips, and the command-line exit codes."""
import re

import pytest

from tomq.dl import (
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
)
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
