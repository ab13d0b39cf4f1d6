"""ELIQ nodes compute their key, size, role depth and hash once, when built,
and compare and hash through the key. Checked against the recursive
definitions over the bound-4 enumeration of {A,B},{R,S}, the one-step
weakenings of its members and their pairwise conjunctions."""
import itertools
import random

import pytest

from tomq.dl import TOP_QUERY, Eliq, atom, conjoin, make_eliq, signature
from tomq.domainchar import _sorted_queries, one_step_weakenings
from tomq.errors import ParseError
from tomq.textio import parse_eliq
from tomq.verify import enum_domain_queries


def ref_key(q: Eliq) -> str:
    """The printed key, recomputed down the whole tree."""
    if q.is_bottom:
        return "!"
    parts = list(q.names) + [f"<{r}>({ref_key(c)})" for r, c in q.edges]
    return "&".join(parts) if parts else "T"


def ref_size(q: Eliq) -> int:
    return 1 if q.is_bottom else 1 + len(q.names) + sum(ref_size(c) for _, c in q.edges)


def ref_depth(q: Eliq) -> int:
    return 1 + max(ref_depth(c) for _, c in q.edges) if q.edges else 0


def structure(q: Eliq) -> tuple:
    """(names, edges, is_bottom) with every subtree unfolded the same way, so
    no comparison of `Eliq`s is involved."""
    return (q.names, tuple((r, structure(c)) for r, c in q.edges), q.is_bottom)


@pytest.fixture(scope="module")
def qs() -> list[Eliq]:
    base = enum_domain_queries(signature(["A", "B"], ["R", "S"]), "eliq", 4)
    out = list(base)
    for q in base:
        out += one_step_weakenings(q)
    out += [conjoin(a, b) for a, b in itertools.combinations(base, 2)]
    return out


def test_equality_keys_and_structure_agree(qs):
    """Over all pairs: a == b, equal keys and equal structure are one
    partition, and queries in one class hash equally. Across classes, !=
    is checked on neighbours in key order and on a seeded sample of pairs."""
    by_key: dict[str, list[Eliq]] = {}
    by_structure: dict[tuple, set[str]] = {}
    for q in qs:
        assert (q._key, q.size, q.role_depth) == (ref_key(q), ref_size(q), ref_depth(q))
        by_key.setdefault(q._key, []).append(q)
        by_structure.setdefault(structure(q), set()).add(q._key)
    assert all(len(keys) == 1 for keys in by_structure.values())
    assert len(by_structure) == len(by_key) == len(set(qs))
    assert len(by_key) < len(qs)  # some classes hold several built copies
    for group in by_key.values():
        first = group[0]
        assert all(q == first and hash(q) == hash(first) and not q != first for q in group)
    reps = sorted(group[0] for group in by_key.values())
    assert all(a != b and not a == b for a, b in zip(reps, reps[1:]))
    rng = random.Random(20261019)
    for _ in range(20000):
        a, b = rng.sample(reps, 2)
        assert (a == b) is False and a != b
    assert qs[0].__eq__(qs[0]._key) is NotImplemented and qs[0] != qs[0]._key


def test_top_and_sorted_order(qs):
    assert TOP_QUERY == Eliq() and hash(TOP_QUERY) == hash(Eliq())
    assert TOP_QUERY != Eliq(is_bottom=True)
    unique = {structure(q): q for q in qs}
    want = sorted(unique.values(), key=lambda q: (ref_size(q), ref_key(q)))
    assert _sorted_queries(qs) == want
    assert [q._key for q in _sorted_queries(reversed(qs))] == [q._key for q in want]


def test_the_name_T_is_reserved():
    """⊤'s key is "T", so a query naming a concept T would equal ⊤ and share
    its cache entries; the name is refused wherever Top and bot are."""
    for build in (
        lambda: signature(["T", "A"], ["R"]),
        lambda: signature(["A"], ["T"]),
        lambda: atom("T"),
        lambda: make_eliq(["A", "T"]),
    ):
        with pytest.raises(ValueError):
            build()
    for text in ("T", "A & T", "ex R.T"):
        with pytest.raises(ParseError):
            parse_eliq(text)
    assert atom("A") != TOP_QUERY and make_eliq(["Top"]) == TOP_QUERY
