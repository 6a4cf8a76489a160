import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semifd as sf
from semifd import cli, fdapprox

from oracles import (
    brute_canonical_map,
    brute_counts,
    brute_left_divisors,
    brute_right_divisors,
    left_divisor_fill,
    pairwise_nesting,
    table_associative,
    table_cancellative,
    table_divisors,
    word_image,
)


def words(table, *texts):
    return [table.element_from_str(t) for t in texts]


# -- growth ------------------------------------------------------------------


def test_braid3_counts_match_brute_force(braid3):
    # frozen from the union-find oracle; recomputed here up to length 5
    assert braid3.counts()[:5] == [1, 2, 4, 7, 12]
    pres = sf.braid(3)
    assert brute_counts(2, pres.relations, 5) == braid3.counts()[:6]


def test_free2_counts(free2):
    assert free2.counts() == [2**n for n in range(9)]


def test_nat2_counts_are_multiset_counts(nat2):
    assert nat2.counts()[:3] == [1, 2, 3]
    assert nat2.counts() == [n + 1 for n in range(13)]


def test_nat2_length2_classes(nat2):
    xs = {nat2.str_of(nat2.element(i)) for i in nat2.by_length[2]}
    assert xs == {"x.x", "x.y", "y.y"}
    assert nat2.element_from_str("x.y") == nat2.element_from_str("y.x")


def test_reenumeration_is_deterministic():
    t1 = sf.enumerate_monoid(sf.braid(3), 5)
    t2 = sf.enumerate_monoid(sf.braid(3), 5)
    assert [e.word for e in t1.elements] == [e.word for e in t2.elements]


def test_resource_cap():
    with pytest.raises(sf.ResourceLimitError):
        sf.enumerate_monoid(sf.free(2), 8, max_words=100)


def test_resource_cap_counts_table_entries():
    # free(2) to length 4 stores (1 + 2 + 4 + 8) * 2 = 30 right-multiplication entries
    assert sf.enumerate_monoid(sf.free(2), 4, max_words=30).counts() == [1, 2, 4, 8, 16]
    with pytest.raises(sf.ResourceLimitError, match="at length 4"):
        sf.enumerate_monoid(sf.free(2), 4, max_words=29)


@st.composite
def small_presentations(draw):
    k = draw(st.integers(1, 3))

    def word(n):
        return st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(tuple)

    pair = st.integers(1, 3).flatmap(lambda n: st.tuples(word(n), word(n)))
    relations = tuple(draw(st.lists(pair, max_size=3)))
    return sf.MonoidPresentation(tuple("abc"[:k]), relations), draw(st.integers(0, 5))


@given(small_presentations())
@settings(max_examples=60, deadline=None)
def test_union_find_levels_match_brute_classes(case):
    pres, L = case
    table = sf.enumerate_monoid(pres, L)
    ngen = len(pres.generators)
    assert table.counts() == brute_counts(ngen, pres.relations, L)
    for n in range(L + 1):
        canon = brute_canonical_map(ngen, pres.relations, n)
        assert [table.element(i).word for i in table.by_length[n]] == sorted(set(canon.values()))
        for w, c in canon.items():
            assert table.element_from_word(w).word == c
    assert table_associative(table)
    try:
        table.check_cancellation()
        cancellative = True
    except sf.CancellativityError:
        cancellative = False
    assert cancellative == table_cancellative(table)


@given(small_presentations())
@settings(max_examples=40, deadline=None)
def test_divisor_fill_matches_table_oracle(case):
    # each element's divisor sets against the oracle's, asked in index order on
    # one table and for the longest element first on another
    pres, L = case
    in_order, longest_first = sf.enumerate_monoid(pres, L), sf.enumerate_monoid(pres, L)
    expected = [table_divisors(in_order, p) for p in in_order.elements]
    last = longest_first.elements[-1]
    assert (longest_first.right_divisors(last), longest_first.left_divisors(last)) == expected[-1]
    for table in (in_order, longest_first):
        assert [(table.right_divisors(p), table.left_divisors(p)) for p in table.elements] == expected


BUILTIN_DOCS = [
    {"builtin": "free", "n": 2},
    {"builtin": "free", "n": 3},
    {"builtin": "nat", "d": 2},
    {"builtin": "nat", "d": 3},
    {"builtin": "braid", "n": 3},
    {"builtin": "braid", "n": 4},
    {"builtin": "raag", "vertices": ["a", "b", "c"], "edges": [["a", "b"]]},
]


@st.composite
def presentation_docs(draw):
    """A presentation document, a builtin family or a small random relation set, with a length bound."""
    if draw(st.booleans()):
        return draw(st.sampled_from(BUILTIN_DOCS)), draw(st.integers(0, 5))
    pres, L = draw(small_presentations())
    relations = [[pres.word_str(u), pres.word_str(v)] for u, v in pres.relations]
    return {"generators": list(pres.generators), "relations": relations}, L


@given(presentation_docs(), st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_left_divisors_read_off_the_walk_match_the_former_fill(case, data):
    # |L_p| in the divisors report, unions of L_p and each L_p, against the stored L_p
    # fill they replaced, and unions of R_p against the R_p fill; cancellative or not
    doc, L = case
    args = cli._parser().parse_args(["--config", "-"])
    report, _ = cli.execute({"command": "divisors", "presentation": doc, "L": L}, args)
    table = sf.enumerate_monoid(cli._load_presentation(doc, args.max_words), L)
    expected = left_divisor_fill(table, L)
    assert [row[2] for row in report["tables"]["sizes"]] == [len(s) for s in expected]
    S = data.draw(st.sets(st.integers(0, len(expected) - 1), max_size=4))
    assert table.divisor_union(S, left=True) == frozenset().union(*(expected[p] for p in S))
    assert [table.left_divisors(p) for p in table.elements] == [set(map(table.element, s)) for s in expected]
    R = table.divisor_sets(L)
    assert table.divisor_union(S) == frozenset().union(*(R[p] for p in S))


NON_CANCELLATIVE = {"generators": ["a", "b", "c"], "relations": [["a.b", "a.c"]]}


def test_non_cancellative_divisor_sets_differ_in_size():
    table = sf.enumerate_monoid(sf.parse_presentation(json.dumps(NON_CANCELLATIVE)), 3)
    p = table.element_from_str("a.b")
    assert {table.str_of(r) for r in table.right_divisors(p)} == {"e", "b", "c", "a.b"}
    assert {table.str_of(q) for q in table.left_divisors(p)} == {"e", "a", "a.b"}


@pytest.mark.parametrize(
    "pres", [sf.braid(3), sf.parse_presentation(json.dumps(NON_CANCELLATIVE))], ids=["braid3", "ab=ac"]
)
def test_divisor_queries_leave_the_table_as_built(pres):
    table = sf.enumerate_monoid(pres, 4)
    built = pickle.dumps(vars(table))
    last = table.elements[-1]
    for left in (False, True):
        table.divisor_union({1, last.index}, left=left)
    table.right_divisors(last)
    table.left_divisors(last)
    table.divisor_sets(4)
    fdapprox.build_Y(table, [last])
    assert pickle.dumps(vars(table)) == built


# -- multiplication ------------------------------------------------------------


def test_free_multiply_is_concatenation(free2):
    ab, ba = words(free2, "a.b", "b.a")
    assert free2.str_of(free2.multiply(ab, ba)) == "a.b.b.a"


def test_braid_multiply_canonicalizes(braid3):
    b, ab = words(braid3, "s2", "s1.s2")
    assert braid3.str_of(braid3.multiply(b, ab)) == "s1.s2.s1"


def test_identity_law(braid3):
    e = braid3.identity
    for p in braid3.elements_up_to(4):
        assert braid3.multiply(p, e) == p
        assert braid3.multiply(e, p) == p


def test_length_additivity(braid3):
    for x in braid3.elements_up_to(3):
        for y in braid3.elements_up_to(3):
            assert braid3.multiply(x, y).length == x.length + y.length


def test_multiply_beyond_bound_raises(braid3):
    long = braid3.elements_up_to(8)[-1]
    with pytest.raises(sf.LengthBoundError):
        braid3.multiply(long, braid3.element_from_str("s1"))


def test_cancellation_and_associativity_witnesses(braid3, nat2):
    braid3.check_cancellation()
    braid3.check_associativity()
    nat2.check_cancellation()


ORACLE_TABLES = [
    (sf.braid(3), 6),
    (sf.braid(4), 5),
    (sf.nat(3), 5),
    (sf.free(2), 5),
    (sf.raag(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]), 4),
]


@pytest.mark.parametrize("pres, L", ORACLE_TABLES, ids=lambda v: getattr(v, "kind", v))
def test_cayley_graph_reads_match_table_oracles(pres, L):
    table = sf.enumerate_monoid(pres, L)
    for p in table.elements:
        assert (table.right_divisors(p), table.left_divisors(p)) == table_divisors(table, p)
    table.check_cancellation()
    table.check_associativity()
    assert table_cancellative(table) and table_associative(table)
    # products over a ball follow the spanning tree
    for v in table.elements:
        for k in range(-1, L - v.length + 1):
            ball = table.elements_up_to(k) if k >= 0 else []
            assert table.left_products(v, k) == [table.multiply(v, x).index for x in ball]
        with pytest.raises(sf.LengthBoundError):
            table.left_products(v, L - v.length + 1)
    ngen = len(pres.generators)
    # phi along the tree against the per-letter image; a short target raises past its bound
    line, short = sf.enumerate_monoid(sf.nat(1), ngen * L), sf.enumerate_monoid(sf.nat(1), L - 1)
    maps = [sf.length_map(table, line), sf.length_map(table, short)]
    if pres.kind != "braid":  # the relations hold in commutative images
        powers = [line.element_from_word((0,) * (g + 1)) for g in range(ngen)]  # a -> x, b -> x^2, ...
        maps += [sf.abelianization(table, sf.enumerate_monoid(sf.nat(ngen), L)), sf.ControlledMap(table, line, powers)]
    for phi in maps:
        for p in table.elements:
            if sum(phi.gen_images[g].length for g in p.word) <= phi.target.L:
                assert phi(p) == word_image(phi, p)
            else:
                with pytest.raises(sf.LengthBoundError):
                    phi(p)
    with pytest.raises(sf.LengthBoundError):
        maps[1](table.elements[-1])


@pytest.mark.parametrize("lhs, side", [("a.b", "left"), ("b.a", "right")])
def test_non_cancellative_presentation_fails_witness(lhs, side):
    pres = sf.parse_presentation(json.dumps({"generators": ["a", "b"], "relations": [[lhs, "a.a"]]}))
    table = sf.enumerate_monoid(pres, 4)
    assert not table_cancellative(table)
    with pytest.raises(sf.CancellativityError, match="%s cancellation fails at g=a" % side):
        table.check_cancellation()
    table.check_associativity()
    assert table_associative(table)


@given(st.lists(st.integers(0, 1), min_size=0, max_size=6))
@settings(max_examples=50, deadline=None)
def test_free_canonical_word_is_itself(w):
    table = sf.enumerate_monoid(sf.free(2), 6)
    assert table.element_from_word(tuple(w)).word == tuple(w)


# -- divisor sets ---------------------------------------------------------------


def test_nat2_divisors_of_1_1(nat2):
    p = nat2.element_from_str("x.y")
    R = nat2.right_divisors(p)
    assert len(R) == 4
    assert {nat2.str_of(r) for r in R} == {"e", "x", "y", "x.y"}
    assert nat2.left_divisors(p) == R  # commutative


def test_free2_divisors_are_suffixes_and_prefixes(free2):
    p = free2.element_from_str("a.b")
    assert {free2.str_of(r) for r in free2.right_divisors(p)} == {"e", "b", "a.b"}
    assert {free2.str_of(q) for q in free2.left_divisors(p)} == {"e", "a", "a.b"}


def test_braid_aba_divisors_match_oracle(braid3):
    p = braid3.element_from_str("s1.s2.s1")
    R = {r.word for r in braid3.right_divisors(p)}
    L = {q.word for q in braid3.left_divisors(p)}
    rel = sf.braid(3).relations
    assert R == brute_right_divisors(2, rel, (0, 1, 0))
    assert L == brute_left_divisors(2, rel, (0, 1, 0))
    assert len(R) == len(L) == 6


def test_divisor_bijection_everywhere(braid3):
    for p in braid3.elements_up_to(5):
        assert len(braid3.right_divisors(p)) == len(braid3.left_divisors(p))


def test_divisor_nesting():
    for pres, L in ORACLE_TABLES:
        table = sf.enumerate_monoid(pres, L)
        assert pairwise_nesting(table, table.divisor_sets(L), L) is None, pres.kind


@given(st.lists(st.integers(0, 1), min_size=0, max_size=6))
@settings(max_examples=50, deadline=None)
def test_free_right_divisor_count_is_length_plus_one(w):
    table = sf.enumerate_monoid(sf.free(2), 6)
    p = table.element_from_word(tuple(w))
    assert len(table.right_divisors(p)) == len(w) + 1


# -- right LCM ---------------------------------------------------------------------


def test_nat2_lcm_is_componentwise_max(nat2):
    p, q = words(nat2, "x", "y")
    lcm, report = nat2.right_lcm_check(p, q)
    assert report["verdict"] == "lcm"
    assert nat2.str_of(lcm) == "x.y"


def test_free2_lcm_empty(free2):
    p, q = words(free2, "a", "b")
    lcm, report = free2.right_lcm_check(p, q)
    assert lcm is None
    assert report["verdict"] == "empty-intersection"


def test_braid3_lcm_of_generators(braid3):
    p, q = words(braid3, "s1", "s2")
    lcm, report = braid3.right_lcm_check(p, q)
    assert report["verdict"] == "lcm"
    assert braid3.str_of(lcm) == "s1.s2.s1"


# -- controlled maps -----------------------------------------------------------------


def test_length_map_fibers_are_spheres(braid3, nat1):
    phi = sf.length_map(braid3, nat1)
    two = nat1.element_from_word((0, 0))
    fiber = phi.fiber(two)
    assert len(fiber) == 4
    assert {braid3.str_of(p) for p in fiber} == {"s1.s1", "s1.s2", "s2.s1", "s2.s2"}
    for n in range(6):
        q = nat1.element_from_word((0,) * n)
        assert len(phi.fiber(q)) == braid3.counts()[n]


def test_fiber_over_identity(braid3, nat1):
    phi = sf.length_map(braid3, nat1)
    assert phi.fiber(nat1.identity) == frozenset({braid3.identity})


def test_raag_abelianization_fiber():
    source = sf.enumerate_monoid(sf.raag(["v", "w"], []), 4)
    target = sf.enumerate_monoid(sf.nat(2), 6)
    phi = sf.abelianization(source, target)
    q = target.element_from_str("x.y")
    fiber = phi.fiber(q)
    assert {source.str_of(p) for p in fiber} == {"v.w", "w.v"}


def test_abelianization_rejects_braid(braid3):
    target = sf.enumerate_monoid(sf.nat(2), 6)
    with pytest.raises(sf.ControlledMapError, match="relation"):
        sf.abelianization(braid3, target)


def test_fiber_incomplete_bound(nat1):
    small = sf.enumerate_monoid(sf.braid(3), 2)
    phi = sf.length_map(small, nat1)
    with pytest.raises(sf.IncompleteFiberError):
        phi.fiber(nat1.element_from_word((0,) * 5))


def test_controlled_map_is_homomorphism(braid3, nat1):
    phi = sf.length_map(braid3, nat1)
    for x in braid3.elements_up_to(3):
        for y in braid3.elements_up_to(3):
            assert phi(braid3.multiply(x, y)) == nat1.multiply(phi(x), phi(y))


def test_monoid_element_is_an_immutable_index_word_pair(braid3):
    e = sf.MonoidElement(0, ())
    assert (e.index, e.word, e.length) == (0, (), 0) and e == braid3.identity
    ball = braid3.elements_up_to(3)
    copies = [sf.MonoidElement(x.index, x.word) for x in ball]
    for x, cx in zip(ball, copies):
        assert x == cx and hash(x) == hash(cx) and x.length == len(x.word)
        for y in ball[:8]:
            assert (x == y) == ((x.index, x.word) == (y.index, y.word))
    assert sf.MonoidElement(1, (0,)) != sf.MonoidElement(1, (1,)) != sf.MonoidElement(2, (1,))
    assert len(set(ball) | set(copies)) == len(ball)
    for attribute in ("index", "word", "length", "label"):
        with pytest.raises(AttributeError):
            setattr(ball[1], attribute, 0)


def test_algebra_element_coefficients_keyed_by_elements(braid3):
    s1, s2 = braid3.element_from_str("s1"), braid3.element_from_str("s2")
    a = sf.AlgebraElement(braid3, {s1: 2.0, s2: 1.0})
    b = sf.AlgebraElement(braid3, {sf.MonoidElement(s1.index, s1.word): -2.0, braid3.identity: 3.0})
    total = a + b  # an equal copy of s1 is the same key, so the two s1 terms cancel
    assert total.coeffs == {s2: 1.0, braid3.identity: 3.0} and total.support == [braid3.identity, s2]
    assert total == sf.AlgebraElement(braid3, {sf.MonoidElement(s2.index, s2.word): 1.0, braid3.identity: 3.0})
    assert (a * a).coeffs[braid3.element_from_str("s1.s2")] == 2.0
