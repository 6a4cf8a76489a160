import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semifd as sf
from semifd.linrep import partial_map

from oracles import brute_right_divisors, compression_rows, table_coinvariant


def el(table, text):
    return table.element_from_str(text)


def nat_el(table, n):
    return table.element_from_word((0,) * n)


# -- Y_F construction -----------------------------------------------------------


def test_Y_on_naturals(nat1):
    sub = sf.build_Y(nat1, [nat_el(nat1, 3)])
    assert sub.dim == 4
    assert sub.basis.labels == tuple(nat1.by_length[n][0] for n in range(4))


def test_Y_free2_is_suffix_span(free2):
    sub = sf.build_Y(free2, [el(free2, "a.b")])
    assert sub.dim == 3


def test_Y_braid_aba_matches_divisor_oracle(braid3):
    sub = sf.build_Y(braid3, [el(braid3, "s1.s2.s1")])
    assert sub.dim == len(brute_right_divisors(2, sf.braid(3).relations, (0, 1, 0))) == 6


def test_Y_monotone_in_F(braid3):
    small = sf.build_Y(braid3, [el(braid3, "s1.s2")])
    big = sf.build_Y(braid3, [el(braid3, "s1.s2"), el(braid3, "s2.s2.s1")])
    assert set(small.basis.labels) <= set(big.basis.labels)
    assert big.dim <= sum(
        len(braid3.right_divisors(p)) for p in big.F
    )


def test_Y_rejects_empty_or_foreign(braid3, free2):
    with pytest.raises(sf.SemifdError):
        sf.build_Y(braid3, [])


def test_exhaustion(braid3):
    # every element appears in Y_{p} for its own singleton
    covered = set()
    for p in braid3.elements_up_to(4):
        covered.update(sf.build_Y(braid3, [p]).basis.labels)
    assert covered >= {p.index for p in braid3.elements_up_to(4)}


# -- compressions ------------------------------------------------------------------


def test_pi_F_nilpotent_shift(nat1):
    mat = sf.build_Y(nat1, [nat_el(nat1, 2)]).compress(nat_el(nat1, 1))
    assert np.array_equal(mat.to_dense(), np.eye(3, 3, k=-1))


def test_pi_F_annihilates_long_shift(nat1):
    mat = sf.build_Y(nat1, [nat_el(nat1, 2)]).compress(nat_el(nat1, 3))
    assert mat.is_zero()


FAMILIES = [
    sf.nat(1), sf.nat(2), sf.free(2), sf.braid(3), sf.braid(4), sf.raag(["a", "b", "c"], [("a", "b")]),
    sf.MonoidPresentation(("a", "b", "c"), (((0, 1), (0, 2)),)),  # a.b = a.c: not cancellative
]


@st.composite
def presentations(draw):
    """A builtin family, the non-cancellative a.b = a.c, or a small random homogeneous relation set."""
    if draw(st.booleans()):
        return draw(st.sampled_from(FAMILIES))
    k = draw(st.integers(1, 3))

    def word(n):
        return st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(tuple)

    pair = st.integers(1, 3).flatmap(lambda n: st.tuples(word(n), word(n)))
    return sf.MonoidPresentation(tuple("abc"[:k]), tuple(draw(st.lists(pair, max_size=3))))


@given(presentations(), st.integers(0, 5), st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_rows_read_off_the_walk_match_the_former_loop(pres, L, data):
    # every s of the L-ball, against one multiply and one lookup per (s, r); cancellative or not
    table = sf.enumerate_monoid(pres, L)
    sub = sf.build_Y(table, data.draw(st.lists(st.sampled_from(table.elements), min_size=1, max_size=3)))
    for s in table.elements:
        rows = sub.rows(s)
        assert rows == compression_rows(sub, s)
        assert sub.compress(s) == partial_map(sub.basis, sub.basis, rows)


def test_pi_F_identity_acts_as_identity(braid3):
    sub = sf.build_Y(braid3, [el(braid3, "s1.s2.s1")])
    assert sub.compress(braid3.identity) == sf.identity_operator(sub.basis)


def test_pi_F_multiplicative(free2, braid3):
    for table in (free2, braid3):
        F = [table.elements_up_to(4)[-1], table.element_from_word((0, 1, 0, 0))]
        sub = sf.build_Y(table, F)
        for s in table.elements_up_to(2):
            for t in table.elements_up_to(2):
                st = table.multiply(s, t)
                assert sub.compress(s) @ sub.compress(t) == sub.compress(st)


def test_pi_F_contractive(braid3):
    sub = sf.build_Y(braid3, [el(braid3, "s1.s2.s1.s2")])
    for s in braid3.elements_up_to(4):
        assert sf.operator_norm(sub.compress(s)) <= 1 + 1e-12


def test_nesting_compression(braid3):
    F_small = [el(braid3, "s1.s2")]
    F_big = F_small + [el(braid3, "s2.s1.s1")]
    small = sf.build_Y(braid3, F_small)
    big = sf.build_Y(braid3, F_big)
    incl = sf.inclusion(small.basis, big.basis)
    for s in braid3.elements_up_to(3):
        assert incl.adjoint() @ big.compress(s) @ incl == small.compress(s)


@pytest.mark.parametrize(
    "pres, R, radii",
    [(sf.braid(4), 8, (3, 5, 8)), (sf.free(2), 10, (3, 6, 10)), (sf.nat(2), 20, (5, 10, 20))],
    ids=["braid4", "free2", "nat2"],
)
def test_ball_compressions_are_leading_blocks_of_one_top_operator(pres, R, radii):
    # a ball is divisor-closed, so it is its own Y_F, and it is the index prefix of the graded
    # basis: P_r (sum_g lambda_g) P_r is the leading block of P_R (sum_g lambda_g) P_R, r <= R.
    # The top operator is one partial map per generator, column x -> g.x for |x| <= R - 1
    table = sf.enumerate_monoid(pres, R)
    ball, gens = sf.graded_basis(table, R), [table.element_from_word((i,)) for i in range(len(pres.generators))]
    top = sf.zero_operator(ball, ball)
    for g in gens:
        prods = table.left_products(g, R - 1)
        rows = np.append(prods, np.full(ball.dim - len(prods), -1))
        top = top + partial_map(ball, ball, rows)
    for r in radii:
        Y = sf.build_Y(table, table.elements_up_to(r))
        assert Y.dim == len(table.elements_up_to(r))
        compressions = [Y.compress(g) for g in gens]
        expected = compressions[0]
        for op in compressions[1:]:
            expected = expected + op
        assert top.leading_block(Y.dim) == expected


def test_coinvariance_entrywise(braid3):
    sub = sf.build_Y(braid3, [el(braid3, "s1.s2.s1")])
    sub.check_coinvariance()
    for s in braid3.elements_up_to(3):
        # Q_F lambda_s* Q_F == lambda_s* Q_F as operators on level-3 space
        adj = sf.lambda_adjoint_op(braid3, s, 3)
        level = sf.graded_basis(braid3, 3)
        incl = sf.inclusion(sub.basis, level)
        proj = incl @ incl.adjoint()
        assert proj @ adj @ proj == adj @ proj


@pytest.mark.parametrize(
    "pres, L, F_words",
    [
        (sf.braid(3), 5, [(0, 1, 0), (1, 1), (0, 1, 1, 0, 1)]),
        (sf.braid(4), 4, [(0, 1, 2), (0, 2, 1, 0)]),
        (sf.free(2), 4, [(0, 1), (1, 0, 0, 1)]),
        (sf.nat(2), 5, [(0, 0, 1), (0, 1, 1, 1, 1)]),
    ],
    ids=["braid3", "braid4", "free2", "nat2"],
)
def test_coinvariance_matches_per_s_oracle(pres, L, F_words):
    table = sf.enumerate_monoid(pres, L)
    ball = table.elements_up_to(L)
    for n in range(1, len(F_words) + 1):
        sub = sf.build_Y(table, [table.element_from_word(w) for w in F_words[:n]])
        sub.check_coinvariance()
        assert all(table_coinvariant(table, sub.basis.labels, s) for s in ball)
    # without the identity, lambda_r* e_r = e_1 leaves the span for every r
    holed = sf.DivisorSubspace(table, sub.F, sf.Basis(sub.basis.tag, sub.basis.labels[1:]))
    with pytest.raises(sf.SemifdError, match="right divisor e of"):
        holed.check_coinvariance()
    assert not all(table_coinvariant(table, holed.basis.labels, s) for s in ball)


# -- kernel sets ---------------------------------------------------------------------


def test_kernel_set_naturals(nat1):
    ks = sf.kernel_set(sf.build_Y(nat1, [nat_el(nat1, 2)]), 5)
    assert {s.length for s in ks} == {3, 4, 5}


def test_kernel_set_free2(free2):
    ks = sf.kernel_set(sf.build_Y(free2, [el(free2, "a.b")]), 2)
    assert {free2.str_of(s) for s in ks} == {"a.a", "b.a", "b.b"}


def test_kernel_set_full_F_is_empty(free2):
    F = free2.elements_up_to(2)
    assert sf.kernel_set(sf.build_Y(free2, F), 2) == frozenset()


# -- stabilization -----------------------------------------------------------------------


def test_stabilization_free2(free2):
    s, q = el(free2, "a"), el(free2, "b")
    F0, report = sf.stabilization_index(free2, s, q)
    assert [free2.str_of(p) for p in F0] == ["a.b"]
    assert report["image"] == "a.b"


def test_stabilization_identity(braid3):
    q = el(braid3, "s1.s2")
    F0, _ = sf.stabilization_index(braid3, braid3.identity, q)
    assert F0 == (q,)


def test_stabilization_braid(braid3):
    s, q = el(braid3, "s2"), el(braid3, "s1.s2")
    extras = [[el(braid3, "s1.s1")], [el(braid3, "s2.s2"), el(braid3, "s1")]]
    F0, report = sf.stabilization_index(braid3, s, q, extras=extras)
    assert [braid3.str_of(p) for p in F0] == ["s1.s2.s1"]
    assert report["supersets_tested"] == 3
