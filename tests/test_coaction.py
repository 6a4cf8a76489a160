import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semifd as sf
from semifd import coaction

from oracles import operator_fell_check


@pytest.fixture(scope="module")
def braid_length_spec(braid3, nat1):
    return sf.length_map(braid3, nat1)


@pytest.fixture(scope="module")
def free_abel_spec(free2):
    target = sf.enumerate_monoid(sf.nat(2), 14)
    return sf.abelianization(free2, target)


def el(table, text):
    return table.element_from_str(text)


# -- delta on truncations ------------------------------------------------------


def test_delta_of_generator_is_tensor_of_shifts(braid_length_spec):
    spec = braid_length_spec
    a = el(spec.source, "s1")
    A = sf.delta_apply(spec, sf.AlgebraElement.monomial(spec.source, a), 2, 2)
    expected = sf.lambda_op(spec.source, a, 2).tensor(
        sf.lambda_op(spec.target, spec.target.element_from_word((0,)), 2)
    )
    assert A == expected


def test_delta_of_identity(braid_length_spec):
    spec = braid_length_spec
    A = sf.delta_apply(spec, sf.AlgebraElement.monomial(spec.source, spec.source.identity), 2, 2)
    assert A == sf.identity_operator(A.domain)


def test_delta_linearity(braid_length_spec):
    spec = braid_length_spec
    a = el(spec.source, "s1")
    bb = el(spec.source, "s2.s2")
    mixed = sf.AlgebraElement(spec.source, {a: 2.0, bb: 3.0})
    A = sf.delta_apply(spec, mixed, 2, 2)
    one = spec.target.element_from_word((0,))
    two = spec.target.element_from_word((0, 0))
    term1 = sf.lambda_op(spec.source, a, 2, L_cod=4).tensor(
        sf.lambda_op(spec.target, one, 2, L_cod=4)
    ).scale(2.0)
    term2 = sf.lambda_op(spec.source, bb, 2, L_cod=4).tensor(
        sf.lambda_op(spec.target, two, 2, L_cod=4)
    ).scale(3.0)
    assert A == term1 + term2


def test_delta_multiplicative_on_truncations(braid_length_spec):
    spec = braid_length_spec
    a = sf.AlgebraElement.monomial(spec.source, el(spec.source, "s1"))
    b = sf.AlgebraElement.monomial(spec.source, el(spec.source, "s2"))
    lhs = sf.delta_apply(spec, a * b, 2, 2)
    rhs = sf.delta_apply(spec, a, 3, 3) @ sf.delta_apply(spec, b, 2, 2)
    assert lhs == rhs


def test_delta_empty_element_is_zero(braid_length_spec):
    spec = braid_length_spec
    A = sf.delta_apply(spec, sf.AlgebraElement(spec.source, {}), 1, 1)
    assert A.is_zero()


# -- spectral decomposition ----------------------------------------------------------


def test_spectral_decompose_by_length(braid_length_spec):
    spec = braid_length_spec
    a = sf.AlgebraElement(
        spec.source, {el(spec.source, "s1"): 2.0, el(spec.source, "s2.s2"): 3.0}
    )
    parts = sf.spectral_decompose(a, spec)
    assert {q.length for q in parts} == {1, 2}
    for q, part in parts.items():
        assert all(spec(p) == q for p in part.support)


def test_spectral_decompose_merges_abelianized_words(free_abel_spec):
    spec = free_abel_spec
    a = sf.AlgebraElement(
        spec.source, {el(spec.source, "a.b"): 1.0, el(spec.source, "b.a"): 1.0}
    )
    parts = sf.spectral_decompose(a, spec)
    assert len(parts) == 1
    (q,) = parts
    assert spec.target.str_of(q) == "x.y"
    assert len(parts[q].support) == 2


def test_spectral_decompose_zero():
    table = sf.enumerate_monoid(sf.free(1), 3)
    phi = sf.length_map(table, table)
    assert sf.spectral_decompose(sf.AlgebraElement(table, {}), phi) == {}


def test_spectral_subspace_dims_match_growth(braid_length_spec):
    spec = braid_length_spec
    counts = spec.source.counts()
    for n in range(5):
        q = spec.target.element_from_word((0,) * n)
        assert len(spec.fiber(q)) == counts[n] == [1, 2, 4, 7, 12][n]


@given(
    st.dictionaries(
        st.integers(0, 12),
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_spectral_reconstruction_random(coeff_by_index):
    table = sf.enumerate_monoid(sf.braid(3), 4)
    target = sf.enumerate_monoid(sf.nat(1), 6)
    spec = sf.length_map(table, target)
    a = sf.AlgebraElement(table, {table.element(i): c for i, c in coeff_by_index.items()})
    parts = sf.spectral_decompose(a, spec)
    total = sf.AlgebraElement(table, {})
    for q in parts:
        total = total + parts[q]
    assert total == a
    assert sf.character_reconstruction(spec, a) == a


# -- character ----------------------------------------------------------------------


def test_character_is_coefficient_sum(braid_length_spec):
    spec = braid_length_spec
    a = sf.AlgebraElement(
        spec.source, {el(spec.source, "s1"): 2.0, el(spec.source, "s2.s2"): 3.0}
    )
    assert sf.apply_character(a) == 5.0
    assert sf.apply_character(sf.AlgebraElement.monomial(spec.source, spec.source.identity)) == 1.0


def test_character_multiplicative_on_monomials(braid3):
    a = sf.AlgebraElement.monomial(braid3, el(braid3, "s1.s2"))
    b = sf.AlgebraElement.monomial(braid3, el(braid3, "s2"))
    assert sf.apply_character(a * b) == sf.apply_character(a) * sf.apply_character(b) == 1.0


# -- Fell absorption -----------------------------------------------------------------


def test_fell_intertwiner_on_naturals(nat1):
    spec = sf.length_map(nat1, nat1)
    W, report = sf.fell_intertwiner(spec, 2, 2)
    assert report["isometry"] == "exact"
    # W(e_m (x) e_k) = e_m (x) e_{k+m}
    for m in range(3):
        for k in range(3):
            col = W.domain.index_of((nat1.by_length[m][0], nat1.by_length[k][0]))
            row = W.codomain.index_of((nat1.by_length[m][0], nat1.by_length[k + m][0]))
            assert W.entries[(row, col)] == 1.0


def test_fell_intertwiner_braid_length(braid_length_spec):
    W, report = sf.fell_intertwiner(braid_length_spec, 3, 4)
    assert report["intertwined_generators"] == ["s1", "s2"]
    assert W.adjoint() @ W == sf.identity_operator(W.domain)


def test_fell_intertwiner_with_unequal_image_lengths(free2, nat1):
    # a -> x, b -> x^2: the codomain growth max |phi(p)| over |p| <= L_P is
    # read off by brute force over the ball and must match W's second leg
    x = nat1.element_from_word((0,))
    spec = sf.ControlledMap(free2, nat1, [x, nat1.multiply(x, x)])
    W, report = sf.fell_intertwiner(spec, 3, 4)
    assert report["isometry"] == "exact" and report["intertwined_generators"] == ["a", "b"]
    growth = max(spec(p).length for p in free2.elements_up_to(3))
    assert growth == 6
    assert W.codomain.factors[1] == sf.graded_basis(nat1, 4 + growth)
    for p in free2.elements_up_to(3):
        for k in nat1.elements_up_to(4):
            row = W.codomain.index_of((p.index, nat1.multiply(spec(p), k).index))
            assert W.entries[(row, W.domain.index_of((p.index, k.index)))] == 1.0


def test_fell_intertwiner_free_abelianization(free_abel_spec):
    _, report = sf.fell_intertwiner(free_abel_spec, 3, 4)
    assert report["isometry"] == "exact"
    assert report["intertwined_generators"] == ["a", "b"]


def test_isometry_transfers_norms(braid_length_spec):
    spec = braid_length_spec
    a = sf.AlgebraElement(
        spec.source, {el(spec.source, "s1"): 1.0, el(spec.source, "s2"): -1.0}
    )
    W = sf.fell_intertwiner(spec, 2, 2)[0]
    delta_a = sf.delta_apply(spec, a, 2, 4)  # domain matched to W's codomain
    lam_a = sf.lambda_op(spec.source, el(spec.source, "s1"), 2).scale(1.0) + sf.lambda_op(
        spec.source, el(spec.source, "s2"), 2
    ).scale(-1.0)
    a_tensor_id = lam_a.tensor(sf.identity_operator(sf.graded_basis(spec.target, 2)))
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.normal(size=W.domain.dim) + 1j * rng.normal(size=W.domain.dim)
        lhs = np.linalg.norm(delta_a.apply(W.apply(v)))
        rhs = np.linalg.norm(a_tensor_id.apply(v))
        assert lhs == pytest.approx(rhs, rel=1e-12)
    # consequence: compressed norm of delta(a) dominates that of a
    assert sf.operator_norm(delta_a) >= sf.operator_norm(lam_a) - 1e-12


# -- quotient spanning sets --------------------------------------------------------------


def test_qf_spanning_braid_length(braid_length_spec):
    spec = braid_length_spec
    span, count = sf.qf_spanning_set(spec, [spec.target.element_from_word((0, 0))])
    assert count == 7
    assert {p.length for p in span} == {0, 1, 2}


def test_qf_spanning_F0(braid_length_spec):
    spec = braid_length_spec
    span, count = sf.qf_spanning_set(spec, [spec.target.identity])
    assert span == frozenset({spec.source.identity}) and count == 1


def test_qf_spanning_free_abelianization(free_abel_spec):
    spec = free_abel_spec
    q = spec.target.element_from_str("x.y")
    span, count = sf.qf_spanning_set(spec, [q])
    assert count == 5
    assert {spec.source.str_of(p) for p in span} == {"e", "a", "b", "a.b", "b.a"}


def test_qf_spanning_noncommutative_target():
    # over a free target, left and right divisors differ: F = {a.b} has right
    # divisors e, b, a.b, whose left divisors are e, b, a, a.b
    table = sf.enumerate_monoid(sf.free(2), 3)
    spec = sf.ControlledMap(table, table, [table.element_from_str(g) for g in "ab"])
    span, count = sf.qf_spanning_set(spec, [table.element_from_str("a.b")])
    assert {table.str_of(p) for p in span} == {"e", "a", "b", "a.b"} and count == 4


def test_qf_spanning_monotone(braid_length_spec):
    spec = braid_length_spec
    small, _ = sf.qf_spanning_set(spec, [spec.target.element_from_word((0,))])
    big, _ = sf.qf_spanning_set(spec, [spec.target.element_from_word((0, 0, 0))])
    assert small <= big


# -- the Fell certificate against the operator-product oracle ------------------------

_FELL_CASES = [
    (kind, params, kind_map)
    for kind, params in [
        ("free", {"n": 2}),
        ("nat", {"d": 1}),
        ("nat", {"d": 2}),
        ("braid", {"n": 3}),
        ("raag", {"vertices": ["a", "b", "c"], "edges": [["a", "b"]]}),
    ]
    for kind_map in ("length", "abelianization", "powers")
    if kind != "braid" or kind_map == "length"  # braid relations do not hold in N^d
]


def _fell_map(kind, params, kind_map, L_P, L_Q):
    """A controlled map from the builtin presentation onto N (length) or N^d:
    abelianization sends generator g to x_g, powers to x_g^(g+1)."""
    pres = sf.builtin(kind, **params)
    d = len(pres.generators)
    source = sf.enumerate_monoid(pres, L_P + 1)
    target_pres = sf.free(1) if kind_map == "length" else sf.nat(d)
    growth_up = (L_P + 1) * (d if kind_map == "powers" else 1)
    target = sf.enumerate_monoid(target_pres, L_Q + max(growth_up, 3 * d))  # relation images fit too
    if kind_map == "length":
        return sf.length_map(source, target)
    return sf.ControlledMap(source, target, [
        target.element_from_word((g,) * (g + 1 if kind_map == "powers" else 1)) for g in range(d)
    ])


def _fell_verdict(check, phi, L_P, L_Q):
    try:
        return check(phi, L_P, L_Q)
    except sf.InvariantError as exc:
        return str(exc)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(_FELL_CASES), st.integers(0, 3), st.integers(0, 3))
def test_fell_certificate_matches_operator_oracle(case, L_P, L_Q):
    phi = _fell_map(*case, L_P, L_Q)
    verdict = _fell_verdict(sf.fell_intertwiner, phi, L_P, L_Q)
    assert verdict == _fell_verdict(operator_fell_check, phi, L_P, L_Q)
    _, report = verdict  # every map here is a homomorphism, so both certify its W
    assert report["isometry"] == "exact"
    assert report["intertwined_generators"] == list(phi.source.presentation.generators)


def _merge_two_columns(rows_fn):
    """W sends columns 0 and 1 to one row."""
    def broken(phi, L_P, L_Q):
        dom, cod, rows = rows_fn(phi, L_P, L_Q)
        rows = rows.copy()
        rows[1] = rows[0]
        return dom, cod, rows
    return broken


def _wrong_image(rows_fn):
    """W is built from phi(p) = e for the last p of the L_P ball, |p| = L_P."""
    def broken(phi, L_P, L_Q):
        bad = copy.copy(phi)
        bad.images = list(phi.images)
        bad.images[len(phi.source.elements_up_to(L_P)) - 1] = 0
        return rows_fn(bad, L_P, L_Q)
    return broken


@pytest.mark.parametrize("case", _FELL_CASES[::2], ids=lambda c: "%s-%s" % (c[0], c[2]))
@pytest.mark.parametrize(
    "breakage, message",
    [
        (_merge_two_columns, "Fell intertwiner is not an isometry"),
        (_wrong_image, "Fell intertwining fails for generator %s"),
    ],
    ids=["two-columns-one-row", "wrong-image"],
)
def test_broken_intertwiner_is_rejected_by_both_checks(monkeypatch, case, breakage, message):
    phi = _fell_map(*case, 2, 2)
    if "%s" in message:  # the first generator already sees the wrong image
        message %= phi.source.presentation.generators[0]
    monkeypatch.setattr(coaction, "_fell_rows", breakage(coaction._fell_rows))
    assert _fell_verdict(sf.fell_intertwiner, phi, 2, 2) == message
    assert _fell_verdict(operator_fell_check, phi, 2, 2) == message
