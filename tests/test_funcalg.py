import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semifd as sf

from oracles import circle_sup_norm, free_symmetric_compression, kernel_gram_norms, loop_multiplication


def poly(d, coeffs):
    return sf.Polynomial(d, coeffs)


# -- polynomials --------------------------------------------------------------


def test_parse_terms_merges_duplicates():
    p = sf.Polynomial.parse_terms(
        2, [{"exponents": [1, 0], "re": 1.0}, {"exponents": [1, 0], "im": 2.0}]
    )
    assert p.coeffs == {(1, 0): 1 + 2j}


def test_polynomial_arithmetic_and_eval():
    p = poly(2, {(1, 0): 1.0, (0, 1): 1.0})
    q = poly(2, {(1, 0): 1.0, (0, 1): -1.0})
    assert (p * q).coeffs == {(2, 0): 1.0, (0, 2): -1.0}
    assert (p + q).coeffs == {(1, 0): 2.0}
    assert p((2.0, 3.0)) == 5.0
    assert p.degree == 1 and (p * q).degree == 2


def test_polynomial_rejects_bad_exponents():
    with pytest.raises(sf.SemifdError):
        poly(2, {(1,): 1.0})
    with pytest.raises(sf.SemifdError):
        poly(1, {(-1,): 1.0})


# -- kernels and monomial norms --------------------------------------------------


def test_hardy_norms_are_one():
    k = sf.hardy()
    assert all(sf.monomial_norm(k, (n,)) == 1.0 for n in range(20))


def test_dirichlet_norms():
    k = sf.dirichlet()
    for n in range(10):
        assert sf.monomial_norm(k, (n,)) == pytest.approx(math.sqrt(n + 1), abs=1e-15)


def test_drury_arveson_mixed_norm():
    k = sf.drury_arveson(2)
    assert sf.monomial_norm(k, (1, 1)) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert sf.monomial_norm(k, (2, 1)) == pytest.approx(1 / math.sqrt(3), abs=1e-15)


def test_norms_match_power_series_oracle():
    cases = [sf.hardy(), sf.dirichlet(), sf.drury_arveson(2), sf.drury_arveson(3)]
    for k in cases:
        oracle = kernel_gram_norms(k.d, k.c, 6)
        for alpha, value in oracle.items():
            assert sf.monomial_norm(k, alpha) == pytest.approx(value, abs=1e-12)


def test_large_degree_norms_do_not_overflow():
    k = sf.hardy()
    assert sf.monomial_norm(k, (400,)) == pytest.approx(1.0, rel=1e-10)
    da = sf.drury_arveson(2)
    exact_160 = math.sqrt(
        math.factorial(80) * math.factorial(80) / math.factorial(160)
    )
    assert sf.monomial_norm(da, (80, 80)) == pytest.approx(exact_160, rel=1e-10)


def test_custom_kernel_validation():
    with pytest.raises(sf.KernelSpecError):
        sf.KernelSpec(1, "custom", explicit=(2.0, 1.0))
    with pytest.raises(sf.KernelSpecError):
        sf.KernelSpec(1, "custom", explicit=(1.0, -1.0))
    with pytest.raises(sf.KernelSpecError):
        sf.KernelSpec(1, "gaussian")
    k = sf.KernelSpec(1, "custom", explicit=(1.0, 0.5))
    with pytest.raises(sf.DegreeOverflowError):
        sf.monomial_norm(k, (2,))


def test_fock_basis_order():
    b = sf.fock_basis(sf.drury_arveson(2), 2)
    assert b.labels == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))


@pytest.mark.parametrize("d, D", [(1, 40), (2, 12), (3, 9)])
def test_fock_basis_dimension_and_lex_order(d, D):
    labels = sf.fock_basis(sf.drury_arveson(d), D).labels
    assert len(labels) == math.comb(D + d, d)
    # brute force: every exponent vector of degree <= D, by degree then lex
    brute = sorted(
        (a for a in itertools.product(range(D + 1), repeat=d) if sum(a) <= D),
        key=lambda a: (sum(a), a),
    )
    assert list(labels) == brute


def test_fock_basis_keeps_one_int_array():
    # the exponent vectors are one int64 array; tuples are spelled only for labels and find, and equal the array's
    b = sf.fock_basis(sf.drury_arveson(3), 6)
    assert b.array.dtype == np.int64 and b.array.shape == (math.comb(9, 3), 3) and b._labels is None
    assert b.find((1, 2, 3)) == b.labels.index((1, 2, 3)) and b.find((7, 0, 0)) == -1
    assert b.labels == tuple(map(tuple, b.array.tolist()))
    spelled = sf.Basis(b.tag, b.labels)
    assert spelled == b and b == spelled and spelled.array is None
    assert sf.funcalg.multiplication(sf.drury_arveson(3), sf.Polynomial(3, {(1, 0, 2): 1 - 2j}), b, spelled) == (
        sf.funcalg.multiplication(sf.drury_arveson(3), sf.Polynomial(3, {(1, 0, 2): 1 - 2j}), b, b))


# -- multiplication operators --------------------------------------------------------


def test_hardy_shift_matrix():
    M = sf.mult_operator(sf.hardy(), poly(1, {(1,): 1.0}), 3)
    assert np.array_equal(M.to_dense(), np.eye(5, 4, k=-1))


def test_da_coordinate_shift_entries():
    M = sf.mult_operator(sf.drury_arveson(2), poly(2, {(1, 0): 1.0}), 1)
    col = M.domain.index_of((0, 1))
    row = M.codomain.index_of((1, 1))
    assert M.entries[(row, col)] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert M.entries[(M.codomain.index_of((1, 0)), M.domain.index_of((0, 0)))] == 1.0


def test_mult_operator_is_multiplicative():
    k = sf.drury_arveson(2)
    p = poly(2, {(1, 0): 1.0, (0, 1): 2.0})
    q = poly(2, {(0, 1): 1.0, (1, 1): -1.0})
    lhs = sf.mult_operator(k, p, 2 + q.degree) @ sf.mult_operator(k, q, 2)
    assert lhs == sf.mult_operator(k, p * q, 2)


KERNELS = {
    "hardy": sf.hardy(),
    "dirichlet": sf.dirichlet(),
    "da2": sf.drury_arveson(2),
    "da3": sf.drury_arveson(3),
    "custom2": sf.KernelSpec(2, "custom", tuple(1.0 / (n + 1) ** 0.37 for n in range(40))),
}


@pytest.mark.parametrize(
    "name, D",
    [
        ("hardy", 200), ("dirichlet", 160), ("da2", 14), ("da3", 7), ("custom2", 12),
        # the benchmark's shapes, and a codomain of degree 148 < 150 < 152
        ("hardy", 2000), ("dirichlet", 600), ("da2", 36), ("da3", 13), ("custom2", 30), ("da2", 150),
    ],
)
def test_multiplication_matches_entry_loop_bit_for_bit(name, D):
    # degrees above 150 take monomial_norm's lgamma branch; dom = cod, dom
    # smaller than cod, and images dropped beyond cod are all covered
    kernel = KERNELS[name]
    rng = np.random.default_rng(D)
    for trial in range(3):
        coeffs = {tuple(int(x) for x in rng.multinomial(n, [1 / kernel.d] * kernel.d)): c
                  for n, c in zip((0, 1, 2, 3), (1.0, rng.normal() * 1j, complex(*rng.normal(size=2)), -0.5))}
        phi = sf.Polynomial(kernel.d, coeffs)
        for lo, hi in ((D, D), (D, D + 3), (D - 2, D), (D - 2, D + 2)):
            dom, cod = sf.fock_basis(kernel, lo), sf.fock_basis(kernel, hi)
            new = sf.funcalg.multiplication(kernel, phi, dom, cod)
            old = loop_multiplication(kernel, phi, dom, cod)
            assert np.array_equal(new.indptr, old.indptr) and np.array_equal(new.indices, old.indices)
            assert np.array_equal(new.data.view(np.uint64), old.data.view(np.uint64))  # the same bits


@pytest.mark.parametrize("name", ["hardy", "dirichlet", "da2", "da3", "custom2"])
def test_rotations_share_one_lookup_bit_for_bit(name, monkeypatch):
    # the eight rotations of phi share its support: one row lookup serves them all,
    # and each operator equals its own multiplication call bit for bit
    kernel, rng = KERNELS[name], np.random.default_rng(len(name))
    B = sf.fock_basis(kernel, 8)
    monos = [a for a in B.labels if sum(a) <= 3]
    phi = sf.Polynomial(kernel.d, {monos[i]: complex(*rng.normal(size=2)) for i in rng.choice(len(monos), 4, replace=False)})
    other = sf.Polynomial(kernel.d, {monos[-1]: 2.0, (0,) * kernel.d: -1j})
    rotated = [sf.circle_action(phi, complex(np.exp(2j * np.pi * k / 8)).conjugate()) for k in range(8)]
    lookups, positions = [], sf.funcalg._positions
    monkeypatch.setattr(sf.funcalg, "_positions", lambda x, top: lookups.append(len(x)) or positions(x, top))
    for phis, supports in ((rotated, 1), ([phi, other, rotated[3], sf.Polynomial(kernel.d, {}), other], 3)):
        lookups.clear()
        ops = sf.funcalg._multiplications(kernel, phis, B, B)
        assert len(lookups) == supports
        for p, op in zip(phis, ops):
            one = sf.funcalg.multiplication(kernel, p, B, B)
            assert np.array_equal(op.indptr, one.indptr) and np.array_equal(op.indices, one.indices)
            assert np.array_equal(op.data.view(np.uint64), one.data.view(np.uint64))


def test_multiplication_refuses_a_codomain_that_is_not_a_fock_basis():
    # rows are positions in the degree-then-lex order, so any other codomain is refused
    kernel, phi = sf.drury_arveson(2), poly(2, {(1, 0): 1.0})
    B = sf.fock_basis(kernel, 3)
    with pytest.raises(sf.BasisMismatchError):
        sf.funcalg.multiplication(kernel, phi, B, sf.Basis(("other",), B.labels))
    with pytest.raises(sf.BasisMismatchError):
        sf.funcalg.multiplication(kernel, phi, B, sf.fock_basis(sf.KernelSpec(2, "dirichlet"), 3))


def test_multiplication_refuses_a_domain_that_is_not_a_fock_basis_of_the_codomains_kernel():
    # the domain is read as a prefix of the codomain, so it must carry the codomain's tag:
    # an l2 ball of a monoid, and a Dirichlet Fock basis under the Hardy kernel, are refused
    kernel, z = sf.hardy(), poly(1, {(1,): 1.0})
    cod, table = sf.fock_basis(kernel, 4), sf.enumerate_monoid(sf.free(2), 1)
    for dom in (sf.graded_basis(table, 1), sf.fock_basis(sf.dirichlet(), 2)):
        for call in (sf.funcalg.multiplication, lambda k, p, dom, cod: sf.funcalg._multiplications(k, [p], dom, cod)):
            with pytest.raises(sf.BasisMismatchError, match="domain or codomain is not a Fock basis"):
                call(kernel, z, dom, cod)
    assert sf.funcalg.multiplication(kernel, z, sf.fock_basis(kernel, 2), cod).to_dense().shape == (5, 3)


@pytest.mark.parametrize("zeta", [math.nan, complex(math.nan, 0), math.inf], ids=["nan", "complex-nan", "inf"])
@pytest.mark.parametrize("rotate", ["circle_action", "circle_action_matrix"])
def test_rotation_by_a_non_finite_parameter_is_refused(rotate, zeta):
    # NaN compares False with everything, so the unimodular guard fails it explicitly
    call = {"circle_action": lambda: sf.circle_action(poly(1, {(1,): 1.0}), zeta),
            "circle_action_matrix": lambda: sf.circle_action_matrix(sf.hardy(), 2, zeta)}[rotate]
    with pytest.raises(sf.InputError, match="must be unimodular"):
        call()


def test_circle_covariance_passes_on_a_leading_block_and_fails_a_wrong_block():
    # the block of degree <= 4 of the compression to degree <= 6 is the compression to degree <= 4
    kernel = sf.drury_arveson(2)
    phi = poly(2, {(0, 0): 0.5 - 0.25j, (1, 0): 1.0, (1, 2): 0.75j})
    top = sf.fock_basis(kernel, 6)
    A, low = sf.funcalg.multiplication(kernel, phi, top, top).leading_block(math.comb(4 + 2, 2)), sf.fock_basis(kernel, 4)
    assert A == sf.funcalg.multiplication(kernel, phi, low, low)
    assert sf.funcalg.circle_covariance(kernel, phi, A) == "within 1e-12"
    with pytest.raises(sf.InvariantError, match="covariance violated at 8th root 0: err "):
        sf.funcalg.circle_covariance(kernel, phi, A.scale(1 + 1e-9))


@pytest.mark.parametrize("D", [0, 1, 5, 40])
def test_nat1_compressions_are_the_hardy_compression(D):
    # the semigroup side: pi_F(sum c_n lambda_(x^n)) on Y_F, F = {x^D} in nat(1),
    # assembled with compress, scale and + (no code shared with multiplication);
    # Hardy monomials all have norm 1, so the two agree entry for entry
    rng = np.random.default_rng(D)
    c = rng.normal(size=D + 3) + 1j * rng.normal(size=D + 3)
    table = sf.enumerate_monoid(sf.nat(1), D + 2)
    sub = sf.build_Y(table, [table.element_from_word((0,) * D)])
    total = sub.compress(table.element_from_word(())).scale(c[0])
    for n in range(1, D + 3):  # lambda_(x^n) for n > D compresses to 0
        total = total + sub.compress(table.element_from_word((0,) * n)).scale(c[n])
    basis = sf.fock_basis(sf.hardy(), D)
    hardy = sf.funcalg.multiplication(sf.hardy(), poly(1, {(n,): c[n] for n in range(D + 3)}), basis, basis)
    assert np.array_equal(total.indptr, hardy.indptr) and np.array_equal(total.indices, hardy.indices)
    assert np.array_equal(total.data, hardy.data)


@pytest.mark.parametrize("d, D", [(2, 6), (3, 6)])
def test_free_monoid_symmetric_compression_is_drury_arveson(d, D):
    # the semigroup side (lambda_op, abelianization fibers) shares no code with monomial_norm
    coeffs = {(0,) * d: 1.0, (1,) + (0,) * (d - 1): 0.5 - 0.25j, (1, 1) + (0,) * (d - 2): 0.75j, (0,) * (d - 1) + (2,): -0.3}
    kernel = sf.drury_arveson(d)
    basis = sf.fock_basis(kernel, D)
    expected = free_symmetric_compression(d, coeffs, D, basis.labels)
    M = sf.funcalg.multiplication(kernel, sf.Polynomial(d, coeffs), basis, basis)
    assert np.abs(M.to_dense() - expected).max() <= 1e-15
    assert sf.operator_norm(M) == pytest.approx(np.linalg.svd(expected, compute_uv=False)[0], rel=1e-12)


def test_mult_operator_dimension_mismatch():
    with pytest.raises(sf.SemifdError):
        sf.mult_operator(sf.hardy(), poly(2, {(1, 0): 1.0}), 2)


# -- multiplier norm lower bounds -------------------------------------------------


def test_da_coordinate_multiplier_norm_is_one():
    val = sf.multiplier_norm_lower(sf.drury_arveson(2), poly(2, {(1, 0): 1.0}), 6)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_hardy_one_plus_z_ladder():
    phi = poly(1, {(0,): 1.0, (1,): 1.0})
    vals = [sf.multiplier_norm_lower(sf.hardy(), phi, D) for D in (10, 50, 100, 200)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert 1.99 <= vals[-1] <= 2.0


def test_hardy_bounds_approach_circle_sup():
    # for Hardy multipliers the norm is the sup on the circle
    for coeffs in [{(0,): 1.0, (1,): 1.0}, {(1,): 2.0, (3,): 1.0}, {(0,): 1j, (2,): 1.0}]:
        phi = poly(1, coeffs)
        target = circle_sup_norm(phi)
        val = sf.multiplier_norm_lower(sf.hardy(), phi, 200)
        assert val <= target + 1e-10
        assert val == pytest.approx(target, abs=1e-2)


@pytest.mark.parametrize("D", [10, 200, 3000])
def test_hardy_one_plus_z_closed_form(D):
    # the compression of M_{1+z} to degree <= D is I + S on C^{D+1}, with
    # norm 2 cos(pi / (2D + 3))
    phi = poly(1, {(0,): 1.0, (1,): 1.0})
    val = sf.multiplier_norm_lower(sf.hardy(), phi, D)
    assert val == pytest.approx(2 * math.cos(math.pi / (2 * D + 3)), rel=1e-12)


def test_custom_kernel_needs_coefficients_up_to_D_only():
    D = 6
    phi = poly(1, {(0,): 1.0, (2,): 0.5})
    k = sf.KernelSpec(1, "custom", explicit=tuple(1.0 / (n + 1) for n in range(D + 1)))
    val = sf.multiplier_norm_lower(k, phi, D)
    # dense oracle: the square compression assembled from the norm formula
    norms = [math.sqrt(n + 1) for n in range(D + 1)]
    M = np.zeros((D + 1, D + 1))
    for col in range(D + 1):
        M[col, col] += 1.0
        if col + 2 <= D:
            M[col + 2, col] += 0.5 * norms[col + 2] / norms[col]
    assert val == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-12)
    with pytest.raises(sf.DegreeOverflowError):
        sf.multiplier_norm_lower(k, phi, D + 1)


def test_dirichlet_shift_norm_exceeds_one():
    # the Dirichlet shift is not a contraction
    val = sf.multiplier_norm_lower(sf.dirichlet(), poly(1, {(1,): 1.0}), 12)
    assert val > 1.0


@given(st.integers(2, 9))
@settings(max_examples=8, deadline=None)
def test_lower_bounds_monotone_random_degree(D):
    phi = poly(1, {(0,): 0.5, (1,): 1.0, (2,): -0.25})
    assert sf.multiplier_norm_lower(sf.hardy(), phi, D) <= (
        sf.multiplier_norm_lower(sf.hardy(), phi, D + 3) + 1e-12
    )


# -- circle action and grading --------------------------------------------------------


def test_homogeneous_decompose_roundtrip():
    phi = poly(2, {(0, 0): 1.0, (1, 0): 1j, (1, 1): -1.0})
    parts = sf.homogeneous_decompose(phi)
    assert [n for n, _ in parts] == [0, 1, 2]
    total = poly(2, {})
    for _, part in parts:
        total = total + part
    assert total == phi


def test_circle_action_example():
    phi = poly(2, {(0, 0): 1.0, (1, 0): 1j, (1, 1): -1.0})
    rotated = sf.circle_action(phi, 1j)
    assert rotated.coeffs == {(0, 0): 1.0, (1, 0): -1.0, (1, 1): 1.0}


def test_circle_action_is_group_action():
    phi = poly(1, {(0,): 1.0, (1,): 2.0, (3,): -1j})
    z1, z2 = np.exp(0.3j), np.exp(1.1j)
    assert sf.circle_action(sf.circle_action(phi, z1), z2).coeffs == pytest.approx(
        sf.circle_action(phi, z1 * z2).coeffs
    )
    with pytest.raises(sf.SemifdError):
        sf.circle_action(phi, 2.0)


def test_circle_action_matrix_unitary():
    k = sf.drury_arveson(2)
    G = sf.circle_action_matrix(k, 3, np.exp(0.7j))
    assert (G.adjoint() @ G).to_dense() == pytest.approx(np.eye(G.domain.dim))


def test_covariance_all_kernels():
    # Gamma_zeta* M_phi Gamma_zeta = M_{phi rotated by conj(zeta)}
    phi = poly(2, {(0, 0): 1.0, (1, 0): 1.0, (1, 1): 1.0})
    D = 8
    for k in (sf.drury_arveson(2), sf.KernelSpec(2, "dirichlet")):
        for j in range(8):
            zeta = np.exp(2j * np.pi * j / 8)
            lhs = (
                sf.circle_action_matrix(k, D + phi.degree, zeta).adjoint()
                @ sf.mult_operator(k, phi, D)
                @ sf.circle_action_matrix(k, D, zeta)
            )
            rhs = sf.mult_operator(k, sf.circle_action(phi, np.conj(zeta)), D)
            err = np.abs(lhs.to_dense() - rhs.to_dense()).max()
            assert err <= 1e-12


def test_n_coaction_quotient_dims():
    phi2 = poly(2, {(1, 0): 1.0, (1, 1): 1.0})
    comps, qdim = sf.n_coaction(phi2, F=(2,))
    assert [n for n, _ in comps] == [1, 2]
    assert qdim == 6  # 1 + 2 + 3 monomials of degree <= 2 in two variables
    _, qdim1 = sf.n_coaction(poly(1, {(1,): 1.0}), F=(4,))
    assert qdim1 == 5  # k + 1 in one variable
    assert sf.n_coaction(phi2)[1] == 0
