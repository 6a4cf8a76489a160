import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import semifd as sf
from semifd import linrep
from semifd.linrep import partial_map

from oracles import gram_operator_norm, scipy_algebra, scipy_canonical, scipy_operator_norm

# the former estimators of lambda_max(A*A): dense eigvalsh stays for n <= 64, and
# the shift search replaced eig_banded and ARPACK's eigsh above that
ESTIMATORS = ((np.linalg, "eigvalsh"), (scipy.linalg, "eig_banded"), (scipy.sparse.linalg, "eigsh"))


def record_estimators(monkeypatch) -> list:
    """The names of the estimators called, in order."""
    calls = []
    for module, name in ESTIMATORS:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    return calls


def record_factorizations(monkeypatch, pbtrf=None) -> list:
    """The info of each LAPACK pbtrf the norm routine calls (0: the Cholesky ran to completion),
    through pbtrf(real_pbtrf, *args, **kwargs) when given."""
    infos, real_get = [], scipy.linalg.get_lapack_funcs

    def get_lapack_funcs(names, arrays):
        real, *rest = real_get(names, arrays)

        def wrapped(*args, **kwargs):
            out = pbtrf(real, *args, **kwargs) if pbtrf else real(*args, **kwargs)
            infos.append(out[1])
            return out

        return (wrapped, *rest)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
    return infos


def test_shift_on_naturals(nat1):
    one = nat1.element_from_word((0,))
    lam = sf.lambda_op(nat1, one, 3)
    assert lam.codomain.dim == 5 and lam.domain.dim == 4
    dense = lam.to_dense()
    assert np.array_equal(dense, np.eye(5, 4, k=-1))


def test_free2_lambda_a_images(free2):
    a = free2.element_from_str("a")
    lam = sf.lambda_op(free2, a, 1)
    basis1, basis2 = lam.domain, lam.codomain
    for src, dst in [("e", "a"), ("a", "a.a"), ("b", "a.b")]:
        col = basis1.index_of(free2.element_from_str(src).index)
        row = basis2.index_of(free2.element_from_str(dst).index)
        assert lam.entries[(row, col)] == 1.0


def test_braid_lambda_injective_columns(braid3):
    a = braid3.element_from_str("s1")
    lam = sf.lambda_op(braid3, a, 2)
    cols = {}
    for (r, c), v in lam.entries.items():
        assert v == 1.0
        assert c not in cols
        cols[c] = r
    assert len(cols) == lam.domain.dim
    # one 1 per column, at most one per row
    assert len(set(cols.values())) == len(cols)
    ba = braid3.element_from_str("s2.s1")
    bb = braid3.element_from_str("s2.s2")
    tgt = {braid3.element_from_str("s1.s2.s1").index, braid3.element_from_str("s1.s2.s2").index}
    got = {
        lam.codomain.labels[cols[lam.domain.index_of(x.index)]] for x in (ba, bb)
    }
    assert got == tgt


def test_adjoint_on_naturals(nat1):
    one = nat1.element_from_word((0,))
    adj = sf.lambda_adjoint_op(nat1, one, 4)
    dense = adj.to_dense()
    assert np.array_equal(dense, np.eye(5, 5, k=1))  # e_0 -> 0, e_r -> e_{r-1}


def test_adjoint_free2_prefix_stripping(free2):
    a = free2.element_from_str("a")
    adj = sf.lambda_adjoint_op(free2, a, 3)
    basis = adj.domain
    ab = free2.element_from_str("a.b")
    b = free2.element_from_str("b")
    ba = free2.element_from_str("b.a")
    assert adj.entries[(basis.index_of(b.index), basis.index_of(ab.index))] == 1.0
    assert all(c != basis.index_of(ba.index) for (_, c) in adj.entries)


def test_negative_levels_raise():
    # level -1 must not wrap around to the top level of the table
    table = sf.enumerate_monoid(sf.free(2), 3)
    a = table.element_from_str("a")
    calls = (table.elements_up_to, lambda L: sf.graded_basis(table, L), lambda L: sf.lambda_adjoint_op(table, a, L))
    for call in calls:
        with pytest.raises(sf.LengthBoundError):
            call(-1)
    for n in (-1, 4):  # nor may divisor sets fill to the top level, or past it
        with pytest.raises(sf.LengthBoundError, match="requested level %d outside 0..3" % n):
            table.divisor_sets(n)
    assert len(table.divisor_sets(0)) == 1
    adj = sf.lambda_adjoint_op(table, a, 0)
    assert adj.domain.dim == 1 and adj.is_zero()


def test_adjoint_braid_class_membership(braid3):
    b = braid3.element_from_str("s2")
    adj = sf.lambda_adjoint_op(braid3, b, 3)
    basis = adj.domain
    aba = braid3.element_from_str("s1.s2.s1")
    ab = braid3.element_from_str("s1.s2")
    assert adj.entries[(basis.index_of(ab.index), basis.index_of(aba.index))] == 1.0


def test_isometry_exact(free2, braid3):
    for table in (free2, braid3):
        for g in range(2):
            p = table.element_from_word((g,))
            lam = sf.lambda_op(table, p, 3, L_cod=4)
            comp = sf.lambda_adjoint_op(table, p, 4) @ lam
            incl = sf.inclusion(lam.domain, sf.graded_basis(table, 4))
            assert comp == incl


def test_homomorphism_with_matched_grades(braid3):
    p = braid3.element_from_str("s1")
    q = braid3.element_from_str("s2.s1")
    lhs = sf.lambda_op(braid3, p, 3) @ sf.lambda_op(braid3, q, 1, L_cod=3)
    rhs = sf.lambda_op(braid3, braid3.multiply(p, q), 1, L_cod=4)
    assert lhs == rhs


def test_adjoint_consistency(free2):
    p = free2.element_from_str("a.b")
    lam = sf.lambda_op(free2, p, 2)
    adj_of_op = lam.adjoint()
    dom, cod = np.eye(lam.domain.dim), np.eye(lam.codomain.dim)
    for x in dom:
        for y in cod:
            # <lambda x, y> = <x, lambda* y>
            assert np.vdot(y, lam.apply(x)) == np.vdot(adj_of_op.apply(y), x)


def test_compose_basis_mismatch(free2, braid3):
    a = sf.lambda_op(free2, free2.element_from_str("a"), 2)
    b = sf.lambda_op(braid3, braid3.element_from_str("s1"), 2)
    with pytest.raises(sf.BasisMismatchError):
        a @ b


def test_compose_with_identity(braid3):
    lam = sf.lambda_op(braid3, braid3.element_from_str("s1"), 2)
    assert lam @ sf.identity_operator(lam.domain) == lam
    assert sf.identity_operator(lam.codomain) @ lam == lam


def test_tensor_of_shifts(nat1):
    one = nat1.element_from_word((0,))
    lam = sf.lambda_op(nat1, one, 2)
    T = lam.tensor(lam)
    dom, cod = T.domain, T.codomain
    for j in range(3):
        for k in range(3):
            col = dom.index_of((nat1.by_length[j][0], nat1.by_length[k][0]))
            row = cod.index_of((nat1.by_length[j + 1][0], nat1.by_length[k + 1][0]))
            assert T.entries[(row, col)] == 1.0


def test_tensor_with_identity_is_block_diagonal(free2):
    lam = sf.lambda_op(free2, free2.element_from_str("a"), 1)
    ident = sf.identity_operator(sf.graded_basis(free2, 1))
    T = lam.tensor(ident)
    assert len(T.entries) == len(lam.entries) * 3
    assert sf.operator_norm(T) == pytest.approx(sf.operator_norm(lam), abs=1e-12)


def test_tensor_norm_multiplicative():
    rng = np.random.default_rng(7)
    b1 = sf.Basis(("r", 1), tuple(range(4)))
    b2 = sf.Basis(("r", 2), tuple(range(3)))
    A = sf.SparseOperator(
        b1, b1, {(i, j): complex(rng.normal(), rng.normal()) for i in range(4) for j in range(4)}
    )
    B = sf.SparseOperator(
        b2, b2, {(i, j): complex(rng.normal(), rng.normal()) for i in range(3) for j in range(3)}
    )
    # SVD oracle on the dense Kronecker product
    oracle = float(np.linalg.svd(np.kron(A.to_dense(), B.to_dense()), compute_uv=False)[0])
    assert sf.operator_norm(A.tensor(B)) == pytest.approx(oracle, rel=1e-12)
    assert sf.operator_norm(A) * sf.operator_norm(B) == pytest.approx(oracle, rel=1e-12)


def test_operator_norm_golden_ratio():
    b = sf.Basis(("t",), (0, 1))
    A = sf.SparseOperator(b, b, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    assert sf.operator_norm(A) == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)


def test_operator_norm_zero_and_shift(nat1):
    b = sf.Basis(("t",), (0, 1))
    assert sf.operator_norm(sf.zero_operator(b, b)) == 0.0
    one = nat1.element_from_word((0,))
    assert sf.operator_norm(sf.lambda_op(nat1, one, 5)) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_matches_gram_oracle():
    rng = np.random.default_rng(11)
    b = sf.Basis(("r", 20), tuple(range(20)))
    for _ in range(5):
        M = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        A = sf.SparseOperator(
            b, b, {(i, j): complex(M[i, j]) for i in range(20) for j in range(20)}
        )
        assert sf.operator_norm(A) == pytest.approx(gram_operator_norm(M), abs=1e-8)


def test_operator_norm_large_diagonal():
    n = 2100
    b = sf.Basis(("big",), tuple(range(n)))
    A = sf.SparseOperator(b, b, {(i, i): (i + 1) / n for i in range(n)})
    assert sf.operator_norm(A) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "n, width",
    [(300, 0), (300, 3), (300, 4), (300, 14), (60, 2), (300, 15), (300, 200), (65, 5), (64, 40), (12, 1), (7, 0)],
)
def test_banded_and_dense_gram_match_svd(n, width, monkeypatch):
    # the Gram matrix has half-bandwidth kd = min(2 * width, n - 1); its top
    # eigenvalue is estimated by dense eigvalsh when n <= 64 and found by the
    # Cholesky shift search above, so the cases sit on both sides of the switch
    # and of the former eig_banded / eigsh switch at kd = 8; every shift then
    # goes through the same Cholesky certificate and inverse iteration
    calls = record_estimators(monkeypatch)
    rng = np.random.default_rng(n + width)
    b = sf.Basis(("band", n, width), tuple(range(n)))
    entries = {
        (i, j): complex(rng.normal(), rng.normal())
        for i in range(n)
        for j in range(max(0, i - width), min(n, i + width + 1))
    }
    A = sf.SparseOperator(b, b, entries)
    oracle = float(np.linalg.svd(A.to_dense(), compute_uv=False)[0])
    assert sf.operator_norm(A) == pytest.approx(oracle, rel=1e-12)
    assert calls == (["eigvalsh"] if n <= 64 else [])


@pytest.mark.parametrize("estimator", ["eigvalsh", "eig_banded", "eigsh"])
def test_estimate_below_lambda_max_fails_the_cholesky(estimator, monkeypatch):
    # a mutation of the estimate. Dense (n <= 64): mu0 = theta0 (1 + 1e-12)
    # lands below lambda_max, so mu0 I - A*A is indefinite and the certificate
    # must refuse. The former eig_banded and eigsh cases now run the shift
    # search: a pbtrf that refuses every shift must end it in a refusal within
    # its 24 factorizations
    n, width = {"eigvalsh": (40, 2), "eig_banded": (200, 1), "eigsh": (200, 10)}[estimator]
    rng = np.random.default_rng(n)
    b = sf.Basis(("low", n), tuple(range(n)))
    A = sf.SparseOperator(b, b, {(i, j): rng.normal() for i in range(n) for j in range(i, min(n, i + width + 1))})
    if estimator == "eigvalsh":
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: real(*a, **k) * (1 - 1e-6))
        with pytest.raises(sf.InvariantError, match="not certified: mu I - A\\*A is not definite"):
            sf.operator_norm(A)
        return
    infos = record_factorizations(monkeypatch, lambda real, ab, **k: (real(ab, **k)[0], n))  # "minor n fails"
    with pytest.raises(sf.InvariantError, match="^norm not certified: shift search did not settle in 24 factor"):
        sf.operator_norm(A)
    assert infos == [n] * 24


HARD_SPECTRA = {
    "hardy-1+z-D3000": lambda: _fock(sf.hardy(), {(0,): 1.0, (1,): 1.0}, 3000),  # relative top gap ~1e-6
    "hardy-1+z3-D600": lambda: _fock(sf.hardy(), {(0,): 1.0, (3,): 1.0}, 600),  # A*A is three chains
    "da3-three-terms-D12": lambda: _fock(sf.drury_arveson(3), {(0, 0, 0): 1.0, (1, 0, 0): 0.5, (0, 1, 1): -0.7j}, 12),
    "da2-D60": lambda: _fock(sf.drury_arveson(2), {(0, 0): 1.0, (1, 0): 1.0, (1, 1): 1.0}, 60),
    "da3-tops-1.6e-10-apart": lambda: _fock(  # in two components of A*A: inverse iteration cannot part them
        sf.drury_arveson(3), {(0, 0, 0): 0.7273 + 0.8279j, (1, 1, 0): 0.0145 - 0.0045j, (2, 0, 0): 0.6061 - 0.4709j}, 13
    ),
    "identity": lambda: _banded(100, 100, lambda i, j: 1.0 if i == j else 0.0, 0),
    "two-equal-blocks": lambda: _banded(80, 80, lambda i, j: (i // 40 == j // 40) * _block(i % 40, j % 40), 2),
    "zero-columns": lambda: _banded(120, 90, lambda i, j: 0.0 if j % 3 == 1 else np.sin(i + 2 * j) + 1j, 2),
    "wide": lambda: _banded(70, 300, lambda i, j: np.cos(3 * i - j), 3),
    "tall": lambda: _banded(300, 70, lambda i, j: np.cos(3 * i - j) + 0.5j * np.sin(i), 3),
    "1e200": lambda: _banded(150, 150, lambda i, j: 1e200 * np.cos(i * j), 4),
}


def _block(i, j):
    return (i == j) + np.cos(i - 2 * j)


def _fock(kernel, coeffs, D):
    basis = sf.fock_basis(kernel, D)
    return sf.funcalg.multiplication(kernel, sf.Polynomial(kernel.d, coeffs), basis, basis)


def _banded(n, m, entry, width):
    """The m x n operator with entry(i, j) at |i - j m / n| <= width."""
    b_n, b_m = sf.Basis(("band", n), tuple(range(n))), sf.Basis(("band", m), tuple(range(m)))
    return sf.SparseOperator(b_n, b_m, {
        (i, j): complex(entry(i, j))
        for j in range(n) for i in range(max(0, j * m // n - width), min(m, j * m // n + width + 1))
    })


def _oracle_outcome(A, tol=1e-9):
    """scipy_operator_norm's outcome; its A*A overflows for 1e200 entries, so there it
    certifies A 2^-664, whose norm 2^664 is the same float."""
    if not A.is_zero() and abs(A.data).max() > 1e100:
        return _norm_outcome(scipy_operator_norm, A.scale(2.0**-664), tol) * 2.0**664
    return _norm_outcome(scipy_operator_norm, A, tol)


@pytest.mark.parametrize("case", sorted(HARD_SPECTRA))
def test_hard_spectra_match_scipy_oracle_bit_for_bit(case, monkeypatch):
    # clustered and repeated top eigenvalues, Grams in several components,
    # zero columns, rectangular shapes and 1e200 entries: the shift search
    # settles within 12 factorizations on each, and the norm is the former
    # routine's float
    A = HARD_SPECTRA[case]()
    expected = _oracle_outcome(A)
    calls, infos = record_estimators(monkeypatch), record_factorizations(monkeypatch)
    outcome = _norm_outcome(sf.operator_norm, A, 1e-9)
    assert type(outcome) is float and outcome == expected
    assert calls == [] and 1 <= len(infos) <= 12 and infos[-1] == 0


def test_random_banded_sweep_matches_scipy_oracle_bit_for_bit(monkeypatch):
    # 300 seeded operators, n = 65..400, rectangular, real and complex, Gram
    # half-bandwidths up to about 46: each norm is the former routine's float,
    # found in at most 12 factorizations
    rng, infos = np.random.default_rng(2024), record_factorizations(monkeypatch)
    counts = []
    for _ in range(300):
        n, width, cplx = int(rng.integers(65, 401)), int(rng.integers(0, 12)), bool(rng.integers(2))
        m = int(rng.integers(n // 2, 2 * n))
        values = rng.standard_normal((m, n)) + (1j * rng.standard_normal((m, n)) if cplx else 0)
        A = _banded(n, m, lambda i, j: values[i, j], width)
        infos.clear()
        assert sf.operator_norm(A) == scipy_operator_norm(A)
        counts.append(len(infos))
    assert max(counts) <= 12


def test_accepted_shifts_bound_lambda_max(monkeypatch):
    # every shift at which the search's Cholesky succeeds, the certificate's
    # included, is at least the dense lambda_max (1 - 1e-13) of the operator as
    # the routine scales it: no accepted shift lies inside the spectrum
    accepted, search = [], linrep._shift_search

    def recording(factor, *args, **kwargs):
        def wrapped(s):
            ok = factor(s)
            accepted.extend([s] if ok else [])
            return ok

        return search(wrapped, *args, **kwargs)

    monkeypatch.setattr(linrep, "_shift_search", recording)
    for case in ("da3-three-terms-D12", "da3-tops-1.6e-10-apart", "two-equal-blocks", "tall", "zero-columns"):
        A = HARD_SPECTRA[case]()
        accepted.clear()
        sf.operator_norm(A)
        dense = A.to_dense() * 2.0 ** -int(np.frexp(abs(A.data.view(float)).max())[1])  # as the routine scales it
        lam = np.linalg.eigvalsh(dense.conj().T @ dense)[-1]
        assert accepted and min(accepted) >= lam * (1 - 1e-13)


def test_operator_norm_bracket_contains_dense_value_at_D60():
    # Drury-Arveson d=2, 1 + z1 + z1 z2 at D = 60: n = 1,891, kd = 120. The
    # bracket [value, value (1 + tol)] holds the dense eigvalsh oracle, up to
    # that oracle's own rounding (1e-14 relative)
    kernel, tol = sf.drury_arveson(2), 1e-11
    basis = sf.fock_basis(kernel, 60)
    A = sf.funcalg.multiplication(kernel, sf.Polynomial(2, {(0, 0): 1.0, (1, 0): 1.0, (1, 1): 1.0}), basis, basis)
    value, oracle = sf.operator_norm(A, tol=tol), gram_operator_norm(A.to_dense().real)  # phi is real
    assert value * (1 - 1e-14) <= oracle <= value * (1 + tol) * (1 + 1e-14)


def test_band_cap_trips_before_the_band_is_allocated(monkeypatch):
    # I + S^9 on Z/100: A*A = 2 + S^9 + S^-9 is one cycle, half-bandwidth 91 in
    # index order and 2 after the ordering, so the cap is on 3 x 100 words
    def no_band(*args):
        raise AssertionError("the band was allocated")

    monkeypatch.setattr(linrep, "_band", no_band)
    b = sf.Basis(("cap",), tuple(range(100)))
    A = sf.SparseOperator(b, b, {(i, j): 1.0 for i in range(100) for j in (i, (i + 9) % 100)})
    with pytest.raises(sf.ResourceLimitError, match="^Gram band of 3 x 100 words exceeds cap 250$"):
        sf.operator_norm(A, max_words=250)


@pytest.mark.parametrize("n, m", [(40, 90), (70, 150)])
def test_operator_norm_rectangular_matches_svd(n, m):
    rng = np.random.default_rng(n)
    b1 = sf.Basis(("r", n), tuple(range(n)))
    b2 = sf.Basis(("r", m), tuple(range(m)))
    entries = {(int(rng.integers(m)), int(rng.integers(n))): complex(rng.normal()) for _ in range(3 * m)}
    tall = sf.SparseOperator(b1, b2, entries)
    for A in (tall, tall.adjoint()):
        oracle = float(np.linalg.svd(A.to_dense(), compute_uv=False)[0])
        assert sf.operator_norm(A) == pytest.approx(oracle, rel=1e-12)


def test_operator_norm_refuses_uncertifiable_tol():
    b = sf.Basis(("t",), tuple(range(50)))
    A = sf.SparseOperator(b, b, {(i, i): 1.0 for i in range(50)})
    assert sf.operator_norm(A, tol=1e-12) == 1.0
    with pytest.raises(sf.SemifdError, match="not certified"):
        sf.operator_norm(A, tol=1e-16)


def _dense_oracle(m, n, items):
    out = np.zeros((m, n), dtype=complex)
    for (r, c), v in items:
        out[r, c] += v
    return out


def _assert_canonical(op, dense):
    indptr, indices, data = op.indptr, op.indices, op.data
    assert indptr[0] == 0 and indptr[-1] == len(indices) == len(data)
    assert np.all(np.diff(indptr) >= 0) and np.all(data != 0) and data.dtype == complex
    for r in range(op.codomain.dim):
        row = indices[indptr[r] : indptr[r + 1]]
        assert np.all(np.diff(row) > 0)  # sorted, no duplicates
    assert np.array_equal(op.to_dense(), dense)
    assert op.is_zero() == (not dense.any())


# Gaussian integers with |re|, |im| <= 2 keep every sum and product exact
_gauss = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def _operator_items(draw, m, n):
    keys = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    return draw(st.lists(st.tuples(keys, _gauss), max_size=3 * m * n))


@st.composite
def _operator_case(draw):
    m, n, k = (draw(st.integers(1, 4)) for _ in range(3))
    return m, n, k, draw(_operator_items(m, n)), draw(_operator_items(m, n)), draw(_operator_items(n, k))


@settings(max_examples=150, deadline=None)
@given(_operator_case(), _gauss, st.lists(_gauss, min_size=4, max_size=4))
def test_csr_operator_matches_dense_oracle(case, c, vec):
    # entries come with duplicate keys and explicit zeros; dense numpy is the oracle
    m, n, k, items_a, items_a2, items_b = case
    bm, bn, bk = (sf.Basis(("h", d), tuple(range(d))) for d in (m, n, k))
    A, A2 = sf.SparseOperator(bn, bm, items_a), sf.SparseOperator(bn, bm, items_a2)
    B = sf.SparseOperator(bk, bn, items_b)
    DA, DA2, DB = _dense_oracle(m, n, items_a), _dense_oracle(m, n, items_a2), _dense_oracle(n, k, items_b)
    _assert_canonical(A, DA)
    _assert_canonical(A @ B, DA @ DB)
    _assert_canonical(A + A2, DA + DA2)
    _assert_canonical(A.scale(c), c * DA)
    _assert_canonical(A.adjoint(), DA.conj().T)
    _assert_canonical(A.tensor(B), np.kron(DA, DB))
    assert np.array_equal(A.apply(np.array(vec[:n])), DA @ np.array(vec[:n]))
    nonzero = {(r, col): DA[r, col] for r, col in zip(*np.nonzero(DA))}
    assert A == sf.SparseOperator(bn, bm, dict(reversed(list(nonzero.items()))))
    assert (A == A2) == np.array_equal(DA, DA2)
    assert (A != A2) == (not np.array_equal(DA, DA2))
    assert A.entries == {(int(r), int(col)): v for (r, col), v in nonzero.items()}
    big = sf.Basis(("h", m), tuple(range(m + 2))[::-1])
    embedded = np.zeros((m + 2, n), dtype=complex)
    embedded[[m + 1 - r for r in range(m)]] = DA
    _assert_canonical(A.embed_codomain(big), embedded)
    for bad in ((m, 0), (0, n), (-1, 0)):
        with pytest.raises(sf.BasisMismatchError):
            sf.SparseOperator(bn, bm, items_a + [(bad, 1.0)])
    with pytest.raises(sf.BasisMismatchError):
        partial_map(bn, bm, [m] + [-1] * (n - 1))


def _random_coo(rng, m, n, kind):
    """Entries of an m x n operator. "exact" ones are quarter-integers that repeat keys and
    cancel, and every sum of them is exact in any order; "float" ones never repeat a key."""
    if kind == "exact":
        keys = rng.integers(0, m * n, rng.integers(0, 3 * m * n + 1))
        data = (rng.integers(-2, 3, len(keys)) + 1j * rng.integers(-2, 3, len(keys))) / 4
    else:
        keys = rng.permutation(m * n)[: 0 if kind == "empty" else rng.integers(1, m * n + 1)]
        data = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    return keys // n, keys % n, data


def _assert_same_arrays(op, ref):
    assert np.array_equal(op.indptr, ref.indptr) and np.array_equal(op.indices, ref.indices)
    assert op.data.dtype == complex and np.array_equal(op.data, ref.data)


@pytest.mark.parametrize("kind", ["exact", "float", "empty"])
@pytest.mark.parametrize("seed", range(15))
def test_csr_algebra_matches_scipy_oracle(kind, seed):
    # same arrays as scipy.sparse: float sums of the product follow csr_matmat's order
    rng = np.random.default_rng(seed)
    m, n, k = (int(d) for d in rng.integers(1, 7, 3))
    bm, bn, bk = (sf.Basis(("o", d), tuple(range(d))) for d in (m, n, k))
    ops, refs = {}, {}
    for name, (cod, dom) in {"A": (bm, bn), "B": (bm, bn), "C": (bn, bk)}.items():
        rows, cols, data = _random_coo(rng, cod.dim, dom.dim, kind)
        ops[name] = sf.SparseOperator(dom, cod, zip(zip(rows.tolist(), cols.tolist()), data.tolist()))
        refs[name] = scipy_canonical(scipy.sparse.coo_array((data, (rows, cols)), shape=(cod.dim, dom.dim)))
        _assert_same_arrays(ops[name], refs[name])
    c = complex(*rng.standard_normal(2)) if seed % 5 else 0j
    A, B, C = ops["A"], ops["B"], ops["C"]
    got = {"matmul": A @ C, "add": A + B, "scale": A.scale(c), "adjoint": A.adjoint(), "tensor": A.tensor(C)}
    for name, ref in scipy_algebra(refs["A"], refs["B"], refs["C"], c).items():
        _assert_same_arrays(got[name], ref)
    images = np.full(n, -1) if kind == "empty" else rng.integers(-1, m, n)  # -1: no image
    P, keep = partial_map(bn, bm, images), np.flatnonzero(images >= 0)
    ones = scipy.sparse.coo_array((np.ones(len(keep)), (images[keep], keep)), shape=(m, n))
    _assert_same_arrays(P, scipy_canonical(ones))
    assert P == partial_map(bn, bm, images.tolist())


def test_partial_map_is_canonical():
    b3, b4 = sf.Basis(("p", 3), (0, 1, 2)), sf.Basis(("p", 4), (0, 1, 2, 3))
    P = partial_map(b4, b3, [2, -1, 0, 2])
    assert np.array_equal(P.indptr, [0, 1, 1, 3]) and np.array_equal(P.indices, [2, 0, 3])
    assert P == sf.SparseOperator(b4, b3, {(2, 0): 1.0, (0, 2): 1.0, (2, 3): 1.0})


LEADING_BASES = {
    "tuples": lambda braid3: sf.Basis(("words",), [("w", i * 7 % 13) for i in range(13)]),
    "graded": lambda braid3: sf.graded_basis(braid3, 3),
    "fock": lambda braid3: sf.fock_basis(sf.drury_arveson(2), 3),
}


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("basis", sorted(LEADING_BASES))
def test_leading_block_is_the_compression_bit_for_bit(basis, seed, complex_data, braid3):
    # the oracle is P* A P through the generic product, P the inclusion of the first k vectors,
    # on a random square operator with empty rows, at every k from 0 to n
    B, rng = LEADING_BASES[basis](braid3), np.random.default_rng(seed)
    mask = rng.random((B.dim, B.dim)) < 0.4
    mask[rng.random(B.dim) < 0.3] = False  # empty rows
    values = rng.normal(size=(B.dim, B.dim)) + 1j * (rng.normal(size=(B.dim, B.dim)) if complex_data else 0.0)
    A = sf.SparseOperator(B, B, {(i, j): values[i, j] for i, j in zip(*mask.nonzero())})
    for k in range(B.dim + 1):
        block = A.leading_block(k)
        P = sf.inclusion(sf.Basis(B.tag, B.labels[:k]), B)
        oracle = P.adjoint() @ A @ P
        assert block == oracle and np.array_equal(block.data.view(np.uint64), oracle.data.view(np.uint64))
        assert block.domain is block.codomain and block.domain.tag == B.tag
        if B.array is not None:
            assert np.array_equal(block.domain.array, B.array[:k])
        assert block.domain.labels == B.labels[:k] and type(block.domain.labels) is type(B.labels)  # a range stays one
    assert A.leading_block(B.dim) == A


def test_leading_block_refuses_an_operator_that_is_not_square(free2):
    lam = sf.lambda_op(free2, free2.element_from_str("a"), 2)
    square = lam.adjoint() @ lam
    with pytest.raises(sf.BasisMismatchError):
        lam.leading_block(1)
    for k in (-1, square.domain.dim + 1):
        with pytest.raises(sf.BasisMismatchError):
            square.leading_block(k)


def test_tensor_index_matches_pair_enumeration(free2, braid3):
    # a tensor basis keeps its factors; positions are i * dim2 + j in first-major pair order
    b1 = sf.graded_basis(free2, 2)
    b2 = sf.build_Y(braid3, [braid3.element_from_str("s1.s2.s1")]).basis
    T = sf.tensor_basis(b1, b2)
    pairs = [(l1, l2) for l1 in b1.labels for l2 in b2.labels]
    assert T.dim == len(pairs)
    assert [T.index_of(pair) for pair in pairs] == list(range(len(pairs)))
    assert T.labels == tuple(pairs)
    assert T == sf.Basis(T.tag, pairs)
    absent = braid3.element_from_str("s2.s2").index
    assert b2.find(absent) == -1 and T.find((0, absent)) == -1
    with pytest.raises(KeyError):
        T.index_of((0, absent))


@pytest.mark.parametrize(
    "n, width, estimator",
    [(1, 0, "eigvalsh"), (100, 0, "eig_banded"), (100, 10, "eigsh")],
    ids=["eigvalsh", "eig_banded", "eigsh"],
)
def test_overflowing_gram_is_not_certified(n, width, estimator, monkeypatch):
    # (1e200)^2 would overflow A*A: the routine never forms it, since it certifies
    # A scaled exactly by a power of two. Dense eigvalsh (n <= 64) or the shift
    # search (the former eig_banded and eigsh cases) runs, silently, and the norm
    # matches a dense SVD of the matrix scaled by 2^-664
    calls = record_estimators(monkeypatch)
    b = sf.Basis(("inf", n), tuple(range(n)))
    A = sf.SparseOperator(b, b, {(i, j): 1e200 for i in range(n) for j in range(i, min(n, i + width + 1))})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = sf.operator_norm(A)
    oracle = float(np.linalg.svd(A.to_dense() * 2.0**-664, compute_uv=False)[0]) * 2.0**664
    assert value == pytest.approx(oracle, rel=1e-12)
    assert calls == (["eigvalsh"] if n <= 64 else [])


@pytest.mark.parametrize("k", [-600, -300, -80, 80, 150, 600])
@pytest.mark.parametrize("kind, n, width", [("eigvalsh", 40, 2), ("eig_banded", 200, 1), ("eigsh", 200, 10)])
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
def test_operator_norm_commutes_with_powers_of_two(k, kind, n, width, complex_data):
    # scaling by 2^k is exact, and so is the routine's own rescaling: the norm
    # scales bit for bit, also where (2^600)^2 or (2^-600)^2 leave the float range
    rng = np.random.default_rng(n + width)
    b = sf.Basis(("pow2", n), tuple(range(n)))
    entries = {
        (i, j): complex(rng.normal(), rng.normal() if complex_data else 0.0)
        for i in range(n)
        for j in range(i, min(n, i + width + 1))
    }
    A = sf.SparseOperator(b, b, entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert sf.operator_norm(A.scale(2.0**k)) == 2.0**k * sf.operator_norm(A)


@pytest.mark.parametrize("complex_vector", [False, True], ids=["real", "complex"])
def test_apply_matches_scipy_matvec_bit_for_bit(complex_vector):
    # A x sums each row from 0 in entry order with the textbook complex product,
    # as scipy's csr_matvec does
    rng = np.random.default_rng(11)
    for _ in range(100):
        m, n = (int(x) for x in rng.integers(1, 30, size=2))
        items = [((int(rng.integers(m)), int(rng.integers(n))), complex(*rng.normal(size=2))) for _ in range(3 * n)]
        A = sf.SparseOperator(sf.Basis(("mv", n), tuple(range(n))), sf.Basis(("mv", m), tuple(range(m))), items)
        x = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_vector else 0)
        oracle = scipy.sparse.csr_array((A.data, A.indices, A.indptr), shape=(m, n)) @ x
        assert np.array_equal(A.apply(x), oracle)


def _norm_outcome(norm, A, tol):
    try:
        return norm(A, tol=tol)
    except sf.SemifdError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "kind, n, m, width",
    [
        ("eigvalsh", 40, 40, 2),
        ("eigvalsh", 64, 64, 1),
        ("eigvalsh", 60, 80, 3),
        ("eig_banded", 100, 40, 1),
        ("eig_banded", 300, 300, 2),
        ("eigsh", 100, 40, 4),
        ("eigsh", 200, 250, 8),
        ("zero", 30, 20, 2),
        ("overflow", 100, 100, 10),
    ],
)
def test_operator_norm_matches_scipy_oracle_bit_for_bit(kind, n, m, width, complex_data, monkeypatch):
    # the former routine formed A*A by dense numpy (m n <= 4096) or scipy.sparse
    # and estimated lambda_max by the estimator the case is named after; the norm
    # read off the operator's own arrays must be the same float. Column j of the
    # m x n operator is random near row j m / n, so A*A has a narrow band; scaled
    # by 0 it is the zero operator, and by 1e200 its Gram overflows unless A is
    # first rescaled
    rng, scale = np.random.default_rng(n * m + width), {"zero": 0.0, "overflow": 1e200}.get(kind, 1.0)
    entries = {
        (i, j): scale * complex(rng.normal(), rng.normal() if complex_data else 0.0)
        for j in range(n)
        for i in range(max(0, j * m // n - width), min(m, j * m // n + width + 1))
    }
    A = sf.SparseOperator(sf.Basis(("bit", n), tuple(range(n))), sf.Basis(("bit", m), tuple(range(m))), entries)
    expected, calls = _oracle_outcome(A), record_estimators(monkeypatch)
    outcome = _norm_outcome(sf.operator_norm, A, 1e-9)
    assert type(outcome) is float and outcome == expected
    assert A.is_zero() == (kind == "zero") == (outcome == 0.0)
    assert calls == (["eigvalsh"] if kind == "eigvalsh" else [])
    if kind not in ("zero", "overflow") and n * m > 4096:  # a sparse Gram, summed in the same order
        # mu0 is now the accepted shift, within 2e-12 of lambda_max, where it was
        # the estimate times 1 + 1e-12, so the width moves by less than 1e-12
        refusal, former = (_norm_outcome(f, A, 1e-14) for f in (sf.operator_norm, scipy_operator_norm))
        prefix = "InvariantError: norm not certified: bracket width "
        assert refusal.startswith(prefix) and former.startswith(prefix)
        width, former_width = (float(x[len(prefix):].split()[0]) for x in (refusal, former))
        assert abs(width - former_width) < 1e-12
