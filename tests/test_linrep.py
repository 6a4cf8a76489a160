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
    for left in (False, True):  # nor may divisor sets fill to the top level, or past it
        for n in (-1, 4):
            with pytest.raises(sf.LengthBoundError, match="requested level %d outside 0..3" % n):
                table.divisor_sets(n, left)
        assert len(table.divisor_sets(0, left)) == 1
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
    # eigenvalue is estimated by dense eigvalsh when n <= 64, by eig_banded
    # when kd <= 8 and by ARPACK eigsh otherwise, so the cases hit all three
    # on both sides of each switch; every estimate then goes through the same
    # Cholesky certificate and inverse iteration
    kd = min(2 * width, n - 1)
    expected = "eigvalsh" if n <= 64 else "eig_banded" if kd <= 8 else "eigsh"
    calls = []
    for module, name in ((np.linalg, "eigvalsh"), (scipy.linalg, "eig_banded"), (scipy.sparse.linalg, "eigsh")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
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
    assert calls == [expected]


@pytest.mark.parametrize("estimator", ["eigvalsh", "eig_banded", "eigsh"])
def test_estimate_below_lambda_max_fails_the_cholesky(estimator, monkeypatch):
    # a mutation of the estimate: mu0 = theta0 (1 + 1e-12) lands below
    # lambda_max, so mu0 I - A*A is indefinite and the certificate must refuse
    n, width = {"eigvalsh": (40, 2), "eig_banded": (200, 1), "eigsh": (200, 10)}[estimator]
    module = {"eigvalsh": np.linalg, "eig_banded": scipy.linalg, "eigsh": scipy.sparse.linalg}[estimator]
    real = getattr(module, estimator)
    monkeypatch.setattr(module, estimator, lambda *a, **k: real(*a, **k) * (1 - 1e-6))
    rng = np.random.default_rng(n)
    b = sf.Basis(("low", n), tuple(range(n)))
    A = sf.SparseOperator(b, b, {(i, j): rng.normal() for i in range(n) for j in range(i, min(n, i + width + 1))})
    with pytest.raises(sf.SemifdError, match="not certified: mu I - A\\*A is not definite"):
        sf.operator_norm(A)


def test_lanczos_without_convergence_is_not_certified(monkeypatch):
    def stalled(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    b = sf.Basis(("stall",), tuple(range(100)))
    A = sf.SparseOperator(b, b, {(i, j): 1.0 for i in range(100) for j in (i, (i + 9) % 100)})
    with pytest.raises(sf.SemifdError, match="Lanczos did not converge"):
        sf.operator_norm(A)


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
    def no_band(*args):
        raise AssertionError("the band was allocated")

    monkeypatch.setattr(linrep, "_band", no_band)
    b = sf.Basis(("cap",), tuple(range(100)))
    A = sf.SparseOperator(b, b, {(i, j): 1.0 for i in range(100) for j in (i, (i + 9) % 100)})
    with pytest.raises(sf.ResourceLimitError, match="exceeds cap 1000"):
        sf.operator_norm(A, max_words=1000)


def test_is_partial_map_is_exact():
    b = sf.Basis(("pm",), tuple(range(4)))
    assert partial_map(b, b, [2, -1, 0, 3]).is_partial_map()
    assert sf.zero_operator(b, b).is_partial_map()
    assert not partial_map(b, b, [2, 2, 0, 3]).is_partial_map()  # two 1s in row 2
    assert not sf.SparseOperator(b, b, {(0, 1): 1.0, (1, 1): 1.0}).is_partial_map()  # two in column 1
    assert not sf.SparseOperator(b, b, {(0, 1): 2.0}).is_partial_map()
    assert not sf.SparseOperator(b, b, {(0, 1): 1j}).is_partial_map()


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
    # A scaled exactly by a power of two. The named estimator runs, silently, and
    # the norm matches a dense SVD of the matrix scaled by 2^-664
    calls = []
    for module, name in ((np.linalg, "eigvalsh"), (scipy.linalg, "eig_banded"), (scipy.sparse.linalg, "eigsh")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    b = sf.Basis(("inf", n), tuple(range(n)))
    A = sf.SparseOperator(b, b, {(i, j): 1e200 for i in range(n) for j in range(i, min(n, i + width + 1))})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = sf.operator_norm(A)
    oracle = float(np.linalg.svd(A.to_dense() * 2.0**-664, compute_uv=False)[0]) * 2.0**664
    assert value == pytest.approx(oracle, rel=1e-12)
    assert calls == [estimator]


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
    # the former routine formed A*A by dense numpy (m n <= 4096) or scipy.sparse;
    # the norm read off the operator's own arrays must be the same float or the
    # same refusal. Column j of the m x n operator is random near row j m / n, so
    # A*A has a narrow band; scaled by 0 it is the zero operator, and by 1e200
    # its Gram overflows unless A is first rescaled
    calls = []
    for module, name in ((np.linalg, "eigvalsh"), (scipy.linalg, "eig_banded"), (scipy.sparse.linalg, "eigsh")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    rng, scale = np.random.default_rng(n * m + width), {"zero": 0.0, "overflow": 1e200}.get(kind, 1.0)
    entries = {
        (i, j): scale * complex(rng.normal(), rng.normal() if complex_data else 0.0)
        for j in range(n)
        for i in range(max(0, j * m // n - width), min(m, j * m // n + width + 1))
    }
    A = sf.SparseOperator(sf.Basis(("bit", n), tuple(range(n))), sf.Basis(("bit", m), tuple(range(m))), entries)
    outcome = _norm_outcome(sf.operator_norm, A, 1e-9)
    if kind == "overflow":  # the oracle's A*A overflows; A 2^-664 stays in range, and 2^664 its norm is the same float
        assert outcome == _norm_outcome(scipy_operator_norm, A.scale(2.0**-664), 1e-9) * 2.0**664
    else:
        assert outcome == _norm_outcome(scipy_operator_norm, A, 1e-9)
    if kind == "zero":
        assert outcome == 0.0 and A.is_zero() and not calls
    elif kind == "overflow":
        assert type(outcome) is float and set(calls) == {"eigsh"}
    else:
        assert type(outcome) is float and set(calls) == {kind}
    if kind not in ("zero", "overflow") and n * m > 4096:  # a sparse Gram, summed in the same order
        refusal = _norm_outcome(sf.operator_norm, A, 1e-14)
        assert refusal.startswith("InvariantError: norm not certified: bracket width")
        assert refusal == _norm_outcome(scipy_operator_norm, A, 1e-14)
