"""Graded truncations of l2(P) and exact regular-representation operators.

Every operator here is a map between explicitly typed graded truncations, so
the matrices of lambda_p and lambda_p* carry no truncation error: lambda_p
sends the level-L ball into the level-(L+|p|) ball exactly, and lambda_p*
only lowers length. Operators are canonical CSR arrays; entries of semigroup
operators stay in {0, 1} and are compared exactly, and floating scalars
appear only through linear combinations.
"""

from __future__ import annotations

import numpy as np

from .enumeration import EnumerationTable, MonoidElement
from .errors import BasisMismatchError, InvariantError, LengthBoundError, ResourceLimitError


class Basis:
    """An ordered orthonormal basis, identified by a tag and its labels.

    Labels are hashable (element indices for l2(P) levels, exponent tuples for
    Fock-type bases) and are hashed on first lookup, except that a graded
    ball's labels are the range 0..N-1 and a tensor basis keeps its two
    factors, so positions there are index arithmetic. Labels given as the rows
    of a 2-D int array (a Fock basis's exponent vectors) are kept as that
    ``array`` and spelled as tuples only when ``labels`` or ``find`` asks."""

    __slots__ = ("tag", "dim", "factors", "array", "_labels", "_index")

    def __init__(self, tag: tuple, labels, factors: tuple = ()):
        self.tag, self.factors, self._index = tag, factors, None
        self.array = labels if isinstance(labels, np.ndarray) else None
        lazy = factors or self.array is not None  # labels spelled on first use
        self._labels = None if lazy else labels if isinstance(labels, range) else tuple(labels)
        self.dim = factors[0].dim * factors[1].dim if factors else len(labels if lazy else self._labels)

    @property
    def labels(self):
        if self._labels is None and self.array is not None:
            self._labels = tuple(map(tuple, self.array.tolist()))
        elif self._labels is None:
            b1, b2 = self.factors
            self._labels = tuple((l1, l2) for l1 in b1.labels for l2 in b2.labels)
        return self._labels

    def find(self, label) -> int:
        """Position of a label, or -1 if it is not in the basis."""
        if self.factors:
            (b1, b2), (l1, l2) = self.factors, label
            i, j = b1.find(l1), b2.find(l2)
            return i * b2.dim + j if i >= 0 and j >= 0 else -1
        if isinstance(self._labels, range):
            return self._labels.index(label) if label in self._labels else -1
        if self._index is None:
            self._index = {lab: i for i, lab in enumerate(self.labels)}
            if len(self._index) != self.dim:
                raise BasisMismatchError("duplicate basis labels")
        return self._index.get(label, -1)

    def index_of(self, label) -> int:
        if (i := self.find(label)) < 0:
            raise KeyError(label)
        return i

    def __eq__(self, other):
        if self is other:  # an operator's own bases, without spelling their labels
            return True
        if not isinstance(other, Basis) or self.tag != other.tag or self.dim != other.dim:
            return False
        if self.factors and other.factors:
            return self.factors == other.factors
        a, b = self.labels, other.labels
        return a == b if type(a) is type(b) else tuple(a) == tuple(b)

    def __repr__(self):
        return "Basis(tag=%r, dim=%d)" % (self.tag, self.dim)


def graded_basis(table: EnumerationTable, L: int) -> Basis:
    """Orthonormal basis {e_p : |p| <= L}. Elements are numbered in (length,
    shortlex) order, so its labels are the index prefix 0..N_L-1."""
    return Basis(("l2", table.fingerprint), range(len(table.elements_up_to(L))))


def tensor_basis(b1: Basis, b2: Basis) -> Basis:
    """Tensor basis, first index major: (l1, l2) sits at i * dim2 + j."""
    return Basis(("tensor", b1.tag, b2.tag), None, (b1, b2))


class SparseOperator:
    """An exact sparse linear map between two bases, in canonical CSR form.

    indptr, indices and data (complex128) list the rows in order, with the
    columns of each row sorted, duplicates summed and zeros dropped, so
    equality of 0/1 operators is exact array equality.
    """

    __slots__ = ("domain", "codomain", "indptr", "indices", "data")

    def __init__(self, domain: Basis, codomain: Basis, entries):
        """From a dict (row, col) -> value or an iterable of ((row, col), value)."""
        items = list(entries.items() if isinstance(entries, dict) else entries)
        rc = np.array([k for k, _ in items], dtype=np.int64).reshape(-1, 2)
        outside = ((rc < 0) | (rc >= (codomain.dim, domain.dim))).any(axis=1)
        if outside.any():
            raise BasisMismatchError("entry (%d, %d) outside basis dimensions" % tuple(rc[outside][0]))
        op = _from_coo(domain, codomain, rc[:, 0], rc[:, 1], [v for _, v in items])
        for name in self.__slots__:
            setattr(self, name, getattr(op, name))

    # -- algebra -------------------------------------------------------------

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        if other.codomain != self.domain:
            raise BasisMismatchError("compose: inner bases do not match")
        # entry (i, j, a) meets row j of other: positions start + 0, 1, ... of its counts[e] entries
        counts = np.diff(other.indptr)[self.indices]
        pos = np.arange(counts.sum()) + (other.indptr[self.indices] - counts.cumsum() + counts).repeat(counts)
        ab = _times(self.data.repeat(counts), other.data[pos])
        return _from_coo(other.domain, self.codomain, self._rows().repeat(counts), other.indices[pos], ab)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if other.domain != self.domain or other.codomain != self.codomain:
            raise BasisMismatchError("add: bases do not match")
        parts = zip((self._rows(), self.indices, self.data), (other._rows(), other.indices, other.data))
        return _from_coo(self.domain, self.codomain, *map(np.concatenate, parts))

    def scale(self, c: complex) -> "SparseOperator":
        return _from_coo(self.domain, self.codomain, self._rows(), self.indices, self.data * c)

    def adjoint(self) -> "SparseOperator":
        return _from_coo(self.codomain, self.domain, self.indices, self._rows(), self.data.conj())

    def tensor(self, other: "SparseOperator") -> "SparseOperator":
        dom, cod = tensor_basis(self.domain, other.domain), tensor_basis(self.codomain, other.codomain)
        rows = (self._rows()[:, None] * other.codomain.dim + other._rows()).ravel()
        cols = (self.indices[:, None] * other.domain.dim + other.indices).ravel()
        return _from_coo(dom, cod, rows, cols, np.outer(self.data, other.data).ravel())

    def embed_codomain(self, new_codomain: Basis) -> "SparseOperator":
        """Re-express with a larger codomain containing every current label."""
        return inclusion(self.codomain, new_codomain) @ self

    def leading_block(self, k: int) -> "SparseOperator":
        """The compression to the first k vectors of the basis, of an operator whose domain is its codomain, sliced from
        the CSR arrays. Its basis keeps the tag, with the prefix of the labels or of the array."""
        if self.domain != self.codomain or not 0 <= k <= self.domain.dim:
            raise BasisMismatchError("no leading block of %d vectors: domain and codomain differ, or are smaller" % k)
        b = self.domain
        basis = Basis(b.tag, b.labels[:k] if b.array is None else b.array[:k])
        keep = self.indices[: self.indptr[k]] < k
        indptr = np.append(0, keep.cumsum())[self.indptr[: k + 1]]  # kept entries before each row
        return _csr(basis, basis, indptr, self.indices[: len(keep)][keep], self.data[: len(keep)][keep])

    # -- queries ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SparseOperator)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def _rows(self) -> np.ndarray:
        """Row of each entry: how many rows after the first start at or before it."""
        return np.bincount(self.indptr[1:-1], minlength=len(self.data) + 1)[: len(self.data)].cumsum()

    @property
    def entries(self) -> dict:
        """Read-only view {(row, col): value}, computed from the arrays."""
        return dict(zip(zip(self._rows().tolist(), self.indices.tolist()), self.data.tolist()))

    def is_zero(self) -> bool:
        return not len(self.data)

    def is_partial_map(self) -> bool:
        """Exactly: every entry is 1 and no row or column holds two, so the
        norm is 0 or 1. (indptr steps by at most 1 iff it takes nnz + 1 values.)"""
        nnz = len(self.data)
        return (len(set(self.indices.tolist())) == nnz and len(set(self.indptr.tolist())) == nnz + 1
                and all(x == 1 for x in self.data.tolist()))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        if vec.shape != (self.domain.dim,):
            raise BasisMismatchError("vector length does not match domain")
        return _row_sums(self._rows(), _times(self.data, vec[self.indices]), self.codomain.dim)

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.codomain.dim, self.domain.dim), dtype=complex)
        m[self._rows(), self.indices] = self.data
        return m

    def __repr__(self):
        return "SparseOperator(%d x %d, %d entries)" % (self.codomain.dim, self.domain.dim, len(self.data))


def _csr(domain: Basis, codomain: Basis, indptr, indices, data) -> SparseOperator:
    op = SparseOperator.__new__(SparseOperator)
    op.domain, op.codomain, op.indptr, op.indices, op.data = domain, codomain, indptr, indices, data
    return op


def _times(a, b) -> np.ndarray:
    """a * b entrywise by the textbook complex product, rounded as csr_matvec and csr_matmat round it."""
    ab = np.empty(len(a), dtype=np.result_type(a, b, 1j))
    ab.real, ab.imag = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    return ab


def _row_sums(rows, terms, m: int) -> np.ndarray:
    """Each row's terms summed from 0 one by one in list order, as csr_matvec and csr_matmat sum."""
    np.add.at(out := np.zeros(m, dtype=terms.dtype), rows, terms)  # unbuffered; np.add.reduceat is pairwise
    return out


def _from_coo(domain: Basis, codomain: Basis, rows, cols, data) -> SparseOperator:
    """Canonical CSR from coordinate lists: a stable sort by row * dim + col, duplicates
    summed from 0 one by one in list order (as scipy's csr_matmat does), zeros dropped."""
    keys, data = np.asarray(rows, dtype=np.int64) * domain.dim + cols, np.asarray(data, dtype=complex)
    if not (keys[1:] > keys[:-1]).all():  # products of canonical operators mostly arrive sorted
        order = keys.argsort(kind="stable")
        keys, data = keys[order], data[order]
    if not (new := keys[1:] != keys[:-1]).all():  # sum each run of equal keys
        keys, data = keys[np.append(True, new)], _row_sums(np.append(0, new.cumsum()), data, new.sum() + 1)
    if not (nonzero := data != 0).all():
        keys, data = keys[nonzero], data[nonzero]
    rows = keys // domain.dim
    indptr = np.bincount(rows + 1, minlength=codomain.dim + 1).cumsum()
    return _csr(domain, codomain, indptr, keys - rows * domain.dim, data)


def partial_map(domain: Basis, codomain: Basis, rows) -> SparseOperator:
    """The 0/1 operator e_c -> e_rows[c], with no image where rows[c] < 0 (an int array or a list)."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape != (domain.dim,):
        raise BasisMismatchError("one row per domain vector required")
    cols = (rows >= 0).nonzero()[0]
    if not len(cols):  # most compressions to Y_F are zero
        return zero_operator(domain, codomain)
    if rows.max() >= codomain.dim:
        raise BasisMismatchError("image %d outside codomain of dimension %d" % (rows.max(), codomain.dim))
    return _from_coo(domain, codomain, rows[cols], cols, np.ones(len(cols)))


def identity_operator(basis: Basis) -> SparseOperator:
    return partial_map(basis, basis, np.arange(basis.dim))


def zero_operator(domain: Basis, codomain: Basis) -> SparseOperator:
    empty = np.zeros(0, dtype=np.int64)
    return _csr(domain, codomain, np.zeros(codomain.dim + 1, dtype=np.int64), empty, empty.astype(complex))


def inclusion(small: Basis, big: Basis) -> SparseOperator:
    """The isometric inclusion of a sub-basis into a larger one."""
    return partial_map(small, big, [big.index_of(lab) for lab in small.labels])


# -- regular representation ------------------------------------------------


def lambda_op(
    table: EnumerationTable, p: MonoidElement, L: int, L_cod: int | None = None
) -> SparseOperator:
    """Matrix of lambda_p from the level-L ball into the level-L_cod ball.

    e_q -> e_{pq}; exact, one 1 per column. L_cod defaults to L + |p|, the
    smallest codomain that holds every image.
    """
    L_cod = L + p.length if L_cod is None else L_cod
    if L_cod < L + p.length:
        raise LengthBoundError("codomain level %d cannot hold lambda_p images" % L_cod)
    if table.L < L_cod:
        raise LengthBoundError("table enumerated to %d, need %d for lambda_%s on level %d"
                               % (table.L, L_cod, table.str_of(p), L))
    return partial_map(graded_basis(table, L), graded_basis(table, L_cod), table.left_products(p, L))


def lambda_adjoint_op(table: EnumerationTable, p: MonoidElement, L: int) -> SparseOperator:
    """Matrix of lambda_p* on the level-L ball: e_r -> e_q if r = pq (q is unique
    by left cancellation), else 0. Lengths only drop, so domain and codomain are
    the same truncation and the matrix is exact."""
    basis = graded_basis(table, L)
    rows, prods = np.full(basis.dim, -1), table.left_products(p, L - p.length)
    rows[prods] = np.arange(len(prods))
    return partial_map(basis, basis, rows)


def _band(kd: int, n: int, dtype) -> np.ndarray:
    """Zeroed LAPACK lower band storage, (kd + 1) x n in Fortran order."""
    return np.zeros((kd + 1, n), dtype=dtype, order="F")


def _rcm(G: SparseOperator) -> np.ndarray:
    """Reverse Cuthill-McKee order (1969) of a symmetric pattern, as the new position of each index."""
    deg = np.diff(G.indptr)
    ind, ptr = G.indices[np.lexsort((deg[G.indices], G._rows()))].tolist(), G.indptr.tolist()
    order, seen, i = [], bytearray(len(deg)), 0
    for seed in np.argsort(deg, kind="stable").tolist():
        order += [] if seen[seed] else [seed]  # the least-degree node of a new component
        seen[seed] = 1
        while i < len(order):  # the queue is the tail of order
            p, i = order[i], i + 1
            for j in ind[ptr[p] : ptr[p + 1]]:  # its new neighbours, by degree
                if not seen[j]:
                    seen[j] = 1
                    order.append(j)
    return np.argsort(order[::-1])


def _shift_search(factor, solve, s: float, v: np.ndarray, limit: int = 24) -> tuple[float, np.ndarray]:
    """Shifts s from Gershgorin's bound down to lambda_max(G) (Parlett). A refused Cholesky factor(s) of s I - G makes
    s a lower end lo; a factored s is an upper end hi, and three solves x = (sI - G)^-1 v, |v| = 1, give lower ends
    s - 1/|x|. Returns the first factored s <= lo (1 + 2e-12), and v after its solves."""
    lo, hi, v, step = 0.0, s * (1 + 2e-12), v / np.linalg.norm(v), 0.0
    for _ in range(limit):
        if not factor(s):
            lo, step = s, 4 * step  # refused after settled lower ends: a cluster they did not resolve
            s = min(lo * (1 + step), (lo + hi) / 2) if step else (lo + hi) / 2
            continue
        hi, bounds = s, []
        for _ in range(3):
            bounds.append(s - 1 / (nx := np.linalg.norm(x := solve(v))))
            v = x / nx
        if hi <= (lo := max(lo, *bounds)) * (1 + 2e-12):
            return s, v
        step = 1e-12 if bounds[2] - bounds[1] <= 1e-13 * lo else 0.0  # settled, or not yet
        s = lo * (1 + step) if step else lo + (hi - lo) / 3
    raise InvariantError("norm not certified: shift search did not settle in %d factorizations" % limit)


def operator_norm(A: SparseOperator, tol: float = 1e-9, max_words: int | None = None) -> float:
    """Largest singular value of A as sqrt(theta), rounded, with theta <= lambda_max(A*A) <= mu certified.

    G = A.adjoint() @ A (real for real A). For n <= 64, mu0 = theta0 (1 + 1e-12), theta0 from dense eigvalsh;
    above, mu0 comes from _shift_search on G's band, in reverse Cuthill-McKee order when that narrows it. The
    Cholesky of mu0 I - G (LAPACK pbtrf) that runs to completion gives mu: mu0, Rump's pad (BIT 46, 2006, kd + 2
    for n + 1; the lesser of tr and (2kd + 1) max diag) and G's rounding. Inverse iteration with that factor
    gives v; theta is |Av|^2 / |v|^2 on A's arrays in extended precision less its rounding bound. A finite A is
    first scaled exactly by 2^-e, which puts its largest real or imaginary part in [1/2, 1), and the result by
    2^e, so G stays in the normal range. InvariantError if G has a non-finite entry, no Cholesky succeeds or
    sqrt(mu / theta) - 1 > tol; ResourceLimitError first if (kd + 1) n > max_words, kd of the ordered band.
    """
    if A.is_zero():
        return 0.0
    parts = A.data.view(float)  # complex128 as (re, im) pairs
    e = int(np.frexp(abs(parts).max())[1]) if np.isfinite(parts).all() else 0
    A = _csr(A.domain, A.codomain, A.indptr, A.indices, np.ldexp(parts, -e).view(complex))
    from scipy.linalg import get_lapack_funcs  # scipy loads with the first norm
    n, m, rows, cols, real = A.domain.dim, A.codomain.dim, A._rows(), A.indices, not A.data.imag.any()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram is refused below
        G, v = A.adjoint() @ A, np.random.default_rng(0).standard_normal(n)
    g_rows, g_cols, gram, at = G._rows(), G.indices, G.data.real if real else G.data, None
    kd = int(abs(g_rows - g_cols).max())
    if n > 64 and 2 * kd > np.bincount(g_rows[g_rows != g_cols], minlength=1).max() + 1:  # kd > ceil(r / 2)
        new = _rcm(G)
        if (narrow := int(abs(new[g_rows] - new[g_cols]).max())) < kd:
            g_rows, g_cols, kd, at = new[g_rows], new[g_cols], narrow, new
    if max_words is not None and (kd + 1) * n > max_words:
        raise ResourceLimitError("Gram band of %d x %d words exceeds cap %d" % (kd + 1, n, max_words))
    band, low = _band(kd, n, gram.dtype), g_rows >= g_cols
    band[g_rows[low] - g_cols[low], g_cols[low]] = gram[low]
    if not np.isfinite(band).all():
        raise InvariantError("norm not certified: A*A has a non-finite entry")
    pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
    chol, e0 = np.empty_like(band), np.eye(kd + 1, 1)  # the one factor, of s I - G = s e0 - band each time
    factor = lambda s: pbtrf(np.subtract(s * e0, band, out=chol), lower=1, overwrite_ab=1)[1] == 0  # noqa: E731
    solve = lambda x: pbtrs(chol, x, lower=1)[0]  # noqa: E731
    if n > 64:
        mu0, v = _shift_search(factor, solve, np.bincount(g_rows, abs(gram), n).max(), v)
    elif not factor(mu0 := np.linalg.eigvalsh(G.to_dense().real if real else G.to_dense())[-1] * (1 + 1e-12)):
        raise InvariantError("norm not certified: mu I - A*A is not definite at mu = %r" % np.ldexp(mu0, 2 * e))
    c, k2, ext = (1.0, 0, np.longdouble) if real else (2.0, 2, np.clongdouble)  # complex: 2 gamma_(k+2)
    gam = lambda k, u=2.0**-53: c * (k + k2) * u / (1 - c * (k + k2) * u)  # noqa: E731
    diag, w = mu0 - band[0].real, abs(A.data)  # |A|^T (|A| 1), each row summed as csr_matvec sums it
    gram_err = gam(np.bincount(cols).max()) * _row_sums(cols, w * _row_sums(rows, w, m)[rows], n).max()
    mu = mu0 * (1 + 2.0**-53) + gam(kd + 2) / (1 - gam(kd + 2)) * min(diag.sum(), (2 * kd + 1) * diag.max())
    mu = (mu + gram_err) * (1 + gam(n + 3))  # the last factor covers rounding in mu's own sums
    for _ in range(3):
        v = solve(v)
        v /= np.linalg.norm(v)
    v = v if at is None else v[at]  # back to A's own order
    ax, vx, uL = (A.data.real if real else A.data).astype(ext), v.astype(ext), np.finfo(np.longdouble).epsneg
    sq = lambda x: (x.real**2 + x.imag**2).sum()  # noqa: E731
    y = _row_sums(rows, ax * vx[cols], m)  # A v, and below the bound on |Av - y| / |y|
    r = gam(np.diff(A.indptr).max(), uL) * np.sqrt(sq(_row_sums(rows, abs(ax) * abs(vx[cols]), m)) / sq(y))
    theta = sq(y) / sq(vx) * (1 - r) ** 2 * (1 - gam(4 * n + 16, uL))
    if not (width := float(np.sqrt(mu / theta)) - 1) <= tol:
        raise InvariantError("norm not certified: bracket width %.3e > tol %.3e" % (width, tol))
    return float(np.ldexp(np.sqrt(theta), e))


# coaction and funcalg bind lambda_op and operator_norm from here by name. They load with this module, so each binds
# the function defined here even when a caller imports this module alone and then rebinds those names (a tracer).
from . import coaction, funcalg  # noqa: E402,F401
