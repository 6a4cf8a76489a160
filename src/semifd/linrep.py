"""Graded truncations of l2(P) and exact regular-representation operators.

Every operator here is a map between explicitly typed graded truncations, so
the matrices of lambda_p and lambda_p* carry no truncation error: lambda_p
sends the level-L ball into the level-(L+|p|) ball exactly, and lambda_p*
only lowers length. Entries of semigroup operators stay in {0, 1} and are
compared exactly; floating scalars appear only through linear combinations.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
from scipy.linalg import eig_banded

from .enumeration import EnumerationTable, MonoidElement
from .errors import BasisMismatchError, LengthBoundError, SemifdError


class Basis:
    """An ordered orthonormal basis, identified by a tag and a label tuple.

    Labels are hashable (element indices for l2(P) levels, pairs for tensor
    truncations, exponent tuples for Fock-type bases); the ordering of the
    label tuple is the basis order.
    """

    __slots__ = ("tag", "labels", "_index")

    def __init__(self, tag: tuple, labels: tuple):
        self.tag = tag
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise BasisMismatchError("duplicate basis labels")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index_of(self, label) -> int:
        return self._index[label]

    def contains(self, label) -> bool:
        return label in self._index

    def __eq__(self, other):
        return (
            isinstance(other, Basis)
            and self.tag == other.tag
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.tag, self.labels))

    def __repr__(self):
        return "Basis(tag=%r, dim=%d)" % (self.tag, self.dim)


def graded_basis(table: EnumerationTable, L: int) -> Basis:
    """Orthonormal basis {e_p : |p| <= L}, ordered by (length, shortlex)."""
    elems = table.elements_up_to(L)
    return Basis(("l2", table.fingerprint), tuple(e.index for e in elems))


def tensor_basis(b1: Basis, b2: Basis) -> Basis:
    """Tensor basis, first index major, second index minor."""
    labels = tuple((l1, l2) for l1 in b1.labels for l2 in b2.labels)
    return Basis(("tensor", b1.tag, b2.tag), labels)


class SparseOperator:
    """An exact sparse linear map between two bases.

    Entries are stored as a dict (row, col) -> complex with zeros pruned, so
    equality of 0/1 operators is exact.
    """

    __slots__ = ("domain", "codomain", "entries")

    def __init__(self, domain: Basis, codomain: Basis, entries):
        self.domain = domain
        self.codomain = codomain
        merged: dict[tuple[int, int], complex] = {}
        for (r, c), v in entries.items() if isinstance(entries, dict) else entries:
            if not (0 <= r < codomain.dim and 0 <= c < domain.dim):
                raise BasisMismatchError("entry (%d, %d) outside basis dimensions" % (r, c))
            merged[(r, c)] = merged.get((r, c), 0) + v
        self.entries = {k: complex(v) for k, v in merged.items() if v != 0}

    # -- algebra -------------------------------------------------------------

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        if other.codomain != self.domain:
            raise BasisMismatchError("compose: inner bases do not match")
        by_col: dict[int, list[tuple[int, complex]]] = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        out: dict[tuple[int, int], complex] = {}
        for (k, c), bv in other.entries.items():
            for r, av in by_col.get(k, ()):
                key = (r, c)
                out[key] = out.get(key, 0) + av * bv
        return SparseOperator(other.domain, self.codomain, out)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if other.domain != self.domain or other.codomain != self.codomain:
            raise BasisMismatchError("add: bases do not match")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return SparseOperator(self.domain, self.codomain, out)

    def scale(self, c: complex) -> "SparseOperator":
        return SparseOperator(
            self.domain, self.codomain, {k: c * v for k, v in self.entries.items()}
        )

    def adjoint(self) -> "SparseOperator":
        return SparseOperator(
            self.codomain,
            self.domain,
            {(c, r): v.conjugate() for (r, c), v in self.entries.items()},
        )

    def tensor(self, other: "SparseOperator") -> "SparseOperator":
        dom = tensor_basis(self.domain, other.domain)
        cod = tensor_basis(self.codomain, other.codomain)
        d2, c2 = other.domain.dim, other.codomain.dim
        out = {}
        for (r1, c1), v1 in self.entries.items():
            for (r2, c2_), v2 in other.entries.items():
                out[(r1 * c2 + r2, c1 * d2 + c2_)] = v1 * v2
        return SparseOperator(dom, cod, out)

    def embed_codomain(self, new_codomain: Basis) -> "SparseOperator":
        """Re-express with a larger codomain containing every current label."""
        out = {}
        for (r, c), v in self.entries.items():
            out[(new_codomain.index_of(self.codomain.labels[r]), c)] = v
        return SparseOperator(self.domain, new_codomain, out)

    # -- queries ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SparseOperator)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, frozenset(self.entries.items())))

    def is_zero(self) -> bool:
        return not self.entries

    def apply(self, vec: np.ndarray) -> np.ndarray:
        if vec.shape != (self.domain.dim,):
            raise BasisMismatchError("vector length does not match domain")
        out = np.zeros(self.codomain.dim, dtype=complex)
        for (r, c), v in self.entries.items():
            out[r] += v * vec[c]
        return out

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.codomain.dim, self.domain.dim), dtype=complex)
        for (r, c), v in self.entries.items():
            m[r, c] = v
        return m

    def triplets(self) -> list[tuple[int, int, float, float]]:
        """Deterministic (row, col, re, im) serialization."""
        return [
            (r, c, v.real, v.imag) for (r, c), v in sorted(self.entries.items())
        ]

    def __repr__(self):
        return "SparseOperator(%d x %d, %d entries)" % (
            self.codomain.dim,
            self.domain.dim,
            len(self.entries),
        )


def identity_operator(basis: Basis) -> SparseOperator:
    return SparseOperator(basis, basis, {(i, i): 1.0 for i in range(basis.dim)})


def zero_operator(domain: Basis, codomain: Basis) -> SparseOperator:
    return SparseOperator(domain, codomain, {})


def inclusion(small: Basis, big: Basis) -> SparseOperator:
    """The isometric inclusion of a sub-basis into a larger one."""
    return SparseOperator(
        small, big, {(big.index_of(lab), i): 1.0 for i, lab in enumerate(small.labels)}
    )


class Vector:
    """A vector expressed in a fixed basis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: Basis, coeffs):
        self.basis = basis
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.shape != (basis.dim,):
            raise BasisMismatchError("coefficient length does not match basis")

    @classmethod
    def basis_vector(cls, basis: Basis, label) -> "Vector":
        v = np.zeros(basis.dim, dtype=complex)
        v[basis.index_of(label)] = 1.0
        return cls(basis, v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "Vector") -> complex:
        if other.basis != self.basis:
            raise BasisMismatchError("inner product across different bases")
        return complex(np.vdot(other.coeffs, self.coeffs))


# -- regular representation ------------------------------------------------


def lambda_op(
    table: EnumerationTable,
    p: MonoidElement,
    L: int,
    L_cod: int | None = None,
) -> SparseOperator:
    """Matrix of lambda_p from the level-L ball into the level-L_cod ball.

    e_q -> e_{pq}; exact, one 1 per column. L_cod defaults to L + |p|, the
    smallest codomain that holds every image.
    """
    if L_cod is None:
        L_cod = L + p.length
    if L_cod < L + p.length:
        raise LengthBoundError("codomain level %d cannot hold lambda_p images" % L_cod)
    if table.L < L_cod:
        raise LengthBoundError(
            "table enumerated to %d, need %d for lambda_%s on level %d"
            % (table.L, L_cod, table.str_of(p), L)
        )
    dom = graded_basis(table, L)
    cod = graded_basis(table, L_cod)
    entries = {}
    for col, q_label in enumerate(dom.labels):
        q = table.element(q_label)
        entries[(cod.index_of(table.multiply(p, q).index), col)] = 1.0
    return SparseOperator(dom, cod, entries)


def lambda_adjoint_op(table: EnumerationTable, p: MonoidElement, L: int) -> SparseOperator:
    """Matrix of lambda_p* on the level-L ball: e_r -> e_q if r = pq, else 0.

    Lengths only drop, so domain and codomain are the same truncation and the
    matrix is exact.
    """
    if table.L < L:
        raise LengthBoundError("table enumerated to %d, need %d" % (table.L, L))
    basis = graded_basis(table, L)
    entries = {}
    for n in range(L - p.length + 1):
        for q_idx in table.by_length[n]:
            q = table.element(q_idx)
            r = table.multiply(p, q)
            entries[(basis.index_of(q.index), basis.index_of(r.index))] = 1.0
    return SparseOperator(basis, basis, entries)


def operator_norm(A: SparseOperator, tol: float = 1e-9) -> float:
    """Largest singular value sqrt(lambda_max(A*A)), certified to relative accuracy tol.

    The Gram matrix (dense if A has at most 4096 cells, else a sparse product)
    goes to LAPACK in band storage when its half-bandwidth kd is small (band
    reduction costs about 10 kd / n of a dense one), else dense. The eigenvalue
    is exact for a Gram matrix within (n + m) eps max colsum(|A|*|A|) of A*A;
    SemifdError if that bound, relative to it, exceeds tol.
    """
    if A.is_zero():
        return 0.0
    m, n = A.codomain.dim, A.domain.dim
    if m * n <= 4096:
        M = A.to_dense()
        gram = M.conj().T @ M
        gi, gj = np.nonzero(gram)
        g = gram[gi, gj]
    else:
        rows, cols = zip(*A.entries)
        M = scipy.sparse.csr_matrix((list(A.entries.values()), (rows, cols)), shape=(m, n))
        gram = (M.conj().T @ M).tocoo()
        gi, gj, g = gram.row, gram.col, gram.data
    kd = int(np.abs(gi - gj).max())
    if 10 * (kd + 1) <= n:
        low = gi >= gj
        band = np.zeros((kd + 1, n), dtype=complex)
        band[gi[low] - gj[low], gj[low]] = g[low]
        eigs = eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(n - 1, n - 1))
    else:
        eigs = np.linalg.eigvalsh(gram if isinstance(gram, np.ndarray) else gram.toarray())
    lam = eigs[-1]
    absM = abs(M)
    resid = (n + m) * np.finfo(float).eps * (absM.T @ (absM @ np.ones(n))).max()
    if not resid <= tol * lam:
        raise SemifdError("norm not certified: error bound %.3e > tol %.3e" % (resid / lam, tol))
    return float(np.sqrt(lam))
