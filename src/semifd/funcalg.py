"""Graded matrix models of multiplier algebras with circular symmetry.

Kernels are of diagonal unitarily invariant type K(z, w) = sum c_n <z, w>^n
with c_0 = 1 and c_n > 0, which covers the Hardy, Drury-Arveson and Dirichlet
kernels. Monomials are orthogonal with ||z^alpha||^2 = alpha!/(|alpha|! c_n),
so multiplication operators have exact graded matrices, the rotation action is
diagonal, and the homogeneous decomposition realizes the grading coaction by
the additive naturals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, DegreeOverflowError, InputError, KernelSpecError
from .linrep import Basis, SparseOperator, _from_coo, operator_norm

Multidx = tuple[int, ...]


class Polynomial:
    """Finitely supported complex-coefficient polynomial in d variables."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: dict[Multidx, complex]):
        self.d = d
        for alpha in coeffs:
            if len(alpha) != d or not all(type(a) is int and 0 <= a < 2**62 for a in alpha):  # held in int64 arrays
                raise InputError("bad exponent vector %r for %d variables" % (alpha, d))
        self.coeffs = {a: complex(c) for a, c in coeffs.items() if c != 0}
        if not all(map(cmath.isfinite, self.coeffs.values())):
            raise InputError("polynomial coefficients must be finite")

    @classmethod
    def parse_terms(cls, d: int, terms) -> "Polynomial":
        """Input format: list of {"exponents": [...], "re": x, "im": y}."""
        coeffs: dict[Multidx, complex] = {}
        for t in terms:
            alpha = tuple(t["exponents"])
            c = complex(t.get("re", 0.0), t.get("im", 0.0))
            coeffs[alpha] = coeffs.get(alpha, 0) + c
        return cls(d, coeffs)

    @property
    def degree(self) -> int:
        return max((sum(a) for a in self.coeffs), default=0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) + c
        return Polynomial(self.d, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Multidx, complex] = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                ab = tuple(x + y for x, y in zip(a, b))
                out[ab] = out.get(ab, 0) + ca * cb
        return Polynomial(self.d, out)

    def scale(self, c: complex) -> "Polynomial":
        return Polynomial(self.d, {a: c * v for a, v in self.coeffs.items()})

    def __call__(self, z) -> complex:
        total = 0j
        for a, c in self.coeffs.items():
            term = c
            for zi, ai in zip(z, a):
                term *= zi**ai
            total += term
        return total

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.d == other.d and self.coeffs == other.coeffs

    def __repr__(self):
        return "Polynomial(d=%d, %r)" % (self.d, self.coeffs)


@dataclass(frozen=True)
class KernelSpec:
    """A diagonal unitarily invariant kernel given by its coefficient sequence.

    coefficients: either a name ("hardy", "drury_arveson", "dirichlet") or an
    explicit positive tuple (c_0, c_1, ...) with c_0 = 1.
    """

    d: int
    name: str
    explicit: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.d <= 0:
            raise KernelSpecError("variable count must be positive")
        if self.name == "custom":
            if not self.explicit:
                raise KernelSpecError("custom kernel needs explicit coefficients")
            if self.explicit[0] != 1.0:
                raise KernelSpecError("kernel must be normalized: c_0 = 1")
            if not all(math.isfinite(c) and c > 0 for c in self.explicit):
                raise KernelSpecError("kernel coefficients must be finite and positive")
        elif self.name not in ("hardy", "drury_arveson", "dirichlet"):
            raise KernelSpecError("unknown kernel %r" % self.name)

    def c(self, n: int) -> float:
        if self.name == "custom":
            if n >= len(self.explicit):
                raise DegreeOverflowError(
                    "kernel coefficients provided up to degree %d, need %d"
                    % (len(self.explicit) - 1, n)
                )
            return self.explicit[n]
        if self.name == "dirichlet":
            return 1.0 / (n + 1)
        return 1.0  # hardy, drury_arveson

    @property
    def fingerprint(self) -> tuple:
        return (self.d, self.name, self.explicit)


def hardy() -> KernelSpec:
    return KernelSpec(1, "hardy")


def drury_arveson(d: int) -> KernelSpec:
    return KernelSpec(d, "drury_arveson")


def dirichlet() -> KernelSpec:
    return KernelSpec(1, "dirichlet")


def monomial_norm(kernel: KernelSpec, alpha: Multidx) -> float:
    """||z^alpha|| = sqrt(alpha! / (|alpha|! c_{|alpha|}))."""
    n = sum(alpha)
    if n <= 150:
        multinom = math.factorial(n)
        for a in alpha:
            multinom //= math.factorial(a)
        return math.sqrt(1.0 / (multinom * kernel.c(n)))
    log_multinom = math.lgamma(n + 1) - sum(math.lgamma(a + 1) for a in alpha)
    return math.sqrt(math.exp(-log_multinom) / kernel.c(n))


def fock_basis(kernel: KernelSpec, D: int) -> Basis:
    """Normalized monomial basis up to degree D, ordered by degree then lex, its exponent vectors the rows of one
    int64 array: every vector of degree <= D, lex ascending (each row repeated once per value its next entry can
    take), then stably sorted by degree."""
    kernel.c(max(D, 0))  # fail early if the degree is out of range
    x = np.zeros((1, 0), dtype=np.int64)
    for _ in range(kernel.d):
        counts = D + 1 - x.sum(axis=1)
        starts = np.repeat(counts.cumsum() - counts, counts)
        x = np.column_stack((x.repeat(counts, axis=0), np.arange(counts.sum(), dtype=np.int64) - starts))
    return Basis(("fock", kernel.fingerprint), x[np.argsort(x.sum(axis=1), kind="stable")])


def multiplication(kernel: KernelSpec, phi: Polynomial, dom: Basis, cod: Basis) -> SparseOperator:
    """Multiplication by phi between Fock bases, dom a prefix of cod; images beyond cod are dropped, so dom = cod gives
    the square compression. Entries are c ||z^(alpha+beta)|| / ||z^alpha||, rounded as the scalar (c * a) / b is, with
    the row of alpha + beta its position in the degree-then-lex order."""
    return _multiplications(kernel, [phi], dom, cod)[0]


def _multiplications(kernel: KernelSpec, phis: list, dom: Basis, cod: Basis) -> list[SparseOperator]:
    """multiplication(kernel, phi, dom, cod) of each phi, bit for bit, from one norm vector and a lookup per support."""
    if bad := [phi.d for phi in phis if phi.d != kernel.d]:
        raise InputError("polynomial has %d variables, kernel has %d" % (bad[0], kernel.d))
    if cod.tag != ("fock", kernel.fingerprint):  # fock_basis or a leading block of it, where rows are positions
        raise BasisMismatchError("codomain is not a Fock basis of this kernel")
    labels = np.asarray(cod.labels if cod.array is None else cod.array, dtype=np.int64).reshape(cod.dim, kernel.d)
    top = int((n := labels.sum(axis=1)).max(initial=0))
    norms = np.sqrt(1.0 / (cn := np.array([kernel.c(k) for k in range(top + 1)])[n]))  # monomial_norm for d = 1
    if kernel.d > 1:  # monomial_norm's exact branch on arrays (the exact multinomial |alpha|!/alpha!, rounded once)
        fact, exact = np.array([math.factorial(k) for k in range(min(top, 150) + 1)], dtype=object), n <= 150
        norms[exact] = np.sqrt(1.0 / ((fact[n[exact]] // fact[labels[exact]].prod(axis=1)).astype(float) * cn[exact]))
        norms[~exact] = [monomial_norm(kernel, a) for a in labels[~exact].tolist()]
    ops, lookups = [], {}
    for phi in phis:
        if (support := tuple(phi.coeffs)) not in lookups:  # alpha + beta for alpha in dom, beta in support
            betas = np.array(support, dtype=np.int64).reshape(-1, kernel.d)
            rows = _positions((labels[: dom.dim, None] + betas).reshape(-1, kernel.d), top)
            cols, terms = np.divmod(found := np.flatnonzero((rows >= 0) & (rows < cod.dim)), len(support))
            lookups[support] = rows[found], cols, terms
        rows, cols, terms = lookups[support]
        c = np.array(list(phi.coeffs.values()), dtype=complex)[terms]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails a check later; -0.0 -> 0.0
            data = c.real * norms[rows] / norms[cols] + 1j * (c.imag * norms[rows] / norms[cols]) + 0.0
        ops.append(_from_coo(dom, cod, rows, cols, data))
    return ops


def _positions(x: np.ndarray, top: int) -> np.ndarray:
    """Position of each exponent vector (a row of x) in fock_basis's order, -1 above degree top: those of lower
    degree, and at each i < d - 1 those agreeing before i and less at i, C(t_i + m, m) - C(t_(i+1) + m, m) for
    m = d-1-i (hockey stick), t_i = x_i + ... + x_(d-1) the suffix sums."""
    t = np.minimum(np.minimum(x, top + 1)[:, ::-1].cumsum(axis=1)[:, ::-1], top + 1)  # t_0 > top if an entry is
    C, d = [np.append(0, np.ones(top + 2, dtype=np.int64))], x.shape[1]  # C[m][s + 1] = C(s + m, m), C[m][0] = 0
    while len(C) <= d:
        C.append(C[-1].cumsum())
    pos = C[d][t[:, 0]] + sum(C[d - 1 - i][t[:, i] + 1] - C[d - 1 - i][t[:, i + 1] + 1] for i in range(d - 1))
    return np.where(t[:, 0] <= top, pos, -1)


def mult_operator(kernel: KernelSpec, phi: Polynomial, D: int) -> SparseOperator:
    """Exact matrix of multiplication by phi from the degree<=D basis into the
    degree<=(D + deg phi) basis, in normalized monomial coordinates."""
    return multiplication(kernel, phi, fock_basis(kernel, D), fock_basis(kernel, D + phi.degree))


def multiplier_norm_lower(
    kernel: KernelSpec, phi: Polynomial, D: int, tol: float = 1e-9, max_words: int | None = None
) -> float:
    """Norm of the compression of M_phi to the degree<=D subspace.

    The subspace is coinvariant for multipliers, so these values are
    nondecreasing in D and converge to the multiplier norm from below. Only
    the kernel coefficients c_0..c_D enter.
    """
    basis = fock_basis(kernel, D)
    return operator_norm(multiplication(kernel, phi, basis, basis), tol, max_words)


def homogeneous_decompose(phi: Polynomial) -> list[tuple[int, Polynomial]]:
    """phi = sum phi_n with phi_n supported in degree n; occurring degrees only."""
    parts: dict[int, dict] = {}
    for alpha, c in phi.coeffs.items():
        parts.setdefault(sum(alpha), {})[alpha] = c
    return [(n, Polynomial(phi.d, parts[n])) for n in sorted(parts)]


def circle_action(phi: Polynomial, zeta: complex) -> Polynomial:
    """Precompose with rotation by zeta: the degree-n part picks up zeta^n."""
    if abs(abs(zeta) - 1.0) > 1e-12:
        raise InputError("rotation parameter must be unimodular, got |zeta| = %r" % abs(zeta))
    return Polynomial(
        phi.d, {alpha: (zeta ** sum(alpha)) * c for alpha, c in phi.coeffs.items()}
    )


def circle_action_matrix(kernel: KernelSpec, D: int, zeta: complex) -> SparseOperator:
    """The diagonal unitary diag(zeta^{|alpha|}) on the degree<=D basis."""
    if abs(abs(zeta) - 1.0) > 1e-12:
        raise InputError("rotation parameter must be unimodular, got |zeta| = %r" % abs(zeta))
    basis = fock_basis(kernel, D)
    return SparseOperator(
        basis, basis, {(i, i): zeta ** sum(a) for i, a in enumerate(basis.labels)}
    )


def n_coaction(phi: Polynomial, F=()) -> tuple[list[tuple[int, Polynomial]], int]:
    """Symbolic grading coaction: the degree-n component is tagged by the shift
    of order n. Also reports the quotient-dimension witness for a finite F:
    the number of monomials of degree <= max F in d variables, C(max F + d, d)."""
    return homogeneous_decompose(phi), math.comb(max(F) + phi.d, phi.d) if F else 0
