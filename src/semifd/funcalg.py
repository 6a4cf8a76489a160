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

from .errors import DegreeOverflowError, InputError, KernelSpecError
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


def _compositions(d: int, n: int) -> list[Multidx]:
    """Exponent vectors of degree n in d variables, lex ascending."""
    if d == 1:
        return [(n,)]
    return [(k,) + rest for k in range(n + 1) for rest in _compositions(d - 1, n - k)]


def fock_basis(kernel: KernelSpec, D: int) -> Basis:
    """Normalized monomial basis up to degree D, ordered by degree then lex."""
    kernel.c(max(D, 0))  # fail early if the degree is out of range
    labels = tuple(a for n in range(D + 1) for a in _compositions(kernel.d, n))
    return Basis(("fock", kernel.fingerprint), labels)


def multiplication(kernel: KernelSpec, phi: Polynomial, dom: Basis, cod: Basis) -> SparseOperator:
    """Multiplication by phi between Fock bases, dom a prefix of cod; images
    beyond cod are dropped, so dom = cod gives the square compression. Entries
    are c ||z^(alpha+beta)|| / ||z^alpha||, rounded as the scalar (c * a) / b
    is, with rows found by the exponent vectors alpha + beta."""
    if phi.d != kernel.d:
        raise InputError("polynomial has %d variables, kernel has %d" % (phi.d, kernel.d))
    if kernel.d == 1:  # alpha!/|alpha|! = 1, so monomial_norm is sqrt(1.0 / c_n), bit for bit
        norms = np.sqrt(1.0 / np.array([kernel.c(n) for (n,) in cod.labels]))
    else:
        norms = np.array([monomial_norm(kernel, a) for a in cod.labels])
    labels = np.array(cod.labels, dtype=np.int64).reshape(cod.dim, kernel.d)
    betas = np.array(list(phi.coeffs), dtype=np.int64).reshape(1, -1, kernel.d)
    targets = (labels[: dom.dim, None] + betas).reshape(-1, kernel.d)
    # rows by exponent vectors keyed by their bytes, an order in which equal means equal
    keys, want = (np.ascontiguousarray(x).view("V%d" % (8 * kernel.d)).ravel() for x in (labels, targets))
    order = np.argsort(keys)
    at = order[np.searchsorted(keys, want, sorter=order) % cod.dim]  # past the end wraps to a mismatch
    rows = np.where(keys[at] == want, at, -1)
    cols = np.arange(dom.dim).repeat(betas.shape[1])
    c = np.tile(np.array(list(phi.coeffs.values()), dtype=complex), dom.dim)[rows >= 0]
    rows, cols = rows[rows >= 0], cols[rows >= 0]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails a check later; -0.0 -> 0.0
        data = c.real * norms[rows] / norms[cols] + 1j * (c.imag * norms[rows] / norms[cols]) + 0.0
    return _from_coo(dom, cod, rows, cols, data)


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
