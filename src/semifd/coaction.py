"""Semigroup coactions induced by controlled maps.

A homomorphism phi: P -> Q with finite fibers induces the coaction
delta(lambda_p) = lambda_p (x) lambda_{phi(p)}. This module realizes delta on
graded tensor truncations, decomposes formal algebra elements into spectral
components, applies the all-ones character on the second leg, constructs the
Fell-absorption intertwiner, and computes the spanning set witnessing that the
quotients indexed by finite subsets of Q are finite-dimensional.
"""

from __future__ import annotations

import numpy as np

from .enumeration import ControlledMap, EnumerationTable, MonoidElement
from .errors import InputError, InvariantError, LengthBoundError
from .linrep import (
    SparseOperator,
    graded_basis,
    lambda_op,
    partial_map,
    tensor_basis,
    zero_operator,
)


class AlgebraElement:
    """A finite formal combination sum c_p lambda_p over one monoid table."""

    __slots__ = ("table", "coeffs")

    def __init__(self, table: EnumerationTable, coeffs: dict[MonoidElement, complex]):
        self.table = table
        self.coeffs = {p: complex(c) for p, c in coeffs.items() if c != 0}

    @classmethod
    def monomial(cls, table: EnumerationTable, p: MonoidElement, c: complex = 1.0):
        return cls(table, {p: c})

    @property
    def support(self) -> list[MonoidElement]:
        return sorted(self.coeffs, key=lambda p: p.index)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if other.table is not self.table:
            raise InputError("algebra elements over different tables")
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) + c
        return AlgebraElement(self.table, out)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Formal product via the monoid multiplication (lengths must fit)."""
        if other.table is not self.table:
            raise InputError("algebra elements over different tables")
        out: dict[MonoidElement, complex] = {}
        for p, cp in self.coeffs.items():
            for q, cq in other.coeffs.items():
                pq = self.table.multiply(p, q)
                out[pq] = out.get(pq, 0) + cp * cq
        return AlgebraElement(self.table, out)

    def scale(self, c: complex) -> "AlgebraElement":
        return AlgebraElement(self.table, {p: c * v for p, v in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.table is self.table
            and other.coeffs == self.coeffs
        )

    def __repr__(self):
        terms = ", ".join(
            "%s: %s" % (self.table.str_of(p), self.coeffs[p]) for p in self.support
        )
        return "AlgebraElement({%s})" % terms


def delta_apply(phi: ControlledMap, a: AlgebraElement, L_P: int, L_Q: int) -> SparseOperator:
    """The operator sum c_p (lambda_p (x) lambda_{phi(p)}) on the graded tensor
    truncation with domain levels (L_P, L_Q); the codomain levels are the
    smallest ones holding every image."""
    if a.table is not phi.source:
        raise InputError("element does not live over the coaction source")
    dom = tensor_basis(graded_basis(phi.source, L_P), graded_basis(phi.target, L_Q))
    if not a.coeffs:
        return zero_operator(dom, dom)
    max_p = max(p.length for p in a.coeffs)
    max_q = max(phi(p).length for p in a.coeffs)
    total = None
    for p in a.support:
        term = lambda_op(phi.source, p, L_P, L_cod=L_P + max_p).tensor(
            lambda_op(phi.target, phi(p), L_Q, L_cod=L_Q + max_q)
        ).scale(a.coeffs[p])
        total = term if total is None else total + term
    return total


def spectral_decompose(a: AlgebraElement, phi: ControlledMap) -> dict[MonoidElement, AlgebraElement]:
    """Group the support of a by phi: the q-component collects the terms with
    phi(p) = q. Supports are disjoint and the components sum back to a."""
    out: dict[MonoidElement, dict] = {}
    for p, c in a.coeffs.items():
        out.setdefault(phi(p), {})[p] = c
    return {q: AlgebraElement(a.table, coeffs) for q, coeffs in out.items()}


def apply_character(a: AlgebraElement) -> complex:
    """The character sending every lambda_p to 1: the coefficient sum."""
    return sum(a.coeffs.values(), 0j)


def character_reconstruction(phi: ControlledMap, a: AlgebraElement) -> AlgebraElement:
    """(id (x) chi) after delta: apply the all-ones character to the second
    tensor leg of the spectral decomposition and re-assemble. Raises if the
    result does not reproduce a coefficient-exactly."""
    parts = spectral_decompose(a, phi)
    out = AlgebraElement(a.table, {})
    for q in sorted(parts, key=lambda q: q.index):
        out = out + parts[q]  # chi(lambda_q) = 1
    if out != a:
        raise InvariantError("character reconstruction failed to reproduce the element")
    return out


def _growth(phi: ControlledMap, L: int) -> int:
    """Largest |phi(p)| over |p| <= L. Images have length >= 1 and lengths
    add, so it is L max_g |phi(g)|, attained at g^L."""
    if L > phi.source.L:
        raise LengthBoundError("requested level %d exceeds bound %d" % (L, phi.source.L))
    return L * max(img.length for img in phi.gen_images)


def _fell_rows(phi: ControlledMap, L_P: int, L_Q: int) -> tuple:
    """Domain, codomain and row array of W at levels (L_P, L_Q): e_p (x) e_k goes to
    e_p (x) e_{phi(p) k}, with one row of phi(p) k over the L_Q ball per distinct phi(p)."""
    growth = _growth(phi, L_P)
    if phi.target.L < L_Q + growth:
        raise LengthBoundError("target enumerated to %d, need %d" % (phi.target.L, L_Q + growth))
    bP, bQ = graded_basis(phi.source, L_P), graded_basis(phi.target, L_Q)
    bQ_cod = graded_basis(phi.target, L_Q + growth)
    images, inv = np.unique(phi.images[: bP.dim], return_inverse=True)
    prods = np.array([phi.target.left_products(phi.target.element(v), L_Q) for v in images.tolist()])
    rows = (np.arange(bP.dim)[:, None] * bQ_cod.dim + prods[inv]).ravel()
    return tensor_basis(bP, bQ), tensor_basis(bP, bQ_cod), rows


def fell_intertwiner_at(phi: ControlledMap, L_P: int, L_Q: int) -> SparseOperator:
    """The isometry W: e_p (x) e_k -> e_p (x) e_{phi(p) k} on the truncation
    with domain levels (L_P, L_Q); the second-leg codomain level grows by the
    largest |phi(p)| over |p| <= L_P."""
    return partial_map(*_fell_rows(phi, L_P, L_Q))


def fell_intertwiner(phi: ControlledMap, L_P: int, L_Q: int) -> tuple[SparseOperator, dict]:
    """Build W at levels (L_P, L_Q) and certify, exactly: (i) W*W = identity,
    (ii) W(lambda_p (x) I) = (lambda_p (x) V_p)W for every generator p, both
    sides into the codomain of W at level L_P + 1. All are partial maps, A e_c = e_{a[c]}
    (a[c] = -1 if A e_c = 0), so (i) says w has no -1 and no repeated entry, and
    (ii) equates the row arrays of the two composites."""
    dom, cod, w = _fell_rows(phi, L_P, L_Q)  # the row array W is built from, certified before W is
    if (w < 0).any() or np.bincount(w).max() > 1:
        raise InvariantError("Fell intertwiner is not an isometry")
    # lengths add in the target, so |phi(p)| + |phi(g)| is within W_up's growth
    _, cod_up, w_up = _fell_rows(phi, L_P + 1, L_Q)
    dim_Q, dim_Qc, dim_Qu = (b.factors[1].dim for b in (dom, cod, cod_up))
    for g in range(len(phi.source.presentation.generators)):
        p = phi.source.element_from_word((g,))
        lp = np.array(phi.source.left_products(p, L_P))
        vp = np.array(phi.target.left_products(phi(p), L_Q + _growth(phi, L_P)))
        lhs = w_up[(lp[:, None] * dim_Q + np.arange(dim_Q)).ravel()]  # e_x (x) e_k -> e_px (x) e_k, then W_up
        rhs = lp[w // dim_Qc] * dim_Qu + vp[w % dim_Qc]  # W, then e_y (x) e_j -> e_py (x) e_{phi(p) j}
        if not np.array_equal(lhs, rhs):
            raise InvariantError("Fell intertwining fails for generator %s" % phi.source.str_of(p))
    w_up = lhs = rhs = None  # released before W is assembled: its arrays would peak beside them
    generators = list(phi.source.presentation.generators)
    return partial_map(dom, cod, w), {"L_P": L_P, "L_Q": L_Q, "isometry": "exact", "intertwined_generators": generators}


def qf_spanning_set(phi: ControlledMap, F) -> tuple[frozenset, int]:
    """Spanning set of the quotient indexed by a finite F inside Q: all p in P
    whose image lies in some left-divisor set of a right divisor of F. Its
    (finite) cardinality is the finite-dimensionality witness."""
    table = phi.target
    targets = table.divisor_union(table.divisor_union(q.index for q in F), left=True)
    span = set()
    for t in sorted(targets):
        span.update(phi.fiber(table.element(t)))
    return frozenset(span), len(span)
