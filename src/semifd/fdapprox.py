"""Compression representations on divisor-set subspaces.

For a finite F inside the monoid, Y_F is the span of {e_r : r a right divisor
of some p in F}. Y_F is coinvariant for the algebra generated by the lambda_p:
lambda_s* e_r is e_t when r = s*t and 0 otherwise, and such a cofactor t is a
right divisor of r. So lambda_s* maps Y_F into itself for every s at once
exactly when Y_F is closed under taking right divisors. Compressing to Y_F is
therefore multiplicative, and the compressions stabilize: once F contains
s*q, the compressed operator reproduces lambda_s e_q = e_{sq} exactly.
Convergence certificates here are exact equalities, never epsilons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .enumeration import EnumerationTable, MonoidElement
from .errors import InputError, InvariantError
from .linrep import Basis, SparseOperator, partial_map


@dataclass(frozen=True)
class DivisorSubspace:
    """Y_F with its ordered basis (a sub-basis of the graded l2(P) basis)."""

    table: EnumerationTable
    F: tuple[MonoidElement, ...]
    basis: Basis = field(compare=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def max_length(self) -> int:
        return max(p.length for p in self.F)

    def rows(self, s: MonoidElement) -> list[int]:
        """Row array of compress(s): the position of s*r in Y_F for each label r, or -1.
        One walk lists s*x for |x| <= max|F| - |s|; longer r send e_r outside Y_F."""
        prods, find = self.table.left_products(s, self.max_length - s.length), self.basis.find
        return [find(prods[r]) if r < len(prods) else -1 for r in self.basis.labels]

    def compress(self, s: MonoidElement) -> SparseOperator:
        """Matrix of Q_F lambda_s Q_F restricted to Y_F; entries in {0, 1}."""
        return partial_map(self.basis, self.basis, self.rows(s))

    def check_coinvariance(self):
        """lambda_s* maps Y_F into Y_F (plus 0) for every s: the cofactor t of
        r = s*t is a right divisor of r, so it suffices that R_r lies in Y_F for
        every r in Y_F: one union over Y_F, equal to Y_F as r is in R_r."""
        table, labels, Y = self.table, self.basis.labels, frozenset(self.basis.labels)
        if not table.divisor_union(labels) <= Y:
            R, r = next((R, r) for r in labels if not (R := table.divisor_union((r,))) <= Y)
            raise InvariantError(
                "coinvariance broken: right divisor %s of %s is not in Y_F"
                % (table.str_of(table.element(min(R - Y))), table.str_of(table.element(r)))
            )


def build_Y(table: EnumerationTable, F) -> DivisorSubspace:
    """Span of the union of right-divisor sets of the elements of F."""
    F = tuple(F)
    if not F:
        raise InputError("F must be nonempty")
    for p in F:
        if table.element(p.index) != p:
            raise InputError("element %s is not in the table" % table.str_of(p))
    basis = Basis(("l2", table.fingerprint), tuple(sorted(table.divisor_union(p.index for p in F))))
    return DivisorSubspace(table, F, basis)


def kernel_set(sub: DivisorSubspace, L: int, rows=None) -> frozenset:
    """Elements s of length <= L whose compression to Y_F is 0.

    Computed twice: by the compressions' row arrays (no entry >= 0) and by the
    combinatorial complement of the union of left-divisor sets of right divisors
    of F. A mismatch means a bug and raises. rows, if given, are sub.rows(s) over
    the L-ball.
    """
    table, ball = sub.table, sub.table.elements_up_to(L)
    allowed = table.divisor_union(table.divisor_union(p.index for p in sub.F), left=True)
    rows = [sub.rows(s) for s in ball] if rows is None else rows
    by_matrix = {s.index for s, row in zip(ball, rows) if max(row) < 0}
    by_formula = {s.index for s in ball} - allowed
    if by_matrix != by_formula:
        raise InvariantError(
            "kernel-set mismatch: matrix %r vs formula %r"
            % (sorted(by_matrix), sorted(by_formula))
        )
    return frozenset(table.element(i) for i in by_matrix)


def stabilization_index(
    table: EnumerationTable,
    s: MonoidElement,
    q: MonoidElement,
    extras=(),
) -> tuple[tuple[MonoidElement, ...], dict]:
    """Finite stabilization certificate for the strong-operator limit.

    Returns F0 = {s*q} and a report asserting, for F0 and each tested superset
    F0 + extras, that the compression maps e_q to e_{sq} exactly and that Y_F
    is closed under right divisors, so the adjoint-side compression agrees
    with lambda_s* (for every s) on all of Y_F.
    """
    sq = table.multiply(s, q)
    F0 = (sq,)
    tested = [F0] + [F0 + tuple(extra) for extra in extras]
    for F in tested:
        sub = build_Y(table, F)
        if sub.rows(s)[sub.basis.index_of(q.index)] != sub.basis.index_of(sq.index):
            raise InvariantError(
                "stabilization failed: Q_F lambda_%s e_%s != e_%s for F=%s"
                % (
                    table.str_of(s),
                    table.str_of(q),
                    table.str_of(sq),
                    [table.str_of(p) for p in F],
                )
            )
        sub.check_coinvariance()
    report = {
        "F0": [table.str_of(p) for p in F0],
        "supersets_tested": len(tested),
        "image": table.str_of(sq),
    }
    return F0, report
