"""Exact enumeration of homogeneous monoids up to a length bound.

Elements are congruence classes of words; the canonical representative of a
class is its shortlex-minimal word (generator order = declaration order).
Because every relation preserves length, the table is closed level by level
(Froidure & Pin, *Algorithms for computing finite semigroups*, 1997). Every
length-n class contains a word canon(p).g with p of length n-1, and two such
pairs (p, g) are congruent exactly when a chain of identifications
(x.u', a) ~ (x.v', b), for a relation u'a = v'b and an element x of length
n-|u|, joins them. Union-find over the pairs of a level gives its classes
without listing their words, and the smallest pair of each set spells the
canonical word.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    CancellativityError,
    ControlledMapError,
    IncompleteFiberError,
    LengthBoundError,
    ResourceLimitError,
)
from .presentations import MonoidPresentation, Word


class MonoidElement(NamedTuple):
    """A congruence class, identified by its shortlex-minimal word. A tuple
    (index, word): equal and hashed as that pair, and immutable."""

    index: int
    word: Word

    @property
    def length(self) -> int:
        return len(self.word)


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


class EnumerationTable:
    """All monoid elements of length <= L, with exact multiplication.

    Immutable after construction; every query is pure. Elements are indexed
    in (length, shortlex) order. The right Cayley graph x -> x.g (for
    |x| < L) is stored with its spanning tree: _parent[x] = (p, g) where
    canon(x) = canon(p).g. Products walk the graph; `left_products` (the
    walk) lists v.x over a ball along the tree, and every g.x comes from it.
    A union of divisor sets R_p (L_p) is one sweep down the index order over
    the g.x (the x.g); nothing is stored for it.
    """

    def __init__(self, presentation: MonoidPresentation, L: int, max_words: int = 10**6):
        if L < 0:
            raise LengthBoundError("length bound must be nonnegative")
        self.presentation = presentation
        self.L = L
        self.max_words = max_words
        self.elements: list[MonoidElement] = [MonoidElement(0, ())]
        self.by_length: list[range] = [range(1)]
        self._right: list[tuple[int, ...]] = []  # _right[x][g] = x.g
        self._parent: list[tuple[int, int]] = [(0, 0)]  # (p, g) with canon(x) = canon(p).g
        self._enumerate()

    # -- construction ------------------------------------------------------

    def _walk(self, x: int, word: Word) -> int:
        for g in word:
            x = self._right[x][g]
        return x

    def _enumerate(self):
        ngen, new = len(self.presentation.generators), tuple.__new__  # builds elements at tuple cost
        if self.L * ngen > self.max_words:  # every level holds g^n, so level L would refuse: refuse before it
            raise ResourceLimitError("table entries exceeded cap %d at length %d" % (self.max_words, self.L))
        # relation u'a = v'b identifies (x.u', a) with (x.v', b)
        joins = [(u[:-1], u[-1], v[:-1], v[-1]) for u, v in self.presentation.relations if u != v]
        for n in range(1, self.L + 1):
            level = self.by_length[n - 1]
            if level.stop * ngen > self.max_words:
                raise ResourceLimitError(
                    "table entries exceeded cap %d at length %d" % (self.max_words, n)
                )
            # pair (p, g) is number (p - level.start) * ngen + g; roots are set minima
            root = list(range(len(level) * ngen))
            for u, a, v, b in joins:
                if len(u) < n:
                    for x in self.by_length[n - 1 - len(u)]:
                        i = _find(root, (self._walk(x, u) - level.start) * ngen + a)
                        j = _find(root, (self._walk(x, v) - level.start) * ngen + b)
                        root[max(i, j)] = min(i, j)
            ids = []  # pair -> element; pair order is shortlex order of canon(p).g
            for i in range(len(root)):
                r = root[i] = root[root[i]]  # roots of all earlier pairs are final
                if r == i:
                    p, g = divmod(i, ngen)
                    p += level.start
                    ids.append(len(self.elements))
                    self.elements.append(new(MonoidElement, (ids[i], self.elements[p].word + (g,))))
                    self._parent.append((p, g))
                else:
                    ids.append(ids[r])
            self.by_length.append(range(level.stop, len(self.elements)))
            self._right.extend(tuple(ids[k : k + ngen]) for k in range(0, len(ids), ngen))

    # -- identity and lookup ------------------------------------------------

    @property
    def fingerprint(self) -> tuple:
        return self.presentation.fingerprint

    @property
    def identity(self) -> MonoidElement:
        return self.elements[0]

    def counts(self) -> list[int]:
        """Number of elements at each length 0..L."""
        return [len(ids) for ids in self.by_length]

    def element(self, index: int) -> MonoidElement:
        return self.elements[index]

    def element_from_word(self, word: Word) -> MonoidElement:
        """Canonical element of an arbitrary word (length <= L)."""
        if len(word) > self.L:
            raise LengthBoundError("word of length %d exceeds bound %d" % (len(word), self.L))
        return self.elements[self._walk(0, word)]

    def element_from_str(self, text: str) -> MonoidElement:
        return self.element_from_word(self.presentation.parse_word(text))

    def str_of(self, x: MonoidElement) -> str:
        return self.presentation.word_str(x.word)

    def elements_up_to(self, L: int) -> list[MonoidElement]:
        if not 0 <= L <= self.L:
            raise LengthBoundError("requested level %d outside 0..%d" % (L, self.L))
        return self.elements[: self.by_length[L].stop]

    # -- multiplication ------------------------------------------------------

    def multiply(self, x: MonoidElement, y: MonoidElement) -> MonoidElement:
        if x.length + y.length > self.L:
            raise LengthBoundError(
                "product length %d exceeds bound %d" % (x.length + y.length, self.L)
            )
        return self.elements[self._walk(x.index, y.word)]

    def left_products(self, v: MonoidElement, L: int) -> list[int]:
        """Indices of v.x for |x| <= L, in index order: one right-graph step per
        x, since v.(canon(p).g) = (v.p).g along the spanning tree."""
        if L < 0:
            return []
        if v.length + L > self.L:
            raise LengthBoundError("product length %d exceeds bound %d" % (v.length + L, self.L))
        out, right = [v.index], self._right
        for p, g in self._parent[1 : self.by_length[L].stop]:
            out.append(right[out[p]][g])
        return out

    # -- divisor sets --------------------------------------------------------

    def _successors(self, n: int, left: bool) -> list[tuple[int, ...]]:
        """The one-letter extensions of each x with |x| < n, by index: the x.g if left,
        else the g.x off the walk. L_p (R_p) holds x when it holds one of them."""
        if left or n == 0:
            return self._right[: self.by_length[n].start]
        return list(zip(*(self.left_products(self.elements[g], n - 1) for g in self._right[0])))

    def divisor_sets(self, n: int) -> list[frozenset[int]]:
        """R_p as index sets in a fresh list, by index p up to length n. Level by level, each set is {p}
        joined with the sets of the x one level down with g.x = p, as p = (g q')r makes r divide x = q'r."""
        if not 0 <= n <= self.L:
            raise LengthBoundError("requested level %d outside 0..%d" % (n, self.L))
        sets, succ = [frozenset((0,))], self._successors(n, left=False)
        for m in range(1, n + 1):
            level = self.by_length[m]
            preds = [[] for _ in level]
            for x in self.by_length[m - 1]:
                for q in succ[x]:
                    preds[q - level.start].append(sets[x])
            sets.extend(ps[0].union((q,), *ps[1:]) for q, ps in zip(level, preds))
        return sets

    def divisor_union(self, indices, left: bool = False) -> frozenset[int]:
        """Union of R_p (or L_p if left) over element indices p, in one sweep down the index order: x is
        in it when x is a p or a successor of x (one letter longer, so settled first) is in it."""
        union = set(indices)
        succ = self._successors(self.elements[max(union, default=0)].length, left)
        for x in range(len(succ) - 1, -1, -1):
            if not union.isdisjoint(succ[x]):
                union.add(x)
        return frozenset(union)

    def right_divisors(self, p: MonoidElement) -> frozenset:
        """R_p = {r : p = q*r for some q}. Always contains the identity and p."""
        return frozenset(self.elements[i] for i in self.divisor_union((p.index,)))

    def left_divisors(self, p: MonoidElement) -> frozenset:
        """L_p = {q : p = q*r for some r}; as large as R_p only when the table is cancellative."""
        return frozenset(self.elements[i] for i in self.divisor_union((p.index,), left=True))

    # -- desk-scale witnesses -------------------------------------------------

    def check_cancellation(self):
        """Verify xy = xz => y = z and yx = zx => y = z for |x| + |y| <= L.

        By induction on |x|, this holds exactly when y -> g.y and y -> y.g are
        injective on |y| <= L-1 for every generator g. Cancellativity is not
        decidable from a presentation in general; a failure here aborts
        downstream constructions.
        """
        gens = self._right[0] if self._right else ()  # generator indices; none when L = 0
        lefts = (self.left_products(self.elements[x], self.L - 1) for x in gens)  # g.y, off the walk
        rights = ([row[g] for row in self._right] for g in range(len(gens)))
        for side, images_by_g in (("left", lefts), ("right", rights)):
            for name, images in zip(self.presentation.generators, images_by_g):
                if len(set(images)) != len(images):
                    raise CancellativityError("%s cancellation fails at g=%s" % (side, name))

    def check_associativity(self):
        """(xy)z = x(yz) for all triples with |x|+|y|+|z| <= L.

        Products walk the right Cayley graph along words, so this holds
        exactly when x.u = x.v for every relation u = v and |x| + |u| <= L:
        then every walk from x is constant on congruence classes.
        """
        word_str = self.presentation.word_str
        for u, v in self.presentation.relations:
            for x in self.elements_up_to(self.L - len(u)) if len(u) <= self.L else ():
                if self._walk(x.index, u) != self._walk(x.index, v):
                    raise CancellativityError(
                        "associativity fails at x=%s for %s = %s"
                        % (self.str_of(x), word_str(u), word_str(v))
                    )

    # -- common right multiples -----------------------------------------------

    def right_lcm_check(self, p: MonoidElement, q: MonoidElement) -> tuple[MonoidElement | None, dict]:
        """Inspect p*P intersect q*P within the length bound.

        Returns (lcm, report). lcm is the unique minimal generator of the
        intersection if one exists at this scale; the report records the
        verdict ("lcm", "empty-intersection", or "no-unique-minimum") and the
        bound used, since a larger bound could still change the answer.
        """
        def right_multiples(a: MonoidElement) -> set[int]:
            return set(self.left_products(a, self.L - a.length))

        common = right_multiples(p) & right_multiples(q)
        report = {"bound": self.L, "intersection_size": len(common)}
        if not common:
            report["verdict"] = "empty-intersection"
            return None, report
        min_len = min(self.elements[i].length for i in common)
        minimal = [self.elements[i] for i in sorted(common) if self.elements[i].length == min_len]
        for m in minimal:
            if common <= right_multiples(m):
                report["verdict"] = "lcm"
                report["lcm"] = self.str_of(m)
                return m, report
        report["verdict"] = "no-unique-minimum"
        return None, report


def enumerate_monoid(
    presentation: MonoidPresentation, L: int, max_words: int = 10**6
) -> EnumerationTable:
    """Build the exact enumeration table up to length L.

    ResourceLimitError before a level whose table entries (elements of
    smaller length times generators) would exceed max_words.
    """
    return EnumerationTable(presentation, L, max_words=max_words)


class ControlledMap:
    """A homomorphism P -> Q with finite fibers, given by generator images.

    Every generator image must have positive length, so |phi(x)| >= |x| and a
    fiber over q is complete once P is enumerated to length |q|. The relation
    check below is exactly the homomorphism condition for a presented monoid.
    """

    def __init__(self, source: EnumerationTable, target: EnumerationTable, gen_images):
        self.source = source
        self.target = target
        if len(gen_images) != len(source.presentation.generators):
            raise ControlledMapError("one image per source generator required")
        self.gen_images = tuple(gen_images)
        self.min_image_length = min(img.length for img in self.gen_images)
        if self.min_image_length < 1:
            raise ControlledMapError(
                "generator images must have length >= 1 (finite-fiber bookkeeping)"
            )
        for lhs, rhs in source.presentation.relations:
            u, v = (sum((self.gen_images[g].word for g in w), ()) for w in (lhs, rhs))
            if target.element_from_word(u) != target.element_from_word(v):
                raise ControlledMapError(
                    "images violate relation %s = %s"
                    % (source.presentation.word_str(lhs), source.presentation.word_str(rhs))
                )
        # images[x] = index of phi(x), -1 past target.L: phi(canon(p).g) = phi(p).phi(g)
        self.images = [0]
        for p, g in source._parent[1:]:
            x, y = self.images[p], self.gen_images[g]
            fits = x >= 0 and target.elements[x].length + y.length <= target.L
            self.images.append(target._walk(x, y.word) if fits else -1)

    def __call__(self, x: MonoidElement) -> MonoidElement:
        if (i := self.images[x.index]) < 0:
            raise LengthBoundError("image of %s exceeds bound %d" % (self.source.str_of(x), self.target.L))
        return self.target.elements[i]

    def fiber(self, q: MonoidElement) -> frozenset:
        """Complete finite fiber phi^{-1}(q)."""
        needed = q.length // self.min_image_length
        if needed > self.source.L:
            raise IncompleteFiberError(
                "source bound %d too small for fiber over length-%d element"
                % (self.source.L, q.length)
            )
        return frozenset(p for p in self.source.elements_up_to(needed) if self.images[p.index] == q.index)


def length_map(source: EnumerationTable, target: EnumerationTable) -> ControlledMap:
    """The length homomorphism P -> N (target must be the 1-generator free table)."""
    if len(target.presentation.generators) != 1 or target.presentation.relations:
        raise ControlledMapError("length map target must be the free monoid on one generator")
    one = target.elements[target.by_length[1][0]]
    return ControlledMap(source, target, [one] * len(source.presentation.generators))


def abelianization(source: EnumerationTable, target: EnumerationTable) -> ControlledMap:
    """Generator-wise map onto N^d (d = number of source generators).

    Valid only when the source relations hold in the commutative image, e.g.
    free and graph-commutation presentations; the constructor rejects others.
    """
    d = len(source.presentation.generators)
    if len(target.presentation.generators) != d:
        raise ControlledMapError("abelianization target must have one generator per source generator")
    images = [target.element_from_word((i,)) for i in range(d)]
    return ControlledMap(source, target, images)
