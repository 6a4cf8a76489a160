"""Finitely presented homogeneous monoids: presentations and built-in families.

A presentation consists of named generators and length-preserving relations.
Homogeneity (both sides of every relation have the same length) is what makes
every later construction exact: the word problem restricts to fixed-length
word sets and all truncations stabilize.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import PresentationError

Word = tuple[int, ...]


@dataclass(frozen=True)
class MonoidPresentation:
    """Generators plus homogeneous relations, with words stored as tuples of
    generator indices (shortlex order = declaration order)."""

    generators: tuple[str, ...]
    relations: tuple[tuple[Word, Word], ...]
    kind: str = "custom"
    _fingerprint: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not self.generators:
            raise PresentationError("presentation needs at least one generator")
        for g in self.generators:
            if not isinstance(g, str) or not g:  # names are joined into words
                raise PresentationError("generator names must be nonempty strings")
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("generator names must be unique")
        n = len(self.generators)
        for lhs, rhs in self.relations:
            for w in (lhs, rhs):
                if any(not (0 <= i < n) for i in w):
                    raise PresentationError("relation references an unknown generator")
            if len(lhs) != len(rhs):
                raise PresentationError(
                    "non-homogeneous relation: %s vs %s (lengths %d vs %d)"
                    % (self.word_str(lhs), self.word_str(rhs), len(lhs), len(rhs))
                )
        object.__setattr__(
            self, "_fingerprint", (self.generators, self.relations)
        )

    @property
    def fingerprint(self) -> tuple:
        """Hashable identity of the presentation (generators + relations)."""
        return self._fingerprint

    def word_str(self, w: Word) -> str:
        return ".".join(self.generators[i] for i in w) if w else "e"

    def parse_word(self, text: str) -> Word:
        if text in ("", "e"):
            return ()
        out = []
        for name in text.split("."):
            try:
                out.append(self.generators.index(name))
            except ValueError:
                raise PresentationError("unknown generator %r in word %r" % (name, text))
        return tuple(out)


def parse_presentation(text: str) -> MonoidPresentation:
    """Parse the JSON presentation document format.

    Expected shape: {"generators": ["a", "b"], "relations": [["a.b.a", "b.a.b"]]}
    where each relation word is a "."-separated concatenation of generator names.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PresentationError("malformed presentation document: %s" % exc)
    if not isinstance(doc, dict):
        raise PresentationError("presentation document must be an object")
    gens = doc.get("generators")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise PresentationError('"generators" must be a list of strings')
    rels_raw = doc.get("relations", [])
    if not isinstance(rels_raw, list):
        raise PresentationError('"relations" must be a list of word pairs')
    pres = MonoidPresentation(tuple(gens), ())
    for pair in rels_raw:
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(w, str) for w in pair)):
            raise PresentationError("each relation must be a list of two word strings")
    rels = tuple(tuple(map(pres.parse_word, pair)) for pair in rels_raw)
    return MonoidPresentation(pres.generators, rels, kind=doc.get("kind", "custom"))


_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_NAT_NAMES = "xyzw"


def free(n: int) -> MonoidPresentation:
    """Free monoid on n generators (no relations)."""
    if n <= 0:
        raise PresentationError("free(n) needs n >= 1")
    names = tuple(_LETTERS[i] if n <= 26 else "a%d" % (i + 1) for i in range(n))
    return MonoidPresentation(names, (), kind="free")


def nat(d: int) -> MonoidPresentation:
    """The free commutative monoid N^d: all generators commute."""
    if d <= 0:
        raise PresentationError("nat(d) needs d >= 1")
    names = tuple(_NAT_NAMES[i] if d <= 4 else "x%d" % (i + 1) for i in range(d))
    rels = tuple(((i, j), (j, i)) for i in range(d) for j in range(i + 1, d))
    return MonoidPresentation(names, rels, kind="commutative")


def raag(vertices: list[str], edges: list[tuple[str, str]]) -> MonoidPresentation:
    """Artin monoid of a simple graph: v and w commute exactly when {v,w} is
    an edge. Empty edge set gives the free monoid on the vertices."""
    names = tuple(vertices)
    if not names:
        raise PresentationError("raag needs at least one vertex")
    rels = []
    seen = set()
    for v, w in edges:
        if v == w:
            raise PresentationError("self-loop at vertex %r" % v)
        if v not in names or w not in names:
            raise PresentationError("edge endpoint %r is not a vertex" % (v if v not in names else w))
        i, j = names.index(v), names.index(w)
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        rels.append(((key[0], key[1]), (key[1], key[0])))
    return MonoidPresentation(names, tuple(sorted(rels)), kind="raag")


def braid(n: int) -> MonoidPresentation:
    """Positive braid monoid on n strands: generators s1..s(n-1), relations
    s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1} and s_i s_j = s_j s_i for |i-j| >= 2."""
    if n < 2:
        raise PresentationError("braid(n) needs n >= 2")
    k = n - 1
    names = tuple("s%d" % (i + 1) for i in range(k))
    rels = []
    for i in range(k - 1):
        rels.append(((i, i + 1, i), (i + 1, i, i + 1)))
    for i in range(k):
        for j in range(i + 2, k):
            rels.append(((i, j), (j, i)))
    return MonoidPresentation(names, tuple(rels), kind="braid")


def builtin(kind: str, **params) -> MonoidPresentation:
    """Dispatch on a builtin family name: free(n), nat(d), raag(vertices, edges),
    braid(n)."""
    if kind == "free":
        return free(params["n"])
    if kind == "nat":
        return nat(params["d"])
    if kind == "raag":
        return raag(params["vertices"], [tuple(e) for e in params.get("edges", [])])
    if kind == "braid":
        return braid(params["n"])
    raise PresentationError("unknown builtin kind %r" % kind)
