"""Seeded config streams for the two benchmark workloads.

A stream is an endless sequence of rounds. Every round runs the same list of
slots, so its cost mix is fixed; the seed only varies details that leave the
cost about the same: generator names (always two letters, so word strings
keep their length) and their declaration order, triangle-free random graphs
of a fixed size, F words (the longest of fixed length), polynomial
coefficients and the scale of the Hardy symbol 1 + z. No config repeats within a stream.

Each item is ``(config, meta)``. The config is all the program sees; ``meta``
tells the benchmark's own oracles which family the config was drawn from.

This module imports nothing from the package, so a fresh interpreter can
time ``import semifd.cli`` plus stream generation as set-up.
"""

from __future__ import annotations

import itertools
import json
import random

WORKLOADS = ("monoids", "multipliers")

_LETTERS = "abcdfghijklmnopqrstuvwxyz"


def _names(rng: random.Random, k: int) -> list[str]:
    """k distinct two-letter generator names (never the identity word "e")."""
    out: list[str] = []
    while len(out) < k:
        name = rng.choice(_LETTERS) + rng.choice(_LETTERS)
        if name not in out:
            out.append(name)
    return out


def _has_triangle(pairs) -> bool:
    edges = {frozenset(p) for p in pairs}
    nodes = set().union(*edges)
    return any(
        all(frozenset(q) in edges for q in itertools.combinations(t, 2))
        for t in itertools.combinations(nodes, 3)
    )


def _presentation(family: str, rng: random.Random, *params) -> tuple[dict, dict]:
    """Inline presentation of a builtin family under seeded names and
    declaration order, plus the meta the oracles need."""
    if family == "raag":
        vertices, edges = params
        names = _names(rng, vertices)
        # Triangle-free graphs with a fixed number of vertices and edges all
        # have the clique polynomial 1 - V t + E t^2, so the same growth: the
        # table size does not vary with the seed.
        while True:
            pairs = rng.sample(list(itertools.combinations(names, 2)), edges)
            if not _has_triangle(pairs):
                break
        rels = [((a, b), (b, a)) for a, b in pairs]
        meta = {"family": "raag", "names": names, "edges": [list(p) for p in pairs]}
    else:
        (k,) = params
        names = _names(rng, k - 1 if family == "braid" else k)
        if family == "free":
            rels = []
        elif family == "nat":
            rels = [((a, b), (b, a)) for a, b in itertools.combinations(names, 2)]
        else:  # braid(k): strands k, generators s_1..s_{k-1} in strand order
            s = names
            rels = [((s[i], s[i + 1], s[i]), (s[i + 1], s[i], s[i + 1])) for i in range(k - 2)]
            rels += [((s[i], s[j]), (s[j], s[i])) for i in range(k - 1) for j in range(i + 2, k - 1)]
        meta = {"family": family, "k": k, "names": names}
    order = list(names)
    rng.shuffle(order)
    pres = {"generators": order, "relations": [[".".join(u), ".".join(v)] for u, v in rels]}
    return pres, meta


def _words(rng, gens, count, lo, hi) -> list[str]:
    """``count`` words, the first of length ``hi``: the CLI sizes its tables
    from the longest F string, so that length must not vary with the seed."""
    lengths = [hi] + [rng.randint(lo, hi) for _ in range(count - 1)]
    return [".".join(rng.choice(gens) for _ in range(n)) for n in lengths]


# -- monoids: enumerate + divisors build tables a step below the frontier, ----
# -- and fdapprox + coaction over braid(3), braid(4), free(2) query them. ----


def _table(rng, command, family, params, L):
    pres, meta = _presentation(family, rng, *params)
    return {"command": command, "presentation": pres, "L": L}, meta


_TABLE_SLOTS = [
    (_table, ("enumerate", "braid", (4,), 7)),
    (_table, ("enumerate", "nat", (3,), 8)),
    (_table, ("enumerate", "braid", (3,), 10)),
    (_table, ("enumerate", "free", (2,), 9)),
    (_table, ("enumerate", "raag", (4, 3), 6)),
    (_table, ("divisors", "braid", (4,), 5)),
    (_table, ("divisors", "braid", (3,), 8)),
    (_table, ("divisors", "nat", (2,), 12)),
    (_table, ("divisors", "nat", (3,), 8)),
    (_table, ("divisors", "free", (2,), 7)),
    (_table, ("divisors", "raag", (3, 1), 5)),
]


def _fdapprox(rng, family, k, nF, lo, hi, L):
    pres, meta = _presentation(family, rng, k)
    F = _words(rng, meta["names"], nF, lo, hi)
    return {"command": "fdapprox", "presentation": pres, "F": F, "L": L}, meta


def _coaction(rng, family, k, kind, L_P, L_Q, nF, lo, hi):
    pres, meta = _presentation(family, rng, k)
    target_gens = ["a"] if kind == "length" else ["x", "y"]  # builtin free(1) / nat(2)
    F = _words(rng, target_gens, nF, lo, hi)
    cfg = {"command": "coaction", "presentation": pres, "map": kind, "L_P": L_P, "L_Q": L_Q, "F": F}
    return cfg, dict(meta, map=kind)


_OPERATOR_SLOTS = [
    (_coaction, ("braid", 3, "length", 8, 16, 2, 1, 4)),
    (_coaction, ("braid", 3, "length", 7, 14, 2, 1, 4)),
    (_coaction, ("free", 2, "abelianization", 5, 6, 2, 2, 3)),
    (_coaction, ("braid", 4, "length", 6, 10, 2, 1, 3)),
    (_coaction, ("braid", 4, "length", 5, 12, 2, 1, 3)),
    (_coaction, ("free", 2, "length", 6, 10, 2, 1, 3)),
    (_fdapprox, ("free", 2, 3, 2, 3, 5)),
    (_fdapprox, ("braid", 3, 2, 1, 2, 6)),
    (_fdapprox, ("braid", 4, 2, 1, 1, 4)),
    (_fdapprox, ("braid", 3, 2, 2, 3, 3)),
    (_fdapprox, ("free", 2, 2, 2, 2, 4)),
]


# -- multipliers: funcalg with large norm compressions -------------------------


def _compositions(d: int, n: int) -> list[tuple[int, ...]]:
    if d == 1:
        return [(n,)]
    return [(k,) + rest for k in range(n, -1, -1) for rest in _compositions(d - 1, n - k)]


def _poly(rng, d, degree, nterms) -> list[dict]:
    """Seeded polynomial of exactly this degree, with a constant term."""
    monos = [a for n in range(1, degree + 1) for a in _compositions(d, n)]
    chosen = {(0,) * d, rng.choice(_compositions(d, degree))}
    while len(chosen) < nterms:
        chosen.add(rng.choice(monos))
    return [
        {"exponents": list(a), "re": round(rng.uniform(-1, 1), 4), "im": round(rng.uniform(-1, 1), 4)}
        for a in sorted(chosen)
    ]


def _funcalg(rng, kernel, d, degree, nterms, D):
    cfg = {"command": "funcalg", "kernel": kernel, "phi": _poly(rng, d, degree, nterms), "D": D}
    return cfg, {"family": "poly"}


def _custom(rng, d, degree, nterms, D):
    """Custom kernel c_n = (n+1)^-s with seeded s, listed up to the codomain degree."""
    s = round(rng.uniform(0.2, 1.0), 3)
    coeffs = [round((n + 1) ** -s, 12) for n in range(D + degree + 1)]
    return _funcalg(rng, {"name": "custom", "d": d, "coefficients": coeffs}, d, degree, nterms, D)


def _hardy_scaled(rng, D):
    """phi = a(1 + z) with seeded a > 0: its compression to degree <= D has
    norm 2a cos(pi / (2D + 3))."""
    a = round(rng.uniform(0.5, 2.0), 6)
    phi = [{"exponents": [0], "re": a, "im": 0.0}, {"exponents": [1], "re": a, "im": 0.0}]
    return {"command": "funcalg", "kernel": "hardy", "phi": phi, "D": D}, {"family": "hardy-1+z", "scale": a}


_MULTIPLIER_SLOTS = [
    (_hardy_scaled, (2000,)),  # at the 2000-dim switch to power iteration
    (_funcalg, ("hardy", 1, 3, 3, 600)),
    (_funcalg, ({"name": "drury_arveson", "d": 2}, 2, 2, 3, 36)),
    (_funcalg, ({"name": "drury_arveson", "d": 3}, 3, 2, 3, 13)),
    (_funcalg, ("dirichlet", 1, 2, 3, 600)),
    (_custom, (2, 3, 3, 30)),
    (_hardy_scaled, (600,)),
]

SLOTS = {"monoids": _TABLE_SLOTS + _OPERATOR_SLOTS, "multipliers": _MULTIPLIER_SLOTS}


def stream(workload: str, seed: int):
    """Endless seeded stream of rounds; each round is a list of (config, meta)."""
    rng = random.Random("%s:%d" % (workload, seed))
    seen: set[str] = set()
    while True:
        batch = []
        for build, params in SLOTS[workload]:
            for _ in range(1000):
                cfg, meta = build(rng, *params)
                key = json.dumps(cfg, sort_keys=True)
                if key not in seen:
                    break
            else:
                raise RuntimeError("config space of a %s slot exhausted" % workload)
            seen.add(key)
            batch.append((cfg, meta))
        yield batch


def configs(workload: str, seed: int, count: int) -> list[tuple[dict, dict]]:
    """The first ``count`` items of the stream, in order."""
    out: list[tuple[dict, dict]] = []
    for batch in stream(workload, seed):
        out.extend(batch)
        if len(out) >= count:
            return out[:count]
