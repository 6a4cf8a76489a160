"""Per-job correctness gate: closed-form oracles, golden digests, verdicts.

The oracles share no code with the package. Every problem found in a job is
a failure with a reason. A failure is *fatal* (the run's ``correct`` becomes
false) when an exact result is wrong or the program crashed: a traceback, an
exit status other than 0 or 1, a missing report, a failing exact check, an
exact oracle or a golden digest that does not match. A float result that
misses its stated guarantee (a closed form, a proven bound or a stored golden
value, each within ``norm_tol``), or a float-based check that fails, is
counted in ``failed`` but is not fatal: those are the known norm-accuracy
defects the benchmark is there to measure.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from functools import lru_cache

# Reports keep 12 significant digits: floats compare with this much slack.
_SLACK = 5e-12
_REL = 1e-11

# Checks whose verdict rests on floating-point norms.
FLOAT_CHECKS = frozenset({"contractivity", "norm-monotone", "circle-covariance"})

CHECK_NAMES = (
    "cancellation",
    "associativity",
    "divisor-bijection",
    "divisor-nesting",
    "kernel-formula",
    "contractivity",
    "coinvariance",
    "fell-absorption",
    "character-reconstruction",
    "qf-spanning-set",
    "norm-monotone",
    "circle-covariance",
    "grading-reconstruction",
)


# -- closed forms ---------------------------------------------------------------


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def nat_counts(d: int, L: int) -> list[int]:
    return [math.comb(n + d - 1, d - 1) for n in range(L + 1)]


def free_counts(n: int, L: int) -> list[int]:
    return [n**k for k in range(L + 1)]


def braid3_counts(L: int) -> list[int]:
    return [_fib(n + 3) - 1 for n in range(L + 1)]


def raag_counts(names, edges, L: int) -> list[int]:
    """Growth of a trace monoid: the power series inverse of its clique
    polynomial sum_C (-t)^|C| over cliques C of the commutation graph."""
    adj = {frozenset(e) for e in edges}
    clique = [0] * (len(names) + 1)
    for k in range(len(names) + 1):
        for sub in itertools.combinations(names, k):
            if all(frozenset(p) in adj for p in itertools.combinations(sub, 2)):
                clique[k] += (-1) ** k
    out = [1]
    for n in range(1, L + 1):
        out.append(-sum(clique[k] * out[n - k] for k in range(1, min(n, len(names)) + 1)))
    return out


@lru_cache(maxsize=None)
def brute_counts(ngen: int, relations: tuple, L: int) -> tuple[int, ...]:
    """Classes of all words of each length, by union-find over single rewrites."""
    counts = [1]
    for n in range(1, L + 1):
        words = list(itertools.product(range(ngen), repeat=n))
        parent = {w: w for w in words}

        def find(w):
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            return w

        for w in words:
            for u, v in relations:
                k = len(u)
                for i in range(n - k + 1):
                    if w[i : i + k] == u:
                        a, b = find(w), find(w[:i] + v + w[i + k :])
                        if a != b:
                            parent[a] = b
        counts.append(sum(1 for w in words if find(w) == w))
    return tuple(counts)


def counts_oracle(meta: dict, L: int) -> list[int]:
    """Elements of each length 0..L of the family a config was drawn from."""
    family = meta["family"]
    if family == "nat":
        return nat_counts(meta["k"], L)
    if family == "free":
        return free_counts(meta["k"], L)
    if family == "raag":
        return raag_counts(meta["names"], meta["edges"], L)
    if family == "braid" and meta["k"] == 3:
        return braid3_counts(L)
    k = meta["k"] - 1  # braid(k+1): braid relations between neighbours, commutation otherwise
    rels = tuple(((i, i + 1, i), (i + 1, i, i + 1)) for i in range(k - 1))
    rels += tuple(((i, j), (j, i)) for i in range(k) for j in range(i + 2, k))
    return list(brute_counts(k, rels, L))


def hardy_norm(D: int) -> float:
    """Norm of the compression of M_{1+z} to degree <= D on Hardy space."""
    return 2.0 * math.cos(math.pi / (2 * D + 3))


def _kernel_coeffs(kernel, n_max: int) -> tuple[int, list[float]]:
    """(d, [c_0..c_n_max]) of a funcalg kernel spec: K(z, w) = sum c_n <z, w>^n."""
    name, d = (kernel, 1) if isinstance(kernel, str) else (kernel["name"], kernel.get("d", 1))
    if name == "custom":
        return d, [float(c) for c in kernel["coefficients"][: n_max + 1]]
    if name == "dirichlet":
        return d, [1.0 / (n + 1) for n in range(n_max + 1)]
    return d, [1.0] * (n_max + 1)  # hardy, drury_arveson


def norm_bounds(cfg: dict, D: int) -> tuple[float, float]:
    """Bounds on the norm of M_phi compressed to polynomials of degree <= D.

    Monomials are orthogonal with ||z^a||^2 = a!/(|a|! c_|a|). Lower: the
    compression sends 1 to the part of phi of degree <= D, so its norm is at
    least ||phi_<=D|| / ||1||. Upper: the compression of M_{z^b} sends each
    normalised monomial to a multiple of another, distinct one, so its norm
    is the largest such factor, at most max_n sqrt(c_n / c_{n+|b|}) over the
    degrees n <= D - |b| it acts on; sum those times |coefficient| over phi.
    """
    terms = [(tuple(t["exponents"]), abs(complex(t["re"], t["im"]))) for t in cfg["phi"]]
    _, c = _kernel_coeffs(cfg["kernel"], D)
    lower_sq, upper = 0.0, 0.0
    for a, size in terms:
        k = sum(a)
        if k > D:
            continue
        multinom = math.factorial(k) // math.prod(math.factorial(x) for x in a)
        lower_sq += size * size / (multinom * c[k])
        upper += size * math.sqrt(max(c[n] / c[n + k] for n in range(D - k + 1)))
    return math.sqrt(lower_sq * c[0]), upper


def _letters(word: str) -> list[str]:
    return [] if word == "e" else word.split(".")


def _free_factors(words) -> set[tuple]:
    out = set()
    for w in words:
        for i in range(len(w) + 1):
            for j in range(i, len(w) + 1):
                out.add(tuple(w[i:j]))
    return out


def _below(boxes):
    """Lattice points of N^d under some corner in ``boxes``."""
    pts = set()
    for corner in boxes:
        pts.update(itertools.product(*(range(c + 1) for c in corner)))
    return pts


# -- per-report checks ----------------------------------------------------------


def _oracle_problems(cfg: dict, meta: dict, report: dict, norm_tol: float) -> list[tuple[str, bool]]:
    """(reason, fatal) for each oracle the report contradicts."""
    out = []
    tables = report.get("tables", {})
    family = meta.get("family")
    command = cfg["command"]
    if command in ("enumerate", "divisors"):
        expect = counts_oracle(meta, cfg["L"])
        if command == "enumerate" and tables.get("counts") != expect:
            out.append(("oracle:counts", True))
        if command == "divisors":
            sizes = tables.get("sizes", [])
            if len(sizes) != sum(expect):
                out.append(("oracle:divisor-rows", True))
            if family in ("nat", "free"):
                for word, r, l in sizes:
                    letters = _letters(word)
                    if family == "nat":
                        want = math.prod(letters.count(g) + 1 for g in meta["names"])
                    else:
                        want = len(letters) + 1
                    if (r, l) != (want, want):
                        out.append(("oracle:divisor-sizes", True))
                        break
    elif command == "fdapprox" and family == "free":
        F = [tuple(_letters(w)) for w in cfg["F"]]
        suffixes = {w[i:] for w in F for i in range(len(w) + 1)}
        factors = _free_factors(F)
        L = cfg["L"]
        kernel = sorted(
            ".".join(w) if w else "e"
            for n in range(L + 1)
            for w in itertools.product(meta["names"], repeat=n)
            if w not in factors
        )
        if tables.get("dim_Y_F") != len(suffixes):
            out.append(("oracle:dim-Y_F", True))
        if tables.get("kernel_set") != kernel:
            out.append(("oracle:kernel-set", True))
    elif command == "coaction" and "qf_spanning_cardinality" in tables:
        got = tables["qf_spanning_cardinality"]
        want = None
        if meta["map"] == "length":
            top = max(len(_letters(w)) for w in cfg["F"])
            want = sum(counts_oracle(meta, top))
        elif meta["map"] == "abelianization":
            boxes = [(_letters(w).count("x"), _letters(w).count("y")) for w in cfg["F"]]
            want = sum(math.comb(a + b, a) for a, b in _below(boxes))
        if want is not None and got != want:
            out.append(("oracle:qf-cardinality", True))
    elif command == "funcalg":
        for dd, value in tables.get("norm_lower_bounds", []):
            lower, upper = norm_bounds(cfg, dd)
            if not (lower * (1 - norm_tol) - _SLACK <= value <= upper * (1 + _REL) + _SLACK):
                out.append(("oracle:norm-bounds", False))
                break
        if family == "hardy-1+z":
            for dd, value in tables.get("norm_lower_bounds", []):
                exact = meta["scale"] * hardy_norm(dd)
                if not (value <= exact + _SLACK and exact - value <= norm_tol * exact + _SLACK):
                    out.append(("oracle:hardy-2cos", False))
                    break
    return out


def _fields(report: dict):
    return {"checks": report.get("checks", []), "tables": report.get("tables", {})}


def exact_fields(report: dict):
    """The report's check names and statuses and every non-float leaf of its
    tables and witnesses; floats become a placeholder."""

    def walk(obj):
        if isinstance(obj, float):
            return "<float>"
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        return obj

    return walk(_fields(report))


def float_fields(report: dict) -> list[float]:
    """The float leaves of the same fields, in key-sorted order."""
    out: list[float] = []

    def walk(obj):
        if isinstance(obj, float):
            out.append(obj)
        elif isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k])
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(_fields(report))
    return out


def golden_of(report: dict) -> list:
    """What the golden files store for a certified report: the digest of its
    exact fields and its float fields."""
    return [digest(exact_fields(report)), float_fields(report)]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def check_job(cfg, meta, status, report, golden=None, norm_tol=1e-9) -> list[tuple[str, bool]]:
    """Every problem with one job as (reason, fatal); empty means certified.

    ``status`` is the exit status of ``cli.main`` or, if it raised, the
    exception's class name. ``golden`` is the stored ``golden_of`` of the
    job's report, or None where no golden exists.
    """
    if isinstance(status, str):
        return [("traceback:%s" % status, True)]
    if status not in (0, 1) or report is None:
        return [("exit:%d" % status, True)]
    problems = []
    for check in report.get("checks", []):
        if check["status"] != "pass":
            problems.append(("check:%s" % check["name"], check["name"] not in FLOAT_CHECKS))
    if status == 1 and not problems:
        problems.append(("exit:1", True))
    problems += _oracle_problems(cfg, meta, report, norm_tol)
    # A failed float check drops its tables entry, so the digest cannot match;
    # that job is already counted as failed.
    float_failed = any(name[6:] in FLOAT_CHECKS for name, _ in problems if name.startswith("check:"))
    if golden is not None and not float_failed:
        want_digest, want_floats = golden
        if digest(exact_fields(report)) != want_digest:
            problems.append(("golden", True))
        elif any(abs(g - w) > norm_tol * abs(w) + _SLACK for g, w in zip(float_fields(report), want_floats)):
            problems.append(("golden:floats", False))
    return problems
