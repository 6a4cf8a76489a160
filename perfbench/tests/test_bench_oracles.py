import copy
import itertools
import json
import math
import os
import random

import numpy as np

import checks
import workloads


def _classes(ngen, relations, n):
    """Brute force: classes of all length-n words under single rewrites."""
    words = list(itertools.product(range(ngen), repeat=n))
    cls = {w: {w} for w in words}
    for w in words:
        for u, v in relations:
            for i in range(n - len(u) + 1):
                if w[i : i + len(u)] == u:
                    w2 = w[:i] + v + w[i + len(u) :]
                    if cls[w] is not cls[w2]:
                        merged = cls[w] | cls[w2]
                        for x in merged:
                            cls[x] = merged
    return {min(c): c for c in map(frozenset, cls.values())}


def _commuting(pairs):
    return tuple(rel for a, b in pairs for rel in (((a, b), (b, a)),))


def test_closed_form_counts_match_brute_force():
    assert checks.nat_counts(2, 6) == [len(_classes(2, _commuting([(0, 1)]), n)) for n in range(7)]
    nat3 = _commuting(itertools.combinations(range(3), 2))
    assert checks.nat_counts(3, 5) == [len(_classes(3, nat3, n)) for n in range(6)]
    assert checks.free_counts(2, 6) == [len(_classes(2, (), n)) for n in range(7)]
    braid3 = (((0, 1, 0), (1, 0, 1)),)
    assert checks.braid3_counts(7) == [len(_classes(2, braid3, n)) for n in range(8)]
    assert checks.braid3_counts(6) == list(checks.brute_counts(2, braid3, 6)) == [1, 2, 4, 7, 12, 20, 33]


def test_clique_polynomial_counts_match_brute_force_on_every_small_graph():
    names = ["a", "b", "c", "d"]
    all_pairs = list(itertools.combinations(range(4), 2))
    for k in range(len(all_pairs) + 1):
        for pairs in itertools.combinations(all_pairs, k):
            edges = [(names[i], names[j]) for i, j in pairs]
            expect = list(checks.brute_counts(4, _commuting(pairs), 4))
            assert checks.raag_counts(names, edges, 4) == expect


def test_braid4_counts_oracle_matches_independent_brute_force():
    meta = {"family": "braid", "k": 4, "names": ["p", "q", "r"]}
    rels = (((0, 1, 0), (1, 0, 1)), ((1, 2, 1), (2, 1, 2)), ((0, 2), (2, 0)))
    assert checks.counts_oracle(meta, 5) == [len(_classes(3, rels, n)) for n in range(6)]


def test_divisor_size_closed_forms_match_brute_force():
    nat2 = _commuting([(0, 1)])
    reps = {n: _classes(2, nat2, n) for n in range(6)}
    canon = {w: c for n in reps for c, ws in reps[n].items() for w in ws}
    for n in range(6):
        for p in reps[n]:
            right = {canon[w[k:]] for w in reps[n][p] for k in range(n + 1)}
            assert len(right) == (p.count(0) + 1) * (p.count(1) + 1)
    for n in range(5):
        for p in itertools.product(range(2), repeat=n):
            assert len({p[k:] for k in range(n + 1)}) == n + 1


def test_hardy_closed_form_matches_dense_svd():
    for D in (10, 200):
        A = np.eye(D + 1) + np.eye(D + 1, k=-1)
        assert abs(np.linalg.svd(A, compute_uv=False)[0] - checks.hardy_norm(D)) < 1e-12


def _compression(cfg, D):
    """Dense matrix of M_phi compressed to degree <= D, built from the monomial
    norms ||z^a||^2 = a!/(|a|! c_|a|) with no code from the package."""
    d, c = checks._kernel_coeffs(cfg["kernel"], D)
    monos = [a for a in itertools.product(range(D + 1), repeat=d) if sum(a) <= D]
    index = {a: i for i, a in enumerate(monos)}

    def norm(a):
        return (math.prod(math.factorial(x) for x in a) / (math.factorial(sum(a)) * c[sum(a)])) ** 0.5

    M = np.zeros((len(monos), len(monos)), dtype=complex)
    for a in monos:
        for t in cfg["phi"]:
            b = tuple(x + y for x, y in zip(a, t["exponents"]))
            if b in index:
                M[index[b], index[a]] += complex(t["re"], t["im"]) * norm(b) / norm(a)
    return M


def test_norm_bounds_bracket_the_dense_norm_on_every_kernel():
    rng = random.Random(2)
    cases = [
        (workloads._funcalg, ("hardy", 1, 3, 3, 30)),
        (workloads._funcalg, ({"name": "drury_arveson", "d": 2}, 2, 2, 3, 6)),
        (workloads._funcalg, ({"name": "drury_arveson", "d": 3}, 3, 2, 3, 4)),
        (workloads._funcalg, ("dirichlet", 1, 2, 3, 30)),
        (workloads._custom, (2, 3, 3, 6)),
        (workloads._hardy_scaled, (20,)),
    ]
    for build, params in cases:
        cfg, _ = build(rng, *params)
        for D in (1, 3, cfg["D"]):
            lower, upper = checks.norm_bounds(cfg, D)
            exact = np.linalg.norm(_compression(cfg, D), 2)
            assert lower <= exact * (1 + 1e-12) and exact <= upper * (1 + 1e-12)


def _run(config, scratch_dir):
    from semifd import cli

    cfg_path = os.path.join(scratch_dir, "c.json")
    out_path = os.path.join(scratch_dir, "r.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    status = cli.main(["--config", cfg_path, "--out", out_path])
    with open(out_path) as fh:
        return status, json.load(fh)


def test_oracles_accept_the_program_and_catch_a_corrupted_report(scratch_dir):
    small = [
        (workloads._table, ("divisors", "nat", (2,), 5)),
        (workloads._table, ("divisors", "free", (2,), 4)),
        (workloads._table, ("enumerate", "raag", (4, 2), 5)),
        (workloads._fdapprox, ("free", 2, 2, 1, 3, 4)),
        (workloads._coaction, ("free", 2, "abelianization", 2, 3, 2, 1, 3)),
        (workloads._coaction, ("braid", 3, "length", 3, 4, 2, 1, 3)),
    ]
    rng = random.Random(5)
    for build, params in small:
        cfg, meta = build(rng, *params)
        status, report = _run(cfg, scratch_dir)
        assert checks.check_job(cfg, meta, status, report) == []
        bad = copy.deepcopy(report)
        tables = bad["tables"]
        if "sizes" in tables:
            tables["sizes"][-1][1] += 1
        elif "counts" in tables:
            tables["counts"][-1] += 1
        elif "kernel_set" in tables:
            tables["kernel_set"] = tables["kernel_set"][1:]
        else:
            tables["qf_spanning_cardinality"] += 1
        problems = checks.check_job(cfg, meta, status, bad)
        assert problems and all(fatal for _, fatal in problems)


def test_hardy_oracle_and_golden_digest(scratch_dir):
    cfg, meta = workloads._hardy_scaled(random.Random(1), 40)
    status, report = _run(cfg, scratch_dir)
    golden = checks.golden_of(report)
    assert checks.check_job(cfg, meta, status, report, golden) == []
    off = copy.deepcopy(report)
    off["tables"]["norm_lower_bounds"][-1][1] *= 1 - 1e-6
    assert checks.check_job(cfg, meta, status, off, golden) == [
        ("oracle:hardy-2cos", False),
        ("golden:floats", False),
    ]
    flipped = copy.deepcopy(report)
    flipped["checks"][2]["status"] = "fail"  # grading-reconstruction, an exact check
    assert checks.check_job(cfg, meta, 1, flipped, golden) == [
        ("check:grading-reconstruction", True),
        ("golden", True),
    ]


def test_norms_of_other_kernels_are_checked_against_bounds_and_golden(scratch_dir):
    cfg, meta = workloads._funcalg(random.Random(4), {"name": "drury_arveson", "d": 2}, 2, 2, 3, 8)
    status, report = _run(cfg, scratch_dir)
    golden = checks.golden_of(report)
    assert checks.check_job(cfg, meta, status, report, golden) == []
    off = copy.deepcopy(report)
    off["tables"]["norm_lower_bounds"][0][1] *= 1 + 1e-6
    assert checks.check_job(cfg, meta, status, off, golden) == [("golden:floats", False)]
    low = copy.deepcopy(report)
    low["tables"]["norm_lower_bounds"][-1][1] = 0.5 * checks.norm_bounds(cfg, cfg["D"])[0]
    assert checks.check_job(cfg, meta, status, low, None) == [("oracle:norm-bounds", False)]


def test_crashes_and_exit_codes_are_fatal():
    assert checks.check_job({}, {}, "KeyError", None) == [("traceback:KeyError", True)]
    assert checks.check_job({}, {}, 2, None) == [("exit:2", True)]
