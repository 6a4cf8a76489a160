"""End-to-end acceptance checks, one per shipped guarantee.

Each check prints a single pass/fail line (run with -s to see them) and
enforces its own tolerance and, where stated, its runtime budget.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import semifd as sf
from semifd import cli

from oracles import brute_counts, circle_sup_norm, kernel_gram_norms


@contextmanager
def criterion(num, name, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("[acceptance] %02d %s: FAIL" % (num, name))
        raise
    elapsed = time.perf_counter() - t0
    print("[acceptance] %02d %s: PASS (%.2fs)" % (num, name, elapsed))
    if budget is not None:
        assert elapsed < budget, "criterion %d exceeded %.0fs budget" % (num, budget)


def test_criterion_01_square_lattice_divisor_counts():
    with criterion(1, "square-lattice divisor counts", budget=1.0):
        table = sf.enumerate_monoid(sf.nat(2), 10)
        for a in range(6):
            for b in range(6):
                p = table.element_from_word((0,) * a + (1,) * b)
                assert len(table.right_divisors(p)) == (a + 1) * (b + 1)
        for p in table.elements_up_to(10):
            assert len(table.right_divisors(p)) == len(table.left_divisors(p))


def test_criterion_02_free_monoid_divisor_counts():
    with criterion(2, "free-monoid divisor counts", budget=1.0):
        table = sf.enumerate_monoid(sf.free(2), 6)
        for p in table.elements_up_to(6):
            assert len(table.right_divisors(p)) == p.length + 1
            assert len(table.left_divisors(p)) == p.length + 1


def test_criterion_03_braid_growth():
    with criterion(3, "braid growth counts", budget=5.0):
        table = sf.enumerate_monoid(sf.braid(3), 4)
        assert table.counts() == [1, 2, 4, 7, 12]
        assert brute_counts(2, sf.braid(3).relations, 4) == [1, 2, 4, 7, 12]


def test_criterion_04_kernel_formula():
    with criterion(4, "compression kernel formula", budget=30.0):
        for pres in (sf.nat(1), sf.free(2), sf.braid(3)):
            table = sf.enumerate_monoid(pres, 8)
            pool = table.elements_up_to(3)
            singles = [(p,) for p in pool]
            pairs = list(itertools.combinations(pool, 2))
            for F in singles + pairs:
                sf.kernel_set(sf.build_Y(table, F), 5)  # raises on any nullity/formula mismatch


def test_criterion_05_stabilization():
    with criterion(5, "finite-stage stabilization", budget=60.0):
        table = sf.enumerate_monoid(sf.braid(3), 8)
        g1 = table.element_from_str("s1")
        g22 = table.element_from_str("s2.s2")
        checked = 0
        for s in table.elements_up_to(6):
            for q in table.elements_up_to(6 - s.length):
                extras = [[g1], [g1, g22]]
                sf.stabilization_index(table, s, q, extras=extras)
                checked += 1
        assert checked > 500


def test_criterion_06_compression_homomorphism():
    with criterion(6, "compression homomorphism"):
        for pres in (sf.free(2), sf.braid(3)):
            table = sf.enumerate_monoid(pres, 6)
            F = [table.elements_up_to(4)[-1], table.element_from_word((0, 1, 0, 1))]
            sub = sf.build_Y(table, F)
            for s in table.elements_up_to(4):
                for t in table.elements_up_to(4 - s.length):
                    st = table.multiply(s, t)
                    assert sub.compress(s) @ sub.compress(t) == sub.compress(st)


def test_criterion_07_fell_absorption():
    with criterion(7, "Fell absorption intertwiner"):
        braid = sf.enumerate_monoid(sf.braid(3), 5)
        lengths = sf.enumerate_monoid(sf.nat(1), 12)
        spec = sf.length_map(braid, lengths)
        W, report = sf.fell_intertwiner(spec, 3, 4)
        assert report["isometry"] == "exact"
        assert report["intertwined_generators"] == ["s1", "s2"]
        assert W.adjoint() @ W == sf.identity_operator(W.domain)

        free2 = sf.enumerate_monoid(sf.free(2), 5)
        lattice = sf.enumerate_monoid(sf.nat(2), 12)
        spec2 = sf.abelianization(free2, lattice)
        _, report2 = sf.fell_intertwiner(spec2, 3, 4)
        assert report2["isometry"] == "exact"
        assert report2["intertwined_generators"] == ["a", "b"]


def test_criterion_08_coaction_bookkeeping():
    with criterion(8, "coaction bookkeeping"):
        braid = sf.enumerate_monoid(sf.braid(3), 5)
        lengths = sf.enumerate_monoid(sf.nat(1), 8)
        spec = sf.length_map(braid, lengths)
        rng = np.random.default_rng(20260823)
        pool = braid.elements_up_to(4)
        for _ in range(100):
            size = int(rng.integers(0, 9))
            picks = rng.choice(len(pool), size=size, replace=False)
            a = sf.AlgebraElement(
                braid,
                {pool[i]: complex(rng.normal(), rng.normal()) for i in picks},
            )
            parts = sf.spectral_decompose(a, spec)
            total = sf.AlgebraElement(braid, {})
            for q in parts:
                total = total + parts[q]
            assert total == a
            assert sf.character_reconstruction(spec, a) == a
        _, count = sf.qf_spanning_set(spec, [lengths.element_from_word((0, 0))])
        assert count == 7


def test_criterion_09_hardy_multiplier_norm():
    with criterion(9, "Hardy multiplier norm bounds", budget=10.0):
        phi = sf.Polynomial(1, {(0,): 1.0, (1,): 1.0})
        vals = [sf.multiplier_norm_lower(sf.hardy(), phi, D) for D in (10, 50, 100, 200)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert 1.99 <= vals[-1] <= 2.0
        assert abs(circle_sup_norm(phi) - 2.0) <= 1e-9


def test_criterion_10_circle_covariance():
    with criterion(10, "circle-action covariance"):
        polys = [
            sf.Polynomial(2, {(0, 0): 1.0, (1, 0): 1.0, (1, 1): 1.0}),
            sf.Polynomial(2, {(2, 0): 1.0}),
        ]
        kernels = [
            sf.KernelSpec(2, "hardy"),
            sf.drury_arveson(2),
            sf.KernelSpec(2, "dirichlet"),
        ]
        D = 8
        for kernel in kernels:
            for phi in polys:
                for k in range(8):
                    zeta = complex(np.exp(2j * np.pi * k / 8))
                    lhs = (
                        sf.circle_action_matrix(kernel, D + phi.degree, zeta).adjoint()
                        @ sf.mult_operator(kernel, phi, D)
                        @ sf.circle_action_matrix(kernel, D, zeta)
                    )
                    rhs = sf.mult_operator(kernel, sf.circle_action(phi, zeta.conjugate()), D)
                    err = float(np.abs(lhs.to_dense() - rhs.to_dense()).max())
                    assert err <= 1e-12


def test_criterion_11_monomial_norms():
    with criterion(11, "monomial norm formulas"):
        da = sf.drury_arveson(2)
        assert abs(sf.monomial_norm(da, (1, 1)) - 1 / math.sqrt(2)) <= 1e-12
        diri = sf.dirichlet()
        for n in range(12):
            assert abs(sf.monomial_norm(diri, (n,)) - math.sqrt(n + 1)) <= 1e-12
        for kernel, degree in ((da, 6), (diri, 12)):
            oracle = kernel_gram_norms(kernel.d, kernel.c, degree)
            for alpha, value in oracle.items():
                assert abs(sf.monomial_norm(kernel, alpha) - value) <= 1e-12


def test_criterion_13_hardy_norm_at_scale():
    with criterion(13, "Hardy norm at 3001 dims", budget=1.0):
        phi = sf.Polynomial(1, {(0,): 1.0, (1,): 1.0})
        val = sf.multiplier_norm_lower(sf.hardy(), phi, 3000)
        assert abs(val - 2 * math.cos(math.pi / 6003)) <= 1e-12


def test_criterion_14_enumeration_frontier():
    with criterion(14, "nat(3) L=30 and braid(4) L=9 tables", budget=2.0):
        nat3 = sf.enumerate_monoid(sf.nat(3), 30)
        assert nat3.counts() == [math.comb(n + 2, 2) for n in range(31)]
        assert len(nat3.elements) == 5456
        braid4 = sf.enumerate_monoid(sf.braid(4), 9)
        for table in (nat3, braid4):
            table.check_cancellation()
            table.check_associativity()


def test_criterion_15_coaction_frontier(tmp_path):
    # W has 1,581 x 41 columns; with entry-dict operators this took about 6 s
    config = {"command": "coaction", "presentation": {"builtin": "braid", "n": 3}, "map": "length"}
    path, out = tmp_path / "config.json", tmp_path / "report.json"
    path.write_text(json.dumps(dict(config, L_P=12, L_Q=40)))
    with criterion(15, "braid(3) Fell absorption at L_P=12, L_Q=40", budget=2.0):
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
    fell = json.loads(out.read_text())["checks"][0]
    assert fell == {
        "name": "fell-absorption",
        "status": "pass",
        "witness": {"L_P": 12, "L_Q": 40, "isometry": "exact", "intertwined_generators": ["s1", "s2"]},
    }


def test_criterion_16_fdapprox_frontier(tmp_path):
    # a table to length max|F| = 8 (1,704 elements) suffices; to max|F| + L = 16 this took about 6 s
    path, out = tmp_path / "config.json", tmp_path / "report.json"
    path.write_text(json.dumps(CRITERION_CONFIGS[11]))
    with criterion(16, "braid(4) fdapprox, |F| = 8, L = 8", budget=1.5):
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["status"] for c in report["checks"]] == ["pass"] * 3
    assert report["checks"][0]["witness"] == {"size": 1619}
    assert report["tables"]["dim_Y_F"] == 48 and len(report["tables"]["kernel_set"]) == 1619


CRITERION_CONFIGS = [
    {"command": "divisors", "presentation": {"builtin": "nat", "d": 2}, "L": 4},
    {"command": "divisors", "presentation": {"builtin": "free", "n": 2}, "L": 4},
    {"command": "enumerate", "presentation": {"builtin": "braid", "n": 3}, "L": 4},
    {"command": "fdapprox", "presentation": {"builtin": "nat", "d": 1}, "F": [2], "L": 5},
    {"command": "fdapprox", "presentation": {"builtin": "free", "n": 2}, "F": ["a.b"], "L": 4},
    {
        "command": "fdapprox",
        "presentation": {"builtin": "braid", "n": 3},
        "F": ["s1.s2.s1", 2],
        "L": 4,
    },
    {
        "command": "coaction",
        "presentation": {"builtin": "braid", "n": 3},
        "map": "length",
        "L_P": 3,
        "L_Q": 4,
        "F": [2],
    },
    {
        "command": "coaction",
        "presentation": {"builtin": "free", "n": 2},
        "map": "abelianization",
        "L_P": 3,
        "L_Q": 4,
    },
    {
        "command": "funcalg",
        "kernel": "hardy",
        "phi": [{"exponents": [0], "re": 1.0}, {"exponents": [1], "re": 1.0}],
        "D": 200,
    },
    {
        "command": "funcalg",
        "kernel": {"name": "drury_arveson", "d": 2},
        "phi": [
            {"exponents": [0, 0], "re": 1.0},
            {"exponents": [1, 0], "re": 1.0},
            {"exponents": [1, 1], "re": 1.0},
        ],
        "D": 8,
        "F": [2],
    },
    {
        "command": "funcalg",
        "kernel": {"name": "dirichlet", "d": 1},
        "phi": [{"exponents": [2], "re": 1.0}],
        "D": 8,
        "F": [4],
    },
    {
        "command": "fdapprox",
        "presentation": {"builtin": "braid", "n": 4},
        "F": ["s1.s2.s3.s1.s2.s1.s3.s2"],
        "L": 8,
    },
    {"command": "coaction", "presentation": {"builtin": "braid", "n": 4}, "map": "length", "L_P": 10, "L_Q": 80},
    {"command": "divisors", "presentation": {"builtin": "braid", "n": 4}, "L": 6},
]


def test_criterion_12_determinism():
    with criterion(12, "byte-identical reports"):
        parser_args = type(
            "Args", (), {"max_words": 10**6, "norm_tol": 1e-9, "timing": False}
        )()
        for config in CRITERION_CONFIGS:
            renders = []
            for _ in range(2):
                report, status = cli.execute(json.loads(json.dumps(config)), parser_args)
                assert status == 0
                renders.append((json.dumps(report, indent=2) + "\n").encode())
            assert renders[0] == renders[1]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("num", range(len(CRITERION_CONFIGS)))
def test_criterion_12_reports_match_goldens(num, tmp_path):
    # reports of CRITERION_CONFIGS saved before the union-find enumeration
    # (0-10), before fdapprox tables were cut to max(L, max|F|) (11), while
    # operators were composed by scipy.sparse (12) and while divisor sets
    # were element frozensets (13)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CRITERION_CONFIGS[num]))
    out = tmp_path / "report.json"
    assert cli.main(["--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / ("criterion_%02d.json" % num)).read_bytes()


def test_golden_reports_are_strict_json():
    # NaN, Infinity and -Infinity are Python's extensions of JSON; no report holds one
    def refuse(name):
        raise ValueError("not JSON: %s" % name)

    goldens = sorted(GOLDEN.glob("criterion_*.json"))
    assert len(goldens) == len(CRITERION_CONFIGS)
    for path in goldens:
        assert json.loads(path.read_text(), parse_constant=refuse)["checks"]


def test_criterion_17_drury_arveson_norm_at_scale():
    # 20,301 dims, Gram half-bandwidth 400, 102 once ordered: a dense eigensolve
    # is out of reach, and the banded Cholesky shift search certifies the norm
    # at the default tol
    phi = sf.Polynomial(2, {(0, 0): 1.0, (1, 0): 1.0, (1, 1): 1.0})
    with criterion(17, "Drury-Arveson d=2 norm at 20,301 dims", budget=5.0):
        val = sf.multiplier_norm_lower(sf.drury_arveson(2), phi, 200)
    # compressions only grow with D, and ||M_phi|| <= 1 + ||M_z1|| + ||M_z1z2|| = 3
    assert sf.multiplier_norm_lower(sf.drury_arveson(2), phi, 60) <= val <= 3.0


def test_criterion_18_coaction_frontier(tmp_path):
    # braid(4) length map: W has 7,588 x 81 = 614,628 entries, and the
    # intertwining checks compose operators with up to 1,464,640 rows
    path, out = tmp_path / "config.json", tmp_path / "report.json"
    path.write_text(json.dumps(CRITERION_CONFIGS[12]))
    with criterion(18, "braid(4) coaction at L_P = 10, L_Q = 80", budget=5.0):
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("fell-absorption", "pass"),
        ("character-reconstruction", "pass"),
    ]
