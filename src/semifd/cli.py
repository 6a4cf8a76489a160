"""Batch front end: read a JSON config, run one computation family with its
attached invariant checks, and emit a deterministic JSON report.

Exit status, set in main alone by the error's type: 0 all checks pass, 1 a check
raised InvariantError, 2 InputError (a config error), 3 ResourceLimitError.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import sys
import time

from .enumeration import abelianization, enumerate_monoid, length_map
from .errors import InputError, InvariantError, ResourceLimitError
from .presentations import MonoidPresentation, builtin, free, parse_presentation, presentation_from_doc


def _load_numeric():
    """Import the numeric layers, and numpy with them; the table commands never call this. operator_norm is bound
    here only if unbound, so a patch or a tracer's wrapper set on this module stays, and as linrep defines it: a
    tracer that wrapped linrep's first is unwrapped, so that it wraps this name with the same wrapper."""
    global coact, fdapprox, funcalg, linrep
    from . import coaction as coact, fdapprox, funcalg, linrep
    norm = linrep.operator_norm
    return globals().setdefault("operator_norm", getattr(norm, "__wrapped__", norm))


def __getattr__(name):  # PEP 562: cli.operator_norm resolves before any numeric command has run
    if name == "operator_norm":
        return _load_numeric()
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _builtin(kind, params: dict, max_words: int) -> MonoidPresentation:
    """builtin(kind, **params), refused before it is built when its generators plus
    relation letters exceed max_words: free(n) has n generators, nat(d) d and C(d, 2)
    commutations of 4 letters, braid(n) n - 1, n - 2 braid relations of 6 letters and
    C(n - 2, 2) commutations of 4. Other sizes are small, or refused by builtin."""
    n, words = params.get("d" if kind == "nat" else "n"), 0
    if _is_count(n) and n >= 2:
        if kind == "free":
            words = n
        elif kind == "nat":
            words = n + 4 * math.comb(n, 2)
        elif kind == "braid":
            words = n - 1 + 6 * (n - 2) + 4 * math.comb(n - 2, 2)
    if words > max_words:
        raise ResourceLimitError("presentation %s(%s) of %d words exceeds cap %d" % (kind, n, words, max_words))
    return builtin(kind, **params)


def _load_presentation(cfg, max_words: int) -> MonoidPresentation:
    if not isinstance(cfg, dict):
        raise InputError('"presentation" must be an object')
    if "builtin" in cfg:
        params = {k: v for k, v in cfg.items() if k != "builtin"}
        try:
            return _builtin(cfg["builtin"], params, max_words)
        except (KeyError, TypeError, ValueError) as exc:  # a missing, mistyped or misshapen parameter
            raise InputError("bad builtin presentation: %s" % exc)
    if "path" in cfg:
        if not isinstance(cfg["path"], str):  # open() takes an int as a file descriptor
            raise InputError('"path" must be a string')
        try:
            with open(cfg["path"], "r", encoding="utf-8") as fh:
                return parse_presentation(fh.read())
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or bytes that are not UTF-8
            raise InputError("cannot load presentation: %s" % exc)
    if "generators" in cfg:
        return presentation_from_doc(cfg)
    raise InputError('"presentation" needs "builtin", "path" or inline "generators"')


def _is_count(value) -> bool:
    """A nonnegative JSON integer (booleans and floats are not)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_number(value) -> bool:
    """A finite JSON number (booleans, NaN and ints beyond float range are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _digits(x, rounding: str) -> float:
    """A computed float as a report records it: 12 significant digits, so reports reproduce byte for byte. A lower
    bound is rounded toward zero (decimal.ROUND_DOWN), so that it stays one; other floats to nearest."""
    return float(decimal.Context(12, rounding=rounding).create_decimal_from_float(x))


def _count(cfg, key: str, default: int) -> int:
    """A nonnegative integer field of the config."""
    value = cfg.get(key, default)
    if not _is_count(value):
        raise InputError('"%s" must be a nonnegative integer, got %r' % (key, value))
    return value


def _F_words(pres: MonoidPresentation, raw, max_words: int) -> list:
    """The words of a list F: "."-separated generator names, or n for g_0^n. The table
    holding g_0^n would refuse n * ngen > max_words, so such an n is refused before its word."""
    if not isinstance(raw, list):
        raise InputError('"F" must be a list')
    out = []
    for item in raw:
        if _is_count(item):
            if item * len(pres.generators) > max_words:
                raise ResourceLimitError("F entry %d exceeds cap %d" % (item, max_words))
            out.append((0,) * item)
        elif isinstance(item, str):
            out.append(pres.parse_word(item))
        else:
            raise InputError("F entries must be words or nonnegative integers")
    return out


def _load_kernel(cfg) -> funcalg.KernelSpec:
    if isinstance(cfg, str):
        cfg = {"name": cfg}
    if not isinstance(cfg, dict) or "name" not in cfg:
        raise InputError('"kernel" must be a name or an object with "name"')
    d = _count(cfg, "d", 1)  # 0 is refused by KernelSpec
    if cfg["name"] != "custom":
        return funcalg.KernelSpec(d, cfg["name"])
    if not isinstance(cfg.get("coefficients"), list) or not all(map(_is_number, cfg["coefficients"])):
        raise InputError('custom kernel "coefficients" must be a list of finite numbers')
    return funcalg.KernelSpec(d, "custom", tuple(map(float, cfg["coefficients"])))


def _load_polynomial(cfg, d: int) -> funcalg.Polynomial:
    if not isinstance(cfg, list) or not all(
        isinstance(t, dict) and _is_number(t.get("re", 0.0)) and _is_number(t.get("im", 0.0)) for t in cfg
    ):
        raise InputError('"phi" must be a list of {"exponents", "re", "im"} terms, re and im finite numbers')
    try:
        return funcalg.Polynomial.parse_terms(d, cfg)
    except (KeyError, TypeError) as exc:  # a missing or non-list "exponents"
        raise InputError("bad polynomial: %s" % exc)


class CheckRunner:
    def __init__(self):
        self.checks = []

    def run(self, name: str, fn):
        """Record fn's witness, or the InvariantError it raises as a failed check; any other error propagates."""
        try:
            self.checks.append({"name": name, "status": "pass", "witness": fn()})
        except InvariantError as exc:
            self.checks.append({"name": name, "status": "fail", "witness": str(exc)})


# -- command implementations ---------------------------------------------------


def _cmd_enumerate(cfg, max_words):
    pres = _load_presentation(cfg.get("presentation"), max_words)
    L = _count(cfg, "L", 8)
    table = enumerate_monoid(pres, L, max_words=max_words)
    runner = CheckRunner()
    runner.run("cancellation", lambda: table.check_cancellation() or "exact")
    runner.run("associativity", lambda: table.check_associativity() or "exact")
    return runner, {"counts": table.counts()}


def _cmd_divisors(cfg, max_words):
    pres = _load_presentation(cfg.get("presentation"), max_words)
    L = _count(cfg, "L", 4)
    table = enumerate_monoid(pres, L, max_words=max_words)
    runner = CheckRunner()
    R, ball = table.divisor_sets(L), table.elements_up_to(L)  # R_p as index sets, read once
    sizes, missing = [[table.str_of(p), len(R[p.index]), 0] for p in ball], []  # |L_p| is counted off the walk
    for qr in (table.left_products(q, L - q.length) for q in ball):  # the walk from q lists q.r by index r
        missing += [(p, r) for r, p in enumerate(qr) if r not in R[p]]  # factorizations p = q.r with r outside R_p
        for p in set(qr):  # q is in L_p
            sizes[p][2] += 1

    def bijection():
        for word, r, l in sizes:
            if r != l:
                raise InvariantError("|R_p| != |L_p| at p=%s" % word)
        return "all equal"

    def nesting():
        # R_p is filled from left predecessors' sets: with r in R_p for every p = q.r, R_p is nested
        if missing:
            p, r = min(missing)  # the least p with its least missing r, unless an r of R_p has R_r outside
            r = min((x for x in R[p] if not R[x] <= R[p]), default=r)
            raise InvariantError("R_r not inside R_p for r=%s, p=%s" % (sizes[r][0], sizes[p][0]))  # words by index
        return "nested"

    runner.run("divisor-bijection", bijection)
    runner.run("divisor-nesting", nesting)
    return runner, {"sizes": sizes}


def _cmd_fdapprox(cfg, max_words, norm_tol):
    _load_numeric()
    pres = _load_presentation(cfg.get("presentation"), max_words)
    L = _count(cfg, "L", 5)
    if not isinstance(cfg.get("F"), list) or not cfg["F"]:
        raise InputError('"F" must be a nonempty list')
    words = _F_words(pres, cfg["F"], max_words)
    # compressions form s*r only with |s| + |r| <= max|F|; the checks run over the L-ball
    table = enumerate_monoid(pres, max(L, *map(len, words)), max_words=max_words)
    F = [table.element_from_word(w) for w in words]
    runner = CheckRunner()
    sub, ball = fdapprox.build_Y(table, F), table.elements_up_to(L)
    rows = [sub.rows(s) for s in ball]  # the compressions' row arrays, shared by both checks
    state = {}

    def kernel():
        ks = fdapprox.kernel_set(sub, L, rows)
        state["kernel"] = sorted(table.str_of(s) for s in ks)
        return {"size": len(ks)}

    def contractivity():
        for s, row in zip(ball, rows):  # as a rule 0/1 partial maps (s*r = s*r' forces r = r')
            image = [r for r in row if r >= 0]
            nrm = 1.0 if len(set(image)) == len(image) else operator_norm(sub.compress(s), tol=norm_tol)
            if not nrm <= 1 + 1e-12:  # NaN fails
                raise InvariantError("compression norm %r > 1 at s=%s" % (nrm, table.str_of(s)))
        return "all <= 1"

    runner.run("kernel-formula", kernel)
    runner.run("contractivity", contractivity)
    runner.run("coinvariance", lambda: sub.check_coinvariance() or "exact")
    return runner, {"dim_Y_F": sub.dim, "kernel_set": state.get("kernel", [])}


def _cmd_coaction(cfg, max_words):
    _load_numeric()
    pres = _load_presentation(cfg.get("presentation"), max_words)
    L_P = _count(cfg, "L_P", 3)
    L_Q = _count(cfg, "L_Q", 4)
    map_kind = cfg.get("map", "length")
    if map_kind not in ("length", "abelianization"):
        raise InputError('"map" must be "length" or "abelianization"')
    target_pres = free(1) if map_kind == "length" else _builtin("nat", {"d": len(pres.generators)}, max_words)
    words = _F_words(target_pres, cfg.get("F", []), max_words)
    src_bound = max(L_P + 1, *map(len, words), 2)
    source = enumerate_monoid(pres, src_bound, max_words=max_words)
    target = enumerate_monoid(target_pres, src_bound + L_Q + 1, max_words=max_words)
    phi = (length_map if map_kind == "length" else abelianization)(source, target)
    runner = CheckRunner()
    tables = {}

    def reconstruction():
        elems = source.elements_up_to(2)
        a = coact.AlgebraElement(source, {p: 1.0 + p.index for p in elems})
        coact.character_reconstruction(phi, a)
        return {"support": len(elems), "character": _digits(coact.apply_character(a).real, decimal.ROUND_HALF_EVEN)}

    runner.run("fell-absorption", lambda: coact.fell_intertwiner(phi, L_P, L_Q)[1])  # (W, report)
    runner.run("character-reconstruction", reconstruction)
    if words:
        F = [target.element_from_word(w) for w in words]

        def spanning():
            span, count = coact.qf_spanning_set(phi, F)
            tables["qf_spanning_cardinality"] = count
            return {"cardinality": count}

        runner.run("qf-spanning-set", spanning)
    return runner, tables


def _cmd_funcalg(cfg, max_words, norm_tol):
    _load_numeric()
    kernel = _load_kernel(cfg.get("kernel", "hardy"))
    phi = _load_polynomial(cfg.get("phi", []), kernel.d)
    D = _count(cfg, "D", 8)
    F = cfg.get("F", [])
    if not isinstance(F, list) or not all(map(_is_count, F)):
        raise InputError('"F" must be a list of nonnegative integers')
    if kernel.name == "custom" and len(kernel.explicit) <= D:
        raise InputError("custom kernel lists c_0..c_%d, D = %d needs c_D" % (len(kernel.explicit) - 1, D))
    if math.comb(D + kernel.d, kernel.d) > max_words:  # before any basis is built
        raise ResourceLimitError("Fock basis of degree <= %d exceeds cap %d" % (D, max_words))
    runner = CheckRunner()
    tables = {}
    top = funcalg.fock_basis(kernel, D)  # ordered by degree: each lower degree's compression is a leading block of M
    M = funcalg.multiplication(kernel, phi, top, top)

    def norm_ladder():
        ladder = sorted({D // 4 or D, D // 2 or D, D})  # no rung above D
        blocks = (M.leading_block(math.comb(dd + kernel.d, kernel.d)) for dd in ladder)  # compressions to degree <= dd
        values = [operator_norm(A, norm_tol, max_words) for A in blocks]
        for lo, hi in zip(values, values[1:]):
            if not lo <= hi + 1e-10:  # NaN fails
                raise InvariantError("compression norms decreased along %r" % (ladder,))
        tables["norm_lower_bounds"] = rungs = [[dd, _digits(v, decimal.ROUND_DOWN)] for dd, v in zip(ladder, values)]
        return {"D": D, "norm_lower": rungs[-1][1]}

    def grading():
        components, qdim = funcalg.n_coaction(phi, F)
        total = funcalg.Polynomial(phi.d, {})
        for _, part in components:
            total = total + part
        if total != phi:
            raise InvariantError("homogeneous components do not sum back")
        tables["homogeneous_degrees"] = [n for n, _ in components]
        if F:
            tables["quotient_dimension"] = qdim
        return "reconstructed"

    runner.run("norm-monotone", norm_ladder)
    low = M.leading_block(math.comb(min(D, 8) + kernel.d, kernel.d))  # the compression to degree <= min(D, 8)
    runner.run("circle-covariance", lambda: funcalg.circle_covariance(kernel, phi, low))
    runner.run("grading-reconstruction", grading)
    return runner, tables


_COMMANDS = {
    "enumerate": lambda cfg, a: _cmd_enumerate(cfg, a.max_words),
    "divisors": lambda cfg, a: _cmd_divisors(cfg, a.max_words),
    "fdapprox": lambda cfg, a: _cmd_fdapprox(cfg, a.max_words, a.norm_tol),
    "coaction": lambda cfg, a: _cmd_coaction(cfg, a.max_words),
    "funcalg": lambda cfg, a: _cmd_funcalg(cfg, a.max_words, a.norm_tol),
}


def execute(config: dict, args) -> tuple[dict, int]:
    command = config.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:  # a list or dict is unhashable
        raise InputError('"command" must be one of %s' % sorted(_COMMANDS))
    t0 = time.monotonic()
    runner, tables = _COMMANDS[command](config, args)
    ms = _digits((time.monotonic() - t0) * 1000.0, decimal.ROUND_HALF_EVEN) if args.timing else 0.0
    report = {"config": config, "checks": runner.checks, "tables": tables, "ms": ms}  # the config as it was read
    return report, int(any(c["status"] == "fail" for c in runner.checks))


def _finite(text: str) -> float:
    """A config number with a fraction or exponent. NaN, Infinity and -Infinity, which json reads but JSON does not
    have, and numbers beyond float range, which json reads as infinite, are config errors."""
    if not math.isfinite(value := float(text)):
        raise InputError("config number %s is not a finite float" % text)
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built on the first main call and reused: parse_args returns a fresh
    namespace each time, so no option carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="semifd",
        description="finite-dimensional matrix models of semigroup operator algebras",
    )
    parser.add_argument("--config", required=True, help="path to JSON config, or - for stdin")
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument(
        "--max-words", type=int, default=10**6, dest="max_words",
        help="cap on monoid table entries, builtin presentation size and Fock-basis dimension",
    )
    parser.add_argument("--norm-tol", type=float, default=1e-9, dest="norm_tol")
    parser.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock ms in the report (breaks byte-reproducibility)",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if not args.norm_tol > 0:  # NaN fails; inf asks nothing of the bracket
            raise InputError("--norm-tol must be a positive number, got %r" % args.norm_tol)
        if args.config == "-":
            config = json.load(sys.stdin, parse_float=_finite, parse_constant=_finite)
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh, parse_float=_finite, parse_constant=_finite)
        if not isinstance(config, dict):
            raise InputError("config must be a JSON object")
        report, status = execute(config, args)
        text = json.dumps(report, indent=2) + "\n"
        if args.out:  # an unwritable path is a config error too
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return status
    except (InputError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
