"""Spans at the package's module boundaries, recorded from outside the package.

``Tracer.install`` replaces the public functions listed in ``BOUNDARIES`` with
wrappers, in every namespace that calls them, and ``uninstall`` puts the
originals back. Each call records a span ``[name, start, end, parent, job]``
in memory. Hot leaves (``EnumerationTable.multiply``, ``element``) are left
alone: a wrapper there would cost more than the work it measures.

A boundary or counter that no longer exists is listed in ``missing``; it
never fails the run, its metrics just read 0.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

_SPARSE = "semifd.linrep:SparseOperator."

# span name -> "module:attribute" targets (a class method is "module:Class.method")
BOUNDARIES = {
    "enumeration.enumerate_monoid": ["semifd.cli:enumerate_monoid"],
    "enumeration.divisors": [
        "semifd.enumeration:EnumerationTable.right_divisors",
        "semifd.enumeration:EnumerationTable.left_divisors",
    ],
    "enumeration.witnesses": [
        "semifd.enumeration:EnumerationTable.check_cancellation",
        "semifd.enumeration:EnumerationTable.check_associativity",
    ],
    "enumeration.fiber": ["semifd.enumeration:ControlledMap.fiber"],
    "linrep.sparse_algebra": [
        _SPARSE + m for m in ("__matmul__", "__add__", "adjoint", "tensor", "__eq__", "embed_codomain")
    ],
    "linrep.lambda_op": ["semifd.linrep:lambda_op", "semifd.coaction:lambda_op"],
    "linrep.operator_norm": [
        "semifd.linrep:operator_norm",
        "semifd.cli:operator_norm",
        "semifd.funcalg:operator_norm",
    ],
    "fdapprox.build_Y": ["semifd.fdapprox:build_Y"],
    "fdapprox.kernel_set": ["semifd.fdapprox:kernel_set"],
    "fdapprox.compress": ["semifd.fdapprox:DivisorSubspace.compress"],
    "fdapprox.check_coinvariance": ["semifd.fdapprox:DivisorSubspace.check_coinvariance"],
    "coaction.fell_intertwiner_at": ["semifd.coaction:fell_intertwiner_at"],
    "coaction.fell_intertwiner": ["semifd.coaction:fell_intertwiner"],
    "coaction.qf_spanning_set": ["semifd.coaction:qf_spanning_set"],
    "funcalg.fock_basis": ["semifd.funcalg:fock_basis"],
    "funcalg.mult_operator": ["semifd.funcalg:mult_operator"],
    "funcalg.multiplier_norm_lower": ["semifd.funcalg:multiplier_norm_lower"],
    "funcalg.circle_action_matrix": ["semifd.funcalg:circle_action_matrix"],
}

ROOT = "cli"  # the span the benchmark opens around each cli.main call
LAYERS = ("enumeration", "linrep", "fdapprox", "coaction", "funcalg")
CALL_COUNTS = (
    "enumeration.enumerate_monoid",
    "linrep.sparse_algebra",
    "linrep.operator_norm",
    "funcalg.fock_basis",
)


def _elements(tracer, args, result):
    tracer.counters["enumeration.elements"] += len(result.elements)


def _norm_dim(tracer, args, result):
    A = args[0]
    dim = max(A.codomain.dim, A.domain.dim)
    tracer.counters["linrep.operator_norm.max_dim"] = max(tracer.counters["linrep.operator_norm.max_dim"], dim)


def _w_nnz(tracer, args, result):
    tracer.counters["coaction.W_nnz"] += len(result[0].entries)


# span name -> (counter name, hook reading it from the call's arguments and result)
HOOKS = {
    "enumeration.enumerate_monoid": ("enumeration.elements", _elements),
    "linrep.operator_norm": ("linrep.operator_norm.max_dim", _norm_dim),
    "coaction.fell_intertwiner": ("coaction.W_nnz", _w_nnz),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    # -- recording -------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        counter, hook = HOOKS.get(name, (None, None))
        call = self.call

        def wrapper(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, IndexError):
                    if counter not in self.missing:
                        self.missing.append(counter)
            return result

        wrapper.__wrapped__ = fn
        self._wrappers[id(fn)] = wrapper
        return wrapper

    # -- patching ----------------------------------------------------------------

    def install(self):
        for name, targets in BOUNDARIES.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    if target not in self.missing:
                        self.missing.append(target)
                    continue
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per span name, plus root (job) time.

        Self time is a span's duration minus the durations of its children;
        calls on one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        job_s = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            if parent < 0:
                job_s += end - start
        return {"self_s": dict(self_s), "calls": dict(calls), "job_s": job_s}

    def nested_calls(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made (at any depth) inside a span ``ancestor``."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count
