"""Frontier harness: the semifd CLI end to end on the frontier configs, each run in a fresh interpreter.

    python frontier/run.py --out BENCH_<n>.json [--k 3] [--src LABEL=DIR ...] [ROW ...]
    python frontier/run.py --compare A.json:LABEL B.json:LABEL

A row is one CLI config with its options, or the import of ``semifd.cli`` alone. The ROWs named run, in the order of
``ROWS`` (default: every row). Each row runs k times, interleaved across rows and across the source trees named by
``--src`` (default: ``change`` = this checkout's ``src``), with the sides' order rotated each round. Every run is
``semifd.cli`` run as ``__main__`` with ``--timing``, in a new interpreter with BLAS and OpenMP pinned to one thread;
it records the wall time (imports included), the report's own ms, the child's peak RSS and the exit status. The output
JSON holds the host facts and every run.

``--compare`` prints, for each row both files hold, the median wall time, command ms and peak RSS of side LABEL of each
file with the spread (min-max) of each, and the ratio B / A of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# perfbench/run.py's THREAD_VARS, each pinned to one thread in every child
PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SRC = Path(__file__).resolve().parents[1] / "src"
# Each child writes its own peak RSS (VmHWM, kB) at exit. The ru_maxrss of a child from os.wait4 is no lower than
# the harness's own RSS when it forked, since Linux carries the high-water mark from before exec into it.
CHILD = """import atexit, runpy, sys
path = sys.argv.pop(1)
def hwm():
    with open("/proc/self/status") as fh, open(path, "w") as out:
        out.write(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
atexit.register(hwm)
if len(sys.argv) > 1:
    runpy.run_module("semifd.cli", run_name="__main__", alter_sys=True)
else:
    import semifd.cli
"""
DA2 = [{"exponents": [0, 0], "re": 1.0}, {"exponents": [1, 0], "re": 1.0}, {"exponents": [1, 1], "re": 1.0}]

# (name, config or None for the import alone, extra CLI options): the frontier table of ROADMAP.md, then the rows
# beyond it, which need a larger cap
BEYOND = ["--max-words", "100000000"]
ROWS = [
    ("import", None, []),
    ("enumerate-nat3-L80", {"command": "enumerate", "presentation": {"builtin": "nat", "d": 3}, "L": 80}, []),
    ("enumerate-braid4-L13", {"command": "enumerate", "presentation": {"builtin": "braid", "n": 4}, "L": 13}, []),
    ("divisors-braid4-L10", {"command": "divisors", "presentation": {"builtin": "braid", "n": 4}, "L": 10}, []),
    ("divisors-free2-L14", {"command": "divisors", "presentation": {"builtin": "free", "n": 2}, "L": 14}, []),
    ("divisors-nat3-L30", {"command": "divisors", "presentation": {"builtin": "nat", "d": 3}, "L": 30}, []),
    ("coaction-braid4-LP10-LQ80",
     {"command": "coaction", "presentation": {"builtin": "braid", "n": 4}, "map": "length", "L_P": 10, "L_Q": 80}, []),
    ("fdapprox-braid4-F8-L8",
     {"command": "fdapprox", "presentation": {"builtin": "braid", "n": 4}, "F": ["s1.s2.s3.s1.s2.s1.s3.s2"], "L": 8}, []),
    ("fdapprox-braid4-F12-L10", {"command": "fdapprox", "presentation": {"builtin": "braid", "n": 4},
                                 "F": ["s1.s2.s3.s1.s2.s1.s3.s2.s1.s3.s2.s3"], "L": 10}, []),
    ("funcalg-hardy-D20000", {"command": "funcalg", "kernel": "hardy", "D": 20000,
                              "phi": [{"exponents": [0], "re": 1.0}, {"exponents": [1], "re": 1.0}]}, []),
    ("funcalg-da2-D120", {"command": "funcalg", "kernel": {"name": "drury_arveson", "d": 2}, "phi": DA2, "D": 120}, []),
    ("funcalg-da2-D200-cap1e7", {"command": "funcalg", "kernel": {"name": "drury_arveson", "d": 2}, "phi": DA2, "D": 200},
     ["--max-words", "10000000"]),
    ("enumerate-braid4-L16-cap1e8", {"command": "enumerate", "presentation": {"builtin": "braid", "n": 4}, "L": 16},
     BEYOND),
    ("divisors-braid4-L12-cap1e8", {"command": "divisors", "presentation": {"builtin": "braid", "n": 4}, "L": 12},
     BEYOND),
    ("coaction-braid4-LP12-LQ80-cap1e8",
     {"command": "coaction", "presentation": {"builtin": "braid", "n": 4}, "map": "length", "L_P": 12, "L_Q": 80},
     BEYOND),
]


def run_one(src: Path, config, args, tmp: Path) -> dict:
    """One run in a fresh interpreter: wall s, the report's ms (None without a report), peak RSS MB (None if the child
    was killed before it could write it), exit status."""
    report, hwm = tmp / "report.json", tmp / "hwm"
    report.unlink(missing_ok=True)
    hwm.unlink(missing_ok=True)
    argv = [sys.executable, "-c", CHILD, str(hwm)]
    if config is not None:
        (tmp / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp / "config.json"), "--out", str(report), "--timing", *args]
    env = {**os.environ, **PINS, "PYTHONPATH": str(src)}
    t0 = time.perf_counter()
    status = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - t0
    ms = json.loads(report.read_text())["ms"] if report.exists() else None
    return {"wall_s": wall, "cmd_ms": ms, "peak_rss_mb": int(hwm.read_text()) / 1024 if hwm.exists() else None,
            "status": status}


def host_facts() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "pins": PINS,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def measure(rows, sides: dict, k: int) -> dict:
    """k interleaved rounds over rows x sides ({label: src dir}), the sides' order rotated each round."""
    labels = list(sides)
    out = {"host": host_facts(), "k": k, "sides": labels,
           "rows": [{"name": n, "config": c, "args": a, "runs": {s: [] for s in labels}} for n, c, a in rows]}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(k):
            for row, (_, config, args) in zip(out["rows"], rows):
                for side in labels[r % len(labels):] + labels[: r % len(labels)]:
                    row["runs"][side].append(run_one(Path(sides[side]), config, args, Path(tmp)))
    return out


def compare(a: str, b: str) -> list[str]:
    """Per-row medians and spreads of the two sides, and the ratio B / A of the medians."""
    (pa, la), (pb, lb) = a.rsplit(":", 1), b.rsplit(":", 1)
    rows_b = {row["name"]: row for row in json.loads(Path(pb).read_text())["rows"]}
    lines = ["%-28s %-12s %24s %24s %7s" % ("row", "metric", "A median (min-max)", "B median (min-max)", "B/A")]
    for row in json.loads(Path(pa).read_text())["rows"]:
        if row["name"] not in rows_b:
            continue
        runs_a, runs_b = row["runs"][la], rows_b[row["name"]]["runs"][lb]
        for metric in ("wall_s", "cmd_ms", "peak_rss_mb"):
            xa = [x[metric] for x in runs_a if x[metric] is not None]
            xb = [x[metric] for x in runs_b if x[metric] is not None]
            if not xa or not xb:  # no report: the import row, or a run that failed
                continue
            cells = ["%.4g (%.4g-%.4g)" % (statistics.median(x), min(x), max(x)) for x in (xa, xb)]
            ratio = statistics.median(xb) / statistics.median(xa)
            lines.append("%-28s %-12s %24s %24s %7.3f" % (row["name"], metric, *cells, ratio))
        statuses = sorted({x["status"] for x in runs_a}), sorted({x["status"] for x in runs_b})
        lines.append("%-28s %-12s %24s %24s" % (row["name"], "status", *map(str, statuses)))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--k", type=int, default=3, help="runs per row and side")
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=DIR", help="a source tree to run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="FILE:LABEL twice; print per-row ratios")
    parser.add_argument("rows", nargs="*", metavar="ROW", help="the rows to run, by name (default: all)")
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    if not args.out or args.k < 1:
        parser.error("--out and a positive --k are needed to run")
    if unknown := set(args.rows) - {name for name, _, _ in ROWS}:
        parser.error("no such row: %s" % ", ".join(sorted(unknown)))
    rows = [row for row in ROWS if row[0] in args.rows] if args.rows else ROWS
    sides = dict(s.split("=", 1) for s in args.src) or {"change": str(SRC)}
    Path(args.out).write_text(json.dumps(measure(rows, sides, args.k), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
