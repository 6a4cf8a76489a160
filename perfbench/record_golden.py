"""Record golden digests of the exact report fields for the default seed.

Run from the root of a checkout, after a change to workloads.py:

    python3 perfbench/record_golden.py [workload ...]

For each job of the first rounds of the seed-0 stream it stores the digest of
the config and, if the job is certified, the digest of the report's exact
fields and its float fields (see checks.golden_of). A job that is not certified gets no golden,
so a later fix of a known defect does not read as a mismatch.
"""

import json
import os
import shutil
import sys

import run  # sets the thread pins and the import paths first

import checks
import workloads

ROUNDS = {"monoids": 14, "multipliers": 10}


def record(cli, workload: str, work: str) -> list:
    cfg_path = os.path.join(work, "config.json")
    out_path = os.path.join(work, "report.json")
    jobs = []
    batches = workloads.stream(workload, run.GOLDEN_SEED)
    for _ in range(ROUNDS[workload]):
        for cfg, meta in next(batches):
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            status, _, report = run.run_job(cli, cfg_path, out_path)
            problems = checks.check_job(cfg, meta, status, report)
            if any(fatal for _, fatal in problems):
                raise SystemExit("%s job %d: %s" % (workload, len(jobs), problems))
            golden = None if problems else checks.golden_of(report)
            jobs.append([checks.digest(cfg), golden])
    return jobs


def main(names) -> int:
    sys.path.insert(0, run.SRC)
    from semifd import cli

    work = os.path.join(run.OUT, "golden-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        jobs = record(cli, workload, work)
        path = os.path.join(run.HERE, "golden", workload + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            rows = ",\n".join(json.dumps(job) for job in jobs)
            fh.write('{"seed": %d, "jobs": [\n%s\n]}\n' % (run.GOLDEN_SEED, rows))
        print("%s: %d jobs, %d with golden" % (workload, len(jobs), sum(1 for j in jobs if j[1])))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
