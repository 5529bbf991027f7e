#!/usr/bin/env python3
"""Lineage-completeness check for the obs-smoke lane.

Reads the artifacts of a seeded-fault batch run with full observability
armed (results + flight-recorder dump + tracestat -by-trace rollup +
the stderr summary) and asserts the PR 9 contract:

  1. every submitted job produced a result line carrying a well-formed
     32-hex trace_id, and no two jobs share a trace;
  2. the flight recorder produced at least one dump block, every dump
     line parses, and at least one flight event ties back to a known
     job's trace (the dump is not an orphaned ring);
  3. the chaos seed actually degraded jobs, and every degraded job's
     trace appears as a row in the -by-trace rollup — i.e. its full
     attempt lineage is reconstructable from the trace + dump pair;
  4. the summary records the SLO objectives with good+bad == jobs.

Usage: obs_lineage_check.py JOBS RESULTS FLIGHT BYTRACE SUMMARY
"""

import json
import re
import sys

TRACE_RE = re.compile(r"^[0-9a-f]{32}$")


def ndjson(path):
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{n}: not JSON ({e}): {line[:120]}")


def main(jobs_path, results_path, flight_path, bytrace_path, summary_path):
    job_ids = {rec["id"] for rec in ndjson(jobs_path)}

    # 1. Every job -> exactly one result with a unique, well-formed trace.
    trace_by_job, degraded = {}, set()
    for rec in ndjson(results_path):
        tid = rec.get("trace_id", "")
        if not TRACE_RE.match(tid):
            sys.exit(f"job {rec.get('id')}: malformed trace_id {tid!r}")
        trace_by_job[rec["id"]] = tid
        if rec.get("degraded"):
            degraded.add(rec["id"])
    if missing := job_ids - trace_by_job.keys():
        sys.exit(f"jobs with no traced result: {sorted(missing)[:5]}...")
    if len(set(trace_by_job.values())) != len(trace_by_job):
        sys.exit("distinct jobs share a trace_id")

    # 2. The dump exists, parses, and links back to the run.
    headers, linked = 0, 0
    for rec in ndjson(flight_path):
        if rec.get("record") == "flight_dump":
            headers += 1
        elif rec.get("record") == "flight":
            if rec.get("trace_id") in set(trace_by_job.values()):
                linked += 1
        else:
            sys.exit(f"unexpected record in flight dump: {rec}")
    if headers == 0:
        sys.exit("flight dump has no flight_dump header")
    if linked == 0:
        sys.exit("no flight event carries a trace from this run")

    # 3. Degraded lineage is reconstructable from the rollup.
    if not degraded:
        sys.exit("chaos seed degraded no jobs: the lane is not exercising "
                 "the retry/degradation lineage path")
    rollup_traces = set()
    with open(bytrace_path) as f:
        for line in f:
            fields = line.split()
            if fields and TRACE_RE.match(fields[0]):
                rollup_traces.add(fields[0])
    if len(rollup_traces) != len(trace_by_job):
        sys.exit(f"rollup has {len(rollup_traces)} trace rows, "
                 f"want {len(trace_by_job)} (one per job)")
    for job in sorted(degraded):
        if trace_by_job[job] not in rollup_traces:
            sys.exit(f"degraded job {job}: trace {trace_by_job[job]} "
                     f"missing from the -by-trace rollup")

    # 4. SLO accounting in the summary covers every job. stderr mixes
    # the summary record with human-readable notes, so non-JSON lines
    # are expected here.
    summary = None
    with open(summary_path) as f:
        for line in f:
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(rec, dict) and rec.get("record") == "batch_summary":
                summary = rec
    if summary is None:
        sys.exit("no batch_summary record on stderr")
    if not summary.get("slo"):
        sys.exit(f"summary has no slo rows: {summary}")
    for row in summary["slo"]:
        if row["good"] + row["bad"] != len(job_ids):
            sys.exit(f"slo row {row} does not account for all "
                     f"{len(job_ids)} jobs")

    print(f"obs lineage ok: {len(job_ids)} jobs, {len(degraded)} degraded, "
          f"{headers} dump block(s), {linked} flight events linked, "
          f"slo rows {[r['name'] for r in summary['slo']]}")


if __name__ == "__main__":
    if len(sys.argv) != 6:
        sys.exit(__doc__)
    main(*sys.argv[1:])
