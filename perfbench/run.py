"""seralign benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload cv_desk --seed 1 --seconds 20 --trace 0

Run it from the repository root. Each workload runs as a fresh
single-process child (``child.py``) with BLAS pinned to one thread in its
environment. The workloads and why each was chosen are in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json:

- ``run_s``: wall time of the timed section, each phase call taken at its
  fastest over the runs in the child (at least two; more while they fit in
  ``--seconds``). The runs do identical work, so the per-call minimum drops
  only slow spells of the shared machine.
- ``frames_per_s``: nominal frames (corpus frames x the passes the workload
  config fixes, see ``workloads.passes``) divided by ``run_s``.
- ``setup_s``: interpreter start, import, corpus generation and untimed
  prerequisite phases, timed by this process from spawning a set-up child to
  the end of its set-up; the median over several set-up children (see
  ``MIN_SETUPS``). The first leaves its set-up for the workload child.

The report line before the result also gives, with units, ``peak_rss_mb``
(``ru_maxrss`` of the workload child, which runs only the timed section and
its checks) and, on workloads that fine-tune, test ``ua_mean``/``wa_mean``.
They are not gated: peak memory moves by up to a seventh between seeds on
``cluster_sweep``, more than a third of the largest bound allowed, and
UA/WA are checked for exact repeats by the out_dir digest instead.

``--trace 1`` reports the per-layer metrics of ``tracing.py`` over the
set-up and one timed run, both traced in the workload child; untraced runs
before and after give ``trace_overhead_ratio``, traced over untraced time.

Before the last line, one JSON line holds what is not a gated metric: the
above, ``failed_ratio``, the out_dir digest, the environment and the
percentiles.
The last line is ``{"correct", "attempted", "failed", "metrics"}``. Both are
also written to ``.perfbench_out/``, with the spans of a traced run as
``trace-<workload>.jsonl``. The process exits non-zero, printing no result,
when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# set-up is timed in at least MIN_SETUPS set-up children, and in more while
# those after the first took under SETUP_PROBE_S in all
MIN_SETUPS, MAX_SETUPS, SETUP_PROBE_S = 3, 15, 3.0
CHILD_TIMEOUT_S = 170
BLAS_PIN = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SERALIGN_THREADS",
)}


class BenchError(Exception):
    """The benchmark could not run the program."""


def spawn(args, mode: str, work: Path, trace_file: Path | None = None) -> tuple[float, dict]:
    """Run one child; returns (monotonic spawn time, its JSON report)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
           "--mode", mode, "--work", str(work)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    env = {**os.environ, **BLAS_PIN}
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(args, child: dict, declared: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "blas": child["blas"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
        "seed": args.seed,
        "scale": args.scale,
        "corpus_frames": child["corpus_frames"],
        "nominal_frames": child["nominal_frames"],
        "why": {w["name"]: w["why"] for w in declared["workloads"]},
    }


def percentiles(values) -> dict:
    """Median, plus the highest percentile with at least 10 values beyond it."""
    value, pct = tail(values)
    return {"n": len(values), "median": statistics.median(values), "tail": {"pct": pct, "value": value},
            "values": values}


def set_up(args, work: Path) -> tuple[list[float], list[dict]]:
    """Set-up children: the first leaves its set-up in ``work``, the rest only time theirs."""
    setups, reports, probing = [], [], 0.0
    while len(setups) < MIN_SETUPS or (len(setups) < MAX_SETUPS and probing < SETUP_PROBE_S):
        target = work if not setups else work.with_name(work.name + "-probe")
        shutil.rmtree(target, ignore_errors=True)
        try:
            spawned, report = spawn(args, "setup", target)
        finally:
            if setups:
                shutil.rmtree(target, ignore_errors=True)
        if setups:
            probing += time.monotonic() - spawned
        setups.append(report["setup_end"] - spawned)
        reports.append(report)
    return setups, reports


def measure(args, declared: dict) -> tuple[dict, dict]:
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    work = OUT / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    trace_file = OUT / f"trace-{args.workload}.jsonl" if args.trace else None
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups, reports = set_up(args, work) if not args.trace else ([], [])
        _, child = spawn(args, "run", work, trace_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reports.append(child)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    errors = [e for r in reports for e in r["errors"]]
    if args.trace:
        values = child["layers"]
    else:
        run_s = child["run_s_fastest_calls"]
        values = {
            "run_s": run_s,
            "frames_per_s": child["nominal_frames"] / run_s,
            "setup_s": statistics.median(setups),
        }
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from the {kind} set in BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "failed_ratio": failed / attempted,
        "errors": errors,
        "run_s": percentiles(child["run_s"]),
        "setup_s": percentiles(setups) if not args.trace else None,
        "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        "quality": {name: {"value": value, "unit": "ratio"} for name, value in child["quality"].items()},
        "out_dir_sha256": child["digest"],
        "environment": environment(args, child, declared),
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload in seconds, to test the benchmark itself")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "seralign").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, report = measure(args, declared)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"result": result, "report": report}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
