"""One workload in a fresh process; started by run.py, prints one JSON line.

``--mode setup`` only does the set-up in ``--work`` and reports when it
ended, so that the parent can time interpreter start, import and set-up.
``--mode run`` then runs the timed section on that directory in a fresh
process, so that its peak memory is the timed section's: at least twice and
for at least ``--seconds``; it checks every output and compares the sha256
digests of the output directory between runs. With ``--trace 1`` the run
child does its own set-up, traced, then an untraced, a traced and another
untraced run, which gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import seralign

    if not Path(seralign.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"seralign was imported from {seralign.__file__}, not from {SRC}")


class Ledger:
    """Operations attempted and failed, with the first few errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")

    def call(self, op):
        """Run the phase call of ``op``; returns (ok, record)."""
        self.attempted += 1
        try:
            return True, op.run()
        except Exception:  # a failing phase is recorded and the run goes on
            self.fail(op.label, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return False, None

    def check(self, op, record) -> None:
        try:
            op.check(record)
        except Exception as exc:  # any failed or crashing check marks the operation failed
            self.fail(op.label, f"check: {type(exc).__name__}: {exc}")


def run_ops(ops, ledger: Ledger) -> tuple[list[float], dict]:
    """Time each phase call of ``ops``, then check their outputs untimed."""
    done, times = [], []
    for op in ops:
        start = time.perf_counter()
        ok, record = ledger.call(op)
        times.append(time.perf_counter() - start)
        if ok:
            done.append((op, record))
    for op, record in done:
        ledger.check(op, record)
    return times, {op.label: record for op, record in done}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    _import_program()
    import numpy as np
    from seralign.corpus import load_corpus

    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.scale][args.workload]
    work = args.work.resolve()
    out_dir = work / "out"
    corpus_cfg = workload.config(args.seed, work / "input")
    cfg = workload.config(args.seed, out_dir, corpus_path=work / "input" / "corpus.jsonl")
    ledger = Ledger()
    tracer = Tracer() if args.trace else None

    if args.mode == "setup":
        run_ops(workloads.setup_ops(workload, cfg, corpus_cfg), ledger)
        print(json.dumps({"setup_end": time.monotonic(), "attempted": ledger.attempted,
                          "failed": ledger.failed, "errors": ledger.errors}))
        return 0
    if tracer is not None:
        with tracer.installed(), tracer.span("bench.setup"):
            run_ops(workloads.setup_ops(workload, cfg, corpus_cfg), ledger)
    elif not (work / "input" / "corpus.jsonl").exists():
        raise SystemExit(f"{work} holds no set-up; run --mode setup on it first")

    frames = sum(u.num_frames for u in load_corpus(cfg.corpus_path).utterances)
    ops = workloads.timed_ops(workload, cfg)
    op_times, digests, records = [], [], {}
    # every timed run starts from the output directory as set-up left it, so
    # that each run creates its files anew rather than overwriting the last run's
    setup_files = workloads.files(out_dir)

    def one_run(traced: bool) -> None:
        nonlocal records
        for path in workloads.files(out_dir) - setup_files:
            path.unlink()
        if traced:
            tracer.run_id = 1
            with tracer.installed(), tracer.span("bench.timed"):
                times, records = run_ops(ops, ledger)
        else:
            times, records = run_ops(ops, ledger)
        op_times.append(times)
        digests.append(workloads.digest(out_dir))

    if tracer is not None:
        # untraced runs on both sides of the traced one, so that warming up
        # is not counted as tracing overhead
        one_run(traced=False)
        one_run(traced=True)
        one_run(traced=False)
    else:
        while len(op_times) < 2 or sum(map(sum, op_times)) * (1 + 1 / len(op_times)) <= args.seconds:
            one_run(traced=False)

    # every run must write the same bytes; a mismatch is one failed operation
    ledger.attempted += 1
    if len(set(digests)) != 1:
        ledger.fail("determinism", f"out_dir digests differ between runs: {digests}")

    result = dict(
        attempted=ledger.attempted,
        failed=ledger.failed,
        errors=ledger.errors,
        run_s=[sum(times) for times in op_times],
        # each phase call at its fastest over the runs: a slow spell of the
        # machine during one run does not count against the program
        run_s_fastest_calls=sum(min(call) for call in zip(*op_times)),
        digest=digests[0],
        corpus_frames=frames,
        nominal_frames=frames * workloads.passes(workload),
        quality=workloads.quality(workload, records),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
        blas=_blas_build(np),
    )
    if tracer is not None:
        layers = tracer.metrics()
        untraced = sum(min(first, last) for first, last in zip(op_times[0], op_times[2]))
        layers["trace_overhead_ratio"] = result["run_s"][1] / untraced
        result["layers"] = layers
        if args.trace_file is not None:
            tracer.write(args.trace_file, {0: "setup", 1: "traced timed run"})
    print(json.dumps(result))
    return 0


def _blas_build(np) -> dict:
    """BLAS/LAPACK names and versions from ``numpy.show_config``."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        return {}
    return {kind: {key: deps[kind].get(key) for key in ("name", "version", "openblas configuration")}
            for kind in ("blas", "lapack") if kind in deps}


if __name__ == "__main__":
    sys.exit(main())
