"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cv_desk --seeds 1-10
    python3 perfbench/spread.py --workload cv_desk --seeds 1-10 --against .perfbench_out/spread-cv_desk.json

For each end-to-end metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)``, the interquartile distance as a share
of the median against the metric's bound, and the highest percentile with at
least 10 runs beyond it. ``--against`` compares the medians with an earlier
set and flags a metric whose median got worse by more than its bound. The
values are saved to ``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in metrics}
    failed = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(declared["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)

    earlier = json.loads(args.against.read_text()) if args.against else None
    print(f"{args.workload}: {len(args.seeds)} runs, {failed} failed operations")
    for name, m in metrics.items():
        v = sorted(values[name])
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        line = f"  {name:14s} median {med:.4g} {m['unit']}  q1 {q1:.4g}  q3 {q3:.4g}  iqr/median {share:.4f}"
        line += f"  (bound {m['bound']}, {'ok' if share < m['bound'] / 3 else 'WIDE'})"
        value, pct = tail(v)
        line += f"  p{pct:.0f} {value:.4g}"
        if earlier:
            before = statistics.median(earlier[name])
            worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
            line += f"  vs earlier median {before:.4g}: {'REGRESSED' if worse > m['bound'] else 'ok'} ({worse:+.4f})"
        print(line)
    out = ROOT / ".perfbench_out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
