"""The repository benchmark: one command, three workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload paper-read --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced runs;
``--trace 1`` makes the traced run and reports the per-layer metrics,
writing its spans and the full ``repro.obs`` snapshot under
``.perfbench/``.  Either way the correctness gate runs, and any breach
makes the command exit non-zero.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``METRICS.md`` next to this file defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload: str, seed: int) -> dict:
    """Commit, host and toolchain of this result."""
    import numpy

    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-read", "catalog-mixed",
                                 "paper-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measure for this long (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _write_trace(report, args, prov: dict, per_layer: dict) -> list[str]:
    from repro.analysis.export import metrics_to_json

    from perfbench import stats

    out = ROOT / ".perfbench"
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"{args.workload}-seed{args.seed}"
    obs_path = Path(f"{stem}.obs.json")
    spans_path = Path(f"{stem}.spans.json")
    metrics_to_json(report.registry, str(obs_path))
    doc = {
        "provenance": prov,
        "per_layer": per_layer,
        "self_time_s": stats.self_time_by_name(report.spans),
        "spans": [span.__dict__ for span in report.spans],
    }
    spans_path.write_text(json.dumps(doc) + "\n")
    return [str(obs_path), str(spans_path)]


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import processes
    try:
        return _run(args)
    finally:
        processes.stop_all()


def _run(args: argparse.Namespace) -> int:
    from perfbench import measure
    from perfbench.metrics import END_TO_END, PER_LAYER, UNITS

    prov = provenance(args.workload, args.seed)
    live = args.workload != "paper-sweep"
    if args.trace:
        report = (measure.run_live_traced(args.workload, args.seed) if live
                  else measure.run_sweep_traced(args.seed))
        wanted = PER_LAYER
    else:
        report = (measure.run_live_untraced(args.workload, args.seed,
                                            args.seconds) if live
                  else measure.run_sweep_untraced(args.seed, args.seconds))
        wanted = END_TO_END

    metrics = {}
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for metric in wanted:
        # A layer the workload never enters reports zero work.
        value, unit = report.metrics.get(metric.name,
                                         (0.0, UNITS[metric.name]))
        if unit != metric.unit:
            raise RuntimeError(f"{metric.name} measured in {unit}, "
                               f"declared in {metric.unit}")
        metrics[metric.name] = {"value": value, "unit": unit}
        print(f"  {metric.name:<40} {value:>16.6g} {unit:<6} "
              f"[{metric.clock}; n={report.samples.get(metric.name, 0)}]")
    for line in report.lines:
        print(f"  {line}")
    if args.trace:
        for path in _write_trace(report, args, prov, metrics):
            print(f"wrote {path}")
    violations = list(dict.fromkeys(report.violations))
    for problem in violations:
        print(f"CORRECTNESS: {problem}")
    print(json.dumps({"correct": not violations,
                      "attempted": int(report.attempted),
                      "failed": int(report.failed),
                      "metrics": metrics}))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
