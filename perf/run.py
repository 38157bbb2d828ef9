"""The perf ledger: one command for every performance number of this repo.

    python perf/run.py --seed S --out FILE          # all six workloads
    python perf/run.py --workload flood_1k --seed S --seconds 20 --trace 0
    python perf/run.py --list

Each workload is timed in one child interpreter (``child.py``) that
repeats it in *rounds* — forks of the freshly imported child, one at a
time — for ``--seconds`` of host time, with tracing off.  Set-up alone
is timed in fresh interpreters of its own, before and after the rounds.
One more child per workload runs under the span tracer (``spans.py``)
and a metrics registry for the per-layer numbers.  Output checks are
counted, never raised.  The last line(s) of standard output are the
benchmark contract's result objects, one per workload.

Host times are *calibrated*: this host (a few cores of a shared
machine) slows by 10-40% for seconds or minutes at a time, so every
round and every probe also times a fixed calibration loop on the same
core while it runs, and reports its times divided by how much slower
than on the quiet reference host that loop ran (``child.py``).  Over ten
runs of one workload, raw medians spread by 15-35% (inter-quartile range
/ median), the fastest of a round's pieces by 6-35%, calibrated medians
by 2-6%.  The raw times are kept beside them.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from metrics import ABSENT, PER_LAYER, catalogue_lines, per_layer_values

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-up alone (import, build, schedule; stop at the first kernel event)
#: is run this many times per workload in a fresh interpreter each, half
#: before the rounds and half after so they do not all meet one slow spell.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150
#: host metric -> (unit, the raw time it is the calibrated form of);
#: each is the median over the rounds (set-up: over the probes) and the
#: median of the raw times is recorded beside it.
HOST_METRICS = {
    "wall_s": ("s", "wall_raw_s"),
    "cpu_s": ("s", "cpu_raw_s"),
    "peak_rss_mb": ("MiB", None),
    "setup_s": ("s", "setup_raw_s"),
}


def parse_args(argv: Optional[List[str]], run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11,
                        help="every simulator seed derives from it "
                             "(development seed 11, held-out seed 23)")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--repeats", type=int, metavar="N",
                        help="exactly N timed rounds per workload "
                             "(default: as many as end within --seconds)")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="host seconds of timed rounds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed rounds only; 1: traced run only; "
                             "default: both")
    parser.add_argument("--no-trace", dest="trace", action="store_const",
                        const=0, help="same as --trace 0")
    parser.add_argument("--out", metavar="FILE", help="write the result file")
    parser.add_argument("--list", action="store_true",
                        help="print the metric catalogue and exit")
    return parser.parse_args(argv)


def host_fingerprint() -> Dict[str, Any]:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    if os.environ.get("REPRO_NO_NUMPY"):
        numpy = f"disabled by REPRO_NO_NUMPY ({numpy})"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_commit": commit,
        "loadavg_1m_at_start": load,
        "noisy": load > nproc,
    }


def run_child(name: str, seed: int, variant: str = "default",
              traced: bool = False, seconds: float = 0.0,
              rounds: int = 1) -> Any:
    """``name`` in a fresh interpreter: the set-up probe's result, or the
    list of round results (``rounds`` of them; as many as end within
    ``seconds`` when ``rounds`` is 0)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Hash randomisation reorders str-keyed sets between interpreters:
    # noise in host time that no commit is responsible for.
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), name, str(seed), variant,
         "1" if traced else "0", repr(time.time()), repr(seconds), str(rounds)],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Timeout or interrupt: the child has a round, that may have
        # shard workers.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{name} child exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result if variant == "setup" else result["rounds"]


def one_round(name: str, seed: int, variant: str = "default",
              traced: bool = False) -> Dict[str, Any]:
    return run_child(name, seed, variant, traced)[0]


def summarize(metric: str, samples: List[Dict[str, Any]]) -> Dict[str, Any]:
    unit, raw = HOST_METRICS[metric]
    values = [r[metric] for r in samples]
    entry = {
        "value": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values), "unit": unit,
    }
    if raw is not None:
        entry["raw"] = statistics.median(r[raw] for r in samples)
    return entry


@dataclass
class WorkloadRuns:
    """Every child result of one workload in this invocation."""

    timed: List[Dict[str, Any]] = field(default_factory=list)
    setup_probes: List[Dict[str, Any]] = field(default_factory=list)
    traced: Optional[Dict[str, Any]] = None
    vectorized: Optional[Dict[str, Any]] = None
    oracle: Optional[Dict[str, Any]] = None


def measure(args: argparse.Namespace, workloads: Dict[str, Any]) -> Dict[str, WorkloadRuns]:
    runs = {name: WorkloadRuns() for name in args.workload}

    def probe_setup(name: str) -> None:
        runs[name].setup_probes += [
            run_child(name, args.seed, variant="setup")
            for _ in range(SETUP_PROBES // 2)
        ]

    for name in args.workload:
        workload, mine = workloads[name], runs[name]
        if args.trace != 1:
            probe_setup(name)
            mine.timed = run_child(
                name, args.seed, seconds=args.seconds, rounds=args.repeats or 0
            )
            probe_setup(name)
        else:
            mine.timed = [one_round(name, args.seed)]   # the traced run's base
        # A sharded workload must reproduce its single-queue twin.
        if workload.oracle is not None:
            twin = runs.get(workload.oracle)
            mine.oracle = (
                twin.timed[0] if twin is not None and twin.timed
                else one_round(workload.oracle, args.seed)
            )
        if args.trace != 0:
            if workload.in_process:
                mine.traced = one_round(name, args.seed, traced=True)
            if workload.vectorized_run is not None:
                mine.vectorized = one_round(name, args.seed, variant="vectorized")
    return runs


def report_workload(workload: Any, mine: WorkloadRuns,
                    with_layers: bool) -> Dict[str, Any]:
    first = mine.timed[0]
    end_to_end: Dict[str, Any] = {
        metric: summarize(metric, mine.timed)
        for metric in HOST_METRICS if metric != "setup_s"
    }
    if mine.setup_probes:
        end_to_end["setup_s"] = summarize("setup_s", mine.setup_probes)

    checks = dict(first["checks"])
    digest = first["outcome_digest"]
    if len(mine.timed) > 1:
        checks["replay_reproduces_digest"] = all(
            r["outcome_digest"] == digest for r in mine.timed
        )
    for check, other in (
        ("traced_digest_equals_untraced", mine.traced),
        ("vectorized_digest_equals_default", mine.vectorized),
        (f"digest_equals_{workload.oracle}", mine.oracle),
    ):
        if other is not None:
            checks[check] = other["outcome_digest"] == digest
    failed = sorted(check for check, ok in checks.items() if not ok)

    end_to_end["delivery_ratio"] = {"value": first["delivery_ratio"], "unit": "ratio"}
    end_to_end["cost_per_delivery"] = {
        "value": first["cost_per_delivery"], "unit": first["cost_unit"],
    }
    if "paper_error" in first:
        end_to_end["paper_error"] = {"value": first["paper_error"], "unit": "ratio"}
    end_to_end["failed_share"] = {"value": len(failed) / len(checks), "unit": "ratio"}

    typical = sorted(mine.timed, key=lambda r: r["wall_s"])[len(mine.timed) // 2]
    per_layer = (
        per_layer_values(typical, mine.traced, mine.vectorized, mine.oracle)
        if with_layers else None
    )
    return {
        "why": workload.why,
        "outcome_digest": digest,
        "host_speed": statistics.median(r["host_speed"] for r in mine.timed),
        "delivered": first["delivered"],
        "offered": first["offered"],
        "end_to_end": end_to_end,
        "ops": len(checks),
        "failed_ops": len(failed),
        "checks": checks,
        "per_layer": per_layer,
        "runs": mine.timed + [
            r for r in (mine.traced, mine.vectorized, mine.oracle) if r is not None
        ],
    }


def format_value(value: Optional[float]) -> str:
    if value is None:
        return "absent"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def print_report(name: str, report: Dict[str, Any]) -> None:
    print(f"== {name}   outcome_digest {report['outcome_digest']}")
    print(f"  end-to-end (tracing off; host speed {report['host_speed']:.2f}, "
          "1 = the quiet reference host)")
    for metric, entry in report["end_to_end"].items():
        if "n" in entry:
            raw = f", raw {entry['raw']:.4f}" if "raw" in entry else ""
            print(
                f"    {metric:<20} {entry['value']:>12.4f} {entry['unit']:<11}"
                f" host       median of {entry['n']} [min {entry['min']:.4f},"
                f" max {entry['max']:.4f}{raw}]"
            )
        else:
            print(
                f"    {metric:<20} {format_value(entry['value']):>12} "
                f"{entry['unit']:<11} simulated"
            )
    print(f"  output checks: ops {report['ops']}, failed_ops {report['failed_ops']}")
    for check, ok in report["checks"].items():
        print(f"    {'ok    ' if ok else 'FAILED'} {check}")
    if report["per_layer"] is not None:
        print("  per-layer (traced run, program counters)")
        for metric in PER_LAYER:
            value = report["per_layer"][metric.name]
            print(f"    {metric.name:<32} {format_value(value):>12} {metric.unit}")


def contract_line(report: Dict[str, Any], contract: Dict[str, Any],
                  trace: Optional[int]) -> str:
    """The benchmark contract's result object for one workload."""
    metrics: Dict[str, Any] = {}
    if trace != 1:
        for spec in contract["end_to_end"]:
            value = report["end_to_end"][spec["name"]]["value"]
            metrics[spec["name"]] = {
                "value": ABSENT if value is None else value, "unit": spec["unit"],
            }
    if trace != 0:
        for spec in contract["per_layer"]:
            value = report["per_layer"][spec["name"]]
            metrics[spec["name"]] = {
                "value": ABSENT if value is None else value, "unit": spec["unit"],
            }
    return json.dumps({
        "correct": report["failed_ops"] == 0,
        "attempted": report["ops"],
        "failed": report["failed_ops"],
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, contract["run_seconds"])
    if args.list:
        bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
        print("\n".join(catalogue_lines(bounds)))
        return 0
    if not (SRC / "repro").is_dir():
        print(f"perf/run.py: no simulator to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import CONSTANTS, WORKLOADS

    args.workload = args.workload or list(WORKLOADS)
    unknown = [name for name in args.workload if name not in WORKLOADS]
    if unknown:
        print(f"perf/run.py: unknown workload {unknown}; have {list(WORKLOADS)}",
              file=sys.stderr)
        return 2

    host = host_fingerprint()
    print(f"host: {json.dumps(host)}")
    if host["noisy"]:
        print("host: load average above nproc at start — this run is marked noisy")
    runs = measure(args, WORKLOADS)
    reports = {
        name: report_workload(WORKLOADS[name], runs[name], args.trace != 0)
        for name in args.workload
    }
    for name, report in reports.items():
        print_report(name, report)

    if args.out:
        result = {
            "schema": "perf-ledger/1",
            "host": host,
            "seed": args.seed,
            "rounds": {name: len(runs[name].timed) for name in args.workload},
            "seconds": args.seconds if args.repeats is None else None,
            "constants": {name: CONSTANTS[name] for name in args.workload},
            "workloads": reports,
        }
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for name in args.workload:
        print(contract_line(reports[name], contract, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
