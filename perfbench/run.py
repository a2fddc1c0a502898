#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `superfrob` command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command runs in a fresh interpreter, one at a time, as a CLI user runs
it: the lru caches start cold and nothing overlaps.  A pass runs every command
of the workload once, in an order drawn from the seed (the seed changes
nothing else); passes repeat while another one still fits in --seconds.  The
exit code and payload digest of every command are checked against
digests.json; a failed command counts in `failed` and makes the exit code 1.

--trace 0 reports wall_s and cpu_s as means over all passes of the run,
setup_s as the mean time of a fresh interpreter that imports superfrob.cli
and builds its parser, and peak_rss_mb as the median over passes.  The three
times are given at a nominal host speed: after every timed command the run
times reference.py, a fixed pure-Python computation in a fresh interpreter,
and each time is multiplied by REFERENCE_S over the mean reference time of
the run (cpu_s by the reference's cpu time).  On a shared 2-vCPU VM every
process slows by 10-30% in spells of minutes.  The program and the reference
slow together: over 10 runs of 40 s the log of the raw pass time followed the
log of the reference time with correlation 0.89-0.99 and slope 0.8-1.0, and
the raw pass time of chartable-grid ranged 5.8-8.3 s while the scaled one
ranged 6.6-7.5 s.  Means rather than medians, because over a run of a few
passes the mean moved less from run to run (IQR/median of unscaled 40 s
windows: 0.10 against 0.13).  The raw times, the median pass and the sample
counts are printed as well.

--trace 1 alternates plain passes with passes run
through tracer.py and reports the per-layer metrics of layers.json as medians
over traced passes; trace.overhead_ratio is the median of traced over plain
pass wall time.  A layer function that no longer exists, or an expected span
that never fired, is reported as missing: its metrics are left out and the run
fails like a failed command.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it repeat the metrics with their units
and give fail_ratio, failed over attempted commands.  Without superfrob
sources under src/ the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
LAYERS = json.loads((HERE / "layers.json").read_text())
REFERENCE = HERE / "reference.py"
# Nominal time of one reference.py run in a fresh interpreter, about its
# median on a shared 2-vCPU Xeon KVM guest.  The timed metrics are scaled to
# the host speed at which it takes this long.
REFERENCE_S = 0.65

# Only these CLI arguments reach the program.
WORKLOADS = {
    "chartable-grid": (
        ("chartable", "--m", "1", "--n", "6"),
        ("chartable", "--m", "2", "--n", "4"),
        ("chartable", "--m", "3", "--n", "3", "--specialize"),
    ),
    # (3,3) would be the natural size, but at about 20 s it leaves one or two
    # samples per run.  At these two sizes a pass takes about 2.6-3.2 s, and
    # wreath_character_table, almost all of it the solve over Q(zeta_3) and
    # Q(i), is about half of that; interpreter start is about 0.5 s.
    "wreath-audit": (
        ("verify", "--suite", "orthogonality", "--m", "3", "--n", "2"),
        ("verify", "--suite", "orthogonality", "--m", "4", "--n", "2"),
    ),
    "oracle-certify": (
        ("verify", "--suite", "frobenius", "--m", "2", "--n", "4", "--k", "2,2", "--l", "1,1"),
        ("verify", "--suite", "relations", "--m", "2", "--n", "3", "--k", "2,2", "--l", "2,2"),
    ),
    # a tiny configuration for the benchmark's own smoke test
    "smoke": (
        ("chartable", "--m", "1", "--n", "2"),
        ("verify", "--suite", "relations", "--m", "1", "--n", "2"),
    ),
}

# What the `superfrob` console script runs.
RUN_CLI = "import sys; from superfrob.cli import main; sys.exit(main())"
SETUP_PROBE = "from superfrob.cli import build_parser; build_parser()"
# Set-up probes run before every plain pass, so that their mean samples the
# same stretch of time as the passes do.
SETUP_PER_PASS = 6

# Fixed child environment: no SUPERFROB_THREADS or other inherited settings.
CHILD_ENV = {
    "PATH": os.environ.get("PATH", os.defpath),
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
}


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    peak_rss_mb: float = 0.0
    reference_wall: float = 0.0
    reference_cpu: float = 0.0
    references: int = 0
    failures: list[str] = field(default_factory=list)
    reports: list[dict] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


def run_child(argv: list[str]) -> tuple[float, float, float, int, bytes]:
    """Run one interpreter to completion: wall s, cpu s, max RSS MB, exit code, stdout."""
    with open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=CHILD_ENV, cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, out


def payload_digest(command: tuple[str, ...], stdout: bytes) -> tuple[str, dict | None]:
    """sha256 of the payload, and the parsed report for `verify`.

    `chartable` output repeats byte for byte.  A `verify` report carries
    `timing_seconds`, which changes every run, so it is dropped and the rest
    re-rendered the way the CLI renders it.
    """
    if command[0] != "verify":
        return hashlib.sha256(stdout).hexdigest(), None
    report = json.loads(stdout)
    stable = {k: v for k, v in report.items() if k != "timing_seconds"}
    text = json.dumps(stable, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest(), report


def check(command, code: int, stdout: bytes, digests: dict) -> tuple[str | None, dict | None]:
    """The reason the command failed, or None; and its verify report."""
    if code != 0:
        return f"exit code {code}", None
    try:
        digest, report = payload_digest(command, stdout)
    except ValueError as err:
        return f"unreadable report: {err}", None
    if report is not None and report.get("passed") is not True:
        return '"passed" is not true', report
    if digest != digests.get(" ".join(command)):
        return "digest mismatch", report
    return None, report


def run_pass(commands, digests: dict, traced: bool) -> Pass:
    result = Pass()
    for index, command in enumerate(commands):
        if traced:
            spans = WORK / f"spans-{index}.json"
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *command]
        else:
            argv = [sys.executable, "-c", RUN_CLI, *command]
        wall, cpu, rss, code, out = run_child(argv)
        result.wall += wall
        result.cpu += cpu
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        reason, report = check(command, code, out, digests)
        if reason:
            result.failures.append(f"{' '.join(command)}: {reason}")
        elif report is not None:
            result.reports.append(report)
        if traced and spans.exists():
            result.spans.append(json.loads(spans.read_text()))
        if not traced:
            ref_wall, ref_cpu, _, code, _ = run_child([sys.executable, str(REFERENCE)])
            if code != 0:
                result.failures.append(f"reference.py: exit code {code}")
            result.reference_wall += ref_wall
            result.reference_cpu += ref_cpu
            result.references += 1
    return result


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, spec in LAYERS["functions"].items():
        for stat in spec["stats"]:
            units[f"{name}.{stat}"] = "s" if stat.endswith("_s") else "count"
    for suite, spec in LAYERS["suites"].items():
        for check_name in spec["checks"]:
            units[f"suites.{suite}.{check_name}.s"] = "s"
    for name, spec in LAYERS["trace"].items():
        units[f"trace.{name}"] = spec["unit"]
    return units


def layer_metrics(traced: Pass, workload: str) -> tuple[dict[str, float], set[str]]:
    """Per-layer values of one traced pass, and the expected spans that never fired.

    A missing span gets no values, so that it cannot read as a zero.
    """
    stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    missing: set[str] = set()
    for data in traced.spans:
        missing.update(data["unbound"])
        for _, _, name, start, end, self_s, sizes in data["spans"]:
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
            for key, value in (sizes or {}).items():
                entry[key] += value
    values = {}
    for name, spec in LAYERS["functions"].items():
        if workload in spec["on"] and not stats[name]["calls"]:
            missing.add(name)
        if name not in missing:
            for stat in spec["stats"]:
                values[f"{name}.{stat}"] = stats[name][stat]
    timings = {
        f"suites.{report['suite']}.{check_name}.s": seconds
        for report in traced.reports
        for check_name, seconds in report["timing_seconds"].items()
    }
    for suite, spec in LAYERS["suites"].items():
        for check_name in spec["checks"]:
            key = f"suites.{suite}.{check_name}.s"
            if workload in spec["on"] and key not in timings:
                missing.add(key)
            else:
                values[key] = timings.get(key, 0.0)
    return values, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "superfrob" / "cli.py").is_file():
        print(f"perfbench: no superfrob sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    digests = json.loads((HERE / "digests.json").read_text())
    commands = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    # Untimed warm-up: compiles every module's .pyc before anything is timed.
    run_child([sys.executable, "-c", SETUP_PROBE])

    setup: list[float] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        group_start = time.perf_counter()
        order = rng.sample(commands, len(commands))
        if args.trace:
            # alternate which side of a pair runs first
            first_traced = len(traced) % 2 == 1
            for side in (first_traced, not first_traced):
                (traced if side else plain).append(run_pass(order, digests, side))
        else:
            for _ in range(SETUP_PER_PASS):
                setup.append(run_child([sys.executable, "-c", SETUP_PROBE])[0])
            plain.append(run_pass(order, digests, False))
        now = time.perf_counter()
        if now - start + (now - group_start) > args.seconds:
            break

    passes = plain + traced
    failures = [reason for p in passes for reason in p.failures]
    attempted = len(passes) * len(commands)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(plain)} plain, {len(traced)} traced; commands per pass={len(commands)}"
    )
    for reason in failures:
        print(f"FAILED {reason}")
    print(f"  fail_ratio {len(failures) / attempted} ({len(failures)}/{attempted} commands)")

    metrics = {}
    missing: list[str] = []
    if args.trace:
        per_pass = [layer_metrics(p, args.workload) for p in traced]
        missing = sorted(set().union(*(m for _, m in per_pass)))
        units = per_layer_units()
        for name, unit in units.items():
            if name.startswith("trace.") or any(name not in values for values, _ in per_pass):
                continue
            metrics[name] = {
                "value": statistics.median(values[name] for values, _ in per_pass),
                "unit": unit,
            }
        ratio = statistics.median(t.wall / p.wall for t, p in zip(traced, plain))
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": units["trace.overhead_ratio"]}
        metrics["trace.missing_spans"] = {"value": len(missing), "unit": units["trace.missing_spans"]}
        print(f"  traced pass wall {statistics.median(t.wall for t in traced)} s")
        for name in missing:
            print(f"MISSING span {name}")
    else:
        walls = [p.wall for p in plain]
        references = sum(p.references for p in plain)
        reference_wall = sum(p.reference_wall for p in plain) / references
        reference_cpu = sum(p.reference_cpu for p in plain) / references
        wall_scale = REFERENCE_S / reference_wall
        print(f"  raw: pass wall mean {statistics.fmean(walls)} s, median {statistics.median(walls)} s, "
              f"min {min(walls)} s, max {max(walls)} s over {len(walls)} passes; "
              f"setup mean {statistics.fmean(setup)} s over {len(setup)} probes")
        print(f"  reference: wall {reference_wall} s, cpu {reference_cpu} s over {references} runs; "
              f"times below are scaled by {wall_scale} (wall) and {REFERENCE_S / reference_cpu} (cpu)")
        metrics = {
            "wall_s": {"value": statistics.fmean(walls) * wall_scale, "unit": "s"},
            "cpu_s": {"value": statistics.fmean(p.cpu for p in plain) * REFERENCE_S / reference_cpu, "unit": "s"},
            "setup_s": {"value": statistics.fmean(setup) * wall_scale, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in plain), "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']} {metric['unit']}")

    print(json.dumps({
        "correct": not failures and not missing,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures or missing else 0


if __name__ == "__main__":
    sys.exit(main())
