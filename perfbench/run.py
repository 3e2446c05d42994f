"""bellstrobe benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload study_boosted --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each exists):
  study_boosted  in-memory desk_boosted sessions, as in the Tier-1 studies
  session_files  the CLI quick-start path: simulate, analyze, report on files
  hardware_run   one default-config 10 s run written to and analysed from files

The load is a closed loop with one client: unit i (seed + i) starts only after
unit i - 1 has ended, until --seconds have passed. Each step of a unit runs in
a fresh Python process (perfbench/unit.py) so its peak RSS can be read when
it ends; the step times its own phases, so interpreter start-up is not in
them, and times a fixed reference kernel before and after itself. Reported
times are at reference speed: each phase time is multiplied by
REF_NOMINAL_S over the kernel's mean time around its step, which cancels
most of the machine's speed drift between runs.

--trace 0 prints the end-to-end metrics from untraced units. --trace 1
runs every unit twice, untraced and then traced with spans around each
layer's public functions, prints the per-layer metrics, checks that both
produce the same summary bytes, and writes the spans to
.perfbench_work/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics ({name: {value, unit}}). Other lines are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

STEPS = {
    "study_boosted": ("session",),
    "session_files": ("simulate", "analyze", "report"),
    "hardware_run": ("simulate", "analyze"),
}
SETUP_REPEATS = 5
# Typical time of unit.reference_seconds() on the machine the bounds were set
# on; a phase time t measured while the kernel took r is reported as
# t * REF_NOMINAL_S / r.
REF_NOMINAL_S = 0.032
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "unit_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "analyze_tail_s": "s",
    "simulate_tags_per_s": "1/s",
    "analyze_tags_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "analyze_peak_rss_mb": "MiB",
}

PER_LAYER = {
    "sim.emit_events.s": "s",
    "sim.emit_events.calls": "count",
    "sim.tags_out": "count",
    "tagfmt.write_tags.s": "s",
    "tagfmt.write_tags.bytes": "bytes",
    "tagfmt.read_tag_arrays.s": "s",
    "tagfmt.read_tag_arrays.bytes": "bytes",
    "sync.extract_period_series.s": "s",
    "sync.align_pulse_numbering.s": "s",
    "sync.fit_clock_relation.s": "s",
    "sync.assign_to_pulses.s": "s",
    "sync.detections_kept": "count",
    "sync.detections_dropped": "count",
    "sync.residual_rms_ps": "ps",
    "coinc.match_coincidences.s": "s",
    "coinc.detections_in": "count",
    "coinc.multi_detection_pulses": "count",
    "coinc.coincidences": "count",
    "coinc.match_ratio": "ratio",
    "analysis.bin_singles.s": "s",
    "analysis.slot_series.s": "s",
    "analysis.plateau_summary.s": "s",
    "analysis.detect_transient.s": "s",
    "session.process_run.self_s": "s",
    "session.analyze_products.self_s": "s",
    "session.analyze_session.self_s": "s",
    "session.simulate_session.self_s": "s",
    "session.write_outputs.s": "s",
    "session.write_report_bundle.s": "s",
    "cli.main.self_s": "s",
    "trace.analyze_coverage": "ratio",
    "trace.overhead_s": "s",
}


class UnitFailed(Exception):
    pass


def run_child(argv: list[str], log_path: Path, timeout: float = CHILD_TIMEOUT_S) -> tuple[int, float, float]:
    """Run `python argv` from the repository root, output to `log_path`.

    Returns (exit code, wall seconds, peak RSS in MiB). A child still running
    after `timeout` seconds is killed; every child is reaped before return.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, stdout=log, stderr=subprocess.STDOUT
        )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024


def run_unit(workload: str, index: int, seed: int, traced: bool, workdir: Path) -> dict:
    """All steps of one unit; raises UnitFailed if any step fails."""
    unit_dir = workdir / f"unit{index}-{int(traced)}"
    unit_dir.mkdir()
    unit = {"times": {}, "ref": {}, "tags": {}, "rss": {}, "digest": None,
            "spans": [], "span_times": {}, "counts": {}}
    try:
        for step in STEPS[workload]:
            result_path = unit_dir / f"{step}.json"
            log_path = unit_dir / f"{step}.log"
            code, _, rss = run_child(
                [str(HERE / "unit.py"), "--workload", workload, "--step", step,
                 "--index", str(index), "--seed", str(seed), "--dir", str(unit_dir),
                 "--trace", str(int(traced)), "--result", str(result_path)],
                log_path,
            )
            if code != 0:
                tail_lines = log_path.read_text(errors="replace").splitlines()[-15:]
                raise UnitFailed(f"step {step} exited with {code}:\n" + "\n".join(tail_lines))
            result = json.loads(result_path.read_text())
            if result["failures"]:
                raise UnitFailed(f"step {step}: " + "; ".join(result["failures"]))
            merge_step(unit, result, rss)
            unit["spans"].append({"step": step, "spans": result["spans"]})
    finally:
        shutil.rmtree(unit_dir, ignore_errors=True)
    return unit


def merge_step(unit: dict, result: dict, rss_mb: float) -> None:
    """Fold one step's result into its unit: times, tags, reference time and
    peak RSS by phase; span times and counts summed over steps (the residual
    is a max)."""
    unit["times"].update(result["times"])
    unit["tags"].update(result["tags"])
    for phase in result["times"]:
        unit["ref"][phase] = result["ref"]
        unit["rss"][phase] = rss_mb
    if result.get("digest"):
        unit["digest"] = result["digest"]
    for name, (total, own) in result["span_times"].items():
        old = unit["span_times"].get(name, (0.0, 0.0))
        unit["span_times"][name] = (old[0] + total, old[1] + own)
    for name, value in result["counts"].items():
        if name == "sync.residual_rms_ps":
            value = max(value, unit["counts"].get(name, value))
        else:
            value += unit["counts"].get(name, 0.0)
        unit["counts"][name] = value


def measure(run: Callable[[int, bool], dict], seconds: float, trace: bool) -> tuple[list[dict], list[dict], int, int]:
    """Closed loop: unit 0, 1, ... until `seconds` have passed (at least one).

    With `trace`, each unit runs untraced and then traced, and the traced one
    fails unless its digest matches. A unit that raises is counted as failed
    and the loop goes on. Returns (untraced units, traced units, attempted,
    failed).
    """
    plain, traced = [], []
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        reference = None
        for with_trace in (False, True) if trace else (False,):
            attempted += 1
            try:
                unit = run(index, with_trace)
                if with_trace and unit["digest"] != reference:
                    raise UnitFailed(f"traced digest {unit['digest']} != untraced {reference}")
            except Exception as exc:  # one bad unit must not end the run
                failed += 1
                print(f"unit {index} ({'traced' if with_trace else 'untraced'}) failed: {exc}",
                      file=sys.stderr)
                continue
            unit["index"] = index
            if with_trace:
                traced.append(unit)
            else:
                reference = unit["digest"]
                plain.append(unit)
        index += 1
    return plain, traced, attempted, failed


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, sample count) for the highest nearest-rank
    percentile with at least `beyond` samples above it.

    Where that percentile would fall below the median (fewer than
    2 * `beyond` samples), the median is returned with percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - beyond
    if rank < (n + 1) // 2:
        return statistics.median(ordered), 50.0, n
    return ordered[rank - 1], 100.0 * rank / n, n


def scaled(unit: dict, phase: str) -> float:
    """A phase's time at reference speed."""
    return unit["times"][phase] * REF_NOMINAL_S / unit["ref"][phase]


def unit_seconds(unit: dict) -> float:
    return sum(scaled(unit, phase) for phase in unit["times"])


def end_to_end(units: list[dict], setup_times: list[float]) -> dict[str, float]:
    def med(fn):
        return statistics.median(fn(u) for u in units)

    return {
        "setup_s": statistics.median(setup_times),
        "unit_s": med(unit_seconds),
        "simulate_s": med(lambda u: scaled(u, "simulate")),
        "analyze_s": med(lambda u: scaled(u, "analyze")),
        "analyze_tail_s": tail([scaled(u, "analyze") for u in units])[0],
        "simulate_tags_per_s": med(lambda u: u["tags"]["simulate"] / scaled(u, "simulate")),
        "analyze_tags_per_s": med(lambda u: u["tags"]["analyze"] / scaled(u, "analyze")),
        "peak_rss_mb": med(lambda u: max(u["rss"].values())),
        "analyze_peak_rss_mb": med(lambda u: u["rss"]["analyze"]),
    }


def layer_values(unit: dict) -> dict[str, float]:
    """Per-layer metrics of one traced unit (all but trace.overhead_s)."""
    times, counts = unit["span_times"], unit["counts"]

    def total(*names):
        return sum(times.get(n, (0.0, 0.0))[0] for n in names)

    def own(name):
        return times.get(name, (0.0, 0.0))[1]

    def count(name):
        return counts.get(name, 0.0)

    pulses_both = count("coinc.pulses_both")
    return {
        "sim.emit_events.s": total("sim.emit_events"),
        "sim.emit_events.calls": count("sim.emit_events.calls"),
        "sim.tags_out": count("sim.tags_out"),
        "tagfmt.write_tags.s": total("tagfmt.write_tags"),
        "tagfmt.write_tags.bytes": count("tagfmt.write_tags.bytes"),
        "tagfmt.read_tag_arrays.s": total("tagfmt.read_tag_arrays"),
        "tagfmt.read_tag_arrays.bytes": count("tagfmt.read_tag_arrays.bytes"),
        "sync.extract_period_series.s": total("sync.extract_period_series"),
        "sync.align_pulse_numbering.s": total("sync.align_pulse_numbering"),
        "sync.fit_clock_relation.s": total("sync.fit_clock_relation"),
        "sync.assign_to_pulses.s": total("sync.assign_to_pulses"),
        "sync.detections_kept": count("sync.detections_kept"),
        "sync.detections_dropped": count("sync.detections_dropped"),
        "sync.residual_rms_ps": count("sync.residual_rms_ps"),
        "coinc.match_coincidences.s": total("coinc.match_coincidences"),
        "coinc.detections_in": count("coinc.detections_in"),
        "coinc.multi_detection_pulses": count("coinc.multi_detection_pulses"),
        "coinc.coincidences": count("coinc.coincidences"),
        "coinc.match_ratio": count("coinc.coincidences") / pulses_both if pulses_both else 0.0,
        "analysis.bin_singles.s": total("analysis.bin_singles"),
        "analysis.slot_series.s": total("analysis.slot_series"),
        "analysis.plateau_summary.s": total("analysis.plateau_summary"),
        "analysis.detect_transient.s": total("analysis.detect_transient"),
        "session.process_run.self_s": own("session.process_run"),
        "session.analyze_products.self_s": own("session.analyze_products"),
        "session.analyze_session.self_s": own("session.analyze_session"),
        "session.simulate_session.self_s": own("session.simulate_session"),
        "session.write_outputs.s": total(
            "session.write_slots_csv", "session.write_delta_t_csv", "session.write_summary_json"
        ),
        "session.write_report_bundle.s": total("session.write_report_bundle"),
        "cli.main.self_s": own("cli.main"),
        "trace.analyze_coverage": count("trace.analyze_covered_s") / unit["times"]["analyze"],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    values = [layer_values(u) for u in traced]
    out = {name: statistics.median(v[name] for v in values) for name in values[0]}
    out["trace.overhead_s"] = statistics.median(map(unit_seconds, traced)) - statistics.median(
        map(unit_seconds, plain)
    )
    return out


def print_report(workload: str, seed: int, plain: list[dict], metrics: dict, units: dict,
                 attempted: int, failed: int) -> None:
    print(f"workload {workload} seed {seed}: {attempted} units attempted, {failed} failed, "
          f"failed_ratio {failed / attempted:.4g}")
    first = min(plain, key=lambda u: u["index"])
    print(f"summary_sha256 {workload} seed={seed} unit={first['index']} {first['digest']}")
    _, pct, n = tail([scaled(u, "analyze") for u in plain])
    print(f"  analyze_tail_s is p{pct:.1f} of {n} units"
          + (" (the median: too few units for a tail)" if pct == 50.0 else f", {TAIL_BEYOND} beyond"))
    if all("report" in u["times"] for u in plain):
        report = statistics.median(scaled(u, "report") for u in plain)
        print(f"  report_s {report:.6g} s (median of {len(plain)} units)")
    unscaled = {phase: statistics.median(u["times"][phase] for u in plain) for phase in first["times"]}
    unscaled["reference_kernel"] = statistics.median(r for u in plain for r in u["ref"].values())
    print(f"  unscaled medians (s) {json.dumps(unscaled)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bellstrobe" / "__init__.py").is_file():
        print(f"no bellstrobe source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            result_path = workdir / "setup.json"
            code, seconds, _ = run_child(
                [str(HERE / "unit.py"), "--setup", "--workload", args.workload,
                 "--seed", str(args.seed), "--result", str(result_path)],
                workdir / "setup.log",
            )
            if code != 0:
                print((workdir / "setup.log").read_text(errors="replace"), file=sys.stderr)
                return 1
            ref = json.loads(result_path.read_text())
            setup_times.append((seconds - ref["ref_total"]) * REF_NOMINAL_S / ref["ref"])

        def one(index: int, traced: bool) -> dict:
            return run_unit(args.workload, index, args.seed + index, traced, workdir)

        plain, traced, attempted, failed = measure(one, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not plain or (args.trace and not traced):
        print("no unit succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = per_layer(plain, traced), PER_LAYER
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            [{"unit": u["index"], "steps": u["spans"]} for u in traced]))
    else:
        metrics, units = end_to_end(plain, setup_times), END_TO_END
    print_report(args.workload, args.seed, plain, metrics, units, attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
