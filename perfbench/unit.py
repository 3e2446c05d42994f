"""One step of one benchmark unit, run in a process of its own.

run.py starts this script once per step, so that each step's peak RSS can be
read from the operating system when the process ends. A step runs one or
more phases of a workload (simulate, analyze, report), times each phase with
perf_counter, checks the outputs, and writes a JSON result to --result. With
--trace 1 it records spans around the public functions of every bellstrobe
module; nothing in src/ is changed for that.

    python3 perfbench/unit.py --workload session_files --step analyze \
        --index 0 --seed 7 --dir WORKDIR --trace 0 --result out.json
    python3 perfbench/unit.py --setup --workload hardware_run --result out.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import bellstrobe  # noqa: E402
from bellstrobe import analysis, cli, coinc, session, sync  # noqa: E402
from bellstrobe.config import (  # noqa: E402
    ExperimentConfig,
    apply_overrides,
    desk_boosted,
    desk_transient,
)
from bellstrobe.sim import TagStream  # noqa: E402
from bellstrobe.tagfmt import HEADER_SIZE, RECORD_SIZE, TagFileHeader  # noqa: E402

import spans  # noqa: E402

STUDY_KINDS = ("null", "monotone", "oscillatory")
NULL_S_SIGMAS = 5.0
HARDWARE_RUN_S = 10.0
REF_SIZE = 1 << 13
REF_ROUNDS = 24
REF_LOOP = 100_000
REF_REPEATS = 2


# --- Workload configs (public config API only) ------------------------------


def study_config(index: int, seed: int) -> tuple[str, ExperimentConfig]:
    """Unit `index` of study_boosted cycles null and the two transient
    families, like the Tier-1 studies."""
    kind = STUDY_KINDS[index % len(STUDY_KINDS)]
    if kind == "null":
        return kind, desk_boosted(seed=seed)
    return kind, desk_transient(kind, seed=seed)


def hardware_config(seed: int) -> ExperimentConfig:
    """Default (hardware-scale) config with the run shortened to
    HARDWARE_RUN_S; station B's clock drifts on its own."""
    return apply_overrides(
        ExperimentConfig(),
        {
            "master_seed": seed,
            "session.run_duration": HARDWARE_RUN_S,
            "station_b.clock.offset": 1.3e-3,
            "station_b.clock.drift_rate": 20e-6,
            "station_b.clock.jitter_sigma": 20e-12,
        },
    )


# --- Correctness gate -------------------------------------------------------


def sync_failures(reports: list[dict]) -> list[str]:
    """Every run must align with the simulated pulse offset 0 and give a
    finite clock-fit residual."""
    out = []
    for r in reports:
        if r["pulse_offset"] != 0:
            out.append(f"run {r['run']}: pulse_offset {r['pulse_offset']} != 0")
        rms = r["residual_rms_s"]
        if rms is None or not math.isfinite(rms):
            out.append(f"run {r['run']}: residual_rms {rms} is not finite")
    return out


def summary_failures(summary: dict, null: bool) -> list[str]:
    """Checks on a summary.json: no skipped runs, sync as above, and on null
    sessions the all-data S within 5 sigma of 2*sqrt(2)*V."""
    out = []
    runs = summary["runs"]
    if runs["skipped"] or runs["used"] != runs["total"]:
        out.append(f"runs skipped or unused: {runs}")
    out += sync_failures(summary["sync"])
    if null:
        plateau = summary["plateau"]
        s, sigma = plateau["all_data_s"], plateau["all_data_s_sigma"]
        ideal = summary["expectations"]["s_ideal"]
        if s is None or sigma is None or not abs(s - ideal) <= NULL_S_SIGMAS * sigma:
            out.append(f"null session: all-data S {s} +- {sigma} vs {ideal}")
    return out


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tag_count(paths) -> int:
    total = 0
    for p in paths:
        with open(p, "rb") as fh:
            total += TagFileHeader.unpack(fh.read(HEADER_SIZE)).record_count
    return total


# --- Steps ------------------------------------------------------------------


def reference_seconds() -> float:
    """Time of a fixed mix of work that no commit changes: random numbers,
    sorts and binary searches on 64 KiB arrays, and an interpreter loop.

    The machine's speed drifts by tens of percent over seconds to minutes;
    run.py scales each phase time by this kernel's time around its step. The
    arrays stay below glibc's default mmap threshold: freeing a larger one
    would raise that threshold and change how the program's own arrays are
    allocated.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(REF_ROUNDS):
        x = rng.random(REF_SIZE)
        x.sort()
        np.searchsorted(x, rng.random(REF_SIZE))
    acc = 0
    for k in range(REF_LOOP):
        acc += k & 7
    return time.perf_counter() - start


def steady_reference() -> float:
    """Fastest of REF_REPEATS kernel runs: a run that was interrupted says
    nothing about the machine's speed."""
    return min(reference_seconds() for _ in range(REF_REPEATS))


class Phases:
    """Times the phases of one step. The reference kernel runs before the
    first phase and, through `finish`, after the step."""

    def __init__(self, tracer: spans.Tracer):
        self.tracer = tracer
        self.times: dict[str, float] = {}
        reference_seconds()  # the first call in a process also pays for warm-up
        self.ref_before = steady_reference()

    @contextmanager
    def phase(self, name: str):
        self.tracer.phase = name
        start = time.perf_counter()
        yield
        self.times[name] = time.perf_counter() - start
        self.tracer.phase = ""

    def finish(self) -> float:
        """Mean reference time around the step."""
        return (self.ref_before + steady_reference()) / 2


# Each step returns {"tags": {phase: n}, "failures": [...], "digest": sha256
# of the unit's summary, if this step wrote it}.


def study_session(args, phases: Phases) -> dict:
    kind, config = study_config(args.index, args.seed)
    with phases.phase("simulate"):
        runs = list(session.iter_simulated_runs(config))
    with phases.phase("analyze"):
        products = [session.process_run(run, config) for run in runs]
        summary = session.analyze_products(products, config)
    tags = sum(len(r.tags_a) + len(r.tags_b) for r in runs)
    path = args.dir / "summary.json"
    session.write_summary_json(summary, path)
    return {
        "tags": {"simulate": tags, "analyze": tags},
        "failures": summary_failures(json.loads(path.read_text()), kind == "null"),
        "digest": file_digest(path),
    }


def run_cli(phases: Phases, name: str, argv: list[str]) -> list[str]:
    with phases.phase(name):
        code = cli.main(argv)
    return [] if code == 0 else [f"bellstrobe {argv[0]} returned {code}"]


def files_simulate(args, phases: Phases) -> dict:
    failures = run_cli(
        phases,
        "simulate",
        ["simulate", "--output", str(args.dir), "--name", "s", "--seed", str(args.seed)],
    )
    tags = tag_count((args.dir / "s").glob("*.tags"))
    return {"tags": {"simulate": tags}, "failures": failures}


def files_analyze(args, phases: Phases) -> dict:
    sdir = args.dir / "s"
    failures = run_cli(phases, "analyze", ["analyze", str(sdir / "manifest.json")])
    path = sdir / "summary.json"
    if not failures:
        failures = summary_failures(json.loads(path.read_text()), null=True)
    return {
        "tags": {"analyze": tag_count(sdir.glob("*.tags"))},
        "failures": failures,
        "digest": file_digest(path) if path.exists() else None,
    }


def files_report(args, phases: Phases) -> dict:
    sdir = args.dir / "s"
    failures = run_cli(phases, "report", ["report", str(sdir / "summary.json")])
    if not failures and not any((sdir / "report").glob("*.csv")):
        failures = ["report wrote no CSV"]
    return {"tags": {}, "failures": failures}


def hardware_simulate(args, phases: Phases) -> dict:
    config = hardware_config(args.seed)
    with phases.phase("simulate"):
        run = session.simulate_run(config, 0)
        for station_id, stream in enumerate((run.tags_a, run.tags_b)):
            session.write_tags(
                TagFileHeader(station_id=station_id, record_count=len(stream)),
                (stream.channels, stream.times_ps.astype(np.uint64)),
                args.dir / f"run000_{'AB'[station_id]}.tags",
            )
    tags = len(run.tags_a) + len(run.tags_b)
    return {"tags": {"simulate": tags}, "failures": []}


def hardware_analyze(args, phases: Phases) -> dict:
    config = hardware_config(args.seed)
    with phases.phase("analyze"):
        _, ch_a, t_a = session.read_tag_arrays(args.dir / "run000_A.tags")
        _, ch_b, t_b = session.read_tag_arrays(args.dir / "run000_B.tags")
        run = session.RunData(
            0, config.run_settings()[0], TagStream(ch_a, t_a), TagStream(ch_b, t_b)
        )
        products = session.process_run(run, config)
    report = products.report.to_dict()
    # No session summary exists for a single run; the digest covers the sync
    # report and every coincidence record instead.
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    for column in vars(products.records).values():
        digest.update(np.ascontiguousarray(column).tobytes())
    return {
        "tags": {"analyze": ch_a.size + ch_b.size},
        "failures": sync_failures([report]),
        "digest": digest.hexdigest(),
    }


STEPS = {
    ("study_boosted", "session"): study_session,
    ("session_files", "simulate"): files_simulate,
    ("session_files", "analyze"): files_analyze,
    ("session_files", "report"): files_report,
    ("hardware_run", "simulate"): hardware_simulate,
    ("hardware_run", "analyze"): hardware_analyze,
}


# --- Tracing ----------------------------------------------------------------


def _count_emitted(tracer, result, *args, **kwargs):
    tracer.add("sim.emit_events.calls", 1)
    tracer.add("sim.tags_out", len(result[0]) + len(result[1]))


def _count_written(tracer, nbytes, *args, **kwargs):
    tracer.add("tagfmt.write_tags.bytes", nbytes)


def _count_read(tracer, result, *args, **kwargs):
    tracer.add("tagfmt.read_tag_arrays.bytes", HEADER_SIZE + RECORD_SIZE * result[1].size)


def _count_fit(tracer, fit, *args, **kwargs):
    tracer.keep_max("sync.residual_rms_ps", fit.residual_rms * 1e12)


def _count_assigned(tracer, det, *args, **kwargs):
    tracer.add("sync.detections_kept", len(det))
    tracer.add("sync.detections_dropped", det.dropped_before_first + det.dropped_after_last)


def _count_matched(tracer, records, events_a, events_b, *args, **kwargs):
    tracer.add("coinc.detections_in", len(events_a) + len(events_b))
    tracer.add("coinc.coincidences", len(records))
    # Pulse grouping costs about as much as part of the matching itself, so
    # it runs after the unit, outside every span.
    tracer.later.append(lambda: _count_pulses(tracer, events_a.pulse_number, events_b.pulse_number))


def _count_pulses(tracer, pa: np.ndarray, pb: np.ndarray) -> None:
    """Pulses with detections at both stations, and those among them that
    match_coincidences sends down its per-pulse greedy path."""
    common = np.intersect1d(pa, pb)
    na = np.searchsorted(pa, common, side="right") - np.searchsorted(pa, common)
    nb = np.searchsorted(pb, common, side="right") - np.searchsorted(pb, common)
    tracer.add("coinc.pulses_both", common.size)
    tracer.add("coinc.multi_detection_pulses", int(np.count_nonzero((na != 1) | (nb != 1))))


def traced_attributes(tracer: spans.Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, span recorder) for every call the pipeline makes
    through a module attribute, named <layer>.<function>."""
    table = [
        (session, "emit_events", "sim.emit_events", _count_emitted),
        (session, "write_tags", "tagfmt.write_tags", _count_written),
        (session, "read_tag_arrays", "tagfmt.read_tag_arrays", _count_read),
        (sync, "extract_period_series", "sync.extract_period_series", None),
        (sync, "align_pulse_numbering", "sync.align_pulse_numbering", None),
        (sync, "fit_clock_relation", "sync.fit_clock_relation", _count_fit),
        (sync, "assign_to_pulses", "sync.assign_to_pulses", _count_assigned),
        (coinc, "match_coincidences", "coinc.match_coincidences", _count_matched),
        (analysis, "bin_singles", "analysis.bin_singles", None),
        (analysis.SlotSeries, "__post_init__", "analysis.slot_series", None),
        (analysis, "plateau_summary", "analysis.plateau_summary", None),
        (analysis, "detect_transient", "analysis.detect_transient", None),
        (session, "process_run", "session.process_run", None),
        (session, "analyze_products", "session.analyze_products", None),
        (cli, "simulate_session", "session.simulate_session", None),
        (cli, "analyze_session", "session.analyze_session", None),
        (cli, "write_slots_csv", "session.write_slots_csv", None),
        (cli, "write_delta_t_csv", "session.write_delta_t_csv", None),
        (cli, "write_summary_json", "session.write_summary_json", None),
        (cli, "write_report_bundle", "session.write_report_bundle", None),
        (cli, "main", "cli.main", None),
    ]
    return [
        (owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        for owner, attr, name, count in table
    ]


def analyze_covered_s(recorded: list[dict]) -> float:
    """Time in the analyze phase covered by the outermost layer spans below
    the CLI entry."""
    return sum(
        s["end"] - s["start"]
        for s in recorded
        if s["phase"] == "analyze"
        and s["name"] != "cli.main"
        and (s["parent"] is None or recorded[s["parent"]]["name"] == "cli.main")
    )


# --- Entry ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted({w for w, _ in STEPS}))
    parser.add_argument("--setup", action="store_true", help="import and build configs only")
    parser.add_argument("--step")
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)

    if Path(bellstrobe.__file__).resolve().parent != (ROOT / "src" / "bellstrobe").resolve():
        print(f"bellstrobe imported from {bellstrobe.__file__}, not this tree", file=sys.stderr)
        return 2
    if args.setup:
        study_config(0, args.seed)
        hardware_config(args.seed)
        start = time.perf_counter()
        reference_seconds()  # warm-up, as in Phases
        ref = steady_reference()
        args.result.write_text(json.dumps({"ref": ref, "ref_total": time.perf_counter() - start}))
        return 0

    step = STEPS[(args.workload, args.step)]
    args.dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer()
    phases = Phases(tracer)
    if args.trace:
        with spans.patched(traced_attributes(tracer)):
            result = step(args, phases)
        for finish in tracer.later:
            finish()
        tracer.add("trace.analyze_covered_s", analyze_covered_s(tracer.spans))
    else:
        result = step(args, phases)
    result["times"] = phases.times
    result["ref"] = phases.finish()
    result["spans"] = tracer.spans
    result["span_times"] = spans.layer_times(tracer.spans)
    result["counts"] = dict(tracer.counts)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
