"""Session orchestration: simulate runs to tag files, run the full analysis
pipeline (read -> sync -> coincide -> bin -> statistics -> verdicts), and emit
plot-ready report bundles.

A session is one config + master seed; its runs cycle the settings. Data from
different sessions are never accumulated together.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import analysis as ana
from . import coinc as co
from . import sync as sy
from .config import ConfigError, ExperimentConfig, SCHEMA_VERSION
from .model import OUTCOME_LABELS, AngleSetting, TSIRELSON
from .sim import CHANNEL_TRIGGER, PS_PER_SECOND, TagStream, emit_events
from .tagfmt import TagFileHeader, TagFormatError, read_tag_arrays, write_tags

log = logging.getLogger("bellstrobe")


@dataclass
class RunData:
    """One simulated or loaded run: both stations' local-clock tag streams."""

    index: int
    setting_label: str
    tags_a: TagStream
    tags_b: TagStream


@dataclass
class SyncReport:
    run_index: int
    fit: sy.ClockFit
    dropped_a: int
    dropped_b: int

    def to_dict(self) -> dict:
        return {
            "run": self.run_index,
            "pulse_offset": self.fit.pulse_offset,
            "time_offset_s": self.fit.time_offset,
            "rate_ratio": self.fit.rate_ratio,
            "residual_rms_s": self.fit.residual_rms,
            "dropped_a": self.dropped_a,
            "dropped_b": self.dropped_b,
        }


@dataclass
class SessionSummary:
    """One session's products. Every block of summary.json that its counts
    and config alone determine is built on construction into `blocks`, as
    summary.json stores it, by `analyze` and `report` alike: mode and
    expectations, then in chsh_4 mode plateau, `tables` (on-grid per-setting
    totals), transient, `eq1`, significance and, with two defined in-pulse
    slots, flatness; in scan_34 mode the fringe fits of every coincidence's
    totals. The CLI's verdict line, the not-testable warning and
    plateau_vs_expected.txt read `blocks`; `series` keeps the per-slot arrays
    slots.csv and the report's series files are written from, and is None in
    scan_34 mode."""

    counts: ana.SlotCounts
    config: ExperimentConfig
    sync_reports: list[SyncReport] = field(default_factory=list)  # one per used run
    runs_glitched: int = 0
    runs_skipped: list[dict] = field(default_factory=list)  # {run, reason}
    blocks: dict = field(init=False)
    series: ana.SlotSeries | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        counts, config = self.counts, self.config
        eta_a, eta_b = config.station_a.detector_efficiency, config.station_b.detector_efficiency
        expectations = {
            "s_ideal": TSIRELSON * config.visibility,
            "visibility": config.visibility,
            # eta measured at a detector estimates the OTHER station's efficiency
            "eta0": {"A+": eta_b, "A-": eta_b, "B+": eta_a, "B-": eta_a},
        }
        blocks = self.blocks = {"mode": config.session.mode, "expectations": expectations}
        if config.session.mode == "scan_34":
            blocks["scan_fits"] = ana.angle_scan_curves(
                counts.setting_angles[:, 1], counts.totals()
            )
            return
        series = self.series = ana.SlotSeries(counts)
        blocks["plateau"] = ana.plateau_summary(series)
        blocks["tables"] = {
            lab: dict(zip(OUTCOME_LABELS, map(int, totals)))
            for lab, totals in zip(counts.setting_labels, counts.coincidences.sum(axis=1))
        }
        analysis = config.analysis
        significant = ana.significance_mask(counts.coincidences, analysis.min_coincidences)
        try:
            chi2, dof = ana.chi_square_vs_constant(series.s, series.sigma_s, series.in_pulse)
            blocks["flatness"] = {"chi2_reduced": chi2, "dof": dof}
        except ana.AnalysisError:
            pass
        blocks["transient"] = ana.detect_transient(
            series.s, series.sigma_s, significant, tau=config.geometry.tau,
            slot_width=counts.grid.slot_ps / PS_PER_SECOND, k_sigma=analysis.k_sigma,
        )
        blocks["eq1"] = _eq1_block(series, expectations)
        blocks["significance"] = {
            "min_coincidences": analysis.min_coincidences,
            "n_significant_slots": int(significant.sum()),
            "n_in_pulse_slots": int(series.in_pulse.sum()),
        }

    @property
    def session_id(self) -> str:
        return self.counts.session_id

    @property
    def runs_used(self) -> int:
        return len(self.sync_reports)

    @property
    def runs_total(self) -> int:  # every run is used, glitched or skipped
        return self.runs_used + self.runs_glitched + len(self.runs_skipped)

    @property
    def degraded(self) -> bool:
        return bool(self.runs_skipped)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "session_id": self.session_id,
            "runs": {
                "total": self.runs_total,
                "used": self.runs_used,
                "glitched": self.runs_glitched,
                "skipped": self.runs_skipped,
            },
            "degraded": self.degraded,
            "config": self.config.to_dict(),
            "sync": [r.to_dict() for r in self.sync_reports],
            **self.blocks,
        }


# --- Simulation -------------------------------------------------------------


def plan_runs(config: ExperimentConfig) -> list[dict]:
    """The session's run records, as the manifest's `runs` list holds them.
    A run is "glitched" (simulated and written, never analysed) with
    probability session.glitch_probability, drawn from the seed's last
    spawned child; else "ok"."""
    session, labels = config.session, config.run_settings()
    seeds = np.random.SeedSequence(config.master_seed).spawn(len(labels) + 1)
    glitched = np.random.default_rng(seeds[-1]).random(len(labels)) < session.glitch_probability
    angles = config.setting_angles()
    return [
        {
            "index": i,
            "setting": label,
            "alpha": angles[label][0],
            "beta": angles[label][1],
            "file_a": f"run{i:03d}_A.tags",
            "file_b": f"run{i:03d}_B.tags",
            "session_time": i * (session.run_duration + session.dead_time),
            "duration": session.run_duration,
            "status": "glitched" if bad else "ok",
        }
        for i, (label, bad) in enumerate(zip(labels, glitched))
    ]


def simulate_run(config: ExperimentConfig, run_index: int) -> RunData:
    """Simulate one run; deterministic in (config, master_seed, run_index)."""
    plan = plan_runs(config)
    if not 0 <= run_index < len(plan):
        raise ValueError(f"run_index {run_index} outside the session plan")
    meta = plan[run_index]
    tags_a, tags_b = emit_events(
        config.pulses,
        config.pulses_per_run(),
        config.source,
        (config.station_a, config.station_b),
        AngleSetting(meta["alpha"], meta["beta"]),
        config.visibility,
        np.random.SeedSequence(config.master_seed).spawn(len(plan) + 1)[run_index],
        session_time=meta["session_time"],
    )
    return RunData(run_index, meta["setting"], tags_a, tags_b)


def iter_simulated_runs(config: ExperimentConfig) -> Iterable[RunData]:
    for i in range(config.session.runs_per_experiment):
        yield simulate_run(config, i)


@contextmanager
def whole_or_nothing(outdir: Path) -> Iterator[list[Path]]:
    """Create `outdir` and yield a list for each file written into it, each
    added before it is written. On any error in the block those files are
    removed, and the directories this call created, before it propagates; a
    directory standing where a file was to go was not written here and stays."""
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        yield written
    except BaseException:
        for path in written:
            if not path.is_dir():
                path.unlink(missing_ok=True)
        for directory in created:
            directory.rmdir()
        raise


def simulate_session(config: ExperimentConfig, outdir: str | Path) -> Path:
    """Simulate every run of `plan_runs` into its two tag files, then write
    the records as the manifest; returns its path. A session is written
    whole or not at all (`whole_or_nothing`)."""
    outdir = Path(outdir)
    records = plan_runs(config)
    with whole_or_nothing(outdir) as written:
        for meta in records:
            run = simulate_run(config, meta["index"])
            streams = {outdir / meta["file_a"]: run.tags_a, outdir / meta["file_b"]: run.tags_b}
            for station_id, (path, stream) in enumerate(streams.items()):
                written.append(path)
                write_tags(
                    TagFileHeader(station_id=station_id, record_count=len(stream)),
                    (stream.channels, stream.times_ps),
                    path,
                )

        manifest = {
            "schema_version": SCHEMA_VERSION,
            "session_id": config.session_id(),
            "mode": config.session.mode,
            "config": config.to_dict(),
            "runs": records,
        }
        manifest_path = outdir / "manifest.json"
        written.append(manifest_path)
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


# --- Analysis ---------------------------------------------------------------


@dataclass
class RunProducts:
    """Per-run pipeline output: coincidence records with shared (station A)
    pulse numbering, the sync report and the run's binned counts."""

    records: co.Coincidences
    report: SyncReport
    counts: ana.SlotCounts


def _zero_counts(config: ExperimentConfig) -> ana.SlotCounts:
    """Empty counts in the session's layout: slots over one base period, or
    in scan_34 mode a single slot spanning it."""
    period_ps = config.period_ps
    slot_ps = period_ps if config.session.mode == "scan_34" else config.analysis.slot_ps
    grid = ana.SlotGrid(slot_ps, period_ps // slot_ps)  # ExperimentConfig checks the division
    labels, angles = config.setting_labels(), config.setting_angles()
    edges = co.delta_t_edges(config.analysis.window_ps)
    return ana.SlotCounts.zeros(
        config.session_id(), grid, labels, [angles[lab] for lab in labels], edges
    )


def _expected_residual(config: ExperimentConfig) -> float:
    """The clock fit's residual_rms for an intact run, in seconds: the two
    stations' clock jitter and the rounding of two stamps to the 1 ps grid
    (1/sqrt(6) ps), in quadrature."""
    return math.hypot(
        config.station_a.clock.jitter_sigma,
        config.station_b.clock.jitter_sigma,
        1 / math.sqrt(6) / PS_PER_SECOND,
    )


def process_run(run: RunData, config: ExperimentConfig) -> RunProducts:
    """Sync, assign, match and bin one run's tag streams. A run whose
    triggers do not follow one clock relation raises ClockFitError."""
    trig_a = run.tags_a.times_ps[run.tags_a.channels == CHANNEL_TRIGGER]
    trig_b = run.tags_b.times_ps[run.tags_b.channels == CHANNEL_TRIGGER]
    offset = sy.align_pulse_numbering(trig_a, trig_b)
    fit = sy.fit_clock_relation(trig_a, trig_b, offset, _expected_residual(config))

    delay_a, delay_b = config.trigger_delays_ps
    det_a = sy.assign_to_pulses(run.tags_a, trig_a, delay_a, config.period_ps)
    det_b = sy.assign_to_pulses(run.tags_b, trig_b, delay_b, config.period_ps)
    det_b.pulse_number += offset  # B's own array, renumbered into A's pulse frame

    records = co.match_coincidences(det_a, det_b, config.analysis.window_ps)
    report = SyncReport(
        run_index=run.index,
        fit=fit,
        dropped_a=det_a.dropped_before_first + det_a.dropped_after_last,
        dropped_b=det_b.dropped_before_first + det_b.dropped_after_last,
    )
    counts = _zero_counts(config)
    counts.add_run(run.setting_label, (det_a, det_b), records)
    return RunProducts(records, report, counts)


def analyze_products(
    products: Iterable[RunProducts],
    config: ExperimentConfig,
    runs_glitched: int = 0,
    skipped: Sequence[dict] = (),
) -> SessionSummary:
    """Fold processed runs of one session into the full summary.

    `products` is iterated once: each run's counts are added into one
    SlotCounts started from `_zero_counts(config)`, and only its sync report
    is kept. `skipped` is read after that; it holds one `{"run", "reason"}`
    entry per ok-marked run that could not be processed, and any entry marks
    the summary degraded."""
    counts, reports = _zero_counts(config), []
    for p in products:
        counts += p.counts
        reports.append(p.report)
    if not reports:
        raise ana.AnalysisError("no usable runs to analyze")
    summary = SessionSummary(counts, config, reports, runs_glitched, list(skipped))
    transient = summary.blocks.get("transient", {})
    if transient.get("verdict") == "not_testable":
        log.warning("transient test not run: %s", transient["reason"])
    return summary


def _eq1_block(series: ana.SlotSeries, expectations: dict) -> dict:
    """Product-bound bookkeeping for the headline detector A+ (row 0).

    The measured product must stay below 2 everywhere (limited efficiency);
    under fair sampling, dividing by the configured eta0 should recover the
    ideal 2*sqrt(2)*V on the plateau.
    """
    prod = series.product[0]
    sig = series.sigma_product[0]
    defined = ~np.isnan(prod)
    eta0 = expectations["eta0"]["A+"]

    plateau_sel = series.in_pulse & defined
    rescaled_mean = float(np.mean(prod[plateau_sel]) / eta0) if plateau_sel.any() else math.nan
    rescaled_sigma = (
        float(np.sqrt(np.mean(sig[plateau_sel] ** 2) / plateau_sel.sum()) / eta0)
        if plateau_sel.any()
        else math.nan
    )
    expected = expectations["s_ideal"]
    return {
        "detector": "A+",
        "max_defined_product": float(np.nanmax(prod)) if defined.any() else math.nan,
        "bound_respected": bool(np.all(prod[defined] < 2.0)) if defined.any() else None,
        "rescaled_plateau_mean": rescaled_mean,
        "rescaled_plateau_sigma": rescaled_sigma,
        "rescaled_expectation": expected,
        "fair_sampling_consistent": (
            bool(abs(rescaled_mean - expected) < 3.0 * rescaled_sigma)
            if not math.isnan(rescaled_mean)
            else None
        ),
    }


def _run_session(
    records: Sequence[dict], load: Callable[[dict], RunData], config: ExperimentConfig
) -> SessionSummary:
    """The one session run loop: `analyze_products` folds the ok runs, each
    loaded and processed only when the fold asks for it. A glitched run is
    counted, and a run whose load or processing raises TagFormatError,
    SyncError or OSError is skipped with its reason."""
    ok = [meta for meta in records if meta["status"] == "ok"]
    skipped: list[dict] = []

    def processed() -> Iterator[RunProducts]:
        for meta in ok:
            try:
                yield process_run(load(meta), config)
            except (TagFormatError, sy.SyncError, OSError) as exc:
                log.warning("skipping run %s: %s", meta["index"], exc)
                skipped.append({"run": meta["index"], "reason": str(exc)})

    return analyze_products(processed(), config, len(records) - len(ok), skipped)


def run_session_in_memory(config: ExperimentConfig) -> SessionSummary:
    """Simulate and analyze a whole session without touching disk, with the
    run plan, glitches and per-run skips of `simulate` then `analyze`."""
    return _run_session(
        plan_runs(config), lambda meta: simulate_run(config, meta["index"]), config
    )


def _read_json_object(path: Path, keys: Sequence[str]) -> dict:
    """The JSON object in `path` if it has every key in `keys`; else
    AnalysisError naming `path` and that it is not JSON, or each missing key."""
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ana.AnalysisError(f"{path}: not valid JSON ({exc})") from exc
    top = data if isinstance(data, dict) else {}
    missing = [key for key in keys if key not in top]
    if missing:
        raise ana.AnalysisError(f"{path}: missing key(s) {', '.join(missing)}")
    return top


def _stored_config(path: Path, data: dict) -> ExperimentConfig:
    """The config stored in the JSON object read from `path`; a ConfigError
    names that file."""
    try:
        return ExperimentConfig.from_dict(data["config"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: config: {exc}") from exc


RUN_RECORD_TYPES = {"index": int, "setting": str, "status": str, "file_a": str, "file_b": str}


def _read_manifest(path: Path) -> dict:
    """Parsed manifest, or AnalysisError naming `path` and what is wrong:
    `runs` must be a list of run records, each with an integer `index` (not
    a bool) that no other record has, string `setting`, `file_a` and
    `file_b`, and a `status` of "ok" or "glitched"."""
    data = _read_json_object(path, ("session_id", "config", "runs"))
    records = data["runs"]
    if not isinstance(records, list):
        raise ana.AnalysisError(f"{path}: runs is not a list")
    missing = [
        f"runs[{n}].{key}"
        for n, meta in enumerate(records)
        for key in RUN_RECORD_TYPES
        if not isinstance(meta, dict) or key not in meta
    ]
    if missing:
        raise ana.AnalysisError(f"{path}: missing key(s) {', '.join(missing)}")
    first_of: dict[int, int] = {}
    for n, meta in enumerate(records):
        for key, kind in RUN_RECORD_TYPES.items():
            if type(meta[key]) is not kind:
                what = "an integer" if kind is int else "a string"
                raise ana.AnalysisError(f"{path}: runs[{n}].{key} is not {what}")
        if meta["status"] not in ("ok", "glitched"):
            raise ana.AnalysisError(
                f"{path}: runs[{n}].status is {meta['status']!r}, not 'ok' or 'glitched'"
            )
        m = first_of.setdefault(meta["index"], n)
        if m != n:
            raise ana.AnalysisError(
                f"{path}: runs[{n}].index {meta['index']} repeats runs[{m}].index"
            )
    return data


def _read_run(directory: Path, meta: dict) -> RunData:
    """A manifest run record's two tag files. A TagFormatError names the
    file: the reader's own, or one raised when the header's station_id is
    not 0 for file_a and 1 for file_b."""
    streams = []
    for station_id, key in enumerate(("file_a", "file_b")):
        try:
            header, channels, times = read_tag_arrays(directory / meta[key])
        except TagFormatError as exc:
            raise TagFormatError(f"{meta[key]}: {exc}") from exc
        if header.station_id != station_id:
            raise TagFormatError(
                f"{meta[key]}: station_id {header.station_id} in a file listed as "
                f"{key} (station {'AB'[station_id]} is {station_id})"
            )
        streams.append(TagStream(channels, times))
    return RunData(meta["index"], meta["setting"], *streams)


def analyze_session(manifest_path: str | Path) -> SessionSummary:
    """File-based analysis of the session a manifest lists. A config the
    decoder refuses is a ConfigError naming the manifest. Every run record's
    setting must be one of the config's, checked before any run is read.

    Unreadable ok-marked runs are skipped with a warning and mark the
    summary degraded; zero usable runs is an error.
    """
    path = Path(manifest_path)
    manifest = _read_manifest(path)
    config = _stored_config(path, manifest)
    labels = config.setting_labels()
    for n, meta in enumerate(manifest["runs"]):
        if meta["setting"] not in labels:
            raise ana.AnalysisError(
                f"{path}: runs[{n}].setting {meta['setting']!r} is not one of {labels}"
            )
    return _run_session(manifest["runs"], lambda meta: _read_run(path.parent, meta), config)


# --- Emission of results ----------------------------------------------------

SLOTS_CSV_VERSION = 1


def _write_csv(
    path: str | Path, columns: dict[str, Sequence], first_row: Sequence[str] = ()
) -> None:
    """`first_row` if given, the header of `columns`' names, then one row per
    index of their equal-length value lists."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if first_row:
            writer.writerow(first_row)
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))


def _formatted(values: np.ndarray, spec: str = ".6g") -> list[str]:
    """Each value in `spec`; NaN (an undefined slot) as an empty field."""
    return ["" if math.isnan(x) else format(x, spec) for x in values.tolist()]


def _slot_columns(series: ana.SlotSeries) -> dict[str, list]:
    """Every slots.csv column by its header, each value formatted once."""
    counts = series.counts
    grid, labels = counts.grid, counts.setting_labels
    columns: dict[str, list] = {
        "slot": list(range(grid.n_slots)),
        "t_start_ns": _formatted(grid.starts() * 1e9, ".3f"),
        "t_center_ns": _formatted(grid.centers() * 1e9, ".3f"),
    }
    columns.update(zip([f"singles_{d}" for d in ana.DETECTOR_KEYS], counts.singles.tolist()))
    totals = counts.coincidences.sum(axis=2).tolist()
    columns.update(zip([f"coinc_total_{lab}" for lab in labels], totals))
    pairs = [(f"E_{lab}", e, s) for lab, e, s in zip(labels, series.e, series.sigma_e)]
    pairs.append(("S", series.s, series.sigma_s))
    pairs += [
        (f"eta_{d}", e, s) for d, e, s in zip(ana.DETECTOR_KEYS, series.eta, series.sigma_eta)
    ]
    pairs.append(("product_A+", series.product[0], series.sigma_product[0]))
    for name, value, sigma in pairs:
        columns[name] = _formatted(value)
        columns[f"sigma_{name}"] = _formatted(sigma)
    return columns


def write_slots_csv(series: ana.SlotSeries, path: str | Path) -> None:
    """One row per slot with every reconstructed series (schema v1, see
    docs/output-schemas.md)."""
    _write_csv(path, _slot_columns(series), [f"# bellstrobe slots csv v{SLOTS_CSV_VERSION}"])


def write_delta_t_csv(summary: SessionSummary, path: str | Path) -> None:
    """Diagnostic histogram of coincidence B-minus-A time differences."""
    edges_ns = summary.counts.delta_t_edges / 1e3
    _write_csv(path, {
        "bin_low_ns": _formatted(edges_ns[:-1], ".4f"),
        "bin_high_ns": _formatted(edges_ns[1:], ".4f"),
        "counts": summary.counts.delta_t_counts.tolist(),
    })


def _json_safe(obj):
    """NaN/inf become null so the summary stays strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_summary_json(
    summary: SessionSummary, path: str | Path, stamp: str | None = None
) -> None:
    data = _json_safe(summary.to_dict())
    if stamp is not None:
        data["generated_at"] = stamp
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# The blocks of summary.json that are not functions of the counts and config.
PER_RUN_KEYS = ("runs", "sync", "degraded", "generated_at")


def summary_from_counts(summary_path: str | Path) -> SessionSummary:
    """The summary `analyze` wrote, rebuilt by the same constructor from the
    counts.npz next to `summary_path` and the config stored in it; no tag
    file or manifest is read, and the per-run fields stay empty.

    Raises AnalysisError naming the file when either file is missing or
    unreadable or the summary has no `config`, ConfigError naming the summary
    when its config does not decode, and AnalysisError naming both files
    when the counts are of another session than the config, their slot grid,
    settings or delta_t edges are not the ones the config gives
    (`SlotCounts.layout_differences`), or a block other than PER_RUN_KEYS
    differs from the rebuild's."""
    summary_path = Path(summary_path)
    counts_path = summary_path.parent / "counts.npz"
    if not summary_path.exists():
        raise ana.AnalysisError(f"no analysis summary at {summary_path}")
    if not counts_path.exists():
        raise ana.AnalysisError(f"no {counts_path}; run bellstrobe analyze to write it")
    data = _read_json_object(summary_path, ["config"])
    config = _stored_config(summary_path, data)
    try:
        counts = ana.SlotCounts.load(counts_path)
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise ana.AnalysisError(f"{counts_path}: unreadable counts ({exc})") from exc
    if counts.session_id != config.session_id():
        raise ana.AnalysisError(
            f"{counts_path}: counts of session {counts.session_id}, not of "
            f"{config.session_id()}, the session of the config in {summary_path}"
        )
    differ = _zero_counts(config).layout_differences(counts)
    if differ:
        raise ana.AnalysisError(
            f"{counts_path}: the config in {summary_path} gives another "
            f"{', '.join(differ)}"
        )
    summary = SessionSummary(counts, config)
    rebuilt = json.loads(json.dumps(_json_safe(summary.to_dict())))
    differ = [
        key
        for key in sorted(rebuilt.keys() | data.keys())
        if key not in PER_RUN_KEYS and rebuilt.get(key) != data.get(key)
    ]
    if differ:
        raise ana.AnalysisError(
            f"{summary_path}: block(s) {', '.join(differ)} differ from their "
            f"rebuild from {counts_path}"
        )
    return summary


REPORT_ZOOM_NS = 100.0  # the zoom CSVs hold the slots starting before this


def write_report_bundle(summary: SessionSummary, outdir: str | Path) -> list[Path]:
    """Plot-ready CSV subsets: full-period and first-REPORT_ZOOM_NS series for
    S, eta and the product at detector A+; the 16-type coincidence grid; plus
    a comparison table of plateau values against configured expectations.
    Written whole or not at all (`whole_or_nothing`); returns the paths."""
    outdir = Path(outdir)
    with whole_or_nothing(outdir) as written:
        series, counts = summary.series, summary.counts
        if series is None:
            p = outdir / "scan_curves.csv"
            written.append(p)
            _write_csv(p, {
                "beta_rad": _formatted(counts.setting_angles[:, 1]),
                **dict(zip(["n_pp", "n_pm", "n_mp", "n_mm"], counts.totals().T.tolist())),
            })
            return written

        # Each series file is three slots.csv columns under new headers; a zoom
        # file holds the leading rows, the slots that start before REPORT_ZOOM_NS.
        slots = _slot_columns(series)
        n_zoom = int(np.count_nonzero(counts.grid.starts() * 1e9 < REPORT_ZOOM_NS))
        for tag, n_rows in (("full", counts.grid.n_slots), ("zoom", n_zoom)):
            for stem, header, name in (
                ("s_chsh", "S", "S"),
                ("eta_Aplus", "eta", "eta_A+"),
                ("product_Aplus", "product", "product_A+"),
            ):
                p = outdir / f"{stem}_{tag}.csv"
                written.append(p)
                picked = {"t_center_ns": "t_center_ns", header: name, "sigma": f"sigma_{name}"}
                _write_csv(p, {new: slots[old][:n_rows] for new, old in picked.items()})

        # Long format: setting, then outcome, then slot varies fastest.
        n_settings, n_slots, n_outcomes = counts.coincidences.shape
        p = outdir / "coincidences_16types.csv"
        written.append(p)
        _write_csv(p, {
            "setting": np.repeat(counts.setting_labels, n_outcomes * n_slots).tolist(),
            "outcome": np.tile(np.repeat(OUTCOME_LABELS, n_slots), n_settings).tolist(),
            "slot": np.tile(np.arange(n_slots), n_settings * n_outcomes).tolist(),
            "t_center_ns": slots["t_center_ns"] * (n_settings * n_outcomes),
            "counts": counts.coincidences.transpose(0, 2, 1).ravel().tolist(),
        })

        pl, exp = summary.blocks["plateau"], summary.blocks["expectations"]
        lines = [
            "quantity            measured          expected",
            f"time-avg S          {pl['time_avg_s']:.4f} +- {pl['time_dispersion_s']:.4f}"
            f"  {exp['s_ideal']:.4f}",
            f"all-data S          {pl['all_data_s']:.4f} +- {pl['all_data_s_sigma']:.4f}"
            f"  {exp['s_ideal']:.4f}",
        ]
        for det in ana.DETECTOR_KEYS:
            lines.append(
                f"time-avg eta {det}     {pl['time_avg_eta'][det]:.4f} +- "
                f"{pl['time_dispersion_eta'][det]:.4f}  {exp['eta0'][det]:.4f}"
            )
            lines.append(
                f"all-data eta {det}     {pl['all_data_eta'][det]:.4f} +- "
                f"{pl['all_data_eta_sigma'][det]:.4f}  (< in-pulse with darks on)"
            )
        p = outdir / "plateau_vs_expected.txt"
        written.append(p)
        p.write_text("\n".join(lines) + "\n")
    return written
