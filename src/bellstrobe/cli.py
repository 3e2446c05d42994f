"""Command-line entry points: simulate, analyze, report.

Configuration comes from a JSON file (schema documented in
docs/output-schemas.md); individual fields can be overridden with repeated
--set dotted.path=value flags. The output root defaults to the BELLSTROBE_OUT
environment variable, then to the current directory.

Exit codes: 0 ok, 2 a usage, config or library error, or an allocation
that failed (reported as one `error: ...` line on stderr; `error: out of
memory: ...` for the last). A command that fails writes nothing:
`simulate`, `analyze` and `report` remove the files they wrote, and the
directories they created, before they exit 2.

`main` keeps the memory a run frees on the heap for the next run (glibc's
`mallopt`); the library leaves its host process's allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import AnalysisError
from .config import ConfigError, ExperimentConfig, apply_overrides, desk_default
from .session import (
    analyze_session,
    simulate_session,
    summary_from_counts,
    whole_or_nothing,
    write_delta_t_csv,
    write_report_bundle,
    write_slots_csv,
    write_summary_json,
)
from .sync import SyncError
from .tagfmt import TagFormatError


# glibc's mallopt parameters, and the values its dynamic rule reaches at most
# on 64-bit: an mmap threshold of 32 MiB and twice that as the trim threshold.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _keep_freed_memory() -> None:
    """Serve blocks up to MMAP_THRESHOLD from the heap and keep up to
    TRIM_THRESHOLD of freed heap, so the arrays one run frees come back for
    the next instead of being unmapped and faulted in again. Setting either
    threshold turns off glibc's dynamic rule, so the trim threshold is set
    only once the mmap threshold took; a C library without `mallopt` is left
    as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _out_root(value: str | None) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get("BELLSTROBE_OUT", "."))


def _parse_set(values: list[str]) -> dict[str, object]:
    overrides: dict[str, object] = {}
    for item in values:
        if "=" not in item:
            raise ConfigError(f"--set expects path=value, got {item!r}")
        path, raw = item.split("=", 1)
        try:
            overrides[path] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[path] = raw  # bare strings are fine
    return overrides


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = desk_default()
    overrides = _parse_set(args.set or [])
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if overrides:
        config = apply_overrides(config, overrides)
    return config


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    outdir = _out_root(args.output) / args.name
    manifest = simulate_session(config, outdir)
    print(f"session {config.session_id()}: manifest at {manifest}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    summary = analyze_session(args.manifest)
    outdir = Path(args.manifest).parent if args.output is None else _out_root(args.output)
    with whole_or_nothing(outdir) as written:
        if summary.series is not None:
            written += [outdir / "slots.csv", outdir / "delta_t_hist.csv"]
            write_slots_csv(summary.series, outdir / "slots.csv")
            write_delta_t_csv(summary, outdir / "delta_t_hist.csv")
        written += [outdir / "summary.json", outdir / "counts.npz"]
        write_summary_json(summary, outdir / "summary.json", stamp=args.stamp)
        summary.counts.save(outdir / "counts.npz")
    if "transient" in summary.blocks:
        print(f"transient verdict: {summary.blocks['transient']['verdict']}")
    if summary.degraded:
        print("warning: summary is degraded (some runs were skipped)", file=sys.stderr)
    print(f"wrote {outdir / 'summary.json'}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    summary_path = Path(args.summary)
    # Every figure is a function of the session's summed counts, which
    # analyze saved as counts.npz next to the summary; no tag file is read.
    summary = summary_from_counts(summary_path)
    outdir = summary_path.parent / "report" if args.output is None else _out_root(args.output)
    written = write_report_bundle(summary, outdir)
    for p in written:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellstrobe",
        description="Stroboscopic pulsed Bell-test simulator and analysis pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a session into tag files")
    p_sim.add_argument("--config", help="config JSON (defaults to the desk preset)")
    p_sim.add_argument("--name", default="session", help="output subdirectory name")
    p_sim.add_argument("--output", help="output root (or $BELLSTROBE_OUT)")
    p_sim.add_argument("--seed", type=int, help="override the master seed")
    p_sim.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a config field, e.g. --set session.run_duration=1.0",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_ana = sub.add_parser("analyze", help="run the pipeline on a session manifest")
    p_ana.add_argument("manifest", help="the manifest.json that simulate wrote")
    p_ana.add_argument("--output", help="where to write slots.csv / summary.json")
    p_ana.add_argument(
        "--stamp",
        help="timestamp string to embed (omitted by default so outputs are "
        "byte-deterministic)",
    )
    p_ana.set_defaults(func=cmd_analyze)

    p_rep = sub.add_parser("report", help="emit figure-data CSV bundles")
    p_rep.add_argument(
        "summary", help="summary.json produced by analyze (counts.npz beside it)"
    )
    p_rep.add_argument("--output", help="report directory")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    _keep_freed_memory()
    try:
        return args.func(args)
    except (ConfigError, OSError, AnalysisError, SyncError, TagFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
