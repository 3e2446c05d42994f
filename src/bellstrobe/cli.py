"""Command-line entry points: simulate, analyze, report, selftest.

Configuration comes from a JSON file (schema documented in
docs/output-schemas.md); individual fields can be overridden with repeated
--set dotted.path=value flags. The output root defaults to the BELLSTROBE_OUT
environment variable, then to the current directory.

Exit codes: 0 ok, 1 a selftest check failed, 2 a usage, config or library
error (reported as one `error: ...` line on stderr).

`main` keeps the memory a run frees on the heap for the next run (glibc's
`mallopt`); the library leaves its host process's allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import model
from .analysis import AnalysisError
from .config import ConfigError, ExperimentConfig, apply_overrides, desk_default
from .session import (
    analyze_session,
    simulate_session,
    summary_from_counts,
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
    outdir.mkdir(parents=True, exist_ok=True)
    if summary.series is not None:
        write_slots_csv(summary.series, outdir / "slots.csv")
        write_delta_t_csv(summary, outdir / "delta_t_hist.csv")
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


def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    return ok


def cmd_selftest(args: argparse.Namespace) -> int:
    """Fast subset of the acceptance checks (the full set lives in the test
    suite; run `pytest tests/test_acceptance.py -v`)."""
    from . import coinc, tagfmt
    from .sim import PulsePlan

    ok = True
    acc = coinc.accidental_estimate(200.0, 200.0, 4e-9, 30.0)
    ok &= _check("accidental estimate", math.isclose(acc, 4.8e-3), f"{acc:.4g}")

    n1 = model.min_counts_for_gap(0.052, 1.0)
    n3 = model.min_counts_for_gap(0.052, 3.0)
    ok &= _check("significance thresholds", n1 == 370 and n3 == 3329, f"{n1}, {n3}")

    s = model.chsh_ideal(model.visibility_from_contrast(100.0))
    ok &= _check("contrast calibration", abs(s - 2.772) < 0.005, f"S = {s:.4f}")

    scan = model.scan_qm_classical_gap()
    at_quad = model.qm_classical_gap()
    ok &= _check(
        "quantum-classical gap",
        abs(scan - 0.052) < 1e-3 and abs(at_quad - 0.052) < 1e-3,
        f"scan {scan:.4f}, at pi/8 {at_quad:.4f}",
    )

    rng = np.random.default_rng(7)
    n = 10_000
    deltas = np.cumsum(rng.integers(1, 1000, n).astype(np.uint64))
    channels = rng.integers(1, 4, n).astype(np.uint8)
    order = np.lexsort((channels, deltas))
    import io

    buf = io.BytesIO()
    size = tagfmt.write_tags(
        tagfmt.TagFileHeader(station_id=0, record_count=n),
        (channels[order], deltas[order]),
        buf,
    )
    _, ch2, t2 = tagfmt.read_tag_arrays(buf.getvalue())
    ok &= _check(
        "tag format round trip",
        size == 40 + 16 * n
        and np.array_equal(ch2, channels[order])
        and np.array_equal(t2.astype(np.uint64), deltas[order]),
        f"{size} bytes",
    )

    starts = PulsePlan().start_times(3)  # the first FM bits are 0
    ok &= _check("trigger train", np.allclose(starts, [0.0, 2e-6, 4e-6]))

    print("selftest:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


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

    p_self = sub.add_parser("selftest", help="run the quick acceptance subset")
    p_self.set_defaults(func=cmd_selftest)
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


if __name__ == "__main__":
    sys.exit(main())
