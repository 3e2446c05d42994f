"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The 100-repetition studies
(criteria 5 and 6) are shared session-scoped fixtures from conftest; the whole
module runs in a few minutes on a desk machine.
"""

import hashlib
import io
import json
import math

import numpy as np
import pytest

from bellstrobe import model
from bellstrobe.coinc import accidental_estimate
from bellstrobe.config import desk_boosted, desk_transient
from bellstrobe.session import analyze_session, simulate_session
from bellstrobe.sim import ClockModel, PulsePlan
from bellstrobe.sync import align_pulse_numbering, fit_clock_relation
from bellstrobe.tagfmt import TagFileHeader, read_tag_arrays, write_tags
from conftest import DEMO_SEED, run_sessions


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_01_accidental_arithmetic():
    got = accidental_estimate(200.0, 200.0, 4e-9, 30.0)
    assert got == pytest.approx(4.8e-3, rel=1e-12)
    assert abs(got - 5e-3) < 1e-3  # conventional round figure ~5e-3
    report("criterion 1", f"accidental_estimate = {got:.4g} (~5e-3)")


def test_criterion_02_significance_thresholds():
    exact = (1 / 0.052) ** 2
    assert exact == pytest.approx(369.82, abs=0.01)  # conventionally rounded to 368
    assert model.min_counts_for_gap(0.052, 1) == 370
    n3 = model.min_counts_for_gap(0.052, 3)
    assert n3 == 3329
    factor = n3 / 1000
    assert 3.0 < factor < 3.5  # the ~1e3-per-slot working criterion is a
    # 3.3x relaxation of the full 3-sigma requirement
    report(
        "criterion 2",
        f"min counts {model.min_counts_for_gap(0.052, 1)} (exact {exact:.1f}); "
        f"3-sigma needs {n3} = {factor:.2f} x the 1e3/slot working criterion",
    )


def test_criterion_03_contrast_calibration():
    s = model.chsh_ideal(model.visibility_from_contrast(100.0))
    assert s == pytest.approx(2.772, abs=0.005)
    report("criterion 3", f"S(contrast 1:100) = {s:.4f} (target 2.772 +- 0.005)")


def test_criterion_04_gap_verification():
    # independent brute-force oracle over the angle difference
    d = np.arange(0.0, math.pi / 2, 1e-4)
    gap = np.abs(0.25 * (1 + np.cos(2 * d)) - 0.5 * (1 - 2 * d / math.pi))
    assert abs(gap.max() - 0.052) < 1e-3
    for delta in (math.pi / 8, 3 * math.pi / 8):
        g = abs(
            float(model.qm_coincidence_prob(delta))
            - float(model.classical_coincidence_prob(delta))
        )
        assert abs(g - 0.052) < 1e-3
    scanned = model.scan_qm_classical_gap(step=1e-4)
    assert scanned == pytest.approx(gap.max(), abs=1e-9)
    report(
        "criterion 4",
        f"scan max gap {scanned:.4f}; gap at pi/8 and 3pi/8 = "
        f"{model.qm_classical_gap():.4f}",
    )


def test_criterion_05_null_end_to_end(tmp_path, null_study):
    # single file-based session at the pinned seed
    config = desk_boosted(seed=DEMO_SEED)
    manifest = simulate_session(config, tmp_path / "null")
    summary = analyze_session(manifest)
    ideal = summary.blocks["expectations"]["s_ideal"]

    pl = summary.plateau
    assert abs(pl.all_data_s - ideal) < 3 * pl.all_data_s_sigma
    flatness = summary.blocks["flatness"]
    chi2, dof = flatness["chi2_reduced"], flatness["dof"]
    assert 0.7 <= chi2 <= 1.3
    in_pulse = summary.counts.coincidences.sum(axis=2).min(axis=0)[
        pl.in_pulse_range[0] : pl.in_pulse_range[1]
    ]
    assert in_pulse.min() >= 1000
    assert summary.transient.kind == "none"

    # 100 seeded repetitions: the verdict must stay "none" in >= 95
    verdicts = [s.transient.kind for s in null_study]
    n_none = verdicts.count("none")
    assert n_none >= 95
    report(
        "criterion 5",
        f"plateau S {pl.all_data_s:.4f} vs {ideal:.4f} "
        f"({abs(pl.all_data_s - ideal) / pl.all_data_s_sigma:.2f} sigma), "
        f"chi2/dof {chi2:.3f}/{dof}, min in-pulse slot {in_pulse.min()}, "
        f"null verdicts none {n_none}/100",
    )


def test_criterion_06_transient_end_to_end(transient_monotone_study, transient_oscillatory_study):
    tau = desk_boosted().geometry.tau
    slot = desk_boosted().analysis.slot_width
    max_slot = math.floor(2 * tau / slot + 1e-9)

    def hits(study):
        n = 0
        for s in study:
            v = s.transient
            if v.kind == "deviation" and v.slot_range[1] <= max_slot:
                n += 1
        return n

    mono = hits(transient_monotone_study)
    osc = hits(transient_oscillatory_study)
    assert mono >= 95
    assert osc >= 90
    report(
        "criterion 6",
        f"monotone detected in first 2*tau: {mono}/100 (need 95); "
        f"oscillatory: {osc}/100 (need 90)",
    )


def test_criterion_07_synchronization():
    starts = PulsePlan().start_times(16_000)
    rng = np.random.default_rng(2026)

    def station(first, clock):
        t = starts[first:]
        local = clock.offset + (1 + clock.drift_rate) * t
        local = local + rng.normal(0, clock.jitter_sigma, t.size)
        return np.sort(np.rint(local * 1e12).astype(np.int64))  # trigger times, ps

    wins = 0
    worst_ppm = 0.0
    for _ in range(100):
        offset = int(rng.integers(-1000, 1001))
        clk_a = ClockModel(drift_rate=rng.uniform(-50e-6, 50e-6), jitter_sigma=2e-9)
        clk_b = ClockModel(
            offset=rng.uniform(0, 1e-3),
            drift_rate=rng.uniform(-50e-6, 50e-6),
            jitter_sigma=2e-9,
        )
        a = station(max(0, -offset), clk_a)
        b = station(max(0, offset), clk_b)
        got = align_pulse_numbering(a, b)
        fit = fit_clock_relation(a, b, got)
        true_ratio = (1 + clk_b.drift_rate) / (1 + clk_a.drift_rate)
        err_ppm = abs(fit.rate_ratio - true_ratio) * 1e6
        worst_ppm = max(worst_ppm, err_ppm)
        wins += got == offset and err_ppm < 0.05
    assert wins == 100
    report("criterion 7", f"100/100 offsets exact; worst rate error {worst_ppm:.4f} ppm")


def test_criterion_08_stroboscopic_consistency(default_session):
    pl = default_session.plateau
    sigma_cmp = math.hypot(
        pl.all_data_s_sigma, pl.time_dispersion_s / math.sqrt(pl.n_in_pulse)
    )
    assert abs(pl.time_avg_s - pl.all_data_s) < 2 * sigma_cmp
    assert pl.s_consistent
    # dark counts inflate the all-data singles: all-data eta < in-pulse eta
    assert pl.all_data_eta["A+"] < pl.time_avg_eta["A+"]
    report(
        "criterion 8",
        f"time-avg S {pl.time_avg_s:.4f} vs all-data {pl.all_data_s:.4f} "
        f"(|diff| {abs(pl.time_avg_s - pl.all_data_s):.4f} < 2 sigma "
        f"{2 * sigma_cmp:.4f}); eta all-data {pl.all_data_eta['A+']:.4f} < "
        f"in-pulse {pl.time_avg_eta['A+']:.4f}",
    )


def test_criterion_09_format_round_trip():
    rng = np.random.default_rng(99)
    n = 100_000
    times = np.cumsum(rng.integers(0, 10_000_000, n).astype(np.uint64))
    channels = rng.integers(1, 4, n).astype(np.uint8)
    key = np.unique(times * np.uint64(4) + channels)
    channels = (key & np.uint64(3)).astype(np.uint8)
    times = key >> np.uint64(2)

    buf = io.BytesIO()
    size = write_tags(
        TagFileHeader(station_id=0, record_count=len(channels)),
        (channels, times),
        buf,
    )
    raw = buf.getvalue()
    assert size == len(raw) == 40 + 16 * len(channels)
    _, ch2, t2 = read_tag_arrays(raw)
    assert np.array_equal(ch2, channels)
    assert np.array_equal(t2.astype(np.uint64), times)
    # writing the read-back records reproduces the file byte-exactly
    buf2 = io.BytesIO()
    write_tags(TagFileHeader(station_id=0, record_count=len(ch2)),
               (ch2, t2.astype(np.uint64)), buf2)
    assert buf2.getvalue() == raw
    report("criterion 9", f"{len(channels)} records, {size} bytes, byte-exact")


def test_criterion_10_product_bound(default_session):
    eq1 = default_session.blocks["eq1"]
    assert eq1["bound_respected"] is True
    assert eq1["max_defined_product"] < 2.0
    dev = abs(eq1["rescaled_plateau_mean"] - eq1["rescaled_expectation"])
    assert dev < 3 * eq1["rescaled_plateau_sigma"]
    assert eq1["fair_sampling_consistent"] is True
    report(
        "criterion 10",
        f"max product {eq1['max_defined_product']:.3f} < 2; rescaled plateau "
        f"{eq1['rescaled_plateau_mean']:.3f} vs {eq1['rescaled_expectation']:.3f} "
        f"within {dev / eq1['rescaled_plateau_sigma']:.2f} sigma",
    )


# --- statistical invariants sharing the criterion-5/6 studies ---------------


def test_error_calibration_over_null_study(null_study):
    # empirical per-slot S scatter must match the reported sigma within 15%
    in_pulse = slice(0, 25)
    s = np.array([st.series.s[in_pulse] for st in null_study])
    sig = np.array([st.series.sigma_s[in_pulse] for st in null_study])
    ratio = s.std(axis=0, ddof=1) / sig.mean(axis=0)
    assert abs(ratio.mean() - 1.0) < 0.15
    report("error calibration", f"empirical/reported sigma = {ratio.mean():.3f}")


def test_detector_false_positive_rate(null_study):
    false_pos = sum(1 for s in null_study if s.transient.kind == "deviation")
    assert false_pos <= 5
    report("detector soundness", f"false positives {false_pos}/100 (<= 5 allowed)")


def test_pooled_study_sessions_equal_serial():
    # the study fixtures run their sessions on a process pool; a pooled
    # session's summary is byte for byte the one run in this process
    configs = [
        desk_boosted(seed=0),
        desk_transient("monotone", seed=1),
        desk_transient("oscillatory", seed=2),
        desk_boosted(seed=3),
    ]
    pooled = run_sessions(configs, workers=2)
    serial = run_sessions(configs, workers=1)
    dumps = [[json.dumps(s.to_dict(), sort_keys=True) for s in run] for run in (pooled, serial)]
    assert dumps[0] == dumps[1]


# --- the fixed point: the 300 study summaries --------------------------------

# Every study summary without its config, as sorted-key JSON, one a line in
# the order null, monotone, oscillatory and seed 0-99 within each.
STUDY_DIGEST = "9426399a39f042a36e35188b616fbaf6d407ba1c5167289ca19bc39814cbc05c"
STUDY_DIGEST_NUMPY = "2.4.6"  # the float blocks are pinned on this numpy only
# The same of the integer blocks alone, on every numpy.
INTEGER_BLOCKS = ("runs", "tables", "significance")
STUDY_INTEGER_DIGEST = "967a4d04c07e2185ccdb47d01af6673e27d0f7767d1f1ea233879098b970e514"


def study_digest(studies, keep) -> str:
    lines = []
    for study in studies:
        for s in study:
            data = s.to_dict()
            lines.append(json.dumps({k: data[k] for k in data if keep(k)}, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_study_integer_blocks_are_pinned(
    null_study, transient_monotone_study, transient_oscillatory_study
):
    studies = (null_study, transient_monotone_study, transient_oscillatory_study)
    assert study_digest(studies, lambda key: key in INTEGER_BLOCKS) == STUDY_INTEGER_DIGEST


@pytest.mark.skipif(
    np.__version__ != STUDY_DIGEST_NUMPY,
    reason=f"float blocks are pinned on numpy {STUDY_DIGEST_NUMPY} only",
)
def test_study_summaries_are_pinned(
    null_study, transient_monotone_study, transient_oscillatory_study
):
    studies = (null_study, transient_monotone_study, transient_oscillatory_study)
    assert study_digest(studies, lambda key: key != "config") == STUDY_DIGEST
