import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellstrobe.config import ConfigError, ExperimentConfig
from bellstrobe.model import (
    OUTCOME_ORDER,
    TSIRELSON,
    AngleSetting,
    Geometry,
    SettingsQuad,
    TransientModel,
    carried_deficit,
    chsh_ideal,
    classical_coincidence_prob,
    min_counts_for_gap,
    qm_classical_gap,
    qm_coincidence_prob,
    qm_joint_probs,
    scan_qm_classical_gap,
    transient_factors,
    visibility_from_contrast,
)


class TestJointProbability:
    def test_perfect_correlation_at_equal_angles(self):
        probs = qm_joint_probs(AngleSetting(0.0, 0.0), 1.0)
        assert probs[OUTCOME_ORDER.index((1, 1))] == pytest.approx(0.5)
        assert probs[OUTCOME_ORDER.index((1, -1))] == pytest.approx(0.0)

    def test_pi_eighth_value(self):
        # independent oracle: P(+,+) = cos^2(alpha-beta)/2 for the phi+ state
        expected = 0.5 * math.cos(math.pi / 8) ** 2
        got = qm_joint_probs(AngleSetting(0.0, math.pi / 8), 1.0)[OUTCOME_ORDER.index((1, 1))]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.42678, abs=5e-6)

    def test_invalid_visibility_rejected(self):
        # V is checked once, where it enters the config
        with pytest.raises(ConfigError):
            ExperimentConfig(visibility=1.2)
        with pytest.raises(ConfigError):
            ExperimentConfig(visibility=-0.1)

    @given(
        alpha=st.floats(-10, 10),
        beta=st.floats(-10, 10),
        v=st.floats(0, 1),
    )
    def test_normalization_and_marginals(self, alpha, beta, v):
        probs = qm_joint_probs(AngleSetting(alpha, beta), v)
        assert np.all(probs >= 0) and np.all(probs <= 1)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        # marginal of A's + outcome and B's + outcome are exactly 1/2
        assert probs[0] + probs[1] == pytest.approx(0.5, abs=1e-12)
        assert probs[0] + probs[2] == pytest.approx(0.5, abs=1e-12)

    def test_no_signaling(self, rng):
        # A's marginal independent of beta, B's of alpha
        for _ in range(100):
            alpha, beta1, beta2 = rng.uniform(0, math.pi, 3)
            v = rng.uniform(0, 1)
            p1 = qm_joint_probs(AngleSetting(alpha, beta1), v)
            p2 = qm_joint_probs(AngleSetting(alpha, beta2), v)
            assert p1[0] + p1[1] == pytest.approx(p2[0] + p2[1], abs=1e-12)
            p3 = qm_joint_probs(AngleSetting(beta1, alpha), v)
            p4 = qm_joint_probs(AngleSetting(beta2, alpha), v)
            assert p3[0] + p3[2] == pytest.approx(p4[0] + p4[2], abs=1e-12)


class TestClassicalGap:
    def test_gap_at_chsh_settings(self):
        assert qm_classical_gap() == pytest.approx(0.052, abs=1e-3)

    def test_gap_vanishes_at_aligned_settings(self):
        assert qm_coincidence_prob(0.0) == pytest.approx(classical_coincidence_prob(0.0))
        assert qm_coincidence_prob(math.pi / 4) == pytest.approx(
            classical_coincidence_prob(math.pi / 4)
        )

    def test_brute_force_scan(self):
        # independent oracle: rebuild both curves from scratch on a fine grid
        d = np.arange(0.0, math.pi / 2, 1e-4)
        p_qm = 0.25 * (1 + np.cos(2 * d))
        p_cl = 0.5 * (1 - 2 * np.abs(d) / math.pi)
        oracle_max = np.max(np.abs(p_qm - p_cl))
        scanned = scan_qm_classical_gap(step=1e-4)
        assert scanned == pytest.approx(oracle_max, abs=1e-9)
        assert abs(scanned - 0.052) < 1e-3


class TestMinCounts:
    def test_paper_rounding(self):
        # exact arithmetic gives 369.8; the conventional round number is 368
        assert (1 / 0.052) ** 2 == pytest.approx(369.82, abs=0.01)
        assert min_counts_for_gap(0.052, 1) == 370

    def test_trivial(self):
        assert min_counts_for_gap(0.5, 1) == 4

    def test_three_sigma(self):
        assert min_counts_for_gap(0.052, 3) == math.ceil((3 / 0.052) ** 2) == 3329

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            min_counts_for_gap(0.0, 1)
        with pytest.raises(ValueError):
            min_counts_for_gap(0.1, -1)

    @given(
        g1=st.floats(0.001, 0.9),
        g2=st.floats(0.001, 0.9),
        k=st.floats(0.5, 10),
    )
    def test_monotonicity(self, g1, g2, k):
        lo, hi = sorted((g1, g2))
        assert min_counts_for_gap(lo, k) >= min_counts_for_gap(hi, k)
        assert min_counts_for_gap(g1, k + 1) >= min_counts_for_gap(g1, k)


class TestVisibility:
    def test_contrast_100(self):
        v = visibility_from_contrast(100)
        assert v == pytest.approx(0.980198, abs=1e-6)
        assert chsh_ideal(v) == pytest.approx(2.7724, abs=1e-4)

    def test_contrast_3(self):
        assert visibility_from_contrast(3) == pytest.approx(0.5)

    def test_large_contrast_approaches_one(self):
        assert visibility_from_contrast(1e9) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_contrast_at_or_below_one(self):
        with pytest.raises(ValueError):
            visibility_from_contrast(1.0)

    def test_chsh_ideal_values(self):
        assert chsh_ideal(1.0) == pytest.approx(2.8284, abs=1e-4)
        assert chsh_ideal(1.0) == pytest.approx(TSIRELSON, abs=1e-12)
        assert chsh_ideal(0.0) == 0.0

    @given(v=st.floats(0, 1))
    def test_chsh_ideal_linear(self, v):
        assert chsh_ideal(v) == pytest.approx(v * chsh_ideal(1.0), abs=1e-12)


class TestGeometry:
    def test_tau_from_distance(self):
        g = Geometry(24.0)
        assert g.tau == pytest.approx(8.0055e-8, rel=1e-4)

    def test_inconsistent_tau_rejected(self):
        with pytest.raises(ValueError):
            Geometry(24.0, tau=80e-9)  # off by 55 ps

    def test_consistent_tau_accepted(self):
        g = Geometry(1.5)
        assert Geometry(1.5, tau=g.tau).tau == g.tau


class TestTransientFactors:
    TAU = 80e-9

    def test_none_mode_is_identity(self):
        s, e = transient_factors(np.array([0.0, 1e-9, 1e-3]), TransientModel(), 0.1, 1.0)
        assert s.tolist() == e.tolist() == [1.0, 1.0, 1.0]

    def test_monotone_floor_at_zero(self):
        m = TransientModel(mode="monotone", tau=self.TAU, theta=self.TAU)
        s, e = transient_factors(np.array([0.0]), m, 1.0, 1.0)
        assert s[0] == pytest.approx(2 / (2 * math.sqrt(2)), abs=1e-12)
        assert e[0] == 1.0

    def test_relaxed_after_ten_theta(self):
        m = TransientModel(mode="monotone", tau=self.TAU, theta=self.TAU)
        s, e = transient_factors(np.array([self.TAU + 10 * self.TAU]), m, 1.0, 1.0)
        assert abs(s[0] - 1.0) < 1e-4 and abs(e[0] - 1.0) < 1e-4

    def test_oscillatory_requires_longer_period(self):
        with pytest.raises(ValueError):
            TransientModel(mode="oscillatory", tau=self.TAU, theta=self.TAU,
                           osc_period=self.TAU / 2)

    @pytest.mark.parametrize("mode,period", [("monotone", None), ("oscillatory", 3)])
    @pytest.mark.parametrize("eta_share", [0.0, 0.5, 1.0])
    def test_product_bound_inside_tau(self, mode, period, eta_share):
        for v in (1.0, 0.980198, 0.8):
            for eta0 in (1.0, 0.3, 0.1):
                m = TransientModel(
                    mode=mode,
                    tau=self.TAU,
                    theta=self.TAU,
                    osc_period=None if period is None else period * self.TAU,
                    eta_share=eta_share,
                )
                t = np.linspace(0.0, self.TAU, 101)
                s, e = transient_factors(t, m, eta0, v)
                product = TSIRELSON * v * s * eta0 * e
                assert np.all(product <= m.floor_product + 1e-9)

    def test_eta_share_splits_suppression(self):
        m = TransientModel(mode="monotone", tau=self.TAU, theta=self.TAU, eta_share=0.5)
        s, e = transient_factors(np.array([0.0]), m, 0.5, 1.0)
        assert s[0] == pytest.approx(e[0])
        assert s[0] * e[0] == pytest.approx(2 / TSIRELSON)

    def test_eta_factor_capped_by_unit_efficiency(self):
        # oscillatory overshoot must never push eta0*eta_factor above 1
        m = TransientModel(mode="oscillatory", tau=self.TAU, theta=self.TAU,
                           osc_period=3 * self.TAU, eta_share=1.0)
        t = np.linspace(0, 20 * self.TAU, 2001)
        _, e = transient_factors(t, m, 0.95, 1.0)
        assert np.all(0.95 * e <= 1.0 + 1e-12)

    def test_negative_time_rejected(self):
        m = TransientModel(mode="monotone")
        with pytest.raises(ValueError):
            transient_factors(np.array([-1e-9]), m, 1.0, 1.0)

    def test_inter_pulse_memory_deepens_start(self):
        base = TransientModel(mode="monotone", tau=self.TAU, theta=10 * self.TAU)
        mem = TransientModel(mode="monotone", tau=self.TAU, theta=10 * self.TAU,
                             inter_pulse_memory=1.0)
        carry = carried_deficit(mem, pulse_duration=500e-9, gap=np.array([1.5e-6]))
        assert carry[0] > 0
        t = np.array([2 * self.TAU])  # just after the floor window
        s_base, _ = transient_factors(t, base, 1.0, 1.0)
        s_mem, _ = transient_factors(t, mem, 1.0, 1.0, carried=carry)
        assert s_mem[0] < s_base[0]


CARRY_TAU = 80e-9
CARRY_V = 0.98  # floor_product below 2*sqrt(2)*V puts the floor F0 below 1
CARRY_T = np.linspace(0.0, 20 * CARRY_TAU, 801)


@st.composite
def carry_models(draw):
    """A monotone or oscillatory transient with its floor F0 in (0.18, 0.91)."""
    mode = draw(st.sampled_from(["monotone", "oscillatory"]))
    period = draw(st.floats(1.5, 8.0)) * CARRY_TAU if mode == "oscillatory" else None
    return TransientModel(
        mode=mode,
        tau=CARRY_TAU,
        theta=draw(st.floats(0.5, 10.0)) * CARRY_TAU,
        osc_period=period,
        floor_product=draw(st.floats(0.5, 2.5)),
    )


def carry_floor(model):
    return model.floor_product / (TSIRELSON * CARRY_V)


class TestInterPulseCarry:
    """A carried deficit c adds c*(1 - F0)*exp(-t/theta) to the deficit of
    the factor on the product (eta_share 0 puts all of it in s_factor)."""

    @given(model=carry_models(), c=st.floats(1e-6, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_zero_carry_is_bit_identical(self, model, c, seed):
        # a pulse with no carry is untouched, whatever its neighbours carry
        carried = np.where(np.random.default_rng(seed).random(CARRY_T.size) < 0.5, c, 0.0)
        free = carried == 0.0
        s_mem, e_mem = transient_factors(CARRY_T, model, 0.5, CARRY_V, carried=carried)
        s, e = transient_factors(CARRY_T, model, 0.5, CARRY_V)
        assert np.array_equal(s_mem[free], s[free]) and np.array_equal(e_mem[free], e[free])
        zeros = transient_factors(CARRY_T, model, 0.5, CARRY_V, carried=np.zeros_like(CARRY_T))
        assert np.array_equal(zeros[0], s) and np.array_equal(zeros[1], e)

    @given(model=carry_models(), c=st.floats(1e-6, 1.0))
    def test_positive_carry_deepens_the_start(self, model, c):
        t = np.array([0.0])
        s_mem, _ = transient_factors(t, model, 1.0, CARRY_V, carried=c)
        s, _ = transient_factors(t, model, 1.0, CARRY_V)
        assert s[0] == pytest.approx(carry_floor(model), rel=1e-12)
        assert s_mem[0] < s[0]

    @given(model=carry_models(), c=st.floats(1e-6, 1.0),
           eta_share=st.floats(0.0, 1.0), eta0=st.floats(0.05, 1.0))
    def test_carry_moves_the_factor_by_at_most_its_deficit(self, model, c, eta_share, eta0):
        s_mem, _ = transient_factors(CARRY_T, model, 1.0, CARRY_V, carried=c)
        s, _ = transient_factors(CARRY_T, model, 1.0, CARRY_V)
        assert np.all(s_mem >= 0.0)
        assert np.all(np.abs(s_mem - s) <= c * (1.0 - carry_floor(model)) + 1e-12)
        shared = replace(model, eta_share=eta_share)
        s_mem, e_mem = transient_factors(CARRY_T, shared, eta0, CARRY_V, carried=c)
        assert np.all(s_mem >= 0.0) and np.all(e_mem >= 0.0)
        assert np.all(eta0 * e_mem <= 1.0 + 1e-12)

    def test_an_overshoot_carries_nothing(self):
        # this relaxation ends the 500 ns pulse above its baseline, which
        # unclipped carried -0.0367 over the 1.5 us gap
        model = TransientModel(mode="oscillatory", tau=80e-9, theta=800e-9,
                               osc_period=300e-9, inter_pulse_memory=0.5)
        assert np.array_equal(
            carried_deficit(model, pulse_duration=500e-9, gap=np.array([1.5e-6, 0.0])),
            [0.0, 0.0],
        )

    @pytest.mark.parametrize("carried", [-0.01, np.array([0.01, -0.01])], ids=["scalar", "mixed"])
    def test_negative_carry_rejected(self, carried):
        # a negative entry would raise the factor, against "deepening only"
        model = TransientModel(mode="monotone", tau=CARRY_TAU)
        with pytest.raises(ValueError, match="carried"):
            transient_factors(np.array([0.0, CARRY_TAU]), model, 1.0, CARRY_V, carried=carried)


class TestSettingsQuad:
    def test_default_is_chsh_optimal(self):
        q = SettingsQuad()
        e = [math.cos(2 * s.difference) for s in q.settings()]
        s_value = abs(e[0] - e[1] + e[2] + e[3])
        assert s_value == pytest.approx(TSIRELSON, abs=1e-12)

    def test_degenerate_quad_rejected(self):
        with pytest.raises(ValueError):
            SettingsQuad(a=0.0, a_prime=math.pi)  # equal modulo pi
