import warnings

import numpy as np
import pytest

from rotor import (
    InfeasibleDesign,
    TrapConfig,
    commensurate_velocity,
    design_protocol,
    ground_state_sensitivity,
    kappa,
    minimal_time,
    normal_frequencies,
    williamson_valid,
)
from conftest import KAPPA_MINUS, KAPPA_PLUS


class TestKappa:
    def test_reference_pair(self):
        km, kp = kappa(1, 2, np.pi / 2)
        assert km == pytest.approx(KAPPA_MINUS, rel=1e-14)
        assert kp == pytest.approx(KAPPA_PLUS, rel=1e-14)
        assert km == pytest.approx(4.301871507620934, rel=1e-12)
        assert kp == pytest.approx(7.713228995169221, rel=1e-12)

    def test_defining_relations(self):
        # the ratios must reproduce the commensurate frequencies they came from
        for n1, n2, tf in [(1, 2, np.pi / 2), (1, 3, np.pi / 4), (2, 3, 0.5), (3, 7, 1.0)]:
            km, kp = kappa(n1, n2, tf)
            theta_dot = 1.0
            o1, o2 = normal_frequencies(TrapConfig(km, kp * theta_dot, theta_dot))
            assert o2 / o1 == pytest.approx(n2 / n1, rel=1e-12)
            assert tf / theta_dot == pytest.approx(2 * np.pi * n1 / o1, rel=1e-12)

    def test_excluded_angle_window(self):
        with pytest.raises(InfeasibleDesign):
            kappa(1, 2, 2 * np.pi)  # inside (pi, 3 pi)
        with pytest.raises(InfeasibleDesign):
            kappa(1, 2, np.pi * 1.001)
        km, _ = kappa(1, 2, np.pi * 0.999)  # just below the window
        assert km > 1

    def test_slow_branch_beyond_window(self):
        # above theta_f = pi (n1 + n2) the radicand is positive again but the
        # slow ratio drops below the velocity bound
        with pytest.raises(InfeasibleDesign):
            kappa(1, 2, 4 * np.pi)

    def test_larger_pair_is_slower(self):
        km12, kp12 = kappa(1, 2, np.pi / 2)
        km24, kp24 = kappa(2, 4, np.pi / 2)
        assert km24 > km12 and kp24 > kp12

    def test_input_validation(self):
        with pytest.raises(InfeasibleDesign):
            kappa(2, 1, np.pi / 2)
        with pytest.raises(InfeasibleDesign):
            kappa(1, 2, -1.0)

    @pytest.mark.parametrize("theta_f", [np.nan, np.inf])
    def test_non_finite_angle_named(self, theta_f):
        # either would reach TrapConfig as a non-finite omega2
        with pytest.raises(InfeasibleDesign, match="theta_f"):
            kappa(1, 2, theta_f)

    @pytest.mark.parametrize("theta_f", [1e-300, 1e-160, 1e78, 1e200])
    def test_angle_beyond_double_range_named(self, theta_f):
        # theta_f^2 underflows or overflows, or kappa itself overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleDesign, match="double-precision range"):
                kappa(1, 2, theta_f)


class TestDesignProtocol:
    @pytest.mark.parametrize(
        "f_khz, w2_print, td_print, t_print",
        [
            (1.0, 1.79, 0.23, 1.08),
            (2.0, 3.59, 0.46, 0.54),
            (5.0, 8.96, 1.16, 0.22),
            (10.0, 17.93, 2.32, 0.11),
        ],
    )
    def test_reference_rows(self, f_khz, w2_print, td_print, t_print):
        p = design_protocol(2 * np.pi * f_khz, np.pi / 2, 1, 2)
        assert round(p.omega2 / (2 * np.pi), 2) == w2_print
        assert round(p.theta_dot / (2 * np.pi), 2) == td_print
        assert round(p.duration, 2) == t_print  # ms when omega1 is rad/ms

    def test_construction_identities(self, row1_protocol):
        p = row1_protocol
        assert p.omega1 == p.kappa_minus * p.theta_dot
        assert p.omega2 == p.kappa_plus * p.theta_dot
        assert williamson_valid(p.config)

    def test_commensurability_chain(self):
        for n1, n2, tf in [(1, 2, np.pi / 2), (1, 5, 1.0), (2, 3, 0.3), (1, 3, np.pi / 4)]:
            p = design_protocol(1.0, tf, n1, n2)
            o1, o2 = p.normal_frequencies()
            assert o2 / o1 == pytest.approx(n2 / n1, rel=1e-9)
            assert p.duration == pytest.approx(tf / p.theta_dot, rel=1e-9)
            assert p.duration == pytest.approx(2 * np.pi * n1 / o1, rel=1e-9)
            assert p.duration == pytest.approx(2 * np.pi * n2 / o2, rel=1e-9)

    def test_duration_scales_inversely(self):
        slow = design_protocol(1.0, np.pi / 2, 1, 2)
        fast = design_protocol(4.0, np.pi / 2, 1, 2)
        assert slow.duration == pytest.approx(4 * fast.duration, rel=1e-14)

    def test_shared_factor_warns(self):
        with pytest.warns(UserWarning, match="shorter valid"):
            p = design_protocol(1.0, np.pi / 2, 2, 4)
        reduced = design_protocol(1.0, np.pi / 2, 1, 2)
        assert p.duration > reduced.duration

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_series_ordering(self):
        # duration falls with n2 and rises with n1 at fixed n2
        t_n1_1 = [design_protocol(1.0, np.pi / 2, 1, n2).duration for n2 in range(2, 8)]
        assert np.all(np.diff(t_n1_1) < 0)
        for n2 in (5, 6, 7):
            t1 = design_protocol(1.0, np.pi / 2, 1, n2).duration
            t2 = design_protocol(1.0, np.pi / 2, 2, n2).duration
            assert t2 > t1

    def test_williamson_violation_raises(self, monkeypatch):
        # kappa_minus = 1 puts theta_dot at omega1; the check must survive -O
        monkeypatch.setattr("rotor.designer.kappa", lambda n1, n2, theta_f: (1.0, 2.0))
        with pytest.raises(InfeasibleDesign, match="Williamson"):
            design_protocol(1.0, np.pi / 2, 1, 2)


class TestMinimalTime:
    def test_reference_value(self):
        # omega1 = 2 pi rad/ms -> milliseconds
        assert minimal_time(2 * np.pi, np.pi / 2) == pytest.approx(
            1.0307764064044151, rel=1e-12
        )

    def test_small_angle_limit(self):
        assert minimal_time(1.0, 1e-12) == pytest.approx(2 * np.pi, rel=1e-9)

    def test_lower_bounds_designs(self):
        tmin = minimal_time(1.0, np.pi / 2)
        previous = np.inf
        for n2 in (2, 5, 10, 50):
            t = design_protocol(1.0, np.pi / 2, 1, n2).duration
            assert tmin < t < previous
            previous = t

    def test_limit_of_designs(self):
        tmin = minimal_time(1.0, np.pi / 2)
        t200 = design_protocol(1.0, np.pi / 2, 1, 200).duration
        assert (t200 - tmin) / tmin < 5e-3


class TestCommensurateVelocity:
    def test_recovers_reference_point(self, row1_protocol):
        td, tf = commensurate_velocity(1.0, row1_protocol.omega2, 1, 2)
        assert td == pytest.approx(row1_protocol.theta_dot, rel=1e-10)
        assert tf == pytest.approx(np.pi / 2, rel=1e-9)

    def test_solution_is_locked(self):
        td, tf = commensurate_velocity(1.0, 1.5, 2, 5)
        o1, o2 = normal_frequencies(TrapConfig(1.0, 1.5, td))
        assert o2 / o1 == pytest.approx(2.5, rel=1e-11)
        assert tf == pytest.approx(td * 2 * np.pi * 2 / o1, rel=1e-12)

    def test_ratio_already_exceeded(self):
        with pytest.raises(InfeasibleDesign):
            commensurate_velocity(1.0, 2.5, 1, 2)

    def test_isotropic_trap_closed_form(self):
        # omega1 = omega2 is allowed input and must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            td, tf = commensurate_velocity(1.0, 1.0, 1, 2)
        # u = theta_dot^2 = 1/9 gives O1^2 = 4/9, O2^2 = 16/9
        assert td == pytest.approx(1 / 3, rel=1e-15)
        assert tf == pytest.approx(np.pi, rel=1e-15)

    def test_degenerate_boundary(self):
        with pytest.raises(InfeasibleDesign, match="degenerate"):
            commensurate_velocity(1.0, 1.5, 2, 3)


class TestGroundStateSensitivity:
    def test_isotropic_is_insensitive(self):
        p = design_protocol(1.0, np.pi / 2, 1, 2)
        tweaked = type(p)(**{**p.__dict__, "omega2": p.omega1})
        assert ground_state_sensitivity(tweaked) == 0.0

    def test_reference_value(self, row1_protocol):
        assert ground_state_sensitivity(row1_protocol) == pytest.approx(
            4.737900614933467e-3, rel=1e-12
        )

    def test_grows_with_n2(self):
        rates = [
            ground_state_sensitivity(design_protocol(1.0, np.pi / 2, 1, n2))
            for n2 in (2, 3, 5, 10, 20)
        ]
        assert np.all(np.diff(rates) > 0)
