import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfair import (
    DomainError,
    FrameSpec,
    MacTiming,
    alpha_of_packet,
    packet_for_alpha,
    t_send,
    t_wait,
)

RATES = [1.0, 2.0, 5.5, 11.0]


class TestMacTiming:
    def test_defaults_are_dsss(self):
        t = MacTiming()
        assert (t.difs, t.sifs, t.slot) == (50.0, 10.0, 20.0)
        assert t.cw_min == 31.0

    def test_zero_contention_window_allowed(self):
        # hypothetical immediate-send MAC used for sensitivity checks
        t = MacTiming(cw_min=0.0)
        assert t_wait(t) == pytest.approx(996.0 - 310.0)

    @pytest.mark.parametrize(
        "kw",
        [{"sifs": 0.0}, {"slot": -1.0}, {"rts": 0.0}, {"cw_min": -1.0}, {"eifs": 40.0}],
    )
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            MacTiming(**kw)

    def test_nan_contention_window_refused(self):
        # passed cw_min < 0 and then gave alpha = nan for every frame
        with pytest.raises(DomainError):
            MacTiming(cw_min=float("nan"))


class TestFrameSpec:
    @pytest.mark.parametrize("kw", [{"s": 13, "d": 2.0}, {"s": 2347, "d": 2.0}, {"s": 500, "d": 3.0}])
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            FrameSpec(**kw)

    def test_bool_rate_refused(self):
        # True == 1.0 would otherwise pass the membership test as 1 Mbit/s
        with pytest.raises(DomainError):
            FrameSpec(500, True)

    def test_bounds_inclusive(self):
        FrameSpec(14, 1.0)
        FrameSpec(2346, 11.0)

    @pytest.mark.parametrize("s", [250.7, 250.0])
    def test_non_integer_size_refused(self, s):
        # s counts bytes
        with pytest.raises(DomainError):
            FrameSpec(s, 2.0)


class TestDurations:
    def test_wait_is_constant_996(self):
        assert t_wait() == pytest.approx(996.0)

    def test_send_1500_at_2(self):
        assert t_send(FrameSpec(1500, 2.0)) == pytest.approx(304.0 + 192.0 + 6000.0)

    def test_send_scales_with_rate(self):
        slow = t_send(FrameSpec(1000, 1.0))
        fast = t_send(FrameSpec(1000, 11.0))
        assert slow - fast == pytest.approx(8000.0 * (1.0 - 1.0 / 11.0))


class TestAlphaOfPacket:
    def test_1500_at_2(self):
        assert alpha_of_packet(FrameSpec(1500, 2.0)) == pytest.approx(0.867, abs=1e-3)

    def test_250_at_2(self):
        assert alpha_of_packet(FrameSpec(250, 2.0)) == pytest.approx(0.600, abs=1e-3)

    def test_monotone_in_size(self):
        alphas = [alpha_of_packet(FrameSpec(s, 2.0)) for s in (14, 100, 500, 1500, 2346)]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))

    def test_in_unit_interval(self):
        for d in RATES:
            for s in (14, 2346):
                assert 0.0 < alpha_of_packet(FrameSpec(s, d)) < 1.0


class TestPacketForAlpha:
    def test_reference_operating_point(self):
        assert packet_for_alpha(0.6, 2.0) in (249, 250, 251)

    def test_exact_inverse_value(self):
        assert packet_for_alpha(0.6, 2.0) == 250

    @pytest.mark.parametrize("d", RATES)
    @given(s=st.integers(14, 2346))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, d, s):
        a = alpha_of_packet(FrameSpec(s, d))
        assert packet_for_alpha(a, d) == s

    def test_unachievable_alpha_reports_interval(self):
        with pytest.raises(DomainError) as exc:
            packet_for_alpha(0.05, 2.0)
        assert "achievable" in str(exc.value)

    def test_bad_rate(self):
        with pytest.raises(DomainError):
            packet_for_alpha(0.6, 3.0)

    def test_bool_rate_refused(self):
        with pytest.raises(DomainError):
            packet_for_alpha(0.6, True)

    def test_custom_timing_shifts_answer(self):
        fast_mac = MacTiming(cw_min=0.0)
        assert packet_for_alpha(0.6, 2.0, fast_mac) < packet_for_alpha(0.6, 2.0)
