"""Tests for the exponent calculators and the balance-point solver."""

import math
import sys

import pytest

from gallai import (
    cap_share,
    covering_exponent,
    exponent_report,
    kl_exponent,
    solve_alpha,
)

from conftest import betainc_share


class TestKlExponent:
    def test_zero_at_right_endpoint(self):
        # The vanishing term uses the 0 * log2(0) = 0 convention.
        assert kl_exponent(math.pi / 2) == 0.0

    def test_divergence_near_zero(self):
        # The two 1/(2 sin) terms cancel to leading order, so the blow-up
        # is logarithmic: about log2(1 / (2 theta)) + 1/ln 2.
        assert kl_exponent(1e-3) > 10
        assert kl_exponent(1e-6) > 20
        assert kl_exponent(1e-12) > kl_exponent(1e-6) > kl_exponent(1e-3)

    def test_crossing_value(self):
        # At the balance point the packing exponent of the doubled angle
        # equals the covering exponent: KL(2 * 0.583808) = -log2 cos(0.583808).
        alpha = 0.583808
        assert kl_exponent(2 * alpha) == pytest.approx(
            -math.log2(math.cos(alpha)), abs=1e-5
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            kl_exponent(0.0)
        with pytest.raises(ValueError):
            kl_exponent(math.pi / 2 + 0.01)


class TestCoveringExponent:
    def test_one_bit_at_pi_third(self):
        assert covering_exponent(math.pi / 3) == pytest.approx(1.0, abs=1e-12)

    def test_half_bit_at_pi_quarter(self):
        assert covering_exponent(math.pi / 4) == pytest.approx(0.5, abs=1e-12)

    def test_vanishes_at_zero(self):
        assert covering_exponent(1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            covering_exponent(math.pi / 2)


class TestSolveAlpha:
    def test_root_location(self):
        alpha = solve_alpha(1e-6)
        assert 0.583807 <= alpha <= 0.583809

    def test_bound_base(self):
        alpha = solve_alpha(1e-6)
        assert 1.0 / math.cos(alpha) < 1.19851 + 1e-5

    def test_doubled_angle_degrees(self):
        alpha = solve_alpha(1e-6)
        assert abs(math.degrees(2 * alpha) - 66.9) <= 0.05

    def test_endpoint_identity(self):
        # kl(2x) - (-log2 cos x) tends to exactly -1/2 at x = pi/4.
        diff = kl_exponent(math.pi / 2) - covering_exponent(math.pi / 4)
        assert diff == pytest.approx(-0.5, abs=1e-9)

    def test_bisection_stability(self):
        for tol in (1e-4, 1e-6, 1e-8):
            a, b = solve_alpha(tol), solve_alpha(tol / 2)
            assert abs(a - b) <= tol

    def test_monotone_pieces(self):
        # Packing side strictly decreasing, covering side strictly
        # increasing across a dense grid of (0, pi/4).
        grid = [1e-4 + i * (math.pi / 4 - 2e-4) / 9999 for i in range(10_000)]
        f = [kl_exponent(2 * x) for x in grid]
        g = [covering_exponent(x) for x in grid]
        assert all(a > b for a, b in zip(f, f[1:]))
        assert all(a < b for a, b in zip(g, g[1:]))

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            solve_alpha(0.0)


class TestExponentReport:
    def test_headline_constants(self):
        rep = exponent_report()
        assert rep.gallai_upper == pytest.approx(math.sqrt(1.5), abs=1e-15)
        assert rep.gallai_lower == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-15)
        assert rep.bound_base == pytest.approx(1.0 / math.cos(rep.alpha_star), abs=1e-12)
        assert rep.bound_base < 1.19851 + 1e-5

    def test_table_consistency(self):
        rep = exponent_report(table_points=5)
        assert len(rep.table) == 5
        for theta, packing, covering in rep.table:
            assert packing == pytest.approx(kl_exponent(theta), abs=1e-12)
            assert covering == pytest.approx(covering_exponent(theta), abs=1e-12)

    def test_to_dict_round_numbers(self):
        d = exponent_report().to_dict()
        assert abs(d["gallai_upper"] - 1.22474) < 1e-4
        assert abs(d["gallai_lower"] - 1.15470) < 1e-4
        assert abs(d["alpha_star"] - 0.583808) < 1e-5
        assert d["bound_base"] < 1.19851 + 1e-5


class TestCapShare:
    def test_matches_betainc(self):
        # Relative error 1e-12 wherever betainc's value is a normal
        # double; past that (n >~ 1020 at pi/6) both underflow.
        for angle in (math.pi / 6, 0.1, math.pi / 4):
            for n in range(2, 2001):
                ref, got = betainc_share(n, angle), cap_share(n, angle)
                if ref >= sys.float_info.min:
                    assert abs(got - ref) <= 1e-12 * ref, (n, angle)
                else:
                    assert got < sys.float_info.min, (n, angle)

    def test_closed_forms(self):
        # A cap of angular radius t covers (1 - cos t) / 2 of S^2 and
        # t / pi of the circle.
        for t in (0.1, 0.5, math.pi / 6, math.pi / 4):
            assert cap_share(3, t) == pytest.approx((1 - math.cos(t)) / 2, rel=1e-14)
            assert cap_share(2, t) == pytest.approx(t / math.pi, rel=1e-14)

    @pytest.mark.parametrize("n, angle", [(1, 0.5), (3, 0.0), (3, -0.1), (3, 0.8), (3, math.nan)])
    def test_domain(self, n, angle):
        with pytest.raises(ValueError):
            cap_share(n, angle)
