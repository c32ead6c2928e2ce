"""Tests for repro.queueing.jackson: the traffic equations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.jackson import (
    external_arrival_vector,
    solve_traffic_equations,
)
from repro.queueing.transitions import sequential_matrix, uniform_jump_matrix


class TestExternalArrivals:
    def test_alpha_split(self):
        ext = external_arrival_vector(5, 10.0, alpha=0.8)
        assert ext[0] == pytest.approx(8.0)
        assert ext[1:] == pytest.approx(np.full(4, 0.5))
        assert ext.sum() == pytest.approx(10.0)

    def test_single_chunk_gets_everything(self):
        ext = external_arrival_vector(1, 3.0, alpha=0.2)
        assert ext[0] == pytest.approx(3.0)

    def test_alpha_one(self):
        ext = external_arrival_vector(4, 2.0, alpha=1.0)
        assert ext[0] == pytest.approx(2.0)
        assert np.all(ext[1:] == 0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            external_arrival_vector(3, 1.0, alpha=1.5)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            external_arrival_vector(3, -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rate(self, bad):
        with pytest.raises(ValueError, match="arrival rate must be finite"):
            external_arrival_vector(3, bad)
        with pytest.raises(ValueError, match="arrival rate must be finite"):
            external_arrival_vector(3, [1.0, bad], [0.8, 0.8])


class TestTrafficEquations:
    def test_sequential_chain_decays_geometrically(self):
        # Pure sequential viewing: lambda_i = alpha * Lambda * q^(i-1) when
        # all arrivals start at chunk 1.
        q = 0.8
        p = sequential_matrix(5, continue_prob=q)
        ext = external_arrival_vector(5, 1.0, alpha=1.0)
        sol = solve_traffic_equations(p, ext)
        expected = np.array([q**i for i in range(5)])
        assert sol.arrival_rates == pytest.approx(expected)

    def test_flow_conservation(self):
        # lambda must satisfy lambda = ext + P^T lambda exactly.
        p = uniform_jump_matrix(6, 0.6, 0.2)
        ext = external_arrival_vector(6, 2.5, alpha=0.8)
        sol = solve_traffic_equations(p, ext)
        recomputed = ext + p.T @ sol.arrival_rates
        assert sol.arrival_rates == pytest.approx(recomputed)

    def test_rates_nonnegative(self):
        p = uniform_jump_matrix(8, 0.5, 0.3)
        ext = external_arrival_vector(8, 1.0)
        sol = solve_traffic_equations(p, ext)
        assert np.all(sol.arrival_rates >= 0)

    def test_zero_external_gives_zero(self):
        p = uniform_jump_matrix(4, 0.5, 0.2)
        sol = solve_traffic_equations(p, np.zeros(4))
        assert np.all(sol.arrival_rates == 0.0)

    def test_visit_ratios_scale_free(self):
        # Visits per external arrival do not depend on the arrival rate.
        p = uniform_jump_matrix(5, 0.6, 0.1)
        a = solve_traffic_equations(p, external_arrival_vector(5, 1.0))
        b = solve_traffic_equations(p, external_arrival_vector(5, 7.0))
        assert a.arrival_rates / a.total_external_rate == pytest.approx(
            b.arrival_rates / b.total_external_rate
        )

    def test_total_visits_exceed_one(self):
        # Every user downloads at least one chunk.
        p = uniform_jump_matrix(5, 0.6, 0.1)
        sol = solve_traffic_equations(p, external_arrival_vector(5, 1.0))
        assert sol.arrival_rates.sum() >= 1.0

    def test_rate_linearity(self):
        p = uniform_jump_matrix(5, 0.5, 0.2)
        one = solve_traffic_equations(p, external_arrival_vector(5, 1.0))
        three = solve_traffic_equations(p, external_arrival_vector(5, 3.0))
        assert three.arrival_rates == pytest.approx(3.0 * one.arrival_rates)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_traffic_equations(sequential_matrix(3, 0.5), np.zeros(4))

    def test_negative_external_rejected(self):
        with pytest.raises(ValueError):
            solve_traffic_equations(
                sequential_matrix(3, 0.5), np.array([1.0, -0.5, 0.0])
            )

    def test_nan_matrix_rejected_not_solved(self):
        # A NaN entry used to pass validation and yield all-NaN rates.
        p = sequential_matrix(3, 0.5)
        p[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_traffic_equations(p, np.ones(3))

    def test_non_finite_external_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            solve_traffic_equations(
                sequential_matrix(3, 0.5), np.array([1.0, np.nan, 0.0])
            )

    def test_stacked_solve_is_bitwise_per_matrix(self):
        mats = [uniform_jump_matrix(6, 0.6, 0.2), sequential_matrix(6, 0.8),
                uniform_jump_matrix(6, 0.3, 0.5)]
        exts = [external_arrival_vector(6, rate, 0.7) for rate in (0.4, 2.0, 9.5)]
        stacked = solve_traffic_equations(np.stack(mats), np.stack(exts))
        assert stacked.arrival_rates.shape == (3, 6)
        for row, p, ext in zip(stacked.arrival_rates, mats, exts):
            single = solve_traffic_equations(p, ext).arrival_rates
            assert row.tobytes() == single.tobytes()

    @given(
        n=st.integers(min_value=2, max_value=10),
        cont=st.floats(min_value=0.0, max_value=0.6),
        jump=st.floats(min_value=0.0, max_value=0.3),
        rate=st.floats(min_value=0.0, max_value=50.0),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_throughput_equals_external_rate(self, n, cont, jump, rate, alpha):
        """Departure flow equals arrival flow in equilibrium."""
        if cont + jump >= 1.0:
            return
        p = uniform_jump_matrix(n, cont, jump)
        ext = external_arrival_vector(n, rate, alpha)
        sol = solve_traffic_equations(p, ext)
        # Departure rate: sum_i lambda_i * (1 - sum_j P_ij).
        leave = 1.0 - p.sum(axis=1)
        departure_rate = float(sol.arrival_rates @ leave)
        assert departure_rate == pytest.approx(rate, rel=1e-6, abs=1e-9)
