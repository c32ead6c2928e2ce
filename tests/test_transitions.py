"""Tests for repro.queueing.transitions: viewing-behaviour matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.transitions import (
    empirical_transition_matrix,
    mixture_matrix,
    sequential_matrix,
    uniform_jump_matrix,
    validate_transition_matrix,
)


class TestValidate:
    def test_accepts_substochastic(self):
        p = np.array([[0.0, 0.5], [0.2, 0.0]])
        out = validate_transition_matrix(p)
        assert out.shape == (2, 2)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            validate_transition_matrix(np.zeros((2, 3)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_transition_matrix(np.array([[-0.1, 0.5], [0.0, 0.0]]))

    def test_rejects_superstochastic_row(self):
        with pytest.raises(ValueError, match="substochastic"):
            validate_transition_matrix(np.array([[0.7, 0.5], [0.0, 0.0]]))

    def test_rejects_no_departure(self):
        # Stochastic matrix (spectral radius 1): users never leave.
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="depart"):
            validate_transition_matrix(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        p = np.array([[0.0, 0.5], [bad, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            validate_transition_matrix(p)

    def test_stack_rejects_any_bad_matrix(self):
        good = sequential_matrix(2, continue_prob=0.9)
        bad = np.array([[0.7, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="row 0 .*substochastic"):
            validate_transition_matrix(np.stack([good, bad]))
        cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="depart"):
            validate_transition_matrix(np.stack([good, cycle]))
        nan = np.array([[0.0, np.nan], [0.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            validate_transition_matrix(np.stack([good, nan]))


class TestBuilders:
    def test_sequential_structure(self):
        p = sequential_matrix(4, continue_prob=0.8)
        assert p[0, 1] == pytest.approx(0.8)
        assert p[2, 3] == pytest.approx(0.8)
        assert p[3].sum() == 0.0  # last chunk departs
        assert np.count_nonzero(p) == 3

    def test_sequential_single_chunk(self):
        p = sequential_matrix(1, continue_prob=0.5)
        assert p.shape == (1, 1)
        assert p.sum() == 0.0

    def test_sequential_rejects_certain_continuation(self):
        with pytest.raises(ValueError):
            sequential_matrix(3, continue_prob=1.0)

    def test_uniform_jump_rows(self):
        p = uniform_jump_matrix(5, continue_prob=0.6, jump_prob=0.2)
        validate_transition_matrix(p)
        # Row 0: continue 0.6 to chunk 1, plus 0.2/4 to each other chunk.
        assert p[0, 1] == pytest.approx(0.6 + 0.05)
        assert p[0, 2] == pytest.approx(0.05)
        # Last row: no continuation, only jumps.
        assert p[4].sum() == pytest.approx(0.2)

    def test_uniform_jump_needs_departure_mass(self):
        with pytest.raises(ValueError):
            uniform_jump_matrix(5, continue_prob=0.9, jump_prob=0.1)

    def test_mixture(self):
        a = sequential_matrix(4, 0.9)
        b = uniform_jump_matrix(4, 0.5, 0.2)
        mixed = mixture_matrix([a, b], [0.25, 0.75])
        assert np.allclose(mixed, 0.25 * a + 0.75 * b)
        validate_transition_matrix(mixed)

    def test_mixture_rejects_bad_weights(self):
        a = sequential_matrix(3, 0.9)
        with pytest.raises(ValueError):
            mixture_matrix([a, a], [0.6, 0.6])

    def test_mixture_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            mixture_matrix(
                [sequential_matrix(3, 0.9), sequential_matrix(4, 0.9)], [0.5, 0.5]
            )

    @given(
        n=st.integers(min_value=1, max_value=12),
        cont=st.floats(min_value=0.0, max_value=0.7),
        jump=st.floats(min_value=0.0, max_value=0.25),
    )
    @settings(max_examples=50, deadline=None)
    def test_builders_always_valid(self, n, cont, jump):
        if cont + jump >= 1.0:
            return
        validate_transition_matrix(uniform_jump_matrix(n, cont, jump))


class TestEmpirical:
    def test_recovers_observed_frequencies(self):
        counts = np.array([[0.0, 90.0], [0.0, 0.0]])
        departures = np.array([10.0, 100.0])
        p = empirical_transition_matrix(counts, departures, prior_strength=0.0)
        assert p[0, 1] == pytest.approx(0.9)
        assert p[1].sum() == pytest.approx(0.0)

    def test_falls_back_to_prior_when_no_data(self):
        prior = sequential_matrix(3, 0.9)
        p = empirical_transition_matrix(
            np.zeros((3, 3)), np.zeros(3), prior=prior
        )
        assert np.allclose(p, prior)

    def test_smoothing_blends_toward_prior(self):
        prior = sequential_matrix(2, 0.5)
        counts = np.array([[0.0, 10.0], [0.0, 0.0]])
        departures = np.array([0.0, 10.0])
        p = empirical_transition_matrix(
            counts, departures, prior=prior, prior_strength=10.0
        )
        # Row 0 blends 10 observed transitions with 10 pseudo-counts at 0.5.
        assert p[0, 1] == pytest.approx((10.0 + 10.0 * 0.5) / 20.0)

    def test_result_always_valid(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, size=(5, 5)).astype(float)
        np.fill_diagonal(counts, 0.0)
        departures = rng.integers(1, 30, size=5).astype(float)
        p = empirical_transition_matrix(counts, departures)
        validate_transition_matrix(p)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            empirical_transition_matrix(
                np.array([[-1.0, 0.0], [0.0, 0.0]]), np.zeros(2)
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            empirical_transition_matrix(np.zeros((2, 2)), np.zeros(3))
