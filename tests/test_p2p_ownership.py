"""Tests for repro.p2p.ownership (Proposition 1) and the co-ownership
model Eqn (5) deducts with (the independence product, inlined in
:func:`repro.p2p.contribution.peer_contribution`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p.contribution import peer_contribution
from repro.p2p.ownership import ownership_from_valid, solve_ownership
from repro.queueing.transitions import sequential_matrix, uniform_jump_matrix

r = 50_000.0  # streaming rate and per-peer upload, bytes/second


class TestOwnership:
    def test_fixed_point_property(self):
        """The solution must satisfy Proposition 1's balance equations."""
        p = uniform_jump_matrix(5, 0.6, 0.2)
        n = np.array([4.0, 3.0, 2.0, 2.0, 1.0])
        result = solve_ownership(p, n)
        nu = result.per_queue
        for i in range(5):
            for j in range(5):
                if j == i:
                    assert nu[i, i] == pytest.approx(n[i])
                    continue
                expected = sum(nu[i, k] * p[k, j] for k in range(5))
                assert nu[i, j] == pytest.approx(expected, abs=1e-9)

    def test_sequential_chain_ownership(self):
        """With pure sequential viewing, owners of chunk i are exactly the
        users now in chunks i+1.. weighted by survival probabilities."""
        q = 0.8
        p = sequential_matrix(4, continue_prob=q)
        n = np.array([1.0, q, q**2, q**3])  # equilibrium with Lambda=1, T0=1
        result = solve_ownership(p, n)
        # A peer in queue j > i owns chunk i iff it passed through i; in a
        # pure chain everyone passed through all earlier chunks.
        for i in range(4):
            for j in range(i + 1, 4):
                assert result.per_queue[i, j] == pytest.approx(n[j], rel=1e-9)
        # Nobody "later" owns a chunk ahead of them.
        for i in range(1, 4):
            for j in range(i):
                assert result.per_queue[i, j] == pytest.approx(0.0, abs=1e-12)

    def test_owners_exclude_current_downloaders(self):
        p = sequential_matrix(3, 0.5)
        n = np.array([2.0, 1.0, 0.5])
        result = solve_ownership(p, n)
        # owners_i = sum over other queues only.
        expected = result.per_queue.sum(axis=1) - np.diag(result.per_queue)
        assert result.owners == pytest.approx(expected)

    def test_population(self):
        p = sequential_matrix(3, 0.5)
        n = np.array([2.0, 1.0, 0.5])
        assert solve_ownership(p, n).population == pytest.approx(3.5)

    def test_zero_population(self):
        p = uniform_jump_matrix(4, 0.5, 0.2)
        result = solve_ownership(p, np.zeros(4))
        assert np.all(result.owners == 0.0)
        assert result.population == 0.0

    def test_ownership_nonnegative(self):
        p = uniform_jump_matrix(6, 0.5, 0.3)
        n = np.linspace(1.0, 6.0, 6)
        result = solve_ownership(p, n)
        assert np.all(result.per_queue >= 0.0)
        assert np.all(result.owners >= 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_ownership(sequential_matrix(3, 0.5), np.zeros(4))

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            solve_ownership(sequential_matrix(2, 0.5), np.array([1.0, -1.0]))

    @given(
        n_chunks=st.integers(min_value=2, max_value=8),
        cont=st.floats(min_value=0.0, max_value=0.6),
        jump=st.floats(min_value=0.0, max_value=0.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_owner_count_bounded_by_total_downloads(self, n_chunks, cont, jump):
        """Owners of chunk i cannot exceed the channel population (every
        owner is a peer in some other queue)."""
        if cont + jump >= 1.0:
            return
        p = uniform_jump_matrix(n_chunks, cont, jump)
        rng = np.random.default_rng(n_chunks)
        n = rng.uniform(0.0, 5.0, size=n_chunks)
        result = solve_ownership(p, n)
        population = n.sum()
        assert np.all(result.owners <= population + 1e-6)


class TestStackedOwnership:
    def test_stack_matches_one_channel_calls(self):
        rng = np.random.default_rng(5)
        p = np.stack([uniform_jump_matrix(6, 0.6, 0.2),
                      sequential_matrix(6, 0.8),
                      uniform_jump_matrix(6, 0.3, 0.5)])
        n = rng.uniform(0.0, 5.0, (3, 6))
        n[1] = 0.0
        result = ownership_from_valid(p, n)
        assert result.per_queue.shape == (3, 6, 6)
        for k in range(3):
            one = solve_ownership(p[k], n[k])
            assert result.per_queue[k].tobytes() == one.per_queue.tobytes()
            assert result.owners[k].tobytes() == one.owners.tobytes()
            assert result.population[k] == one.population
        assert np.all(result.owners[1] == 0.0)

    def test_single_chunk(self):
        # J = 1: the lone queue's viewers are downloading it, so no owners.
        result = ownership_from_valid(np.zeros((2, 1, 1)), np.array([[3.0], [0.0]]))
        assert result.per_queue[:, 0, 0] == pytest.approx([3.0, 0.0])
        assert np.all(result.owners == 0.0)

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ownership_from_valid(np.zeros((2, 3, 3)), np.zeros((3, 3)))


class TestIndependentCoownership:
    """Psi(a, b) = f_a * f_b, f = min(nu / N, 1), seen through the
    deduction it sets in the rarest-first pass: the rarest chunk (0 here)
    is served in full, then each of its Psi(0, 1) * N co-owners withholds
    Gamma_0 / nu_0 from chunk 1."""

    @staticmethod
    def contribution(owners, population):
        return peer_contribution(np.asarray(owners, dtype=float), population,
                                 r, r, in_system=np.full(len(owners), 1e3))

    def test_product_form(self):
        gamma = self.contribution([2.0, 4.0], population=8.0)
        assert gamma[0] == pytest.approx(2.0 * r)
        psi = 0.25 * 0.5
        assert gamma[1] == pytest.approx(4.0 * r - psi * 8.0 * r)

    def test_fraction_clipped_at_one(self):
        # nu_1 = 12 > N = 8: f_1 clips to 1, so Psi(0, 1) = f_0.
        gamma = self.contribution([4.0, 12.0], population=8.0)
        assert gamma[1] == pytest.approx(12.0 * r - 0.5 * 8.0 * r)

    def test_zero_population(self):
        # N = 0: every fraction is 0, nothing is deducted; the row beside
        # it in the stack is unaffected.
        owners = np.array([[1.0, 2.0], [2.0, 4.0]])
        gamma = peer_contribution(owners, np.array([0.0, 8.0]), r, r,
                                  in_system=np.full((2, 2), 1e3))
        assert gamma[0] == pytest.approx([1.0 * r, 2.0 * r])
        assert gamma[1].tobytes() == self.contribution([2.0, 4.0], 8.0).tobytes()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            self.contribution([-1.0], population=2.0)
