"""Unit tests for the event-driven Jackson simulator.

(The statistical validation against the closed forms lives in
``test_queue_sim_validation.py``; these tests pin mechanical behaviour:
determinism, the exact output of one fixed-seed run, warmup accounting.)
"""

import numpy as np
import pytest

from repro.queueing.transitions import sequential_matrix, uniform_jump_matrix
from repro.vod.queue_sim import JacksonChannelSimulator

MU = 1.0 / 12.0


def make_sim(**kwargs):
    defaults = dict(
        transition_matrix=uniform_jump_matrix(3, 0.5, 0.2),
        external_rate=0.05,
        service_rate=MU,
        servers=np.full(3, 10),
        alpha=0.8,
        seed=1,
    )
    defaults.update(kwargs)
    return JacksonChannelSimulator(**defaults)


class TestQueueSimMechanics:
    def test_deterministic_given_seed(self):
        a = make_sim(seed=7).run(horizon=20_000.0)
        b = make_sim(seed=7).run(horizon=20_000.0)
        assert a.arrivals == b.arrivals
        assert a.departures == b.departures
        assert np.allclose(a.mean_in_system, b.mean_in_system)

    def test_pinned_fixed_seed_result(self):
        """The exact output of one fixed-seed run.  Every event fires in
        (time, scheduling order) and every random draw happens in that
        order, so any change to the event loop that reorders them shows
        up here."""
        result = make_sim(seed=7).run(horizon=20_000.0)
        assert result.mean_in_system.tolist() == [
            0.5608687243365018, 0.413655560442997, 0.35138893150801076,
        ]
        assert result.mean_sojourn.tolist() == [
            12.206065817986982, 11.801870483395065, 11.71296438360036,
        ]
        assert result.mean_owners.tolist() == [
            0.5831966654970275, 0.33458533874279883, 0.09894547532772911,
        ]
        assert result.completed_visits.tolist() == [919, 701, 600]
        assert (result.arrivals, result.departures) == (984, 984)
        assert result.horizon == 20_000.0

    def test_seeds_differ(self):
        a = make_sim(seed=1).run(horizon=20_000.0)
        b = make_sim(seed=2).run(horizon=20_000.0)
        assert a.arrivals != b.arrivals

    def test_warmup_discarded(self):
        """Statistics with warmup must cover only the post-warmup window."""
        result = make_sim(seed=3).run(horizon=50_000.0, warmup=10_000.0)
        assert result.horizon == pytest.approx(40_000.0)
        assert np.all(result.mean_in_system >= 0)

    def test_warmup_must_precede_horizon(self):
        with pytest.raises(ValueError):
            make_sim().run(horizon=10.0, warmup=10.0)

    def test_zero_rate_channel_stays_empty(self):
        result = make_sim(external_rate=0.0).run(horizon=5_000.0)
        assert result.arrivals == 0
        assert np.all(result.mean_in_system == 0.0)

    def test_visits_exceed_external_arrivals(self):
        """Users download multiple chunks, so total completed visits must
        exceed the number of sessions (in a stable run)."""
        result = make_sim(seed=5).run(horizon=100_000.0)
        assert result.completed_visits.sum() > result.arrivals

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_sim(external_rate=-1.0)
        with pytest.raises(ValueError):
            make_sim(service_rate=0.0)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="service rate"):
                make_sim(service_rate=rate)
        with pytest.raises(ValueError):
            make_sim(servers=np.full(2, 5))  # wrong length
        with pytest.raises(ValueError):
            make_sim(servers=np.array([1, -1, 1]))

    def test_sequential_chain_decaying_visits(self):
        p = sequential_matrix(4, continue_prob=0.7)
        result = JacksonChannelSimulator(
            p, 0.05, MU, np.full(4, 20), alpha=1.0, seed=13
        ).run(horizon=100_000.0)
        visits = result.completed_visits
        assert visits[0] > visits[1] > visits[2] > visits[3]
