"""Tests for the JSON faces of :mod:`repro.api`.

``EngineConfig.to_dict()/from_dict()`` is the service's wire format for
``POST /runs`` and the host's ``meta.json``; ``EpochSnapshot.to_dict()``
is the SSE event body.  The contract pinned here:

* every engine kind round-trips exactly (spec, constants, workers,
  predictor, controller — and reconstructed configs open identical
  runs);
* the documents are strict: unknown keys fail fast at every level
  (top, spec, constants) instead of being silently dropped;
* everything in the output is plain JSON scalars — numpy never leaks.
"""

import json

import numpy as np
import pytest

from repro.api import EngineConfig, EpochSnapshot, open_run
from repro.experiments.config import small_scenario
from repro.workload.catalog import catalog_config, geo_catalog_config


def small_catalog(**overrides):
    knobs = dict(
        num_channels=6, chunks_per_channel=4, horizon_hours=0.5,
        arrival_rate=0.5, num_shards=4, dt=60.0, interval_minutes=10.0,
    )
    knobs.update(overrides)
    return catalog_config(**knobs)


CONFIGS = {
    "closed-loop": lambda: EngineConfig(
        spec=small_scenario("p2p", horizon_hours=0.5), controller="reactive"
    ),
    "catalog": lambda: EngineConfig(spec=small_catalog(), workers=2),
    "geo-catalog": lambda: EngineConfig(
        spec=geo_catalog_config(
            topology="us-eu", num_channels=4, chunks_per_channel=3,
            horizon_hours=0.5, arrival_rate=0.4, num_shards=4, dt=60.0,
            interval_minutes=10.0,
        ),
        predictor="seasonal",
    ),
}


# ----------------------------------------------------------------------
# EngineConfig round-trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_engine_config_round_trip(kind):
    config = CONFIGS[kind]()
    document = config.to_dict()
    assert document["kind"] == kind
    # The document must survive an actual JSON wire crossing.
    rebuilt = EngineConfig.from_dict(json.loads(json.dumps(document)))
    assert rebuilt.kind == config.kind
    assert rebuilt.workers == config.workers
    assert rebuilt.predictor == config.predictor
    assert rebuilt.controller == config.controller
    assert rebuilt.to_dict() == document


def test_round_trip_config_opens_identical_run():
    config = CONFIGS["catalog"]()
    rebuilt = EngineConfig.from_dict(config.to_dict())
    with open_run(config) as a, open_run(rebuilt) as b:
        ra, rb = a.result(), b.result()
    assert ra.times.tobytes() == rb.times.tobytes()
    assert ra.quality.tobytes() == rb.quality.tobytes()
    assert ra.channel_populations == rb.channel_populations


def test_to_dict_is_json_plain():
    config = CONFIGS["closed-loop"]()
    document = config.to_dict()
    json.dumps(document)  # would raise on any numpy scalar/array

    def walk(value):
        if isinstance(value, dict):
            for inner in value.values():
                walk(inner)
        elif isinstance(value, list):
            for inner in value:
                walk(inner)
        else:
            assert not isinstance(value, (np.generic, np.ndarray))

    walk(document)


# ----------------------------------------------------------------------
# Strictness: unknown keys fail fast at every level
# ----------------------------------------------------------------------
def test_unknown_top_level_key_rejected():
    document = CONFIGS["catalog"]().to_dict()
    document["retries"] = 3
    with pytest.raises(ValueError, match="retries"):
        EngineConfig.from_dict(document)


def test_unknown_spec_key_rejected():
    document = CONFIGS["catalog"]().to_dict()
    document["spec"]["num_chanels"] = 12  # the typo must not pass
    with pytest.raises(ValueError, match="num_chanels"):
        EngineConfig.from_dict(document)


def test_stale_scenario_key_rejected():
    """``bootstrap_rate_factor`` was a ScenarioConfig field nothing read;
    a closed-loop spec that still carries it fails fast."""
    document = CONFIGS["closed-loop"]().to_dict()
    document["spec"]["bootstrap_rate_factor"] = 1.0
    with pytest.raises(ValueError, match="bootstrap_rate_factor"):
        EngineConfig.from_dict(document)


def test_scenario_behaviour_key_rejected():
    """``behaviour`` was a ScenarioConfig field nothing set: a
    closed-loop wire dict no longer has it, and one that carries it
    fails fast."""
    document = CONFIGS["closed-loop"]().to_dict()
    assert "behaviour" not in document["spec"]
    document["spec"]["behaviour"] = None
    with pytest.raises(ValueError, match="behaviour"):
        EngineConfig.from_dict(document)


def test_unknown_constants_key_rejected():
    document = CONFIGS["catalog"]().to_dict()
    document["spec"]["constants"]["vm_bandwith"] = 1.0
    with pytest.raises(ValueError, match="vm_bandwith"):
        EngineConfig.from_dict(document)


def test_unknown_kind_rejected():
    document = CONFIGS["catalog"]().to_dict()
    document["kind"] = "batch"
    with pytest.raises(ValueError, match="batch"):
        EngineConfig.from_dict(document)


def test_missing_spec_rejected():
    document = CONFIGS["catalog"]().to_dict()
    del document["spec"]
    with pytest.raises(ValueError):
        EngineConfig.from_dict(document)


# ----------------------------------------------------------------------
# EpochSnapshot
# ----------------------------------------------------------------------
def make_snapshot(**overrides):
    values = dict(
        index=2, epochs_total=3, t_end=np.float64(1200.0),
        arrivals=np.int64(41), departures=7, population=34,
        peak_population=36, used_mbps=410.5, peer_mbps=0.0,
        provisioned_mbps=500.0, shortfall_mbps=0.0,
        quality=np.float64(0.93), vm_cost_per_hour=12.5,
    )
    values.update(overrides)
    return EpochSnapshot(**values)


def test_epoch_snapshot_round_trip_coerces_numpy():
    snapshot = make_snapshot()
    document = snapshot.to_dict()
    json.dumps(document)  # plain scalars only
    assert isinstance(document["t_end"], float)
    assert isinstance(document["arrivals"], int)
    rebuilt = EpochSnapshot.from_dict(document)
    assert rebuilt.index == snapshot.index
    assert rebuilt.quality == pytest.approx(float(snapshot.quality))
    assert rebuilt.to_dict() == document


def test_epoch_snapshot_decision_not_serialized():
    snapshot = make_snapshot(decision={"plan": object()})
    document = snapshot.to_dict()
    assert "decision" not in document
    assert EpochSnapshot.from_dict(document).decision is None


def test_epoch_snapshot_unknown_key_rejected():
    document = make_snapshot().to_dict()
    document["jitter"] = 1.0
    with pytest.raises(ValueError, match="jitter"):
        EpochSnapshot.from_dict(document)


def test_epoch_snapshot_missing_key_rejected():
    document = make_snapshot().to_dict()
    del document["quality"]
    with pytest.raises(ValueError, match="quality"):
        EpochSnapshot.from_dict(document)
