"""Golden-parity tests for the simulation kernel.

The fixtures under ``tests/golden/`` were recorded with
``scripts/record_golden.py`` from earlier kernels: the raw-kernel and
closed-loop ones from the original scalar kernel (one Python iteration
and one scalar RNG draw per event), the two catalog ones from the
per-channel kernel (one user store and one delivery solve per channel)
that the fused kernel replaced. The kernel's contract — see
docs/performance.md — is that on fixed seeds it reproduces those
trajectories *byte for byte*: the same per-channel RNG stream
consumption order, the same float-reduction order over users, hence
identical quality series, bandwidth series and arrival/departure counts,
in both delivery modes, for the raw kernel, the full closed loop and
the sharded catalog.

``mean_sojourn`` is the one deliberate exception: it is a reporting-only
aggregate (nothing feeds it back into the control loop), so its
accumulator uses a vectorized partial sum and is compared to a relative
tolerance instead of bit-exactly.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.sim.rng import RandomStreams

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

_spec = importlib.util.spec_from_file_location(
    "record_golden", REPO / "scripts" / "record_golden.py"
)
record_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_golden)

EXACT_EXEMPT = {"mean_sojourn"}


def _assert_matches_golden(got: dict, fixture: str) -> None:
    want = json.loads((GOLDEN / fixture).read_text())
    for key, expected in want.items():
        if key in EXACT_EXEMPT:
            assert math.isclose(got[key], expected, rel_tol=1e-9), key
        else:
            assert got[key] == expected, (
                f"{fixture}: {key!r} diverged from the recorded scalar-"
                f"kernel trajectory (byte-identical parity contract)"
            )


class TestKernelParity:
    def test_client_server_kernel(self):
        _assert_matches_golden(
            record_golden.kernel_trajectory("client-server"),
            "kernel_client_server.json",
        )

    def test_p2p_kernel(self):
        _assert_matches_golden(
            record_golden.kernel_trajectory("p2p"),
            "kernel_p2p.json",
        )


class TestClosedLoopParity:
    def test_client_server(self):
        _assert_matches_golden(
            record_golden.closed_loop_trajectory("client-server"),
            "closed_loop_client_server.json",
        )

    def test_p2p(self):
        _assert_matches_golden(
            record_golden.closed_loop_trajectory("p2p"),
            "closed_loop_p2p.json",
        )


class TestCatalogParity:
    """Small sharded catalogs, recorded from the per-channel kernel."""

    def test_client_server(self):
        _assert_matches_golden(
            record_golden.catalog_trajectory("client-server"),
            "catalog_client_server.json",
        )

    def test_p2p(self):
        _assert_matches_golden(
            record_golden.catalog_trajectory("p2p"),
            "catalog_p2p.json",
        )


class TestBatchRNGStreamCompatibility:
    """The invariant the batched transition sampling rests on."""

    def test_batch_equals_scalar_draws(self):
        a = RandomStreams(seed=123)
        b = RandomStreams(seed=123)
        scalar = [b.get("behaviour", "3").random() for _ in range(40)]
        np.testing.assert_array_equal(a.batch(40, "behaviour", "3"), scalar)

    def test_interleaving_batch_and_scalar(self):
        a = RandomStreams(seed=9)
        b = RandomStreams(seed=9)
        mixed = list(a.batch(3, "x")) + [a.get("x").random()] + list(a.batch(2, "x"))
        pure = [b.get("x").random() for _ in range(6)]
        np.testing.assert_array_equal(mixed, pure)

    def test_streams_independent_per_channel(self):
        streams = RandomStreams(seed=5)
        assert not np.array_equal(
            streams.batch(8, "behaviour", "0"),
            streams.batch(8, "behaviour", "1"),
        )

    def test_batch_rejects_negative(self):
        with pytest.raises(ValueError):
            RandomStreams(seed=1).batch(-1, "x")
