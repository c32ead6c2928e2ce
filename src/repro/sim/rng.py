"""Deterministic random-number streams.

Every stochastic component in the reproduction draws from its own named
``numpy.random.Generator`` stream, derived from a single experiment seed.
This makes whole experiments bit-reproducible while keeping components
statistically independent: changing how many samples one component draws
does not perturb any other component.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np
# numpy loads both submodules lazily.  Loading them here keeps the import
# out of a run's timed setup: ``numpy.random`` on the first draw, and
# ``numpy.ma`` on the first ``np.unique`` (``greedy_geo_allocation``).
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

__all__ = ["make_rng", "RandomStreams", "ENTROPY"]


class _Entropy:
    """Singleton sentinel: explicitly request an OS-entropy generator."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "repro.sim.rng.ENTROPY"


#: Pass as ``seed`` to opt *in* to an irreproducible OS-entropy stream
#: (interactive exploration only).  ``seed=None`` is no longer an
#: implicit entropy source: it deterministically falls back to seed 0,
#: so a forgotten seed can never silently break bit-reproducibility —
#: irreproducibility now requires spelling ``ENTROPY`` at the call site.
ENTROPY = _Entropy()


#: 64-bit FNV-1a parameters (offset basis, prime) and the word mask.
_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


def make_rng(seed: Optional[int], *names: str) -> np.random.Generator:
    """Create a generator for the stream identified by ``names``.

    The stream label ``"/".join(names)`` is hashed to a 64-bit word by
    FNV-1a over its UTF-8 bytes, and ``SeedSequence([seed, word])``
    seeds the generator, so distinct names yield independent streams.
    The hash runs on Python ints masked to 64 bits, the same digest as
    ``numpy.uint64`` arithmetic at a fraction of the per-byte cost (set-up
    derives one stream per channel slot, thousands per catalog).

    Parameters
    ----------
    seed:
        Experiment master seed.  ``None`` deterministically falls back
        to seed 0 (``make_rng(None, *n) == make_rng(0, *n)``); OS
        entropy is an explicit opt-in via the :data:`ENTROPY` sentinel.
    names:
        Arbitrary string labels identifying the component, e.g.
        ``make_rng(7, "workload", "arrivals")``.
    """
    if seed is ENTROPY:
        return np.random.default_rng()
    if seed is None:
        seed = 0
    label = "/".join(names)
    digest = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        digest = ((digest ^ byte) * _FNV_PRIME) & _MASK64
    return np.random.default_rng(np.random.SeedSequence([seed, digest]))


class RandomStreams:
    """A registry of named random streams sharing one master seed.

    Streams are created lazily and cached, so repeated lookups return the
    *same* generator object (continuing its sequence), which is what a
    long-running simulation needs.

    >>> streams = RandomStreams(seed=42)
    >>> a = streams.get("arrivals")
    >>> a is streams.get("arrivals")
    True
    """

    def __init__(self, seed: Optional[int] = 0):
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, *names: str) -> np.random.Generator:
        """Return the (cached) generator for the given stream label."""
        key = "/".join(names)
        if key not in self._streams:
            self._streams[key] = make_rng(self.seed, key)
        return self._streams[key]

    def batch(self, n: int, *names: str) -> np.ndarray:
        """Draw ``n`` uniforms in ``[0, 1)`` from the named stream at once.

        Stream-compatible with scalar draws: numpy's bit generators
        consume the underlying stream identically whether doubles are
        requested one at a time or as a block, so
        ``streams.batch(n, "x")`` yields exactly the values ``n``
        successive ``streams.get("x").random()`` calls would have — the
        invariant the vectorized step kernel's golden parity rests on
        (and that ``tests/test_kernel_parity.py`` pins down).
        """
        if n < 0:
            raise ValueError("batch size must be >= 0")
        return self.get(*names).random(n)

    def spawn(self, *names: str) -> "RandomStreams":
        """Create a child registry with an independent derived seed."""
        child_seed = int(make_rng(self.seed, "spawn", *names).integers(0, 2**31 - 1))
        return RandomStreams(child_seed)

    def labels(self) -> Iterable[str]:
        """Labels of streams created so far (for diagnostics)."""
        return tuple(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self.seed}, streams={len(self._streams)})"
