"""The paper's quantitative claims as a checked ledger (Section VI).

Each :class:`Claim` row pins one number the paper's evaluation states:
where it says so, the paper's value, how to measure it from
:class:`~repro.experiments.runner.ClosedLoopResult` runs (through the
:mod:`repro.experiments.figures` views), the tolerance a reproduction
must land in, and whether this repository ``reproduces`` it or
``deviates`` from it — the latter always with a stated cause.

Tolerances are fixed in the table, not tuned to the measurement: a row
that misses its tolerance is recorded as a deviation, never widened.

``repro claims`` runs the :data:`HORIZON_HOURS` paper-scale cells
(``paper-closed-loop`` in both modes, ``fig11`` at each upload ratio),
prints ``EXPERIMENTS.md`` from the table and exits non-zero when a
``reproduced`` row is out of tolerance or a ``deviates`` row is within
it. The runs are seeded, so the document is byte-deterministic and CI
diffs it against the committed copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.experiments.config import PAPER
from repro.experiments.figures import (
    fig4_capacity_provisioning,
    fig5_streaming_quality,
    fig7_bandwidth_vs_channel_size,
    fig10_vm_cost,
    fig11_quality_by_peer_bandwidth,
)
from repro.experiments.registry import get
from repro.experiments.reporting import mbps
from repro.experiments.runner import ClosedLoopResult

__all__ = [
    "HORIZON_HOURS",
    "SCALE",
    "SEED",
    "REPRODUCED",
    "DEVIATES",
    "Claim",
    "CLAIMS",
    "cells",
    "run_cells",
    "measure",
    "measure_all",
    "failures",
    "render",
]

#: Simulated hours of every ledger run: one full diurnal cycle.
HORIZON_HOURS = 24.0
#: The registry scale preset the ledger runs at (Section VI-A sizing).
SCALE = "paper"
SEED = 2011

REPRODUCED = "reproduced"
DEVIATES = "deviates"

Runs = Mapping[str, ClosedLoopResult]

_CS, _P2P = "client-server", "p2p"
#: Fig 11: mean peer upload (multiple of r) -> the paper's average quality.
_FIG11_PAPER: Tuple[Tuple[float, float], ...] = ((0.9, 0.95), (1.0, 0.95), (1.2, 1.00))


def _fig11_key(ratio: float) -> str:
    return f"fig11 u/r={ratio}"


def cells() -> Dict[str, Tuple[str, Dict[str, object]]]:
    """Run key -> (registry scenario, grid point) for every ledger run."""
    out: Dict[str, Tuple[str, Dict[str, object]]] = {
        mode: ("paper-closed-loop", {"mode": mode}) for mode in (_CS, _P2P)
    }
    for ratio, _ in _FIG11_PAPER:
        out[_fig11_key(ratio)] = ("fig11", {"upload_ratio": ratio})
    return out


def run_cells() -> Dict[str, ClosedLoopResult]:
    """Run every ledger cell at :data:`SCALE` over :data:`HORIZON_HOURS`."""
    from repro.api import open_run

    runs: Dict[str, ClosedLoopResult] = {}
    for key, (scenario, params) in cells().items():
        config = get(scenario).config(
            seed=SEED, scale=SCALE, horizon_hours=HORIZON_HOURS, **params
        )
        with open_run(config) as run:
            runs[key] = run.result()
    return runs


@dataclass(frozen=True)
class Claim:
    """One quantitative claim of the paper and how this repo checks it.

    ``low``/``high`` bound the measured value (inclusive; an infinite
    side is open). ``measure`` maps the ledger's runs to that value.
    """

    id: str
    ref: str
    quantity: str
    paper: str
    measure: Callable[[Runs], float]
    low: float = -math.inf
    high: float = math.inf
    status: str = REPRODUCED
    cause: str = ""
    fmt: str = ".3f"

    def __post_init__(self) -> None:
        if self.status not in (REPRODUCED, DEVIATES):
            raise ValueError(f"claim {self.id}: unknown status {self.status!r}")
        if (self.status == DEVIATES) != bool(self.cause):
            raise ValueError(
                f"claim {self.id}: a {DEVIATES!r} row needs a stated cause "
                f"and a {REPRODUCED!r} row has none"
            )
        if not self.low <= self.high:
            raise ValueError(f"claim {self.id}: empty tolerance")

    def within(self, value: float) -> bool:
        return self.low <= value <= self.high

    def tolerance(self) -> str:
        if math.isinf(self.low):
            return f"≤ {self.high:{self.fmt}}"
        if math.isinf(self.high):
            return f"≥ {self.low:{self.fmt}}"
        return f"{self.low:{self.fmt}} – {self.high:{self.fmt}}"


def _around(target: float, *, abs_tol: float = 0.0, rel_tol: float = 0.0
            ) -> Dict[str, float]:
    slack = abs_tol + rel_tol * target
    return {"low": target - slack, "high": target + slack}


def _coverage(mode_prefix: str) -> Callable[[Runs], float]:
    def measure_coverage(runs: Runs) -> float:
        data = fig4_capacity_provisioning(runs[_CS], runs[_P2P])
        reserved = data[f"{mode_prefix}_reserved_mbps"]
        return float(np.mean(reserved >= data[f"{mode_prefix}_used_mbps"]))

    return measure_coverage


def _quality(mode_prefix: str) -> Callable[[Runs], float]:
    def measure_quality(runs: Runs) -> float:
        data = fig5_streaming_quality(runs[_CS], runs[_P2P])
        return float(data[f"{mode_prefix}_average"])

    return measure_quality


def _bandwidth_slope(result: ClosedLoopResult) -> float:
    """Least-squares slope of Fig 7's scatter, in Mbps per viewer."""
    data = fig7_bandwidth_vs_channel_size(result)
    return float(np.polyfit(data["channel_size"], data["bandwidth_mbps"], 1)[0])


def _p2p_slope_share(runs: Runs) -> float:
    return _bandwidth_slope(runs[_P2P]) / _bandwidth_slope(runs[_CS])


def _fig10(key: str) -> Callable[[Runs], float]:
    def measure_fig10(runs: Runs) -> float:
        return float(fig10_vm_cost(runs[_CS], runs[_P2P])[key])

    return measure_fig10


def _cost_ratio(runs: Runs) -> float:
    data = fig10_vm_cost(runs[_CS], runs[_P2P])
    return float(data["p2p_average"] / data["cs_average"])


def _fig11_quality(ratio: float) -> Callable[[Runs], float]:
    def measure_quality(runs: Runs) -> float:
        data = fig11_quality_by_peer_bandwidth({ratio: runs[_fig11_key(ratio)]})
        return float(data[ratio]["average"])

    return measure_quality


# Measured facts below are from the seed-2011 ledger runs; "suspected"
# marks a mechanism no ablation has isolated yet (ROADMAP.md).
_FIG11_CAUSE = (
    "Stronger peers make quality worse, not better, than the default "
    "upload (0.67·r mean, `fig5-p2p-quality`). At u = r the controller "
    "rents $77/h instead of $103/h, about 60% of the reserved cloud "
    "bandwidth idles, and quality falls from 0.99 (hours 0–3) to under "
    "0.7 (hours 12–18). Suspected: the estimator's peer credit outruns "
    "what rarest-first delivery realises during the flash crowds. The 8 h "
    "small-scale cells reach ≥ 0.9 at every ratio (tier-1)."
)

CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "fig4-cs-coverage", "Fig. 4, VI-B",
        "C/S share of intervals with reserved ≥ used bandwidth",
        "most intervals", _coverage("cs"), low=0.8, fmt=".2f",
    ),
    Claim(
        "fig4-p2p-coverage", "Fig. 4, VI-B",
        "P2P share of intervals with reserved ≥ used bandwidth",
        "most intervals", _coverage("p2p"), low=0.8, fmt=".2f",
    ),
    Claim(
        "fig5-cs-quality", "Fig. 5, VI-B",
        "C/S average streaming quality",
        "0.97", _quality("cs"), **_around(0.97, abs_tol=0.02),
        status=DEVIATES, cause=(
            "Quality is 1.00 over hours 0–6 and 0.84 over hours 18–24, when "
            "the evening flash crowd peaks at 5.6k viewers (2.2× the "
            "paper's ~2500). Suspected: the last-interval predictor "
            "provisions each hour from the previous hour's rates, so the "
            "reservation (4.0–4.5 Gbps all day) trails the ramp on the hot "
            "chunks."
        ),
    ),
    Claim(
        "fig5-p2p-quality", "Fig. 5, VI-B",
        "P2P average streaming quality",
        "0.95", _quality("p2p"), **_around(0.95, abs_tol=0.02),
    ),
    Claim(
        "fig7-cs-linear", "Fig. 7, VI-B",
        "C/S bandwidth slope vs channel size (Mbps per viewer)",
        "linear, ≥ 0.8·r", lambda runs: _bandwidth_slope(runs[_CS]),
        low=0.8 * mbps(PAPER.streaming_rate),
        status=DEVIATES, cause=(
            "The integer-server analysis keeps at least one 10 Mbps VM on "
            "every populated chunk: 20 channels × 20 chunks is a 4 Gbps, "
            "≥ 400-VM floor (about $240/h at Table II prices), which is why "
            "`paper_scenario` scales the clusters and the VM budget ×3 "
            "($300/h). The floor is the same for small and big channels, so "
            "the reservation grows by less than half of r per extra viewer."
        ),
    ),
    Claim(
        "fig7-p2p-flat", "Fig. 7, VI-B",
        "P2P slope / C/S slope",
        "flat, ≤ 0.25", _p2p_slope_share, high=0.25,
        status=DEVIATES, cause=(
            "P2P bandwidth grows with channel size at about three quarters "
            "of the C/S rate. Suspected: the per-chunk VM floor of `fig7-cs-linear`, plus "
            "peers that cannot absorb the growth: the default Pareto upload "
            "averages 0.67·r, and the estimator credits only 0.6 of the "
            "equilibrium peer contribution (`DemandEstimator.peer_discount`)."
        ),
    ),
    Claim(
        "fig10-cs-cost", "Fig. 10, VI-C",
        "C/S average VM cost ($/h)",
        "$48/h", _fig10("cs_average"), **_around(48.0, rel_tol=0.25),
        fmt=".2f", status=DEVIATES, cause=(
            "The per-chunk VM floor of `fig7-cs-linear` alone costs about "
            "five times the paper's $48/h, which pays for about 80 VMs."
        ),
    ),
    Claim(
        "fig10-p2p-cost", "Fig. 10, VI-C",
        "P2P average VM cost ($/h)",
        "$4.27/h", _fig10("p2p_average"), **_around(4.27, rel_tol=0.25),
        fmt=".2f", status=DEVIATES, cause=(
            "P2P still reserves ~2.2 Gbps, and peers deliver only about 40% "
            "of the traffic. Suspected: the causes of `fig7-p2p-flat` "
            "(per-chunk VM floor, 0.67·r mean peer upload, 0.6 peer "
            "discount)."
        ),
    ),
    Claim(
        "fig10-cost-ratio", "Fig. 10, VI-C",
        "P2P / C/S average VM cost",
        "an order of magnitude", _cost_ratio, high=0.2, fmt=".2f",
        status=DEVIATES, cause=(
            "Follows from the two cost rows: both modes pay for the per-chunk "
            "VM floor, so P2P saves a little over half, not an order of "
            "magnitude."
        ),
    ),
    Claim(
        "fig10-storage", "VI-C (text)",
        "C/S NFS storage cost ($/day)",
        "$0.018/day", _fig10("cs_storage_cost_per_day"),
        **_around(0.018, rel_tol=0.25), fmt=".4f",
    ),
    *(
        Claim(
            f"fig11-quality-{ratio}", "Fig. 11, VI-D",
            f"P2P average quality at peer upload = {ratio}·r",
            f"{paper:.2f}", _fig11_quality(ratio),
            **_around(paper, abs_tol=0.02),
            status=DEVIATES, cause=_FIG11_CAUSE,
        )
        for ratio, paper in _FIG11_PAPER
    ),
)


def measure(runs: Runs) -> Dict[str, float]:
    """Claim id -> measured value over already-computed runs."""
    return {claim.id: claim.measure(runs) for claim in CLAIMS}


def measure_all() -> Dict[str, float]:
    """Run every ledger cell and measure every claim."""
    return measure(run_cells())


def failures(measured: Mapping[str, float]) -> List[str]:
    """One line per row whose measurement contradicts its status."""
    out = []
    for claim in CLAIMS:
        value = measured[claim.id]
        if claim.within(value) != (claim.status == REPRODUCED):
            state = "within" if claim.within(value) else "outside"
            out.append(
                f"{claim.id}: marked {claim.status} but measured "
                f"{value:{claim.fmt}} is {state} {claim.tolerance()}"
            )
    return out


def render(measured: Mapping[str, float]) -> str:
    """The ledger as Markdown: the body of ``EXPERIMENTS.md``."""
    lines = [
        "# Experiments: the paper's claims, measured",
        "",
        "Generated by `repro claims` from `src/repro/experiments/claims.py`;",
        "do not edit by hand. CI re-runs it and diffs the output against",
        "this file, so every number below is what the code measures today.",
        "",
        "Runs: `paper-closed-loop` (client-server and P2P) and `fig11` (mean",
        f"peer upload {', '.join(str(r) for r, _ in _FIG11_PAPER)} × r), all at "
        f"`scale={SCALE}`",
        f"(Section VI-A: {PAPER.num_channels} channels, "
        f"~{PAPER.target_population} viewers), {HORIZON_HOURS:g} simulated "
        f"hours, seed {SEED}.",
        "",
        "A row is `reproduced` when its measurement lands in its tolerance",
        "and `deviates` when it does not. Tolerances were fixed before",
        "measuring and are never widened to turn a row green; each",
        "deviation states its cause below.",
        "",
        "| claim | paper | quantity | paper value | tolerance | measured "
        "| status |",
        "|---|---|---|---|---|---|---|",
    ]
    for claim in CLAIMS:
        lines.append(
            f"| `{claim.id}` | {claim.ref} | {claim.quantity} | {claim.paper} "
            f"| {claim.tolerance()} | {measured[claim.id]:{claim.fmt}} "
            f"| {claim.status} |"
        )
    # Rows sharing a cause are listed together, in table order.
    by_cause: Dict[str, List[str]] = {}
    for claim in CLAIMS:
        if claim.status == DEVIATES:
            by_cause.setdefault(claim.cause, []).append(f"`{claim.id}`")
    if by_cause:
        lines += ["", "## Deviations", ""]
        for cause, ids in by_cause.items():
            lines.append(f"- **{', '.join(ids)}**: {cause}")
    return "\n".join(lines) + "\n"
