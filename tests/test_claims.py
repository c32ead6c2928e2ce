"""Tests for the paper's claims ledger (repro.experiments.claims).

Everything here runs on synthetic measured values; the ledger's own
paper-scale runs are ``repro claims`` (CI diffs its output against
EXPERIMENTS.md), and its measure functions run on the small-scale
registry cells in test_integration_closed_loop.py.
"""

import math

import pytest

from repro.cli import build_parser, main
from repro.experiments import claims
from repro.experiments.claims import CLAIMS, DEVIATES, REPRODUCED, Claim
from repro.experiments.registry import get


def _inside(claim):
    if math.isinf(claim.low):
        return claim.high
    if math.isinf(claim.high):
        return claim.low
    return (claim.low + claim.high) / 2.0


def _outside(claim):
    return claim.low - 1.0 if math.isinf(claim.high) else claim.high + 1.0


def _consistent():
    """A measurement every row's recorded status agrees with."""
    return {
        c.id: _inside(c) if c.status == REPRODUCED else _outside(c)
        for c in CLAIMS
    }


def _first(status):
    return next(c for c in CLAIMS if c.status == status)


class TestTable:
    def test_ids_unique(self):
        ids = [c.id for c in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_every_deviates_row_has_a_cause(self):
        for claim in CLAIMS:
            assert bool(claim.cause) == (claim.status == DEVIATES), claim.id

    def test_deviates_without_cause_rejected(self):
        with pytest.raises(ValueError, match="cause"):
            Claim("x", "Fig. 0", "q", "1", lambda runs: 1.0,
                  low=0.0, status=DEVIATES)

    def test_reproduced_with_cause_rejected(self):
        with pytest.raises(ValueError, match="cause"):
            Claim("x", "Fig. 0", "q", "1", lambda runs: 1.0,
                  low=0.0, cause="because")

    def test_unknown_status_and_empty_tolerance_rejected(self):
        with pytest.raises(ValueError, match="status"):
            Claim("x", "Fig. 0", "q", "1", lambda runs: 1.0, status="maybe")
        with pytest.raises(ValueError, match="tolerance"):
            Claim("x", "Fig. 0", "q", "1", lambda runs: 1.0,
                  low=2.0, high=1.0)

    def test_tolerance_is_inclusive_and_rendered(self):
        one_sided = Claim("x", "Fig. 0", "q", "1", lambda runs: 1.0, low=0.8,
                          fmt=".2f")
        assert one_sided.within(0.8) and not one_sided.within(0.79)
        assert one_sided.tolerance() == "≥ 0.80"
        capped = Claim("x", "Fig. 0", "q", "1", lambda runs: 1.0, high=0.25)
        assert capped.tolerance() == "≤ 0.250"
        band = Claim("x", "Fig. 0", "q", "1", lambda runs: 1.0,
                     low=0.95, high=0.99)
        assert band.within(0.99) and not band.within(0.991)
        assert band.tolerance() == "0.950 – 0.990"

    def test_cells_are_registered_paper_scale_runs(self):
        cells = claims.cells()
        for scenario, params in cells.values():
            spec = get(scenario)
            assert spec.build is not None
            for key, value in params.items():
                assert value in spec.grid[key]
        modes = {p["mode"] for s, p in cells.values() if s == "paper-closed-loop"}
        assert modes == set(get("paper-closed-loop").grid["mode"])
        ratios = {p["upload_ratio"] for s, p in cells.values() if s == "fig11"}
        assert ratios == set(get("fig11").grid["upload_ratio"])


class TestCheck:
    def test_consistent_measurement_passes(self):
        assert claims.failures(_consistent()) == []

    def test_reproduced_row_out_of_tolerance_fails(self):
        claim = _first(REPRODUCED)
        measured = {**_consistent(), claim.id: _outside(claim)}
        problems = claims.failures(measured)
        assert len(problems) == 1
        assert problems[0].startswith(f"{claim.id}: marked reproduced")

    def test_deviates_row_within_tolerance_fails(self):
        claim = _first(DEVIATES)
        measured = {**_consistent(), claim.id: _inside(claim)}
        problems = claims.failures(measured)
        assert len(problems) == 1
        assert problems[0].startswith(f"{claim.id}: marked deviates")

    def test_render_lists_every_row_and_cause(self):
        measured = _consistent()
        text = claims.render(measured)
        assert text.endswith("\n")
        for claim in CLAIMS:
            assert f"`{claim.id}`" in text
            assert f"{measured[claim.id]:{claim.fmt}}" in text
            if claim.status == DEVIATES:
                assert claim.cause in text


class TestCli:
    def test_takes_no_flags(self):
        assert build_parser().parse_args(["claims"]).command == "claims"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["claims", "--horizon", "1"])

    def test_prints_ledger_and_exits_zero(self, monkeypatch, capsys):
        measured = _consistent()
        monkeypatch.setattr(claims, "measure_all", lambda: measured)
        assert main(["claims"]) == 0
        captured = capsys.readouterr()
        assert captured.out == claims.render(measured)
        assert captured.err == ""

    @pytest.mark.parametrize("status", [REPRODUCED, DEVIATES])
    def test_contradicted_status_exits_one(self, monkeypatch, capsys, status):
        claim = _first(status)
        wrong = _outside(claim) if status == REPRODUCED else _inside(claim)
        measured = {**_consistent(), claim.id: wrong}
        monkeypatch.setattr(claims, "measure_all", lambda: measured)
        assert main(["claims"]) == 1
        captured = capsys.readouterr()
        assert captured.out == claims.render(measured)
        assert claim.id in captured.err
