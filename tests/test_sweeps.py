"""Tests for the generic parameter-sweep utility and the JSON export."""

import json

import pytest

from repro.harness.runner import run
from repro.harness.sweeps import SweepAxis, render_sweep, sweep


class TestSweepAxis:
    def test_values_frozen_as_tuple(self):
        axis = SweepAxis("memory.l1_mshrs", [1, 2])
        assert axis.values == (1, 2)


class TestSweep:
    def test_single_axis_memory_sweep(self):
        out = sweep(("Camel",), "svr16",
                    [SweepAxis("memory.l1_mshrs", (2, 16))],
                    scale="tiny")
        assert set(out) == {(2,), (16,)}
        assert out[(16,)] >= out[(2,)]     # more MSHRs never hurt

    def test_two_axis_cross_product(self):
        out = sweep(("Camel",), "svr16",
                    [SweepAxis("svr.vector_length", (4, 16)),
                     SweepAxis("memory.l1_mshrs", (4, 16))],
                    scale="tiny")
        assert len(out) == 4
        assert (16, 16) in out

    def test_unnormalised_metric(self):
        out = sweep(("Camel",), "inorder",
                    [SweepAxis("memory.dram_bandwidth_gbps", (12.5, 50.0))],
                    metric="cpi", scale="tiny", normalise=False)
        assert out[(12.5,)] >= out[(50.0,)]   # less bandwidth, higher CPI

    def test_core_config_axis(self):
        out = sweep(("Camel",), "ooo",
                    [SweepAxis("core_config.rob_entries", (4, 64))],
                    scale="tiny")
        assert out[(64,)] > out[(4,)]

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            sweep(("Camel",), "svr16",
                  [SweepAxis("memory.flux_capacitors", (1,))], scale="tiny")

    def test_svr_path_on_non_svr_technique_rejected(self):
        with pytest.raises(ValueError, match="has no"):
            sweep(("Camel",), "inorder",
                  [SweepAxis("svr.vector_length", (8,))], scale="tiny")

    def test_no_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            sweep(("Camel",), "svr16", [], scale="tiny")

    def test_render(self):
        out = sweep(("Camel",), "svr16",
                    [SweepAxis("memory.l1_mshrs", (2, 16))], scale="tiny")
        text = render_sweep(out, [SweepAxis("memory.l1_mshrs", (2, 16))])
        assert "memory.l1_mshrs" in text and "16" in text


class TestJsonExport:
    def test_round_trips_through_json(self):
        result = run("Camel", "svr16", scale="tiny")
        data = json.loads(json.dumps(result.to_dict()))
        assert data["workload"] == "Camel"
        assert data["technique"] == "svr16"
        assert data["cpi"] > 0
        assert data["svr"]["prm_rounds"] > 0
        assert "vr" not in data

    def test_vr_runs_export_vr_block(self):
        result = run("Camel", "vr64", scale="tiny")
        data = result.to_dict()
        assert "svr" not in data
        assert data["vr"]["episodes"] >= 0

    def test_stack_approximates_cpi_in_export(self):
        """The stack is a decomposition: it can exceed CPI slightly when
        stall causes overlap (branch penalty shadowing a memory stall)."""
        result = run("Camel", "inorder", scale="tiny")
        data = result.to_dict()
        total = sum(data["cpi_stack"].values())
        assert data["cpi"] <= total <= data["cpi"] * 1.15
