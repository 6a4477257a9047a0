"""The trace reconciles with an untraced run and leaves no wrapper behind.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import kantcheck
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
# Run-level metrics that run.py adds to the traced layer metrics.
RUN_LEVEL_LAYER_METRICS = {"campaign.report_bytes", "trace.overhead_share"}


def traced(prepared):
    before = spans.bindings()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        wrapped = (kantcheck.loewner_leq, kantcheck.hermitian.loewner_leq,
                   kantcheck.verifiers.loewner_leq, kantcheck.generators.loewner_leq)
        result = prepared.run()
    finally:
        tracer.uninstall()
    return tracer, result, wrapped, before


@pytest.fixture(scope="module")
def campaign_pair(tmp_path_factory):
    spec = workloads.CampaignSpec(dims=(2, 3), samples_per_cell=2)
    plain = workloads.PreparedCampaign(spec, 5, tmp_path_factory.mktemp("plain"))
    plain_outcome = plain.verify(plain.run())
    prepared = workloads.PreparedCampaign(spec, 5, tmp_path_factory.mktemp("traced"))
    tracer, summary, wrapped, before = traced(prepared)
    return plain_outcome, prepared.verify(summary), tracer, wrapped, before


def test_traced_counts_equal_the_untraced_reports(campaign_pair):
    plain, traced_outcome, tracer, _, _ = campaign_pair
    metrics, _ = spans.layer_metrics(tracer)
    assert all(plain.gates.values()) and all(traced_outcome.gates.values())
    assert plain.digest == traced_outcome.digest
    for key in ("checks", "links", "tight_links", "failed_links"):
        assert metrics[f"verifiers.{key}"] == plain.counts[key], key
    assert metrics["verifiers.checks"] == plain.attempted


def test_child_spans_fit_inside_their_parents(campaign_pair):
    tracer = campaign_pair[2]
    assert tracer.spans
    assert tracer.nesting_errors() == []


def test_every_namespace_is_rebound_then_restored(campaign_pair):
    _, _, _, wrapped, before = campaign_pair
    original = kantcheck.hermitian.loewner_leq
    assert all(fn is wrapped[0] for fn in wrapped)
    assert wrapped[0].__wrapped__ is original
    assert spans.changed_bindings(before) == []
    assert np.linalg.eigh.__module__ == "numpy.linalg"
    assert "open" not in vars(kantcheck.sweep)


def test_sweep_trace_times_csv_and_svg_writes(tmp_path):
    prepared = workloads.PreparedSweep(workloads.SweepSpec(p_points=2, q_points=2), 3, tmp_path)
    tracer, result, _, before = traced(prepared)
    metrics, _ = spans.layer_metrics(tracer)
    assert all(prepared.verify(result).gates.values())
    windows = len(workloads.SWEEP_WINDOWS)
    # K and C once per (window, p); K2 and C2 once per (window, p, q).
    assert metrics["constants.oracle_calls"] == windows * 2 * 2 + windows * 2 * 2 * 2
    assert metrics["sweep.write_s"] > 0.0 and metrics["sweep.svg_s"] > 0.0
    assert tracer.nesting_errors() == []
    assert spans.changed_bindings(before) == []


def test_a_raising_call_closes_its_span():
    tracer = spans.Tracer()

    def boom():
        raise kantcheck.GenerationError("no pair")

    with pytest.raises(kantcheck.GenerationError):
        tracer.wrap("generators", "boom", boom)()
    assert tracer.spans[0][spans.RAISED] and tracer.nesting_errors() == []


def test_missing_dim_fails_the_run(tmp_path):
    # Samples cycle through the dims, so 2 samples per cell never reach d = 4.
    prepared = workloads.PreparedCampaign(
        workloads.CampaignSpec(dims=(2, 3, 4), samples_per_cell=2), 1, tmp_path)
    outcome = prepared.verify(prepared.run())
    assert not outcome.gates["every_dim_present"]
    assert outcome.failed == outcome.attempted


def test_layer_metrics_match_benchmark_json(campaign_pair):
    metrics, _ = spans.layer_metrics(campaign_pair[2])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) | RUN_LEVEL_LAYER_METRICS == {m["name"] for m in declared}
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in declared)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
