"""Tests of the benchmark's own metric code. Run with ``python3 -m pytest perfbench``."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from measure import (  # noqa: E402
    Call,
    Ref,
    bound_fail_share,
    min_samples,
    miss_share,
    percentile,
    reference_agrees,
    shortfall_max,
)
from tracer import CALL, Tracer  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    with pytest.raises(ValueError):
        percentile([1.0] * 99, 90)
    samples = [float(v) for v in range(1, 101)]
    p90 = percentile(samples, 90)
    assert sum(s > p90 for s in samples) >= 10
    assert percentile(samples, 50) == 50.5


def test_shortfall_and_miss_share_use_the_tolerance_of_each_dA():
    tol = workloads.j_tolerance()
    assert tol == {2: 1e-4, 3: 1e-3}
    refs = [
        Ref((2, 2), 1.0, 1.0 - 2e-4),  # qubit A, beyond 1e-4: a miss
        Ref((2, 4), 1.0, 1.0 - 5e-5),
        Ref((3, 3), 1.0, 1.0 - 5e-4),  # within the qutrit-A 1e-3
        Ref((3, 4), 0.5, 0.5 - 2e-3),  # a miss
        Ref((3, 2), 0.5, 0.5 + 1e-15),  # roundoff above the reference
    ]
    assert refs[3].shortfall == pytest.approx(2e-3)
    assert shortfall_max(refs) == pytest.approx(2e-3)
    assert miss_share(refs, tol) == 2 / 5


def test_a_violated_bound_counts_in_bound_fail_share(monkeypatch):
    original = workloads.bounds.evaluate_bounds

    def violating(rho, x, z, cfg=None):
        report = original(rho, x, z, cfg)
        return dataclasses.replace(report, U=report.U_b1 - 1e-3)

    monkeypatch.setattr(workloads.bounds, "evaluate_bounds", violating)
    calls, refs = workloads.ZeroDiscord(seed=5).run_unit(0)
    assert any(f.startswith("bound:") for f in calls[0].failures)
    assert bound_fail_share(calls + [Call(ms=1.0, states=1)]) == 0.5
    assert len(refs) == 1


def test_exit_codes_two_and_three_count_as_bound_failures(monkeypatch, tmp_path):
    verify = workloads.make("verify-qubit", 5, tmp_path)
    for code, counted in ((2, True), (3, True), (1, False)):
        monkeypatch.setattr(workloads.cli, "main", lambda argv, code=code: code)
        calls, _ = verify.run_unit(0)
        assert calls[0].failures
        assert bound_fail_share(calls) == (1.0 if counted else 0.0)


@pytest.mark.parametrize("k", [0, 13, 14])  # dims (2,2), (3,3), (3,4)
def test_reference_validator_accepts_the_generating_basis_only(k):
    from quncert.correlations import holevo_quantity
    from quncert.entropy import ProjectiveMeasurement, mutual_information

    rho, basis, _, _ = workloads.ZeroDiscord(seed=3).inputs(k)
    mutual = mutual_information(rho)
    assert reference_agrees(holevo_quantity(rho, ProjectiveMeasurement.from_basis(basis)), mutual)
    rng = np.random.default_rng(0)
    g = rng.normal(size=basis.shape) + 1j * rng.normal(size=basis.shape)
    rotated = basis @ np.linalg.qr(g)[0]
    assert not reference_agrees(holevo_quantity(rho, ProjectiveMeasurement.from_basis(rotated)), mutual)


def test_layer_time_counts_nested_spans_once_and_self_time_excludes_children():
    tracer = Tracer()
    # root call of 2 states: evaluate [0, 10] holds J [1, 7] and S [7, 8]; a
    # channel span [10, 11] nests another channel span [10.2, 10.8]
    tracer.spans = [
        [0, None, CALL, CALL, 0.0, 12.0, 2],
        [1, 0, "bounds.evaluate_ms", "evaluate_bounds", 0.0, 10.0, None],
        [2, 1, "correlations.J_ms.dA2", "classical_correlation", 1.0, 7.0, None],
        [3, 1, "entropy.S_ms", "von_neumann", 7.0, 8.0, None],
        [4, 0, "channels.evolve_ms", "jc_state", 10.0, 11.0, None],
        [5, 4, "channels.evolve_ms", "apply_kraus", 10.2, 10.8, None],
    ]
    (row,) = tracer.per_call()
    assert row["channels.evolve_ms"] == pytest.approx(1.0)
    assert row["bounds.self_ms"] == pytest.approx(3.0)
    metrics = tracer.layer_metrics(["bounds.evaluate_ms", "cli.self_ms"])
    assert metrics["bounds.evaluate_ms"] == (pytest.approx(5e3), 1)
    assert metrics["cli.self_ms"] == (0.0, 0)
    assert metrics["correlations.J_share"][0] == pytest.approx(0.6)


def test_benchmark_json_is_the_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == run.SPEC
