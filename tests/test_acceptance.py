"""End-to-end acceptance gates.

Every test prints one PASS line (run with ``pytest -s`` to watch them).
The training-heavy gates share session-scoped fixtures; expect the module
to take a few minutes end to end on one core.
"""

import json
import os
import time

import numpy as np
import pytest

from fuzzoracle import (
    AgentConfig,
    ConfusionMatrix,
    EpochTrace,
    GridSpec,
    IntendedPolicy,
    OracleConfig,
    ProgramRecord,
    RunLog,
    TraceStep,
    TrendParams,
    confusion_metrics,
    inject_bug,
    oracle_main,
    policy_compliance_series,
    roc_sweep,
    trend_analysis,
)
from fuzzoracle.cli import main
from fuzzoracle.spaces import DiscreteSpace, GridSpace

from conftest import brute_force_series

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
CONFIGS = os.path.join(HERE, os.pardir, "configs")

GATE_SEEDS = tuple(range(10))
GATE_BUGS = ("REWARD_NEGATED", "LR_ZERO", "UPDATE_SKIPPED", "EPSILON_FROZEN_ONE")


def gate_oracle_config(seed):
    return OracleConfig(
        policies=10,
        epochs=300,
        theta_oracle=0.7,
        window=5,
        epsilon=0.02,
        delta=0.1,
        theta_step=0.3,
        master_seed=seed,
    )


def run_gate(bug):
    spec = GridSpec()
    config = AgentConfig()
    if bug:
        config = inject_bug(config, bug)
    labels = []
    for seed in GATE_SEEDS:
        verdict = oracle_main(config, spec, gate_oracle_config(seed))
        labels.append(verdict.label)
    return labels


@pytest.fixture(scope="session")
def clean_gate():
    started = time.monotonic()
    labels = run_gate(None)
    return labels, time.monotonic() - started


@pytest.fixture(scope="session")
def bug_gate():
    started = time.monotonic()
    labels = {bug: run_gate(bug) for bug in GATE_BUGS}
    return labels, time.monotonic() - started


@pytest.fixture(scope="session")
def corpus_evaluation(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    started = time.monotonic()
    code = main([
        "evaluate", "--config", os.path.join(CONFIGS, "corpus_grid12.json"),
        "--output", str(out),
    ])
    elapsed = time.monotonic() - started
    assert code == 0
    report = json.loads((out / "evaluation.json").read_text())
    return report, elapsed


def test_criterion_1_metric_fixture():
    matrix = ConfusionMatrix(tp=10, fp=0, tn=2, fn=10)
    confusion_metrics(matrix)  # warm
    started = time.perf_counter()
    metrics = confusion_metrics(matrix)
    elapsed = time.perf_counter() - started
    assert metrics.accuracy == 12 / 22
    assert metrics.precision == 1.0
    assert metrics.recall == 0.5
    assert metrics.f1 == 2 * 1.0 * 0.5 / 1.5
    assert (round(metrics.accuracy, 2), round(metrics.precision, 2),
            round(metrics.recall, 2), round(metrics.f1, 2)) == (0.55, 1.0, 0.5, 0.67)
    assert elapsed < 0.001
    print(f"\nPASS criterion 1: metrics 0.55/1.00/0.50/0.67 in {elapsed * 1e6:.0f} us")


def test_criterion_2_series_matches_brute_force():
    rng = np.random.default_rng(2024)
    cells = [(r, c) for r in range(4) for c in range(4)]
    space = GridSpace(4, 4)
    actions = DiscreteSpace(4)
    started = time.monotonic()
    for case in range(200):
        size = int(rng.integers(2, 6))
        picks = rng.choice(len(cells), size=size, replace=False)
        refs = [cells[int(p)] for p in picks]
        ideals = [int(a) for a in rng.integers(0, 4, size)]
        policy = IntendedPolicy(list(zip(refs, ideals)), space, actions)
        epochs = []
        for e in range(1, int(rng.integers(1, 6)) + 1):
            steps = tuple(
                TraceStep(
                    (int(rng.integers(0, 4)), int(rng.integers(0, 4))),
                    int(rng.integers(0, 4)),
                )
                for _ in range(int(rng.integers(1, 21)))
            )
            epochs.append(EpochTrace(steps, e))
        log = RunLog(1, tuple(epochs))
        theta = float(rng.uniform(0, 1))
        got = policy_compliance_series(policy, log, theta)
        expected = brute_force_series(policy, log, theta)
        assert list(got.values) == expected, f"mismatch on case {case}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"PASS criterion 2: 200 random logs bit-exact in {elapsed:.2f} s")


def test_criterion_3_trend_unit_suite():
    params = TrendParams(window=5, epsilon=0.02, delta=0.1)
    started = time.monotonic()

    decreasing = trend_analysis([0.9, 0.8, 0.7, 0.6, 0.5, 0.45], params)
    assert decreasing.verdict is False

    rising = trend_analysis([0.05 * i for i in range(20)], params)
    assert rising.convergence_index is None
    assert rising.verdict is True

    collapse = [0.1 * i for i in range(1, 10)] + [0.9] * 31 + [0.2] * 5
    collapsed = trend_analysis(collapse, params)
    assert collapsed.slope > 0
    assert collapsed.abnormality_found is True
    assert collapsed.verdict is False

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"PASS criterion 3: trend verdicts False/True/False in {elapsed * 1e3:.1f} ms")


def test_criterion_4_clean_agent_rarely_flagged(clean_gate):
    labels, elapsed = clean_gate
    non_buggy = labels.count("NonBuggy")
    assert elapsed < 600.0
    assert non_buggy >= 9, f"clean agent NonBuggy only {non_buggy}/10: {labels}"
    print(f"\nPASS criterion 4: clean agent NonBuggy {non_buggy}/10 in {elapsed:.0f} s")


def test_criterion_5_severe_bugs_detected(bug_gate):
    labels, elapsed = bug_gate
    assert elapsed < 1800.0
    lines = []
    for bug in GATE_BUGS:
        buggy = labels[bug].count("Buggy")
        assert buggy >= 8, f"{bug} flagged Buggy only {buggy}/10: {labels[bug]}"
        lines.append(f"{bug} {buggy}/10")
    print(f"\nPASS criterion 5: {', '.join(lines)} in {elapsed:.0f} s")


def test_criterion_6_roc_properties(corpus_evaluation):
    report, _ = corpus_evaluation
    records = [
        ProgramRecord(p["true_count"], 10, p["ground_truth_buggy"], name=p["name"])
        for p in report["programs"]
    ]
    assert len(records) == 12

    started = time.monotonic()
    thresholds = [round(0.1 * i, 1) for i in range(11)]
    points = roc_sweep(records, thresholds)
    above_one = roc_sweep(records, [1.000001])[0]
    elapsed = time.monotonic() - started

    assert points[0][1:] == (0.0, 0.0)
    assert above_one[1:] == (1.0, 1.0)
    for (t1, f1, p1), (t2, f2, p2) in zip(points, points[1:]):
        assert f2 >= f1, f"FPR decreased between {t1} and {t2}"
        assert p2 >= p1, f"TPR decreased between {t1} and {t2}"
    assert elapsed < 1.0

    # Pinned regression: the shipped corpus never flags the clean variant.
    assert report["confusion"]["fp"] == 0
    print(
        "\nPASS criterion 6: ROC endpoints (0,0)->(1,1), monotone, "
        f"FP=0, sweep in {elapsed * 1e3:.1f} ms"
    )


def test_criterion_7_byte_identical_reports(tmp_path, clean_gate):
    _, c4_elapsed = clean_gate
    config = os.path.join(CONFIGS, "grid_clean.json")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    started = time.monotonic()
    assert main(["test", "--config", config, "--output", str(out1)]) == 0
    assert main(["test", "--config", config, "--output", str(out2)]) == 0
    elapsed = time.monotonic() - started
    for name in ("report.json", "series.jsonl"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"
    assert elapsed < max(2.0 * c4_elapsed, 60.0)
    print(f"\nPASS criterion 7: reports byte-identical across runs in {elapsed:.0f} s")


def test_criterion_8_external_trace_path(tmp_path):
    out = tmp_path / "analysis.json"
    code = main([
        "analyze",
        "--trace", os.path.join(DATA, "hand3epoch.trace.jsonl"),
        "--policy", os.path.join(DATA, "hand3epoch.policy.json"),
        "--theta-step", "0.5", "--window", "2",
        "--output", str(out),
    ])
    analysis = json.loads(out.read_text())
    assert analysis["series"] == [0.75, 0.0, 0.5]
    assert analysis["trend"]["slope"] == -0.125
    assert analysis["verdict"] == "Buggy"
    assert code == 1
    print("\nPASS criterion 8: documented series [0.75, 0.0, 0.5] and Buggy verdict reproduced")
