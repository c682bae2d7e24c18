"""Scoring the oracle itself against a labeled bug corpus.

Inject a few registry bugs into the reference learner, judge every
variant, and score the verdicts against ground truth: confusion matrix,
the usual detection metrics, and the ROC sweep over the verdict
threshold. Uses a reduced scale so it runs in about a minute.
"""

from fuzzoracle import (
    AgentConfig,
    GridSpec,
    OracleConfig,
    ProgramRecord,
    confusion_at,
    confusion_metrics,
    inject_bug,
    oracle_main,
    roc_sweep,
)

VARIANTS = [
    ("clean", None, False),
    ("lr_zero", "LR_ZERO", True),
    ("reward_negated", "REWARD_NEGATED", True),
    ("update_skipped", "UPDATE_SKIPPED", True),
    ("eps_frozen", "EPSILON_FROZEN_ONE", True),
]

spec = GridSpec()
config = OracleConfig(
    policies=8,
    epochs=200,
    theta_oracle=0.7,
    window=5,
    epsilon=0.02,
    delta=0.1,
    master_seed=0,
)

records = []
for name, bug, buggy in VARIANTS:
    agent = inject_bug(AgentConfig(), bug) if bug else AgentConfig()
    verdict = oracle_main(agent, spec, config)
    records.append(ProgramRecord(verdict.true_count, config.policies, buggy, name=name))
    truth = "buggy" if buggy else "clean"
    print(f"{name:<16} truth={truth:<5} verdict={verdict.label:<8} "
          f"healthy {verdict.true_count}/{config.policies}")

matrix = confusion_at(records, config.theta_oracle)
metrics = confusion_metrics(matrix)
print(f"\nconfusion at threshold {config.theta_oracle}: "
      f"TP={matrix.tp} FP={matrix.fp} TN={matrix.tn} FN={matrix.fn}")
print(f"accuracy {metrics.accuracy:.2f}, precision {metrics.precision}, "
      f"recall {metrics.recall:.2f}")

print("\nROC sweep (threshold: FPR, TPR):")
for theta, fpr, tpr in roc_sweep(records, [round(0.1 * i, 1) for i in range(11)]):
    print(f"   {theta:.1f}: {fpr:.2f}, {tpr:.2f}")
