"""The full oracle loop, end to end.

Judging one program means: generate several intended policies, train the
program once per policy with the matching compliance reward, trend-check
every compliance series, and vote. A program is NonBuggy when at least a
threshold fraction of its runs look healthy. Scaled down here (6 policies,
150 epochs) so the demo finishes in seconds.
"""

from fuzzoracle import (
    AgentConfig,
    GridSpec,
    OracleConfig,
    inject_bug,
    oracle_main,
)

spec = GridSpec()
config = OracleConfig(
    policies=6,
    epochs=150,
    theta_oracle=0.7,
    window=5,
    epsilon=0.02,
    delta=0.1,
    master_seed=0,
)

for label, agent in (
    ("clean Q-learner", AgentConfig()),
    ("REWARD_NEGATED", inject_bug(AgentConfig(), "REWARD_NEGATED")),
):
    verdict = oracle_main(agent, spec, config)
    print(f"{label}: {verdict.label}  "
          f"({verdict.true_count}/{len(verdict.per_policy)} healthy trends)")
    for outcome in verdict.per_policy:
        mark = "ok " if outcome.healthy else "BAD"
        print(f"   policy {outcome.policy_id}: {mark} slope "
              f"{outcome.trend.slope:+.5f} final {outcome.series.values[-1]:.2f}")
    print()
