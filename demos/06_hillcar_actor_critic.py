"""The continuous testbed: hill car with a linear actor-critic.

States are (position, velocity), actions a scalar force in [-1, 1].
Distances between states are Euclidean after normalizing each dimension
by its range, and action compliance is a linear ramp over the action-space
diameter, so partial credit exists in both factors.

A linear learner this small will not master an arbitrary intended policy
in 300 epochs; what the verdict machinery needs is the contrast. A modest
learner holds a flat-to-rising compliance trend, while the same learner
with its reward sign flipped actively avoids the intended behavior and
gets flagged.
"""

from fuzzoracle import (
    AgentConfig,
    HillCarSpec,
    IntendedPolicy,
    TrendParams,
    inject_bug,
    policy_compliance_series,
    run_training_phase,
    trend_analysis,
)

spec = HillCarSpec(max_steps_per_epoch=150)
# Hand-designed intended policy: full push to the right at three spots
# along the rightward swing.
policy = IntendedPolicy(
    [((-0.9, 0.0), (1.0,)), ((-0.5, 0.02), (1.0,)), ((-0.1, 0.04), (1.0,))],
    spec.state_space(),
    spec.action_space(),
)
print("intended policy:")
for (pos, vel), (force,) in policy.entries:
    print(f"   near position {pos:+.2f}, velocity {vel:+.3f} -> force {force:+.1f}")
print(f"minimum normalized reference gap: {policy.min_ref_distance:.3f}\n")

base = AgentConfig(
    algorithm="linear_actor_critic",
    learning_rate=0.005,
    critic_learning_rate=0.05,
    action_noise=0.3,
    discount=0.9,
)

for label, config in (
    ("clean", base),
    ("REWARD_NEGATED", inject_bug(base, "REWARD_NEGATED")),
):
    log = run_training_phase(config, spec, policy, epochs=300, seed=0)
    series = policy_compliance_series(policy, log, theta_step=0.3)
    report = trend_analysis(series, TrendParams(window=5, epsilon=0.02, delta=0.1))
    chunk = len(series.values) // 6
    means = [
        sum(series.values[i * chunk : (i + 1) * chunk]) / chunk for i in range(6)
    ]
    print(f"{label}:")
    print("   compliance by sixth:", " -> ".join(f"{m:.2f}" for m in means))
    print(f"   slope {report.slope:+.5f} -> "
          f"{'healthy' if report.verdict else 'flagged as unhealthy'}\n")
