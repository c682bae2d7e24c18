"""Where does the fuzzy reward live?

An intended policy picks a few reference cells and an ideal action for
each. The reward for a step is the product of two memberships: how close
the visited state is to its nearest reference (zero beyond half the
minimum reference gap) and whether the action matches that reference's
ideal. This script paints both over the default 4x4 grid.
"""

from fuzzoracle import GridSpec, IntendedPolicy, step_compliance_at
from fuzzoracle.spaces import DiscreteSpace, GridSpace

ARROWS = {0: "<", 1: "v", 2: ">", 3: "^"}

spec = GridSpec()
policy = IntendedPolicy(
    [((0, 2), 1), ((2, 0), 2), ((3, 2), 3)],
    GridSpace(spec.rows, spec.cols),
    DiscreteSpace(4),
)

print("references:", ", ".join(f"{s} {ARROWS[a]}" for s, a in policy.entries))
print(f"minimum reference gap: {policy.min_ref_distance:.0f} "
      f"(memberships vanish beyond {policy.min_ref_distance / 2:.1f})\n")

print("state compliance by cell (T = terminal):")
for r in range(spec.rows):
    row = []
    for c in range(spec.cols):
        if spec.is_terminal((r, c)):
            row.append("  T  ")
        else:
            mu_state, _, _ = step_compliance_at(policy, (r, c), 0)
            row.append(f"{mu_state:.2f} ")
    print("   " + " ".join(row))

print("\nstep compliance at (2, 1), one entry per action:")
for action in range(4):
    mu_state, mu_action, mu_step = step_compliance_at(policy, (2, 1), action)
    print(f"   action {ARROWS[action]}: state {mu_state:.2f} x action "
          f"{mu_action:.0f} = reward {mu_step:.2f}")
