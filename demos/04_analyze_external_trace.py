"""Judging a program you cannot run: the trace-file route.

Any RL framework can be judged by exporting its per-epoch (state, action)
traces to the line-delimited trace format and shipping the intended
policy as a policy file. This script writes both files for a tiny
hand-built run, reads them back, and judges the run, which is exactly
what `fuzzoracle analyze` does from the command line.
"""

import tempfile
from pathlib import Path

from fuzzoracle import (
    EpochTrace,
    GridSpec,
    IntendedPolicy,
    RunLog,
    TraceStep,
    TrendParams,
    policy_compliance_series,
    trend_analysis,
)
from fuzzoracle.logfiles import load_policy, read_trace, save_policy, write_trace
from fuzzoracle.spaces import DiscreteSpace, GridSpace

spec = GridSpec()
policy = IntendedPolicy(
    [((0, 0), 2), ((2, 2), 1)], GridSpace(4, 4), DiscreteSpace(4)
)

# Three epochs of an imaginary run that keeps getting better.
epochs = (
    EpochTrace((TraceStep((0, 3), 0, 0.0), TraceStep((3, 3), 1, 0.0)), 1),
    EpochTrace((TraceStep((0, 0), 2, 1.0), TraceStep((0, 1), 0, 0.0)), 2),
    EpochTrace((TraceStep((0, 0), 2, 1.0), TraceStep((2, 2), 1, 1.0)), 3),
)
log = RunLog(1, epochs)

with tempfile.TemporaryDirectory() as tmp:
    trace_path = Path(tmp) / "external.trace.jsonl"
    policy_path = Path(tmp) / "intended.policy.json"
    write_trace(trace_path, log, spec)
    save_policy(policy_path, policy)
    print(f"trace file: {trace_path.stat().st_size} bytes, "
          f"policy file: {policy_path.stat().st_size} bytes")

    parsed_log, parsed_env = read_trace(trace_path)
    parsed_policy = load_policy(policy_path)
    assert parsed_log == log and parsed_policy == policy

series = policy_compliance_series(parsed_policy, parsed_log, theta_step=0.5)
report = trend_analysis(series, TrendParams(window=2, epsilon=0.05, delta=0.1))
print("compliance series:", [round(v, 3) for v in series.values])
print(f"slope {report.slope:+.3f} -> "
      f"{'NonBuggy' if report.verdict else 'Buggy'}")
