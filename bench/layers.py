"""Instrumentation of the traced run: span wrappers at each layer boundary
and the checker that re-scores every run log as the program scores it.

The wrappers replace public functions of the package where the calling
module looks them up (``fuzzoracle.oracle.env_step``, not
``fuzzoracle.envs.env_step``), so the program runs unchanged underneath.
"""

from __future__ import annotations

import checker
from fuzzoracle import agents, cli, logfiles, oracle
from workloads import Tally, check_policy


class Capture:
    """Re-scores every run log the program scores, as it is scored, and
    records the checker's health per policy, grouped by oracle run."""

    def __init__(self, tally):
        self.tally = tally
        self.groups = []  # one list of health flags per oracle_main call
        self.rescored = []  # the checker's series, in scoring order
        self.scored_steps = 0
        self.trended_epochs = 0
        self.reward_calls = 0
        self.reward_repeats = 0
        self._wholly_aborted = False

    def series(self, policy, log, theta_step, filter_mode, result) -> None:
        self.scored_steps += sum(len(e.steps) for e in log.epochs)
        expected = checker.compliance_series(
            checker.policy_from_object(policy), checker.log_epochs(log), theta_step, filter_mode
        )
        self.tally.expect(list(result.values) == expected,
                          f"policy {log.policy_id}: series differs from the re-scored run log")
        self.rescored.append(expected)
        self._wholly_aborted = len(log.aborted_epochs) == len(log.epochs)

    def trend(self, values, params, report) -> None:
        values = list(values)
        self.trended_epochs += len(values)
        # Operations are counted from the written outputs; a slope-sign
        # disagreement seen here only marks the flag.
        scratch = Tally(problems=self.tally.problems)
        trend = {"slope": report.slope, "convergence_index": report.convergence_index,
                 "abnormality_found": report.abnormality_found, "healthy": report.verdict}
        params = {"window": params.window, "epsilon": params.epsilon, "delta": params.delta}
        flag = check_policy(scratch, "traced policy", values, trend, params, False)
        if self.groups:
            self.groups[-1].append(None if flag is None else flag and not self._wholly_aborted)


def layer_targets(rec, capture) -> list:
    """Wrappers for the public functions the program calls at each layer
    boundary, as ``(owner, attribute, wrapper)`` for :func:`spans.patched`."""
    wrap = rec.wrap
    series = wrap("compliance.series", oracle.policy_compliance_series)
    trend = wrap("trend.analysis", oracle.trend_analysis)
    judge = wrap("oracle.oracle_main", cli.oracle_main)
    # The checker's own work is a span of its own, so no layer is charged.
    check_series = wrap("bench.check", capture.series)
    check_trend = wrap("bench.check", capture.trend)
    make_reward_fn = oracle.make_reward_fn

    def scored(policy, log, theta_step, filter_mode="state"):
        result = series(policy, log, theta_step, filter_mode=filter_mode)
        check_series(policy, log, theta_step, filter_mode, result)
        return result

    def trended(values, params):
        report = trend(values, params)
        check_trend(values, params, report)
        return report

    def judged(*args, **kwargs):
        capture.groups.append([])
        return judge(*args, **kwargs)

    def rewards(*args, **kwargs):
        reward = make_reward_fn(*args, **kwargs)
        seen = set()

        def counted(state, action):
            capture.reward_calls += 1
            if state in seen:
                capture.reward_repeats += 1
            else:
                seen.add(state)
            return reward(state, action)

        return wrap("compliance.reward", counted)

    targets = [
        (oracle, "env_step", wrap("envs.step", oracle.env_step)),
        (oracle, "make_reward_fn", rewards),
        (oracle, "policy_compliance_series", scored),
        (cli, "policy_compliance_series", scored),
        (oracle, "trend_analysis", trended),
        (cli, "trend_analysis", trended),
        (cli, "read_trace", wrap("logfiles.read_trace", cli.read_trace)),
        (logfiles, "write_trace", wrap("logfiles.write_trace", logfiles.write_trace)),
        (cli, "oracle_main", judged),
    ]
    for command in ("cmd_test", "cmd_evaluate", "cmd_analyze"):
        targets.append((cli, command, wrap("cli." + command[4:], getattr(cli, command))))
    for cls in (agents.TabularQAgent, agents.LinearActorCriticAgent):
        targets.append((cls, "act", wrap("agents.act", cls.act)))
        targets.append((cls, "update", wrap("agents.update", cls.update)))
    return targets
