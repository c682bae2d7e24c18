"""Command-line front end.

Commands:

* ``test``      judge a program end to end from a run config
* ``analyze``   judge an externally produced trace log against a policy file
* ``evaluate``  run a corpus of program variants and score detection quality
* ``policies``  generate intended-policy files (``policies generate``)
* ``bugs``      inspect the fault registry (``bugs list``)

Every file a command writes is built in :mod:`fuzzoracle.logfiles`; a
command here parses its flags, runs, and writes what that module built.
``analyze`` judges its trace with :func:`fuzzoracle.oracle.analyze_log`,
the judge ``test`` uses for each run log.

Exit status is the machine contract: 0 means NonBuggy (or success for
commands without a verdict), 1 means Buggy, 2 means error. Flags and
``--set`` override config-file fields, which override defaults: each is set
on the file's section before that section is parsed, so a file value it
replaces is never checked, and ``--set env.kind`` starts from that kind's
defaults. The FUZZORACLE_WORKERS environment variable bounds the training
worker pool; ``--workers`` wins when both are given, and either must be at
least 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from .agents import BUG_REGISTRY, check_environment
from .compliance import policy_compliance_series  # unused; bench/layers.py patches it here
from .errors import FuzzOracleError, TraceFormatError
from .logfiles import (
    analysis_report,
    canonical_json,
    config_from_dict,
    env_spec_from_dict,
    evaluation_report,
    load_policy,
    load_run_config,
    meta_text,
    read_trace,
    save_policy,
    series_lines,
    verdict_report,
    write_trace,
)
from .oracle import OracleConfig, analyze_log, judge_programs, oracle_main, oracle_policies
from .trend import trend_analysis  # unused; bench/layers.py patches it here

EXIT_NON_BUGGY = 0
EXIT_BUGGY = 1
EXIT_ERROR = 2


def main(argv=None) -> int:
    """Run one command; its exit status is the return value.

    The handler runs with the cyclic garbage collector paused, and the
    caller's setting comes back afterwards. A command allocates millions of
    small acyclic records (transitions, trace steps, parsed JSON objects),
    which the collector would keep scanning for almost no garbage; forked
    pool workers inherit the pause.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (FuzzOracleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if collecting:
            gc.enable()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzoracle",
        description="Judge reinforcement-learning programs Buggy or NonBuggy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the full oracle on a program")
    p_test.add_argument("--config", required=True, help="run config JSON file")
    _add_override_flags(p_test)
    p_test.add_argument("--output", help="output directory (default from config)")
    p_test.add_argument("--bug", help="inject this bug into the agent")
    p_test.add_argument("--workers", type=int, help="training worker pool size")
    p_test.add_argument(
        "--emit-traces", action="store_true",
        help="also write per-policy trace and policy files",
    )
    p_test.set_defaults(handler=cmd_test)

    p_an = sub.add_parser("analyze", help="judge an external trace log")
    p_an.add_argument("--trace", required=True, help="trace log file")
    p_an.add_argument("--policy", required=True, help="intended policy file")
    p_an.add_argument("--theta-step", type=float, help="oracle.theta_step")
    p_an.add_argument("--filter-mode", help="oracle.filter_mode: state or step")
    p_an.add_argument("--window", type=int, help="oracle.window")
    p_an.add_argument("--epsilon", type=float, help="oracle.epsilon")
    p_an.add_argument("--delta", type=float, help="oracle.delta")
    p_an.add_argument("--output", help="write the analysis JSON here instead of stdout")
    p_an.set_defaults(handler=cmd_analyze)

    p_ev = sub.add_parser("evaluate", help="score detection quality over a corpus")
    p_ev.add_argument("--config", required=True, help="corpus config JSON file")
    _add_override_flags(p_ev)
    p_ev.add_argument("--output", help="output directory (default from config)")
    p_ev.add_argument("--workers", type=int, help="training worker pool size")
    p_ev.set_defaults(handler=cmd_evaluate)

    p_pol = sub.add_parser("policies", help="intended-policy utilities")
    pol_sub = p_pol.add_subparsers(dest="subcommand", required=True)
    p_gen = pol_sub.add_parser("generate", help="write intended-policy files")
    p_gen.add_argument("--env", choices=("grid", "hillcar"), default="grid")
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--size", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", required=True, help="directory for policy files")
    p_gen.set_defaults(handler=cmd_policies_generate)

    p_bugs = sub.add_parser("bugs", help="fault registry utilities")
    bugs_sub = p_bugs.add_subparsers(dest="subcommand", required=True)
    p_list = bugs_sub.add_parser("list", help="list injectable bugs")
    p_list.set_defaults(handler=cmd_bugs_list)

    return parser


def _add_override_flags(parser) -> None:
    parser.add_argument("--seed", type=int, help="override oracle.master_seed")
    parser.add_argument("--epochs", type=int, help="override oracle.epochs")
    parser.add_argument("--policies", type=int, help="override oracle.policies")
    parser.add_argument(
        "--theta-oracle", type=float, help="override oracle.theta_oracle"
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="SECTION.FIELD=VALUE",
        help="override any config field, e.g. --set oracle.epsilon=0.02; "
        "values are parsed as JSON",
    )


def _overrides(args) -> list:
    """``--set``, the oracle flags and ``--bug`` as the ``(section, field,
    value)`` overrides of :func:`load_run_config`; a flag beats a ``--set``."""
    overrides = []
    for item in args.set:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise TraceFormatError(
                f"--set expects SECTION.FIELD=VALUE, got {item!r}"
            )
        target, raw = item.split("=", 1)
        section, fieldname = target.split(".", 1)
        if section not in ("env", "agent", "oracle"):
            raise TraceFormatError(
                f"--set section must be env, agent, or oracle, got {section!r}"
            )
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        overrides.append((section, fieldname, value))
    for flag, section, fieldname in (
        ("seed", "oracle", "master_seed"), ("epochs", "oracle", "epochs"),
        ("policies", "oracle", "policies"), ("theta_oracle", "oracle", "theta_oracle"),
        ("bug", None, "bug"),
    ):
        if getattr(args, flag, None) is not None:
            overrides.append((section, fieldname, getattr(args, flag)))
    return overrides


def _resolve_workers(args) -> int | None:
    """``--workers``, else FUZZORACLE_WORKERS when it is set and not empty,
    else None; a count below 1 is refused."""
    workers, source = args.workers, "--workers"
    env_value = os.environ.get("FUZZORACLE_WORKERS")
    if workers is None and env_value:
        try:
            workers, source = int(env_value), "FUZZORACLE_WORKERS"
        except ValueError:
            raise TraceFormatError(
                f"FUZZORACLE_WORKERS must be an integer, got {env_value!r}"
            ) from None
    if workers is not None and workers < 1:
        raise TraceFormatError(f"{source} must be at least 1, got {workers}")
    return workers


def _prologue(args) -> tuple:
    """The run config with every override, checked for a learner that runs
    on its environment, with the output directory and the worker count.
    Nothing is written yet."""
    config = load_run_config(args.config, _overrides(args))
    check_environment(config["agent"].algorithm, config["env"].kind)
    out_dir = args.output or config["output_dir"] or "fuzzoracle-out"
    return config, out_dir, _resolve_workers(args)


def _write(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_test(args) -> int:
    config, out_dir, workers = _prologue(args)
    env_spec, agent_config, oracle_config = config["env"], config["agent"], config["oracle"]
    os.makedirs(out_dir, exist_ok=True)

    on_log = None
    if args.emit_traces:
        def on_log(_, pid, policy, log):
            save_policy(os.path.join(out_dir, f"policy_{pid:03d}.json"), policy)
            write_trace(os.path.join(out_dir, f"policy_{pid:03d}.trace.jsonl"), log, env_spec)

    started = time.monotonic()
    verdict = oracle_main(agent_config, env_spec, oracle_config, workers, on_log)
    elapsed = time.monotonic() - started

    report = verdict_report(verdict, env_spec, agent_config, oracle_config)
    _write(os.path.join(out_dir, "report.json"), canonical_json(report))
    _write(os.path.join(out_dir, "series.jsonl"), series_lines(verdict))
    _write(os.path.join(out_dir, "meta.json"), meta_text(elapsed, workers, [verdict]))
    print(
        f"{verdict.label}: {verdict.true_count}/{len(verdict.per_policy)} healthy "
        f"policy trends (threshold {oracle_config.theta_oracle})"
    )
    return EXIT_NON_BUGGY if not verdict.buggy else EXIT_BUGGY


def cmd_analyze(args) -> int:
    log, env_spec = read_trace(args.trace)
    policy = load_policy(args.policy)
    for name, ours, theirs in (
        ("state", policy.state_space, env_spec.state_space()),
        ("action", policy.action_space, env_spec.action_space()),
    ):
        if ours != theirs:
            raise TraceFormatError(
                f"policy {name} space {ours} does not match the trace environment {theirs}"
            )
    given = {
        name: getattr(args, name)
        for name in ("theta_step", "filter_mode", "window", "epsilon", "delta")
        if getattr(args, name) is not None
    }
    # At the trace's epoch count, the oracle's window rule is the trend's.
    config = config_from_dict(OracleConfig, {**given, "epochs": len(log.epochs)}, "trend")
    outcome = analyze_log(policy, log, config)
    analysis = analysis_report(os.path.basename(args.trace), env_spec, config, outcome)
    text = canonical_json(analysis)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    print(f"{analysis['verdict']}: slope {analysis['trend']['slope_display']}", file=sys.stderr)
    return EXIT_NON_BUGGY if outcome.healthy else EXIT_BUGGY


def cmd_evaluate(args) -> int:
    config, out_dir, workers = _prologue(args)
    variants = config["variants"]
    if not variants:
        raise TraceFormatError("corpus config needs a non-empty 'variants' list")
    env_spec, oracle_config = config["env"], config["oracle"]
    agent_configs = [agent for _, _, agent in variants]
    os.makedirs(out_dir, exist_ok=True)

    started = time.monotonic()
    if workers and workers > 1:
        # One pool trains every variant x policy run.
        verdicts = judge_programs(agent_configs, env_spec, oracle_config, workers)
    else:
        # One oracle run per variant, each reported as soon as it is judged.
        verdicts = (oracle_main(a, env_spec, oracle_config) for a in agent_configs)
    judged = []
    for (name, _, _), verdict in zip(variants, verdicts):
        judged.append(verdict)
        print(f"{name}: {verdict.label} ({verdict.true_count}/{len(verdict.per_policy)})")
    elapsed = time.monotonic() - started

    report = evaluation_report(variants, judged, env_spec, config["agent"], oracle_config)
    _write(os.path.join(out_dir, "evaluation.json"), canonical_json(report))
    _write(os.path.join(out_dir, "meta.json"), meta_text(elapsed, workers, judged))
    c = report["confusion"]
    print(
        f"confusion TP={c['tp']} FP={c['fp']} TN={c['tn']} FN={c['fn']}; "
        f"report in {out_dir}/evaluation.json"
    )
    return EXIT_NON_BUGGY


def cmd_policies_generate(args) -> int:
    env_spec = env_spec_from_dict({"kind": args.env})
    given = {"policies": args.count, "policy_size": args.size, "master_seed": args.seed}
    policies = oracle_policies(env_spec, config_from_dict(OracleConfig, given, "oracle"))
    os.makedirs(args.output, exist_ok=True)
    for i, policy in enumerate(policies, start=1):
        path = os.path.join(args.output, f"policy_{i:03d}.json")
        save_policy(path, policy)
        print(path)
    return EXIT_NON_BUGGY


def cmd_bugs_list(args) -> int:
    width = max(len(b) for b in BUG_REGISTRY)
    for bug in sorted(BUG_REGISTRY.values(), key=lambda b: (b.category, b.id)):
        print(f"{bug.id:<{width}}  {bug.category:<16}  {bug.description}")
    return EXIT_NON_BUGGY


if __name__ == "__main__":
    sys.exit(main())
