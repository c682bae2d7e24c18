import gc
import json
import os
import re

import pytest

from fuzzoracle import cli, oracle
from fuzzoracle.errors import FuzzOracleError
from fuzzoracle.logfiles import load_policy, read_trace
from fuzzoracle.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
HAND_TRACE = os.path.join(DATA, "hand3epoch.trace.jsonl")
HAND_POLICY = os.path.join(DATA, "hand3epoch.policy.json")


def write_config(path, **overrides):
    config = {
        "env": {"kind": "grid"},
        "agent": {"algorithm": "tabular_q"},
        "oracle": {"policies": 3, "epochs": 30, "master_seed": 5},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return str(path)


def assert_analyze_reproduces_report(tmp_path, out, policies):
    """``analyze`` of each trace ``test --emit-traces`` wrote into ``out``
    judges it as ``report.json`` and ``series.jsonl`` did: one judge serves
    both commands."""
    report = json.loads((out / "report.json").read_text())
    series = [json.loads(line) for line in (out / "series.jsonl").read_text().splitlines()]
    assert len(report["policies"]) == len(series) == policies
    for judged, emitted in zip(report["policies"], series):
        name = f"policy_{judged['policy_id']:03d}"
        analysis_path = tmp_path / f"{name}.analysis.json"
        code = main(["analyze", "--trace", str(out / f"{name}.trace.jsonl"),
                     "--policy", str(out / f"{name}.json"), "--output", str(analysis_path)])
        assert code == (0 if judged["healthy"] else 1)
        analysis = json.loads(analysis_path.read_text())
        assert analysis["series"] == emitted["values"]
        for key in ("slope", "convergence_index", "abnormality_found", "healthy"):
            assert analysis["trend"][key] == judged[key], (name, key)


class TestBugsAndPolicies:
    def test_bugs_list(self, capsys):
        assert main(["bugs", "list"]) == 0
        out = capsys.readouterr().out
        for bug in ("LR_ZERO", "REWARD_NEGATED", "EPSILON_FROZEN_ONE"):
            assert bug in out

    def test_policies_generate_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["policies", "generate", "--count", "3", "--seed", "4",
                     "--output", str(out1)]) == 0
        assert main(["policies", "generate", "--count", "3", "--seed", "4",
                     "--output", str(out2)]) == 0
        files1 = sorted(os.listdir(out1))
        assert files1 == ["policy_001.json", "policy_002.json", "policy_003.json"]
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("env", ["grid", "hillcar"])
    def test_policies_generate_writes_the_oracle_policies(self, tmp_path, env):
        # policies generate --seed S writes the policies test --seed S trains against.
        cfg = write_config(
            tmp_path / "cfg.json", env={"kind": env},
            agent={"algorithm": "tabular_q" if env == "grid" else "linear_actor_critic"},
        )
        gen, run = tmp_path / "gen", tmp_path / "run"
        assert main(["policies", "generate", "--env", env, "--count", "3", "--seed", "5",
                     "--output", str(gen)]) == 0
        assert main(["test", "--config", cfg, "--seed", "5", "--policies", "3",
                     "--epochs", "6", "--emit-traces", "--output", str(run)]) in (0, 1)
        for i in (1, 2, 3):
            name = f"policy_{i:03d}.json"
            assert (gen / name).read_bytes() == (run / name).read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (["--count", "0"], "bad oracle config: need at least one intended policy"),
        (["--count", "-1"], "bad oracle config: need at least one intended policy"),
        (["--size", "0"], "bad oracle config: policy_size must be at least 2"),
        (["--seed", "-1"], "bad oracle config: master_seed must be non-negative"),
    ])
    def test_policies_generate_bad_flag_exits_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["policies", "generate", *flags, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_policies_generate_hillcar(self, tmp_path):
        out = tmp_path / "hc"
        assert main(["policies", "generate", "--env", "hillcar", "--count", "2",
                     "--output", str(out)]) == 0
        data = json.loads((out / "policy_001.json").read_text())
        assert data["state_space"]["kind"] == "box"


class TestAnalyze:
    def test_hand_worked_fixture(self, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        code = main([
            "analyze", "--trace", HAND_TRACE, "--policy", HAND_POLICY,
            "--theta-step", "0.5", "--window", "2", "--output", str(out),
        ])
        assert code == 1
        analysis = json.loads(out.read_text())
        assert analysis["series"] == [0.75, 0.0, 0.5]
        assert analysis["trend"]["slope"] == -0.125
        assert analysis["verdict"] == "Buggy"

    def test_analysis_to_stdout(self, capsys):
        code = main([
            "analyze", "--trace", HAND_TRACE, "--policy", HAND_POLICY,
            "--theta-step", "0.5", "--window", "2",
        ])
        assert code == 1
        analysis = json.loads(capsys.readouterr().out)
        assert analysis["series"] == [0.75, 0.0, 0.5]

    def test_missing_file_exits_2(self, capsys):
        assert main(["analyze", "--trace", "/nonexistent", "--policy", HAND_POLICY]) == 2

    def test_empty_trace_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["analyze", "--trace", str(empty), "--policy", HAND_POLICY]) == 2

    def test_policy_env_mismatch_exits_2(self, tmp_path, capsys):
        out = tmp_path / "hc"
        assert main(["policies", "generate", "--env", "hillcar", "--count", "2",
                     "--output", str(out)]) == 0
        code = main(["analyze", "--trace", HAND_TRACE,
                     "--policy", str(out / "policy_001.json")])
        assert code == 2
        assert "state space" in capsys.readouterr().err

    def test_policy_action_space_mismatch_exits_2(self, tmp_path, capsys):
        # An 8-action policy on the 4-action grid trace scored [0.0, 0.0, 0.5]
        # and exited 0 (NonBuggy).
        policy = json.loads(open(HAND_POLICY).read())
        policy["action_space"] = {"kind": "discrete", "n": 8}
        policy["entries"][0]["action"] = 6
        path = tmp_path / "eight.policy.json"
        path.write_text(json.dumps(policy))
        code = main(["analyze", "--trace", HAND_TRACE, "--policy", str(path),
                     "--theta-step", "0.5", "--window", "2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: policy action space DiscreteSpace(n=8) does not match the "
            "trace environment DiscreteSpace(n=4)\n"
        )

    def test_all_aborted_trace_is_buggy(self, tmp_path, capsys):
        # Every epoch aborted on its first action. The oracle judges such a
        # run unhealthy; analyze judged the same log healthy and NonBuggy.
        header = json.loads(open(HAND_TRACE).readline())
        header.update(epochs=10, aborted_epochs=list(range(1, 11)))
        trace = tmp_path / "aborted.trace.jsonl"
        trace.write_text(json.dumps(header) + "\n")
        out = tmp_path / "analysis.json"
        code = main(["analyze", "--trace", str(trace), "--policy", HAND_POLICY,
                     "--window", "2", "--output", str(out)])
        assert code == 1
        analysis = json.loads(out.read_text())
        assert analysis["series"] == [0.0] * 10
        assert analysis["trend"]["healthy"] is False
        assert analysis["verdict"] == "Buggy"
        log, _ = read_trace(trace)
        policy = load_policy(HAND_POLICY)
        config = oracle.OracleConfig(epochs=10, window=2)
        assert oracle.analyze_log(policy, log, config).healthy is False

    def test_non_contiguous_trace_exits_2(self, tmp_path, capsys):
        lines = open(HAND_TRACE).read().splitlines()
        broken = [lines[0], lines[1], lines[2], lines[3]] + lines[6:]
        path = tmp_path / "gap.jsonl"
        path.write_text("".join(l + "\n" for l in broken))
        assert main(["analyze", "--trace", str(path), "--policy", HAND_POLICY]) == 2
        assert "record" in capsys.readouterr().err

    def test_undecodable_trace_byte_exits_2(self, tmp_path, capsys):
        # The UnicodeDecodeError escaped as a traceback, exiting 1 (Buggy).
        lines = open(HAND_TRACE, "rb").read().split(b"\n")
        lines[1] = lines[1][:-1] + b',"note":"\xff"}'
        path = tmp_path / "bytes.trace.jsonl"
        path.write_bytes(b"\n".join(lines))
        assert main(["analyze", "--trace", str(path), "--policy", HAND_POLICY]) == 2
        assert "error: record 2: invalid UTF-8 byte 0xff" in capsys.readouterr().err

    def test_action_shape_without_width_exits_2(self, tmp_path, capsys):
        # A scaled action shape has no width to fall back on; the policy
        # file is rejected when it is loaded, not with a traceback while
        # scoring (which exited 1, the code for Buggy).
        policy = json.loads(open(HAND_POLICY).read())
        policy["action_shape"] = {"kind": "linear", "width": None}
        path = tmp_path / "widthless.policy.json"
        path.write_text(json.dumps(policy))
        assert main(["analyze", "--trace", HAND_TRACE, "--policy", str(path)]) == 2
        assert "action shape 'linear' needs a width" in capsys.readouterr().err

    @pytest.mark.parametrize("state", ["[1.7,0]", "5", '["a",0]', "[true,0]"])
    def test_bad_grid_state_exits_2(self, tmp_path, capsys, state):
        # Read as (1, 0), a float first state turned the fixture's Buggy
        # (slope -0.125) into NonBuggy (slope 0); the others raised a
        # TypeError or ValueError traceback, exiting 1 (Buggy).
        lines = open(HAND_TRACE).read().splitlines()
        lines[1] = lines[1].replace('"state":[0,0]', f'"state":{state}')
        path = tmp_path / "bad.trace.jsonl"
        path.write_text("".join(l + "\n" for l in lines))
        code = main(["analyze", "--trace", str(path), "--policy", HAND_POLICY,
                     "--theta-step", "0.5", "--window", "2"])
        assert code == 2
        assert "error: record 2: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "space", [None, {"kind": "grid"}, []], ids=["missing", "no_rows", "list"]
    )
    def test_bad_policy_space_exits_2(self, tmp_path, capsys, space):
        policy = json.loads(open(HAND_POLICY).read())
        if space is None:
            del policy["state_space"]
        else:
            policy["state_space"] = space
        path = tmp_path / "bad.policy.json"
        path.write_text(json.dumps(policy))
        assert main(["analyze", "--trace", HAND_TRACE, "--policy", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: bad policy file: ")

    def test_policy_with_coinciding_states_exits_2(self, tmp_path, capsys):
        # The library's DuplicateReferenceStateError was printed bare.
        policy = json.loads(open(HAND_POLICY).read())
        policy["entries"][1]["state"] = policy["entries"][0]["state"]
        path = tmp_path / "coinciding.policy.json"
        path.write_text(json.dumps(policy))
        assert main(["analyze", "--trace", HAND_TRACE, "--policy", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: bad policy file: reference states 0 and 1 coincide\n"
        )

    @pytest.mark.parametrize("env, message", [
        (None, "bad env config: expected an object, got None"),
        ({"kind": "pendulum"}, "env kind must be 'grid' or 'hillcar', got 'pendulum'"),
        ({"kind": "grid", "goal": [9]}, "goal (9,) outside the grid"),
        ({"kind": "grid", "slip_prob": float("nan")},
         "bad env config: slip_prob must be finite, got nan"),
    ], ids=["missing", "pendulum", "goal", "slip_prob_nan"])
    def test_bad_header_env_exits_2(self, tmp_path, capsys, env, message):
        lines = open(HAND_TRACE).read().splitlines()
        header = json.loads(lines[0])
        if env is None:
            del header["env"]
        else:
            header["env"] = env
        path = tmp_path / "bad.trace.jsonl"
        path.write_text("".join(l + "\n" for l in [json.dumps(header)] + lines[1:]))
        assert main(["analyze", "--trace", str(path), "--policy", HAND_POLICY]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_float_epoch_exits_2(self, tmp_path, capsys):
        # Epoch 1.0 compares equal to 1; kept as the epoch number, it made
        # the skip over aborted epoch 2 raise a TypeError (exit 1, Buggy).
        lines = open(HAND_TRACE).read().splitlines()
        header = json.loads(lines[0])
        header["aborted_epochs"] = [2]
        lines = [json.dumps(header)] + [
            l.replace('"epoch":1,', '"epoch":1.0,') for l in lines[1:] if '"epoch":2,' not in l
        ]
        path = tmp_path / "float.trace.jsonl"
        path.write_text("".join(l + "\n" for l in lines))
        assert main(["analyze", "--trace", str(path), "--policy", HAND_POLICY]) == 2
        assert capsys.readouterr().err == "error: record 2: epoch must be an int, got 1.0\n"

    def test_policy_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.policy.json"
        path.write_text("[]")
        assert main(["analyze", "--trace", HAND_TRACE, "--policy", str(path)]) == 2
        assert capsys.readouterr().err == "error: not a policy file: expected an object, got []\n"

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize("where", ["reward", "hillcar_state", "hillcar_policy"])
    def test_oversize_int_exits_2(self, tmp_path, capsys, where, digits):
        # 400 digits overflow float(); past 4,300 digits json itself raises
        # a plain ValueError. Both escaped as tracebacks (exit 1, Buggy).
        big = "9" * digits
        if where == "reward":
            lines = open(HAND_TRACE).read().splitlines()
            lines[1] = lines[1].replace('"reward":1.0', f'"reward":{big}')
            trace, policy = tmp_path / "big.trace.jsonl", HAND_POLICY
            trace.write_text("".join(l + "\n" for l in lines))
        else:
            assert main(["policies", "generate", "--env", "hillcar", "--count", "1",
                         "--output", str(tmp_path)]) == 0
            policy = tmp_path / "policy_001.json"
            x = big if where == "hillcar_state" else "-0.5"
            trace = tmp_path / "hc.trace.jsonl"
            trace.write_text(
                '{"env":{"kind":"hillcar"},"format":"fuzzoracle-trace","version":1}\n'
                f'{{"action":[0.0],"epoch":1,"reward":0.0,"state":[{x},0.0],"step":1}}\n'
            )
            if where == "hillcar_policy":
                text = re.sub(r'"state":\[[^,]*,', f'"state":[{big},', policy.read_text(), 1)
                policy.write_text(text)
        capsys.readouterr()
        assert main(["analyze", "--trace", str(trace), "--policy", str(policy)]) == 2
        err = capsys.readouterr().err
        prefix = "error: " if where == "hillcar_policy" else "error: record 2: "
        assert err.startswith(prefix) and err.count("\n") == 1

    def test_bad_trend_flag_exits_2(self, capsys):
        assert main(["analyze", "--trace", HAND_TRACE, "--policy", HAND_POLICY,
                     "--epsilon", "-1"]) == 2
        assert capsys.readouterr().err == "error: bad trend config: epsilon must be positive\n"

    @pytest.mark.parametrize("flags, message", [
        (["--filter-mode", "bogus"], "filter_mode must be 'state' or 'step'"),
        (["--theta-step", "1.5"], "theta_step must lie in [0, 1]"),
        (["--theta-step", "nan"], "theta_step must be finite, got nan"),
        (["--epsilon", "inf"], "epsilon must be finite, got inf"),
        (["--window", "3"], "trend window must be at most epochs - 1"),
    ], ids=["filter_mode", "theta_step", "theta_step_nan", "epsilon_inf", "window"])
    def test_analyze_flags_follow_the_oracle_rules(self, tmp_path, capsys, flags, message):
        out = tmp_path / "analysis.json"
        assert main(["analyze", "--trace", HAND_TRACE, "--policy", HAND_POLICY,
                     *flags, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: bad trend config: {message}\n"
        assert not out.exists()

    def test_one_epoch_trace_exits_2(self, tmp_path, capsys):
        lines = open(HAND_TRACE).read().splitlines()
        header = json.loads(lines[0])
        header["epochs"] = 1
        path = tmp_path / "one.trace.jsonl"
        path.write_text("".join(
            l + "\n" for l in [json.dumps(header)] + [l for l in lines[1:] if '"epoch":1,' in l]
        ))
        assert main(["analyze", "--trace", str(path), "--policy", HAND_POLICY]) == 2
        assert capsys.readouterr().err == "error: bad trend config: need at least two epochs\n"

    def test_analyze_flags_reach_the_analysis(self, capsys):
        assert main(["analyze", "--trace", HAND_TRACE, "--policy", HAND_POLICY,
                     "--theta-step", "0.5", "--filter-mode", "step", "--window", "2",
                     "--epsilon", "0.05", "--delta", "0.2"]) == 0
        params = json.loads(capsys.readouterr().out)["params"]
        assert params == {"theta_step": 0.5, "filter_mode": "step", "window": 2,
                          "epsilon": 0.05, "delta": 0.2}


class TestTestCommand:
    def test_clean_agent_small_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        code = main(["test", "--config", cfg])
        assert code in (0, 1)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"]["policy_count"] == 3
        assert len(report["policies"]) == 3
        series = [
            json.loads(line)
            for line in (tmp_path / "out" / "series.jsonl").read_text().splitlines()
        ]
        assert [s["policy_id"] for s in series] == [1, 2, 3]
        assert all(len(s["values"]) == 30 for s in series)

    def test_reports_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["test", "--config", cfg, "--output", str(out1)]) in (0, 1)
        assert main(["test", "--config", cfg, "--output", str(out2)]) in (0, 1)
        for name in ("report.json", "series.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["test", "--config", cfg, "--policies", "2", "--epochs", "20",
                     "--set", "oracle.theta_step=0.5", "--output", str(out)]) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["oracle"]["policies"] == 2
        assert report["config"]["oracle"]["epochs"] == 20
        assert report["config"]["oracle"]["theta_step"] == 0.5

    @pytest.mark.parametrize("section, flags", [
        ({"oracle": {"epochs": 1}}, ["--epochs", "20"]),
        ({"env": {"kind": "grid", "goal": [9]}}, ["--set", "env.goal=[3,3]"]),
    ], ids=["epochs", "goal"])
    def test_overridden_file_value_is_not_checked(self, tmp_path, section, flags):
        # The file was parsed, and so checked, before the flags applied.
        cfg = write_config(tmp_path / "cfg.json", **section)
        out = tmp_path / "out"
        assert main(["test", "--config", cfg, "--policies", "1", "--output", str(out),
                     *flags]) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["oracle"]["epochs"] == (20 if "oracle" in section else 30)
        assert report["config"]["env"]["goal"] == [3, 3]

    def test_emit_traces_reproducible_by_analyze(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["test", "--config", cfg, "--policies", "2", "--emit-traces",
                     "--output", str(out)]) in (0, 1)
        assert_analyze_reproduces_report(tmp_path, out, 2)

    def test_emit_traces_with_aborted_epochs_reproducible_by_analyze(self, tmp_path):
        # The learner diverges in epoch 7; epoch 9 aborts on its first
        # action, so its trace has no records for that epoch.
        cfg = write_config(
            tmp_path / "cfg.json",
            env={"kind": "hillcar"},
            agent={"algorithm": "linear_actor_critic"},
            oracle={"policies": 1, "epochs": 9, "master_seed": 36},
        )
        out = tmp_path / "out"
        assert main(["test", "--config", cfg, "--emit-traces",
                     "--output", str(out)]) == 1
        trace = out / "policy_001.trace.jsonl"
        header = json.loads(trace.read_text().splitlines()[0])
        assert header["aborted_epochs"] == [7, 8, 9]
        assert_analyze_reproduces_report(tmp_path, out, 1)

    def test_emit_traces_mode_matches_plain_mode(self, tmp_path):
        # Writing traces must not perturb the verdict: both modes derive
        # the same policies and seeds, so report.json is byte-identical.
        cfg = write_config(tmp_path / "cfg.json")
        plain, emitting = tmp_path / "plain", tmp_path / "emitting"
        assert main(["test", "--config", cfg, "--output", str(plain)]) in (0, 1)
        assert main(["test", "--config", cfg, "--emit-traces",
                     "--output", str(emitting)]) in (0, 1)
        assert (plain / "report.json").read_bytes() == (emitting / "report.json").read_bytes()
        assert (plain / "series.jsonl").read_bytes() == (emitting / "series.jsonl").read_bytes()

    def test_console_script_entry_point(self, tmp_path):
        import os
        import subprocess
        import sys

        import fuzzoracle

        # The child imports the package under test, installed or not.
        src = os.path.dirname(os.path.dirname(fuzzoracle.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "fuzzoracle.cli", "bugs", "list"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert result.returncode == 0
        assert "LR_ZERO" in result.stdout

    def test_unknown_bug_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["test", "--config", cfg, "--bug", "NOT_A_BUG"]) == 2

    def test_missing_config_exits_2(self, capsys):
        assert main(["test", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("section, message", [
        ({"env": {"kind": "grid", "rows": "a"}}, "bad env config: rows must be an int, got 'a'"),
        ({"env": []}, "bad env config: expected an object, got []"),
        ({"env": {"kind": "grid", "goal": [9]}}, "goal (9,) outside the grid"),
        ({"oracle": {"epsilon": -1}}, "bad oracle config: epsilon must be positive"),
        ({"oracle": {"policies": None}}, "bad oracle config: policies must be an int, got None"),
        ({"oracle": {"window": 0}}, "window must be >= 1, got 0"),
        ({"agent": {"bug": "NO_SUCH_BUG"}}, "bad agent config: agent.bug is not accepted"),
        ({"agent": {"bug": "LR_ZERO"}}, "bad agent config: agent.bug is not accepted"),
        ({"env": {"kind": "grid", "goal": [3, True]}}, "goal (3, True) outside the grid"),
        ({"env": {"kind": "grid", "holes": [[True, 1]]}}, "hole (True, 1) outside the grid"),
        *(({"env": {"kind": "hillcar", name: -int("9" * 400)},
            "agent": {"algorithm": "linear_actor_critic"}},
           f"bad env config: {name} is too large for a float")
          for name in ("min_position", "max_speed", "gravity")),
        ({"agent": {"learning_rate": int("9" * 400)}},
         "bad agent config: learning_rate is too large for a float"),
        ({"oracle": {"reward_scale": int("9" * 400)}},
         "bad oracle config: reward_scale is too large for a float"),
        # An int field takes an int that is no bool.
        ({"oracle": {"epochs": 10.5}}, "bad oracle config: epochs must be an int, got 10.5"),
        ({"env": {"kind": "grid", "max_steps_per_epoch": 20.5}},
         "bad env config: max_steps_per_epoch must be an int, got 20.5"),
        ({"agent": {"feature_grid": 2.5}},
         "bad agent config: feature_grid must be an int, got 2.5"),
        ({"oracle": {"policies": 2.0}}, "bad oracle config: policies must be an int, got 2.0"),
        ({"agent": {"seed": 1.5}}, "bad agent config: seed must be an int, got 1.5"),
        ({"oracle": {"window": True}}, "bad oracle config: window must be an int, got True"),
        ({"agent": {"feature_grid": 0}}, "bad agent config: feature_grid must be at least 1"),
        ({"agent": {"feature_grid": -1}}, "bad agent config: feature_grid must be at least 1"),
        # A float field takes no bool.
        ({"agent": {"learning_rate": True}},
         "bad agent config: learning_rate must be a number, got True"),
        ({"oracle": {"theta_oracle": True}},
         "bad oracle config: theta_oracle must be a number, got True"),
        ({"oracle": {"epsilon": True}}, "bad oracle config: epsilon must be a number, got True"),
        ({"env": {"kind": "grid", "slip_prob": False}},
         "bad env config: slip_prob must be a number, got False"),
        ({"env": {"kind": "hillcar", "force": True},
          "agent": {"algorithm": "linear_actor_critic"}},
         "bad env config: force must be a number, got True"),
        # A float field takes no infinity or NaN.
        *(({"env": {"kind": "hillcar", name: value},
            "agent": {"algorithm": "linear_actor_critic"}},
           f"bad env config: {name} must be finite, got {value!r}")
          for name, value in (("max_speed", float("inf")), ("min_position", float("-inf")),
                              ("force", float("nan")), ("gravity", float("nan")))),
        ({"oracle": {"reward_scale": float("inf")}},
         "bad oracle config: reward_scale must be finite, got inf"),
    ], ids=["env_rows", "env_list", "env_goal", "oracle_epsilon", "oracle_policies",
            "oracle_window", "agent_bug_unknown", "agent_bug", "env_goal_bool",
            "env_hole_bool", "env_min_position_overflow", "env_max_speed_overflow",
            "env_gravity_overflow", "agent_learning_rate_overflow",
            "oracle_reward_scale_overflow", "oracle_epochs_float", "env_max_steps_float",
            "agent_feature_grid_float", "oracle_policies_float", "agent_seed_float",
            "oracle_window_bool", "agent_feature_grid_zero", "agent_feature_grid_negative",
            "agent_learning_rate_bool", "oracle_theta_oracle_bool", "oracle_epsilon_bool",
            "env_slip_prob_bool", "env_force_bool", "env_max_speed_inf",
            "env_min_position_minus_inf", "env_force_nan", "env_gravity_nan",
            "oracle_reward_scale_inf"])
    def test_malformed_section_exits_2(self, tmp_path, capsys, section, message):
        cfg = write_config(tmp_path / "cfg.json", **section)
        assert main(["test", "--config", cfg, "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-3", "NaN"])
    def test_a_clean_critic_learning_rate_must_be_positive(self, tmp_path, capsys, value):
        cfg = write_config(
            tmp_path / "cfg.json", env={"kind": "hillcar"},
            agent={"algorithm": "linear_actor_critic"},
        )
        out = tmp_path / "out"
        code = main(["test", "--config", cfg, "--output", str(out),
                     "--set", f"agent.critic_learning_rate={value}"])
        assert code == 2
        message = ("must be finite, got nan" if value == "NaN" else "must be positive")
        assert capsys.readouterr().err == f"error: bad agent config: critic_learning_rate {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, kind, extra", [
        ("test", "hillcar", []),
        ("test", "grid", ["--set", 'env.kind="hillcar"']),
        ("evaluate", "hillcar", []),
    ], ids=["test", "test_set_kind", "evaluate"])
    def test_learner_environment_mismatch_writes_nothing(
        self, tmp_path, capsys, command, kind, extra
    ):
        cfg = write_config(
            tmp_path / "cfg.json", env={"kind": kind},
            variants=[{"name": "clean", "bug": None, "buggy": False}],
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err == "error: tabular_q needs a discrete grid environment, got 'hillcar'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, sections, message", [
        ("test", {"oracle": {"policy_size": 20}},
         "policy_size 20 exceeds the 11 non-terminal cells"),
        ("evaluate", {"oracle": {"policy_size": 12}},
         "policy_size 12 exceeds the 11 non-terminal cells"),
        ("test", {"env": {"kind": "hillcar"}, "agent": {"algorithm": "linear_actor_critic"},
                  "oracle": {"policy_size": 500}},
         "could not place 500 reference states after 10000 attempts"),
    ], ids=["test_grid", "evaluate_grid", "test_hillcar"])
    def test_a_policy_size_the_environment_cannot_hold_writes_nothing(
        self, tmp_path, capsys, command, sections, message
    ):
        cfg = write_config(
            tmp_path / "cfg.json", **sections,
            variants=[{"name": "clean", "bug": None, "buggy": False}],
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["test", "evaluate"])
    def test_a_repeated_variant_name_writes_nothing(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "cfg.json", variants=[
            {"name": "a", "bug": None, "buggy": False},
            {"name": "b", "bug": "LR_ZERO", "buggy": True},
            {"name": "a", "bug": "LR_ZERO", "buggy": True},
        ])
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: bad run config: variant names must be distinct, got 'a'\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["test", "evaluate"])
    @pytest.mark.parametrize("fields, message", [
        ({"variants": [{"name": "clean", "bug": None, "buggy": "false"}]},
         "bad variant 'clean' config: buggy must be true or false, got 'false'"),
        ({"variants": [{"name": "clean", "bug": None, "buggy": 0}]},
         "bad variant 'clean' config: buggy must be true or false, got 0"),
        ({"variants": [{"name": "clean", "bug": None, "buggy": False, "note": "x"}]},
         "unknown variant fields: note"),
        ({"variants": [{"name": 7, "bug": None, "buggy": False}]},
         "bad variant config: name must be a string, got 7"),
        ({"variants": [{"name": "clean", "buggy": False}]},
         "each variant needs the fields 'name', 'buggy' and 'bug'"),
        ({"variants": [3]}, "bad variant config: expected an object, got 3"),
        ({"variants": [{"name": "lr", "bug": ["LR_ZERO"], "buggy": True}]},
         "bad variant 'lr' config: bug must be a string or null, got ['LR_ZERO']"),
        ({"bug": "LR_ZERO", "variants": [{"name": "clean", "bug": None, "buggy": False}]},
         "bad run config: a config with variants names each bug in its variant"),
        ({"bug": ["LR_ZERO"]}, "bad run config: bug must be a string, got ['LR_ZERO']"),
        ({"variants": 5}, "bad run config: variants must be a list, got 5"),
        ({"output_dir": 7}, "bad run config: output_dir must be a string, got 7"),
    ], ids=["buggy_string", "buggy_int", "variant_unknown_field", "variant_name_int",
            "variant_without_bug", "variant_not_object", "variant_bug_list",
            "top_level_bug_beside_variants", "bug_list", "variants_int", "output_dir_int"])
    def test_bad_run_config_field_writes_nothing(
        self, tmp_path, capsys, command, fields, message
    ):
        cfg = write_config(tmp_path / "cfg.json", **fields)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_set_agent_bug_exits_2(self, tmp_path, capsys):
        # It used to train the clean learner while the report said LR_ZERO.
        cfg = write_config(tmp_path / "cfg.json")
        code = main(["test", "--config", cfg, "--set", "agent.bug=LR_ZERO",
                     "--output", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad agent config: agent.bug") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_set_additive_reward_mode_exits_2(self, tmp_path, capsys):
        # The compliance reward replaces the program's own; there is no
        # additive mode.
        cfg = write_config(tmp_path / "cfg.json")
        code = main(["test", "--config", cfg, "--set", 'oracle.reward_mode="add"',
                     "--output", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad oracle config:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_int_too_long_for_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"oracle": {"policies": ' + "9" * 5000 + "}}")
        assert main(["test", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["test", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err


class TestShippedConfigs:
    CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

    def test_clean_grid_config_is_non_buggy(self, tmp_path):
        code = main([
            "test", "--config", os.path.join(self.CONFIGS, "grid_clean.json"),
            "--output", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_reward_negated_config_is_buggy(self, tmp_path):
        code = main([
            "test", "--config", os.path.join(self.CONFIGS, "grid_reward_negated.json"),
            "--output", str(tmp_path / "out"),
        ])
        assert code == 1


class TestEvaluate:
    def corpus_config(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({
            "env": {"kind": "grid"},
            "agent": {"algorithm": "tabular_q"},
            "oracle": {"policies": 3, "epochs": 25, "master_seed": 2},
            "variants": [
                {"name": "clean", "bug": None, "buggy": False},
                {"name": "lr_zero", "bug": "LR_ZERO", "buggy": True},
            ],
        }))
        return str(path)

    def test_small_corpus(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["evaluate", "--config", self.corpus_config(tmp_path),
                     "--output", str(out)])
        assert code == 0
        report = json.loads((out / "evaluation.json").read_text())
        confusion = report["confusion"]
        assert sum(confusion.values()) == 2
        assert len(report["roc"]) == 11
        assert len(report["programs"]) == 2

    def test_unknown_bug_rejected_before_training(self, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({
            "oracle": {"policies": 3, "epochs": 25},
            "variants": [{"name": "x", "bug": "BOGUS", "buggy": True}],
        }))
        assert main(["evaluate", "--config", str(path)]) == 2
        assert "BOGUS" in capsys.readouterr().err

    def test_inapplicable_bug_rejected_before_training(self, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({
            "env": {"kind": "hillcar"},
            "agent": {"algorithm": "linear_actor_critic"},
            "oracle": {"policies": 3, "epochs": 25},
            "variants": [
                {"name": "clean", "bug": None, "buggy": False},
                {"name": "greedy", "bug": "EPSILON_ZERO_START", "buggy": True},
            ],
        }))
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(path), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "EPSILON_ZERO_START" in captured.err
        assert "clean:" not in captured.out
        assert not out.exists()


class TestWorkersEnvVar:
    def test_bad_value_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FUZZORACLE_WORKERS", "many")
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["test", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["test", "evaluate"])
    @pytest.mark.parametrize("flag, env_value, message", [
        (["--workers", "0"], None, "--workers must be at least 1, got 0"),
        (["--workers", "-3"], None, "--workers must be at least 1, got -3"),
        ([], "0", "FUZZORACLE_WORKERS must be at least 1, got 0"),
        ([], "-2", "FUZZORACLE_WORKERS must be at least 1, got -2"),
    ], ids=["flag_zero", "flag_negative", "env_zero", "env_negative"])
    def test_count_below_one_exits_2(
        self, tmp_path, monkeypatch, capsys, command, flag, env_value, message
    ):
        if env_value is not None:
            monkeypatch.setenv("FUZZORACLE_WORKERS", env_value)
        cfg = write_config(
            tmp_path / "cfg.json", variants=[{"name": "clean", "bug": None, "buggy": False}]
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, *flag, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_env_var_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FUZZORACLE_WORKERS", "1")
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["test", "--config", cfg, "--output", str(tmp_path / "o")]) in (0, 1)


class TestMeta:
    """meta.json sums each phase's cost over every (program, policy) task."""

    @pytest.mark.parametrize("overrides, workers", [
        ({}, "2"),
        # Diverges in epoch 7; epochs 8 and 9 abort too.
        ({"env": {"kind": "hillcar"}, "agent": {"algorithm": "linear_actor_critic"},
          "oracle": {"policies": 2, "epochs": 9, "master_seed": 36}}, "1"),
    ], ids=["grid_pooled", "hillcar_aborting"])
    def test_env_steps_match_emitted_traces(self, tmp_path, overrides, workers):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        assert main(["test", "--config", cfg, "--emit-traces", "--workers", workers,
                     "--output", str(out)]) in (0, 1)
        meta = json.loads((out / "meta.json").read_text())
        traces = sorted(out.glob("*.trace.jsonl"))
        assert len(traces) == json.loads(open(cfg).read())["oracle"]["policies"]
        steps = sum(len(e.steps) for path in traces for e in read_trace(path)[0].epochs)
        assert meta["env_steps"] == steps > 0
        assert meta["train_seconds"] > 0 and meta["analyze_seconds"] > 0
        assert meta["train_us_per_step"] == meta["train_seconds"] / steps * 1e6

    def test_evaluate_sums_over_variants(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({
            "env": {"kind": "grid"},
            "agent": {"algorithm": "tabular_q"},
            "oracle": {"policies": 2, "epochs": 10, "master_seed": 4},
            "variants": [
                {"name": "clean", "bug": None, "buggy": False},
                {"name": "lr_zero", "bug": "LR_ZERO", "buggy": True},
            ],
        }))
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(path), "--output", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert set(meta) == {"elapsed_seconds", "workers", "train_seconds",
                             "analyze_seconds", "env_steps", "train_us_per_step"}
        # Each of the 2 x 2 runs takes at least one step per epoch.
        assert meta["env_steps"] >= 2 * 2 * 10
        assert meta["train_seconds"] > 0 and meta["analyze_seconds"] > 0


class TestPoolSize:
    """A pool has at most one worker per training run."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        """The size of every pool started, by a fake pool that runs in process."""
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(oracle, "ProcessPoolExecutor", FakePool)
        return started

    @pytest.mark.parametrize("policies, workers, expected", [
        ("2", "4", [2]), ("3", "2", [2]), ("1", "4", []),
    ])
    def test_workers_capped_at_runs(self, tmp_path, sizes, policies, workers, expected):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["test", "--config", cfg, "--policies", policies, "--epochs", "10",
                     "--workers", workers, "--output", str(tmp_path / "out")]) in (0, 1)
        assert sizes == expected


class TestOnePool:
    """A pooled command starts one process pool for all of its training."""

    @pytest.fixture
    def pools(self, monkeypatch):
        started = []
        original = oracle.ProcessPoolExecutor

        def counting(*args, **kwargs):
            started.append(kwargs.get("max_workers"))
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "ProcessPoolExecutor", counting)
        return started

    def test_evaluate_trains_every_variant_on_one_pool(self, tmp_path, capsys, pools):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({
            "env": {"kind": "grid"},
            "agent": {"algorithm": "tabular_q"},
            "oracle": {"policies": 3, "epochs": 12, "master_seed": 4},
            "variants": [
                {"name": "clean", "bug": None, "buggy": False},
                {"name": "lr_zero", "bug": "LR_ZERO", "buggy": True},
                {"name": "reward_negated", "bug": "REWARD_NEGATED", "buggy": True},
            ],
        }))
        out = tmp_path / "out"
        outputs = {}
        for workers in ("1", "2"):
            capsys.readouterr()
            assert main(["evaluate", "--config", str(path), "--workers", workers,
                         "--output", str(out)]) == 0
            outputs[workers] = (
                (out / "evaluation.json").read_bytes(), capsys.readouterr().out
            )
        assert pools == [2]
        assert outputs["2"] == outputs["1"]
        assert len(outputs["2"][1].splitlines()) == 4

    def test_emit_traces_trains_on_one_pool(self, tmp_path, pools):
        cfg = write_config(tmp_path / "cfg.json")
        outputs = {}
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["test", "--config", cfg, "--emit-traces", "--workers", workers,
                         "--output", str(out)]) in (0, 1)
            outputs[workers] = {
                p.name: p.read_bytes() for p in out.iterdir() if p.name != "meta.json"
            }
        assert pools == [2]
        assert len(outputs["1"]) == 2 + 2 * 3
        assert outputs["2"] == outputs["1"]

    def test_test_command_trains_on_one_pool(self, tmp_path, pools):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["test", "--config", cfg, "--workers", "2",
                     "--output", str(tmp_path / "out")]) in (0, 1)
        assert pools == [2]


class TestCollectorPause:
    """A command's handler runs with the cyclic collector paused, and
    ``main`` gives the caller's setting back however the handler ends."""

    @pytest.fixture(autouse=True)
    def keep_setting(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    @staticmethod
    def fake_handler(monkeypatch, outcome):
        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(cli, "cmd_bugs_list", handler)
        return seen

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome, status", [
        (0, 0), (1, 1), (FuzzOracleError("bad input"), 2),
    ], ids=["exit_0", "exit_1", "exit_2"])
    def test_paused_in_the_handler_and_restored(
        self, monkeypatch, capsys, enabled, outcome, status
    ):
        seen = self.fake_handler(monkeypatch, outcome)
        (gc.enable if enabled else gc.disable)()
        assert main(["bugs", "list"]) == status
        assert seen == [False]
        assert gc.isenabled() is enabled

    def test_restored_when_the_handler_fails(self, monkeypatch):
        seen = self.fake_handler(monkeypatch, RuntimeError("not a library error"))
        gc.enable()
        with pytest.raises(RuntimeError):
            main(["bugs", "list"])
        assert seen == [False] and gc.isenabled()
