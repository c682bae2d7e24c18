import json
import os

import pytest

from fuzzoracle import (
    AgentConfig,
    EpochTrace,
    GridSpec,
    HillCarSpec,
    IntendedPolicy,
    OracleConfig,
    RunLog,
    TraceStep,
    TrendParams,
)
from fuzzoracle.errors import TraceFormatError
from fuzzoracle.logfiles import (
    agent_config_from_dict,
    agent_config_to_dict,
    env_spec_from_dict,
    env_spec_to_dict,
    load_policy,
    load_run_config,
    oracle_config_from_dict,
    oracle_config_to_dict,
    policy_from_dict,
    policy_to_dict,
    read_trace,
    save_policy,
    write_trace,
)
DATA = os.path.join(os.path.dirname(__file__), "data")


def sample_log():
    epochs = (
        EpochTrace((TraceStep((0, 0), 2, 1.0), TraceStep((0, 1), 1, 0.25)), 1),
        EpochTrace((TraceStep((1, 0), 0, 0.0),), 2),
    )
    return RunLog(3, epochs)


class TestTraceRoundTrip:
    def test_byte_identical(self, tmp_path, grid_spec):
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, sample_log(), grid_spec)
        log, env = read_trace(path)
        path2 = tmp_path / "again.trace.jsonl"
        write_trace(path2, log, env)
        assert path.read_bytes() == path2.read_bytes()

    def test_content_preserved(self, tmp_path, grid_spec):
        path = tmp_path / "run.trace.jsonl"
        original = sample_log()
        write_trace(path, original, grid_spec)
        log, env = read_trace(path)
        assert log.policy_id == 3
        assert log.epochs == original.epochs
        assert env == grid_spec

    def test_header_lists_aborted_epochs_only_when_there_are_any(self, tmp_path, grid_spec):
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, sample_log(), grid_spec)
        assert "aborted_epochs" not in json.loads(path.read_text().splitlines()[0])

    def test_epochs_aborted_on_their_first_action_roundtrip(self, tmp_path, grid_spec):
        # Leading, middle and trailing epochs without steps; epoch 3
        # aborted after a step.
        step = TraceStep((0, 0), 2, 1.0)
        epochs = (
            EpochTrace((), 1),
            EpochTrace((step,), 2),
            EpochTrace((), 3),
            EpochTrace((), 4),
            EpochTrace((step,), 5),
            EpochTrace((), 6),
        )
        original = RunLog(2, epochs, (1, 3, 4, 6))
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, original, grid_spec)
        log, _ = read_trace(path)
        assert log == original
        again = tmp_path / "again.trace.jsonl"
        write_trace(again, log, grid_spec)
        assert path.read_bytes() == again.read_bytes()

    def test_all_epochs_aborted_on_their_first_action(self, tmp_path, grid_spec):
        original = RunLog(1, (EpochTrace((), 1), EpochTrace((), 2)), (1, 2))
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, original, grid_spec)
        assert read_trace(path)[0] == original

    def test_hillcar_floats_roundtrip_exactly(self, tmp_path):
        spec = HillCarSpec()
        state = (-0.5123456789012345, 0.0123456789012345)
        log = RunLog(1, (EpochTrace((TraceStep(state, (0.777,), 0.1),), 1),))
        path = tmp_path / "hc.trace.jsonl"
        write_trace(path, log, spec)
        parsed, _ = read_trace(path)
        assert parsed.epochs[0].steps[0].state == state
        assert parsed.epochs[0].steps[0].action == (0.777,)


class TestTraceValidation:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.trace.jsonl"
        path.write_text("".join(l + "\n" for l in lines))
        return path

    def header(self, epochs=1, **extra):
        return json.dumps(
            {
                "format": "fuzzoracle-trace",
                "version": 1,
                "env": env_spec_to_dict(GridSpec()),
                "policy_id": 1,
                "epochs": epochs,
                **extra,
            }
        )

    def step(self, epoch, step, state=(0, 0), action=0):
        return json.dumps(
            {
                "epoch": epoch,
                "step": step,
                "state": list(state),
                "action": action,
                "reward": 0.0,
            }
        )

    def test_empty_file(self, tmp_path):
        path = self.write_lines(tmp_path, [])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_header_only(self, tmp_path):
        path = self.write_lines(tmp_path, [self.header()])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_non_contiguous_epochs(self, tmp_path):
        path = self.write_lines(
            tmp_path, [self.header(2), self.step(1, 1), self.step(3, 1)]
        )
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.record_index == 3

    def test_step_gap(self, tmp_path):
        path = self.write_lines(
            tmp_path, [self.header(), self.step(1, 1), self.step(1, 3)]
        )
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.record_index == 3

    def test_epochs_must_start_at_one(self, tmp_path):
        path = self.write_lines(tmp_path, [self.header(), self.step(2, 1)])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_missing_epoch_needs_the_header_to_list_it(self, tmp_path):
        steps = [self.step(1, 1), self.step(3, 1)]
        path = self.write_lines(tmp_path, [self.header(3, aborted_epochs=[1])] + steps)
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.record_index == 3
        path = self.write_lines(tmp_path, [self.header(3, aborted_epochs=[2])] + steps)
        assert len(read_trace(path)[0].epochs[1]) == 0

    @pytest.mark.parametrize(
        "aborted", [[0], [2, 1], [1, 1], [True], [1.0], "1", 1, [4]], ids=repr
    )
    def test_bad_aborted_epochs(self, tmp_path, aborted):
        path = self.write_lines(
            tmp_path, [self.header(3, aborted_epochs=aborted)]
            + [self.step(e, 1) for e in (1, 2, 3)],
        )
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.record_index == 1

    def test_state_out_of_bounds(self, tmp_path):
        path = self.write_lines(
            tmp_path, [self.header(), self.step(1, 1, state=(9, 9))]
        )
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_header_epoch_mismatch(self, tmp_path):
        path = self.write_lines(tmp_path, [self.header(5), self.step(1, 1)])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_wrong_format_name(self, tmp_path):
        path = self.write_lines(tmp_path, ['{"format": "other", "version": 1}'])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_garbage_json(self, tmp_path):
        path = self.write_lines(tmp_path, [self.header(), "not json"])
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.record_index == 2


class TestPolicyFiles:
    def test_round_trip(self, tmp_path, two_ref_policy):
        path = tmp_path / "p.json"
        save_policy(path, two_ref_policy)
        loaded = load_policy(path)
        assert loaded == two_ref_policy

    def test_continuous_round_trip(self, tmp_path):
        space = HillCarSpec().state_space()
        actions = HillCarSpec().action_space()
        policy = IntendedPolicy.build(
            [((-0.51, 0.013), (0.25,)), ((0.1, -0.06), (-0.8,))], space, actions
        )
        path = tmp_path / "p.json"
        save_policy(path, policy)
        assert load_policy(path) == policy

    def test_shipped_fixture_loads(self):
        policy = load_policy(os.path.join(DATA, "hand3epoch.policy.json"))
        assert policy.entries == (((0, 0), 2), ((2, 2), 1))
        assert policy.min_ref_distance == 4.0

    def test_tampered_min_distance_rejected(self, tmp_path, two_ref_policy):
        data = policy_to_dict(two_ref_policy)
        data["min_ref_distance"] = 1.23
        with pytest.raises(TraceFormatError):
            policy_from_dict(data)

    def test_wrong_format_rejected(self, two_ref_policy):
        data = policy_to_dict(two_ref_policy)
        data["format"] = "something"
        with pytest.raises(TraceFormatError):
            policy_from_dict(data)


class TestConfigSerialization:
    def test_env_round_trip(self):
        for spec in (GridSpec(rows=5, cols=3, holes=((1, 1),), goal=(4, 2)), HillCarSpec()):
            assert env_spec_from_dict(env_spec_to_dict(spec)) == spec

    def test_env_unknown_kind(self):
        with pytest.raises(TraceFormatError):
            env_spec_from_dict({"kind": "pendulum"})

    def test_env_unknown_field(self):
        with pytest.raises(TraceFormatError):
            env_spec_from_dict({"kind": "grid", "rowz": 4})

    def test_agent_round_trip(self):
        config = AgentConfig(learning_rate=0.25, seed=9)
        assert agent_config_from_dict(agent_config_to_dict(config)) == config

    def test_agent_bad_value(self):
        with pytest.raises(TraceFormatError):
            agent_config_from_dict({"learning_rate": -1.0})

    def test_oracle_round_trip(self):
        config = OracleConfig(
            policies=4, epochs=50, trend=TrendParams(window=3, epsilon=0.01, delta=0.2)
        )
        assert oracle_config_from_dict(oracle_config_to_dict(config)) == config

    def test_run_config_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"oracle": {"policies": 2, "epochs": 10}}')
        config = load_run_config(path)
        assert config["env"] == GridSpec()
        assert config["oracle"].policies == 2

    def test_run_config_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "oracle": {,}\n}')
        with pytest.raises(TraceFormatError) as err:
            load_run_config(path)
        assert "line 2" in str(err.value)

    def test_run_config_unknown_section(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"oracel": {}}')
        with pytest.raises(TraceFormatError):
            load_run_config(path)
