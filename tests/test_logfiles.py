import enum
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    inject_bug,
)
from fuzzoracle import logfiles
from fuzzoracle.errors import InvalidWindowError, TraceFormatError
from fuzzoracle.membership import MembershipShape
from fuzzoracle.logfiles import (
    agent_config_from_dict,
    canonical_json,
    config_from_dict,
    config_to_dict,
    env_spec_from_dict,
    load_policy,
    load_run_config,
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
                "env": config_to_dict(GridSpec()),
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

    @pytest.mark.parametrize("env", [
        None, [], {"kind": "pendulum"}, {"kind": "grid", "rows": "a"},
        {"kind": "grid", "goal": [9]}, {"kind": "grid", "rowz": 4},
    ], ids=repr)
    def test_bad_header_env(self, tmp_path, env):
        header = json.loads(self.header())
        if env is None:
            del header["env"]
        else:
            header["env"] = env
        path = self.write_lines(tmp_path, [json.dumps(header), self.step(1, 1)])
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

    def test_nesting_too_deep(self, tmp_path):
        path = self.write_lines(tmp_path, [self.header(), "[" * 100_000])
        with pytest.raises(TraceFormatError, match="^record 2: invalid JSON: ") as err:
            read_trace(path)
        assert err.value.record_index == 2

    def test_epoch_number_must_be_an_int(self, tmp_path):
        steps = [self.step(1.0, 1), self.step(3, 1)]
        path = self.write_lines(tmp_path, [self.header(3, aborted_epochs=[2])] + steps)
        with pytest.raises(TraceFormatError, match=r"^record 2: epoch must be an int, got 1\.0$") as err:
            read_trace(path)
        assert err.value.record_index == 2

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_oversize_int_reward(self, tmp_path, digits):
        record = self.step(1, 1).replace('"reward": 0.0', '"reward": ' + "9" * digits)
        path = self.write_lines(tmp_path, [self.header(), record])
        with pytest.raises(TraceFormatError, match="^record 2: ") as err:
            read_trace(path)
        assert err.value.record_index == 2


class Move(enum.IntEnum):
    UP = 0
    DOWN = 1


special_floats = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 0.1])
floats = special_floats | st.floats()  # st.floats() also draws nan and inf
plain_numbers = floats | st.builds(np.float64, floats) | st.integers(-3, 3) | st.booleans()
grid_numbers = st.integers(0, 3) | st.sampled_from(list(Move)) | st.booleans() | floats


@st.composite
def traced_log(draw):
    """A run log and env spec with the values a trace writer can meet."""
    if draw(st.booleans()):
        spec = GridSpec()
        step = st.builds(
            TraceStep, st.tuples(grid_numbers, grid_numbers), grid_numbers, plain_numbers
        )
    else:
        spec = HillCarSpec()
        step = st.builds(
            TraceStep, st.tuples(plain_numbers, plain_numbers), st.tuples(plain_numbers),
            plain_numbers,
        )
    epochs = draw(st.lists(st.lists(step, max_size=5), min_size=1, max_size=4))
    log = RunLog(
        draw(st.integers(1, 9)),
        tuple(EpochTrace(tuple(steps), e) for e, steps in enumerate(epochs, start=1)),
        tuple(e for e, steps in enumerate(epochs, start=1) if not steps),
    )
    return log, spec


def canonical_trace(log, spec) -> str:
    """The trace as one canonical_json call per line."""
    header = {
        "format": "fuzzoracle-trace",
        "version": 1,
        "env": config_to_dict(spec),
        "policy_id": log.policy_id,
        "epochs": len(log.epochs),
    }
    if log.aborted_epochs:
        header["aborted_epochs"] = list(log.aborted_epochs)
    lines = [canonical_json(header)]
    for epoch in log.epochs:
        for j, step in enumerate(epoch.steps, start=1):
            action = step.action if spec.kind == "grid" else list(step.action)
            lines.append(canonical_json({
                "epoch": epoch.epoch_index, "step": j, "state": list(step.state),
                "action": action, "reward": step.reward,
            }))
    return "".join(lines)


class TestTraceWriterBytes:
    """Records formatted directly are the bytes canonical_json writes."""

    @settings(max_examples=300, deadline=None)
    @given(case=traced_log())
    def test_byte_identical_to_canonical_json(self, tmp_path_factory, case):
        log, spec = case
        path = tmp_path_factory.mktemp("w") / "t.trace.jsonl"
        write_trace(path, log, spec)
        assert path.read_text(encoding="utf-8") == canonical_trace(log, spec)

    def test_special_values(self, tmp_path):
        # -0.0, a subnormal, 1e16, an int coordinate in a box state, numpy
        # floats, non-finite values, an IntEnum action and a bool reward.
        steps = (
            TraceStep((-0.0, 5e-324), (1e16,), np.float64(0.1)),
            TraceStep((0, np.float64(-0.5)), (float("nan"),), float("-inf")),
        )
        hill = RunLog(1, (EpochTrace(steps, 1),))
        grid = RunLog(1, (EpochTrace((TraceStep((0, 1), Move.DOWN, True),), 1),))
        for log, spec in ((hill, HillCarSpec()), (grid, GridSpec())):
            path = tmp_path / f"{spec.kind}.trace.jsonl"
            write_trace(path, log, spec)
            assert path.read_text(encoding="utf-8") == canonical_trace(log, spec)


class TestTraceReaderChunks:
    """A bad record anywhere in a trace is reported at its own index, and a
    line is never read together with its neighbours."""

    RECORDS = 11  # record indices 2..12

    def lines(self):
        header = TestTraceValidation().header()
        rec = {"epoch": 1, "state": [0, 0], "action": 1, "reward": 0.5}
        return [header] + [json.dumps({**rec, "step": j}, sort_keys=True)
                           for j in range(1, self.RECORDS + 1)]

    @pytest.mark.parametrize("index", [2, 3, 5, 6, 7, 9, 10, 11, 12])
    @pytest.mark.parametrize("fault", ["invalid_json", "missing_field", "state_out_of_bounds",
                                       "bool_reward", "step_gap"])
    def test_exact_record_index(self, tmp_path, index, fault):
        lines = self.lines()
        rec = json.loads(lines[index - 1])
        if fault == "invalid_json":
            bad = lines[index - 1][:-1]
        elif fault == "missing_field":
            del rec["reward"]
        elif fault == "state_out_of_bounds":
            rec["state"] = [0, 9]
        elif fault == "bool_reward":
            rec["reward"] = True
        else:
            rec["step"] += 1
        if fault != "invalid_json":
            bad = json.dumps(rec, sort_keys=True)
        lines[index - 1] = bad
        path = tmp_path / "bad.trace.jsonl"
        path.write_text("".join(l + "\n" for l in lines))
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.record_index == index
        assert str(err.value).startswith(f"record {index}")

    # Groups of lines from record 2 on whose record 2 is not JSON on its
    # own. REST stands for a line with steps 2 and 3, which keeps the steps
    # in sequence where two lines make one record when joined.
    REST = "rest"

    @pytest.mark.parametrize("group", [
        # A string that runs on into the next line.
        ['{"action":1,"epoch":1,"reward":0.5,"state":[0,0],"step":1,"x":"}', '{","y":1}', REST],
        # ... and hides behind a repeated key.
        ['{"action":1,"epoch":1,"reward":"}', '{","reward":0.5,"state":[0,0],"step":1}', REST],
        # An array that runs on into the next line behind a repeated key.
        ['{"action":1,"epoch":1,"reward":0.5,"step":1,"state":[{}', '{}],"state":[0,0]}', REST],
        # ... holding a whole record, so the two lines hold 20 quotes.
        ['{"action":1,"epoch":1,"reward":0.5,"step":1,"state":[{}',
         '{"action":1,"epoch":1,"reward":0.5,"step":1}],"state":[0,0]}'],
        # An object split between two lines.
        ['{"action":1,"epoch":1,"reward":0.5', '"state":[0,0],"step":1}', REST],
        # Two records on one line and nothing to make up for it.
        ['{"action":1,"epoch":1,"reward":0.5,"state":[0,0],"step":1},'
         '{"action":1,"epoch":1,"reward":0.5,"state":[0,0],"step":2}'],
    ], ids=["string", "string_repeated_key", "array_repeated_key", "record_repeated_key",
            "split_object", "two_records"])
    def test_lines_that_only_parse_joined_are_invalid(self, tmp_path, group):
        lines = self.lines()
        rest = lines[2] + "," + lines[3]
        group = [rest if line == self.REST else line for line in group]
        lines[1:1 + len(group)] = group
        path = tmp_path / "joined.trace.jsonl"
        path.write_text("".join(l + "\n" for l in lines))
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.record_index == 2
        assert "invalid JSON" in str(err.value)

    def test_records_the_fast_checks_pass_on_read_as_before(self, tmp_path):
        # An int reward and an extra field are accepted.
        lines = self.lines()
        lines[2] = '{"action":1,"epoch":1,"reward":1,"state":[0,0],"step":2}'
        lines[11] = '{"action":1,"epoch":1,"extra":[],"reward":0.5,"state":[0,0],"step":11}'
        path = tmp_path / "odd.trace.jsonl"
        path.write_text("".join(l + "\n" for l in lines))
        steps = read_trace(path)[0].epochs[0].steps
        assert steps[1] == TraceStep((0, 0), 1, 1.0) and type(steps[1].reward) is float
        assert len(steps) == self.RECORDS

    # Grid coordinates are two plain ints: a float is not truncated, and
    # nothing escapes as a TypeError or ValueError.
    BAD_GRID_STATES = [[1.7, 0], [0.0, 1.0], 5, ["a", 0], [True, 0], [0], [0, 0, 0], None]

    @pytest.mark.parametrize("index", [2, 7, 12])
    @pytest.mark.parametrize("state", BAD_GRID_STATES, ids=repr)
    def test_bad_grid_state_rejected_at_its_index(self, tmp_path, index, state):
        lines = self.lines()
        rec = json.loads(lines[index - 1])
        rec["state"] = state
        lines[index - 1] = json.dumps(rec, sort_keys=True)
        path = tmp_path / "bad.trace.jsonl"
        path.write_text("".join(l + "\n" for l in lines))
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.record_index == index
        assert str(err.value).startswith(f"record {index}: ")

    @pytest.mark.parametrize("action", [1.0, True, "1", [1], None], ids=repr)
    def test_bad_grid_action_rejected_at_its_index(self, tmp_path, action):
        lines = self.lines()
        rec = json.loads(lines[6])
        rec["action"] = action
        lines[6] = json.dumps(rec, sort_keys=True)
        path = tmp_path / "bad.trace.jsonl"
        path.write_text("".join(l + "\n" for l in lines))
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.record_index == 7


HAND_TRACE = os.path.join(DATA, "hand3epoch.trace.jsonl")
HAND_RECORD_2 = '{"action":2,"epoch":1,"reward":1.0,"state":[0,0],"step":1}'
TOO_DEEP = HAND_RECORD_2[:-1] + ',"x":' + "[" * 100_000 + "]" * 100_000 + "}"


def loads_record(line, index):
    """``line`` as ``json.loads`` reads it, with the trace reader's errors."""
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError(
            f"record {index}: invalid JSON: {getattr(exc, 'msg', exc)}", record_index=index
        ) from exc
    if not isinstance(rec, dict):
        raise TraceFormatError(f"record {index}: expected an object", record_index=index)
    return rec


def outcome(parse, *args):
    try:
        return "value", parse(*args)
    except TraceFormatError as exc:
        return type(exc), str(exc), exc.record_index


class TestTraceLines:
    """Each trace line is parsed on its own, and only a newline ends it."""

    def hand_lines(self):
        with open(HAND_TRACE, encoding="utf-8") as fh:
            return fh.read().split("\n")[:-1]

    def write(self, tmp_path, lines, end="\n"):
        path = tmp_path / "t.trace.jsonl"
        path.write_bytes("".join(line + end for line in lines).encode("utf-8"))
        return path

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"],
                             ids=["U+2028", "U+2029", "U+0085"])
    def test_unicode_line_breaks_stay_inside_their_record(self, tmp_path, char):
        # JSON allows these raw inside a string; an ignored field holds one.
        lines = self.hand_lines()
        lines[1] = lines[1][:-1] + f',"note":"a{char}b"}}'
        assert read_trace(self.write(tmp_path, lines)) == read_trace(HAND_TRACE)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_crlf_and_cr_end_a_line(self, tmp_path, end):
        path = self.write(tmp_path, self.hand_lines(), end)
        assert read_trace(path) == read_trace(HAND_TRACE)

    @pytest.mark.parametrize("record", [1, 2], ids=["header", "record_2"])
    def test_undecodable_byte_names_its_record(self, tmp_path, record):
        # Text-mode decoding raised a UnicodeDecodeError on the first read,
        # before any record was reached.
        lines = [line.encode("utf-8") for line in self.hand_lines()]
        lines[record - 1] = lines[record - 1][:-1] + b',"note":"\xff"}'
        path = tmp_path / "t.trace.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        with pytest.raises(TraceFormatError,
                           match=f"^record {record}: invalid UTF-8 byte 0xff$") as err:
            read_trace(path)
        assert err.value.record_index == record

    def test_form_feed_does_not_end_a_line(self, tmp_path):
        lines = self.hand_lines()
        lines[1:3] = [lines[1] + "\f" + lines[2]]
        with pytest.raises(TraceFormatError, match="^record 2: invalid JSON: Extra data$") as err:
            read_trace(self.write(tmp_path, lines))
        assert err.value.record_index == 2

    # Record 2 of the hand fixture as lines the JSON scanner does not take
    # whole, and what reading the trace gives: the fixture, or an error.
    NOT_WHOLE = [
        ("  " + HAND_RECORD_2, None),
        (HAND_RECORD_2 + " \t", None),
        ("\ufeff" + HAND_RECORD_2,
         "record 2: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (HAND_RECORD_2 + " x", "record 2: invalid JSON: Extra data"),
        (HAND_RECORD_2 + HAND_RECORD_2, "record 2: invalid JSON: Extra data"),
        (HAND_RECORD_2[:-1], "record 2: invalid JSON: Expecting ',' delimiter"),
        ("", "record 2: invalid JSON: Expecting value"),
        ("[]", "record 2: expected an object"),
        ("5", "record 2: expected an object"),
        ('"{}"', "record 2: expected an object"),
        (TOO_DEEP, "record 2: invalid JSON: maximum recursion depth exceeded"),
    ]
    NOT_WHOLE_IDS = ["leading_spaces", "trailing_spaces", "bom", "extra_word",
                     "two_records", "unclosed", "empty", "array", "number", "string",
                     "too_deep"]

    @pytest.mark.parametrize("line, error", NOT_WHOLE, ids=NOT_WHOLE_IDS)
    def test_lines_the_scanner_does_not_take_whole(self, tmp_path, line, error):
        lines = self.hand_lines()
        lines[1] = line
        path = self.write(tmp_path, lines)
        if error is None:
            assert read_trace(path) == read_trace(HAND_TRACE)
            return
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert str(err.value).startswith(error)
        assert err.value.record_index == 2

    @pytest.mark.parametrize("line", [line for line, _ in NOT_WHOLE] + [
        HAND_RECORD_2, HAND_RECORD_2 + "\r", "\r" + HAND_RECORD_2, '{"a":"b', "{}",
    ], ids=NOT_WHOLE_IDS + ["canonical", "trailing_cr", "leading_cr", "unterminated", "empty_object"])
    def test_a_line_parses_as_json_loads_parses_it(self, line):
        # With or without its newline, which json.loads never sees.
        expected = outcome(loads_record, line, 2)
        assert outcome(logfiles._parse_record, line, 2) == expected
        assert outcome(logfiles._parse_record, line + "\n", 2) == expected


class TestBoxRecords:
    """Hill-car states read from a trace follow the record rules: numbers
    (not bools) of any JSON kind, converted to floats, inside the bounds."""

    @staticmethod
    def expected(value):
        if not isinstance(value, list):
            return "point must be a list"
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            return "box coordinates must be numbers"
        point = tuple(float(v) for v in value)
        return point if HillCarSpec().state_space().contains(point) else "outside the environment"

    @pytest.mark.parametrize("state", [
        [-0.5, 0.01], [-1, 0], [0, 0.0], [-1.2, -0.07], [0.6, 0.07], [0.61, 0.0],
        [0.0, -0.08], [0.1], [0.1, 0.0, 0.0], [float("nan"), 0.0], [True, 0.0],
        ["a", 0.0], [[0.1], 0.0], 5, None,
    ], ids=repr)
    def test_state(self, tmp_path, state):
        log = RunLog(1, (EpochTrace((TraceStep((0.0, 0.0), (0.5,), 0.0),) * 3, 1),))
        path = tmp_path / "hc.trace.jsonl"
        write_trace(path, log, HillCarSpec())
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["state"] = state
        lines[2] = json.dumps(rec)
        path.write_text("".join(l + "\n" for l in lines))
        expected = self.expected(state)
        if isinstance(expected, tuple):
            steps = read_trace(path)[0].epochs[0].steps
            assert steps[1].state == expected
            assert all(type(x) is float for x in steps[1].state)
        else:
            with pytest.raises(TraceFormatError, match=f"^record 3: .*{expected}") as err:
                read_trace(path)
            assert err.value.record_index == 3


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

    def test_box_policy_bytes(self, tmp_path):
        space = HillCarSpec().state_space()
        actions = HillCarSpec().action_space()
        policy = IntendedPolicy.build(
            [((-0.51, 0.013), (0.25,)), ((0.1, -0.06), (-0.8,))], space, actions
        )
        path = tmp_path / "p.json"
        save_policy(path, policy)
        assert path.read_text() == (
            '{"action_shape":{"kind":"linear","width":2.0},'
            '"action_space":{"highs":[1.0],"kind":"box","lows":[-1.0]},'
            '"entries":[{"action":[0.25],"state":[-0.51,0.013]},'
            '{"action":[-0.8],"state":[0.1,-0.06]}],'
            '"format":"fuzzoracle-policy","min_ref_distance":0.6218789545517571,'
            '"state_shape":{"kind":"linear","width":null},'
            '"state_space":{"highs":[0.6,0.07],"kind":"box","lows":[-1.2,-0.07]},'
            '"version":1}\n'
        )

    @pytest.mark.parametrize(
        "section", ["state_space", "action_space", "state_shape", "action_shape"]
    )
    def test_unknown_section_field_rejected(self, two_ref_policy, section):
        # Space sections follow the run-config rules; an extra field in one
        # was ignored.
        data = policy_to_dict(two_ref_policy)
        data[section]["extra"] = 1
        with pytest.raises(
            TraceFormatError, match=f"^bad policy file: unknown {section} fields: extra$"
        ):
            policy_from_dict(data)

    @pytest.mark.parametrize("space, message", [
        ({"kind": "hex", "n": 4}, "action_space kind must be 'grid', 'discrete' or 'box', got 'hex'"),
        ({"kind": "discrete", "n": 0}, "bad action_space config: discrete space needs at least one action"),
    ], ids=["kind", "n"])
    def test_bad_space_rejected(self, two_ref_policy, space, message):
        data = policy_to_dict(two_ref_policy)
        data["action_space"] = space
        with pytest.raises(TraceFormatError, match=f"^bad policy file: {re.escape(message)}$"):
            policy_from_dict(data)

    def test_shipped_fixture_loads(self):
        policy = load_policy(os.path.join(DATA, "hand3epoch.policy.json"))
        assert policy.entries == (((0, 0), 2), ((2, 2), 1))
        assert policy.min_ref_distance == 4.0

    def test_tampered_min_distance_rejected(self, tmp_path, two_ref_policy):
        data = policy_to_dict(two_ref_policy)
        data["min_ref_distance"] = 1.23
        with pytest.raises(TraceFormatError):
            policy_from_dict(data)

    @pytest.mark.parametrize("state", TestTraceReaderChunks.BAD_GRID_STATES, ids=repr)
    def test_bad_grid_state_rejected(self, two_ref_policy, state):
        data = policy_to_dict(two_ref_policy)
        data["entries"][0]["state"] = state
        with pytest.raises(TraceFormatError, match="got"):
            policy_from_dict(data)

    @pytest.mark.parametrize("state", [
        5, ["a", 0.0], [True, 0.0], [None, 0.0],
        pytest.param([10**400, 0.0], id="[10**400, 0.0]"),
    ], ids=repr)
    def test_bad_box_state_rejected(self, state):
        space = HillCarSpec().state_space()
        actions = HillCarSpec().action_space()
        policy = IntendedPolicy.build(
            [((-0.51, 0.013), (0.25,)), ((0.1, -0.06), (-0.8,))], space, actions
        )
        data = policy_to_dict(policy)
        data["entries"][1]["state"] = state
        with pytest.raises(TraceFormatError, match="got"):
            policy_from_dict(data)

    def test_wrong_format_rejected(self, two_ref_policy):
        data = policy_to_dict(two_ref_policy)
        data["format"] = "something"
        with pytest.raises(TraceFormatError):
            policy_from_dict(data)

    @pytest.mark.parametrize("data", [[], None, "policy"], ids=repr)
    def test_not_an_object_rejected(self, data):
        with pytest.raises(TraceFormatError, match="^not a policy file: expected an object"):
            policy_from_dict(data)

    def test_int_too_long_for_json_rejected(self, tmp_path, two_ref_policy):
        path = tmp_path / "p.json"
        save_policy(path, two_ref_policy)
        path.write_text(path.read_text().replace('"version":1', '"version":' + "1" * 5000))
        with pytest.raises(TraceFormatError, match="invalid JSON"):
            load_policy(path)


class TestConfigSerialization:
    def test_env_round_trip(self):
        for spec in (GridSpec(rows=5, cols=3, holes=((1, 1),), goal=(4, 2)), HillCarSpec()):
            assert env_spec_from_dict(config_to_dict(spec)) == spec

    def test_env_unknown_kind(self):
        with pytest.raises(TraceFormatError):
            env_spec_from_dict({"kind": "pendulum"})

    def test_env_unknown_field(self):
        with pytest.raises(TraceFormatError):
            env_spec_from_dict({"kind": "grid", "rowz": 4})

    def test_agent_round_trip(self):
        config = AgentConfig(learning_rate=0.25, seed=9)
        assert agent_config_from_dict(config_to_dict(config)) == config

    def test_oracle_bad_values(self):
        # Values the constructors reject become TraceFormatError; their own
        # library errors pass through unchanged.
        for data, message in (
            ({"epsilon": -1}, "bad oracle config: epsilon must be positive"),
            ({"policies": None}, "bad oracle config: policies must be an int, got None"),
            ({"theta_step": [1]}, "bad oracle config: '<=' not supported"),
        ):
            with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}"):
                config_from_dict(OracleConfig, data, "oracle")
        with pytest.raises(InvalidWindowError, match="^window must be >= 1, got 0$"):
            config_from_dict(OracleConfig, {"window": 0}, "oracle")
        with pytest.raises(TraceFormatError, match="^unknown oracle fields: trend$"):
            config_from_dict(OracleConfig, {"trend": {}}, "oracle")

    @pytest.mark.parametrize("cls, where, name", [
        (HillCarSpec, "env", "min_position"),
        (AgentConfig, "agent", "learning_rate"),
        (OracleConfig, "oracle", "reward_scale"),
        (OracleConfig, "oracle", "epsilon"),
        (MembershipShape, "state_shape", "width"),
    ])
    def test_float_field_too_large_for_a_float(self, cls, where, name):
        data = {"kind": "linear"} if cls is MembershipShape else {}
        data[name] = -int("9" * 400)
        message = f"bad {where} config: {name} is too large for a float"
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            config_from_dict(cls, data, where)

    @pytest.mark.parametrize("cls, where, name, value", [
        (GridSpec, "env", "rows", 4.0),
        (GridSpec, "env", "max_steps_per_epoch", True),
        (AgentConfig, "agent", "seed", 1.5),
        (OracleConfig, "oracle", "window", True),
        (OracleConfig, "oracle", "policies", None),
        (OracleConfig, "oracle", "policy_size", 3.0),
    ])
    def test_int_field_takes_only_an_int(self, cls, where, name, value):
        message = f"bad {where} config: {name} must be an int, got {value!r}"
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            config_from_dict(cls, {name: value}, where)

    @pytest.mark.parametrize("cls, where, name, value", [
        (GridSpec, "env", "slip_prob", False),
        (HillCarSpec, "env", "gravity", True),
        (AgentConfig, "agent", "learning_rate", True),
        (OracleConfig, "oracle", "theta_oracle", True),
        (OracleConfig, "oracle", "epsilon", True),
        (MembershipShape, "state_shape", "width", True),
        (HillCarSpec, "env", "max_speed", math.inf),
        (HillCarSpec, "env", "min_position", -math.inf),
        (HillCarSpec, "env", "force", math.nan),
        (GridSpec, "env", "slip_prob", math.nan),
        (AgentConfig, "agent", "learning_rate", math.nan),
        (OracleConfig, "oracle", "reward_scale", math.inf),
        (OracleConfig, "trend", "delta", math.inf),
        (MembershipShape, "state_shape", "width", math.inf),
    ])
    def test_float_field_refuses_a_bool(self, cls, where, name, value):
        # A bool is an int to Python, and compared as 0 or 1 it passed every
        # range check. So did an infinity or a NaN in most fields: an
        # infinite hill-car bound overflowed numpy's uniform draw, a NaN
        # force judged the clean learner Buggy, and an infinite reward scale
        # judged it NonBuggy.
        data = {"kind": "linear"} if cls is MembershipShape else {}
        data[name] = value
        problem = "must be a number" if isinstance(value, bool) else "must be finite"
        message = f"bad {where} config: {name} {problem}, got {value!r}"
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            config_from_dict(cls, data, where)

    @pytest.mark.parametrize("section", ["state_shape", "action_shape"])
    def test_policy_shape_width_refuses_a_bool(self, two_ref_policy, section):
        data = policy_to_dict(two_ref_policy)
        data[section]["width"] = True
        message = f"bad policy file: bad {section} config: width must be a number, got True"
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            policy_from_dict(data)

    def test_float_field_keeps_an_int(self):
        # The value is checked, not converted, so the config echo keeps it.
        config = agent_config_from_dict({"learning_rate": 1})
        assert type(config.learning_rate) is int
        assert config_to_dict(config)["learning_rate"] == 1

    def test_env_lists_become_tuples(self):
        spec = env_spec_from_dict({"kind": "grid", "holes": [[1, 1]], "goal": [3, 3]})
        assert spec == GridSpec(holes=((1, 1),))

    def test_agent_bug_rejected(self):
        # A bug enters only through inject_bug, which applies its overrides.
        with pytest.raises(TraceFormatError, match="^bad agent config: agent.bug"):
            agent_config_from_dict({"bug": "LR_ZERO"})
        assert agent_config_from_dict({"bug": None}) == AgentConfig()

    def test_agent_bad_value(self):
        with pytest.raises(TraceFormatError):
            agent_config_from_dict({"learning_rate": -1.0})

    def test_oracle_round_trip(self):
        config = OracleConfig(
            policies=4, epochs=50, trend=TrendParams(window=3, epsilon=0.01, delta=0.2)
        )
        assert config_from_dict(OracleConfig, config_to_dict(config), "oracle") == config

    def test_run_config_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"oracle": {"policies": 2, "epochs": 10}}')
        config = load_run_config(path)
        assert config["env"] == GridSpec()
        assert config["oracle"].policies == 2

    def test_run_config_overrides_apply_before_parsing(self, tmp_path):
        # Each override replaces a field of the file's section, so a kind
        # starts from that kind's defaults and a replaced value is never
        # checked.
        path = tmp_path / "cfg.json"
        path.write_text('{"env": {"kind": "grid"}, "oracle": {"epochs": 1}}')
        config = load_run_config(
            path, [("env", "kind", "hillcar"), ("oracle", "epochs", 20), ("agent", "seed", 4)]
        )
        assert config["env"] == HillCarSpec()
        assert config["oracle"].epochs == 20
        assert config["agent"] == AgentConfig(seed=4)

    def test_run_config_injects_each_bug_where_it_is_read(self, tmp_path):
        # The top-level bug goes into the agent, each variant's bug into the
        # clean agent; an override with section None sets the top level.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bug": "LR_ZERO", "agent": {"seed": 3}}))
        assert load_run_config(path)["agent"] == inject_bug(AgentConfig(seed=3), "LR_ZERO")
        config = load_run_config(path, [(None, "bug", "STALE_STATE")])
        assert config["agent"] == inject_bug(AgentConfig(seed=3), "STALE_STATE")
        assert config["variants"] == []
        path.write_text(json.dumps({"agent": {"seed": 3}, "variants": [
            {"name": "clean", "bug": None, "buggy": False},
            {"name": "lr_zero", "bug": "LR_ZERO", "buggy": True},
        ]}))
        config = load_run_config(path)
        assert config["agent"] == AgentConfig(seed=3)
        assert config["variants"] == [
            ("clean", False, AgentConfig(seed=3)),
            ("lr_zero", True, inject_bug(AgentConfig(seed=3), "LR_ZERO")),
        ]

    def test_run_config_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "oracle": {,}\n}')
        with pytest.raises(TraceFormatError) as err:
            load_run_config(path)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize(
        "text", ['{"oracle": {"policies": ' + "1" * 5000 + "}}", "[" * 100_000],
        ids=["int_too_long", "nesting_too_deep"],
    )
    def test_run_config_json_the_parser_refuses(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match="invalid JSON"):
            load_run_config(path)

    def test_run_config_unknown_section(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"oracel": {}}')
        with pytest.raises(TraceFormatError):
            load_run_config(path)
