"""File formats: trace logs, policy files, run configs, and reports.

All files are JSON or line-delimited JSON in a canonical form (sorted
keys, compact separators, one trailing newline per record) so that
parse-then-serialize reproduces a canonical file byte for byte and two
identical runs write identical reports. Numbers keep full round-trip
precision; human-facing report fields add 3-significant-digit views.

Format versions are integers; readers reject versions they do not know.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields
from itertools import chain

from .agents import AgentConfig, inject_bug
from .compliance import EpochTrace, RunLog, TraceStep
from .envs import GridSpec, HillCarSpec
from .errors import FuzzOracleError, TraceFormatError
from .evaluation import (
    DEFAULT_ROC_THRESHOLDS,
    ProgramRecord,
    confusion_at,
    confusion_metrics,
    roc_sweep,
)
from .membership import MembershipShape
from .oracle import LABEL_BUGGY, LABEL_NON_BUGGY, OracleConfig, Verdict
from .policy import IntendedPolicy
from .spaces import BoxSpace, DiscreteSpace, GridSpace, is_int

TRACE_FORMAT = "fuzzoracle-trace"
POLICY_FORMAT = "fuzzoracle-policy"
REPORT_FORMAT = "fuzzoracle-report"
EVALUATION_FORMAT = "fuzzoracle-evaluation"
ANALYSIS_FORMAT = "fuzzoracle-analysis"
FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    """One canonical JSON line, newline-terminated."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def display(x: float | None) -> str | None:
    """3-significant-digit view for humans; full precision lives elsewhere."""
    return None if x is None else format(x, ".3g")


# ---------------------------------------------------------------------------
# Configs: env specs, agent and oracle configs


def config_to_dict(config) -> dict:
    """The fields of a config dataclass as JSON values.

    A config with a ``kind`` (an env spec, a space) also gives it, and
    tuples become lists.
    """
    data = {"kind": config.kind} if hasattr(config, "kind") else {}
    for f in fields(config):
        data[f.name] = _lists(getattr(config, f.name))
    return data


def config_from_dict(cls, data, where: str):
    """The ``cls`` config that :func:`config_to_dict` wrote as ``data``.

    Lists become tuples, and a missing field takes the dataclass's default.
    A ``kind`` goes to the constructor only when it is one of ``cls``'s
    fields (a membership shape). An unknown field, a value other than an
    int that is no bool in an int field (``None`` too, unless the field is
    optional), a bool, an int too large for a float or a float that is not
    finite in a float field (an int is kept, not converted), or a value the
    constructor rejects with a TypeError, ValueError or AttributeError,
    raises :class:`TraceFormatError` naming the ``where`` section; the
    constructor's own library errors pass through unchanged. The types are
    checked in the order ``cls`` declares its fields, before the
    constructor runs.
    """
    allowed = [f.name for f in fields(cls)]
    kind_field = "kind" in allowed
    if hasattr(cls, "kind"):
        allowed.append("kind")
    _take(_object(data, where), *allowed, where=where)
    values = {k: _tuples(v) for k, v in data.items() if k != "kind" or kind_field}
    for f in fields(cls):
        value = values.get(f.name)
        if f.type in ("int", "int | None") and f.name in values and not (
            is_int(value) or value is None and f.type == "int | None"
        ):
            raise TraceFormatError(
                f"bad {where} config: {f.name} must be an int, got {data[f.name]!r}"
            )
        if f.type in ("float", "float | None") and isinstance(value, float):
            _check(math.isfinite(value), where, f"{f.name} must be finite", value)
        if f.type in ("float", "float | None") and isinstance(value, int):
            _check(not isinstance(value, bool), where, f"{f.name} must be a number", value)
            try:
                float(value)
            except OverflowError:
                raise TraceFormatError(
                    f"bad {where} config: {f.name} is too large for a float"
                ) from None
    try:
        return cls(**values)
    except (TypeError, ValueError, AttributeError) as exc:
        raise TraceFormatError(f"bad {where} config: {exc}") from exc


def _config_of_kind(data, where: str, classes):
    """The config of whichever of ``classes`` has the ``kind`` that ``data``
    names, read by :func:`config_from_dict`."""
    kind = _object(data, where).get("kind")
    for cls in classes:
        if kind == cls.kind:
            return config_from_dict(cls, data, where)
    *others, last = [repr(cls.kind) for cls in classes]
    raise TraceFormatError(f"{where} kind must be {', '.join(others)} or {last}, got {kind!r}")


def _lists(value):
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _object(data, where: str) -> dict:
    _check(isinstance(data, dict), where, "expected an object", data)
    return data


def _check(ok: bool, where: str, problem: str, value) -> None:
    """Raise :class:`TraceFormatError` for ``value`` in the ``where``
    config unless ``ok``."""
    if not ok:
        raise TraceFormatError(f"bad {where} config: {problem}, got {value!r}")


def _take(data: dict, *allowed, where: str) -> dict:
    unknown = set(data) - set(allowed)
    if unknown:
        raise TraceFormatError(
            f"unknown {where} fields: {', '.join(sorted(unknown))}"
        )
    return data


def env_spec_from_dict(data):
    return _config_of_kind(data, "env", (GridSpec, HillCarSpec))


def agent_config_from_dict(data) -> AgentConfig:
    """The agent section of a run config. It names no bug: a bug enters
    only through :func:`inject_bug`, which applies its overrides."""
    if _object(data, "agent").get("bug") is not None:
        raise TraceFormatError(
            "bad agent config: agent.bug is not accepted; name the bug as the "
            "top-level 'bug', a variant's 'bug' or --bug"
        )
    return config_from_dict(AgentConfig, data, "agent")


# ---------------------------------------------------------------------------
# Intended policies


def _point_to_json(point, space):
    if isinstance(space, DiscreteSpace):
        return point
    return list(point)


def _point_reader(space):
    """Callable ``(value, index=None)`` giving the point of ``space`` that
    ``value`` holds, and whether ``space`` contains it, as ``space.contains``
    tells. The point is an int in a discrete space, two ints on a grid, a
    tuple of floats in a box. Bools are not numbers here, and a float is
    never truncated to a grid coordinate; anything else raises
    :class:`TraceFormatError` at record ``index``."""
    if isinstance(space, DiscreteSpace):
        def point(value, index=None):
            if is_int(value):
                return value, space.contains(value)
            raise _bad_point("discrete action must be an int", value, index)
    elif isinstance(space, GridSpace):
        def point(value, index=None):
            if not isinstance(value, (list, tuple)):
                raise _bad_point("point must be a list", value, index)
            if len(value) == 2 and is_int(value[0]) and is_int(value[1]):
                p = tuple(value)
                return p, space.contains(p)
            raise _bad_point("grid coordinates must be two ints", value, index)
    else:
        def point(value, index=None):
            if not isinstance(value, (list, tuple)):
                raise _bad_point("point must be a list", value, index)
            if not all(is_int(v) or isinstance(v, float) for v in value):
                raise _bad_point("box coordinates must be numbers", value, index)
            try:
                p = tuple(map(float, value))
            except OverflowError:
                raise _bad_point("box coordinate too large for a float", value, index) from None
            return p, space.contains(p)
    return point


def _bad_point(problem: str, value, index) -> TraceFormatError:
    prefix = "" if index is None else f"record {index}: "
    return TraceFormatError(f"{prefix}{problem}, got {value!r}", record_index=index)


def policy_to_dict(policy: IntendedPolicy) -> dict:
    return {
        "format": POLICY_FORMAT,
        "version": FORMAT_VERSION,
        "state_space": config_to_dict(policy.state_space),
        "action_space": config_to_dict(policy.action_space),
        "entries": [
            {
                "state": _point_to_json(s, policy.state_space),
                "action": _point_to_json(a, policy.action_space),
            }
            for s, a in policy.entries
        ],
        "state_shape": config_to_dict(policy.state_shape),
        "action_shape": config_to_dict(policy.action_shape),
        "min_ref_distance": policy.min_ref_distance,
    }


def policy_from_dict(data: dict) -> IntendedPolicy:
    if not isinstance(data, dict):
        raise TraceFormatError(f"not a policy file: expected an object, got {data!r}")
    if data.get("format") != POLICY_FORMAT:
        raise TraceFormatError(f"not a policy file: format {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported policy version {data.get('version')!r}")
    try:
        spaces = [
            _config_of_kind(data[k], k, (GridSpace, DiscreteSpace, BoxSpace))
            for k in ("state_space", "action_space")
        ]
        shapes = [
            config_from_dict(MembershipShape, data[k], k) for k in ("state_shape", "action_shape")
        ]
    except (KeyError, TraceFormatError, OverflowError) as exc:
        raise TraceFormatError(f"bad policy file: {exc}") from exc
    try:
        state_of, action_of = map(_point_reader, spaces)
        entries = [(state_of(e["state"])[0], action_of(e["action"])[0]) for e in data["entries"]]
        policy = IntendedPolicy(entries, *spaces, *shapes)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, FuzzOracleError) as exc:
        raise TraceFormatError(f"bad policy file: {exc}") from exc
    stored = data.get("min_ref_distance")
    if stored is not None and stored != policy.min_ref_distance:
        raise TraceFormatError(
            f"stored min_ref_distance {stored} does not match "
            f"recomputed {policy.min_ref_distance}"
        )
    return policy


def save_policy(path, policy: IntendedPolicy) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(policy_to_dict(policy)))


def load_policy(path) -> IntendedPolicy:
    return policy_from_dict(_load_json(path))


def _load_json(path):
    """The JSON value in the file at ``path``. Bad JSON, an int too long to
    convert or nesting too deep to parse raises :class:`TraceFormatError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:
            raise TraceFormatError(f"{path}: invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Trace logs: one header line, then one line per step


def write_trace(path, log: RunLog, env_spec) -> None:
    """Write ``log`` as a trace file.

    An epoch that aborted on its first action has no steps and so no
    records; the header lists the aborted epochs (only when there are any)
    so the reader can tell such an epoch from a missing one. The log's
    ``clamped_actions`` is not written: the file reads back as
    ``replace(log, clamped_actions=0)``.

    Records are the bytes :func:`canonical_json` writes. One ``%`` record
    template per trace, built from the two spaces (:func:`_plain_point`)
    with the keys in canonical order, formats a whole epoch in one call when
    its records are plain: the epoch index is an int, every point has its
    space's length, every coordinate has its JSON type exactly (a float in
    a box, an int on a grid or as a discrete action), every reward is a
    float, and the text holds no NaN or infinity. Any other epoch is
    written by :func:`canonical_json`, one call per record.
    """
    header = {
        "format": TRACE_FORMAT,
        "version": FORMAT_VERSION,
        "env": config_to_dict(env_spec),
        "policy_id": log.policy_id,
        "epochs": len(log.epochs),
    }
    if log.aborted_epochs:
        header["aborted_epochs"] = list(log.aborted_epochs)
    state_space = env_spec.state_space()
    action_space = env_spec.action_space()
    state_form, action_form = _plain_point(state_space), _plain_point(action_space)
    # The record template, split around the epoch index.
    head = '{"action":' + action_form[0] + ',"epoch":'
    tail = ',"reward":%r,"state":' + state_form[0] + ',"step":%d}\n'
    discrete = isinstance(action_space, DiscreteSpace)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(header))
        for epoch in log.epochs:
            e, steps = epoch.epoch_index, epoch.steps
            text = ""
            if steps and type(e) is int:
                states, actions, rewards = zip(*steps)
                if discrete:
                    actions = tuple(zip(actions))  # a move as a point of one coordinate
                if (
                    set(map(type, rewards)) == {float}
                    and _is_plain(states, state_form)
                    and _is_plain(actions, action_form)
                ):
                    # The template's arguments, record after record.
                    values = zip(*zip(*actions), rewards, *zip(*states), range(1, len(steps) + 1))
                    text = (f"{head}{e}{tail}" * len(steps)) % tuple(chain.from_iterable(values))
            # Each record holds one "n", in "action"; a NaN or an infinity adds one.
            if text.count("n") != len(steps):
                text = "".join([
                    canonical_json({
                        "epoch": e,
                        "step": j,
                        "state": _point_to_json(s, state_space),
                        "action": _point_to_json(a, action_space),
                        "reward": r,
                    })
                    for j, (s, a, r) in enumerate(steps, 1)
                ])
            fh.write(text)


def _plain_point(space) -> tuple:
    """``(template, type, ranges)`` of a plain point of ``space`` in a trace
    record: one coordinate of exactly ``type`` per ``(low, high)`` in
    ``ranges``, and between the two, in a list, or bare in a discrete
    space; the ``%`` template writes it."""
    if isinstance(space, DiscreteSpace):
        return "%r", int, ((0, space.n - 1),)
    if isinstance(space, GridSpace):
        kind, ranges = int, ((0, space.rows - 1), (0, space.cols - 1))
    else:
        kind, ranges = float, tuple(zip(space.lows, space.highs))
    return "[" + ",".join(["%r"] * len(ranges)) + "]", kind, ranges


def _is_plain(points, form) -> bool:
    """Whether every one of ``points`` has one coordinate per range of the
    plain point ``form``, each of its type (the ranges aside)."""
    _, kind, ranges = form
    try:
        return set(map(len, points)) == {len(ranges)} and set(
            map(type, chain.from_iterable(points))
        ) == {kind}
    except TypeError:  # a point without a length
        return False


def read_trace(path):
    """Parse a trace file into (RunLog, env spec).

    Epochs must be contiguous from 1 and steps contiguous from 1 within
    each epoch; violations report the offending record index. An epoch
    without records is accepted only when the header lists it among the
    aborted epochs; it is read back as an epoch with no steps. A hill-car
    force may be any finite number (:func:`_trace_actions`).

    The header is parsed by :func:`_parse_record`; one loop,
    :func:`_read_records`, then parses and checks the records one line at
    a time, each line on its own. A line ends only at a newline; text mode
    reads CR LF and a lone CR as one, while U+2028, U+2029, U+0085 and
    form feeds stay inside their line. A byte that is not UTF-8 is read as
    a lone surrogate and rejected with the index of the record holding it.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline()
        if not first:
            raise TraceFormatError("trace file is empty", record_index=0)
        header = _parse_record(first, 1)
        if header.get("format") != TRACE_FORMAT:
            raise TraceFormatError(
                f"not a trace file: format {header.get('format')!r}", record_index=1
            )
        if header.get("version") != FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace version {header.get('version')!r}", record_index=1
            )
        try:
            env_spec = env_spec_from_dict(header.get("env"))
        except FuzzOracleError as exc:
            raise TraceFormatError(str(exc), record_index=1) from exc
        for name in ("policy_id", "epochs"):
            if name in header and not is_int(header[name]):
                raise TraceFormatError(
                    f"header {name} must be an int, got {header[name]!r}", record_index=1
                )
        declared_epochs = header.get("epochs")
        aborted = _aborted_epochs(header)

        epochs = _read_records(
            fh, env_spec.state_space(), _trace_actions(env_spec.action_space()),
            frozenset(aborted),
        )

    if not epochs:
        raise TraceFormatError("trace contains no steps", record_index=1)
    if declared_epochs is not None and declared_epochs != len(epochs):
        raise TraceFormatError(
            f"header declares {declared_epochs} epochs, file has {len(epochs)}",
            record_index=1,
        )
    if aborted and aborted[-1] > len(epochs):
        raise TraceFormatError(
            f"header lists aborted epoch {aborted[-1]}, file has {len(epochs)}",
            record_index=1,
        )
    return RunLog(header.get("policy_id", 1), tuple(epochs), aborted), env_spec


def _trace_actions(space):
    """The actions a trace may hold: those of ``space`` when it is
    discrete, else every finite point of its length. The environment clamps
    a force outside the box, and training scores the force as the learner
    emitted it, so its trace keeps that force for ``analyze`` to score."""
    if isinstance(space, DiscreteSpace):
        return space
    top = sys.float_info.max
    return BoxSpace(lows=(-top,) * space.dim, highs=(top,) * space.dim)


_FIELDS = ("epoch", "step", "state", "action", "reward")
_scan_json = json.JSONDecoder().scan_once


def _read_records(lines, state_space, action_space, aborted: frozenset) -> list:
    """The epochs of the trace records on ``lines``, records 2 on, with the
    ``aborted`` epochs that wrote no record; any fault raises
    :class:`TraceFormatError` at its record's index.

    A line the JSON scanner takes whole as one object, as every canonical
    record is, is parsed here; any other goes to :func:`_parse_record`. The
    checks run in this order: the five fields are present, the record is
    the next step of its epoch or the first step of the next one (after any
    that aborted), the state and then the action are points of their
    spaces, the state and then the action lie inside them, and the reward
    is a number. Every trace env has a state of two coordinates and an
    action of one, bare (a grid move) or in a list (a hill-car force). When
    both points have that shape, and each coordinate has its JSON type
    exactly and lies in its range, the pair is checked here; any other goes
    to :func:`_point_reader`, which gives every error. An int reward becomes
    a float; other fields are ignored.
    """
    state_of, action_of = _point_reader(state_space), _point_reader(action_space)
    _, state_kind, ((x0, x1), (y0, y1)) = _plain_point(state_space)
    _, action_kind, ((a0, a1),) = _plain_point(action_space)
    discrete = isinstance(action_space, DiscreteSpace)
    scan, step = _scan_json, tuple.__new__
    done: list = []
    current: list = []  # steps of epoch ``number``
    number = 0
    for index, line in enumerate(lines, start=2):
        rec = end = None
        if line.isascii():
            try:
                rec, end = scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                pass
        if type(rec) is not dict or line[end:] not in ("", "\n"):
            rec = _parse_record(line, index)
        try:
            e, j, state, action, reward = (
                rec["epoch"], rec["step"], rec["state"], rec["action"], rec["reward"]
            )
        except KeyError:
            missing = ", ".join(f for f in sorted(_FIELDS) if f not in rec)
            raise TraceFormatError(
                f"record {index} missing fields: {missing}", record_index=index
            ) from None
        if e != number or j != len(current) + 1:
            if type(e) is int and j == 1 and e > number and all(
                k in aborted for k in range(number + 1, e)
            ):
                # The epochs in between aborted on their first action.
                if current:
                    done.append(EpochTrace(tuple(current), number))
                done.extend(EpochTrace((), k) for k in range(number + 1, e))
                current, number = [], e
            elif e == number + 1 and j == 1:
                raise TraceFormatError(
                    f"record {index}: epoch must be an int, got {e!r}", record_index=index
                )
            else:
                raise TraceFormatError(
                    f"record {index}: expected epoch {number} step "
                    f"{len(current) + 1} or epoch {number + 1} step 1, "
                    f"got epoch {e} step {j}",
                    record_index=index,
                )
        if discrete:
            a = action
        else:
            a = action[0] if type(action) is list and len(action) == 1 else None
        if (
            type(state) is list
            and len(state) == 2
            and type(x := state[0]) is state_kind
            and type(y := state[1]) is state_kind
            and type(a) is action_kind
            and x0 <= x <= x1
            and y0 <= y <= y1
            and a0 <= a <= a1
        ):
            state = (x, y)
            if not discrete:
                action = (a,)
        else:
            state, state_inside = state_of(state, index)
            action, action_inside = action_of(action, index)
            if not state_inside:
                raise TraceFormatError(
                    f"record {index}: state {state!r} outside the environment",
                    record_index=index,
                )
            if not action_inside:
                raise TraceFormatError(
                    f"record {index}: action {action!r} outside the action space",
                    record_index=index,
                )
        if type(reward) is not float:
            if not (is_int(reward) or isinstance(reward, float)):
                raise TraceFormatError(
                    f"record {index}: reward must be a number", record_index=index
                )
            try:
                reward = float(reward)
            except OverflowError:
                raise TraceFormatError(
                    f"record {index}: reward too large for a float", record_index=index
                ) from None
        current.append(step(TraceStep, (state, action, reward)))
    if current:
        done.append(EpochTrace(tuple(current), number))
    while len(done) + 1 in aborted:
        done.append(EpochTrace((), len(done) + 1))
    return done


def _aborted_epochs(header: dict) -> tuple:
    """The header's aborted epochs: increasing epoch numbers from 1."""
    value = header.get("aborted_epochs", [])
    if not (
        isinstance(value, list)
        and all(type(e) is int and e >= 1 for e in value)
        and all(a < b for a, b in zip(value, value[1:]))
    ):
        raise TraceFormatError(
            "aborted_epochs must be a list of increasing epoch numbers from 1",
            record_index=1,
        )
    return tuple(value)


def _parse_record(line: str, index: int) -> dict:
    """The JSON object on ``line``, record ``index`` of a trace, with or
    without the line's newline.

    The line goes to :func:`json.loads` without its newline, so it gives
    the value, or the error and message, that ``json.loads`` gives:
    surrounding whitespace is allowed, while a BOM, extra data, bad JSON,
    an int too long to convert or nesting too deep is invalid JSON. A line
    read with ``surrogateescape`` that held bytes not in UTF-8 is refused.
    """
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00
            raise TraceFormatError(
                f"record {index}: invalid UTF-8 byte 0x{byte:02x}", record_index=index
            ) from None
    try:
        rec = json.loads(line.removesuffix("\n"))
    except (ValueError, RecursionError) as exc:
        # A JSONDecodeError, an int too long to convert, or nesting too deep.
        raise TraceFormatError(
            f"record {index}: invalid JSON: {getattr(exc, 'msg', exc)}", record_index=index
        ) from exc
    if not isinstance(rec, dict):
        raise TraceFormatError(
            f"record {index}: expected an object", record_index=index
        )
    return rec


# ---------------------------------------------------------------------------
# Run configuration files


def load_run_config(path, overrides=()) -> dict:
    """Parse a run config into env spec, agent config, oracle config,
    output directory and corpus variants.

    Returns a dict with keys env, agent, oracle, output_dir, variants: the
    agent carries the top-level ``bug``, and each variant is a ``(name,
    buggy, agent)`` whose agent carries the variant's bug instead, so a
    config with ``variants`` names no top-level bug. No two variants share
    a name. Each ``(section, field, value)`` in ``overrides`` is set on the
    file's env, agent or oracle section, or with section None on its top
    level, before it is parsed, so a file value it replaces is never
    checked. JSON syntax errors surface with their line number.
    """
    data = _load_json(path)
    if not isinstance(data, dict):
        raise TraceFormatError("run config must be a JSON object")
    _take(
        data, "env", "agent", "oracle", "bug", "output_dir", "variants",
        where="run config",
    )
    data = {"env": {"kind": "grid"}, "agent": {}, "oracle": {}, **data}
    for section, name, value in overrides:
        if section is None:
            data[name] = value
        else:
            data[section] = {**_object(data[section], section), name: value}
    bug, output_dir, variants = data.get("bug"), data.get("output_dir"), data.get("variants", [])
    _check(bug is None or isinstance(bug, str), "run", "bug must be a string", bug)
    _check(output_dir is None or isinstance(output_dir, str), "run",
           "output_dir must be a string", output_dir)
    _check(isinstance(variants, list), "run", "variants must be a list", variants)
    _check(bug is None or "variants" not in data, "run",
           "a config with variants names each bug in its variant, not as the top-level bug",
           bug)
    env = env_spec_from_dict(data["env"])
    agent = agent_config_from_dict(data["agent"])
    config = {
        "env": env,
        "agent": inject_bug(agent, bug),
        "oracle": config_from_dict(OracleConfig, data["oracle"], "oracle"),
        "output_dir": output_dir,
        "variants": [_variant(v, agent) for v in variants],
    }
    names = set()
    for name, _, _ in config["variants"]:
        _check(name not in names, "run", "variant names must be distinct", name)
        names.add(name)
    return config


def _variant(data, agent: AgentConfig) -> tuple:
    """``(name, buggy, agent with the variant's bug)`` of one corpus variant:
    an object of exactly a string ``name``, a boolean ``buggy`` and a
    ``bug`` that is a string or null."""
    keys = ("name", "buggy", "bug")
    _take(_object(data, "variant"), *keys, where="variant")
    if len(data) < len(keys):
        raise TraceFormatError("each variant needs the fields 'name', 'buggy' and 'bug'")
    name, buggy, bug = (data[k] for k in keys)
    _check(isinstance(name, str), "variant", "name must be a string", name)
    _check(type(buggy) is bool, f"variant {name!r}", "buggy must be true or false", buggy)
    _check(bug is None or isinstance(bug, str), f"variant {name!r}",
           "bug must be a string or null", bug)
    return name, buggy, inject_bug(agent, bug)


# ---------------------------------------------------------------------------
# Reports: every output file of a command is built here


def verdict_report(verdict: Verdict, env_spec, agent_config, oracle_config) -> dict:
    """report.json of ``test``."""
    return {
        "format": REPORT_FORMAT,
        "version": FORMAT_VERSION,
        "config": {**_configs(env_spec, agent_config, oracle_config), "bug": agent_config.bug},
        "verdict": {**_vote(verdict), "policy_count": len(verdict.per_policy)},
        "policies": [
            {"policy_id": o.policy_id, **_trend(o), "aborted_epochs": list(o.aborted_epochs)}
            for o in verdict.per_policy
        ],
    }


def series_lines(verdict: Verdict) -> str:
    """series.jsonl of ``test``."""
    return "".join(
        canonical_json({"policy_id": o.policy_id, "values": list(o.series.values)})
        for o in verdict.per_policy
    )


def analysis_report(trace_name: str, env_spec, config: OracleConfig, outcome) -> dict:
    """The analysis ``analyze`` writes of the trace file ``trace_name``:
    ``outcome``, the :class:`~fuzzoracle.oracle.PolicyOutcome` that
    :func:`~fuzzoracle.oracle.analyze_log` gave under ``config``."""
    values = outcome.series.values
    oracle = config_to_dict(config)
    params = ("theta_step", "filter_mode", "window", "epsilon", "delta")
    return {
        "format": ANALYSIS_FORMAT,
        "version": FORMAT_VERSION,
        "trace": trace_name,
        "policy_id": outcome.policy_id,
        "env": config_to_dict(env_spec),
        "params": {k: oracle[k] for k in params},
        "series": list(values),
        "series_display": [display(v) for v in values],
        "trend": _trend(outcome),
        "verdict": LABEL_NON_BUGGY if outcome.healthy else LABEL_BUGGY,
    }


def evaluation_report(variants, verdicts, env_spec, agent_config, oracle_config) -> dict:
    """evaluation.json of ``evaluate``: each ``(name, buggy, agent)`` variant
    with its verdict, and the detection quality of the votes at
    ``oracle_config.theta_oracle`` and over the ROC thresholds."""
    records = [
        ProgramRecord(v.true_count, len(v.per_policy), buggy, name=name)
        for (name, buggy, _), v in zip(variants, verdicts)
    ]
    matrix = confusion_at(records, oracle_config.theta_oracle)
    metrics = confusion_metrics(matrix)
    scores = {k: getattr(metrics, k) for k in ("accuracy", "precision", "recall", "f1")}
    return {
        "format": EVALUATION_FORMAT,
        "version": FORMAT_VERSION,
        "config": _configs(env_spec, agent_config, oracle_config),
        "programs": [
            {"name": name, "bug": agent.bug, "ground_truth_buggy": buggy, **_vote(v)}
            for (name, buggy, agent), v in zip(variants, verdicts)
        ],
        "confusion": {"tp": matrix.tp, "fp": matrix.fp, "tn": matrix.tn, "fn": matrix.fn},
        "metrics": {**scores, **{f"{k}_display": display(v) for k, v in scores.items()}},
        "roc": [
            {"theta": t, "fpr": f, "tpr": p}
            for t, f, p in roc_sweep(records, DEFAULT_ROC_THRESHOLDS)
        ],
    }


def meta_text(elapsed: float, workers, verdicts) -> str:
    """meta.json: the wall time, the workers, and each phase's cost summed
    over every (program, policy) task. Not canonical: it holds timings."""
    outcomes = [o for verdict in verdicts for o in verdict.per_policy]
    train_seconds = sum(o.train_seconds for o in outcomes)
    env_steps = sum(o.env_steps for o in outcomes)
    meta = {
        "elapsed_seconds": elapsed,
        "workers": workers,
        "train_seconds": train_seconds,
        "analyze_seconds": sum(o.analyze_seconds for o in outcomes),
        "env_steps": env_steps,
        "train_us_per_step": train_seconds / env_steps * 1e6 if env_steps else None,
    }
    return json.dumps(meta, indent=2) + "\n"


def _configs(env_spec, agent_config, oracle_config) -> dict:
    return {
        "env": config_to_dict(env_spec),
        "agent": config_to_dict(agent_config),
        "oracle": config_to_dict(oracle_config),
    }


def _vote(verdict: Verdict) -> dict:
    return {
        "label": verdict.label,
        "true_count": verdict.true_count,
        "ratio": verdict.ratio,
        "ratio_display": display(verdict.ratio),
    }


def _trend(outcome) -> dict:
    return {
        "healthy": outcome.healthy,
        "slope": outcome.trend.slope,
        "slope_display": display(outcome.trend.slope),
        "convergence_index": outcome.trend.convergence_index,
        "abnormality_found": outcome.trend.abnormality_found,
    }
