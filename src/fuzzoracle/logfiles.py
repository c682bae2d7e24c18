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
from dataclasses import fields, is_dataclass

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

    A config with a ``kind`` (an env spec, a space) also gives it. Tuples
    become lists, and the fields of a nested config (the oracle's trend
    parameters) are flattened into this one's.
    """
    data = {"kind": config.kind} if hasattr(config, "kind") else {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            data.update(config_to_dict(value))
        else:
            data[f.name] = _lists(value)
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
    constructor's own library errors pass through unchanged.
    """
    nested = {
        f.name: f.default_factory for f in fields(cls) if is_dataclass(f.default_factory)
    }
    flat = [f for c in (cls, *nested.values()) for f in fields(c) if f.name not in nested]
    allowed = [f.name for f in flat]
    kind_field = "kind" in allowed
    if hasattr(cls, "kind"):
        allowed.append("kind")
    _take(_object(data, where), *allowed, where=where)
    values = {k: _tuples(v) for k, v in data.items() if k != "kind" or kind_field}
    for f in flat:
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
        for name, sub in nested.items():
            own = [f.name for f in fields(sub) if f.name in values]
            values[name] = sub(**{k: values.pop(k) for k in own})
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
    ``value`` holds, and whether ``space`` contains it. The point is an int
    in a discrete space, two ints on a grid, a tuple of floats in a box.
    Bools are not numbers here, and a float is never truncated to a grid
    coordinate; anything else raises :class:`TraceFormatError` at record
    ``index``."""
    if isinstance(space, DiscreteSpace):
        n = space.n

        def point(value, index=None):
            if is_int(value):
                return value, 0 <= value < n
            raise _bad_point("discrete action must be an int", value, index)
    elif isinstance(space, GridSpace):
        rows, cols = space.rows, space.cols

        def point(value, index=None):
            if not isinstance(value, (list, tuple)):
                raise _bad_point("point must be a list", value, index)
            if len(value) == 2 and is_int(value[0]) and is_int(value[1]):
                r, c = value
                return (r, c), 0 <= r < rows and 0 <= c < cols
            raise _bad_point("grid coordinates must be two ints", value, index)
    else:
        bounds = tuple(zip(space.lows, space.highs))
        dim = len(bounds)

        def point(value, index=None):
            if type(value) is list and len(value) == dim:
                # Plain floats, as a trace holds them, in one pass.
                inside = True
                for k, v in enumerate(value):
                    lo, hi = bounds[k]
                    if type(v) is not float:
                        break
                    if not lo <= v <= hi:
                        inside = False
                else:
                    return tuple(value), inside
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
        policy = IntendedPolicy.build(entries, *spaces, *shapes)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
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
    so the reader can tell such an epoch from a missing one. Each record is
    formatted directly in canonical key order; a record holding a value that
    path cannot render as :func:`canonical_json` does (anything but a finite
    float or a plain int) is written by :func:`canonical_json` itself.
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
    state_text = _json_text(state_space)
    action_text = _json_text(action_space)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(header))
        for epoch in log.epochs:
            e = epoch.epoch_index
            lines = []
            for j, (state, action, reward) in enumerate(epoch.steps, start=1):
                try:
                    if type(e) is not int:
                        raise TypeError
                    line = (
                        f'{{"action":{action_text(action)},"epoch":{e},'
                        f'"reward":{_float_text(reward)},'
                        f'"state":{state_text(state)},"step":{j}}}\n'
                    )
                except (TypeError, ValueError):
                    line = canonical_json(
                        {
                            "epoch": e,
                            "step": j,
                            "state": _point_to_json(state, state_space),
                            "action": _point_to_json(action, action_space),
                            "reward": reward,
                        }
                    )
                lines.append(line)
            fh.write("".join(lines))


def _float_text(x) -> str:
    """JSON text of a finite float, as ``json`` writes it (``float.__repr__``,
    which numpy floats share); TypeError or ValueError for anything else."""
    text = float.__repr__(x)
    if "n" in text:  # nan, inf
        raise ValueError(text)
    return text


def _floats_text(point) -> str:
    """JSON text of a sequence of finite floats, as :func:`_float_text`."""
    text = ",".join(map(float.__repr__, point))
    if "n" in text:
        raise ValueError(text)
    return f"[{text}]"


def _ints_text(point) -> str:
    """JSON text of a sequence of ints that are no bools, as ``json``
    writes it; TypeError for anything else."""
    if bool in map(type, point):
        raise TypeError("bool")
    return f"[{','.join(map(int.__repr__, point))}]"


def _int_text(x) -> str:
    """JSON text of an int of exactly type int; TypeError for anything else."""
    if type(x) is not int:
        raise TypeError(type(x).__name__)
    return int.__repr__(x)


def _json_text(space):
    """Formatter of the points of ``space`` for :func:`write_trace`."""
    if isinstance(space, DiscreteSpace):
        return _int_text
    return _ints_text if isinstance(space, GridSpace) else _floats_text


def read_trace(path):
    """Parse a trace file into (RunLog, env spec).

    Epochs must be contiguous from 1 and steps contiguous from 1 within
    each epoch; violations report the offending record index. An epoch
    without records is accepted only when the header lists it among the
    aborted epochs; it is read back as an epoch with no steps.

    The file is read one line at a time, and each line is parsed on its own
    (:func:`_parse_record`) and checked by the one record reader
    (:func:`_record_reader`). A line ends only at a newline; text mode
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
        declared_epochs = header.get("epochs")
        aborted = _aborted_epochs(header)

        grouped = _Epochs(frozenset(aborted))
        read = _record_reader(env_spec.state_space(), env_spec.action_space())
        for index, line in enumerate(fh, start=2):
            read(_parse_record(line, index), index, grouped)
    epochs = grouped.close()

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


class _Epochs:
    """Trace records grouped into epochs, checked to be contiguous."""

    def __init__(self, aborted: frozenset):
        self.aborted = aborted
        self.done: list = []
        self.current: list = []  # steps of epoch ``number``
        self.number = 0

    def open(self, e, j, index: int) -> None:
        """Check that record ``index``, step ``j`` of epoch ``e``, may come
        next, and start its epoch when it is the epoch's first step."""
        skipped = range(self.number + 1, e) if type(e) is int and j == 1 else ()
        if skipped and all(k in self.aborted for k in skipped):
            # The epochs before this one aborted on their first action.
            self._finish()
            self.done.extend(EpochTrace((), k) for k in skipped)
            self.number = e - 1
        if e == self.number + 1 and j == 1:
            if not is_int(e):
                raise TraceFormatError(
                    f"record {index}: epoch must be an int, got {e!r}", record_index=index
                )
            self._finish()
            self.number = e
        elif e != self.number or j != len(self.current) + 1:
            raise TraceFormatError(
                f"record {index}: expected epoch {self.number} step "
                f"{len(self.current) + 1} or epoch {self.number + 1} step 1, "
                f"got epoch {e} step {j}",
                record_index=index,
            )

    def _finish(self) -> None:
        if self.current:
            self.done.append(EpochTrace(tuple(self.current), self.number))
            self.current = []

    def close(self) -> list:
        """All epochs, with trailing aborted epochs that wrote no record."""
        self._finish()
        while len(self.done) + 1 in self.aborted:
            self.done.append(EpochTrace((), len(self.done) + 1))
        return self.done


_FIELDS = ("epoch", "step", "state", "action", "reward")


def _record_reader(state_space, action_space):
    """Callable ``(rec, index, epochs)`` that checks the trace record ``rec``,
    an object as :func:`_parse_record` gives it, and adds its step to
    ``epochs``; any fault raises :class:`TraceFormatError` at record
    ``index``.

    The checks run in this order: the five fields are present, the record
    may come next in its epoch, the state and then the action are points of
    their spaces (:func:`_point_reader`), the state and then the action lie
    inside them, and the reward is a number. An int reward becomes a float;
    other fields are ignored.
    """
    state_of, action_of = _point_reader(state_space), _point_reader(action_space)

    def read(rec, index: int, epochs: _Epochs) -> None:
        try:
            e, j, state, action, reward = (
                rec["epoch"], rec["step"], rec["state"], rec["action"], rec["reward"]
            )
        except KeyError:
            missing = ", ".join(f for f in sorted(_FIELDS) if f not in rec)
            raise TraceFormatError(
                f"record {index} missing fields: {missing}", record_index=index
            ) from None
        if e != epochs.number or j != len(epochs.current) + 1:
            epochs.open(e, j, index)
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
        epochs.current.append(TraceStep(state, action, reward))

    return read


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


_scan_json = json.JSONDecoder().scan_once


def _parse_record(line: str, index: int) -> dict:
    """The JSON object on ``line``, record ``index`` of a trace, with or
    without the line's newline.

    The JSON decoder's own scanner parses a record that is one object from
    the line's first character to its end, as every canonical record is.
    Any other line goes to :func:`json.loads` (without its newline), so it
    gives the value, or the error and message, that ``json.loads`` gives:
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
        rec, end = _scan_json(line, 0)
        if type(rec) is dict and line[end:] in ("", "\n"):
            return rec
    except (StopIteration, ValueError, RecursionError):
        pass
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
    config with ``variants`` names no top-level bug. Each
    ``(section, field, value)`` in ``overrides`` is set on the file's env,
    agent or oracle section, or with section None on its top level, before
    it is parsed, so a file value it replaces is never checked. JSON syntax
    errors surface with their line number.
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
    return {
        "env": env,
        "agent": inject_bug(agent, bug),
        "oracle": config_from_dict(OracleConfig, data["oracle"], "oracle"),
        "output_dir": output_dir,
        "variants": [_variant(v, agent) for v in variants],
    }


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
