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
from dataclasses import asdict

from .agents import AgentConfig
from .compliance import EpochTrace, RunLog, TraceStep
from .envs import GridSpec, HillCarSpec
from .errors import TraceFormatError
from .membership import MembershipShape
from .oracle import OracleConfig, Verdict
from .policy import IntendedPolicy
from .spaces import BoxSpace, DiscreteSpace, GridSpace
from .trend import TrendParams

TRACE_FORMAT = "fuzzoracle-trace"
POLICY_FORMAT = "fuzzoracle-policy"
REPORT_FORMAT = "fuzzoracle-report"
EVALUATION_FORMAT = "fuzzoracle-evaluation"
FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    """One canonical JSON line, newline-terminated."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def display(x: float | None) -> str | None:
    """3-significant-digit view for humans; full precision lives elsewhere."""
    return None if x is None else format(x, ".3g")


# ---------------------------------------------------------------------------
# Environment specs


def env_spec_to_dict(spec) -> dict:
    if spec.kind == "grid":
        return {
            "kind": "grid",
            "rows": spec.rows,
            "cols": spec.cols,
            "holes": [list(h) for h in spec.holes],
            "goal": list(spec.goal),
            "slip_prob": spec.slip_prob,
            "max_steps_per_epoch": spec.max_steps_per_epoch,
        }
    return {
        "kind": "hillcar",
        "min_position": spec.min_position,
        "max_position": spec.max_position,
        "max_speed": spec.max_speed,
        "force": spec.force,
        "gravity": spec.gravity,
        "goal_position": spec.goal_position,
        "max_steps_per_epoch": spec.max_steps_per_epoch,
    }


def env_spec_from_dict(data: dict):
    kind = data.get("kind")
    if kind == "grid":
        fields = _take(
            data, "kind", "rows", "cols", "holes", "goal", "slip_prob",
            "max_steps_per_epoch", where="env",
        )
        defaults = GridSpec()
        return GridSpec(
            rows=fields.get("rows", defaults.rows),
            cols=fields.get("cols", defaults.cols),
            holes=tuple(tuple(h) for h in fields.get("holes", defaults.holes)),
            goal=tuple(fields.get("goal", defaults.goal)),
            slip_prob=fields.get("slip_prob", defaults.slip_prob),
            max_steps_per_epoch=fields.get(
                "max_steps_per_epoch", defaults.max_steps_per_epoch
            ),
        )
    if kind == "hillcar":
        fields = _take(
            data, "kind", "min_position", "max_position", "max_speed", "force",
            "gravity", "goal_position", "max_steps_per_epoch", where="env",
        )
        defaults = HillCarSpec()
        return HillCarSpec(
            min_position=fields.get("min_position", defaults.min_position),
            max_position=fields.get("max_position", defaults.max_position),
            max_speed=fields.get("max_speed", defaults.max_speed),
            force=fields.get("force", defaults.force),
            gravity=fields.get("gravity", defaults.gravity),
            goal_position=fields.get("goal_position", defaults.goal_position),
            max_steps_per_epoch=fields.get("max_steps_per_epoch", defaults.max_steps_per_epoch),
        )
    raise TraceFormatError(f"env kind must be 'grid' or 'hillcar', got {kind!r}")


def _take(data: dict, *allowed, where: str) -> dict:
    unknown = set(data) - set(allowed)
    if unknown:
        raise TraceFormatError(
            f"unknown {where} fields: {', '.join(sorted(unknown))}"
        )
    return data


# ---------------------------------------------------------------------------
# Agent and oracle configs


def agent_config_to_dict(config: AgentConfig) -> dict:
    return asdict(config)


def agent_config_from_dict(data: dict) -> AgentConfig:
    defaults = AgentConfig()
    fields = _take(data, *defaults.__dataclass_fields__, where="agent")
    try:
        return AgentConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"bad agent config: {exc}") from exc


def oracle_config_to_dict(config: OracleConfig) -> dict:
    return {
        "policies": config.policies,
        "epochs": config.epochs,
        "theta_oracle": config.theta_oracle,
        "window": config.trend.window,
        "epsilon": config.trend.epsilon,
        "delta": config.trend.delta,
        "theta_step": config.theta_step,
        "policy_size": config.policy_size,
        "master_seed": config.master_seed,
        "reward_scale": config.reward_scale,
        "reward_mode": config.reward_mode,
        "filter_mode": config.filter_mode,
    }


def oracle_config_from_dict(data: dict) -> OracleConfig:
    defaults = OracleConfig()
    fields = _take(
        data, "policies", "epochs", "theta_oracle", "window", "epsilon", "delta",
        "theta_step", "policy_size", "master_seed", "reward_scale", "reward_mode",
        "filter_mode", where="oracle",
    )
    trend = TrendParams(
        window=fields.get("window", defaults.trend.window),
        epsilon=fields.get("epsilon", defaults.trend.epsilon),
        delta=fields.get("delta", defaults.trend.delta),
    )
    try:
        return OracleConfig(
            policies=fields.get("policies", defaults.policies),
            epochs=fields.get("epochs", defaults.epochs),
            theta_oracle=fields.get("theta_oracle", defaults.theta_oracle),
            trend=trend,
            theta_step=fields.get("theta_step", defaults.theta_step),
            policy_size=fields.get("policy_size", defaults.policy_size),
            master_seed=fields.get("master_seed", defaults.master_seed),
            reward_scale=fields.get("reward_scale", defaults.reward_scale),
            reward_mode=fields.get("reward_mode", defaults.reward_mode),
            filter_mode=fields.get("filter_mode", defaults.filter_mode),
        )
    except ValueError as exc:
        raise TraceFormatError(f"bad oracle config: {exc}") from exc


# ---------------------------------------------------------------------------
# Intended policies


def _space_to_dict(space) -> dict:
    if isinstance(space, GridSpace):
        return {"kind": "grid", "rows": space.rows, "cols": space.cols}
    if isinstance(space, DiscreteSpace):
        return {"kind": "discrete", "n": space.n}
    return {"kind": "box", "lows": list(space.lows), "highs": list(space.highs)}


def _space_from_dict(data: dict):
    kind = data.get("kind")
    if kind == "grid":
        return GridSpace(data["rows"], data["cols"])
    if kind == "discrete":
        return DiscreteSpace(data["n"])
    if kind == "box":
        return BoxSpace(tuple(data["lows"]), tuple(data["highs"]))
    raise TraceFormatError(f"unknown space kind {kind!r}")


def _shape_to_dict(shape: MembershipShape) -> dict:
    return {"kind": shape.kind, "width": shape.width}


def _point_to_json(point, space):
    if isinstance(space, DiscreteSpace):
        return point
    return list(point)


def _point_from_json(value, space, index=None):
    """The point of ``space`` that ``value`` holds: an int in a discrete
    space, two ints on a grid, a list of numbers in a box. Bools are not
    numbers here, and a float is never truncated to a grid coordinate;
    anything else raises :class:`TraceFormatError` at record ``index``."""
    if isinstance(space, DiscreteSpace):
        if _is_int(value):
            return value
        problem = "discrete action must be an int"
    elif not isinstance(value, (list, tuple)):
        problem = "point must be a list"
    elif isinstance(space, GridSpace):
        if len(value) == 2 and all(_is_int(v) for v in value):
            return tuple(value)
        problem = "grid coordinates must be two ints"
    else:
        if all(_is_int(v) or isinstance(v, float) for v in value):
            return tuple(float(v) for v in value)
        problem = "box coordinates must be numbers"
    prefix = "" if index is None else f"record {index}: "
    raise TraceFormatError(f"{prefix}{problem}, got {value!r}", record_index=index)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def policy_to_dict(policy: IntendedPolicy) -> dict:
    return {
        "format": POLICY_FORMAT,
        "version": FORMAT_VERSION,
        "state_space": _space_to_dict(policy.state_space),
        "action_space": _space_to_dict(policy.action_space),
        "entries": [
            {
                "state": _point_to_json(s, policy.state_space),
                "action": _point_to_json(a, policy.action_space),
            }
            for s, a in policy.entries
        ],
        "state_shape": _shape_to_dict(policy.state_shape),
        "action_shape": _shape_to_dict(policy.action_shape),
        "min_ref_distance": policy.min_ref_distance,
    }


def policy_from_dict(data: dict) -> IntendedPolicy:
    if data.get("format") != POLICY_FORMAT:
        raise TraceFormatError(f"not a policy file: format {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported policy version {data.get('version')!r}")
    state_space = _space_from_dict(data["state_space"])
    action_space = _space_from_dict(data["action_space"])
    try:
        entries = [
            (
                _point_from_json(e["state"], state_space),
                _point_from_json(e["action"], action_space),
            )
            for e in data["entries"]
        ]
        state_shape = MembershipShape(**data["state_shape"])
        action_shape = MembershipShape(**data["action_shape"])
        policy = IntendedPolicy.build(
            entries, state_space, action_space, state_shape, action_shape
        )
    except (KeyError, TypeError, ValueError) as exc:
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
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return policy_from_dict(data)


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
        "env": env_spec_to_dict(env_spec),
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


# Records parsed per ``json.loads`` call by :func:`read_trace`.
_CHUNK = 1000


def read_trace(path):
    """Parse a trace file into (RunLog, env spec).

    Epochs must be contiguous from 1 and steps contiguous from 1 within
    each epoch; violations report the offending record index. An epoch
    without records is accepted only when the header lists it among the
    aborted epochs; it is read back as an epoch with no steps.

    Records are parsed in chunks of :data:`_CHUNK` lines, one JSON array
    per chunk (see :func:`_parse_chunk`). A chunk holding any record the
    fast checks do not accept is read again record by record
    (:func:`_read_record`), which gives every record the same value or the
    same error, at the same record index, as reading it alone.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TraceFormatError("trace file is empty", record_index=0)

    header = _parse_record(lines[0], 1)
    if header.get("format") != TRACE_FORMAT:
        raise TraceFormatError(
            f"not a trace file: format {header.get('format')!r}", record_index=1
        )
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {header.get('version')!r}", record_index=1
        )
    env_spec = env_spec_from_dict(header["env"])
    declared_epochs = header.get("epochs")
    aborted = _aborted_epochs(header)
    state_space = env_spec.state_space()
    action_space = env_spec.action_space()

    grouped = _Epochs(frozenset(aborted))
    fast_step = _fast_step(state_space, action_space)
    for first in range(1, len(lines), _CHUNK):
        chunk = lines[first:first + _CHUNK]
        parsed = _parse_chunk(chunk, fast_step)
        if parsed is None:
            for index, line in enumerate(chunk, start=first + 1):
                _read_record(line, index, grouped, state_space, action_space)
            continue
        for index, (e, j, step) in enumerate(parsed, start=first + 1):
            if e != grouped.number or j != len(grouped.current) + 1:
                grouped.open(e, j, index)
            grouped.current.append(step)
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


def _read_record(line: str, index: int, epochs: _Epochs, state_space, action_space) -> None:
    """Parse and check one record on its own and add its step to ``epochs``."""
    rec = _parse_record(line, index)
    missing = {"epoch", "step", "state", "action", "reward"} - set(rec)
    if missing:
        raise TraceFormatError(
            f"record {index} missing fields: {', '.join(sorted(missing))}",
            record_index=index,
        )
    epochs.open(rec["epoch"], rec["step"], index)
    state = _point_from_json(rec["state"], state_space, index)
    action = _point_from_json(rec["action"], action_space, index)
    if not state_space.contains(state):
        raise TraceFormatError(
            f"record {index}: state {state!r} outside the environment",
            record_index=index,
        )
    if not action_space.contains(action):
        raise TraceFormatError(
            f"record {index}: action {action!r} outside the action space",
            record_index=index,
        )
    reward = rec["reward"]
    if not isinstance(reward, (int, float)) or isinstance(reward, bool):
        raise TraceFormatError(
            f"record {index}: reward must be a number", record_index=index
        )
    epochs.current.append(TraceStep(state, action, float(reward)))


def _parse_chunk(lines: list, fast_step) -> list | None:
    """``fast_step`` of every line, parsed as one JSON array, or None when
    some line has to be read on its own.

    The lines are joined with a newline and a comma; a newline appears
    nowhere else. The array is taken only when every line starts with
    ``{`` and ends with ``}``, it has one element per line, ``fast_step``
    accepts every element, and the chunk holds 10 quote characters per
    line. ``fast_step`` accepts records with the five fields, each a number
    or a list of numbers, so each element holds at least its 10 quotes, and
    with 10 per line no element holds any other string: no duplicate key
    hides anything and no field holds an object. An element spanning lines
    would hold a separator between ``}`` and ``{``: at its top level a key
    would have to start with ``{``, and inside a field the field would hold
    an object. So every element is exactly its own line.
    """
    text = "[" + "\n,".join(lines) + "]"
    if (
        text[1] != "{" or text[-2] != "}"
        or text.count("}\n,{") != len(lines) - 1
        or text.count('"') != 10 * len(lines)
    ):
        return None
    try:
        records = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if len(records) != len(lines):
        return None
    steps = []
    for rec in records:
        step = fast_step(rec)
        if step is None:
            return None
        steps.append(step)
    return steps


def _fast_step(state_space, action_space):
    """Callable of a parsed record giving (epoch, step, TraceStep) when the
    record has the five fields with int epoch and step numbers, a float
    reward and points of plain values inside their spaces, which
    :func:`_read_record` takes unchanged; None for any other record."""
    state_of = _fast_point(state_space)
    action_of = _fast_point(action_space)

    def fast_step(rec):
        if type(rec) is not dict:
            return None
        try:
            e, j, reward = rec["epoch"], rec["step"], rec["reward"]
            state, action = state_of(rec["state"]), action_of(rec["action"])
        except KeyError:
            return None
        if (
            type(e) is not int or type(j) is not int or type(reward) is not float
            or state is None or action is None
        ):
            return None
        return e, j, TraceStep(state, action, reward)

    return fast_step


def _fast_point(space):
    """Callable of a parsed point giving the point when it is inside
    ``space`` as plain values (ints on a grid or a discrete space, floats in
    a box), None otherwise."""
    if isinstance(space, DiscreteSpace):
        n = space.n
        return lambda value: value if type(value) is int and 0 <= value < n else None
    if isinstance(space, GridSpace):
        kind, bounds = int, ((0, space.rows - 1), (0, space.cols - 1))
    else:
        kind, bounds = float, tuple(zip(space.lows, space.highs))
    dim = len(bounds)

    def point(value):
        if type(value) is not list or len(value) != dim:
            return None
        for k, x in enumerate(value):
            lo, hi = bounds[k]
            if type(x) is not kind or not lo <= x <= hi:
                return None
        return tuple(value)

    return point


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
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            f"record {index}: invalid JSON: {exc.msg}", record_index=index
        ) from exc
    if not isinstance(rec, dict):
        raise TraceFormatError(
            f"record {index}: expected an object", record_index=index
        )
    return rec


# ---------------------------------------------------------------------------
# Run configuration files


def load_run_config(path) -> dict:
    """Parse a run config into env spec, agent config, oracle config, bug.

    Returns a dict with keys env, agent, oracle, bug, output_dir. JSON
    syntax errors surface with their line number.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise TraceFormatError("run config must be a JSON object")
    _take(
        data, "env", "agent", "oracle", "bug", "output_dir", "variants",
        where="run config",
    )
    env = env_spec_from_dict(data.get("env", {"kind": "grid"}))
    agent = agent_config_from_dict(data.get("agent", {}))
    oracle = oracle_config_from_dict(data.get("oracle", {}))
    return {
        "env": env,
        "agent": agent,
        "oracle": oracle,
        "bug": data.get("bug"),
        "output_dir": data.get("output_dir"),
        "variants": data.get("variants"),
    }


# ---------------------------------------------------------------------------
# Reports


def verdict_report(
    verdict: Verdict, env_spec, agent_config, oracle_config, bug
) -> dict:
    return {
        "format": REPORT_FORMAT,
        "version": FORMAT_VERSION,
        "config": {
            "env": env_spec_to_dict(env_spec),
            "agent": agent_config_to_dict(agent_config),
            "oracle": oracle_config_to_dict(oracle_config),
            "bug": bug,
        },
        "verdict": {
            "label": verdict.label,
            "true_count": verdict.true_count,
            "policy_count": len(verdict.per_policy),
            "ratio": verdict.ratio,
            "ratio_display": display(verdict.ratio),
        },
        "policies": [
            {
                "policy_id": o.policy_id,
                "healthy": o.healthy,
                "slope": o.trend.slope,
                "slope_display": display(o.trend.slope),
                "convergence_index": o.trend.convergence_index,
                "abnormality_found": o.trend.abnormality_found,
                "aborted_epochs": list(o.aborted_epochs),
            }
            for o in verdict.per_policy
        ],
    }


def series_lines(verdict: Verdict) -> str:
    return "".join(
        canonical_json({"policy_id": o.policy_id, "values": list(o.series.values)})
        for o in verdict.per_policy
    )
