"""The three benchmark workloads and the checks on their outputs.

Each workload prepares its inputs from the benchmark seed (``setup``), runs
whole rounds of the same CLI calls in-process (``run_round``), and checks
what every round wrote (``check_round``). A round is what a user runs to
get verdicts: one ``evaluate`` over the grid corpus, one ``test`` of the
hill-car learner, or writing and analysing a batch of traces.

* ``grid-corpus``: short epochs over repeating grid states, so the reward
  cache hits and per-call overhead plus the per-variant process pools
  dominate. The only workload that uses the pool.
* ``hillcar-verdict``: continuous, never-repeating states, so the reward
  cache never hits and the actor-critic feature maps dominate; one process.
* ``trace-analyze``: trace write, trace read and series scoring of
  synthesised hill-car traces; no training and no pool.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import time
from dataclasses import dataclass, field
from multiprocessing import Value
from pathlib import Path

import numpy as np

import checker
from fuzzoracle import cli, logfiles, oracle
from fuzzoracle.compliance import EpochTrace, RunLog, TraceStep
from fuzzoracle.envs import GridSpec, HillCarSpec, env_reset, env_step

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
FIXTURE_TRACE = ROOT / "tests" / "data" / "hand3epoch.trace.jsonl"
FIXTURE_POLICY = ROOT / "tests" / "data" / "hand3epoch.policy.json"

# hill-car-verdict: epochs per intended policy (the shipped config has 700).
HILLCAR_EPOCHS = 30
# trace-analyze: traces per round and epochs per trace (up to 200 steps each).
TRACES = 6
TRACE_EPOCHS = 80
# Compliance series of the defect-A probe: its exact slope is 0, the
# program's float slope is about -2e-18.
PROBE_SERIES = (0, 0, 0, 1, 0, 0, 0)


@dataclass
class Tally:
    """Operations attempted and failed, and every wrong output seen."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


@dataclass
class Round:
    wall_s: float
    cpu_s: float  # this process and its reaped children
    child_cpu_s: float  # reaped children (pool workers) alone
    steps: int  # env steps trained or trace records analysed
    calls: list  # wall seconds of each analyze call on synthesised traces
    outputs: dict  # file name -> bytes


def run_cli(argv, allowed=(0, 1)) -> int:
    """Run one fuzzoracle command in-process with its console output muted."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main([str(a) for a in argv])
    if code not in allowed:
        raise RuntimeError(f"fuzzoracle {argv[0]} exited {code}: {sink.getvalue()}")
    return code


def check_policy(tally, where, values, trend, params, wholly_aborted) -> bool | None:
    """Compare the program's trend verdict on ``values`` with the checker's.

    Returns the checker's health, or None when the exact slope sign
    disagrees with the program's, which fails the operation (defect A).
    """
    tally.expect(all(0.0 <= v <= 1.0 for v in values), f"{where}: series value outside [0, 1]")
    h = checker.health(values, params["window"], params["epsilon"], params["delta"])
    if checker.float_sign(trend["slope"]) != h.slope_sign:
        tally.fail(
            f"{where}: slope {trend['slope']!r} but exact sign {h.slope_sign}: {checker.DEFECT_A}"
        )
        return None
    tally.expect(trend["convergence_index"] == h.convergence_index, f"{where}: convergence index")
    tally.expect(trend["abnormality_found"] == h.abnormality_found, f"{where}: abnormality flag")
    tally.expect(trend["healthy"] == (h.healthy and not wholly_aborted), f"{where}: health")
    return h.healthy and not wholly_aborted


class StepCounter:
    """Env steps trained, counted once per policy from the run log the
    oracle analyses. The count lives in shared memory so forked pool
    workers add to it too."""

    def __init__(self):
        self.value = Value("q", 0)
        original = oracle.analyze_log

        def counting(policy, log, config):
            steps = sum(len(epoch.steps) for epoch in log.epochs)
            with self.value.get_lock():
                self.value.value += steps
            return original(policy, log, config)

        self.targets = [(oracle, "analyze_log", counting)]


class PoolCounter:
    """Process pools the oracle starts, counted at its pool constructor."""

    def __init__(self):
        self.started = 0
        original = oracle.ProcessPoolExecutor

        def counting(*args, **kwargs):
            self.started += 1
            return original(*args, **kwargs)

        self.targets = [(oracle, "ProcessPoolExecutor", counting)]


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.targets = []  # (owner, attribute, wrapper) patched for the whole run

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, rdir: Path, workers: int | None = None) -> Round:
        raise NotImplementedError

    def check_round(self, rnd: Round, tally: Tally) -> None:
        raise NotImplementedError

    def check_capture(self, capture, rnd: Round, tally: Tally) -> None:
        """Checks that need the run logs captured in the traced round."""

    def check_files(self, rdir: Path, tally: Tally) -> None:
        """Checks on the files a round left in ``rdir``."""

    def bytes_written(self, rdir: Path) -> tuple[int, int]:
        """(bytes, records) of the traces a round wrote in ``rdir``."""
        return 0, 0


def timed(body) -> tuple:
    """(wall, CPU of this process and its reaped children, CPU of the
    children alone), in seconds, of ``body()``."""

    def cpu():
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime

    (own0, kids0), t0 = cpu(), time.perf_counter()
    body()
    wall = time.perf_counter() - t0
    own1, kids1 = cpu()
    return wall, own1 - own0 + kids1 - kids0, kids1 - kids0


def _read_outputs(rdir: Path, names) -> dict:
    return {n: (rdir / n).read_bytes() for n in names}


class GridCorpus(Workload):
    """``fuzzoracle evaluate`` on the 12-variant grid corpus, 2 workers."""

    name = "grid-corpus"
    config = CONFIGS / "corpus_grid12.json"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.steps = StepCounter()
        self.pools = PoolCounter()
        self.targets = self.steps.targets + self.pools.targets

    def setup(self):
        data = json.loads(self.config.read_text())
        self.variants = [(v["name"], bool(v["buggy"])) for v in data["variants"]]
        self.policies = data["oracle"]["policies"]
        self.theta = data["oracle"]["theta_oracle"]
        self.ops_per_round = len(self.variants)

    def run_round(self, rdir, workers=2):
        before = self.steps.value.value
        argv = ["evaluate", "--config", self.config, "--workers", workers,
                "--seed", self.seed, "--output", rdir]
        wall, cpu, kids = timed(lambda: run_cli(argv, allowed=(0,)))
        return Round(wall, cpu, kids, self.steps.value.value - before, [wall],
                     _read_outputs(rdir, ["evaluation.json"]))

    def check_round(self, rnd, tally):
        report = json.loads(rnd.outputs["evaluation.json"])
        programs = report["programs"]
        tally.attempted += len(self.variants)
        tally.expect(
            [(p["name"], p["ground_truth_buggy"]) for p in programs] == self.variants,
            "evaluation.json programs differ from the corpus config",
        )
        for p in programs:
            label = checker.label(p["true_count"], self.policies, self.theta)
            tally.expect(p["label"] == label, f"{p['name']}: {p['label']} at {p['true_count']}/{self.policies}")
            tally.expect(p["ratio"] == p["true_count"] / self.policies, f"{p['name']}: ratio")
        expected = checker.confusion([p["label"] for p in programs], [b for _, b in self.variants])
        tally.expect(report["confusion"] == expected, f"confusion {report['confusion']} != {expected}")

    def check_capture(self, capture, rnd, tally):
        """Each variant's vote re-derived from its re-scored policies."""
        programs = json.loads(rnd.outputs["evaluation.json"])["programs"]
        tally.expect(len(capture.groups) == len(programs), "one oracle run per variant")
        for p, group in zip(programs, capture.groups):
            if any(h is None for h in group):
                tally.fail(f"{p['name']}: a policy verdict rests on a rounded slope sign")
                continue
            count = sum(group)
            label = checker.label(count, len(group), self.theta)
            tally.expect((p["true_count"], p["label"]) == (count, label),
                         f"{p['name']}: program {p['true_count']} {p['label']}, checker {count} {label}")


class HillcarVerdict(Workload):
    """``fuzzoracle test`` with the shipped hill-car settings, one process."""

    name = "hillcar-verdict"
    config = CONFIGS / "hillcar_clean.json"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.steps = StepCounter()
        self.targets = self.steps.targets

    def setup(self):
        data = json.loads(self.config.read_text())
        self.theta = data["oracle"]["theta_oracle"]
        self.ops_per_round = data["oracle"]["policies"]

    def run_round(self, rdir, workers=None):
        before = self.steps.value.value
        argv = ["test", "--config", self.config, "--epochs", HILLCAR_EPOCHS,
                "--workers", 1, "--seed", self.seed, "--output", rdir]
        wall, cpu, kids = timed(lambda: run_cli(argv))
        return Round(wall, cpu, kids, self.steps.value.value - before, [wall],
                     _read_outputs(rdir, ["report.json", "series.jsonl"]))

    def check_round(self, rnd, tally):
        report = json.loads(rnd.outputs["report.json"])
        series = [json.loads(line) for line in rnd.outputs["series.jsonl"].splitlines()]
        params = report["config"]["oracle"]
        tally.attempted += len(report["policies"])
        tally.expect(len(series) == len(report["policies"]) == self.ops_per_round, "policy count")
        flags = []
        for p, s in zip(report["policies"], series):
            where = f"policy {p['policy_id']}"
            tally.expect(s["policy_id"] == p["policy_id"], f"{where}: series order")
            tally.expect(len(s["values"]) == HILLCAR_EPOCHS, f"{where}: one value per epoch")
            flags.append(check_policy(
                tally, where, s["values"], p, params,
                len(p["aborted_epochs"]) == HILLCAR_EPOCHS,
            ))
        if None not in flags:
            count = sum(flags)
            label = checker.label(count, len(flags), self.theta)
            verdict = report["verdict"]
            tally.expect((verdict["true_count"], verdict["label"]) == (count, label),
                         f"vote: program {verdict['true_count']} {verdict['label']}, checker {count} {label}")
            tally.expect(verdict["ratio"] == count / len(flags), "vote ratio")

    def check_capture(self, capture, rnd, tally):
        series = [json.loads(line)["values"] for line in rnd.outputs["series.jsonl"].splitlines()]
        tally.expect(len(capture.groups) == 1, "one oracle run")
        tally.expect(capture.rescored == series, "series.jsonl differs from the re-scored run logs")


class TraceAnalyze(Workload):
    """``write_trace`` then ``fuzzoracle analyze`` on synthesised hill-car
    traces, plus the hand-worked fixture and the defect-A probe."""

    name = "trace-analyze"

    def setup(self):
        spec = HillCarSpec()
        self.policies = oracle.generate_policies(spec, TRACES, 3, (self.seed, 1))
        self.logs = [self._rollouts(spec, p, k) for k, p in enumerate(self.policies)]
        self.spec = spec
        self.policy_files = []
        for k, policy in enumerate(self.policies, start=1):
            path = self.work / f"p{k}.policy.json"
            logfiles.save_policy(path, policy)
            self.policy_files.append(path)
        self.probe = RunLog(1, tuple(
            EpochTrace((TraceStep((0, 0), 2, 1.0) if v else TraceStep((0, 3), 1, 0.0),), e)
            for e, v in enumerate(PROBE_SERIES, start=1)
        ))
        self.fixture_policy = checker.policy_from_file_dict(json.loads(FIXTURE_POLICY.read_text()))
        self.fixture_epochs = _parse_trace_records(FIXTURE_TRACE.read_text())
        self.ops_per_round = TRACES + 2

    def _rollouts(self, spec, policy, k) -> RunLog:
        """Epochs of seeded random forces. With a probability that rises over
        the epochs on even traces and falls on odd ones, the car takes the
        ideal action of its nearest reference state instead, so compliance
        trends up or down."""
        ref = checker.policy_from_object(policy)
        rng = np.random.default_rng([self.seed, 2, k])
        epochs = []
        for e in range(TRACE_EPOCHS):
            share = 0.9 * e / (TRACE_EPOCHS - 1)
            follow = share if k % 2 == 0 else 0.9 - share
            state = env_reset(spec, rng)
            steps = []
            for _ in range(spec.max_steps_per_epoch):
                if rng.random() < follow:
                    action = ref.ideals[checker.nearest(ref, state)[0]]
                else:
                    action = (float(rng.uniform(-1.0, 1.0)),)
                tr = env_step(spec, state, action, None, rng)
                steps.append(TraceStep(state, action, tr.reward))
                if tr.done:
                    break
                state = tr.next_state
            epochs.append(EpochTrace(tuple(steps), e + 1))
        return RunLog(k + 1, tuple(epochs))

    def run_round(self, rdir, workers=None):
        calls = []

        def body():
            for k, (policy_file, log) in enumerate(zip(self.policy_files, self.logs), start=1):
                logfiles.write_trace(rdir / f"p{k}.trace.jsonl", log, self.spec)
                t0 = time.perf_counter()
                run_cli(["analyze", "--trace", rdir / f"p{k}.trace.jsonl",
                         "--policy", policy_file, "--output", rdir / f"p{k}.json"])
                calls.append(time.perf_counter() - t0)
            run_cli(["analyze", "--trace", FIXTURE_TRACE, "--policy", FIXTURE_POLICY,
                     "--theta-step", 0.5, "--window", 2, "--output", rdir / "hand.json"])
            logfiles.write_trace(rdir / "probe.trace.jsonl", self.probe, GridSpec())
            run_cli(["analyze", "--trace", rdir / "probe.trace.jsonl",
                     "--policy", FIXTURE_POLICY, "--output", rdir / "probe.json"])

        wall, cpu, kids = timed(body)
        steps = sum(len(e.steps) for log in self.logs + [self.probe] for e in log.epochs)
        steps += sum(len(e) for e in self.fixture_epochs)
        names = [f"p{k}.json" for k in range(1, TRACES + 1)] + ["hand.json", "probe.json"]
        return Round(wall, cpu, kids, steps, calls, _read_outputs(rdir, names))

    def check_round(self, rnd, tally):
        tally.attempted += self.ops_per_round
        for k, log in enumerate(self.logs, start=1):
            self._check_analysis(
                tally, f"trace {k}", json.loads(rnd.outputs[f"p{k}.json"]),
                checker.policy_from_object(self.policies[k - 1]), checker.log_epochs(log),
            )
        hand = json.loads(rnd.outputs["hand.json"])
        tally.expect(hand["series"] == [0.75, 0.0, 0.5], f"hand fixture series {hand['series']}")
        tally.expect(hand["trend"]["slope"] == -0.125, f"hand fixture slope {hand['trend']['slope']}")
        self._check_analysis(tally, "hand fixture", hand, self.fixture_policy, self.fixture_epochs)
        self._check_analysis(
            tally, "defect-A probe", json.loads(rnd.outputs["probe.json"]),
            self.fixture_policy, checker.log_epochs(self.probe),
        )

    def _check_analysis(self, tally, where, analysis, policy, epochs):
        params = analysis["params"]
        expected = checker.compliance_series(policy, epochs, params["theta_step"], params["filter_mode"])
        tally.expect(analysis["series"] == expected, f"{where}: series differs from the checker's")
        tally.expect(len(analysis["series"]) == len(epochs), f"{where}: one value per epoch")
        healthy = check_policy(tally, where, analysis["series"], analysis["trend"], params, False)
        if healthy is not None:
            tally.expect(analysis["verdict"] == ("NonBuggy" if healthy else "Buggy"), f"{where}: verdict")

    def check_files(self, rdir, tally):
        """read_trace(write_trace(log)) == log, and the record counts add up."""
        written = [(rdir / f"p{k}.trace.jsonl", log, self.spec) for k, log in enumerate(self.logs, start=1)]
        written.append((rdir / "probe.trace.jsonl", self.probe, GridSpec()))
        for path, log, spec in written:
            tally.expect(logfiles.read_trace(path) == (log, spec), f"{path.name}: read back differs")
            records = path.read_bytes().count(b"\n") - 1
            tally.expect(records == sum(len(e.steps) for e in log.epochs), f"{path.name}: record count")

    def bytes_written(self, rdir):
        size = sum((rdir / f"p{k}.trace.jsonl").stat().st_size for k in range(1, TRACES + 1))
        records = sum(len(e.steps) for log in self.logs for e in log.epochs)
        return size, records


def _parse_trace_records(text: str) -> list:
    """Epochs of a grid trace file as [(state, action), ...], read with the
    json module alone."""
    epochs: list = []
    for line in text.splitlines()[1:]:
        rec = json.loads(line)
        if rec["step"] == 1:
            epochs.append([])
        epochs[-1].append((tuple(rec["state"]), rec["action"]))
    return epochs


WORKLOADS = {w.name: w for w in (GridCorpus, HillcarVerdict, TraceAnalyze)}
