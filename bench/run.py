"""fuzzoracle benchmark: time to verdict, end to end and per layer.

    python3 bench/run.py --workload grid-corpus --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/``. The untraced run (``--trace 0``) repeats whole rounds of one
workload until ``--seconds`` have passed and reports the end-to-end
metrics. The traced run (``--trace 1``) runs one untraced round (two on
grid-corpus: one pooled, one single-process) and then one round with every
layer boundary recorded, and reports the per-layer metrics. Both check the
program's outputs with the independent checker in ``checker.py``. The last
line of standard output is one JSON object; a results file with the machine
details goes to ``bench/results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-corpus", "hillcar-verdict", "trace-analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "fuzzoracle" / "__init__.py").is_file():
        print(f"error: no fuzzoracle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from spans import patched

    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        with patched(wl.targets):
            setup_s = measure_setup(wl)
            if args.trace:
                tally, metrics, extra = traced_run(wl, work)
            else:
                tally, metrics, extra = untraced_run(wl, work, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in tally.problems:
        print(f"WRONG: {message}", file=sys.stderr)
    for message in sorted(set(tally.failures)):
        print(f"FAILED: {message}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    write_results(args, result, tally, setup_s, extra)
    print(json.dumps(result))
    return 0


def measure_setup(wl) -> float:
    """Median over a few repetitions of what a user pays before the first
    verdict: a fresh interpreter importing the CLI, then preparing the
    workload's inputs."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import fuzzoracle.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], check=True)
        wl.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def check_rounds(wl, rounds, tally) -> None:
    """Check the first round in full; every later round ran the same calls
    on the same seed, so it must have written the same bytes."""
    first = type(tally)()
    wl.check_round(rounds[0], first)
    tally.attempted += first.attempted * len(rounds)
    tally.failed += first.failed * len(rounds)
    tally.failures += first.failures
    tally.problems += first.problems
    for i, rnd in enumerate(rounds[1:], start=1):
        for name, data in rnd.outputs.items():
            tally.expect(data == rounds[0].outputs[name], f"round {i}: {name} differs from round 0")


def untraced_run(wl, work, seconds, setup_s):
    import workloads

    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rdir = work / f"round-{len(rounds)}"
        rdir.mkdir()
        rounds.append(wl.run_round(rdir))
        if len(rounds) > 1:
            shutil.rmtree(rdir)
    tally = workloads.Tally()
    check_rounds(wl, rounds, tally)
    wl.check_files(work / "round-0", tally)
    calls = [c for r in rounds for c in r.calls]
    wall = sum(r.wall_s for r in rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall / len(rounds), "s"),
        "steps_per_s": (sum(r.steps for r in rounds) / wall, "1/s"),
        "cpu_s": (sum(r.cpu_s for r in rounds) / len(rounds), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "analyze_p50_s": (statistics.median(calls), "s"),
    }
    extra = {
        "rounds": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "steps": r.steps} for r in rounds],
        "calls": len(calls),
    }
    return tally, metrics, extra


def peak_rss_mib() -> float:
    """The larger of this process's peak RSS and its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# Traced run


def traced_run(wl, work):
    import workloads
    from layers import Capture, layer_targets
    from spans import SpanRecorder, patched

    tally = workloads.Tally()
    pooled = isinstance(wl, workloads.GridCorpus)
    untraced = []
    pools, pool_idle_s = 0, 0.0
    if pooled:
        pools_before = wl.pools.started
        untraced.append(wl.run_round(_round_dir(work, "pooled"), workers=2))
        pools = wl.pools.started - pools_before
        pool_idle_s = 2 * untraced[0].wall_s - untraced[0].child_cpu_s
    untraced.append(wl.run_round(_round_dir(work, "untraced"), workers=1))

    rec = SpanRecorder()
    capture = Capture(tally)
    with patched(layer_targets(rec, capture)):
        traced = wl.run_round(_round_dir(work, "traced"), workers=1)

    rounds = untraced + [traced]
    check_rounds(wl, rounds, tally)
    wl.check_capture(capture, traced, tally)
    totals = rec.totals()
    RESULTS.mkdir(exist_ok=True)
    rec.save(RESULTS / f"spans-{wl.name}.npz")

    def total(name, key="total_s"):
        return totals.get(name, {}).get(key, 0)

    def per(seconds, count, scale=1e6):
        return seconds * scale / count if count else 0.0

    env_steps = total("envs.step", "count")
    if env_steps:
        tally.expect(env_steps == capture.scored_steps == traced.steps,
                     f"env steps {env_steps}, scored {capture.scored_steps}, counted {traced.steps}")
    written_bytes, written_records = wl.bytes_written(work / "traced")
    wl.check_files(work / "traced", tally)
    check_s = total("bench.check")
    overhead = (traced.wall_s - check_s) / untraced[-1].wall_s
    metrics = {
        "agents.act_us": (per(total("agents.act"), total("agents.act", "count")), "us"),
        "agents.update_us": (per(total("agents.update"), total("agents.update", "count")), "us"),
        "envs.step_us": (per(total("envs.step", "self_s"), env_steps), "us"),
        "envs.steps": (env_steps, "count"),
        "compliance.reward_us": (
            per(total("compliance.reward"), total("compliance.reward", "count")), "us"),
        "compliance.reward_cache_hit_ratio": (
            per(capture.reward_repeats, capture.reward_calls, 1), "ratio"),
        "compliance.series_us_per_step": (
            per(total("compliance.series"), capture.scored_steps), "us"),
        "compliance.scored_steps": (capture.scored_steps, "count"),
        "trend.analysis_us_per_epoch": (
            per(total("trend.analysis"), capture.trended_epochs), "us"),
        "logfiles.write_us_per_record": (
            per(total("logfiles.write_trace"), written_records), "us"),
        "logfiles.read_us_per_record": (
            per(total("logfiles.read_trace"), capture.scored_steps), "us"),
        "logfiles.bytes_per_record": (per(written_bytes, written_records, 1), "B"),
        "oracle.self_s": (total("oracle.oracle_main", "self_s"), "s"),
        "cli.self_s": (sum(v["self_s"] for k, v in totals.items() if k.startswith("cli.")), "s"),
        "oracle.pools_started": (pools, "count"),
        "oracle.pool_idle_s": (pool_idle_s, "s"),
        "tracing.overhead_ratio": (overhead, "ratio"),
    }
    extra = {
        "untraced_rounds": [{"workers": 2 if pooled and i == 0 else 1, "wall_s": r.wall_s,
                             "cpu_s": r.cpu_s, "steps": r.steps} for i, r in enumerate(untraced)],
        "traced_wall_s": traced.wall_s,
        "checker_s": check_s,
        "spans": totals,
    }
    return tally, metrics, extra


def _round_dir(work, name) -> Path:
    path = work / name
    path.mkdir()
    return path


# ---------------------------------------------------------------------------
# Results file


def write_results(args, result, tally, setup_s, extra) -> None:
    import numpy

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "setup_s": setup_s,
        **result,
        "failures": sorted(set(tally.failures)),
        "problems": tally.problems,
        **extra,
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
