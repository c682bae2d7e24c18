import itertools
import json
import os
import pickle
import warnings
from dataclasses import replace

import pytest

import fuzzoracle
from fuzzoracle import (
    AgentConfig,
    EpochTrace,
    HillCarSpec,
    LinearActorCriticAgent,
    OracleConfig,
    RunLog,
    TraceStep,
    TrendParams,
    assemble_verdict,
    generate_policies,
    inject_bug,
    judge_programs,
    oracle_main,
    policy_compliance_series,
    run_training_phase,
)
from fuzzoracle import oracle
from fuzzoracle.errors import PolicyTooLargeError, SamplingExhaustedError
from fuzzoracle.oracle import default_policy_size, oracle_policies
from fuzzoracle.spaces import BoxSpace


CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "hillcar_clean.json")
with open(CONFIG, encoding="utf-8") as _fh:
    HILLCAR_AGENT = AgentConfig(**json.load(_fh)["agent"])


def small_config(**kw):
    defaults = dict(
        policies=4,
        epochs=30,
        master_seed=3,
        window=5,
        epsilon=0.02,
        delta=0.1,
    )
    defaults.update(kw)
    return OracleConfig(**defaults)


def perfect_trainer(env_spec, policy, epochs, seed):
    """Stub program whose every step sits on a reference with its ideal action."""
    step_cycle = [TraceStep(s, a, 1.0) for s, a in policy.entries]
    epoch = tuple(step_cycle * 3)
    return RunLog(1, tuple(EpochTrace(epoch, e) for e in range(1, epochs + 1)))


def collapsing_trainer(env_spec, policy, epochs, seed):
    """Stub program that starts compliant and falls off a cliff."""
    good = tuple(TraceStep(s, a, 1.0) for s, a in policy.entries)
    far = (3, 3) if env_spec.kind == "grid" else (0.55, 0.0)
    bad = tuple(TraceStep(far, policy.entries[0][1], 0.0) for _ in range(4))
    half = epochs // 2
    return RunLog(
        1,
        tuple(
            EpochTrace(good if e <= half else bad, e) for e in range(1, epochs + 1)
        ),
    )


def split_trainer(healthy_policies):
    def trainer(env_spec, policy, epochs, seed):
        pid = seed[1]
        fn = perfect_trainer if pid <= healthy_policies else collapsing_trainer
        return fn(env_spec, policy, epochs, seed)

    return trainer


class TestGeneratePolicies:
    def test_count_and_determinism(self, grid_spec):
        a = generate_policies(grid_spec, 10, 4, 42)
        b = generate_policies(grid_spec, 10, 4, 42)
        assert len(a) == 10
        assert [p.entries for p in a] == [p.entries for p in b]

    def test_extending_count_preserves_prefix(self, grid_spec):
        short = generate_policies(grid_spec, 3, 4, 7)
        long = generate_policies(grid_spec, 6, 4, 7)
        assert [p.entries for p in short] == [p.entries for p in long[:3]]

    def test_grid_policies_valid_in_bulk(self, grid_spec):
        terminals = set(grid_spec.holes) | {grid_spec.goal}
        for policy in generate_policies(grid_spec, 100, 4, 0):
            refs = [s for s, _ in policy.entries]
            assert len(set(refs)) == len(refs)
            assert policy.min_ref_distance > 0
            assert not terminals & set(refs)

    def test_too_large_for_grid(self, grid_spec):
        with pytest.raises(PolicyTooLargeError):
            generate_policies(grid_spec, 1, 12, 0)

    def test_hillcar_policies_respect_min_gap(self):
        spec = HillCarSpec()
        space = spec.state_space()
        for policy in generate_policies(spec, 20, 3, 1):
            refs = [s for s, _ in policy.entries]
            for a, b in itertools.combinations(refs, 2):
                assert space.nearest([b])(a)[1] >= 0.1
            for _, action in policy.entries:
                assert -1.0 <= action[0] <= 1.0

    def test_rejection_sampling_exhausts(self):
        with pytest.raises(SamplingExhaustedError):
            generate_policies(HillCarSpec(), 1, 500, 0)

    @pytest.mark.parametrize("space, count, seed, exhausts", [
        (HillCarSpec().state_space(), 5, 3, False),
        (HillCarSpec().state_space(), 40, 5, False),
        (HillCarSpec().state_space(), 40, 6, False),
        (BoxSpace((0.0, -1.0, 2.0), (1.0, 1.0, 5.0)), 20, 0, False),
        # Points 0.1 apart fit at most 11 to a unit segment.
        (BoxSpace((0.0,), (1.0,)), 12, 1, True),
    ], ids=["hillcar5", "hillcar40", "hillcar40b", "box3", "exhausted"])
    def test_sampling_matches_the_pairwise_check(self, space, count, seed, exhausts):
        # A candidate is accepted when every accepted point is at least the
        # gap away, each measured by its own one-reference search.
        def sample(rng):
            points = []
            for _ in range(oracle._REJECTION_ATTEMPTS):
                candidate = tuple(
                    float(rng.uniform(lo, hi)) for lo, hi in zip(space.lows, space.highs)
                )
                if all(space.nearest((p,))(candidate)[1] >= oracle._MIN_NORMALIZED_GAP
                       for p in points):
                    points.append(candidate)
                    if len(points) == count:
                        return points
            return "exhausted"

        rng, expected_rng = oracle.child_rng(seed), oracle.child_rng(seed)
        expected = sample(expected_rng)
        try:
            got = oracle._sample_separated_points(space, count, rng)
        except SamplingExhaustedError:
            got = "exhausted"
        assert got == expected
        assert (got == "exhausted") == exhausts
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_default_sizes(self, grid_spec):
        assert default_policy_size(grid_spec) == 4
        assert default_policy_size(HillCarSpec()) == 3


class TestRunTrainingPhase:
    def test_epoch_count_and_lengths(self, grid_spec):
        policy = generate_policies(grid_spec, 1, 4, 0)[0]
        log = run_training_phase(AgentConfig(), grid_spec, policy, 50, 11)
        assert len(log.epochs) == 50
        assert [e.epoch_index for e in log.epochs] == list(range(1, 51))
        assert all(1 <= len(e) <= grid_spec.max_steps_per_epoch for e in log.epochs)

    def test_states_within_bounds(self, grid_spec):
        space = grid_spec.state_space()
        policy = generate_policies(grid_spec, 1, 4, 0)[0]
        log = run_training_phase(AgentConfig(), grid_spec, policy, 40, 1)
        for epoch in log.epochs:
            for step in epoch.steps:
                assert space.contains(step.state)

    def test_deterministic(self, grid_spec):
        policy = generate_policies(grid_spec, 1, 4, 0)[0]
        a = run_training_phase(AgentConfig(), grid_spec, policy, 30, 2)
        b = run_training_phase(AgentConfig(), grid_spec, policy, 30, 2)
        assert a == b

    def test_divergence_aborts_epoch_and_continues(self, grid_spec, two_ref_policy):
        # An absurd discount forces the Q values to overflow quickly; the
        # start cell is a reference, so reward flows from the first epochs.
        config = AgentConfig(discount=1e180, bug="DISCOUNT_GT_ONE")
        log = run_training_phase(
            config, grid_spec, two_ref_policy, 40, 5, reward_scale=10.0
        )
        assert len(log.epochs) == 40
        assert log.aborted_epochs
        # Aborted epochs keep their partial trace, so the log stays usable.
        assert all(len(e) >= 1 for e in log.epochs)
        assert max(log.aborted_epochs) <= 40

    def test_nan_action_aborts_epoch(self):
        # The smallest oracle run found whose learner diverges: its weights
        # go non-finite in epoch 7, after which every action is NaN.
        program = AgentConfig(algorithm="linear_actor_critic")
        config = OracleConfig(policies=1, epochs=9, master_seed=36)
        verdict = oracle_main(program, HillCarSpec(), config)
        policy = oracle_policies(HillCarSpec(), config)[0]
        log = run_training_phase(program, HillCarSpec(), policy, 9, (36, 1))
        outcome = verdict.per_policy[0]
        assert outcome.aborted_epochs == log.aborted_epochs == (7, 8, 9)
        assert [len(e) for e in log.epochs][-3:] == [32, 1, 0]
        assert outcome.series.values[-1] == 0.0
        assert verdict.label == "Buggy"

    @pytest.mark.parametrize("bug, policy_id, epochs, aborted", [
        # Policy 4 of seed 0 diverges in epoch 4; every epoch of a learner
        # with huge initial weights aborts.
        ("DISCOUNT_GT_ONE", 4, 6, (4, 5, 6)),
        ("Q_INIT_HUGE", 1, 3, (1, 2, 3)),
    ], ids=["DISCOUNT_GT_ONE", "Q_INIT_HUGE"])
    def test_diverging_hillcar_learner_warns_nothing(self, bug, policy_id, epochs, aborted):
        # The learner overflows before its epoch aborts, which the run log
        # records; numpy must not also warn of it.
        program = inject_bug(HILLCAR_AGENT, bug)
        policy = oracle_policies(HillCarSpec(), OracleConfig(policies=4))[policy_id - 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log = run_training_phase(program, HillCarSpec(), policy, epochs, (0, policy_id))
        assert log.aborted_epochs == aborted

    def test_non_numeric_action_element_aborts_epoch(self, monkeypatch):
        # An action tuple whose force is no number is refused like a bare
        # one, so its epoch aborts and training moves on.
        act = LinearActorCriticAgent.act

        def act_none_in_epoch_2(agent, state, progress):
            return (None,) if progress == 0.5 else act(agent, state, progress)

        monkeypatch.setattr(LinearActorCriticAgent, "act", act_none_in_epoch_2)
        spec = HillCarSpec(max_steps_per_epoch=20)
        policy = generate_policies(spec, 1, 3, 0)[0]
        log = run_training_phase(HILLCAR_AGENT, spec, policy, 3, 0)
        assert log.aborted_epochs == (2,)
        assert [len(e) for e in log.epochs] == [20, 0, 20]

    def test_out_of_range_forces_are_counted_and_flagged(self, monkeypatch):
        # Forces outside [-1, 1] are clamped by the environment: the run log
        # counts them, each record keeps the force the learner emitted, and
        # only their transitions reach update flagged as clamped.
        forces = [(1.5,), (-2.0,), (0.5,), (-1.0,), (1,), (-1.25,)]
        out_of_range = {(1.5,), (-2.0,), (-1.25,)}

        class FixedForces:
            def __init__(self):
                self.emitted = itertools.cycle(forces)
                self.updates = []

            def act(self, state, progress):
                return next(self.emitted)

            def update(self, transition):
                self.updates.append(transition)

        agent = FixedForces()
        monkeypatch.setattr(oracle, "make_agent", lambda config, spec, rng: agent)
        spec = HillCarSpec(max_steps_per_epoch=6)
        policy = generate_policies(spec, 1, 3, 0)[0]
        log = run_training_phase(HILLCAR_AGENT, spec, policy, 2, 0)
        assert [len(e) for e in log.epochs] == [6, 6]
        assert log.clamped_actions == 2 * len(out_of_range)
        records = [s for e in log.epochs for s in e.steps]
        assert [s.action for s in records] == forces * 2
        assert [t.action for t in agent.updates] == forces * 2
        assert [t.clamped for t in agent.updates] == [f in out_of_range for f in forces] * 2

    def test_hillcar_training_runs(self):
        spec = HillCarSpec(max_steps_per_epoch=40)
        policy = generate_policies(spec, 1, 3, 0)[0]
        config = AgentConfig(algorithm="linear_actor_critic", learning_rate=0.05)
        log = run_training_phase(config, spec, policy, 10, 0)
        assert len(log.epochs) == 10
        space = spec.state_space()
        assert all(
            space.contains(s.state) for e in log.epochs for s in e.steps
        )


class TestOracleMain:
    def test_perfect_program_fully_healthy(self, grid_spec):
        config = small_config(policies=5)
        verdict = oracle_main(perfect_trainer, grid_spec, config)
        assert verdict.label == "NonBuggy"
        assert verdict.true_count == 5
        assert all(o.healthy for o in verdict.per_policy)

    def test_collapsing_program_is_buggy(self, grid_spec):
        verdict = oracle_main(collapsing_trainer, grid_spec, small_config())
        assert verdict.label == "Buggy"
        assert verdict.true_count == 0

    def test_boundary_ratio_counts_as_non_buggy(self, grid_spec):
        config = small_config(policies=10, theta_oracle=0.7)
        verdict = oracle_main(split_trainer(7), grid_spec, config)
        assert verdict.true_count == 7
        assert verdict.ratio == pytest.approx(0.7)
        assert verdict.label == "NonBuggy"
        below = oracle_main(split_trainer(6), grid_spec, config)
        assert below.label == "Buggy"

    def test_verdict_matches_recomputation_from_outcomes(self, grid_spec):
        config = small_config(policies=6)
        verdict = oracle_main(split_trainer(3), grid_spec, config)
        again = assemble_verdict(verdict.per_policy, config.theta_oracle)
        assert again.label == verdict.label
        assert again.true_count == verdict.true_count

    def test_raising_threshold_never_unflags_buggy(self, grid_spec):
        config = small_config(policies=6)
        verdict = oracle_main(split_trainer(4), grid_spec, config)
        labels = [
            assemble_verdict(verdict.per_policy, theta).label
            for theta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        seen_buggy = False
        for label in labels:
            if seen_buggy:
                assert label == "Buggy"
            seen_buggy = seen_buggy or label == "Buggy"

    def test_agent_program_deterministic(self, grid_spec):
        config = small_config(policies=2, epochs=40)
        a = oracle_main(AgentConfig(), grid_spec, config)
        b = oracle_main(AgentConfig(), grid_spec, config)
        assert a == b

    def test_worker_pool_matches_serial(self, grid_spec):
        config = small_config(policies=4, epochs=25)
        serial = oracle_main(AgentConfig(), grid_spec, config, workers=1)
        pooled = oracle_main(AgentConfig(), grid_spec, config, workers=2)
        assert serial == pooled

    def test_judge_programs_matches_oracle_main_on_callables(self, grid_spec, monkeypatch):
        # A callable, which may be a closure, runs in this process even when
        # workers are asked for. on_log sees every run log in task order,
        # with the task's policy id in place of the program's own.
        config = small_config(policies=3)
        programs = [split_trainer(1), AgentConfig(), perfect_trainer]
        expected = [oracle_main(p, grid_spec, config) for p in programs]
        monkeypatch.setattr(oracle, "ProcessPoolExecutor", None)
        seen = []
        verdicts = judge_programs(
            programs, grid_spec, config, workers=2,
            on_log=lambda k, pid, policy, log: seen.append((k, pid, policy, log.policy_id)),
        )
        assert verdicts == expected
        policies = oracle_policies(grid_spec, config)
        assert seen == [(k, i + 1, p, i + 1) for k in range(3) for i, p in enumerate(policies)]

    def test_judge_programs_reads_a_one_shot_iterable_once(self, grid_spec, monkeypatch):
        # A generator is read once: its closures still run in this process,
        # and its AgentConfigs still train on one pool.
        config = small_config(policies=2, epochs=10)
        closures = [split_trainer(1), split_trainer(2)]
        agents = [AgentConfig(), inject_bug(AgentConfig(), "REWARD_NEGATED")]
        expected = [judge_programs(p, grid_spec, config, workers=1) for p in (closures, agents)]
        pools = []

        class CountingPool(oracle.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(oracle, "ProcessPoolExecutor", CountingPool)
        assert judge_programs(iter(closures), grid_spec, config, workers=2) == expected[0]
        assert pools == []
        assert judge_programs((a for a in agents), grid_spec, config, workers=2) == expected[1]
        assert pools == [{"max_workers": 2}]

    def test_filter_mode_reaches_the_series(self, grid_spec):
        # Every epoch mixes on-reference ideal steps with near misses; the
        # verdict's series must match a direct recomputation under the
        # configured gate for both modes.
        def near_miss_trainer(env_spec, policy, epochs, seed):
            steps = []
            for ref_state, ref_action in policy.entries:
                neighbor = (ref_state[0], min(ref_state[1] + 1, env_spec.cols - 1))
                steps.append(TraceStep(ref_state, ref_action, 1.0))
                steps.append(TraceStep(neighbor, (ref_action + 1) % 4, 0.0))
            return RunLog(
                1, tuple(EpochTrace(tuple(steps), e) for e in range(1, epochs + 1))
            )

        for mode in ("state", "step"):
            config = small_config(policies=2, filter_mode=mode)
            verdict = oracle_main(near_miss_trainer, grid_spec, config)
            policies = oracle_policies(grid_spec, config)
            for outcome, policy in zip(verdict.per_policy, policies):
                log = near_miss_trainer(
                    grid_spec, policy, config.epochs, (config.master_seed, outcome.policy_id)
                )
                expected = policy_compliance_series(
                    policy, log, config.theta_step, filter_mode=mode
                )
                assert outcome.series == expected

    def test_wholly_aborted_policy_is_unhealthy(self, grid_spec):
        def aborting_trainer(env_spec, policy, epochs, seed):
            epochs_tuple = tuple(
                EpochTrace((TraceStep(policy.entries[0][0], policy.entries[0][1], 1.0),), e)
                for e in range(1, epochs + 1)
            )
            return RunLog(1, epochs_tuple, aborted_epochs=tuple(range(1, epochs + 1)))

        verdict = oracle_main(aborting_trainer, grid_spec, small_config(policies=3))
        # The series alone looks perfect, yet every epoch aborted.
        assert verdict.label == "Buggy"
        assert verdict.true_count == 0


class TestOracleConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            OracleConfig(policies=0)
        with pytest.raises(ValueError):
            OracleConfig(epochs=1)
        with pytest.raises(ValueError):
            OracleConfig(theta_oracle=1.2)
        with pytest.raises(ValueError):
            OracleConfig(reward_mode="multiply")
        with pytest.raises(ValueError):
            OracleConfig(reward_mode="add")
        with pytest.raises(ValueError):
            OracleConfig(epochs=5, window=5)

    def test_trend_is_built_from_the_flat_fields(self):
        config = OracleConfig(window=4, epsilon=0.05, delta=0.2)
        assert config.trend == TrendParams(window=4, epsilon=0.05, delta=0.2)
        assert OracleConfig().trend == TrendParams()
        assert replace(config, window=3).trend == TrendParams(window=3, epsilon=0.05, delta=0.2)
        assert replace(OracleConfig(), window=3).trend == TrendParams(window=3)
        again = pickle.loads(pickle.dumps(config))
        assert again == config and again.trend == config.trend


def test_every_public_name_resolves():
    for name in fuzzoracle.__all__:
        assert getattr(fuzzoracle, name) is not None, name
