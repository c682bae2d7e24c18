import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fuzzoracle import (
    AgentConfig,
    BUG_REGISTRY,
    GridSpec,
    HillCarSpec,
    Transition,
    env_reset,
    env_step,
    inject_bug,
    make_agent,
)
from fuzzoracle.agents import _BLOCK, TabularQAgent
from fuzzoracle.errors import (
    AlgorithmEnvMismatchError,
    FuzzOracleError,
    InapplicableBugError,
    NumericalDivergenceError,
    UnknownBugError,
)


def grid_transition(state, action, reward, next_state, done=False):
    return Transition(state, action, reward, next_state, done)


class TestInit:
    def test_q_table_zeros(self, grid_spec):
        agent = make_agent(AgentConfig(), grid_spec)
        assert agent.values().shape == (16, 4)
        assert not agent.values().any()

    def test_tabular_on_continuous_env_rejected(self):
        with pytest.raises(AlgorithmEnvMismatchError):
            make_agent(AgentConfig(algorithm="tabular_q"), HillCarSpec())

    def test_actor_critic_on_grid_rejected(self, grid_spec):
        with pytest.raises(AlgorithmEnvMismatchError):
            make_agent(AgentConfig(algorithm="linear_actor_critic"), grid_spec)

    def test_actor_critic_weights_zero(self):
        agent = make_agent(AgentConfig(algorithm="linear_actor_critic"), HillCarSpec())
        assert not agent.w_mean.any()
        assert not agent.w_value.any()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AgentConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            AgentConfig(discount=1.5)
        with pytest.raises(ValueError):
            AgentConfig(epsilon_start=0.1, epsilon_end=0.5)
        # The same values are allowed once a bug owns them.
        assert inject_bug(AgentConfig(), "LR_ZERO").learning_rate == 0.0

    @pytest.mark.parametrize("rate", [0.0, -0.0, -3.0, float("nan")])
    def test_clean_actor_critic_needs_a_positive_critic_learning_rate(self, rate):
        with pytest.raises(ValueError, match="^critic_learning_rate must be positive$"):
            AgentConfig(algorithm="linear_actor_critic", critic_learning_rate=rate)
        # A config with a bug keeps any value, and tabular_q never reads it.
        buggy = AgentConfig(
            algorithm="linear_actor_critic", critic_learning_rate=rate,
            bug="ACTION_CLAMP_WRONG",
        )
        assert buggy.critic_learning_rate is rate
        assert AgentConfig(critic_learning_rate=rate).critic_learning_rate is rate


class TestAct:
    def test_greedy_argmax(self, grid_spec):
        agent = make_agent(AgentConfig(epsilon_start=0.0, epsilon_end=0.0), grid_spec)
        agent.q[agent.state_index((1, 2))] = [0.0, 3.0, 1.0, 1.0]
        assert agent.act((1, 2), 0.0) == 1

    def test_greedy_tie_breaks_lowest_index(self, grid_spec):
        agent = make_agent(AgentConfig(epsilon_start=0.0, epsilon_end=0.0), grid_spec)
        assert agent.act((0, 0), 0.0) == 0

    def test_uniform_when_fully_exploring(self, grid_spec):
        agent = make_agent(inject_bug(AgentConfig(), "EPSILON_FROZEN_ONE"), grid_spec)
        counts = [0, 0, 0, 0]
        for _ in range(10_000):
            counts[agent.act((0, 0), 0.5)] += 1
        for c in counts:
            assert abs(c / 10_000 - 0.25) < 0.05


class TestUpdate:
    def test_terminal_update_arithmetic(self, grid_spec):
        agent = make_agent(AgentConfig(learning_rate=0.5, discount=0.9), grid_spec)
        agent.update(grid_transition((0, 0), 2, 1.0, (0, 1), done=True))
        assert agent.q[agent.state_index((0, 0))][2] == 0.5

    def test_lr_zero_is_fixed_point(self, grid_spec):
        agent = make_agent(inject_bug(AgentConfig(), "LR_ZERO"), grid_spec)
        before = agent.values()
        for _ in range(50):
            agent.update(grid_transition((0, 0), 1, 1.0, (0, 1)))
        assert (agent.values() == before).all()

    def test_repeated_terminal_updates_converge_to_reward(self, grid_spec):
        agent = make_agent(AgentConfig(learning_rate=0.3, discount=0.9), grid_spec)
        for _ in range(200):
            agent.update(grid_transition((2, 1), 0, 0.7, (2, 0), done=True))
        assert agent.q[agent.state_index((2, 1))][0] == pytest.approx(0.7, abs=1e-9)

    def test_bootstrap_uses_next_state(self, grid_spec):
        agent = make_agent(AgentConfig(learning_rate=1.0, discount=0.5), grid_spec)
        agent.q[agent.state_index((0, 1))] = [0.0, 0.0, 2.0, 0.0]
        agent.update(grid_transition((0, 0), 2, 0.0, (0, 1)))
        assert agent.q[agent.state_index((0, 0))][2] == pytest.approx(1.0)

    def test_divergence_raises(self, grid_spec):
        agent = make_agent(AgentConfig(), grid_spec)
        with pytest.raises(NumericalDivergenceError):
            agent.update(grid_transition((0, 0), 0, math.inf, (0, 1)))


class TestBugRegistry:
    def test_covers_all_categories_with_spread(self):
        categories = {b.category for b in BUG_REGISTRY.values()}
        assert categories == {"training", "model", "updating_network", "exploration"}
        assert len(BUG_REGISTRY) >= 11

    def test_inject_returns_new_config(self):
        base = AgentConfig()
        buggy = inject_bug(base, "LR_ZERO")
        assert buggy.learning_rate == 0.0
        assert buggy.bug == "LR_ZERO"
        assert base.learning_rate > 0

    def test_unknown_bug(self):
        with pytest.raises(UnknownBugError):
            inject_bug(AgentConfig(), "UNKNOWN_XYZ")

    def test_config_checks_its_bug_where_it_is_built(self):
        # The bug switches the sanity bounds off, so it is checked itself.
        message = "^no bug named 'NO_SUCH_BUG' in the registry$"
        with pytest.raises(UnknownBugError, match=message):
            AgentConfig(learning_rate=-1.0, discount=7.0, bug="NO_SUCH_BUG")
        with pytest.raises(UnknownBugError, match=message):
            replace(AgentConfig(), bug="NO_SUCH_BUG")
        message = (
            "^bug 'EPSILON_ZERO_START' cannot affect 'linear_actor_critic'; "
            "it applies to tabular_q$"
        )
        with pytest.raises(InapplicableBugError, match=message):
            AgentConfig(algorithm="linear_actor_critic", bug="EPSILON_ZERO_START")
        buggy = inject_bug(AgentConfig(), "EPSILON_ZERO_START")
        with pytest.raises(InapplicableBugError, match=message):
            replace(buggy, algorithm="linear_actor_critic")

    @pytest.mark.parametrize("bug_id", ["EPSILON_FROZEN_ONE", "EPSILON_ZERO_START"])
    def test_epsilon_bugs_refused_on_actor_critic(self, bug_id):
        # The actor-critic never reads epsilon, so the variant would be the
        # clean program labelled buggy.
        assert BUG_REGISTRY[bug_id].algorithms == ("tabular_q",)
        with pytest.raises(InapplicableBugError) as info:
            inject_bug(AgentConfig(algorithm="linear_actor_critic"), bug_id)
        assert isinstance(info.value, FuzzOracleError)
        assert inject_bug(AgentConfig(), bug_id).bug == bug_id

    def test_other_bugs_apply_to_both_learners(self):
        for bug in BUG_REGISTRY.values():
            if bug.id.startswith("EPSILON_"):
                continue
            for algorithm in ("tabular_q", "linear_actor_critic"):
                assert inject_bug(AgentConfig(algorithm=algorithm), bug.id).bug == bug.id

    def test_update_skipped_freezes_table(self, grid_spec):
        agent = make_agent(inject_bug(AgentConfig(), "UPDATE_SKIPPED"), grid_spec)
        rng = np.random.default_rng(0)
        state = (0, 0)
        for _ in range(100):
            action = agent.act(state, 0.1)
            tr = Transition(state, action, 0.5, (0, 1), False)
            agent.update(tr)
        assert not agent.values().any()

    def test_update_every_other_drops_half(self, grid_spec):
        agent = make_agent(inject_bug(AgentConfig(learning_rate=0.5), "UPDATE_EVERY_OTHER"), grid_spec)
        t = grid_transition((0, 0), 0, 1.0, (0, 1), done=True)
        agent.update(t)
        after_first = agent.q[0][0]
        agent.update(t)
        assert agent.q[0][0] == after_first

    def test_reward_negated_learns_the_opposite(self, grid_spec):
        agent = make_agent(inject_bug(AgentConfig(learning_rate=0.5), "REWARD_NEGATED"), grid_spec)
        agent.update(grid_transition((0, 0), 2, 1.0, (0, 1), done=True))
        assert agent.q[0][2] == -0.5

    def test_stale_state_bootstraps_from_current(self, grid_spec):
        agent = make_agent(inject_bug(AgentConfig(learning_rate=1.0, discount=0.5), "STALE_STATE"), grid_spec)
        s0 = agent.state_index((0, 0))
        agent.q[s0] = [0.0, 0.0, 4.0, 0.0]
        agent.q[agent.state_index((0, 1))] = [0.0, 0.0, 99.0, 0.0]
        agent.update(grid_transition((0, 0), 0, 0.0, (0, 1)))
        # Target bootstraps from Q(s) = 4, not Q(s') = 99.
        assert agent.q[s0][0] == pytest.approx(2.0)

    def test_action_clamp_wrong_halves_discrete_range(self, grid_spec):
        agent = make_agent(inject_bug(AgentConfig(), "ACTION_CLAMP_WRONG"), grid_spec)
        actions = {agent.act((0, 0), 0.0) for _ in range(200)}
        assert actions <= {0, 1}

    def test_wrong_feature_map_miswrites(self, grid_spec):
        agent = make_agent(inject_bug(AgentConfig(learning_rate=0.5), "WRONG_FEATURE_MAP"), grid_spec)
        s = agent.state_index((1, 1))
        agent.update(grid_transition((1, 1), 0, 1.0, (1, 2), done=True))
        written = [row[0] for row in agent.q]
        assert sum(1 for v in written if v != 0.0) == 1
        assert agent.q[s][0] == 0.0 or agent._write_index[s] == s

    def test_q_init_huge(self, grid_spec):
        agent = make_agent(inject_bug(AgentConfig(), "Q_INIT_HUGE"), grid_spec)
        assert agent.values().max() == 1.0e6


# The bugs that change what the learner does rather than its config.
BEHAVIOUR_BUGS = (
    "REWARD_NEGATED", "STALE_STATE", "UPDATE_SKIPPED", "UPDATE_EVERY_OTHER", "ACTION_CLAMP_WRONG",
)


class TestBehaviourFaults:
    @pytest.mark.parametrize("algorithm", ["tabular_q", "linear_actor_critic"])
    @pytest.mark.parametrize("bug_id", BEHAVIOUR_BUGS)
    def test_faulted_agent_freed_without_the_collector(self, bug_id, algorithm):
        spec = GridSpec() if algorithm == "tabular_q" else HillCarSpec()
        collecting = gc.isenabled()
        gc.disable()
        try:
            agent = make_agent(inject_bug(AgentConfig(algorithm=algorithm), bug_id), spec)
            state = env_reset(spec, 0)
            agent.update(env_step(spec, state, agent.act(state, 0.5)))
            alive = weakref.ref(agent)
            del agent
            assert alive() is None
        finally:
            if collecting:
                gc.enable()

    @pytest.mark.parametrize(
        "bug_id, updates",
        [("REWARD_NEGATED", 4), ("STALE_STATE", 4), ("UPDATE_SKIPPED", 0),
         ("UPDATE_EVERY_OTHER", 2), ("ACTION_CLAMP_WRONG", 4)],
    )
    def test_learner_class_methods_see_every_call_that_reaches_them(
        self, grid_spec, monkeypatch, bug_id, updates
    ):
        # The agent is built before the class methods are replaced.
        agent = make_agent(inject_bug(AgentConfig(), bug_id), grid_spec)
        calls = []
        for name in ("act", "update"):
            def counted(self, *args, _name=name, _method=getattr(TabularQAgent, name)):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(TabularQAgent, name, counted)
        for _ in range(4):
            agent.update(grid_transition((0, 0), agent.act((0, 0), 0.5), 0.5, (0, 1)))
        assert calls.count("act") == 4
        assert calls.count("update") == updates


class TestDeterminism:
    def test_identical_seeds_identical_tables(self, grid_spec):
        rng = np.random.default_rng(5)
        transitions = [
            grid_transition(
                (int(rng.integers(0, 4)), int(rng.integers(0, 4))),
                int(rng.integers(0, 4)),
                float(rng.uniform(0, 1)),
                (int(rng.integers(0, 4)), int(rng.integers(0, 4))),
                bool(rng.integers(0, 2)),
            )
            for _ in range(300)
        ]
        tables = []
        actions = []
        for _ in range(2):
            agent = make_agent(AgentConfig(seed=9), grid_spec)
            acted = [agent.act(t.state, 0.3) for t in transitions]
            for t in transitions:
                agent.update(t)
            tables.append(agent.values())
            actions.append(acted)
        assert (tables[0] == tables[1]).all()
        assert actions[0] == actions[1]


class CountingReference:
    """``Generator.random()`` and ``int(Generator.integers(n))``, counting
    the raw 64-bit outputs they take: one per ``random()``, and one per
    ``integers(n)`` that finds no buffered 32-bit half."""

    def __init__(self, rng):
        self.rng, self.used = rng, 0

    def random(self):
        self.used += 1
        return self.rng.random()

    def integers(self, n):
        if not self.rng.bit_generator.state.get("has_uint32"):
            self.used += 1
        return int(self.rng.integers(n))


class TestExplorationDraws:
    """``TabularQAgent.act`` draws exactly what ``Generator.random()`` and
    ``int(Generator.integers(4))`` would, draw for draw."""

    STEPS = 400

    def expected_actions(self, rng, eps, greedy, clamp):
        actions = []
        for _ in range(self.STEPS):
            if eps > 0.0 and rng.random() < eps:
                action = rng.integers(4)
            else:
                action = greedy
            actions.append(min(action, 1) if clamp else action)
        return actions

    def check(self, grid_spec, make_rng, eps, bug=None):
        config = AgentConfig(epsilon_start=eps, epsilon_end=eps)
        if bug:
            config = inject_bug(config, bug)
        agent_rng, reference = make_rng(), CountingReference(make_rng())
        agent = make_agent(config, grid_spec, agent_rng)
        # Greedy action 3 at (1, 2), so no exploratory draw can pass for it.
        agent.q[agent.state_index((1, 2))] = [0.0, 0.0, 0.0, 1.0]
        actions = [agent.act((1, 2), 0.5) for _ in range(self.STEPS)]
        assert actions == self.expected_actions(reference, eps, 3, bug is not None)
        self.check_streams(agent_rng, reference)

    def check_streams(self, agent_rng, reference):
        """Both streams stand at the same place, once the reference skips
        the raw outputs that a PCG64 agent took in whole blocks of
        ``_BLOCK`` but did not use."""
        rng = reference.rng
        if type(agent_rng.bit_generator) is np.random.PCG64:
            rng.bit_generator.random_raw(-reference.used % _BLOCK)
        assert [agent_rng.random() for _ in range(3)] == [rng.random() for _ in range(3)]

    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    def test_many_seeds(self, grid_spec, eps):
        for seed in range(60):
            self.check(grid_spec, lambda: np.random.default_rng(seed), eps)

    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_action_clamp_wrong(self, grid_spec, eps):
        for seed in range(20):
            self.check(grid_spec, lambda: np.random.default_rng(seed), eps, "ACTION_CLAMP_WRONG")

    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_generator_holding_a_buffered_half(self, grid_spec, eps):
        def used_rng(seed):
            rng = np.random.default_rng(seed)
            rng.integers(4)  # takes the low half and buffers the high half
            assert rng.bit_generator.state["has_uint32"] == 1
            return rng

        for seed in range(20):
            self.check(grid_spec, lambda: used_rng(seed), eps)

    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_other_bit_generators_keep_generator_calls(self, grid_spec, eps):
        for seed in range(10):
            self.check(grid_spec, lambda: np.random.Generator(np.random.MT19937(seed)), eps)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_epsilon_follows_progress_that_comes_back(self, grid_spec, bit_generator):
        # Progress changes, repeats and returns to earlier values; epsilon
        # must be that of each call's progress, as computed afresh.
        config = AgentConfig(epsilon_start=1.0, epsilon_end=0.1)
        progresses = [p for p in (0.0, 0.5, 0.5, 0.0, 1.0, 0.25, 1.0) for _ in range(60)]
        for seed in range(10):
            agent_rng = np.random.Generator(bit_generator(seed))
            reference = CountingReference(np.random.Generator(bit_generator(seed)))
            agent = make_agent(config, grid_spec, agent_rng)
            agent.q[agent.state_index((1, 2))] = [0.0, 0.0, 0.0, 1.0]
            actions = [agent.act((1, 2), p) for p in progresses]
            expected = []
            for p in progresses:
                eps = config.epsilon_start + (config.epsilon_end - config.epsilon_start) * p
                expected.append(reference.integers(4) if reference.random() < eps else 3)
            assert actions == expected
            self.check_streams(agent_rng, reference)


class TestActorCritic:
    def spec(self):
        return HillCarSpec(max_steps_per_epoch=60)

    def test_act_within_bounds(self):
        agent = make_agent(AgentConfig(algorithm="linear_actor_critic"), self.spec())
        for _ in range(100):
            (a,) = agent.act((-0.5, 0.0), 0.2)
            assert -1.0 <= a <= 1.0

    def test_action_clamp_wrong_halves_range(self):
        agent = make_agent(
            inject_bug(AgentConfig(algorithm="linear_actor_critic"), "ACTION_CLAMP_WRONG"),
            self.spec(),
        )
        for _ in range(100):
            (a,) = agent.act((-0.5, 0.0), 0.2)
            assert -0.5 <= a <= 0.5

    def test_update_moves_critic_toward_reward(self):
        agent = make_agent(
            AgentConfig(algorithm="linear_actor_critic", critic_learning_rate=0.5),
            self.spec(),
        )
        state = (-0.5, 0.0)
        value_before = float(agent.w_value @ agent.features(state))
        tr = Transition(state, (0.2,), 1.0, (-0.49, 0.001), True)
        agent.update(tr)
        value_after = float(agent.w_value @ agent.features(state))
        assert value_after > value_before

    def test_divergence_raises(self):
        agent = make_agent(
            AgentConfig(algorithm="linear_actor_critic"), self.spec()
        )
        with pytest.raises(NumericalDivergenceError):
            agent.update(Transition((-0.5, 0.0), (0.2,), math.inf, (-0.49, 0.0), True))

    def test_nan_reward_raises_on_that_update(self):
        agent = make_agent(AgentConfig(algorithm="linear_actor_critic"), self.spec())
        state, successor = (-0.5, 0.0), (-0.49, 0.001)
        agent.update(Transition(state, (0.2,), 1.0, successor, False))
        with pytest.raises(NumericalDivergenceError):
            agent.update(Transition(successor, (0.2,), math.nan, (-0.48, 0.002), False))

    def test_huge_finite_weights_are_scanned_not_refused(self):
        # Past the running bound every update scans the weights, which are
        # still finite here; the overflow after them raises.
        agent = make_agent(AgentConfig(algorithm="linear_actor_critic"), self.spec())
        state, successor = (-0.5, 0.0), (-0.49, 0.001)
        agent.update(Transition(state, (0.2,), 1e305, successor, True))
        assert np.isfinite(agent.w_value).all() and agent.w_value.max() > 1e300
        with pytest.raises(NumericalDivergenceError):
            for _ in range(50):
                agent.update(Transition(state, (0.2,), 1e307, successor, True))
        assert not (np.isfinite(agent.w_value).all() and np.isfinite(agent.w_mean).all())

    def test_update_reuses_the_act_mean_only_for_that_state(self):
        # act leaves the weights alone, so with or without it the updates
        # must give the same weights, whatever states they are for.
        config = AgentConfig(algorithm="linear_actor_critic", seed=5)
        s1, s2, s3 = (-0.5, 0.0), (-0.45, 0.01), (-0.4, 0.02)
        # (act first?, transition): the first update makes the weights
        # nonzero, the second is for another state than the act's, and the
        # last follows an update for the act's state.
        steps = [(False, Transition(s1, (0.3,), 1.0, s2, False)),
                 (True, Transition(s2, (-0.6,), 0.5, s3, False)),
                 (True, Transition(s1, (0.9,), 0.25, s2, False)),
                 (False, Transition(s1, (-0.2,), 0.75, s2, False))]
        acting = make_agent(config, self.spec())
        plain = make_agent(config, self.spec())
        for act_first, tr in steps:
            if act_first:
                acting.act(s1, 0.0)
            acting.update(tr)
            plain.update(tr)
        assert acting.w_mean.tobytes() == plain.w_mean.tobytes()
        assert acting.w_value.tobytes() == plain.w_value.tobytes()
        assert plain.w_mean.any()


def reference_features(spec, feature_grid, state):
    """The radial basis features computed from scratch with the (k*k, 2)
    centre matrix, independently of the learner's precomputed columns."""
    centers = np.linspace(0.0, 1.0, feature_grid)
    grid = np.array([(cx, cy) for cx in centers for cy in centers], dtype=float)
    bandwidth = 1.0 / max(feature_grid - 1, 1)
    pos = (state[0] - spec.min_position) / (spec.max_position - spec.min_position)
    vel = (state[1] + spec.max_speed) / (2.0 * spec.max_speed)
    diff = grid - (pos, vel)
    sq = diff[:, 0] ** 2 + diff[:, 1] ** 2
    phi = np.empty(feature_grid * feature_grid + 1)
    phi[:-1] = np.exp(-sq / (2.0 * bandwidth**2))
    phi[-1] = 1.0
    return phi


class TestFeatureMemo:
    """The actor-critic keeps the features of the last state it mapped;
    training must be bit for bit what it is when every state is mapped
    afresh."""

    spec = HillCarSpec(max_steps_per_epoch=50)

    def rollout(self, agent, epochs, on_step=None):
        env_rng = np.random.default_rng(4)
        for e in range(epochs):
            state = env_reset(self.spec, env_rng)
            for t in range(self.spec.max_steps_per_epoch):
                action = agent.act(state, e / epochs)
                tr = env_step(self.spec, state, action, lambda s, a: -abs(a[0]))
                if t == self.spec.max_steps_per_epoch - 1:
                    tr = Transition(tr.state, tr.action, tr.reward, tr.next_state, True)
                if on_step is not None:
                    on_step(agent, tr)
                agent.update(tr)
                if on_step is not None:
                    on_step(agent, tr)
                if tr.done:
                    break
                state = tr.next_state

    @pytest.mark.parametrize("bug", [None, "STALE_STATE", "WRONG_FEATURE_MAP"])
    def test_memo_matches_fresh_features(self, bug):
        config = AgentConfig(algorithm="linear_actor_critic", learning_rate=0.05, seed=3)
        if bug is not None:
            config = inject_bug(config, bug)
        fresh = make_agent(config, self.spec)
        checked = []

        def compare(agent, tr):
            for state in (tr.state, tr.next_state):
                got = agent.features(state)
                assert got.tobytes() == fresh.features(state).tobytes()
                assert got.tobytes() == reference_features(self.spec, 5, state).tobytes()
            checked.append(agent._phi_state)

        self.rollout(make_agent(config, self.spec), 4, compare)
        assert len(checked) > 100

    @pytest.mark.parametrize("bug", [None, "STALE_STATE", "WRONG_FEATURE_MAP"])
    def test_training_identical_without_memo(self, bug):
        config = AgentConfig(algorithm="linear_actor_critic", learning_rate=0.05, seed=3)
        if bug is not None:
            config = inject_bug(config, bug)
        memo = make_agent(config, self.spec)
        self.rollout(memo, 6)

        def forget(agent, tr):
            agent._phi_state = agent._phi = None

        plain = make_agent(config, self.spec)
        self.rollout(plain, 6, forget)
        assert memo.w_value.tobytes() == plain.w_value.tobytes()
        assert memo.w_mean.tobytes() == plain.w_mean.tobytes()
        assert memo.w_value.any()

    def test_features_are_read_only(self):
        agent = make_agent(AgentConfig(algorithm="linear_actor_critic"), self.spec)
        phi = agent.features((-0.5, 0.0))
        with pytest.raises(ValueError):
            phi[0] = 2.0

    def test_both_buffers_are_read_only(self):
        agent = make_agent(AgentConfig(algorithm="linear_actor_critic"), self.spec)
        first = agent.features((-0.5, 0.0))
        second = agent.features((-0.3, 0.02))
        assert not np.shares_memory(first, second)
        for phi in (first, second, agent.features((-0.9, -0.01))):
            assert not phi.flags.writeable
            with pytest.raises(ValueError):
                phi[-1] = 2.0

    def test_features_keep_their_bytes_through_the_next_miss(self):
        # update holds phi(s) while it maps s'; the miss after that reuses
        # the buffer of phi(s).
        agent = make_agent(AgentConfig(algorithm="linear_actor_critic"), self.spec)
        a, b, c = (-0.5, 0.0), (-0.3, 0.02), (-0.9, -0.01)
        phi_a = agent.features(a)
        phi_b = agent.features(b)
        assert phi_a.tobytes() == reference_features(self.spec, 5, a).tobytes()
        assert agent.features(b) is phi_b
        assert phi_a.tobytes() == reference_features(self.spec, 5, a).tobytes()
        agent.features(c)
        assert phi_a.tobytes() == reference_features(self.spec, 5, c).tobytes()
        assert phi_b.tobytes() == reference_features(self.spec, 5, b).tobytes()
        assert phi_a[-1] == phi_b[-1] == 1.0


class TestWrongFeatureMap:
    spec = HillCarSpec(max_steps_per_epoch=50)

    def test_updates_write_the_permuted_features(self):
        # Zero weights make the policy mean 0 and the TD error the reward,
        # so each row moves by its coefficient times phi[perm], bit for bit.
        config = inject_bug(AgentConfig(algorithm="linear_actor_critic", seed=2), "WRONG_FEATURE_MAP")
        perm = np.random.default_rng([config.seed, 97]).permutation(26)
        for state in ((-0.5, 0.0), (-0.3, 0.02)):
            agent = make_agent(config, self.spec)
            agent.update(Transition(state, (0.4,), 1.5, (-0.49, 0.001), True))
            phi = reference_features(self.spec, 5, state)
            c_value = config.critic_learning_rate * 1.5
            c_mean = config.learning_rate * 1.5 * (0.4 - 0.0) / config.action_noise**2
            assert agent.w_value.tobytes() == (0.0 + c_value * phi[perm]).tobytes()
            assert agent.w_mean.tobytes() == (0.0 + c_mean * phi[perm]).tobytes()
            assert agent.w_value.tobytes() != (c_value * phi).tobytes()
