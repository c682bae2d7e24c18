"""Reference learners and the fault-injection registry.

Two deliberately small learners serve as the programs under test: tabular
Q-learning for the grid world and a linear-in-features actor-critic for
the hill car. Both are seeded and fully deterministic given their config.

The bug registry manufactures defective variants on demand, spanning four
fault categories: training, model, updating the network, and exploring the
environment. A bug overrides config parameters, changes behaviour, or both;
:func:`make_agent` layers a behaviour fault on the learner from outside, as
a subclass, so the learners stay bug-free reference code apart from the
permuted writes of ``WRONG_FEATURE_MAP``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .envs import Transition
from .errors import (
    AlgorithmEnvMismatchError,
    InapplicableBugError,
    NumericalDivergenceError,
    UnknownBugError,
)
from .spaces import DiscreteSpace

# The environment kind each learner runs on, as its mismatch error names it.
_ENVIRONMENTS = {
    "tabular_q": ("grid", "a discrete grid environment"),
    "linear_actor_critic": ("hillcar", "a continuous environment"),
}
ALGORITHMS = tuple(_ENVIRONMENTS)

BUG_CATEGORIES = ("training", "model", "updating_network", "exploration")


@dataclass(frozen=True)
class AgentConfig:
    """Hyperparameters for a reference learner.

    ``bug`` names the registry entry :func:`inject_bug` applied, and must
    be one that can affect ``algorithm``; configs without a bug must
    satisfy the sanity bounds below.
    """

    algorithm: str = "tabular_q"
    learning_rate: float = 0.5
    discount: float = 0.95
    epsilon_start: float = 1.0
    epsilon_end: float = 0.01
    init_value: float = 0.0
    critic_learning_rate: float = 0.2
    action_noise: float = 0.3
    feature_grid: int = 5
    seed: int = 0
    bug: str | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.feature_grid < 1:
            raise ValueError("feature_grid must be at least 1")
        if self.bug is None:
            if not self.learning_rate > 0:
                raise ValueError("learning_rate must be positive")
            if not 0.0 <= self.discount <= 1.0:
                raise ValueError("discount must lie in [0, 1]")
            if not self.epsilon_start >= self.epsilon_end >= 0.0:
                raise ValueError("need epsilon_start >= epsilon_end >= 0")
            if self.algorithm == "linear_actor_critic" and not self.action_noise > 0:
                raise ValueError("action_noise must be positive")
            return
        bug = BUG_REGISTRY.get(self.bug)
        if bug is None:
            raise UnknownBugError(f"no bug named {self.bug!r} in the registry")
        if self.algorithm not in bug.algorithms:
            raise InapplicableBugError(
                f"bug {self.bug!r} cannot affect {self.algorithm!r}; it applies to "
                f"{', '.join(bug.algorithms)}"
            )


@dataclass(frozen=True)
class BugDescriptor:
    """One registry entry; ``algorithms`` names the learners it can affect."""

    id: str
    category: str
    description: str
    overrides: tuple = ()
    algorithms: tuple = ALGORITHMS

    def __post_init__(self):
        if self.category not in BUG_CATEGORIES:
            raise ValueError(f"unknown bug category {self.category!r}")
        if not set(self.algorithms) <= set(ALGORITHMS):
            raise ValueError(f"unknown algorithms in {self.algorithms!r}")


BUG_REGISTRY = {
    b.id: b
    for b in (
        BugDescriptor(
            "LR_ZERO", "training",
            "learning rate silently set to zero, no update has any effect",
            (("learning_rate", 0.0),),
        ),
        BugDescriptor(
            "REWARD_NEGATED", "training",
            "the learner observes the negated reward signal",
        ),
        BugDescriptor(
            "DISCOUNT_GT_ONE", "training",
            "discount factor above one, future returns are amplified",
            (("discount", 1.2),),
        ),
        BugDescriptor(
            "Q_INIT_HUGE", "model",
            "value parameters initialized to 1e6 instead of zero",
            (("init_value", 1.0e6),),
        ),
        BugDescriptor(
            "WRONG_FEATURE_MAP", "model",
            "updates write through a permuted feature map while action "
            "selection reads the straight one",
        ),
        BugDescriptor(
            "UPDATE_SKIPPED", "updating_network",
            "every value update is dropped",
        ),
        BugDescriptor(
            "STALE_STATE", "updating_network",
            "bootstrap uses the current state where the successor belongs",
        ),
        BugDescriptor(
            "UPDATE_EVERY_OTHER", "updating_network",
            "alternate value updates are dropped",
        ),
        BugDescriptor(
            "EPSILON_FROZEN_ONE", "exploration",
            "exploration never anneals, behavior stays uniformly random",
            (("epsilon_start", 1.0), ("epsilon_end", 1.0)),
            ("tabular_q",),
        ),
        BugDescriptor(
            "EPSILON_ZERO_START", "exploration",
            "no exploration from the first step onward",
            (("epsilon_start", 0.0), ("epsilon_end", 0.0)),
            ("tabular_q",),
        ),
        BugDescriptor(
            "ACTION_CLAMP_WRONG", "exploration",
            "emitted actions are clamped to half the legal range",
        ),
    )
}


def inject_bug(config: AgentConfig, bug_id: str | None) -> AgentConfig:
    """Config for the buggy variant of ``config``, or ``config`` itself
    when ``bug_id`` is None.

    Applies the registry's parameter overrides and records the bug id for
    :func:`make_agent`. :class:`AgentConfig` refuses an unknown bug, and a
    bug that cannot affect ``config.algorithm``, since the variant would
    behave exactly like the clean program while labelled buggy.
    """
    if bug_id is None:
        return config
    bug = BUG_REGISTRY.get(bug_id)
    return replace(config, bug=bug_id, **dict(bug.overrides if bug else ()))


_TWO_TO_MINUS_53 = 2.0**-53

# Draws a learner takes from its generator at a time: raw 64-bit outputs
# for the tabular agent, standard normals for the actor-critic.
_BLOCK = 256

# Weights are finite while the actor-critic's running bound stays below this.
_WEIGHT_LIMIT = 1e300


def check_environment(algorithm: str, env_kind: str) -> None:
    """Raise :class:`AlgorithmEnvMismatchError` unless the learner named
    ``algorithm`` runs on an environment of kind ``env_kind``."""
    kind, description = _ENVIRONMENTS[algorithm]
    if env_kind != kind:
        raise AlgorithmEnvMismatchError(f"{algorithm} needs {description}, got {env_kind!r}")


def _write_permutation(config: AgentConfig, n: int):
    """The permutation of ``n`` parameter rows that ``WRONG_FEATURE_MAP``
    sends updates through, or None for any other config."""
    if config.bug != "WRONG_FEATURE_MAP":
        return None
    return np.random.default_rng([max(config.seed, 0), 97]).permutation(n)


def _draws(draw):
    """Endless stream of the values of ``draw(_BLOCK)``, block after block,
    that draws its first block at the first ``next``. ``draw(n)`` gives the
    values of ``n`` single draws, so they come out in the same order."""
    return itertools.chain.from_iterable(iter(lambda: draw(_BLOCK).tolist(), None))


class TabularQAgent:
    """Q-learning over a table indexed by grid cell and action id."""

    def __init__(self, config: AgentConfig, env_spec, rng=None):
        check_environment("tabular_q", env_spec.kind)
        self.config = config
        self.cols = env_spec.cols
        self.n_states = env_spec.rows * env_spec.cols
        self.n_actions = 4
        init = float(config.init_value)
        self.q = [[init] * self.n_actions for _ in range(self.n_states)]
        # The config is frozen, so what every step reads of it is read once;
        # ε is epsilon_start + span * progress.
        self._epsilon_start = config.epsilon_start
        self._epsilon_span = config.epsilon_end - config.epsilon_start
        self._discount = config.discount
        self._learning_rate = config.learning_rate
        self.rng = np.random.default_rng(config.seed if rng is None else rng)
        bit_generator = self.rng.bit_generator
        if type(bit_generator) is np.random.PCG64:
            self._raws = _draws(bit_generator.random_raw)
            buffered = bit_generator.state
            self._half = buffered["uinteger"] if buffered["has_uint32"] else None
        else:
            self._raws = None
        # A uniform 32-bit draw shifted right by this is uniform over the
        # actions; exact only while n_actions is a power of two.
        self._action_shift = 32 - (self.n_actions - 1).bit_length()
        perm = _write_permutation(config, self.n_states)
        self._write_index = None if perm is None else perm.tolist()

    def state_index(self, state) -> int:
        return state[0] * self.cols + state[1]

    def act(self, state, progress: float) -> int:
        """Epsilon-greedy action: with probability epsilon a uniform action,
        else the first action of greatest value.

        The draws are ``rng.random()`` and then, when exploring,
        ``int(rng.integers(n_actions))``. On a PCG64 generator both are
        taken from the 64-bit outputs of ``bit_generator.random_raw`` with
        the same bits, which costs a fraction of the ``Generator`` calls:

        * ``random()`` is ``(raw >> 11) * 2**-53`` of the next 64-bit output.
        * ``integers(n)`` is Lemire's method on the next 32-bit draw ``u``:
          ``(u * n) >> 32``, rejected while ``(u * n) mod 2**32`` is below
          ``(2**32 - n) mod n``. For a power of two ``n`` that bound is 0, so
          no draw is rejected and the result is ``u >> (32 - log2 n)``.
        * PCG64 makes a 32-bit draw from the low half of a 64-bit output and
          keeps the high half for the next one; ``random()`` neither reads
          nor clears that half. The agent keeps it in ``_half``, starting
          from the generator's own buffered half, so a generator that was
          used before it was handed over is followed exactly.
        * The outputs come from one stream of ``random_raw`` blocks
          (:func:`_draws`).

        The agent owns its generator: the generator runs ahead of the
        outputs handed out, to the end of the current block, and its own
        buffered half is stale, so nothing else may draw from it. Any other
        bit generator keeps the ``Generator`` calls.
        """
        eps = self._epsilon_start + self._epsilon_span * progress
        if eps > 0.0:
            raws = self._raws
            if raws is None:
                if self.rng.random() < eps:
                    return int(self.rng.integers(self.n_actions))
            elif (next(raws) >> 11) * _TWO_TO_MINUS_53 < eps:
                half = self._half
                if half is None:
                    bits = next(raws)
                    half, self._half = bits & 0xFFFFFFFF, bits >> 32
                else:
                    self._half = None
                return half >> self._action_shift
        # row.index(max(row)) unrolled for the four actions: a later value
        # must be greater to win, so ties go to the lowest id.
        a, b, c, d = self.q[state[0] * self.cols + state[1]]
        best, value = 0, a
        if b > value:
            best, value = 1, b
        if c > value:
            best, value = 2, c
        if d > value:
            best = 3
        return best

    def update(self, transition) -> None:
        state, action, reward, next_state, done, _ = transition
        q, cols = self.q, self.cols
        s = state[0] * cols + state[1]
        if done:
            bootstrap = 0.0
        else:
            # max(q[s2]) unrolled for the four actions, with the same
            # comparisons: a later value must be greater to replace it.
            a, b, c, d = q[next_state[0] * cols + next_state[1]]
            if b > a:
                a = b
            if c > a:
                a = c
            if d > a:
                a = d
            bootstrap = self._discount * a
        old = q[s][action]
        value = old + self._learning_rate * (reward + bootstrap - old)
        if not math.isfinite(value):
            raise NumericalDivergenceError(f"Q value diverged at state {state}, action {action}")
        write_s = self._write_index[s] if self._write_index is not None else s
        q[write_s][action] = value

    def values(self) -> np.ndarray:
        """Copy of the Q table as an (n_states, n_actions) array."""
        return np.array(self.q, dtype=float)


class LinearActorCriticAgent:
    """Gaussian-policy actor-critic on radial basis features.

    Every float operation of a training step, and its order, is that of the
    straight-line step, so a run is bit for bit the same.
    """

    def __init__(self, config: AgentConfig, env_spec, rng=None):
        check_environment("linear_actor_critic", env_spec.kind)
        self.config = config
        self.spec = env_spec
        k = config.feature_grid
        centers = np.linspace(0.0, 1.0, k)
        self._center_x = np.repeat(centers, k)
        self._center_y = np.tile(centers, k)
        bandwidth = 1.0 / max(k - 1, 1)
        # Dividing by the negated divisor is exactly negating the quotient.
        self._neg_two_bandwidth_sq = -(2.0 * bandwidth**2)
        self._pos_span = env_spec.max_position - env_spec.min_position
        self._vel_span = 2.0 * env_spec.max_speed
        self.n_features = k * k + 1
        # One-entry memo: the successor whose features ``update`` needs for
        # its bootstrap is the state the next ``act`` and ``update`` see.
        self._phi_state = None
        self._phi = None
        # (state, policy mean) of the last ``act``, for the ``update`` after it.
        self._acted = None
        init = float(config.init_value)
        # Critic and actor weights are rows of one array, updated in place,
        # so one finiteness check covers both.
        self._weights = np.full((2, self.n_features), init)
        self.w_value, self.w_mean = self._weights
        self._coefs = np.empty((2, 1))
        self._step = np.empty((2, self.n_features))
        self._bound = abs(init)
        self.rng = np.random.default_rng(config.seed if rng is None else rng)
        self._normals = _draws(self.rng.standard_normal)
        self._write_perm = _write_permutation(config, self.n_features)

    def features(self, state) -> np.ndarray:
        """Radial basis features of ``state`` plus a constant bias.

        The features of the last state asked for are kept, so each state of
        a trajectory is mapped once; the returned array is read-only.
        """
        if state == self._phi_state:
            return self._phi
        spec = self.spec
        pos = (state[0] - spec.min_position) / self._pos_span
        vel = (state[1] + spec.max_speed) / self._vel_span
        sq = np.square(self._center_x - pos)
        sq += np.square(self._center_y - vel)
        sq /= self._neg_two_bandwidth_sq
        phi = np.empty(self.n_features)
        np.exp(sq, out=phi[:-1])
        phi[-1] = 1.0
        phi.flags.writeable = False
        self._phi_state, self._phi = state, phi
        return phi

    def act(self, state, progress: float) -> tuple:
        """The policy mean plus ``action_noise`` times a standard normal
        draw, clamped to [-1, 1].

        The draws come from one stream of ``standard_normal`` blocks
        (:func:`_draws`), so the agent owns its generator and nothing else
        may draw from it.
        """
        mean = float(self.w_mean @ self.features(state))
        self._acted = (state, mean)
        noisy = mean + self.config.action_noise * next(self._normals)
        return (-1.0 if noisy < -1.0 else 1.0 if noisy > 1.0 else noisy,)

    def update(self, transition) -> None:
        """One TD(0) step of the critic and the actor.

        The weights change only here, so the mean ``act`` computed for
        ``transition.state`` still holds; any other state's is computed.

        Divergence is checked with a running bound. Every feature lies in
        [0, 1], so no weight's magnitude exceeds ``_bound``, the initial one
        plus every coefficient magnitude so far, but for rounding of at most
        a factor 1 + 2**-52 per update. That cannot close the factor 1.8e8
        between ``_WEIGHT_LIMIT`` and the largest double in under 1e16
        updates, so the weights are scanned only once the bound fails
        ``bound < _WEIGHT_LIMIT``, as any NaN or infinite coefficient makes
        it do: divergence raises at the same update as with a scan after
        every update.
        """
        config = self.config
        state = transition.state
        phi = self.features(state)
        if transition.done:
            future = 0.0
        else:
            future = config.discount * float(
                self.w_value @ self.features(transition.next_state)
            )
        td_error = transition.reward + future - float(self.w_value @ phi)
        acted, self._acted = self._acted, None
        mean = acted[1] if acted is not None and acted[0] is state else float(self.w_mean @ phi)
        c_value = config.critic_learning_rate * td_error
        c_mean = (
            config.learning_rate
            * td_error
            * (transition.action[0] - mean)
            / (config.action_noise**2)
        )
        self._coefs[0, 0], self._coefs[1, 0] = c_value, c_mean
        write_phi = phi[self._write_perm] if self._write_perm is not None else phi
        np.multiply(self._coefs, write_phi, out=self._step)
        self._weights += self._step
        self._bound += abs(c_value) + abs(c_mean)
        if not self._bound < _WEIGHT_LIMIT and not np.isfinite(self._weights).all():
            raise NumericalDivergenceError("actor-critic weights diverged")


def make_agent(config: AgentConfig, env_spec, rng=None):
    """Construct the learner named by ``config.algorithm`` for ``env_spec``,
    with the behaviour fault of ``config.bug`` applied."""
    cls = TabularQAgent if config.algorithm == "tabular_q" else LinearActorCriticAgent
    if config.bug in _FAULTS:
        cls = _faulted(cls, config.bug)
    return cls(config, env_spec, rng)


@functools.cache
def _faulted(learner, bug):
    """Subclass of ``learner`` with the behaviour fault of ``bug``.

    The fault's ``act`` or ``update`` calls the learner's own method through
    ``super()``, looked up at each call, so a wrapper set on the learner
    class sees every call that reaches it. The agent holds no reference to
    itself, so it is freed as soon as its run drops it.
    """
    return type(f"{learner.__name__}[{bug}]", (_FAULTS[bug], learner), {})


# The behaviour faults, which :func:`_faulted` puts ahead of a learner class.
# An altered transition is built with ``tuple.__new__``, in under half the
# time of ``Transition(...)``, on every step.


class _RewardNegated:
    def update(self, t):
        state, action, reward, next_state, done, clamped = t
        super().update(
            tuple.__new__(Transition, (state, action, -reward, next_state, done, clamped))
        )


class _StaleState:
    def update(self, t):
        state, action, reward, _, done, clamped = t
        super().update(tuple.__new__(Transition, (state, action, reward, state, done, clamped)))


class _UpdateSkipped:
    def update(self, t):
        pass


class _UpdateEveryOther:
    def __init__(self, config, env_spec, rng=None):
        super().__init__(config, env_spec, rng)
        self._updates = itertools.count(1)

    def update(self, t):
        if next(self._updates) % 2:
            super().update(t)


class _ActionClampWrong:
    def __init__(self, config, env_spec, rng=None):
        super().__init__(config, env_spec, rng)
        space = env_spec.action_space()
        if isinstance(space, DiscreteSpace):
            self._top, self._halves = space.n // 2 - 1, None
        else:
            self._halves = [(lo / 2, hi / 2) for lo, hi in zip(space.lows, space.highs)]

    def act(self, state, progress):
        action = super().act(state, progress)
        if self._halves is None:
            return min(action, self._top)
        return tuple(min(max(a, lo), hi) for a, (lo, hi) in zip(action, self._halves))


_FAULTS = {
    "REWARD_NEGATED": _RewardNegated,
    "STALE_STATE": _StaleState,
    "UPDATE_SKIPPED": _UpdateSkipped,
    "UPDATE_EVERY_OTHER": _UpdateEveryOther,
    "ACTION_CLAMP_WRONG": _ActionClampWrong,
}
