"""Online POMDP solver: UCB-guided Monte-Carlo search over a generative
model with a particle belief, reusing the subtree under the executed
action/observation across real steps. Each episode is one loop that
descends, rolls out from the child it adds and backs up (``_search``).

The solver is generic over any model exposing::

    n_actions: int
    gamma: float
    max_abs_reward: float
    new_scratch()
        (resets the model's imagined coverage at the start of each episode)
    step(state, action, rng, keyed) -> (state2, obs_key, reward, terminal)
        (obs_key is None when keyed is false, as in rollouts, or terminal)

Belief advancement additionally needs ``resimulate``, ``obs_key_of``,
``is_terminal`` and ``reinvigorate(observed, donors, n, rng) -> list`` of
``n`` fresh states (see :mod:`skysearch.model`). Every refill draws at least
one fresh particle from ``reinvigorate``, so it is required.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from random import Random


class BeliefCollapseError(RuntimeError):
    """Raised by nothing: every model reinvigorates, so no belief runs empty.
    Kept while the benchmark's tracer binds it for its ``solver.collapses``
    count; the two are deleted together."""


@dataclass
class ParticleBelief:
    """Multiset of sampled states approximating the belief. Weights are
    uniform; ``advance_belief`` refills it to the solver config's
    ``n_particles``.

    ``survival_rate`` is the fraction of particles that matched the latest
    real observation's bin.
    """

    particles: list
    survival_rate: float = 1.0


class _Edge:
    __slots__ = ("n", "q", "children")

    def __init__(self):
        self.n = 0
        self.q = 0.0
        self.children: dict = {}


class BeliefNode:
    """Search-tree node: per-action visit counts and running-mean value
    estimates, with observation-keyed child nodes. The particle belief is
    attached at the root only."""

    __slots__ = ("n_visits", "edges", "belief")

    def __init__(self, n_actions: int, belief: ParticleBelief | None = None):
        self.n_visits = 0
        self.edges: list[_Edge | None] = [None] * n_actions
        self.belief = belief

    def q_values(self) -> list[float]:
        return [e.q if e is not None and e.n > 0 else math.nan for e in self.edges]


@dataclass
class SolverConfig:
    episodes_per_step: int = 4000
    bootstrap_episodes: int = 16000
    max_depth: int = 30
    ucb_c: float = 100.0           # ~2x the largest single-step reward magnitude
    n_particles: int = 2000
    reinvig_frac: float = 0.10     # reinvigorate below this survivor fraction
    refresh_frac: float = 0.05     # always-fresh share of each refill
    engaged_boost: float = 4.0     # episode multiplier while the belief holds a detection
    step_seconds: float | None = None  # wall-clock budget mode, overrides episode count

    def __post_init__(self) -> None:
        for name in ("episodes_per_step", "bootstrap_episodes", "max_depth", "n_particles"):
            if getattr(self, name) < 1:
                raise ValueError(f"solver budget {name} must be at least 1")
        if not 0.0 <= self.ucb_c < math.inf:
            raise ValueError("exploration constant ucb_c must be finite and non-negative")
        if not (0.0 <= self.reinvig_frac <= 1.0 and 0.0 <= self.refresh_frac <= 1.0):
            raise ValueError("reinvig_frac and refresh_frac must be in [0, 1]")
        # the engaged budget is a float product; a budget past the float range
        # would overflow converting to float, so it is not multiplied
        if not (self.episodes_per_step <= sys.float_info.max
                and 0.0 < self.engaged_boost * self.episodes_per_step < math.inf):
            raise ValueError("episode multiplier engaged_boost must be positive, with "
                             "episodes_per_step * engaged_boost finite")
        if self.step_seconds is not None and not 0.0 < self.step_seconds < math.inf:
            raise ValueError("wall-clock budget step_seconds must be finite and positive "
                             "when set")


def _return_bound(model, cfg: SolverConfig) -> float:
    g = model.gamma
    if g >= 1.0:
        return model.max_abs_reward * cfg.max_depth
    return model.max_abs_reward * (1.0 - g ** cfg.max_depth) / (1.0 - g)


def _rollout(state, depth: int, model, cfg: SolverConfig, rng: Random) -> float:
    total = 0.0
    disc = 1.0
    step, bits, gamma, n_actions = model.step, rng.getrandbits, model.gamma, model.n_actions
    k = n_actions.bit_length()
    for _ in range(depth, cfg.max_depth):
        a = bits(k)  # ``rng.choice(range(n_actions))``'s draw, inlined
        while a >= n_actions:
            a = bits(k)
        state, _, r, terminal = step(state, a, rng, False)
        total += disc * r
        if terminal:
            break
        disc *= gamma
    return total


def _search(root: BeliefNode, model, cfg: SolverConfig, episodes: int,
            rng: Random, allowed=None) -> None:
    """Run ``episodes`` search episodes from ``root``, each in one loop.

    An episode draws a root particle, then descends: below the root the
    first untried action in index order, else UCB1; at the root the first
    untried action of ``allowed``, else UCB1 over it, both in one pass. It
    stops at a terminal step, at ``max_depth`` or at a new observation key,
    whose child it adds and rolls out from, then backs the returns up from
    the deepest step.
    Both draws equal ``Random.choice``'s, value for value and in RNG state;
    the results are property-tested against the recursive search it replaced.
    """
    particles = root.belief.particles
    n_particles = len(particles)
    if not n_particles:
        raise IndexError("cannot search from an empty belief")
    bound = _return_bound(model, cfg) + 1e-9
    deadline = None
    if cfg.step_seconds is not None:
        deadline = time.monotonic() + cfg.step_seconds
        episodes = 1 << 62
    step, new_scratch, bits = model.step, model.new_scratch, rng.getrandbits
    n_actions, gamma = model.n_actions, model.gamma
    max_depth, ucb_c = cfg.max_depth, cfg.ucb_c
    log, sqrt = math.log, math.sqrt
    every = range(n_actions)
    at_root = every if allowed is None else allowed
    k = n_particles.bit_length()
    for ep in range(episodes):
        i = bits(k)  # ``rng.choice(particles)``'s draw, inlined
        while i >= n_particles:
            i = bits(k)
        new_scratch()
        state, node, depth, path, total = particles[i], root, 0, [], 0.0
        while True:
            edges, n = node.edges, node.n_visits
            if depth and n < n_actions:  # below the root, tried once each in index order
                action = n
            else:  # one pass: a root searched under ``allowed`` may have tried any subset
                log_n = log(n) if n else 0.0  # n is 0 only while no action was tried
                best, action = -math.inf, -1
                for a in every if depth else at_root:
                    e = edges[a]
                    if e is None or not e.n:
                        action = a
                        break
                    u = e.q + ucb_c * sqrt(log_n / e.n)
                    if u > best:
                        best = u
                        action = a
            state, key, r, terminal = step(state, action, rng)
            edge = edges[action]
            if edge is None:
                edge = edges[action] = _Edge()
            path.append((node, edge, r))
            if terminal:
                break
            depth += 1
            child = edge.children.get(key)
            if child is None:
                edge.children[key] = BeliefNode(n_actions)
                total = _rollout(state, depth, model, cfg, rng)
                break
            if depth >= max_depth:
                break
            node = child
        for node, edge, r in reversed(path):
            total = r + gamma * total
            node.n_visits += 1
            edge.n += 1
            edge.q += (total - edge.q) / edge.n
        if not abs(total) <= bound:
            raise AssertionError(f"episode return {total} exceeds bound {bound}")
        if deadline is not None and ep % 64 == 63 and time.monotonic() >= deadline:
            break


def _argmax_action(root: BeliefNode, actions) -> int:
    best_a = next(iter(actions))
    best_q = -math.inf
    for a in actions:
        e = root.edges[a]
        if e is not None and e.n > 0 and e.q > best_q:
            best_q = e.q
            best_a = a
    return best_a


def plan_step(root: BeliefNode, model, cfg: SolverConfig, rng: Random,
              allowed: list[int] | None = None) -> int:
    """Run one planning round of ``cfg.episodes_per_step`` episodes (or
    ``cfg.step_seconds`` of wall time) and return the best action at the
    root (highest mean return, ties broken by lowest action index).

    ``allowed`` restricts the root decision to the actions the motion
    server would actually accept (e.g. no set-points beyond the flying
    limits); deeper tree levels still search the full action set.
    """
    _search(root, model, cfg, cfg.episodes_per_step, rng, allowed)
    return _argmax_action(root, range(model.n_actions) if allowed is None else allowed)


def bootstrap(model, belief0: ParticleBelief, cfg: SolverConfig, rng: Random) -> BeliefNode:
    """Warm the search tree before the first real action is taken."""
    root = BeliefNode(model.n_actions, belief0)
    _search(root, model, cfg, cfg.bootstrap_episodes, rng)
    return root


def advance_belief(root: BeliefNode, taken: int, observed, model,
                   cfg: SolverConfig, rng: Random) -> BeliefNode:
    """Move the root across a real (action, observation) step.

    The subtree under the executed action and the observation's bin is
    reused when it exists. The belief is refilled by rejection: particles
    are resimulated through the step and kept when their simulated
    observation lands in the same bin as reality. Resampled survivors fill
    all but a fresh share of ``cfg.n_particles``, or only their own number
    when too few survive; ``model.reinvigorate`` fills the rest with fresh
    states.
    """
    key = model.obs_key_of(observed)
    edge = root.edges[taken]
    child = edge.children.get(key) if edge is not None else None

    survivors = []
    is_terminal, resimulate = model.is_terminal, model.resimulate
    for s in root.belief.particles:
        if is_terminal(s):
            continue
        s2, k2 = resimulate(s, taken, rng)
        if k2 == key:
            survivors.append(s2)
    target = cfg.n_particles
    rate = len(survivors) / target
    # a sliver of every refill comes from fresh observation-consistent
    # samples so the population cannot inbreed on stale hypotheses
    fresh_n = max(1, int(cfg.refresh_frac * target))
    if len(survivors) >= max(1, int(cfg.reinvig_frac * target)):
        keep = target - fresh_n
    else:
        keep = len(survivors)
    particles = survivors[:keep]
    n_survivors, bits = len(survivors), rng.getrandbits
    k = n_survivors.bit_length()
    for _ in range(keep - len(particles)):  # ``rng.randrange(n_survivors)``, inlined
        i = bits(k)
        while i >= n_survivors:
            i = bits(k)
        particles.append(survivors[i])
    donors = survivors or root.belief.particles
    particles += model.reinvigorate(observed, donors, target - len(particles), rng)

    new_root = child if child is not None else BeliefNode(model.n_actions)
    new_root.belief = ParticleBelief(particles, survival_rate=rate)
    return new_root
