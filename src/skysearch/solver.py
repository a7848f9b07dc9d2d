"""Online POMDP solver: UCB-guided Monte-Carlo search over a generative
model with a particle belief, reusing the subtree under the executed
action/observation across real steps.

The solver is generic over any model exposing::

    n_actions: int
    gamma: float
    max_abs_reward: float
    new_scratch() -> object passed through to step
    step(state, action, rng, scratch, keyed) -> (state2, obs_key, reward, terminal)
        (obs_key is None when keyed is false, as in rollouts, or terminal)

Belief advancement additionally needs ``resimulate``, ``obs_key_of``,
``is_terminal`` and ``reinvigorate`` (see :mod:`skysearch.model`). Every
refill draws fresh particles from ``reinvigorate``, so it is required.
"""

from __future__ import annotations

import math
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
    uniform; resampling keeps the population at ``target_size``.

    ``survival_rate`` is the fraction of particles that matched the latest
    real observation's bin.
    """

    particles: list
    target_size: int
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
        if not self.ucb_c >= 0.0:
            raise ValueError("exploration constant ucb_c must be non-negative")
        if not (0.0 <= self.reinvig_frac <= 1.0 and 0.0 <= self.refresh_frac <= 1.0):
            raise ValueError("reinvig_frac and refresh_frac must be in [0, 1]")
        if not self.engaged_boost > 0.0:
            raise ValueError("episode multiplier engaged_boost must be positive")
        if self.step_seconds is not None and not self.step_seconds > 0.0:
            raise ValueError("wall-clock budget step_seconds must be positive when set")


def _return_bound(model, cfg: SolverConfig) -> float:
    g = model.gamma
    if g >= 1.0:
        return model.max_abs_reward * cfg.max_depth
    return model.max_abs_reward * (1.0 - g ** cfg.max_depth) / (1.0 - g)


def _simulate(node: BeliefNode, state, depth: int, model, cfg: SolverConfig,
              scratch, rng: Random, allowed=None) -> float:
    if depth >= cfg.max_depth:
        return 0.0
    # pick the first untried action, else UCB1
    edges = node.edges
    if depth:  # below the root, actions are first tried once each in index order
        actions = range(model.n_actions)
        action = node.n_visits if node.n_visits < model.n_actions else -1
    else:  # a root searched under ``allowed`` may have tried any subset
        action = -1
        actions = range(model.n_actions) if allowed is None else allowed
        for a in actions:
            e = edges[a]
            if e is None or e.n == 0:
                action = a
                break
    if action < 0:
        log_n = math.log(node.n_visits)
        ucb_c, sqrt = cfg.ucb_c, math.sqrt
        best = -math.inf
        for a in actions:
            e = edges[a]
            u = e.q + ucb_c * sqrt(log_n / e.n)
            if u > best:
                best = u
                action = a
    state2, key, r, terminal = model.step(state, action, rng, scratch)
    edge = edges[action]
    if edge is None:
        edge = edges[action] = _Edge()
    if terminal:
        total = r
    else:
        child = edge.children.get(key)
        if child is None:
            edge.children[key] = BeliefNode(model.n_actions)
            total = r + model.gamma * _rollout(state2, depth + 1, model, cfg, scratch, rng)
        else:
            total = r + model.gamma * _simulate(child, state2, depth + 1, model,
                                                cfg, scratch, rng)
    node.n_visits += 1
    edge.n += 1
    edge.q += (total - edge.q) / edge.n
    return total


def _rollout(state, depth: int, model, cfg: SolverConfig, scratch, rng: Random) -> float:
    total = 0.0
    disc = 1.0
    step, randrange = model.step, rng.randrange
    n_actions, gamma = model.n_actions, model.gamma
    for _ in range(depth, cfg.max_depth):
        state, _, r, terminal = step(state, randrange(n_actions), rng, scratch, False)
        total += disc * r
        if terminal:
            break
        disc *= gamma
    return total


def _search(root: BeliefNode, model, cfg: SolverConfig, episodes: int,
            rng: Random, allowed=None) -> None:
    particles = root.belief.particles
    bound = _return_bound(model, cfg) + 1e-9
    deadline = None
    if cfg.step_seconds is not None:
        deadline = time.monotonic() + cfg.step_seconds
        episodes = 1 << 62
    n = len(particles)
    randrange, new_scratch = rng.randrange, model.new_scratch
    for ep in range(episodes):
        state = particles[randrange(n)]
        total = _simulate(root, state, 0, model, cfg, new_scratch(), rng, allowed)
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
              allowed: list[int] | None = None, episodes: int | None = None) -> int:
    """Run one planning round and return the best action at the root
    (highest mean return, ties broken by lowest action index).

    ``allowed`` restricts the root decision to the actions the motion
    server would actually accept (e.g. no set-points beyond the flying
    limits); deeper tree levels still search the full action set.
    ``episodes`` overrides the per-step budget, e.g. to think harder while
    closing in on a detection.
    """
    _search(root, model, cfg, episodes or cfg.episodes_per_step, rng, allowed)
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
    all but a fresh share of the target, or only their own number when too
    few survive; ``model.reinvigorate`` fills the rest with fresh states.
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
    target = root.belief.target_size
    rate = len(survivors) / target
    # a sliver of every refill comes from fresh observation-consistent
    # samples so the population cannot inbreed on stale hypotheses
    fresh_n = max(1, int(cfg.refresh_frac * target))
    if len(survivors) >= max(1, int(cfg.reinvig_frac * target)):
        keep = target - fresh_n
    else:
        keep = len(survivors)
    particles = survivors[:keep]
    n_survivors, randrange = len(survivors), rng.randrange
    while len(particles) < keep:
        particles.append(survivors[randrange(n_survivors)])
    donors = survivors or root.belief.particles
    reinvigorate = model.reinvigorate
    while len(particles) < target:
        particles.append(reinvigorate(observed, donors, rng))

    belief = ParticleBelief(particles, target_size=target, survival_rate=rate)
    new_root = child if child is not None else BeliefNode(model.n_actions)
    new_root.belief = belief
    return new_root
