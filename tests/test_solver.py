"""Tree-search planner on small fully-checkable models."""

import math
import statistics
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from skysearch import solver
from skysearch.coverage import CoverageMap, Rect
from skysearch.geometry import CameraIntrinsics, EnuPoint
from skysearch.model import (ActionCmd, GenerativeModel, ModelConfig, Observation,
                             PomdpState, RewardParams, generate_observation,
                             initial_belief, transition)
from skysearch.solver import (BeliefCollapseError, BeliefNode, ParticleBelief,
                              SolverConfig, advance_belief, bootstrap, plan_step)
from test_missions import short_flight


class ChainModel:
    """Five cells in a row; moving right from the start neighbours a +10
    terminal cell, everything else costs. Fully observable and
    deterministic, so exact value iteration is trivial."""

    LEFT, RIGHT, STAY = 0, 1, 2
    n_actions = 3
    max_abs_reward = 10.0

    def __init__(self, gamma=0.95, scale=1.0):
        self.gamma = gamma
        self.scale = scale
        self.max_abs_reward = 10.0 * scale

    def new_scratch(self):
        return None

    def step(self, s, a, rng, scratch, keyed=True):
        if a == self.LEFT:
            s2 = max(0, s - 1)
        elif a == self.RIGHT:
            s2 = min(4, s + 1)
        else:
            s2 = s
        if s2 == 3 and s != 3:
            return s2, s2, 10.0 * self.scale, True
        return s2, s2, -1.0 * self.scale, False

    def resimulate(self, s, a, rng):
        s2, key, _, _ = self.step(s, a, rng, None)
        return s2, key

    def obs_key_of(self, observed):
        return observed

    def is_terminal(self, s):
        return False

    def value_iteration(self, depth):
        """Exact optimal action at every state for the given horizon."""
        v = [0.0] * 5
        best = [self.STAY] * 5
        for _ in range(depth):
            nv = [0.0] * 5
            nbest = [0] * 5
            for s in range(5):
                qs = []
                for a in range(3):
                    s2, _, r, term = self.step(s, a, None, None)
                    qs.append(r + (0.0 if term else self.gamma * v[s2]))
                nbest[s] = max(range(3), key=lambda a: qs[a])
                nv[s] = qs[nbest[s]]
            v, best = nv, nbest
        return v, best


class BanditModel:
    """One-shot stochastic arms; with zero discount the planner must match
    the argmax of the exact one-step expectations."""

    n_actions = 3
    gamma = 0.0
    max_abs_reward = 6.0  # leaves ~9 sigma of headroom over the noisy arms
    MEANS = (1.0, 1.2, 0.8)

    def new_scratch(self):
        return None

    def step(self, s, a, rng, scratch, keyed=True):
        return s, 0, self.MEANS[a] + rng.gauss(0.0, 0.5), True


class RecordingModel:
    """Deterministic tree of action histories: a state is the tuple of the
    actions taken so far and is its own observation key, so each state
    belongs to exactly one search node. Records every (state, action) step."""

    gamma = 0.9
    max_abs_reward = 1.0

    def __init__(self, n_actions=5):
        self.n_actions = n_actions
        self.calls = []

    def new_scratch(self):
        return None

    def step(self, s, a, rng, scratch, keyed=True):
        self.calls.append((s, a))
        s2 = s + (a,)
        return s2, s2, rng.random() * (a + 1) / self.n_actions, False

    def resimulate(self, s, a, rng):
        return s + (a,), s + (a,)

    def obs_key_of(self, observed):
        return observed

    def is_terminal(self, s):
        return False

    def tried(self, state):
        """The actions the search stepped from ``state``, in order."""
        return [a for s, a in self.calls if s == state]


def chain_belief(n=2000):
    return ParticleBelief([2] * n, target_size=n)


class TestPlanStep:
    def test_chain_matches_value_iteration_oracle(self):
        model = ChainModel()
        _, best = model.value_iteration(depth=30)
        assert best[2] == ChainModel.RIGHT  # oracle for the start cell
        cfg = SolverConfig(episodes_per_step=4000, ucb_c=20.0)
        hits = 0
        for seed in range(30):
            root = BeliefNode(model.n_actions, chain_belief())
            hits += plan_step(root, model, cfg, Random(seed)) == best[2]
        assert hits == 30

    def test_zero_discount_is_one_step_argmax(self):
        model = BanditModel()
        cfg = SolverConfig(episodes_per_step=4000, ucb_c=2.4)
        oracle = max(range(3), key=lambda a: BanditModel.MEANS[a])
        hits = sum(
            plan_step(BeliefNode(3, chain_belief()), model, cfg, Random(s)) == oracle
            for s in range(20))
        assert hits >= 19

    def test_identical_rewards_tie_break_to_lowest_index(self):
        model = BanditModel()
        model.MEANS = (1.0, 1.0, 1.0)

        class Flat(BanditModel):
            MEANS = (1.0, 1.0, 1.0)

            def step(self, s, a, rng, scratch, keyed=True):
                return s, 0, 1.0, True

        flat = Flat()
        cfg = SolverConfig(episodes_per_step=300, ucb_c=2.0)
        for seed in (0, 1, 2, 3, 4):
            assert plan_step(BeliefNode(3, chain_belief()), flat, cfg, Random(seed)) == 0

    def test_empty_belief_raises(self):
        with pytest.raises(BeliefCollapseError):
            plan_step(BeliefNode(3, ParticleBelief([], 10)), ChainModel(),
                      SolverConfig(episodes_per_step=10), Random(0))

    def test_reward_scaling_preserves_argmax(self):
        cfg = SolverConfig(episodes_per_step=2000, ucb_c=20.0)
        for seed in range(5):
            base = plan_step(BeliefNode(3, chain_belief()), ChainModel(),
                             cfg, Random(seed))
            scaled_cfg = replace(cfg, ucb_c=cfg.ucb_c * 7.0)
            scaled = plan_step(BeliefNode(3, chain_belief()), ChainModel(scale=7.0),
                               scaled_cfg, Random(seed))
            assert base == scaled == ChainModel.RIGHT

    def test_chosen_q_converges(self):
        # 100 short rounds on one root: 4000 episodes, best root value after each
        cfg = SolverConfig(episodes_per_step=40, ucb_c=20.0)
        root = BeliefNode(3, chain_belief())
        model, rng = ChainModel(), Random(5)
        trace = []
        for _ in range(100):
            plan_step(root, model, cfg, rng)
            trace.append(max(root.q_values()))
        tail = trace[-len(trace) // 10:]
        assert statistics.pvariance(tail) < 0.05 * abs(statistics.mean(tail))

    def test_allowed_mask_restricts_root_choice(self):
        model = ChainModel()
        cfg = SolverConfig(episodes_per_step=500, ucb_c=20.0)
        act = plan_step(BeliefNode(3, chain_belief()), model, cfg, Random(0),
                        allowed=[ChainModel.LEFT, ChainModel.STAY])
        assert act in (ChainModel.LEFT, ChainModel.STAY)

    def test_return_bound_asserted(self):
        liar = ChainModel()
        liar.max_abs_reward = 0.5  # claims returns can never reach the +10
        with pytest.raises(AssertionError):
            plan_step(BeliefNode(3, chain_belief()), liar,
                      SolverConfig(episodes_per_step=200, ucb_c=2.0), Random(0))


class TestExpansionOrder:
    # with rollouts stubbed out, every model step is a tree step, and the
    # recorded actions per state are the choices of that state's node

    def test_nodes_below_the_root_try_actions_in_index_order(self, monkeypatch):
        monkeypatch.setattr(solver, "_rollout", lambda *args: 0.0)
        model = RecordingModel()
        root = BeliefNode(model.n_actions, ParticleBelief([()], target_size=1))
        plan_step(root, model, SolverConfig(max_depth=3, ucb_c=1.0), Random(3),
                  episodes=400)
        below = {s for s, _ in model.calls if s}
        n = model.n_actions
        for s in below:
            tried = model.tried(s)
            assert tried[:n] == list(range(min(len(tried), n)))
        assert sum(len(model.tried(s)) > n for s in below) >= n  # UCB took over

    def test_reused_root_tries_untried_allowed_actions_first(self, monkeypatch):
        monkeypatch.setattr(solver, "_rollout", lambda *args: 0.0)
        model = RecordingModel()
        cfg = SolverConfig(max_depth=3)
        rng = Random(5)
        root = BeliefNode(model.n_actions, ParticleBelief([()], target_size=1))
        # three episodes through action 0: its child is then visited twice
        # below the root and has tried actions 0 and 1
        plan_step(root, model, cfg, rng, allowed=[0], episodes=3)
        root = advance_belief(root, 0, (0,), model, cfg, rng)
        assert [a for a, e in enumerate(root.edges) if e is not None] == [0, 1]
        model.calls.clear()
        plan_step(root, model, cfg, rng, allowed=[1, 2, 4], episodes=20)
        tried = model.tried((0,))
        assert tried[:2] == [2, 4]
        assert set(tried) == {1, 2, 4}


class TestBootstrap:
    def test_all_actions_expanded_and_visits_counted(self):
        model = ChainModel()
        cfg = SolverConfig(bootstrap_episodes=500, ucb_c=20.0)
        root = bootstrap(model, chain_belief(), cfg, Random(0))
        assert all(e is not None and e.n > 0 for e in root.edges)
        assert root.n_visits == 500

    def test_staying_put_is_not_best_when_prize_reachable(self):
        model = ChainModel()
        cfg = SolverConfig(bootstrap_episodes=2000, ucb_c=20.0)
        root = bootstrap(model, chain_belief(), cfg, Random(1))
        qs = root.q_values()
        assert max(qs) == qs[ChainModel.RIGHT]
        assert qs[ChainModel.STAY] < qs[ChainModel.RIGHT]


class TestAdvanceBelief:
    def test_subtree_reuse_keeps_statistics(self):
        model = ChainModel()
        cfg = SolverConfig(episodes_per_step=800, ucb_c=20.0)
        root = BeliefNode(3, chain_belief(200))
        plan_step(root, model, cfg, Random(0))
        child = root.edges[ChainModel.LEFT].children.get(1)
        assert child is not None
        n_before = child.n_visits
        new_root = advance_belief(root, ChainModel.LEFT, 1, model, cfg, Random(1))
        assert new_root is child
        assert new_root.n_visits == n_before

    def test_deterministic_model_full_survival(self):
        model = ChainModel()
        cfg = SolverConfig(episodes_per_step=50, ucb_c=20.0)
        root = BeliefNode(3, chain_belief(200))
        plan_step(root, model, cfg, Random(0))
        new_root = advance_belief(root, ChainModel.STAY, 2, model, cfg, Random(1))
        assert new_root.belief.survival_rate == 1.0
        assert len(new_root.belief.particles) == 200

    def test_unmatched_observation_without_reinvigoration_collapses(self):
        model = ChainModel()
        cfg = SolverConfig(episodes_per_step=50, ucb_c=20.0)
        root = BeliefNode(3, chain_belief(200))
        plan_step(root, model, cfg, Random(0))
        with pytest.raises(BeliefCollapseError):
            advance_belief(root, ChainModel.STAY, 99, model, cfg, Random(1))

    def test_detection_posterior_concentrates(self):
        # a real detection observation pulls the victim hypotheses to
        # within one map cell of the reported position
        cfg = ModelConfig()
        model = GenerativeModel(cfg, RewardParams(), CameraIntrinsics())
        scfg = SolverConfig(episodes_per_step=50, n_particles=400, ucb_c=30.0)
        rng = Random(7)
        belief = initial_belief(cfg, 400, rng, start=EnuPoint(30, 3, 16))
        root = BeliefNode(model.n_actions, belief)
        plan_step(root, model, scfg, rng)
        obs = Observation(30.0, 3.0, 16.0, True, 31.0, 2.5, 0.2, False)
        new_root = advance_belief(root, 6, obs, model, scfg, rng)  # HOVER
        near = sum(1 for p in new_root.belief.particles
                   if p.victim_present and abs(p.victim_x - 31.0) <= cfg.obs_cell
                   and abs(p.victim_y - 2.5) <= cfg.obs_cell)
        present = sum(p.victim_present for p in new_root.belief.particles)
        assert present > 0
        assert near / present >= 0.9

    def test_population_restored_to_target(self):
        cfg = ModelConfig()
        model = GenerativeModel(cfg, RewardParams(), CameraIntrinsics())
        scfg = SolverConfig(episodes_per_step=30, n_particles=300, ucb_c=30.0)
        rng = Random(9)
        belief = initial_belief(cfg, 300, rng, start=EnuPoint(10, 3, 16))
        root = BeliefNode(model.n_actions, belief)
        plan_step(root, model, scfg, rng)
        obs = Observation(10.0, 3.0, 14.0, False, obstacle_ahead=False)
        new_root = advance_belief(root, 5, obs, model, scfg, rng)  # DOWN
        assert len(new_root.belief.particles) == 300


class TestConfigValidation:
    def test_budgets_must_be_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(episodes_per_step=0)
        with pytest.raises(ValueError):
            SolverConfig(max_depth=0)

    def test_wall_clock_mode_stops(self):
        import time
        model = ChainModel()
        cfg = SolverConfig(episodes_per_step=10, ucb_c=20.0, step_seconds=0.05)
        t0 = time.monotonic()
        plan_step(BeliefNode(3, chain_belief()), model, cfg, Random(0))
        assert time.monotonic() - t0 < 1.0


def tree_nodes(root):
    """Every node of the search tree under ``root``, the root included."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for edge in node.edges:
            if edge is not None:
                stack.extend(edge.children.values())


def assert_tree_invariants(root, model, cfg):
    """At every node the edges' visits sum to the node's visits, and every
    edge's mean return lies within the solver's return bound."""
    bound = solver._return_bound(model, cfg) + 1e-9
    for node in tree_nodes(root):
        edges = [e for e in node.edges if e is not None]
        assert sum(e.n for e in edges) == node.n_visits
        assert all(abs(e.q) <= bound for e in edges)


def allowed_masks(n_actions):
    """``None`` (every action) or a non-empty subset of the actions."""
    return st.one_of(st.none(), st.lists(st.integers(0, n_actions - 1), min_size=1,
                                         max_size=n_actions, unique=True))


class TestTreeInvariants:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["chain", "bandit", "recording"]),
           rounds=st.lists(st.tuples(st.integers(1, 40), allowed_masks(3)),
                           min_size=1, max_size=4),
           max_depth=st.integers(1, 6), ucb_c=st.floats(0.0, 30.0),
           seed=st.integers(0, 2**32))
    def test_toy_models(self, kind, rounds, max_depth, ucb_c, seed):
        # three actions each, so that every drawn mask fits every model
        if kind == "recording":
            model, belief = RecordingModel(3), ParticleBelief([()], target_size=1)
        else:
            model = ChainModel() if kind == "chain" else BanditModel()
            belief = chain_belief(5)
        cfg = SolverConfig(max_depth=max_depth, ucb_c=ucb_c)
        root, rng = BeliefNode(model.n_actions, belief), Random(seed)
        for episodes, allowed in rounds:
            before = root.n_visits
            plan_step(root, model, cfg, rng, allowed=allowed, episodes=episodes)
            assert root.n_visits == before + episodes
            assert_tree_invariants(root, model, cfg)

    @settings(max_examples=25, deadline=None)
    @given(sc=short_flight(), seed=st.integers(0, 2**32),
           masks=st.lists(allowed_masks(len(ActionCmd)), min_size=1, max_size=3))
    def test_generative_model_on_drawn_worlds(self, sc, seed, masks):
        # a bootstrapped tree, searched again after each real step under
        # each drawn root mask, so reused subtrees are checked too
        cfg, scfg = sc.cfg, sc.solver
        cam, occupancy = CameraIntrinsics(), sc.truth.obstacles
        model = GenerativeModel(cfg, RewardParams(), cam, occupancy=occupancy,
                                cov_map=CoverageMap(cfg.survey, cell_size=cfg.obs_cell))
        rng = Random(seed)
        start = EnuPoint(cfg.survey.x_min + 1.0, cfg.survey.y_min + 1.0, cfg.z_max)
        root = bootstrap(model, initial_belief(cfg, scfg.n_particles, rng, start=start),
                         scfg, rng)
        assert root.n_visits == scfg.bootstrap_episodes
        assert_tree_invariants(root, model, scfg)
        pose = PomdpState(start.x, start.y, start.z, victim_present=False)
        for allowed in masks:
            before = root.n_visits
            action = plan_step(root, model, scfg, rng, allowed=allowed)
            assert root.n_visits == before + scfg.episodes_per_step
            assert_tree_invariants(root, model, scfg)
            pose = transition(pose, ActionCmd(action), cfg, cam, occupancy, rng,
                              geofence=True)
            if pose.f_crash:
                break
            obs = generate_observation(pose, ActionCmd(action), cam, cfg, occupancy, rng)
            root = advance_belief(root, action, obs, model, scfg, rng)
            assert_tree_invariants(root, model, scfg)
