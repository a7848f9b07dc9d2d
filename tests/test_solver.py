"""Tree-search planner on small fully-checkable models."""

import itertools
import math
import statistics
from dataclasses import replace
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from skysearch import solver
from skysearch.coverage import CoverageMap, Rect
from skysearch.geometry import CameraIntrinsics, EnuPoint
from skysearch.model import (ActionCmd, GenerativeModel, ModelConfig, Observation,
                             PomdpState, RewardParams, generate_observation,
                             initial_belief, transition)
from skysearch.solver import (BeliefNode, ParticleBelief, SolverConfig, advance_belief,
                              bootstrap, plan_step)
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

    def step(self, s, a, rng, keyed=True):
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
        s2, key, _, _ = self.step(s, a, rng)
        return s2, key

    def obs_key_of(self, observed):
        return observed

    def is_terminal(self, s):
        return False

    def reinvigorate(self, observed, donors, n, rng):
        return [observed] * n

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
                    s2, _, r, term = self.step(s, a, None)
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

    def step(self, s, a, rng, keyed=True):
        return s, 0, self.MEANS[a] + rng.gauss(0.0, 0.5), True

    def resimulate(self, s, a, rng):
        return s, 0

    def obs_key_of(self, observed):
        return observed

    def is_terminal(self, s):
        return False

    def reinvigorate(self, observed, donors, n, rng):
        return [2] * n


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

    def step(self, s, a, rng, keyed=True):
        self.calls.append((s, a))
        s2 = s + (a,)
        return s2, s2, rng.random() * (a + 1) / self.n_actions, False

    def resimulate(self, s, a, rng):
        return s + (a,), s + (a,)

    def obs_key_of(self, observed):
        return observed

    def is_terminal(self, s):
        return False

    def reinvigorate(self, observed, donors, n, rng):
        return [observed] * n

    def tried(self, state):
        """The actions the search stepped from ``state``, in order."""
        return [a for s, a in self.calls if s == state]


def chain_belief(n=2000):
    return ParticleBelief([2] * n)


def allowed_masks(n_actions):
    """``None`` (every action) or a non-empty subset of the actions."""
    return st.one_of(st.none(), st.lists(st.integers(0, n_actions - 1), min_size=1,
                                         max_size=n_actions, unique=True))


# The recursive search that ``solver._search``'s loop replaced, kept as the
# reference the loop must match draw for draw and statistic for statistic.

def reference_simulate(node, state, depth, model, cfg, rng, allowed=None):
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
        best = -math.inf
        for a in actions:
            e = edges[a]
            u = e.q + cfg.ucb_c * math.sqrt(log_n / e.n)
            if u > best:
                best = u
                action = a
    state2, key, r, terminal = model.step(state, action, rng)
    edge = edges[action]
    if edge is None:
        edge = edges[action] = solver._Edge()
    if terminal:
        total = r
    else:
        child = edge.children.get(key)
        if child is None:
            edge.children[key] = BeliefNode(model.n_actions)
            total = r + model.gamma * reference_rollout(state2, depth + 1, model, cfg, rng)
        else:
            total = r + model.gamma * reference_simulate(child, state2, depth + 1, model,
                                                         cfg, rng)
    node.n_visits += 1
    edge.n += 1
    edge.q += (total - edge.q) / edge.n
    return total


def reference_rollout(state, depth, model, cfg, rng):
    total = 0.0
    disc = 1.0
    for _ in range(depth, cfg.max_depth):
        state, _, r, terminal = model.step(state, rng.choice(range(model.n_actions)), rng,
                                           False)
        total += disc * r
        if terminal:
            break
        disc *= model.gamma
    return total


def reference_search(root, model, cfg, episodes, rng, allowed=None):
    """``plan_step``'s search, recursively, without the wall-clock mode."""
    bound = solver._return_bound(model, cfg) + 1e-9
    for _ in range(episodes):
        state = rng.choice(root.belief.particles)
        model.new_scratch()
        total = reference_simulate(root, state, 0, model, cfg, rng, allowed)
        assert abs(total) <= bound


def assert_same_tree(got, ref):
    """Equal visit counts, edge counts and means (exactly) and child keys,
    node by node."""
    stack = [(got, ref)]
    while stack:
        a, b = stack.pop()
        assert a.n_visits == b.n_visits
        assert len(a.edges) == len(b.edges)
        for ea, eb in zip(a.edges, b.edges):
            assert (ea is None) == (eb is None)
            if ea is not None:
                assert (ea.n, ea.q) == (eb.n, eb.q)
                assert ea.children.keys() == eb.children.keys()
                stack.extend((ea.children[k], eb.children[k]) for k in ea.children)


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

            def step(self, s, a, rng, keyed=True):
                return s, 0, 1.0, True

        flat = Flat()
        cfg = SolverConfig(episodes_per_step=300, ucb_c=2.0)
        for seed in (0, 1, 2, 3, 4):
            assert plan_step(BeliefNode(3, chain_belief()), flat, cfg, Random(seed)) == 0

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
        root = BeliefNode(model.n_actions, ParticleBelief([()]))
        plan_step(root, model, SolverConfig(episodes_per_step=400, max_depth=3, ucb_c=1.0),
                  Random(3))
        below = {s for s, _ in model.calls if s}
        n = model.n_actions
        for s in below:
            tried = model.tried(s)
            assert tried[:n] == list(range(min(len(tried), n)))
        assert sum(len(model.tried(s)) > n for s in below) >= n  # UCB took over

    def test_reused_root_tries_untried_allowed_actions_first(self, monkeypatch):
        monkeypatch.setattr(solver, "_rollout", lambda *args: 0.0)
        model = RecordingModel()
        cfg = SolverConfig(max_depth=3, n_particles=1)
        rng = Random(5)
        root = BeliefNode(model.n_actions, ParticleBelief([()]))
        # three episodes through action 0: its child is then visited twice
        # below the root and has tried actions 0 and 1
        plan_step(root, model, replace(cfg, episodes_per_step=3), rng, allowed=[0])
        root = advance_belief(root, 0, (0,), model, cfg, rng)
        assert [a for a, e in enumerate(root.edges) if e is not None] == [0, 1]
        model.calls.clear()
        plan_step(root, model, replace(cfg, episodes_per_step=20), rng, allowed=[1, 2, 4])
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
        cfg = SolverConfig(episodes_per_step=800, ucb_c=20.0, n_particles=200)
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
        cfg = SolverConfig(episodes_per_step=50, ucb_c=20.0, n_particles=200)
        root = BeliefNode(3, chain_belief(200))
        plan_step(root, model, cfg, Random(0))
        new_root = advance_belief(root, ChainModel.STAY, 2, model, cfg, Random(1))
        assert new_root.belief.survival_rate == 1.0
        assert len(new_root.belief.particles) == 200

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

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["chain", "recording"]), match=st.sampled_from(
               ["every", "some", "none"]), target=st.integers(1, 30),
           reinvig_frac=st.floats(0.0, 1.0), refresh_frac=st.floats(0.0, 1.0),
           taken=st.integers(0, 2), seed=st.integers(0, 2**32), data=st.data())
    def test_refill_invariants(self, kind, match, target, reinvig_frac, refresh_frac,
                               taken, seed, data):
        # the toy models are deterministic, so the survivors are known up
        # front; their reinvigorate returns the observation itself
        if kind == "chain":
            model, states = ChainModel(), st.integers(0, 4)
        else:
            model, states = RecordingModel(3), st.tuples(st.integers(0, 2))
        if match == "every":
            particles = [data.draw(states)] * target
        else:
            particles = data.draw(st.lists(states, min_size=target, max_size=target))
        keys = [model.resimulate(p, taken, None)[1] for p in particles]
        observed = "unseen" if match == "none" else keys[0]
        refills = []

        def reinvigorate(obs, donors, n, rng):
            refills.append((donors, n))
            return [obs] * n

        model.reinvigorate = reinvigorate
        cfg = SolverConfig(n_particles=target, reinvig_frac=reinvig_frac,
                           refresh_frac=refresh_frac)
        root = BeliefNode(model.n_actions, ParticleBelief(particles))
        belief = advance_belief(root, taken, observed, model, cfg, Random(seed)).belief
        assert len(belief.particles) == target
        assert 0.0 <= belief.survival_rate <= 1.0
        assert belief.survival_rate == keys.count(observed) / target
        [(donors, n)] = refills  # one call per refill,
        assert n >= 1  # which draws at least one fresh particle
        if observed not in keys:
            assert n == target
            assert donors is particles


def toy_model(kind):
    """One of the three toy models, with a belief to search from; a refill
    restores the belief's own size."""
    if kind == "recording":
        return RecordingModel(3), ParticleBelief([()])
    return (ChainModel() if kind == "chain" else BanditModel()), chain_belief(5)


def copied(belief):
    return ParticleBelief(list(belief.particles))


def realised_key(root, action, model):
    """The key of ``action``'s most visited child, else the first particle's key."""
    edge = root.edges[action]
    if edge is not None and edge.children:
        return max(edge.children, key=lambda k: edge.children[k].n_visits)
    return model.resimulate(root.belief.particles[0], action, Random(0))[1]


def subtree_stats(node):
    """Every visit count, mean and child key under ``node``, nested."""
    return node.n_visits, [None if e is None else (e.n, e.q, {
        k: subtree_stats(c) for k, c in e.children.items()}) for e in node.edges]


class TestAgainstRecursiveReference:
    # two identical roots and RNGs, one searched by ``plan_step``, the other
    # by the recursive reference, then both advanced across the same step

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["chain", "bandit", "recording"]),
           rounds=st.lists(st.tuples(st.integers(1, 60), allowed_masks(3)),
                           min_size=1, max_size=4),
           max_depth=st.integers(1, 6), ucb_c=st.floats(0.0, 30.0),
           seed=st.integers(0, 2**32))
    def test_toy_models(self, kind, rounds, max_depth, ucb_c, seed):
        model, belief = toy_model(kind)
        cfg = SolverConfig(max_depth=max_depth, ucb_c=ucb_c, n_particles=len(belief.particles))
        got, ref = BeliefNode(model.n_actions, belief), BeliefNode(model.n_actions, copied(belief))
        got_rng, ref_rng = Random(seed), Random(seed)
        for episodes, allowed in rounds:
            action = plan_step(got, model, replace(cfg, episodes_per_step=episodes), got_rng,
                               allowed=allowed)
            reference_search(ref, model, cfg, episodes, ref_rng, allowed)
            assert_same_tree(got, ref)
            assert got_rng.getstate() == ref_rng.getstate()
            observed = realised_key(got, action, model)
            got = advance_belief(got, action, observed, model, cfg, got_rng)
            ref = advance_belief(ref, action, observed, model, cfg, ref_rng)
            assert_same_tree(got, ref)

    @settings(max_examples=20, deadline=None)
    @given(sc=short_flight(), seed=st.integers(0, 2**32), max_depth=st.integers(1, 6),
           episodes=st.integers(1, 60),
           masks=st.lists(allowed_masks(len(ActionCmd)), min_size=1, max_size=3))
    def test_generative_model_on_drawn_worlds(self, sc, seed, max_depth, episodes, masks):
        cfg = sc.cfg
        scfg = replace(sc.solver, max_depth=max_depth, episodes_per_step=episodes,
                       bootstrap_episodes=episodes)
        cam, occupancy = CameraIntrinsics(), sc.truth.obstacles
        model = GenerativeModel(cfg, RewardParams(), cam, occupancy=occupancy,
                                cov_map=CoverageMap(cfg.survey, cell_size=cfg.obs_cell))
        start = EnuPoint(cfg.survey.x_min + 1.0, cfg.survey.y_min + 1.0, cfg.z_max)
        belief = initial_belief(cfg, scfg.n_particles, Random(seed), start=start)
        got_rng, ref_rng, world = Random(seed + 1), Random(seed + 1), Random(seed + 2)
        got = bootstrap(model, belief, scfg, got_rng)
        ref = BeliefNode(model.n_actions, copied(belief))
        reference_search(ref, model, scfg, scfg.bootstrap_episodes, ref_rng)
        assert_same_tree(got, ref)
        assert got_rng.getstate() == ref_rng.getstate()
        pose = PomdpState(start.x, start.y, start.z, victim_present=False)
        for allowed in masks:
            action = plan_step(got, model, scfg, got_rng, allowed=allowed)
            reference_search(ref, model, scfg, scfg.episodes_per_step, ref_rng, allowed)
            assert_same_tree(got, ref)
            assert got_rng.getstate() == ref_rng.getstate()
            pose = transition(pose, ActionCmd(action), cfg, cam, occupancy, world,
                              geofence=True)
            if pose.f_crash:
                break
            obs = generate_observation(pose, ActionCmd(action), cam, cfg, occupancy, world)
            got = advance_belief(got, action, obs, model, scfg, got_rng)
            ref = advance_belief(ref, action, obs, model, scfg, ref_rng)
            assert_same_tree(got, ref)


class FirstStates:
    """Every step ends the episode and draws nothing, so the states stepped
    from are the search's particle draws, in order."""

    n_actions = 1
    gamma = 0.5
    max_abs_reward = 0.0

    def __init__(self):
        self.states = []

    def new_scratch(self):
        return None

    def step(self, s, a, rng, keyed=True):
        self.states.append(s)
        return s, 0, 0.0, True


class Unfolding:
    """Every step reaches a new state that is its own key, and draws
    nothing, so one episode expands the root's first action and rolls out
    to ``max_depth``; records the rollout's actions."""

    gamma = 1.0
    max_abs_reward = 0.0

    def __init__(self, n_actions):
        self.n_actions = n_actions
        self.rolled = []

    def new_scratch(self):
        return None

    def step(self, s, a, rng, keyed=True):
        if not keyed:
            self.rolled.append(a)
        return s + 1, s + 1, 0.0, False


class Survivors:
    """Every particle survives every step unchanged, and a refill draws
    nothing, so a refill's resampled particles name the survivors drawn."""

    n_actions = 1

    def resimulate(self, s, a, rng):
        return s, 0

    def obs_key_of(self, observed):
        return observed

    def is_terminal(self, s):
        return False

    def reinvigorate(self, observed, donors, n, rng):
        return [None] * n


class TestDraws:
    # the search inlines ``Random.choice``'s bounded draw; it must give the
    # same values and leave the same RNG state as ``choice`` and ``randrange``
    SIZES = (1, 2, 3, 7, 8, 2000, 2048)

    @pytest.mark.parametrize("n", SIZES)
    def test_particle_draw_is_random_choice(self, n):
        model, particles = FirstStates(), list(range(n))
        rng, by_choice, by_randrange = Random(n), Random(n), Random(n)
        plan_step(BeliefNode(1, ParticleBelief(particles)), model,
                  SolverConfig(episodes_per_step=300), rng)
        assert model.states == [by_choice.choice(particles) for _ in range(300)]
        assert model.states == [by_randrange.randrange(n) for _ in range(300)]
        assert rng.getstate() == by_choice.getstate() == by_randrange.getstate()

    @pytest.mark.parametrize("n", SIZES)
    def test_rollout_draw_is_random_choice(self, n):
        model = Unfolding(n)
        rng, by_choice, by_randrange = Random(n), Random(n), Random(n)
        plan_step(BeliefNode(n, ParticleBelief([0])), model,
                  SolverConfig(episodes_per_step=1, max_depth=300), rng)
        by_choice.choice([0])  # the particle draw
        by_randrange.randrange(1)
        assert model.rolled == [by_choice.choice(range(n)) for _ in range(299)]
        assert model.rolled == [by_randrange.randrange(n) for _ in range(299)]
        assert rng.getstate() == by_choice.getstate() == by_randrange.getstate()

    def test_survivor_resample_is_random_randrange(self):
        # n survivors of a belief whose target is n + 201: no fresh share
        # beyond the one particle, so 200 survivors are resampled
        for n in range(1, 301):
            cfg = SolverConfig(n_particles=n + 201, reinvig_frac=0.0, refresh_frac=0.0)
            root = BeliefNode(1, ParticleBelief(list(range(n))))
            rng, by_randrange = Random(n), Random(n)
            particles = advance_belief(root, 0, 0, Survivors(), cfg, rng).belief.particles
            assert particles[:n] == list(range(n)) and particles[-1] is None
            assert particles[n:-1] == [by_randrange.randrange(n) for _ in range(200)]
            assert rng.getstate() == by_randrange.getstate()

    @pytest.mark.parametrize("step_seconds", [None, 0.05])
    def test_empty_belief_raises_at_once(self, step_seconds):
        # a bounded draw below 0 would take ``getrandbits(0)``, which is
        # always 0, forever
        with pytest.raises(IndexError):
            plan_step(BeliefNode(3, ParticleBelief([])), ChainModel(),
                      SolverConfig(step_seconds=step_seconds), Random(0))


class TestConfigValidation:
    def test_budgets_must_be_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(episodes_per_step=0)
        with pytest.raises(ValueError):
            SolverConfig(max_depth=0)

    # 1e308 ended the first engaged step in an OverflowError; 10**400
    # episodes overflow converting to float
    @pytest.mark.parametrize("episodes, boost", [(128, 1e308), (10**400, 4.0),
                                                 (10**400, 1e-300)],
                             ids=["boost_1e308", "episodes_1e400", "episodes_1e400_boost_1e-300"])
    def test_engaged_budget_must_be_finite(self, episodes, boost):
        with pytest.raises(ValueError, match="engaged_boost"):
            SolverConfig(episodes_per_step=episodes, engaged_boost=boost)

    def test_wall_clock_mode_stops(self):
        import time
        model = ChainModel()
        cfg = SolverConfig(episodes_per_step=10, ucb_c=20.0, step_seconds=0.05)
        t0 = time.monotonic()
        plan_step(BeliefNode(3, chain_belief()), model, cfg, Random(0))
        assert time.monotonic() - t0 < 1.0

    @pytest.mark.parametrize("step_seconds", [0.01, 0.064, 0.0641, 0.5])
    def test_wall_clock_mode_stops_at_the_first_check_past_its_deadline(
            self, monkeypatch, step_seconds):
        # the fake clock reads a millisecond per root visit; the search reads
        # it once for its deadline, then after every 64th episode
        model = ChainModel()
        root = BeliefNode(3, chain_belief())
        plan_step(root, model, SolverConfig(episodes_per_step=10, ucb_c=20.0), Random(0))
        reads = []

        def monotonic():
            reads.append(root.n_visits)
            return root.n_visits * 1e-3

        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=monotonic))
        deadline = 10 * 1e-3 + step_seconds
        k = next(k for k in itertools.count(64, 64) if (10 + k) * 1e-3 >= deadline)
        plan_step(root, model, SolverConfig(ucb_c=20.0, step_seconds=step_seconds),
                  Random(1))
        assert root.n_visits == 10 + k
        assert reads == [10] + list(range(10 + 64, 10 + k + 1, 64))


class TestSubtreeReuse:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["chain", "bandit", "recording"]),
           episodes=st.integers(1, 200), max_depth=st.integers(1, 6),
           ucb_c=st.floats(0.0, 30.0), taken=st.integers(0, 2),
           seed=st.integers(0, 2**32), data=st.data())
    def test_realised_child_keeps_every_statistic(self, kind, episodes, max_depth, ucb_c,
                                                  taken, seed, data):
        model, belief = toy_model(kind)
        cfg = SolverConfig(max_depth=max_depth, ucb_c=ucb_c, n_particles=len(belief.particles))
        root = BeliefNode(model.n_actions, belief)
        plan_step(root, model, replace(cfg, episodes_per_step=episodes), Random(seed))
        edge = root.edges[taken]
        if edge is not None and edge.children:
            observed = data.draw(st.sampled_from(sorted(edge.children)))
        else:
            observed = realised_key(root, taken, model)
        child = edge.children.get(observed) if edge is not None else None
        before = None if child is None else subtree_stats(child)
        new_root = advance_belief(root, taken, observed, model, cfg, Random(seed + 1))
        if child is None:  # the bandit's steps all end the episode
            assert subtree_stats(new_root) == (0, [None] * model.n_actions)
        else:
            assert new_root is child
            assert subtree_stats(new_root) == before


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


class TestTreeInvariants:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["chain", "bandit", "recording"]),
           rounds=st.lists(st.tuples(st.integers(1, 40), allowed_masks(3)),
                           min_size=1, max_size=4),
           max_depth=st.integers(1, 6), ucb_c=st.floats(0.0, 30.0),
           seed=st.integers(0, 2**32))
    def test_toy_models(self, kind, rounds, max_depth, ucb_c, seed):
        # three actions each, so that every drawn mask fits every model
        model, belief = toy_model(kind)
        cfg = SolverConfig(max_depth=max_depth, ucb_c=ucb_c)
        root, rng = BeliefNode(model.n_actions, belief), Random(seed)
        for episodes, allowed in rounds:
            before = root.n_visits
            plan_step(root, model, replace(cfg, episodes_per_step=episodes), rng, allowed=allowed)
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
