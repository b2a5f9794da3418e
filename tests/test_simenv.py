from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentmesh import simenv
from agentmesh.config import default_policy_spec
from agentmesh.errors import BadConfig, UnknownCard
from agentmesh.orchestrator import execute_episode
from agentmesh.registry import AgentCard
from agentmesh.router import RoutingWeights
from agentmesh.simenv import (
    LOAD_DECAY,
    GeneratorConfig,
    PrecomputedSeed,
    SimAgentConfig,
    TaskClass,
    TaskSpec,
    WorldConfig,
    episode_seeds,
    goal_token,
    preset_case_study,
    sample_task,
    seed_rows,
    seed_states,
)
from agentmesh.trajectory import SOURCE_CORE, extract_answer_span
from agentmesh.vocab import ACTION_OPEN, WRONG


def single_agent_world(success=1.0, base=50.0, jitter=0.0, load_per_call=0.1,
                       direct_prob=0.0):
    card = AgentCard("na-1", "native", frozenset({"network_analysis"}))
    agent = SimAgentConfig(card, {"network_analysis": success},
                          latency_base_ms=base, latency_jitter_ms=jitter,
                          load_per_call=load_per_call)
    generator = GeneratorConfig(classes=(
        TaskClass("direct", direct_prob, None, ("ack",), 100.0),
        TaskClass("network_analysis", 1.0 - direct_prob, "network_analysis",
                  ("congestion", "link_failure"), 500.0),
    ))
    return WorldConfig(agents=(agent,), generator=generator)


class TestSampleTask:
    def test_single_class_always_drawn(self):
        gen = GeneratorConfig(classes=(
            TaskClass("direct", 1.0, None, ("ack",), 100.0),
        ))
        rng = np.random.default_rng(0)
        for _ in range(20):
            task = sample_task(gen, rng)
            assert task.task_class is gen.classes[0]
            assert task.ground_truth == "ack"
            assert task.feature_vector == (1.0,)

    def test_class_frequencies_match_probabilities(self):
        gen = GeneratorConfig(classes=(
            TaskClass("a", 0.5, None, ("ack",), 100.0),
            TaskClass("b", 0.5, None, ("nack",), 100.0),
        ))
        rng = np.random.default_rng(42)
        draws = [sample_task(gen, rng).feature_vector[0] for _ in range(10_000)]
        freq_a = sum(draws) / len(draws)
        assert abs(freq_a - 0.5) <= 0.05

    def test_bad_probability_sum(self):
        with pytest.raises(BadConfig, match="must sum to 1"):
            GeneratorConfig(classes=(
                TaskClass("a", 0.5, None, ("ack",), 100.0),
                TaskClass("b", 0.3, None, ("nack",), 100.0),
            ))

    def test_seeded_draws_reproduce(self):
        gen = preset_case_study().generator
        a = [sample_task(gen, np.random.default_rng(5)).task_id for _ in range(1)]
        b = [sample_task(gen, np.random.default_rng(5)).task_id for _ in range(1)]
        assert a == b

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 1e6), min_size=1,
                    max_size=6).filter(lambda w: sum(w) > 0),
           st.integers(0, 2**63))
    def test_draws_what_generator_choice_draws(self, weights, seed):
        # zero-probability classes and tied probabilities are common
        total = sum(weights)
        config = GeneratorConfig(tuple(
            TaskClass(f"c{i}", w / total, None, tuple(f"t{j}" for j in range(1 + i % 3)))
            for i, w in enumerate(weights)))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert sample_task(config, ours) == choice_sample_task(config, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_a_one_answer_pool_draws_nothing_for_its_answer(self):
        # rng.integers(1) returns 0 without drawing; classes of pools of 1 to 5
        config = GeneratorConfig(tuple(
            TaskClass(f"c{n}", 0.2, None, tuple(f"t{j}" for j in range(n))) for n in range(1, 6)))
        for seed in range(200):
            ours, theirs = np.random.default_rng([seed, 5]), np.random.default_rng([seed, 5])
            for _ in range(100):
                assert sample_task(config, ours) == choice_sample_task(config, theirs)
            assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1,
                    max_size=6).filter(lambda w: sum(w) > 0),
           st.integers(0, 2**32 - 1))
    def test_a_drawn_task_carries_its_class_and_goal_token(self, weights, seed):
        # class names differ from their actions, and from four classes on two
        # classes share an action, so the goal token cannot come from the action
        total = sum(weights)
        generator = GeneratorConfig(tuple(
            TaskClass(f"c{i}", w / total, (None, "a0", "a1")[i % 3], ("ack",))
            for i, w in enumerate(weights)))
        card = AgentCard("both", "native", frozenset({"a0", "a1"}))
        world = WorldConfig((SimAgentConfig(card, {"a0": 0.5, "a1": 0.5}),), generator)
        spec = default_policy_spec(world, max_steps=4)
        rng = np.random.default_rng(seed)
        theta = rng.normal(0.0, 2.0, spec.zero_params().shape)
        registry = world.build_registry()
        for i in range(10):
            task = sample_task(generator, rng)
            assert task.task_class is generator.classes[task.feature_vector.index(1.0)]
            traj, outcome, _ = execute_episode(task, theta, spec, registry, RoutingWeights(),
                                               world.build_env([seed, i]), rng)
            payloads = [seg.tokens[2] for seg in traj.segments
                        if seg.source == SOURCE_CORE and seg.tokens[0] == ACTION_OPEN]
            assert payloads == [goal_token(task.task_class.name)] * len(outcome.delegations)


def choice_sample_task(config: GeneratorConfig, rng: np.random.Generator) -> TaskSpec:
    """``sample_task`` with the class drawn by ``Generator.choice``."""
    probs = np.array([c.probability for c in config.classes])
    idx = int(rng.choice(len(config.classes), p=probs))
    cls = config.classes[idx]
    answer = cls.answer_pool[int(rng.integers(len(cls.answer_pool)))]
    features = tuple(1.0 if i == idx else 0.0 for i in range(len(config.classes)))
    serial = int(rng.integers(1 << 30))
    return TaskSpec(f"{cls.name}-{serial}", features, cls, answer)


# Seed words that SeedSequence takes as one uint32 word, the largest such, and
# two that it splits into several.
seed_words = st.sampled_from([0, 2**32 - 1, 2**32, 2**64]) | st.integers(0, 2**70)


class TestStream:
    """An env's stream, and every stream the program draws from, is
    ``np.random.default_rng`` of its seed: words or an ``episode_seeds`` seed."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(seed_words, max_size=6) | seed_words)
    def test_an_env_streams_as_default_rng_of_its_words(self, seed):
        ours, theirs = preset_case_study().build_env(seed).rng, np.random.default_rng(seed)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert np.array_equal(ours.random(8), theirs.random(8))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9))
    def test_a_precomputed_seed_is_the_stream_of_default_rng(self, row):
        words = np.array(row, dtype=np.uint32)
        seed = PrecomputedSeed(seed_states(words[None])[0])
        ours = np.random.default_rng(words)
        state, doubles = ours.bit_generator.state, ours.random(8)
        for theirs in (np.random.default_rng(seed), preset_case_study().build_env(seed).rng,
                       np.random.Generator(np.random.PCG64(seed))):
            assert theirs.bit_generator.state == state
            assert np.array_equal(theirs.random(8), doubles)

    def test_an_env_rejects_what_default_rng_rejects(self):
        for seed in ([1, -1], -1, [1.5]):
            with pytest.raises((TypeError, ValueError)):
                np.random.default_rng(seed)
            with pytest.raises((TypeError, ValueError)):
                preset_case_study().build_env(seed).rng

    def test_an_env_builds_its_stream_on_first_use(self, streams_built):
        env = preset_case_study().build_env([3, 1, 0])
        assert streams_built == []
        first = env.rng
        assert streams_built == [[3, 1, 0]]
        assert env.rng is first and streams_built == [[3, 1, 0]]
        assert first.bit_generator.state == np.random.default_rng([3, 1, 0]).bit_generator.state


# One uint32 word, with both ends; rows of 1 to 9 words, shorter and longer
# than SeedSequence's pool of 4.
uint32_words = st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1)
word_rows = st.integers(1, 9).flatmap(lambda k: st.lists(
    st.lists(uint32_words, min_size=k, max_size=k), min_size=1, max_size=4))


@st.composite
def word_ranges(draw):
    """A range of at most 3 words in [0, 2**32)."""
    n, step = draw(st.integers(0, 3)), draw(st.integers(1, 2**30))
    start = draw(st.integers(0, 2**32 - 1 - max(n - 1, 0) * step))
    return range(start, start + n * step, step)


class TestSeedStates:
    @settings(max_examples=200, deadline=None)
    @given(word_rows)
    def test_each_row_seeds_the_stream_of_its_words(self, rows):
        words = np.array(rows, dtype=np.uint32)
        states = seed_states(words)
        assert states.shape == (len(rows), 4) and states.dtype == np.uint64
        for row, state in zip(words, states):
            assert np.array_equal(state, np.random.SeedSequence(row).generate_state(4, np.uint64))
            ours = np.random.default_rng(PrecomputedSeed(state))
            theirs = np.random.default_rng(row)
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert np.array_equal(ours.random(8), theirs.random(8))

    @settings(max_examples=100, deadline=None)
    @given(word_rows, st.integers(0, 12), st.sampled_from([np.uint32, np.uint64]))
    def test_any_other_state_request_is_rejected(self, rows, n_words, dtype):
        # a precomputed seed is PCG64's state and nothing else: no words to hash again
        seed = PrecomputedSeed(seed_states(np.array(rows[:1], dtype=np.uint32))[0])
        assert isinstance(seed, np.random.bit_generator.ISeedSequence)
        if n_words == 4 and dtype == np.uint64:
            assert seed.generate_state(n_words, dtype) is seed.state
        else:
            with pytest.raises(ValueError):
                seed.generate_state(n_words, dtype)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(seed_words, min_size=1, max_size=3),
           st.lists(st.lists(uint32_words, min_size=1, max_size=3), min_size=1, max_size=4),
           word_ranges())
    def test_episode_seeds_are_the_streams_of_their_words(self, prefix, axes, span):
        # a range axis gives the seeds of the equal list axis
        by_range = episode_seeds(prefix, span, axes[0])
        by_list = episode_seeds(prefix, list(span), axes[0])
        assert by_range.shape == by_list.shape == (len(span), len(axes[0]))
        assert all(np.array_equal(r.state, w.state) for r, w in zip(by_range.flat, by_list.flat))
        # a prefix int of 2**32 or more is split into words as SeedSequence splits it
        seeds = episode_seeds(prefix, *axes)
        assert type(seeds) is np.ndarray and seeds.dtype == object
        assert seeds.shape == tuple(map(len, axes))
        with pytest.raises(ValueError):
            seeds[(0,) * len(axes)] = None
        for index in np.ndindex(seeds.shape):  # one seed per word of each axis
            words = [*prefix, *(axis[j] for axis, j in zip(axes, index))]
            ours, theirs = np.random.default_rng(seeds[index]), np.random.default_rng(words)
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert np.array_equal(ours.random(8), theirs.random(8))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(seed_words, min_size=1, max_size=2), st.integers(1, 7),
           st.integers(0, 2**32 - 21), st.integers(0, 20),
           st.lists(st.lists(uint32_words, max_size=3), min_size=1, max_size=3))
    @example([5], 3, 0, 7, [[], [0, 1]])  # an empty axis: empty rows, and no division by 0
    @example([5], 1, 0, 4, [[0, 1, 2], [0, 1]])  # fewer rollouts per pass than a row holds
    def test_seed_rows_are_the_rows_of_episode_seeds_a_pass_at_a_time(
            self, prefix, block, start, n_rows, axes):
        rows, calls = range(start, start + n_rows), []

        def counting(*args):
            calls.append(args)
            return episode_seeds(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simenv, "SEED_BLOCK", block)
            patch.setattr(simenv, "episode_seeds", counting)
            yielded = list(seed_rows(prefix, rows, *axes))
        expected = episode_seeds(prefix, rows, *axes)
        assert len(yielded) == len(expected)
        for ours, theirs in zip(yielded, expected):
            assert ours.shape == theirs.shape
            assert all(np.array_equal(o.state, t.state) for o, t in zip(ours.flat, theirs.flat))
        per_pass = max(block // max(int(np.prod([len(a) for a in axes[:-1]])), 1), 1)
        assert len(calls) == -(-len(rows) // per_pass)

    def test_seed_rows_hash_a_pass_only_when_its_first_row_is_asked_for(self, monkeypatch):
        # a train of MAX_ITERATIONS holds one pass of seeds, not all of them
        passes = []

        def counting(prefix, rows, *axes):
            passes.append(rows)
            return episode_seeds(prefix, rows, *axes)

        monkeypatch.setattr(simenv, "episode_seeds", counting)
        row = next(seed_rows([1], range(1, 2**32), [0], range(8), range(2)))
        assert passes == [range(1, 129)]  # 1,024 rollouts of 8
        assert row.shape == (1, 8, 2)
        for (i, s), seed in np.ndenumerate(row[0]):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng([1, 1, 0, i, s])
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_a_negative_seed_is_rejected_as_default_rng_rejects_it(self):
        with pytest.raises(ValueError):
            np.random.default_rng([-1, 0])
        with pytest.raises(ValueError):
            episode_seeds([-1], [0])

    @pytest.mark.parametrize("axis", [[2**32], [-1], [2**64], range(2**32 - 1, 2**32 + 1)])
    def test_an_axis_word_outside_32_bits_is_rejected(self, axis):
        # not wrapped into 32 bits, which would hand out the stream of another word
        with pytest.raises(ValueError, match=r"axis words must be in \[0, 2\*\*32\)"):
            episode_seeds([1], axis)


class TestInvokeAgent:
    def invoke(self, world, task, card_id="na-1", action="network_analysis", seed=0):
        env = world.build_env(seed)
        return env, env.invoke_agent(card_id, action, task)

    def na_task(self, world, seed=0):
        rng = np.random.default_rng(seed)
        while True:
            task = sample_task(world.generator, rng)
            if task.task_class.required_action == "network_analysis":
                return task

    def test_certain_success_returns_ground_truth(self):
        world = single_agent_world(success=1.0)
        task = self.na_task(world)
        _, resp = self.invoke(world, task)
        assert resp.succeeded
        assert extract_answer_span(resp.raw_tokens) == (task.ground_truth,)

    def test_certain_failure_returns_wrong_token(self):
        world = single_agent_world(success=0.0)
        task = self.na_task(world)
        _, resp = self.invoke(world, task)
        assert not resp.succeeded
        span = extract_answer_span(resp.raw_tokens)
        assert span == (WRONG,)
        assert span != (task.ground_truth,)

    def test_off_target_action_never_returns_ground_truth(self):
        world = single_agent_world(success=1.0, direct_prob=1.0)
        rng = np.random.default_rng(0)
        task = sample_task(world.generator, rng)  # direct task, no required action
        _, resp = self.invoke(world, task)
        assert extract_answer_span(resp.raw_tokens) == (WRONG,)

    def test_latency_formula_without_jitter_or_load(self):
        world = single_agent_world(base=50.0, jitter=0.0)
        task = self.na_task(world)
        _, resp = self.invoke(world, task)
        assert resp.latency_ms == pytest.approx(50.0)

    def test_latency_grows_with_load(self):
        world = single_agent_world(base=50.0, jitter=0.0, load_per_call=0.5)
        task = self.na_task(world)
        env = world.build_env(0)
        first = env.invoke_agent("na-1", "network_analysis", task)
        second = env.invoke_agent("na-1", "network_analysis", task)
        # load after first call: 0.5, decayed to 0.45 before the second
        assert first.latency_ms == pytest.approx(50.0)
        assert second.latency_ms == pytest.approx(50.0 * 1.45)

    def test_unknown_card(self):
        world = single_agent_world()
        task = self.na_task(world)
        env = world.build_env(0)
        with pytest.raises(UnknownCard):
            env.invoke_agent("ghost", "network_analysis", task)

    def test_unsupported_action(self):
        # the card advertises "slicing", but its simulator does not serve it
        card = AgentCard("na-1", "native", frozenset({"network_analysis", "slicing"}))
        stale = SimAgentConfig(card, {"network_analysis": 1.0})
        world = replace(single_agent_world(), agents=(stale,))
        task = self.na_task(world)
        env, resp = self.invoke(world, task, action="slicing")
        assert not resp.succeeded
        assert extract_answer_span(resp.raw_tokens) == (WRONG,)
        assert resp.latency_ms > 0
        assert env.loads == {"na-1": stale.load_per_call}

    def test_loads_stay_clamped(self):
        world = single_agent_world(load_per_call=0.9)
        task = self.na_task(world)
        env = world.build_env(0)
        for _ in range(10):
            env.invoke_agent("na-1", "network_analysis", task)
            assert 0.0 <= env.loads["na-1"] <= 1.0

    def test_seeded_reproducibility(self):
        world = single_agent_world(success=0.5, jitter=10.0)
        task = self.na_task(world)

        def run(seed):
            env = world.build_env(seed)
            return [
                (r.succeeded, r.latency_ms, r.raw_tokens)
                for r in (env.invoke_agent("na-1", "network_analysis", task)
                          for _ in range(5))
            ]

        assert run([1, 2]) == run([1, 2])
        assert run([1, 2]) != run([3, 4])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-6, 1e6), st.floats(0.0, 1.0), st.integers(0, 2**63))
    def test_jitter_is_what_generator_uniform_draws(self, jitter, success, seed):
        world = single_agent_world(success=success, jitter=jitter, load_per_call=0.3)
        task = self.na_task(world)
        env, twin = world.build_env(seed), np.random.default_rng(seed)
        load = 0.0
        for _ in range(5):
            response = env.invoke_agent("na-1", "network_analysis", task)
            load *= LOAD_DECAY
            latency = 50.0 * (1.0 + load) + float(twin.uniform(0.0, jitter))
            assert np.float64(response.latency_ms).tobytes() == np.float64(latency).tobytes()
            assert response.succeeded == bool(twin.random() < success)
            load = min(1.0, load + 0.3)
        assert env.rng.bit_generator.state == twin.bit_generator.state

    def test_empirical_success_rate(self):
        p = 0.7
        world = single_agent_world(success=p)
        task = self.na_task(world)
        env = world.build_env(123)
        n = 2000
        hits = sum(
            env.invoke_agent("na-1", "network_analysis", task).succeeded
            for _ in range(n)
        )
        tolerance = 3 * (p * (1 - p) / n) ** 0.5
        assert abs(hits / n - p) <= tolerance


def three_agent_world():
    agents = tuple(
        SimAgentConfig(AgentCard(cid, "native", frozenset({"network_analysis"})),
                       {"network_analysis": 1.0}, latency_base_ms=base,
                       load_per_call=per_call)
        for cid, base, per_call in (("a", 40.0, 0.3), ("b", 55.0, 0.5), ("c", 70.0, 0.2))
    )
    generator = GeneratorConfig(classes=(
        TaskClass("network_analysis", 1.0, "network_analysis", ("congestion",)),
    ))
    return WorldConfig(agents=agents, generator=generator)


class TestLoads:
    """An env stores loads only for the agents it called; every other load is
    0, which decays to 0, so it must match an env that decays every load."""

    def test_matches_decaying_every_load_on_every_call(self):
        world = three_agent_world()
        env = world.build_env(0)
        task = sample_task(world.generator, np.random.default_rng(0))
        agents = {a.card.card_id: a for a in world.agents}
        dense = dict.fromkeys(agents, 0.0)
        expected_total, total = 0.0, 0.0
        for called, cid in enumerate("abac", start=1):
            for other in dense:
                dense[other] *= LOAD_DECAY
            latency = agents[cid].latency_base_ms * (1.0 + dense[cid])
            dense[cid] = min(1.0, dense[cid] + agents[cid].load_per_call)
            expected_total += latency
            resp = env.invoke_agent(cid, "network_analysis", task)
            total += resp.latency_ms
            assert resp.latency_ms == latency
            assert set(env.loads) == set("abac"[:called])
            assert {c: env.loads.get(c, 0.0) for c in dense} == dense
        assert total == expected_total

    def test_fresh_envs_have_no_loads_and_share_the_agent_map(self):
        world = three_agent_world()
        first, second = world.build_env(0), world.build_env(1)
        assert first.loads == {} and second.loads == {}
        assert first.agents is second.agents


class TestPresetCaseStudy:
    def test_one_agent_per_action(self):
        world = preset_case_study()
        reg = world.build_registry()
        assert len(reg.discover("network_analysis")) == 1
        assert len(reg.discover("protocol_query")) == 1

    def test_all_three_classes_appear(self):
        world = preset_case_study()
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(1000):
            task = sample_task(world.generator, rng)
            seen.add(task.feature_vector.index(1.0))
        assert seen == {0, 1, 2}

    def test_ground_truths_in_answer_pool(self):
        world = preset_case_study()
        rng = np.random.default_rng(3)
        for _ in range(100):
            task = sample_task(world.generator, rng)
            assert task.ground_truth in task.task_class.answer_pool

    def test_class_probs_configurable(self):
        world = preset_case_study(class_probs=(1.0, 0.0, 0.0))
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sample_task(world.generator, rng).task_class.required_action is None
