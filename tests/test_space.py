import math
from random import Random, SystemRandom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpp.space import (
    CATEGORICAL,
    INTEGER,
    REAL,
    SENTINEL,
    Condition,
    Parameter,
    ParameterSpace,
    SpaceParseError,
    compose_product_space,
    compose_selector_space,
    decode_product_config,
    default_config,
    encode_config,
    enumerate_configs,
    make_config,
    make_product_config,
    parse_config,
    parse_space,
    sample_config,
    serialize_config,
    serialize_space,
)
from acpp.synthetic import strategy_space

SIMPLE = """\
# a tiny space
alpha real [0.0, 1.0] [0.5]
level integer [1, 64] [8] log
strategy categorical {fast, careful, hybrid} [fast]

[conditions]
alpha | strategy in {careful, hybrid}
"""


# the spaces the benchmark draws its proposal pools from
POOL_SPACES = (
    strategy_space(6, with_tilt=True),
    compose_product_space(strategy_space(6, with_tilt=True), 2),
    compose_product_space(strategy_space(6, with_tilt=True), 3),
)


@pytest.fixture
def simple_space():
    return parse_space(SIMPLE)


class TestParse:
    def test_single_real_parameter(self):
        space = parse_space("alpha real [0.0, 1.0] [0.5]\n")
        assert len(space.parameters) == 1
        assert space["alpha"].kind == REAL
        assert space["alpha"].default == 0.5

    def test_comments_and_blank_lines_ignored(self, simple_space):
        assert [p.name for p in simple_space.parameters] == ["alpha", "level", "strategy"]
        assert simple_space["level"].log_scale

    def test_condition_parsed(self, simple_space):
        (cond,) = simple_space.conditions_of("alpha")
        assert cond.parent == "strategy"
        assert cond.activating == ("careful", "hybrid")

    def test_dangling_condition_errors(self):
        text = "a real [0, 1] [0.5]\n\n[conditions]\na | missing in {x}\n"
        with pytest.raises(SpaceParseError, match="missing"):
            parse_space(text)

    def test_duplicate_name_reports_line(self):
        text = "a real [0, 1] [0.5]\na integer [1, 3] [2]\n"
        with pytest.raises(SpaceParseError, match="line 2"):
            parse_space(text)

    def test_default_outside_domain(self):
        with pytest.raises(SpaceParseError, match="default"):
            parse_space("a real [0, 1] [1.5]\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(SpaceParseError, match="line 1"):
            parse_space("what even is this\n")

    def test_cycle_rejected(self):
        params = (
            Parameter("a", CATEGORICAL, choices=("x", "y"), default="x"),
            Parameter("b", CATEGORICAL, choices=("x", "y"), default="x"),
        )
        conds = (Condition("a", "b", ("x",)), Condition("b", "a", ("x",)))
        with pytest.raises(ValueError, match="cycle"):
            ParameterSpace(params, conds)

    def test_roundtrip(self, simple_space):
        again = parse_space(serialize_space(simple_space))
        assert again.parameters == simple_space.parameters
        assert again.conditions == simple_space.conditions


class TestSelectorComposition:
    def _multi(self):
        sub_a = parse_space("x real [0, 1] [0.5]\ny integer [1, 9] [3]\n")
        sub_b = parse_space("x real [0, 2] [1.0]\n")
        sub_c = parse_space("mode categorical {on, off} [on]\nz real [0, 1] [0.1]\n\n[conditions]\nz | mode in {on}\n")
        return compose_selector_space({"a": sub_a, "b": sub_b, "c": sub_c}, "solver")

    def test_only_selector_is_unconditional(self):
        space = self._multi()
        assert space.unconditional_names() == ("solver",)

    def test_activation_follows_selector(self):
        space = self._multi()
        config = make_config(space, {"solver": "b", "b.x": 1.5})
        assert "a.x" not in config
        # nested conditions survive composition
        config = make_config(
            space, {"solver": "c", "c.mode": "on", "c.z": 0.4}
        )
        assert config["c.z"] == 0.4
        config = make_config(space, {"solver": "c", "c.mode": "off"})
        assert "c.z" not in config


class TestConfigurations:
    def test_config_id_order_invariant(self, simple_space):
        a = make_config(simple_space, {"strategy": "careful", "alpha": 0.25, "level": 4})
        b = make_config(simple_space, {"level": 4, "alpha": 0.25, "strategy": "careful"})
        assert a.config_id == b.config_id
        assert a == b

    def test_inactive_assignment_rejected(self, simple_space):
        with pytest.raises(ValueError, match="inactive"):
            make_config(simple_space, {"strategy": "fast", "alpha": 0.5, "level": 8})

    def test_missing_active_rejected(self, simple_space):
        with pytest.raises(ValueError, match="missing"):
            make_config(simple_space, {"strategy": "careful", "level": 8})

    def test_out_of_domain_rejected(self, simple_space):
        with pytest.raises(ValueError):
            make_config(simple_space, {"strategy": "fast", "level": 65})

    def test_serialization_roundtrip(self, simple_space):
        config = make_config(simple_space, {"strategy": "hybrid", "alpha": 0.125, "level": 32})
        text = serialize_config(config)
        assert text == "alpha=0.125 level=32 strategy=hybrid"
        assert parse_config(simple_space, text) == config

    def test_default_config(self, simple_space):
        config = default_config(simple_space)
        assert config.assignments == {"strategy": "fast", "level": 8}


class TestSampling:
    def test_categorical_roughly_uniform(self):
        space = parse_space("c categorical {a, b} [a]\n")
        rng = Random(123)
        draws = 10_000
        hits = sum(1 for _ in range(draws) if sample_config(space, rng)["c"] == "a")
        assert abs(hits / draws - 0.5) < 0.05

    def test_single_parameter_assigned(self):
        space = parse_space("alpha real [0.0, 1.0] [0.5]\n")
        config = sample_config(space, 7)
        assert "alpha" in config
        assert 0.0 <= config["alpha"] <= 1.0

    def test_never_activated_child_never_appears(self):
        space = parse_space(
            "p categorical {a, b} [a]\nq real [0, 1] [0.5]\n\n[conditions]\nq | p in {c_never}\n",
        ) if False else None
        # an activating value outside the parent's domain is rejected, so
        # model the never-satisfied case with a chain through an inactive parent
        space = parse_space(
            "p categorical {a, b} [a]\n"
            "mid categorical {on, off} [on]\n"
            "q real [0, 1] [0.5]\n"
            "\n[conditions]\n"
            "mid | p in {b}\n"
            "q | mid in {off}\n"
        )
        for seed in range(200):
            config = sample_config(space, seed)
            if config["p"] == "a":
                assert "mid" not in config and "q" not in config
            else:
                assert "mid" in config
                assert ("q" in config) == (config["mid"] == "off")

    def test_deterministic_given_seed(self, simple_space):
        assert sample_config(simple_space, 42) == sample_config(simple_space, 42)

    @settings(max_examples=100)
    @given(st.integers())
    def test_activation_closure(self, seed):
        space = parse_space(
            "top categorical {u, v} [u]\n"
            "mid categorical {x, y} [x]\n"
            "leaf real [0, 1] [0.5]\n"
            "\n[conditions]\n"
            "mid | top in {v}\n"
            "leaf | mid in {y}\n"
        )
        config = sample_config(space, seed)
        assigned = set(config.assignments)
        assert assigned == set(space.active_set(config.assignments))

    def test_log_scale_sampling_in_domain(self):
        space = parse_space("rate real [0.001, 1000.0] [1.0] log\n")
        values = [sample_config(space, s)["rate"] for s in range(500)]
        assert all(0.001 <= v <= 1000.0 for v in values)
        # log-uniform: roughly half the mass below the geometric midpoint
        below = sum(1 for v in values if v < 1.0)
        assert 0.4 < below / len(values) < 0.6


def reference_sample_config(space, rng):
    """``sample_config`` as it was before the sampling plan: assignments
    drawn one parameter at a time, in topological order."""
    assignments = {}
    for name in space.topo_order:
        conds = space.conditions_of(name)
        if not all(c.parent in assignments and assignments[c.parent] in c.activating for c in conds):
            continue
        param = space[name]
        if param.kind == CATEGORICAL:
            assignments[name] = param.choices[rng.randrange(len(param.choices))]
        elif param.kind == INTEGER:
            if param.log_scale:
                value = int(round(math.exp(rng.uniform(math.log(param.lower), math.log(param.upper)))))
                assignments[name] = min(max(value, int(param.lower)), int(param.upper))
            else:
                assignments[name] = rng.randint(int(param.lower), int(param.upper))
        else:
            if param.log_scale:
                assignments[name] = math.exp(rng.uniform(math.log(param.lower), math.log(param.upper)))
            else:
                assignments[name] = rng.uniform(param.lower, param.upper)
    return make_config(space, assignments)


def reference_encode_config(space, config):
    """``encode_config`` without features as it was before the sampling plan."""
    out = np.empty(len(space.parameters))
    for i, param in enumerate(space.parameters):
        out[i] = param.normalize(config[param.name]) if param.name in config else SENTINEL
    return out


def random_space(rng, n_params):
    """Parameters of every kind declared in shuffled order, each conditioned
    on up to two earlier categoricals, so chains form."""
    params, conditions, categoricals = [], [], []
    for j in range(n_params):
        name = f"{rng.choice('abcxyz')}{j}"
        kind = rng.choice((CATEGORICAL, CATEGORICAL, INTEGER, REAL))
        log_scale = kind != CATEGORICAL and rng.random() < 0.5
        if kind == CATEGORICAL:
            choices = tuple(f"v{i}" for i in range(rng.randint(1, 5)))
            param = Parameter(name, kind, choices=choices, default=choices[0])
        elif kind == INTEGER:
            lower = rng.randint(1, 20) if log_scale else rng.randint(-20, 20)
            upper = lower + rng.choice((1, 3, 50, 5000))
            param = Parameter(name, kind, lower=lower, upper=upper, default=lower, log_scale=log_scale)
        else:
            lower = rng.choice((1e-4, 0.5, 3.0)) if log_scale else rng.uniform(-5.0, 5.0)
            upper = lower * rng.choice((2.0, 1e3, 1e6)) if log_scale else lower + rng.uniform(0.1, 10.0)
            param = Parameter(name, kind, lower=lower, upper=upper, default=upper, log_scale=log_scale)
        for parent in rng.sample(categoricals, min(len(categoricals), rng.choice((0, 1, 1, 2)))):
            active = rng.sample(parent.choices, rng.randint(1, len(parent.choices)))
            conditions.append(Condition(name, parent.name, tuple(active)))
        if kind == CATEGORICAL:
            categoricals.append(param)
        params.append(param)
    rng.shuffle(params)
    return ParameterSpace(tuple(params), tuple(conditions))


def random_composed_space(rng):
    shape = rng.choice(("plain", "selector", "product"))
    if shape == "plain":
        return random_space(rng, rng.randint(1, 9))
    if shape == "selector":
        subs = {f"s{i}": random_space(rng, rng.randint(1, 5)) for i in range(rng.randint(1, 3))}
        return compose_selector_space(subs, "solver")
    return compose_product_space(random_space(rng, rng.randint(1, 5)), rng.randint(1, 3))


class TestSamplingPlan:
    """The plan draws exactly what the one-parameter-at-a-time sampler drew."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_plan_matches_reference_sampler(self, seed):
        space = random_composed_space(Random(seed))
        plan = space.sampling_plan
        reference_rng, plan_rng, wrapper_rng = Random(seed), Random(seed), Random(seed)
        drawn = []
        for _ in range(40):
            expected = reference_sample_config(space, reference_rng)
            values = plan.draw(plan_rng)
            assert make_config(space, plan.assignments(values)) == expected
            assert sample_config(space, wrapper_rng) == expected
            assert plan.values_of(expected) == values
            drawn.append((values, expected))
        assert plan_rng.getstate() == reference_rng.getstate() == wrapper_rng.getstate()
        rows = plan.encode([values for values, _ in drawn])
        assert rows.shape == (len(drawn), len(space.parameters))
        for row, (_, config) in zip(rows, drawn):
            assert np.array_equal(row, reference_encode_config(space, config))
            assert np.array_equal(row, encode_config(space, config))
        pools = [(plan, m) for m in (1, 7, 128, 1000)]
        pools += [(pool.sampling_plan, m) for pool in POOL_SPACES for m in (128, 1000)]
        for pool_plan, m in pools:
            many_rng, scalar_rng = Random(seed + m), Random(seed + m)
            assert pool_plan.draw_many(many_rng, m) == [
                pool_plan.draw(scalar_rng) for _ in range(m)
            ]
            assert many_rng.getstate() == scalar_rng.getstate()

    def test_plan_covers_every_draw_rule(self):
        space = parse_space(
            "top categorical {u, v} [u]\n"
            "mid categorical {x, y} [x]\n"
            "leaf integer [1, 1000] [10] log\n"
            "rate real [0.001, 10.0] [0.1] log\n"
            "alpha real [0.0, 1.0] [0.5]\n"
            "n integer [0, 9] [4]\n"
            "\n[conditions]\n"
            "mid | top in {v}\n"
            "leaf | mid in {y}\n"
            "rate | top in {u}\n"
        )
        reference_rng, plan_rng = Random(5), Random(5)
        seen = set()
        for _ in range(300):
            expected = reference_sample_config(space, reference_rng)
            values = space.sampling_plan.draw(plan_rng)
            assert make_config(space, space.sampling_plan.assignments(values)) == expected
            seen.update(expected.assignments)
        assert seen == {p.name for p in space.parameters}
        assert plan_rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize(
        "text",
        [
            "alpha real [0.0, 1.0] [0.5]\n",
            "rate real [0.001, 10.0] [0.1] log\n",
            # two values out of domain: the first by name is reported
            "s categorical {a, b} [a]\nzeta real [0, 2] [1]\nbeta real [0, 3] [1]\n",
        ],
    )
    def test_out_of_domain_draw_raises_the_same_error(self, text, monkeypatch):
        space = parse_space(text)
        monkeypatch.setattr(Random, "uniform", lambda self, a, b: b + 1.0)
        with pytest.raises(ValueError) as reference_error:
            reference_sample_config(space, Random(0))
        with pytest.raises(ValueError) as plan_error:
            space.sampling_plan.draw(Random(0))
        with pytest.raises(ValueError) as wrapper_error:
            sample_config(space, Random(0))
        assert "outside domain" in str(reference_error.value)
        assert str(plan_error.value) == str(reference_error.value) == str(wrapper_error.value)

    @pytest.mark.parametrize(
        "text",
        [
            "n integer [0, 1099511627776] [0]\n",  # [0, 2**40]: two words per attempt
            "s categorical {a, b, c} [a]\n"
            "n integer [-5, 1180591620717411303424] [0]\n"  # [-5, 2**70]: three words
            "m integer [0, 4294967296] [0]\n"  # [0, 2**32]: bound 2**32 + 1
            "\n[conditions]\nn | s in {b, c}\n",
        ],
    )
    def test_draw_many_decodes_integer_domains_wider_than_one_word(self, text):
        plan = parse_space(text).sampling_plan
        for seed in range(20):
            for m in (1, 5, 300):
                many_rng, scalar_rng = Random(seed), Random(seed)
                drawn = plan.draw_many(many_rng, m)
                assert drawn == [plan.draw(scalar_rng) for _ in range(m)]
                assert many_rng.getstate() == scalar_rng.getstate()
        assert any(isinstance(value, int) and value > 2**32 for row in drawn for value in row)

    @pytest.mark.parametrize("seed", range(8))
    def test_draw_many_raises_the_scalar_domain_error(self, seed):
        # exp(log(upper)) rounds above upper, and these log domains are so
        # narrow that a draw lands on log(upper) about one time in five
        space = parse_space(
            "s categorical {a, b, c} [a]\n"
            "zeta real [2.9999999999999987, 3.0] [3.0] log\n"
            "beta real [9.999999999999993, 10.0] [10.0] log\n"
            "\n[conditions]\nzeta | s in {b, c}\nbeta | s in {c}\n"
        )
        plan = space.sampling_plan
        many_rng, scalar_rng = Random(seed), Random(seed)
        with pytest.raises(ValueError) as scalar_error:
            [plan.draw(scalar_rng) for _ in range(100)]
        with pytest.raises(ValueError) as many_error:
            plan.draw_many(many_rng, 100)
        assert "outside domain" in str(scalar_error.value)
        assert str(many_error.value) == str(scalar_error.value)
        assert many_rng.getstate() == scalar_rng.getstate()

    def test_draw_many_grows_a_block_that_runs_out(self, monkeypatch):
        space = compose_product_space(parse_space(SIMPLE), 2)
        plan = space.sampling_plan
        monkeypatch.setattr(plan, "_words_per_draw", 0.01)
        many_rng, scalar_rng = Random(4), Random(4)
        assert plan.draw_many(many_rng, 500) == [plan.draw(scalar_rng) for _ in range(500)]
        assert many_rng.getstate() == scalar_rng.getstate()

    def test_draw_many_edge_sizes(self):
        rng = Random(2)
        state = rng.getstate()
        assert parse_space(SIMPLE).sampling_plan.draw_many(rng, 0) == []
        assert ParameterSpace(()).sampling_plan.draw_many(rng, 3) == [(), (), ()]
        assert rng.getstate() == state

    @pytest.mark.parametrize("rng", [SystemRandom(), type("Custom", (Random,), {})(1)])
    def test_draw_many_needs_a_plain_random(self, rng):
        with pytest.raises(TypeError, match="random.Random"):
            parse_space(SIMPLE).sampling_plan.draw_many(rng, 3)

    def test_log_integer_draw_is_clamped(self, monkeypatch):
        space = parse_space("level integer [2, 64] [8] log\n")
        monkeypatch.setattr(Random, "uniform", lambda self, a, b: b + 1.0)
        assert reference_sample_config(space, Random(0))["level"] == 64
        assert space.sampling_plan.draw(Random(0)) == (64,)


class TestEncoding:
    def test_linear_normalization(self):
        space = parse_space("p real [0, 100] [50]\n")
        config = make_config(space, {"p": 25.0})
        assert encode_config(space, config).tolist() == [0.25]

    def test_log_normalization(self):
        space = parse_space("p real [1, 10000] [10] log\n")
        config = make_config(space, {"p": 100.0})
        assert encode_config(space, config)[0] == pytest.approx(0.5)

    def test_inactive_sentinel_constant(self, simple_space):
        a = make_config(simple_space, {"strategy": "fast", "level": 8})
        b = make_config(simple_space, {"strategy": "fast", "level": 64})
        enc_a = encode_config(simple_space, a)
        enc_b = encode_config(simple_space, b)
        assert enc_a[0] == SENTINEL == enc_b[0]

    def test_distinct_configs_distinct_vectors(self):
        # exhaustive check on a two-parameter space
        space = parse_space(
            "c categorical {a, b, c} [a]\nn integer [0, 3] [0]\n"
        )
        configs = list(enumerate_configs(space))
        assert len(configs) == 12
        encodings = [tuple(encode_config(space, c)) for c in configs]
        assert len(set(encodings)) == len(configs)


class TestProductSpace:
    def test_parameter_count(self, simple_space):
        product = compose_product_space(simple_space, 8)
        assert len(product.parameters) == 24

    def test_roundtrip(self, simple_space):
        components = tuple(sample_config(simple_space, s) for s in (1, 2, 3))
        product = compose_product_space(simple_space, 3)
        merged = make_product_config(product, components)
        assert decode_product_config(simple_space, merged, 3) == components

    def test_size_is_power(self):
        space = parse_space("s categorical {a, b, c, d, e, f} [a]\n")
        product = compose_product_space(space, 2)
        assert len(list(enumerate_configs(product))) == 36

    def test_conditions_stay_per_copy(self, simple_space):
        product = compose_product_space(simple_space, 2)
        for cond in product.conditions:
            prefix = cond.child.split(".", 1)[0]
            assert cond.parent.startswith(prefix + ".")


class TestEnumerate:
    def test_real_space_rejected(self, simple_space):
        with pytest.raises(ValueError):
            list(enumerate_configs(simple_space))

    def test_conditional_enumeration(self):
        space = parse_space(
            "p categorical {a, b} [a]\nq categorical {x, y, z} [x]\n\n[conditions]\nq | p in {b}\n"
        )
        configs = list(enumerate_configs(space))
        # a alone, plus b with each of three children
        assert len(configs) == 4
