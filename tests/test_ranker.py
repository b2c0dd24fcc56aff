from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from evmscope.analyzers import PropertyId, PropertyViolation
from evmscope.pathgen import ProgramPath
from evmscope.ranker import (
    DEFAULT_FMEA,
    RankConfig,
    make_ranked,
    rank_and_gate,
    score,
)


def _path(length: int, blocks: tuple[int, ...] | None = None) -> ProgramPath:
    return ProgramPath(
        blocks=blocks or tuple(range(length * 2)),
        functions=(None,) * length,
    )


def _violation(prop: PropertyId) -> PropertyViolation:
    return PropertyViolation(prop, {})


def test_default_alphas_are_fmea_products():
    config = RankConfig()
    assert config.alpha[PropertyId.TRANSFER_LIMIT] == 4
    assert config.alpha[PropertyId.NON_EXISTING_ADDRESS] == 6
    assert config.alpha[PropertyId.GUARD_SUICIDE] == 18
    assert config.alpha[PropertyId.BLACK_HOLE] == 12
    for prop, (l, s, d) in DEFAULT_FMEA.items():
        assert config.alpha[prop] == l * s * d
        assert all(1 <= f <= 3 for f in (l, s, d))


def test_fmea_identity_validated_at_load():
    bad_alpha = {PropertyId.GUARD_SUICIDE: Fraction(17)}
    with pytest.raises(ValueError):
        RankConfig(alpha={**RankConfig().alpha, **bad_alpha})


def test_score_guard_suicide_length_one_is_18():
    config = RankConfig()
    assert score(_path(1), [_violation(PropertyId.GUARD_SUICIDE)], config) == 18


def test_score_no_violations_is_zero():
    assert score(_path(1), [], RankConfig()) == 0


def test_score_two_properties_length_two():
    config = RankConfig()
    violations = [_violation(PropertyId.NON_EXISTING_ADDRESS),
                  _violation(PropertyId.GUARD_SUICIDE)]
    assert score(_path(2), violations, config) == Fraction(24, 2) == 12


def test_duplicate_properties_count_once():
    config = RankConfig()
    violations = [_violation(PropertyId.GUARD_SUICIDE)] * 3
    assert score(_path(1), violations, config) == 18


def test_max_gas_contributes_zero():
    config = RankConfig()
    violations = [_violation(PropertyId.MAX_GAS), _violation(PropertyId.BLACK_HOLE)]
    assert score(_path(1), violations, config) == 12


def test_gate_admits_18_12_rejects_9_4_6():
    config = RankConfig()
    cases = {
        18: [_violation(PropertyId.GUARD_SUICIDE)],
        12: [_violation(PropertyId.BLACK_HOLE)],
        6: [_violation(PropertyId.NON_EXISTING_ADDRESS)],
        4: [_violation(PropertyId.TRANSFER_LIMIT)],
    }
    ranked = [make_ranked(_path(1, blocks=(i,)), v, config)
              for i, v in enumerate(cases.values())]
    # a 9 = guard-suicide at length two
    ranked.append(make_ranked(_path(2), [_violation(PropertyId.GUARD_SUICIDE)], config))
    plan = rank_and_gate(ranked, config)
    admitted = sorted(float(rp.score) for rp in plan.admitted)
    assert admitted == [12.0, 18.0]
    rejected = sorted(float(rp.score) for rp in plan.ordered if rp not in plan.admitted)
    assert rejected == [4.0, 6.0, 9.0]


def test_gate_is_strict():
    config = RankConfig()
    at_threshold = make_ranked(
        _path(1), [_violation(PropertyId.NON_EXISTING_ADDRESS),
                   _violation(PropertyId.TRANSFER_LIMIT)], config)
    assert at_threshold.score == 10
    plan = rank_and_gate([at_threshold], config)
    assert plan.admitted == []


def test_empty_input_empty_output():
    plan = rank_and_gate([], RankConfig())
    assert plan.ordered == [] and plan.queue == []


def test_shorter_path_executed_first_same_property_set():
    config = RankConfig()
    long = make_ranked(_path(1, blocks=(1, 2, 3)),
                       [_violation(PropertyId.GUARD_SUICIDE)], config)
    short = make_ranked(_path(1, blocks=(1, 2)),
                        [_violation(PropertyId.GUARD_SUICIDE)], config)
    # same call count; the block-sequence tie-break decides
    plan = rank_and_gate([long, short], config)
    assert plan.queue == [short]
    assert plan.deferred[frozenset({PropertyId.GUARD_SUICIDE})] == [long]
    assert plan.promote(frozenset({PropertyId.GUARD_SUICIDE})) == long
    assert plan.promote(frozenset({PropertyId.GUARD_SUICIDE})) is None


def test_deferral_prefers_smaller_call_count():
    config = RankConfig()
    two_calls = make_ranked(_path(2), [_violation(PropertyId.GUARD_SUICIDE),
                                       _violation(PropertyId.BLACK_HOLE)], config)
    one_call = make_ranked(_path(1), [_violation(PropertyId.GUARD_SUICIDE),
                                      _violation(PropertyId.BLACK_HOLE)], config)
    plan = rank_and_gate([two_calls, one_call], config)
    assert plan.queue == [one_call]


def test_rank_order_deterministic_total():
    config = RankConfig()
    a = make_ranked(_path(1, blocks=(5, 6)), [_violation(PropertyId.BLACK_HOLE)], config)
    b = make_ranked(_path(1, blocks=(5, 7)), [_violation(PropertyId.BLACK_HOLE)], config)
    assert rank_and_gate([a, b], config).ordered == rank_and_gate([b, a], config).ordered \
        == [a, b]


@given(scale=st.integers(min_value=1, max_value=1000))
def test_scaling_alpha_and_threshold_preserves_order_and_gate(scale):
    base = RankConfig()
    scaled = RankConfig(
        alpha={p: a * scale for p, a in base.alpha.items()},
        threshold=base.threshold * scale,
        fmea={},  # hand-set weights carry no FMEA triples
    )
    prop_sets = [
        [_violation(PropertyId.GUARD_SUICIDE)],
        [_violation(PropertyId.BLACK_HOLE)],
        [_violation(PropertyId.TRANSFER_LIMIT)],
        [_violation(PropertyId.NON_EXISTING_ADDRESS),
         _violation(PropertyId.GUARD_SUICIDE)],
    ]
    ranked_base = [make_ranked(_path(1 + i % 2, blocks=(i,)), v, base)
                   for i, v in enumerate(prop_sets)]
    ranked_scaled = [make_ranked(_path(1 + i % 2, blocks=(i,)), v, scaled)
                     for i, v in enumerate(prop_sets)]
    plan_base = rank_and_gate(ranked_base, base)
    plan_scaled = rank_and_gate(ranked_scaled, scaled)
    assert [rp.path.blocks for rp in plan_base.ordered] == \
        [rp.path.blocks for rp in plan_scaled.ordered]
    assert [rp.path.blocks for rp in plan_base.admitted] == \
        [rp.path.blocks for rp in plan_scaled.admitted]


@given(length=st.integers(min_value=1, max_value=10))
def test_monotonicity_more_properties_never_lower(length):
    config = RankConfig()
    small = score(_path(length), [_violation(PropertyId.TRANSFER_LIMIT)], config)
    large = score(_path(length), [_violation(PropertyId.TRANSFER_LIMIT),
                                  _violation(PropertyId.BLACK_HOLE)], config)
    assert large >= small


@given(l1=st.integers(min_value=1, max_value=10), delta=st.integers(min_value=0, max_value=10))
def test_monotonicity_longer_never_higher(l1, delta):
    config = RankConfig()
    violations = [_violation(PropertyId.GUARD_SUICIDE)]
    assert score(_path(l1 + delta), violations, config) <= score(_path(l1), violations, config)


def test_override_alpha_drops_fmea_triple():
    config = RankConfig()
    config.override_alpha(PropertyId.BLACK_HOLE, Fraction(99))
    assert config.alpha[PropertyId.BLACK_HOLE] == 99
    assert PropertyId.BLACK_HOLE not in config.fmea
    with pytest.raises(ValueError):
        config.override_alpha(PropertyId.BLACK_HOLE, Fraction(0))

