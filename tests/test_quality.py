import numpy as np
import pytest

from featgeo.errors import ValidationError
from featgeo.quality import (
    ALL_DIMENSIONS,
    QualityConfig,
    aggregate_quality,
    parse_dimensions,
)


def dims(content, appeal):
    return (*content, *appeal)


def content_mean(d):
    """Content group mean in percent, by hand: 100 * mean((s - 1) / 4) over four scores."""
    return 25.0 * (sum(d[:4]) - 4) / 4


def appeal_mean(d):
    """Appeal group mean in percent, by hand: 100 * mean((s - 1) / 4) over three scores."""
    return 25.0 * (sum(d[4:]) - 3) / 3


def random_dims(rng):
    return tuple(int(s) for s in rng.integers(1, 6, size=7))


def test_hand_derived_blend():
    d = dims((3, 4, 4, 5), (2, 3, 4))
    assert content_mean(d) == aggregate_quality(d, QualityConfig(alpha=1.0)) == 75.0
    assert appeal_mean(d) == aggregate_quality(d, QualityConfig(alpha=0.0)) == 50.0
    assert aggregate_quality(d, QualityConfig(alpha=0.5)) == pytest.approx(62.5, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_extremes_for_any_alpha(alpha):
    top = aggregate_quality(dims((5, 5, 5, 5), (5, 5, 5)), QualityConfig(alpha=alpha))
    bottom = aggregate_quality(dims((1, 1, 1, 1), (1, 1, 1)), QualityConfig(alpha=alpha))
    assert top == pytest.approx(100.0, abs=1e-9)
    assert bottom == pytest.approx(0.0, abs=1e-9)


def test_alpha_edge_identities():
    rng = np.random.default_rng(10)
    for _ in range(200):
        d = random_dims(rng)
        assert aggregate_quality(d, QualityConfig(alpha=1.0)) == content_mean(d)
        assert aggregate_quality(d, QualityConfig(alpha=0.0)) == appeal_mean(d)


def test_monotone_in_every_dimension():
    rng = np.random.default_rng(11)
    cfg = QualityConfig(alpha=0.4)
    for _ in range(100):
        base = random_dims(rng)
        value = aggregate_quality(base, cfg)
        for i, score in enumerate(base):
            if score == 5:
                continue
            bumped = tuple(s + (1 if j == i else 0) for j, s in enumerate(base))
            assert aggregate_quality(bumped, cfg) >= value


def test_aggregation_commutes_with_averaging():
    rng = np.random.default_rng(12)
    cfg = QualityConfig(alpha=0.3)
    for _ in range(50):
        batch = [random_dims(rng) for _ in range(5)]
        mean_of_values = np.mean([aggregate_quality(d, cfg) for d in batch])
        mean_content = np.mean([np.mean([(s - 1) / 4 for s in d[:4]]) for d in batch])
        mean_appeal = np.mean([np.mean([(s - 1) / 4 for s in d[4:]]) for d in batch])
        direct = 100 * (cfg.alpha * mean_content + (1 - cfg.alpha) * mean_appeal)
        assert mean_of_values == pytest.approx(direct, abs=1e-9)


def test_rejects_out_of_range_scores():
    with pytest.raises(ValidationError):
        parse_dimensions(dict(zip(ALL_DIMENSIONS, dims((0, 3, 3, 3), (3, 3, 3)))))
    with pytest.raises(ValidationError):
        parse_dimensions(dict(zip(ALL_DIMENSIONS, dims((3, 3, 3, 3), (3, 3, 6)))))


def test_from_raw_rounds_half_up_then_validates():
    d = parse_dimensions(
        {"fluency": 3.5, "usefulness": 2.4, "credibility": 4.5, "structure": 1.0,
         "uniqueness": 2.5, "attractiveness": 3.49, "influence": 5.0}
    )
    assert d[:3] == (4, 2, 5)
    assert d[4:6] == (3, 3)
    with pytest.raises(ValidationError):
        parse_dimensions({name: 5.6 for name in ALL_DIMENSIONS})


@pytest.mark.parametrize("score", [float("inf"), float("-inf"), 1e400, float("nan")])
def test_from_raw_rejects_a_non_finite_score_naming_its_dimension(score):
    scores = {name: 3.0 for name in ALL_DIMENSIONS}
    scores["credibility"] = score
    with pytest.raises(ValidationError, match="'credibility' must be a finite score"):
        parse_dimensions(scores)


def test_from_raw_requires_all_seven():
    partial = {name: 3 for name in ALL_DIMENSIONS[:-1]}
    with pytest.raises(ValidationError, match="influence"):
        parse_dimensions(partial)


def test_quality_config_validation():
    with pytest.raises(ValidationError):
        QualityConfig(alpha=1.5)
    with pytest.raises(ValidationError):
        QualityConfig(repeats=0)
