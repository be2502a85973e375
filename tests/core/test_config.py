"""Configuration invariants and the paper's operating-point defaults."""

import pytest

from repro.core.config import (
    ClientTrainingConfig,
    RoundConfig,
    SecAggConfig,
    TaskConfig,
)


def test_selection_goal_is_130_percent():
    """Sec. 9: 'the server typically selects 130% of the target number'."""
    config = RoundConfig(target_participants=100, overselection_factor=1.3)
    assert config.selection_goal == 130


def test_selection_goal_rounds_up():
    assert RoundConfig(target_participants=3, overselection_factor=1.3).selection_goal == 4


def test_min_participants_from_fraction():
    config = RoundConfig(target_participants=100, min_participant_fraction=0.8)
    assert config.min_participants == 80
    tiny = RoundConfig(target_participants=1, min_participant_fraction=0.1)
    assert tiny.min_participants == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"target_participants": 0},
        {"overselection_factor": 0.9},
        {"min_participant_fraction": 0.0},
        {"min_participant_fraction": 1.5},
        {"selection_timeout_s": 0},
        {"reporting_timeout_s": -5},
    ],
)
def test_round_config_validation(kwargs):
    with pytest.raises(ValueError):
        RoundConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [{"epochs": 0}, {"batch_size": 0}, {"learning_rate": 0}, {"max_examples": 0}],
)
def test_client_config_validation(kwargs):
    with pytest.raises(ValueError):
        ClientTrainingConfig(**kwargs)


def test_secagg_threshold():
    config = SecAggConfig(group_size=100, threshold_fraction=0.66)
    assert config.threshold() == 66
    assert config.threshold(10) == 7
    assert config.threshold(2) == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"group_size": 1},
        {"threshold_fraction": 0.5},
        {"threshold_fraction": 1.1},
        {"modulus_bits": 4},
        {"modulus_bits": 64},
    ],
)
def test_secagg_validation(kwargs):
    with pytest.raises(ValueError):
        SecAggConfig(**kwargs)


def test_task_config_requires_names():
    with pytest.raises(ValueError):
        TaskConfig(task_id="", population_name="p")
    with pytest.raises(ValueError):
        TaskConfig(task_id="t", population_name="")
    with pytest.raises(ValueError):
        TaskConfig(task_id="t", population_name="p", priority=0)
