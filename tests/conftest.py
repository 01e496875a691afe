from pathlib import Path

import pytest

from wisealice import MeasurementFrame, PayoffMatrix

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture
def two_eq_instance():
    return PayoffMatrix(3, 3, 5, 1), (MeasurementFrame(10), MeasurementFrame(70))


@pytest.fixture
def unit_instance():
    return PayoffMatrix(1, 1, 1, 1), (MeasurementFrame(45), MeasurementFrame(45))


@pytest.fixture
def close_frames_instance():
    return PayoffMatrix(3, 3, 5, 1), (MeasurementFrame(30), MeasurementFrame(20))


@pytest.fixture
def interior_instance():
    return PayoffMatrix(3, 3, 5, 1), (MeasurementFrame(15), MeasurementFrame(35))


@pytest.fixture
def no_draws(monkeypatch):
    """Make any draw from the simulation's random stream fail the test."""
    def draw(*args):
        raise AssertionError("drew from the stream")

    monkeypatch.setattr("wisealice.simulate._draws", draw)
