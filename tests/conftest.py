import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")

from vctkit.phantom import PhantomSpec, generate_phantom
from vctkit.trial import BiasBoundary, TrialReport


@pytest.fixture(scope="session")
def phantom_default():
    """One mid-sized phantom shared by measurement-level tests."""
    spec = PhantomSpec(sex="M", age_years=52.0, height_cm=176.0, weight_kg=81.0,
                       fat_fraction=0.24, muscle_fraction=0.38,
                       spacing_mm=(3.0, 3.0, 3.0), seed=99)
    vol, tissue, structure, truth = generate_phantom(spec)
    return spec, vol, tissue, structure, truth


@pytest.fixture(scope="session")
def phantom_small():
    """A second, lighter phantom for pairwise metrics."""
    spec = PhantomSpec(sex="F", age_years=34.0, height_cm=161.0, weight_kg=58.0,
                       fat_fraction=0.30, muscle_fraction=0.33,
                       spacing_mm=(3.0, 3.0, 3.0), seed=100)
    vol, tissue, structure, truth = generate_phantom(spec)
    return spec, vol, tissue, structure, truth


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def _traced_peak(fn, *args, **kwargs):
    """``fn``'s result and the peak bytes it had allocated at once, traced."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture()
def traced_peak():
    return _traced_peak


def _samples_report(samples):
    """A trial report that holds only ``samples``, for attribution on constructed errors."""
    return TrialReport(task="fat_pct", boundary=BiasBoundary(), achieved_pearson=0.0,
                       counts={}, classifier_accuracy=0.0, rows=[], samples=samples)


@pytest.fixture()
def samples_report():
    return _samples_report
