import pytest
from hypothesis import settings

from coldwatch.model import Thresholds
from coldwatch.runner import DEFAULT_START, RunConfig, run_simulation
from coldwatch.sensor import breach_day, normal_day

# A larger example budget, chosen with --hypothesis-profile=ci; tier-1 runs
# hypothesis's default profile.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def thresholds():
    return Thresholds()


@pytest.fixture(scope="session")
def quiet_run(tmp_path_factory):
    """One canonical 24 h quiet-day run, shared read-only across tests."""
    out = tmp_path_factory.mktemp("quiet") / "run"
    cfg = RunConfig(out_dir=out, scenario=normal_day(seed=7), seed=7)
    return run_simulation(cfg)


@pytest.fixture(scope="session")
def breach_run(tmp_path_factory):
    """One canonical 24 h breach-day run (zero sensor noise for exact traces)."""
    import dataclasses

    out = tmp_path_factory.mktemp("breach") / "run"
    scenario = breach_day(DEFAULT_START, seed=7)
    from coldwatch.sensor import NoiseModel

    scenario = dataclasses.replace(scenario, noise=NoiseModel(0, 0))
    cfg = RunConfig(out_dir=out, scenario=scenario, seed=7, scenario_name="breach")
    return run_simulation(cfg)
