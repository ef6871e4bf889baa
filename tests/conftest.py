"""Shared fixtures: small-scale servers, mixes, and spaces for fast tests.

Also home of the ``asyncio`` marker's runner: the serve-layer tests are
coroutines, and the container deliberately has no ``pytest-asyncio`` —
the hook below runs marked coroutine tests through ``asyncio.run`` so
the dependency surface stays numpy/scipy/pytest only.
"""

from __future__ import annotations

import asyncio
import inspect

import pytest
from hypothesis import settings

#: ``--hypothesis-profile=deep``: ten times hypothesis's default example
#: count, for the CI steps that run the cluster combination fuzzer and
#: the resume fuzzer deeper than tier-1 does.
settings.register_profile("deep", max_examples=1000)


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    """Run ``@pytest.mark.asyncio`` coroutine tests via ``asyncio.run``."""
    if pyfuncitem.get_closest_marker("asyncio") is None:
        return None
    func = pyfuncitem.obj
    if not inspect.iscoroutinefunction(func):
        return None
    kwargs = {
        name: pyfuncitem.funcargs[name]
        for name in pyfuncitem._fixtureinfo.argnames
    }
    asyncio.run(func(**kwargs))
    return True

from repro.experiments.runner import experiment_catalog
from repro.metrics.goals import GoalSet
from repro.resources.space import ConfigurationSpace
from repro.resources.types import default_catalog
from repro.system.simulation import CoLocationSimulator
from repro.workloads.mixes import JobMix, mix_from_names, suite_mixes
from repro.workloads.registry import default_registry
from repro.workloads.synthetic import random_workloads


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def catalog6():
    """A 6-unit-per-resource experiment catalog (small but non-trivial)."""
    return experiment_catalog(units=6)


@pytest.fixture(scope="session")
def catalog4():
    """The smallest useful catalog (4 units per resource)."""
    return experiment_catalog(units=4)


@pytest.fixture(scope="session")
def paper_catalog():
    """Paper-scale catalog: 10 units per resource."""
    return default_catalog()


@pytest.fixture(scope="session")
def parsec_mix3(registry):
    """A three-job PARSEC mix with distinct resource characters."""
    return mix_from_names(["canneal", "fluidanimate", "streamcluster"], registry)


@pytest.fixture(scope="session")
def parsec_mix5(registry):
    return suite_mixes("parsec", registry=registry)[0]


@pytest.fixture(scope="session")
def synthetic_pair():
    return JobMix(tuple(random_workloads(2, rng=11)))


@pytest.fixture
def space6x3(catalog6):
    return ConfigurationSpace(catalog6, 3)


@pytest.fixture
def goals():
    return GoalSet()


@pytest.fixture
def make_simulator(catalog6, parsec_mix3):
    """Factory for small simulators with deterministic noise."""

    def factory(mix=None, catalog=None, **kwargs):
        kwargs.setdefault("seed", 123)
        return CoLocationSimulator(mix or parsec_mix3, catalog=catalog or catalog6, **kwargs)

    return factory
