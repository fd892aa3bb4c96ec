"""Shared fixtures: small pre-built worlds so individual tests stay fast."""

from __future__ import annotations

import gc

import pytest

from repro import FuseWorld
from repro.net import MercatorConfig
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture(scope="module")
def settled_heap():
    """Collect and freeze the heap before a wall-clock (live backend) module.

    Live tests run protocol deadlines of a few wall milliseconds.  Garbage
    left by earlier tests' large simulated worlds makes the next full
    collection pause the event loop for tens of milliseconds — long enough
    to time out an RPC.  Collecting it up front, and freezing what
    survives so later collections skip it, keeps those pauses out of the
    measured loop.
    """
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture
def small_world() -> FuseWorld:
    """A 30-node bootstrapped world; cheap enough to build per-test."""
    world = FuseWorld(n_nodes=30, seed=7, mercator=MercatorConfig(n_hosts=30, n_as=10))
    world.bootstrap()
    return world


@pytest.fixture
def tiny_world() -> FuseWorld:
    """A 12-node bootstrapped world for protocol-detail tests."""
    world = FuseWorld(n_nodes=12, seed=11, mercator=MercatorConfig(n_hosts=12, n_as=4))
    world.bootstrap()
    return world


def make_world(n_nodes: int, seed: int, **kwargs) -> FuseWorld:
    """Helper for tests that need custom sizes/configs."""
    mercator = kwargs.pop("mercator", None)
    if mercator is None:
        mercator = MercatorConfig(n_hosts=n_nodes, n_as=max(4, n_nodes // 5))
    world = FuseWorld(n_nodes=n_nodes, seed=seed, mercator=mercator, **kwargs)
    world.bootstrap()
    return world
