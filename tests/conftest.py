"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.net.topology import TestbedConfig, build_testbed
from repro.sim.engine import Simulator


@pytest.fixture(scope="session")
def src_lint_result():
    """One full lint of ``src/``, shared by every test that gates on it."""
    from repro.lint import run_lint

    return run_lint([str(Path(__file__).resolve().parents[1] / "src")])


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def testbed(sim):
    """A default paper-style testbed (MTU 9000, bonded sender)."""
    return build_testbed(sim, TestbedConfig())


@pytest.fixture
def testbed_1500(sim):
    """A testbed at the Internet-standard 1500-byte MTU."""
    return build_testbed(sim, TestbedConfig(mtu_bytes=1500))


def make_testbed(sim, **overrides):
    """Helper for tests that need custom testbed parameters."""
    return build_testbed(sim, TestbedConfig(**overrides))
