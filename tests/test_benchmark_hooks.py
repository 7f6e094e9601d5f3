"""The benchmark's tracer replaces program functions by name; every name it
hooks must exist where it looks it up, or its spans and step clocks would
quietly measure nothing."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_hooked_name_exists_on_its_owner(tracing):
    sites = [(owner, attr) for _, owner, attr in tracing.SPAN_SITES]
    for clock in (tracing.ROLLOUT_CLOCK, tracing.CAMPAIGN_CLOCK):
        sites += clock[:2]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in sites if attr not in vars(owner)]
    assert sites
    assert not missing
