"""Shared fixtures: reference configuration, the reference-grid pair ridge,
and a reusable Monte Carlo run sized so that pair statistics dominate the
event stream."""

import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.errors import InvalidArgument

from artifact import daq, spdc
from artifact.cli import cmd_simulate
from artifact.config import load_default_config
from artifact.xoptics import load_table

# In CI a failing property prints the @reproduce_failure blob that replays
# it.  Recent Hypothesis releases register a "ci" profile of their own
# (derandomized, no deadline, blob printed) and load it when CI is set;
# this one keeps that profile's other settings where it exists.
try:
    _ci_parent = settings.get_profile("ci")
except InvalidArgument:
    _ci_parent = None
settings.register_profile("ci", _ci_parent, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def default_config():
    return load_default_config()


@pytest.fixture(scope="session")
def tables():
    return {name: load_table(name) for name in ("air", "helium", "graphite", "diamond")}


@pytest.fixture(scope="session")
def ridge_default(default_config):
    """The pair ridge on the reference grid, solved once."""
    return spdc.pair_ridge(default_config.spdc, default_config.grid)


def make_table(events):
    """EventTable from per-event photon lists of (detector, energy_kev,
    offset_ns) tuples; photons are stably grouped by detector."""
    photons = [p for ev in events for p in sorted(ev, key=lambda p: p[0])]
    columns = np.array(photons, dtype=float).reshape(len(photons), 3)
    return daq.EventTable(
        np.zeros(len(events)),
        np.r_[0, np.cumsum([len(ev) for ev in events])].astype(np.int64),
        columns[:, 0].astype(np.int8),
        columns[:, 1].copy(),
        columns[:, 2].copy(),
        np.zeros(len(photons), dtype=np.int8),
    )


def simulate_events(cfg):
    """The events ``xbsim simulate`` writes, read back from its event file
    and energy-selected as ``analyze`` selects them.  Returns (events,
    heralded, rate_dropped, empty_dropped, pulse_counts): ``energy_select``'s
    two tables, the file's drop counts and the pulses counted by [detector,
    origin, logic]."""
    with tempfile.TemporaryDirectory() as outdir:
        tally = cmd_simulate(cfg, outdir)
        events, meta = daq.load_events(os.path.join(outdir, "events.csv"))
    events, heralded = daq.energy_select(events, cfg.daq)
    return events, heralded, meta["rate_dropped"], meta["empty_dropped"], tally


def run_chain(cfg, seed):
    """``simulate_events`` at ``seed``: pairs + stray -> detectors ->
    coincidence electronics -> event file -> energy flags."""
    return simulate_events(replace(cfg, source=replace(cfg.source, rng_seed=seed)))


@pytest.fixture(scope="session")
def pair_dominated_run(default_config):
    """Long run with the pair rate raised so heralded statistics are ample."""
    cfg = default_config
    source = replace(
        cfg.source,
        pair_rate=5.0,
        stray_rates=(2000.0, 1400.0, 1000.0),
        duration_s=1500.0,
    )
    cfg = replace(cfg, source=source)
    events, heralded, rate_dropped, empty_dropped, _counts = run_chain(cfg, 11)
    return {
        "config": cfg,
        "events": events,
        "heralded": heralded,
        "rate_dropped": rate_dropped,
        "empty_dropped": empty_dropped,
    }
