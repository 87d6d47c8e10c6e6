"""The digest of tools/replay_hash.py, on a tiny shape."""

import importlib.util
from pathlib import Path

import numpy as np

from swarmfit import SwarmConfig, get_setting
from swarmfit.pso import Topology

_PATH = Path(__file__).resolve().parents[1] / "tools" / "replay_hash.py"
_SPEC = importlib.util.spec_from_file_location("replay_hash", _PATH)
replay_hash = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(replay_hash)

TINY = [
    (get_setting(4), SwarmConfig(n_particles=5, n_iterations=5), 2),
    (get_setting(6), SwarmConfig(topology=Topology.LBEST, n_particles=5, m_neighbors=3, n_iterations=5), 1),
    (get_setting(4), SwarmConfig(n_particles=5, n_iterations=5), 1, 2**20),  # a phi_max
]


def test_digest_repeats_and_sees_one_changed_restart():
    results, times = replay_hash.replay(TINY)
    assert len(results) == len(times) == 4
    expected = replay_hash.digest(results)
    assert replay_hash.digest(replay_hash.replay(TINY)[0]) == expected
    for field in ("best_position", "trace"):
        again = replay_hash.replay(TINY)[0]
        array = getattr(again[1], field)
        array[-1] = np.nextafter(array[-1], np.inf)  # one ulp in one restart
        assert replay_hash.digest(again) != expected
    again = replay_hash.replay(TINY)[0]
    again[2].best_value = np.nextafter(again[2].best_value, -np.inf)
    assert replay_hash.digest(again) != expected
