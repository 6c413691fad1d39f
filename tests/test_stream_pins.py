"""Golden digests of simulator output: a change meant to keep every trajectory must keep these.

Each digest is the sha256 of members' `to_csv_text()` each followed by its
counters as sorted-key JSON. A change that alters the uniform stream, the
order of its draws or the arithmetic of a wait moves them; a change that
intends to do so replaces the digests and says so.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from thermolight import CycleConfig, simulate_ensemble, simulate_trajectory

COOLING = CycleConfig(gamma=11.06, eta_sp=0.74, step_duration_s=1e-3, t_max_s=3.0, seed=777_001, n_initial=20)
HEATED = CycleConfig(gamma=11.06, eta_sp=0.74, step_duration_s=1e-3, t_max_s=3.0, seed=777_005, heating_rate=2.0)


def digest(trajectories) -> str:
    text = "".join(tr.to_csv_text() + json.dumps(tr.counters, sort_keys=True) + "\n" for tr in trajectories)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cfg, want", [
    (COOLING, "c627d2c6edaec75e56d0e0e30de029ba260706d9eb94f650184ec394619db654"),
    (HEATED, "507e21462861a3a1e28be9c3e71c0d2e5bca32e50ce4715f4ab75c9937c31cb6"),
    (replace(HEATED, n_initial=3, transfer_prob=0.6),
     "41d218270940902d35f0415f10329189576be1d62172af1703e3cb0fb5f363c0"),
], ids=["cooling", "heated", "heated-partial-transfer"])
def test_trajectory_stream_is_pinned(cfg, want):
    assert digest([simulate_trajectory(cfg)]) == want


def test_ensemble_stream_is_pinned():
    members = simulate_ensemble(replace(HEATED, n_initial=5, t_max_s=1.5, seed=777_011), 50)
    assert digest(members) == "21d31bfd808b0276c9c14cc69371178a9f349fd1d3e7526bc380b75fde2c9b52"
