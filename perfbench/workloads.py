"""The benchmark's four workloads, as the CLI configs each one runs.

Every workload runs through ``netconsensus.cli.cli(argv)`` in one process with
``workers=1``. A workload first runs each of its ``once`` commands, then
repeats its ``repeat`` command until the run's time is up; the median latency
of the repeated command is the gated ``command_s``. Each command gets its
own seed on the command line (``--seed``), derived from the workload seed.
Sweeps are reduced from the figure configs so that one run holds several
repeats (see README.md).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

# the fig2 model (configs/fig2.cfg)
FIG2 = {"sizes": [500, 1000, 2000, 3500], "p_in": 0.1, "p_out": 0.02, "grid_points": 401}
# the repository README's bifurcation example; the grid is narrowed to a bracket around
# delta1* ~ 0.03996 that still holds the root if the 2e-3 edge margin of the
# isolated-value scan is dropped (root then ~ 0.03966)
BIFURCATION = {"sizes": [700, 300], "p_in": 0.1, "delta_grid": [0.0395, 0.0405]}
SWEEP_COMMON = {"mode": "scalar", "sizes": [700, 300], "epsilon": 1e-10, "max_rounds": 60000, "workers": 1}
# One point per sweep command: a point costs 1-3 s, so a run holds several
# commands and reports their median. The points are picked where each
# workload's layer dominates and the cost varies little from seed to seed.
# fig3 model at its sparsest point (tau ~ 700 rounds)
SPARSE = {**SWEEP_COMMON, "p_in": 0.1, "p_out_list": [0.001], "seeds_per_point": 3}
# fig4 model at p_out = 0.002: ~3000-round consensus runs on a dense graph
# (p_out = 0.001 doubles the rounds and their spread between seeds)
DENSE = {**SWEEP_COMMON, "p_in": 0.9, "p_out_list": [0.002], "seeds_per_point": 1}
# fig5 model at p_out = 0.003: 200 learning rounds, then ~2000 push-sum
# rounds (at p_out = 0.001 the ~2 bridge edges spread them from 4k to 16k)
GADGET = {
    "mode": "gadget", "sizes": [30, 70], "p_in": 0.9, "p_out_list": [0.003], "seeds_per_point": 1,
    "epsilon": 1e-10, "max_rounds": 200000, "dataset": "blobs:10000:20:2.0:88", "nu": 0.1,
    "steps_per_round": 1, "learning_rounds": 200, "workers": 1,
}


# detect_bifurcation fixes its model seed at 0, so that command takes none
SEEDED = ("predict", "sweep")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int  # the figure config's seed
    configs: dict  # command kind -> CLI config; seeds go on the command line
    once: tuple  # kinds run once, before the repeats
    repeat: str  # kind repeated until the time is up

    def seed_for(self, seed: int | None, repeat: int = 0) -> int:
        """Config seed of the repeat-th command of a kind.

        Without a workload seed the first command uses the figure's own seed;
        every other seed is derived from the workload seed, the workload name
        and the repeat, so one run's median spans several input draws.
        """
        if seed is None and repeat == 0:
            return self.default_seed
        base = self.default_seed if seed is None else int(seed) & 0xFFFFFFFF
        words = [base, zlib.crc32(self.name.encode()), repeat]
        return int(np.random.SeedSequence(words).generate_state(1)[0])

    def units(self, kind: str) -> int:
        """Operations one command of this kind counts for: sweep points, or 1."""
        return len(self.configs[kind].get("p_out_list", [None]))


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="predict",
            why="only rmt runs: fig2 K=4 predict with its 401-point density, and a bifurcation "
                "search of repeated predicts",
            default_seed=11,
            configs={"bifurcation": BIFURCATION, "predict": FIG2},
            once=("bifurcation",), repeat="predict",
        ),
        Workload(
            name="sweep-sparse",
            why="reduced fig3 scalar sweep, the headline curve: rmt.predict is ~90% of the time",
            default_seed=404,
            configs={"sweep": SPARSE}, once=(), repeat="sweep",
        ),
        Workload(
            name="sweep-dense",
            why="reduced fig4 scalar sweep: the only workload where consensus.run dominates",
            default_seed=505,
            configs={"sweep": DENSE}, once=(), repeat="sweep",
        ),
        Workload(
            name="gadget",
            why="reduced fig5 gadget sweep: the only workload that runs gossip, mixing learning-bound "
                "and push-sum-bound points",
            default_seed=808,
            configs={"sweep": GADGET}, once=(), repeat="sweep",
        ),
    ]
}
