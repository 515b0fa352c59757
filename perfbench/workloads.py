"""The benchmark's workloads: ddrom config files built from a seed.

Each workload is one ``gen -> train -> predict -> evaluate`` pipeline on
data from an in-repo generator.  The seed perturbs a single generator value
by a small relative amount (the pulse width or the Burgers amplitude); it
never changes a size: n_x, n_t, n_train, k, r and the search grid are
fixed, so every seed asks the program for the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fom: dict
    sections: dict
    perturbed: str          # the [fom] key the seed perturbs
    spread: float           # relative half-width of that perturbation
    tolerance: float        # largest accepted prediction-horizon error
    reps: int = 1           # predict/evaluate calls per pipeline iteration

    @property
    def searched(self) -> bool:
        return "regsearch" in self.sections

    def fom_values(self, seed: int) -> dict:
        """The [fom] section for ``seed``; only ``perturbed`` differs."""
        u = random.Random(f"{self.name}:{seed}").uniform(-1.0, 1.0)
        values = dict(self.fom)
        values[self.perturbed] = repr(float(self.fom[self.perturbed]) * (1.0 + self.spread * u))
        return values

    def config_text(self, seed: int, workdir: str) -> str:
        paths = {
            "snapshots": f"{workdir}/snapshots.bin",
            "artifact": f"{workdir}/model.bin",
            "prediction": f"{workdir}/prediction.bin",
            "output_dir": f"{workdir}/reports",
        }
        # imported here, not at the top: run.py loads this module before it
        # sets the BLAS thread count, and ddrom.cli loads numpy
        from ddrom.cli import serialize_config

        return serialize_config({"paths": paths, "fom": self.fom_values(seed), **self.sections})


# two pulses on a unit ring; 1280 steps of dt per rotation, every tenth kept
_PULSE = {
    "kind": "rotating_pulse",
    "n_pulses": "2",
    "wave_speed": "1.0",
    "length": "1.0",
    "dt": repr(1.0 / 1280.0),
    "stride": "10",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ring40k-k4-fixed",
            why=(
                "large rotating pulse, four sectors, fixed weights: data layers "
                "(I/O, preprocess, POD, lift/blend, metrics) do the work and "
                "carry the per-subdomain memory claim"
            ),
            fom={**_PULSE, "n_x": "40000", "n_steps": "3990", "pulse_width": "0.07"},
            sections={
                "time": {"n_train": "300"},
                "decomposition": {"topology": "annular", "k": "4", "overlap": "0.15"},
                "pod": {"r": "12"},
                "opinf": {
                    "form": "discrete",
                    "lambda_linear": "1e-06",
                    "lambda_quadratic": "0.001",
                },
            },
            perturbed="pulse_width",
            spread=2e-4,
            tolerance=1e-4,
        ),
        Workload(
            name="pulse512-k4-search",
            why=(
                "c08 rotating pulse with the default 11x11 global search: 484 "
                "ridge solves and 121 discrete rollouts do the work, data "
                "layers are under 1%"
            ),
            fom={**_PULSE, "n_x": "512", "n_steps": "3200", "pulse_width": "0.05"},
            sections={
                "time": {"n_train": "193"},
                # two grid spacings of overlap, as in the c08 gate
                "decomposition": {
                    "topology": "annular",
                    "k": "4",
                    "overlap": repr(2.0 * (2.0 * 3.141592653589793 / 512)),
                },
                "pod": {"r": "16"},
                "opinf": {"form": "discrete"},
                "regsearch": {"enabled": "true", "mode": "global"},
            },
            perturbed="pulse_width",
            spread=2e-4,
            tolerance=1e-2,
            reps=10,
        ),
        Workload(
            name="burgers64-k2-rk4-persub",
            why=(
                "README Burgers case, continuous form, 5x5 per-subdomain search: "
                "625 RK4 rollouts and 1250 solves of which 50 are distinct; the "
                "only workload where RK4 and fit reuse show"
            ),
            fom={
                "kind": "burgers",
                "n_x": "64",
                "nu": "0.02",
                "amplitude": "1.0",
                "dt": "0.0001",
                "n_steps": "3000",
                "stride": "100",
            },
            sections={
                "time": {"n_train": "25"},
                "preprocess": {"scaling": "max_abs"},
                "decomposition": {"topology": "annular", "k": "2", "overlap": "0.4"},
                "pod": {"r": "4"},
                "opinf": {"form": "continuous"},
                "regsearch": {
                    "enabled": "true",
                    "mode": "per_subdomain",
                    "lambda_linear": "1e-08, 1e-06, 0.0001, 0.01, 1.0",
                    "lambda_quadratic": "1e-08, 1e-06, 0.0001, 0.01, 1.0",
                },
            },
            perturbed="amplitude",
            spread=2e-3,
            tolerance=1e-2,
            reps=20,
        ),
    )
}
