"""Discrete-time SIS epidemic dynamics and trajectory simulation.

The scalar model steps the infected proportion x according to

    x[k+1] = x[k] + (1 - x[k]) * beta * x[k] - gamma * x[k]

and the identifiers observe y[k] = x[k+1] - x[k]. Process noise is a
truncated Gaussian added to the state before clamping to [0, 1];
observation noise, when enabled, is added to the stored states before
the observations are formed, so y inherits both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SisParams:
    """True infection rate ``beta`` and recovery rate ``gamma``, both per step."""

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1] for simulation, got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1] for simulation, got {self.gamma}")

    def reproduction_number(self) -> float:
        if self.gamma == 0.0:
            raise ValueError("reproduction number is undefined when gamma == 0")
        return self.beta / self.gamma

    def endemic_level(self) -> float:
        """Nonzero fixed point 1 - gamma/beta (may be negative when beta < gamma)."""
        if self.beta == 0.0:
            raise ValueError("endemic level is undefined when beta == 0")
        return 1.0 - self.gamma / self.beta

    def as_vector(self) -> np.ndarray:
        return np.array([self.beta, self.gamma])


# Smallest accepted probability that one process-noise draw lands inside
# [-bound_nu, bound_nu]; below it the redraw loop would take more than
# 1 / MIN_DRAW_ACCEPTANCE draws per step on average.
MIN_DRAW_ACCEPTANCE = 0.01


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian process/observation noise settings for a simulated trajectory.

    Process noise samples are redrawn until |xi| <= bound_nu, so the realized
    perturbation is bounded while staying zero mean. A draw is accepted with
    probability erf(bound_nu / (process_std * sqrt(2))), which must be at
    least ``MIN_DRAW_ACCEPTANCE``.
    """

    process_std: float = 1e-3
    observation_std: float = 0.0
    bound_nu: float = 5e-3
    seed: int = 0

    def __post_init__(self) -> None:
        magnitudes = (self.process_std, self.observation_std, self.bound_nu)
        if not all(math.isfinite(m) for m in magnitudes):
            raise ValueError("noise magnitudes must be finite")
        if min(magnitudes) < 0:
            raise ValueError("noise magnitudes must be nonnegative")
        if self.process_std > 0 and self.bound_nu <= 0:
            raise ValueError("bound_nu must be positive when process_std > 0")
        if self.process_std > 0:
            accept = math.erf(self.bound_nu / (self.process_std * math.sqrt(2.0)))
            if accept < MIN_DRAW_ACCEPTANCE:
                raise ValueError(
                    f"bound_nu {self.bound_nu!r} keeps only {accept:.3g} of process-noise "
                    f"draws (std {self.process_std!r}); it must keep at least "
                    f"{MIN_DRAW_ACCEPTANCE}"
                )


TRAJECTORY_SCHEMA = "sisid-trajectory-v1"


@dataclass(frozen=True)
class Trajectory:
    """States x[0..K], observations y[k] = x[k+1] - x[k], and realized process noise."""

    states: np.ndarray
    observations: np.ndarray
    process_noise: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        object.__setattr__(self, "observations", np.asarray(self.observations, dtype=float))
        object.__setattr__(self, "process_noise", np.asarray(self.process_noise, dtype=float))
        if len(self.observations) != len(self.states) - 1:
            raise ValueError("observations must have one entry fewer than states")
        if len(self.process_noise) != len(self.observations):
            raise ValueError("process_noise must have one entry per observation")
        for name in ("states", "observations", "process_noise"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def step_count(self) -> int:
        return len(self.states) - 1

    def to_csv(self, path: str | Path) -> None:
        """Write the trajectory CSV: a schema line, then a header and one
        (step, state, observation, noise_applied) row per step; the last row
        has the final state only.

        Rows end in \\r\\n, as the csv module's default dialect writes them.
        """
        states = self.states.tolist()
        rows = zip(states, self.observations.tolist(), self.process_noise.tolist())
        with open(path, "w", newline="") as fh:
            fh.write(f"# {TRAJECTORY_SCHEMA}\n")
            fh.write("step,state,observation,noise_applied\r\n")
            for k, (x, y, xi) in enumerate(rows):
                fh.write(f"{k},{x!r},{y!r},{xi!r}\r\n")
            fh.write(f"{self.step_count},{states[-1]!r},,\r\n")


def sis_step(x: float, params: SisParams) -> float:
    """One noise-free step of the scalar SIS recursion."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"state must lie in [0, 1], got {x}")
    return x + (1.0 - x) * params.beta * x - params.gamma * x


def _truncated_normal(rng: np.random.Generator, std: float, bound: float) -> float:
    if std == 0.0:
        return 0.0
    while True:
        sample = rng.normal(0.0, std)
        if abs(sample) <= bound:
            return float(sample)


def simulate(
    x0: float,
    params: SisParams,
    steps: int,
    noise: NoiseSpec | None = None,
) -> Trajectory:
    """Simulate ``steps`` transitions from ``x0``; deterministic for a fixed seed."""
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 must lie in [0, 1], got {x0}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")

    rng = np.random.default_rng(noise.seed) if noise is not None else None
    true_states = np.empty(steps + 1)
    xi = np.zeros(steps)
    true_states[0] = x0
    for k in range(steps):
        x_next = sis_step(true_states[k], params)
        if noise is not None and noise.process_std > 0:
            xi[k] = _truncated_normal(rng, noise.process_std, noise.bound_nu)
            x_next = min(1.0, max(0.0, x_next + xi[k]))
        true_states[k + 1] = x_next

    states = true_states
    if noise is not None and noise.observation_std > 0:
        states = true_states + rng.normal(0.0, noise.observation_std, size=steps + 1)

    return Trajectory(
        states=states,
        observations=np.diff(states),
        process_noise=xi,
    )
