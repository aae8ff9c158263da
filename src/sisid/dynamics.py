"""Discrete-time SIS epidemic dynamics and trajectory simulation.

The scalar model steps the infected proportion x according to

    x[k+1] = x[k] + (1 - x[k]) * beta * x[k] - gamma * x[k]

and the identifiers observe y[k] = x[k+1] - x[k]. Process noise is a
truncated Gaussian added to the state before clamping to [0, 1];
observation noise, when enabled, is added to the stored states, from which
a ``Trajectory`` forms its observations, so y inherits both.

``simulate`` steps one loop on floats through ``sis_step``, the one copy of
the recursion, with zero noise when there is none. It draws process noise in
blocks, bitwise equal to redrawing one sample at a time and leaving the
generator where that would, so the observation noise drawn next is unchanged.
Without process noise it stops at an exact fixed point, a state equal to the
one before it, and fills the remaining states with it; ``Trajectory.to_csv``
reuses the text of such a repeated tail. The trajectory trace holds exactly a
``Trajectory``'s two inputs, the states and the process noise: its
observations are ``np.diff`` of the states, so they are not written, and
``Trajectory(states, process_noise)`` built from a trace's two columns is
bitwise the trajectory that wrote it.

A run's settings are read by one reader each, which the config also calls
with its key as the name: ``read_x0`` (a number in [0, 1]) and ``read_steps``
(an integer >= 1 whose states numpy can size), both by the one-number rule of
``sisid.linalg``; ``simulate`` reads the noise seed as an integer >= 0.
``SisParams`` and ``NoiseSpec`` read their rates and magnitudes as settings,
by ``read_number``. ``Trajectory`` is the one check of a trajectory,
``simulate``'s too. ``write_trace`` writes and hashes every trace CSV; each
trace's writer, such as ``Trajectory.to_csv``, only forms its lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .linalg import _read_floats, read_count, read_number


def read_x0(value, name: str = "x0") -> float:
    """An initial infected proportion: one number in [0, 1], as a float;
    else ``ValueError`` naming it."""
    x0 = read_number(value, name)
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x0!r}")
    return x0


def read_steps(value, name: str = "steps") -> int:
    """A number of simulated transitions: an integer >= 1 whose steps + 1 float
    states numpy can size, (steps + 1) * 8 bytes <= the largest intp; else
    ``ValueError``. A count below that bound may still not fit in memory."""
    return read_count(value, name, 1, np.iinfo(np.intp).max // 8 - 1)


@dataclass(frozen=True)
class SisParams:
    """True infection rate ``beta`` and recovery rate ``gamma``, both per step.

    Both are settings, read as floats by ``read_number``; ``ValueError``
    names the field unless it is one number in [0, 1].
    """

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("beta", "gamma"):
            value = read_number(getattr(self, name), name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1] for simulation, got {value}")
            object.__setattr__(self, name, value)

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
    least ``MIN_DRAW_ACCEPTANCE``. The three magnitudes are settings, read as
    floats by ``read_number``; ``ValueError`` names the first that is not one
    nonnegative, finite number.
    """

    process_std: float = 1e-3
    observation_std: float = 0.0
    bound_nu: float = 5e-3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("process_std", "observation_std", "bound_nu"):
            value = read_number(getattr(self, name), name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")
            object.__setattr__(self, name, value)
        if self.process_std > 0:  # a zero bound_nu keeps no draw
            accept = math.erf(self.bound_nu / (self.process_std * math.sqrt(2.0)))
            if accept < MIN_DRAW_ACCEPTANCE:
                raise ValueError(
                    f"bound_nu {self.bound_nu!r} keeps only {accept:.3g} of process-noise "
                    f"draws (std {self.process_std!r}); it must keep at least "
                    f"{MIN_DRAW_ACCEPTANCE}"
                )


TRAJECTORY_SCHEMA = "sisid-trajectory-v2"


@dataclass(frozen=True)
class Trajectory:
    """States x[0..K], observations y[k] = x[k+1] - x[k] formed from them, and process noise.

    ``states`` (at least one) and ``process_noise`` are read as 1-d float arrays
    by the library's one number rule; else ``ValueError`` names the field.
    """

    states: np.ndarray
    observations: np.ndarray = field(init=False)
    process_noise: np.ndarray

    def __post_init__(self) -> None:
        for name in ("states", "process_noise"):
            object.__setattr__(self, name, _read_floats(getattr(self, name), name))
        if self.states.ndim != 1 or not self.states.size:
            raise ValueError(f"states must be a nonempty 1-d array, got shape {self.states.shape}")
        if not np.all(np.isfinite(self.states)):  # before np.diff, which warns on inf - inf
            raise ValueError("states contains non-finite entries")
        with np.errstate(over="ignore"):  # an overflowing difference is named below
            object.__setattr__(self, "observations", np.diff(self.states))
        if self.process_noise.shape != self.observations.shape:
            raise ValueError("process_noise must have one entry per observation")
        for name in ("observations", "process_noise"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def step_count(self) -> int:
        return len(self.states) - 1

    def to_csv(self, path: str | Path) -> str:
        """Write the trajectory CSV by ``write_trace`` and return its sha256:
        one (step, state, noise_applied) row per step; the last row has the
        final state and an empty noise field. The observations are not
        written: ``np.diff`` of the written states gives them bit for bit.

        Every row after the last one whose two values differ from the row
        before, compared as their bits so that 0.0 and -0.0 differ, repeats
        that row's values and reuses its text, as a settled run's rows do.
        """
        n = self.step_count
        columns = np.stack([self.states[:-1], self.process_noise])
        bits = columns.view(np.int64)
        changes = np.flatnonzero((bits[:, 1:] != bits[:, :-1]).any(axis=0))
        m = int(changes[-1]) + 2 if len(changes) else 1  # rows m.. repeat row m - 1
        x, xi = columns[:, m - 1].tolist()
        text = f"{x!r},{xi!r}"
        rows = zip(*columns[:, :m].tolist())
        lines = chain((f"{k},{x!r},{xi!r}" for k, (x, xi) in enumerate(rows)),
                      (f"{k},{text}" for k in range(m, n)),
                      [f"{n},{self.states[-1].item()!r},"])
        return write_trace(path, TRAJECTORY_SCHEMA, ("step", "state", "noise_applied"), lines)


def write_trace(path: str | Path, schema: str, columns: Iterable[str], lines: Iterable[str]) -> str:
    """Write a trace CSV and return the sha256 hex digest of the bytes written.

    A ``# schema`` line ending in \\n, then the header and each of ``lines``
    ending in \\r\\n, as the csv module's default dialect ends rows. Lines
    are joined, encoded, written and hashed 256 at a time, so the whole text
    is never held, and the file is never read back.
    """
    import hashlib  # only written traces need it; it costs megabytes on import

    digest = hashlib.sha256()
    lines = chain([f"# {schema}\n" + ",".join(columns)], lines)  # the schema line ends in \n
    with open(path, "wb") as fh:
        while chunk := list(islice(lines, 256)):
            data = ("\r\n".join(chunk) + "\r\n").encode()
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def sis_step(x: float, params: SisParams) -> float:
    """One noise-free step of the scalar SIS recursion."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"state must lie in [0, 1], got {x}")
    return x + (1.0 - x) * params.beta * x - params.gamma * x


def _process_noise(rng: np.random.Generator, std: float, bound: float, steps: int) -> np.ndarray:
    """``steps`` draws of N(0, std^2) with |draw| <= bound, in draw order. No block
    asks for more draws than are still missing, so none is taken past the last kept.
    """
    kept, n = np.empty(steps), 0
    while n < steps:
        block = rng.normal(0.0, std, size=steps - n)
        block = block[np.abs(block) <= bound]
        kept[n:n + len(block)] = block
        n += len(block)
    return kept


def simulate(
    x0: float,
    params: SisParams,
    steps: int,
    noise: NoiseSpec | None = None,
) -> Trajectory:
    """Simulate ``steps`` transitions from ``x0``; deterministic for a fixed seed.

    Bitwise equal to redrawing process noise one sample at a time, with the
    generator left at the same position for the observation noise. Without
    process noise, a state equal to the one before it is a fixed point of the
    recursion: the remaining states are filled with it, not stepped to.
    ``ValueError`` names ``x0``, ``steps`` or ``noise.seed`` (an integer
    >= 0) unless ``read_x0``, ``read_steps`` or ``read_count`` reads it, and
    names ``noise.observation_std`` when ``Trajectory`` refuses the noisy
    states, as not finite or with differences that are not.
    """
    x0, steps = read_x0(x0), read_steps(steps)
    if noise is not None:
        rng = np.random.default_rng(read_count(noise.seed, "noise.seed", 0))
    perturbed = noise is not None and noise.process_std > 0
    if perturbed:
        xi = _process_noise(rng, noise.process_std, noise.bound_nu, steps)
    else:
        xi = np.zeros(steps)
    # read and filled through memoryviews, one float at a time: per-step lists
    # of floats would leave their memory behind
    states = np.empty(steps + 1)
    out = memoryview(states)
    out[0] = x = x0
    for k, e in enumerate(memoryview(xi), 1):
        last, x = x, sis_step(x, params) + e
        if not 0.0 < x < 1.0:  # = min(1.0, max(0.0, x)), minus two calls
            x = 1.0 if x >= 1.0 else 0.0
        out[k] = x
        # equal nonzero floats have equal bits, and 0.0 (x is never -0.0) steps to
        # 0.0, so without noise an x equal to the state before is its own successor
        if x == last and not perturbed:
            states[k:] = x
            break

    if noise is not None and noise.observation_std > 0:
        states += rng.normal(0.0, noise.observation_std, size=steps + 1)
    try:
        return Trajectory(states=states, process_noise=xi)
    except ValueError:  # only states with observation noise can be refused
        raise ValueError(f"noise.observation_std: {noise.observation_std!r} is too large: "
                         "the noisy states or their differences are not finite") from None
