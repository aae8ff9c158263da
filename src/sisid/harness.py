"""Experiment runner: simulate, run each identifier to the end in turn, emit traces.

A run writes one CSV per requested trace kind and a ``manifest.json``: the
config echo, the library, Python and numpy versions, wall time and per-phase
timings, the GRLS excitation set, and the sha256 of every written file. A
numerical failure in an estimator freezes it at its last state, is named in
the manifest and makes the exit status nonzero. Trace CSVs are bitwise
reproducible; timings appear only in the manifest.

- **Columns.** Every per-step series of a run is a ``_Column``: rows of a fixed
  width of floats in one ``array('d')``, whose last row stands for every later
  step. A run holds no per-step Python object.
- **Preparation** (``_Prepared``): what only the trajectory decides. It holds the
  trajectory, its settle step (the first step from which the states repeat),
  the column of (u1, u2, y) rows, whose tail starts there, and, formed when a
  run first asks, the FIM condition trace of each alpha and the excitation
  pass. Variants of a sweep in a row that share (x0, sis, steps, noise) reuse
  it (``_run_variants``).
- **FIM condition trace** (``_fim_condition_trace``): one pass per alpha; a
  condition number is formed only when the entries change, and the pass stops
  once they repeat in the settled tail.
- **Excitation pass** (``_excitation_pass``): each step's datum offered to the
  greedy set, once for every GRLS lane, as an offer reads neither alpha, P nor
  theta. It stops at the first rejection in the settled tail.
- **Lanes**: one generator per estimator, stepping its float kernel over the
  rows and reporting theta, and P for the RLS lanes. ``_run_lane`` records a
  lane's reports as a column and ends it at a failure, or once a report in the
  settled tail repeats the one before it (``settled`` in the manifest).
- **Rows and traces**: ``RunResult.rows`` is a read-only view that forms each
  ``MetricsRow`` from the columns when it is read. Trace texts are formed at
  write time, a chunk of steps at a time, with one ``repr`` per run of equal
  bits, and ``dynamics.write_trace`` writes and hashes them.
"""

from __future__ import annotations

import json
import math
import operator
import sys
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .config import ConfigError, EstimatorSettings, ExperimentConfig, config_to_mapping
from .dynamics import Trajectory, simulate, write_trace
from .estimators import (
    _rls_update,
    ie_mmai_init,
    ie_mmai_kernel,
    ie_mmai_selected,
    pure_gd_kernel,
    read_alpha,
)
from .excitation import (
    GreedySet, _offer_floats, regressor_pairs, sis_regressor_pair, write_acceptance_trace,
)
from .linalg import ConditioningError, Sym2, sym2_spectrum

METRICS_SCHEMA = "sisid-metrics-v2"


class MetricsRow(NamedTuple):
    """Per-step, per-estimator metrics; None marks a field without a defined value.

    A NamedTuple: it unpacks, indexes and compares equal to a plain tuple. Of
    its eleven fields a metrics trace writes nine, ``METRICS_COLUMNS``: not
    ``r0_hat`` (beta_hat / gamma_hat, None when gamma_hat is 0) nor
    ``log10_max_rel_err`` (math.log10 of ``max_rel_err``, None when that is
    None or 0), which a line's own fields give exactly.
    """

    step: int
    estimator: str
    beta_hat: float
    gamma_hat: float
    r0_hat: float | None
    max_rel_err: float | None
    log10_max_rel_err: float | None
    fim_cond: float
    p_cond: float | None
    p_max_eig: float | None
    accepted: bool | None


# the fields a metrics line writes
METRICS_COLUMNS = tuple(f for f in MetricsRow._fields if f not in ("r0_hat", "log10_max_rel_err"))

# steps per chunk of formed rows and of formed text
_CHUNK = 1024


class _Column:
    """Per-step rows of ``width`` floats, held in the ``array('d')`` ``data``:
    the rows of steps 0..last, of which row ``last`` stands for every later step."""

    __slots__ = ("width", "data")

    def __init__(self, width: int, data: Iterable[float] = ()):
        self.width, self.data = width, array("d", data)

    @property
    def last(self) -> int:
        return len(self.data) // self.width - 1

    def rows(self, i: int, j: int) -> np.ndarray:
        """The rows of steps i..j-1, a new (j - i, width) array."""
        table = np.frombuffer(self.data).reshape(-1, self.width)
        return table[np.minimum(np.arange(i, j), self.last)]

    def steps(self, n: int) -> Iterator[tuple[float, ...]]:
        """The rows of steps 0..n-1, each a tuple."""
        it = iter(self.data)
        rows = zip(*[it] * self.width)
        tail = n - self.last - 1
        if tail <= 0:
            return islice(rows, n)
        return chain(rows, repeat(tuple(self.data[-self.width:]), tail))


def fim_condition_trace(traj: Trajectory, reg: Callable, alpha: float) -> list[float]:
    """Condition number of the discounted FIM after each step (may contain inf).

    The FIM H = alpha H + phi^T phi is accumulated as its entries, so its
    condition number is the same closed form the greedy offer uses.
    ``ValueError`` naming alpha unless ``read_alpha`` reads it, and naming
    the first step whose FIM entries are not finite, as when the regressor
    overflows.
    """
    alpha = read_alpha(alpha)
    pairs = regressor_pairs(reg, traj.states[:-1].tolist())
    return _fim_condition_trace(((u1, u2, 0.0) for u1, u2 in pairs), alpha).data.tolist()


def _fim_condition_trace(
    rows: Iterable[tuple[float, float, float]], alpha: float, settled: float = math.inf,
) -> _Column:
    """``fim_condition_trace`` over (u1, u2, y) rows, one per step. A step whose
    entries equal the previous step's repeats its condition number: the entries
    are finite, and the sign of a zero entry does not change it. From step
    ``settled`` on the rows are one row, so once the entries repeat there, the
    column ends: every later step repeats them too.
    """
    a = b = d = 0.0
    last_a = last_b = last_d = math.nan
    trace = _Column(1)
    append = trace.data.append
    for k, (u1, u2, _) in enumerate(rows):
        a, b, d = alpha * a + u1 * u1, alpha * b + u1 * u2, alpha * d + u2 * u2
        if a * 0.0 + b * 0.0 + d * 0.0:  # 0.0 for finite entries, NaN otherwise
            raise ValueError(f"the FIM entries {(a, b, d)!r} are not finite from step {k}")
        if a != last_a or b != last_b or d != last_d:
            kappa, last_a, last_b, last_d = sym2_spectrum(a, b, d)[2], a, b, d
        elif k >= settled:
            break
        append(kappa)
    return trace


class _Excitation(NamedTuple):
    """A run's excitation pass. ``offers`` holds each step's verdict (1.0
    accepted, 0.0 rejected) and kappa before and after; its last row is a
    rejection that every later offer repeats, or the last step's. ``sets``
    holds the FIM entries and right-hand side of the set after each accepted
    offer, in step order: what the RLS update reads."""

    offers: _Column
    sets: list[tuple[Sym2, tuple[float, float]]]


# the pass that a lane other than GRLS's steps over: every step a rejection, no set
_NO_OFFERS = _Excitation(_Column(3, (0.0, math.inf, math.inf)), [])


def _excitation_pass(rows, settled: float = math.inf) -> _Excitation:
    """The greedy offers of a run's (u1, u2, y) rows (``_Excitation``). From step
    ``settled`` on the rows are one row, so once an offer there is rejected,
    every later offer repeats it, and the pass stops."""
    gset, offers, sets = GreedySet(), _Column(3), []
    extend = offers.data.extend
    for k, (u1, u2, y) in enumerate(rows):
        before = gset.cond
        gset, accepted = _offer_floats(gset, (u1, u2), y, k)
        extend((accepted, before, gset.cond))
        if accepted:
            sets.append((gset.fim_entries, gset.rhs_entries))
        elif k >= settled:
            break
    return _Excitation(offers, sets)


# A lane is a generator over a run's (u1, u2, y) rows, its offers' (verdict,
# kappa before, kappa after) rows and the sets after accepted offers, which only
# the RLS lane reads. It yields a report before its first step and after each
# step: theta, then P's three entries for an RLS lane. A step that fails raises
# ``ConditioningError`` out of it. Its settings were read by a config: floats,
# theta0 a float pair. A lane only steps; ``_run_lane`` decides where it ends.


def _pure_gd_lane(est: EstimatorSettings, rows, offers, sets) -> Iterator[tuple]:
    theta = est.theta0
    yield theta
    for u1, u2, y in rows:
        theta = pure_gd_kernel(theta, (u1, u2), y)
        yield theta


def _rls_lane(est: EstimatorSettings, rows, offers, sets) -> Iterator[tuple]:
    """The weighted-RLS update alone: GRLS over the sets of the run's excitation
    pass, EF-RLS over ``_NO_OFFERS``, whose set stays empty."""
    p, theta, alpha = (est.p0_scale, 0.0, est.p0_scale), est.theta0, est.alpha
    fim = rhs = None
    sets = iter(sets)
    yield theta + p
    for (u1, u2, y), (accepted, _, _) in zip(rows, offers):
        if accepted:
            fim, rhs = next(sets)
        p, theta = _rls_update(p, theta, fim, rhs, (u1, u2), y, alpha, accepted)
        yield theta + p


def _ie_mmai_lane(est: EstimatorSettings, rows, offers, sets) -> Iterator[tuple]:
    state = ie_mmai_init(est.theta0, est.models, est.spread, est.seed)
    yield ie_mmai_selected(state[0])
    for u1, u2, y in rows:
        state = ie_mmai_kernel(state, (u1, u2), y)
        yield ie_mmai_selected(state[0])


_LANES = {
    "pure_gd": _pure_gd_lane, "ef_rls": _rls_lane, "grls": _rls_lane, "ie_mmai": _ie_mmai_lane
}


def _runs(table: np.ndarray) -> tuple[np.ndarray, list[int] | None]:
    """The rows of ``table`` that begin a run of rows with equal bits, and each
    row's run (None when every row begins one)."""
    bits = table.view(np.int64)
    new = np.ones(len(table), dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    return starts, None if len(starts) == len(table) else (np.cumsum(new) - 1).tolist()


def _spread(values: list, run: list[int] | None) -> list:
    """Per-run ``values`` as per-step values."""
    return values if run is None else list(map(values.__getitem__, run))


def _texts(values: np.ndarray) -> list[str]:
    """``repr`` of each value, formed once per run of values with equal bits."""
    starts, run = _runs(values.reshape(-1, 1))
    return _spread(list(map(repr, values[starts].tolist())), run)


class _Chunk(NamedTuple):
    """A lane's reports at steps i..j-1, by runs of steps whose reports have
    equal bits: each step's run (None when each step is one), each run's
    beta_hat and gamma_hat (clamped when the run clamps), its max_rel_err
    (None without a truth) and P's spectrum (None for a lane without P), and
    each step's verdict, 0.0, 1.0 or NaN for no offer (None for a lane that
    makes no offers), and fim_cond."""

    run: list[int] | None
    beta: list[float]
    gamma: list[float]
    rel: list[float] | None
    spectra: list[tuple[float, float, float]] | None
    verdict: np.ndarray | None
    fim: np.ndarray


@dataclass(eq=False)
class _LaneRecord:
    """One lane's reports as a ``column`` whose row r is the report after step
    r - 1 (row 0 precedes step 0), so that step k reads row k + 1; fim_cond
    from ``fim``, the trace of the lane's alpha; and, for the GRLS lane, its
    offer from ``excitation``, the run's excitation pass, at steps before
    ``offered``, the lane's failing step.
    """

    kind: str
    fim: _Column
    column: _Column
    excitation: _Excitation | None
    offered: int

    def settle_step(self) -> int:
        """The first step whose report and offer every later step repeats: the
        index j of the last of reports 1..last-1 whose bits, or whose step's
        offer, differ from report ``last``'s, or 0, as steps j.. read reports
        equal to it. Report ``last`` holds no zero or NaN, so equal bits are
        equal values."""
        last = self.column.last
        bits = self.column.rows(1, last + 1).view(np.int64)
        differ = (bits[:-1] != bits[-1]).any(axis=1)
        if self.excitation is not None:  # reports 1..last are steps 0..last-1
            bits = self.excitation.offers.rows(0, last).view(np.int64)
            differ |= (bits[:-1] != bits[-1]).any(axis=1)
        changed = np.flatnonzero(differ)
        return int(changed[-1]) + 1 if len(changed) else 0

    def chunk(self, i: int, j: int, truth, clamp: bool) -> _Chunk:
        """Steps i..j-1, by runs (``_Chunk``)."""
        reports = self.column.rows(i + 1, j + 1)
        starts, run = _runs(reports)
        beta, gamma = reports[starts, :2].T
        if clamp:
            beta, gamma = np.where(beta > 0.0, beta, 0.0), np.where(gamma > 0.0, gamma, 0.0)
        rel = None
        if truth is not None:
            with np.errstate(all="ignore"):  # IEEE results, as float arithmetic gives them
                e1, e2 = np.abs(beta - truth[0]) / truth[0], np.abs(gamma - truth[1]) / truth[1]
            rel = np.where(e2 > e1, e2, e1).tolist()  # max(e1, e2), NaN as max reads it
        spectra = None
        if self.column.width > 2:
            spectra = [sym2_spectrum(a, b, d) for a, b, d in reports[starts, 2:].tolist()]
        verdict = None
        if self.excitation is not None:
            verdict = self.excitation.offers.rows(i, j)[:, 0]
            verdict[max(self.offered - i, 0):] = math.nan  # no offer from the failing step on
        return _Chunk(run, beta.tolist(), gamma.tolist(), rel, spectra, verdict,
                      self.fim.rows(i, j)[:, 0])


def _run_lane(
    est: EstimatorSettings, inputs: _Column, steps: int, fim: _Column,
    excitation: _Excitation | None,
) -> tuple[_LaneRecord, float, dict | None, int | None]:
    """One lane's record (``_LaneRecord``) over ``steps`` steps of ``inputs``, its
    stepping seconds, its error entry, and the first step whose report every
    later step repeats, for a lane that settled (None otherwise).
    ``excitation`` is the run's excitation pass for the GRLS lane, None for
    any other.

    A lane only steps; this ends it early in two ways. A step that raises
    ``ConditioningError`` freezes it at its last report, with no offer from that
    step on, and makes the error entry (None otherwise). From step
    ``inputs.last`` on every step has one row, and from the offers' last step on
    every offer is a rejection, so a report from the later of the two on that
    equals the one before it is a state that every later step repeats, and the
    lane is stepped no further. Two kinds of report are stepped on: IE-MMAI's,
    which is not its state (its models' costs decay every step), and one
    holding a zero, as 0.0 == -0.0 and a zero's sign can change the next step.
    The last recorded report stands for every later step.
    """
    offers = excitation or _NO_OFFERS
    lane = _LANES[est.kind](est, inputs.steps(steps), offers.offers.steps(steps), offers.sets)
    # reports drawn unchecked after the first
    unchecked = steps if est.kind == "ie_mmai" else max(inputs.last, offers.offers.last)
    failure = lane_settled = None
    t0 = time.perf_counter()
    prev = next(lane)
    column = _Column(len(prev), prev)
    try:
        # no report is held: each is recorded as it is drawn, up to a raise
        column.data.extend(chain.from_iterable(islice(lane, unchecked)))
        prev = tuple(column.data[-column.width:])
        for report in lane:
            column.data.extend(report)
            if report == prev and 0.0 not in report:
                break
            prev = report
    except ConditioningError as exc:
        failure = str(exc)
    step_s = time.perf_counter() - t0
    error = None
    if failure is not None:  # reports 0..last were drawn; step last raised
        error = {"estimator": est.kind, "step": column.last, "message": failure}
    record = _LaneRecord(est.kind, fim, column, excitation,
                         steps if error is None else column.last)
    if error is None and column.last < steps:
        lane_settled = record.settle_step()
    return record, step_s, error, lane_settled


_VERDICTS = (False, True, None)  # by code: 0.0, 1.0, NaN
_FLAGS = ("0", "1", "")


def _codes(verdict: np.ndarray) -> list[int]:
    """Each verdict as an index into ``_VERDICTS``."""
    return np.where(verdict == verdict, verdict, 2.0).astype(np.intp).tolist()


class _Rows(Sequence):
    """A run's metrics rows, step by step and lane by lane within a step, each
    formed when it is read from the lanes' columns.

    Supports ``len``, indexing (a slice returns a list), iteration and ``==``
    against a list or another view; its ``repr`` is that of the list of rows.
    """

    __slots__ = ("_lanes", "_steps", "_truth", "_clamp")

    def __init__(self, lanes: list[_LaneRecord], steps: int, truth, clamp: bool):
        self._lanes, self._steps, self._truth, self._clamp = lanes, steps, truth, clamp

    def __len__(self) -> int:
        return self._steps * len(self._lanes)

    def __getitem__(self, index):
        width = len(self._lanes)
        if isinstance(index, slice):  # the rows of the steps the slice spans
            picked = range(*index.indices(len(self)))
            if not picked:
                return []
            first, last = sorted((picked[0] // width, picked[-1] // width))
            rows = list(self._between(first, last + 1))
            return [rows[i - first * width] for i in picked]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("row index out of range")
        k, lane = divmod(i, width)
        return self._lane_rows(self._lanes[lane], k, k + 1)[0]

    def __iter__(self) -> Iterator[MetricsRow]:
        return self._between(0, self._steps)

    def _between(self, first: int, end: int) -> Iterator[MetricsRow]:
        """The rows of steps first..end-1, formed a chunk of steps at a time."""
        for i in range(first, end, _CHUNK):
            j = min(i + _CHUNK, end)
            yield from chain.from_iterable(zip(*(self._lane_rows(lane, i, j)
                                                 for lane in self._lanes)))

    def __eq__(self, other):
        if isinstance(other, (list, _Rows)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))

    def _lane_rows(self, lane: _LaneRecord, i: int, j: int) -> list[MetricsRow]:
        c = lane.chunk(i, j, self._truth, self._clamp)
        runs = len(c.beta)
        r0 = [b / g if g != 0.0 else None for b, g in zip(c.beta, c.gamma)]
        rel = [None] * runs if c.rel is None else c.rel
        log_rel = [math.log10(e) if e is not None and e > 0 else None for e in rel]
        spectra = [None] * runs if c.spectra is None else c.spectra
        p_cond = [s and s[2] for s in spectra]
        p_max = [s and s[1] for s in spectra]
        b, g, r0, rel, log_rel, p_cond, p_max = (
            _spread(f, c.run) for f in (c.beta, c.gamma, r0, rel, log_rel, p_cond, p_max))
        accepted = (repeat(None) if c.verdict is None
                    else map(_VERDICTS.__getitem__, _codes(c.verdict)))
        rows = zip(range(i, j), repeat(lane.kind), b, g, r0, rel, log_rel, c.fim.tolist(),
                   p_cond, p_max, accepted)
        return list(map(tuple.__new__, repeat(MetricsRow), rows))

    def metrics_lines(self, spent: list[float]) -> Iterator[list[str]]:
        """The metrics trace's lines, a list per chunk of steps; adds the seconds
        spent forming them to ``spent[0]``. A lane's beta_hat, gamma_hat,
        max_rel_err, p_cond and p_max_eig text is formed once per run of steps
        whose reports have equal bits, and each chunk's fim_cond text once per
        run of equal bits, shared by the lanes of one alpha."""
        clock = time.perf_counter
        for i in range(0, self._steps, _CHUNK):
            t0 = clock()
            j = min(i + _CHUNK, self._steps)
            steps, fims, lines = list(map(str, range(i, j))), {}, []
            for lane in self._lanes:
                c = lane.chunk(i, j, self._truth, self._clamp)
                fim = fims.get(id(lane.fim))
                if fim is None:
                    fim = fims[id(lane.fim)] = _texts(c.fim)
                rel = repeat("") if c.rel is None else map(repr, c.rel)
                heads = list(map(",".join, zip(repeat(lane.kind), map(repr, c.beta),
                                               map(repr, c.gamma), rel)))
                tails = repeat(",") if c.spectra is None else _spread(
                    [f"{s[2]!r},{s[1]!r}" for s in c.spectra], c.run)
                flags = (repeat("") if c.verdict is None
                         else map(_FLAGS.__getitem__, _codes(c.verdict)))
                lines.append(list(map(",".join, zip(steps, _spread(heads, c.run), fim, tails,
                                                    flags))))
            chunk = list(chain.from_iterable(zip(*lines)))
            spent[0] += clock() - t0
            yield chunk

    def offers(self) -> Iterator[tuple[int, bool, float, float]]:
        """The GRLS lane's greedy offers, each as (step, accepted, kappa before,
        kappa after), from the excitation pass up to the lane's failing step."""
        for lane in self._lanes:
            if lane.excitation is None:
                continue
            for i in range(0, lane.offered, _CHUNK):
                j = min(i + _CHUNK, lane.offered)
                verdict, before, after = lane.excitation.offers.rows(i, j).T.tolist()
                yield from ((k, v == 1.0, b, a)
                            for k, v, b, a in zip(range(i, j), verdict, before, after))

    def excitation(self) -> tuple[list[int], float] | None:
        """The steps of the accepted offers and the kappa after the last offer,
        as ``offers`` gives them; None when there is no offer."""
        for lane in self._lanes:
            if lane.excitation is not None and lane.offered:
                table = lane.excitation.offers.rows(0, lane.offered)
                return np.flatnonzero(table[:, 0] == 1.0).tolist(), table[-1, 2].item()
        return None


@dataclass
class RunResult:
    rows: Sequence[MetricsRow]
    status: int
    trajectory: Trajectory
    output_dir: Path | None
    manifest: dict


def run_experiment(config: ExperimentConfig, output_dir: str | Path | None = None) -> RunResult:
    """Execute one experiment and return rows, status, trajectory, and manifest.

    Trace CSVs and a manifest are written to ``output_dir`` (defaulting to
    ``config.outputs``); nothing touches the disk when the config's emit
    list is empty and no directory is forced. The exit status is nonzero
    when any estimator hit a numerical error mid-run; such estimators stay
    frozen at their last state for the remaining steps. Observation noise so
    large that the noisy states or their differences are not finite, or that
    the FIM entries overflow (then naming the step), raises ``ConfigError``
    naming ``noise.observation_std``, before any lane steps or file is
    written. ``RunResult.rows`` is a read-only sequence of ``MetricsRow``,
    each formed from the lanes' columns when it is read.

    ``manifest["timings"]`` holds seconds spent simulating, computing the
    FIM condition trace, making the excitation pass (0.0 without a GRLS
    lane), stepping each estimator, forming the metrics CSV lines (0.0
    without a metrics trace) and writing and hashing files; in a sweep, a
    phase that a variant reuses from an earlier one reads 0.0.
    ``manifest["excitation"]``, present when a GRLS lane is configured, holds
    its excitation set: size, step indices and final condition number (null
    while the set is rank deficient or empty, as when GRLS fails at its first
    step). ``manifest["settled"]`` holds the first step from which the states
    never change (``"trajectory"``, None when the last step changes them) and,
    per estimator kind, the first step whose report every later step repeats
    when its lane stopped stepping there (None when it stepped to the end).
    """
    (result,) = _run_variants([(config, output_dir)])
    return result


def _run_variants(
    variants: Iterable[tuple[ExperimentConfig, str | Path | None]],
) -> Iterator[RunResult]:
    """``run_experiment`` on each (config, output_dir) in turn, each result
    yielded when its run is done. A variant whose (x0, sis, steps, noise) are
    those of the variant before it reuses that variant's preparation
    (``_Prepared``), its ``Trajectory`` object included; one preparation is
    held at a time."""
    prepared = key = None
    for config, output_dir in variants:
        t0 = time.perf_counter()
        if _trajectory_key(config) != key:
            prepared = None  # released before the next one is formed
            key, prepared = _trajectory_key(config), _Prepared(config)
        yield _run_experiment(config, output_dir, prepared, t0)


def _trajectory_key(config: ExperimentConfig) -> str:
    """What a run's trajectory is simulated from, as text, so that 0.0 and -0.0 differ."""
    return repr((config.x0, config.sis, config.steps, config.noise))


class _Prepared:
    """What the lanes of a run read that only its trajectory decides: the
    trajectory, its settle step, the column of its (u1, u2, y) rows, whose
    tail starts at the settle step, and the FIM condition traces and
    excitation pass, each formed the first time a run asks for it.
    ``timings`` holds the seconds spent on each phase since a run last took
    them (``take_timings``)."""

    def __init__(self, config: ExperimentConfig):
        clock = time.perf_counter
        t0 = clock()
        try:
            traj = simulate(config.x0, config.sis, config.steps, config.noise)
        except ValueError as exc:  # the config was read: only observation noise is left to fail
            raise ConfigError(str(exc)) from None
        t1 = clock()
        # the first step from which the states, and so the rows, repeat
        bits = traj.states.view(np.int64)  # bits, so that 0.0 and -0.0 differ
        changes = np.flatnonzero(bits[1:] != bits[:-1])
        settled = int(changes[-1]) + 1 if len(changes) else 0
        ys = traj.observations[:settled + 1].tolist()
        xs = traj.states[:len(ys)].tolist()
        self.inputs = _Column(3, chain.from_iterable(
            (*sis_regressor_pair(x), y) for x, y in zip(xs, ys)))
        self.traj, self.settled, self.steps = traj, settled, config.steps
        self._fim: dict[float, _Column] = {}
        self._excitation: _Excitation | None = None
        self.timings = {"simulate_s": t1 - t0, "fim_trace_s": clock() - t1, "excitation_s": 0.0}

    def fim_traces(self, config: ExperimentConfig) -> dict[float, _Column]:
        """The FIM condition trace of each alpha, those of ``config``'s
        estimators among them; ``ConfigError`` naming
        ``noise.observation_std`` when the FIM entries are not finite."""
        missing = sorted({est.alpha for est in config.estimators} - self._fim.keys(), reverse=True)
        if missing:
            t0 = time.perf_counter()
            try:
                # the largest alpha's entries are the largest, so it names the first failing step
                for alpha in missing:
                    self._fim[alpha] = _fim_condition_trace(
                        self.inputs.steps(self.steps), alpha, self.inputs.last)
            except ValueError as exc:
                # only observation noise takes states, and so the regressor, out of [0, 1]
                std = config.noise.observation_std
                raise ConfigError(f"noise.observation_std: {std!r} is too large: {exc}") from None
            self.timings["fim_trace_s"] += time.perf_counter() - t0
        return self._fim

    def excitation(self) -> _Excitation:
        """The excitation pass (``_excitation_pass``) over the run."""
        if self._excitation is None:
            t0 = time.perf_counter()
            self._excitation = _excitation_pass(self.inputs.steps(self.steps), self.inputs.last)
            self.timings["excitation_s"] += time.perf_counter() - t0
        return self._excitation

    def take_timings(self) -> dict[str, float]:
        """The seconds spent on each phase since the last call; zero from then on."""
        timings, self.timings = self.timings, dict.fromkeys(self.timings, 0.0)
        return timings


def _run_experiment(config: ExperimentConfig, output_dir: str | Path | None,
                    prepared: _Prepared, t0: float) -> RunResult:
    """``run_experiment`` over a preparation of its trajectory, begun at ``t0``."""
    clock = time.perf_counter
    fim_traces = prepared.fim_traces(config)
    grls = any(est.kind == "grls" for est in config.estimators)
    excitation = prepared.excitation() if grls else None
    timings = prepared.take_timings()
    beta, gamma = config.sis.beta, config.sis.gamma
    truth = (beta, gamma) if beta > 0 and gamma > 0 else None

    lanes, errors, step_s = [], [], {}
    settled = {"trajectory": prepared.settled if prepared.settled < config.steps else None}
    for est in config.estimators:
        record, step_s[est.kind], error, settled[est.kind] = _run_lane(
            est, prepared.inputs, config.steps, fim_traces[est.alpha],
            excitation if est.kind == "grls" else None,
        )
        lanes.append(record)
        if error is not None:
            errors.append(error)
    rows = _Rows(lanes, config.steps, truth, config.clamp_estimates)
    status = 1 if errors else 0

    manifest = {
        "schema": "sisid-manifest-v1",
        "version": __version__,
        "environment": {
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": np.__version__,
        },
        "config": config_to_mapping(config),
        "errors": errors,
        "status": status,
        "settled": settled,
        "files": [],
        "timings": {**timings, "step_s": step_s, "metrics_rows_s": 0.0, "write_s": 0.0},
    }
    if grls:
        indices, kappa = rows.excitation() or ([], math.inf)
        manifest["excitation"] = {
            "size": len(indices),
            "indices": indices,
            "final_kappa": kappa if math.isfinite(kappa) else None,
        }

    if output_dir is None and not config.emit:
        out = None
    else:
        out = Path(output_dir) if output_dir is not None else Path(config.outputs)
        out.mkdir(parents=True, exist_ok=True)
        t3, spent = clock(), [0.0]
        manifest["files"] = _write_traces(out, config, prepared.traj, rows, spent)
        manifest["timings"]["metrics_rows_s"] = spent[0]
        manifest["timings"]["write_s"] = clock() - t3 - spent[0]
        manifest["wall_time_s"] = clock() - t0
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    return RunResult(rows=rows, status=status, trajectory=prepared.traj, output_dir=out,
                     manifest=manifest)


def _write_traces(out: Path, config: ExperimentConfig, traj: Trajectory, rows: _Rows,
                  spent: list[float]) -> list[dict]:
    """Write each emitted trace CSV; returns the manifest's ``files`` entries,
    each with the sha256 of the bytes its writer wrote. Adds the seconds spent
    forming metrics lines to ``spent[0]``."""
    written = []
    if "metrics" in config.emit:
        lines = chain.from_iterable(rows.metrics_lines(spent))
        digest = write_trace(out / "metrics.csv", METRICS_SCHEMA, METRICS_COLUMNS, lines)
        written.append(("metrics", digest))
    if "trajectory" in config.emit:
        written.append(("trajectory", traj.to_csv(out / "trajectory.csv")))
    if "greedy" in config.emit and rows.excitation() is not None:
        written.append(("greedy", write_acceptance_trace(out / "greedy.csv", rows.offers())))
    return [{"name": f"{kind}.csv", "kind": kind, "sha256": digest} for kind, digest in written]
