"""Experiment runner: simulate, run each identifier to the end in turn, emit traces.

A run produces one CSV per requested trace kind plus a ``manifest.json``
echoing the config, the library, Python and numpy versions, wall time and
per-phase timings, the GRLS excitation set, and the sha256 of every
written file, hashed from its bytes as they are written. Numerical
failures inside an estimator do not abort the run: the estimator is
frozen at its last state, the offending step is recorded in the manifest,
and the exit status becomes nonzero. CSV content is bitwise reproducible
for a fixed config; timings appear only in the manifest.

A run has two parts. Its preparation (``_Prepared``) holds what only its
trajectory decides: the simulated trajectory, its settle step (below), the
regressor pairs and observations, the FIM condition trace of each alpha and
the excitation pass, each trace and the pass formed when a run first asks for
it. Variants of a sweep in a row that share (x0, sis, steps, noise) share one
preparation (``_run_variants``); one is held at a time. The per-config part
steps the lanes and forms the rows, the manifest and the traces.

The FIM condition trace is one pass per distinct alpha, largest first, that
checks the FIM entries at every step, names the first step where they are not
finite, and forms a condition number only when they change; it is kept as an
``array('d')``. The excitation pass (``_excitation_pass``) offers each step's
datum to the greedy set; an offer reads neither alpha, P nor theta, so one
pass serves every GRLS lane of the trajectory. It keeps each offer's verdict
and kappa before and after as an ``array('d')``, and the FIM entries and
right-hand side of the set after each accepted offer.

The step loop works on floats. Each estimator runs as one lane, a generator
that steps its float kernel over the run's regressor pairs and observations
and reports its estimate and covariance after each step. No lane offers: the
RLS lane is the weighted-RLS update alone (``estimators._rls_update``), GRLS
over the sets of the excitation pass and EF-RLS over none. Lane by lane,
``_run_lane`` draws a lane's reports to the end, or until it fails or settles
(below), and records them, a chunk of reports at a time, as ``array('d')``
columns: theta and P's three entries. A run holds no per-step Python object
once its lanes have stepped.

``RunResult.rows`` is a read-only sequence view over those columns: it forms
each ``MetricsRow`` when it is read, with its eleven fields, ``r0_hat`` and
``log10_max_rel_err`` among them. The greedy trace, the GRLS rows'
``accepted`` field and the manifest's ``excitation`` block all read the one
excitation pass, cut at a failing GRLS lane's step. The metrics, greedy and
FIM-condition texts are formed when their trace is written, a chunk of steps
at a time, from column slices: ``repr`` of each value, formed once per run of
steps whose values have equal bits, and joined into lines. A metrics line, in
``sisid-metrics-v2``, writes the nine fields of ``METRICS_COLUMNS`` and
leaves out ``r0_hat`` and ``log10_max_rel_err``, which the line's
``beta_hat``, ``gamma_hat`` and ``max_rel_err`` give exactly. Lines are
interleaved step by step, and ``dynamics.write_trace`` writes and hashes
them; no file is read back. Each FIM condition number, and each row's
``p_cond`` and ``p_max_eig`` together, come from one
``linalg.sym2_spectrum`` call. The phases and the whole run are timed by one
``time.perf_counter`` clock.

A noise-free run often reaches an exact fixed point, after which every step
has the same regressor pair and observation. The run finds the first such
step, ``settled``, from its states. From there on the FIM pass stops once its
entries repeat, the excitation pass stops once an offer is rejected, as every
later offer repeats that one, and ``_run_lane`` stops drawing a pure-GD or
RLS lane's reports once one repeats the one before it with no accepted offer
(a lane only steps); the last report stands for every later step, bitwise
what stepping on would give. IE-MMAI steps to the end, as its models' costs
decay every step. The manifest's ``settled`` block names the trajectory's
settle step and, for each lane that stopped stepping, the first step whose
report and offer every later step repeats.

A run pauses Python's cyclic garbage collector and restores the caller's
setting when it returns or raises. While it steps, a run holds the regressor
pairs and a chunk of each lane's reports: GC-tracked tuples that form no
cycles, so each automatic collection their allocation would trigger walks
them and frees nothing. The collector's setting is process-wide, so under
threads the pause holds for every thread while a run is in progress.
"""

from __future__ import annotations

import gc
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

# steps per chunk of recorded reports, of formed rows and of formed text
_CHUNK = 1024


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
    return _fim_condition_trace(pairs, alpha).tolist()


def _fim_condition_trace(
    pairs: Iterable[tuple[float, float]], alpha: float, settled: float = math.inf,
) -> array:
    """``fim_condition_trace`` over regressor pairs (u1, u2), one per step, as an
    ``array('d')``. A step whose entries equal the previous step's repeats its
    condition number: the entries are finite, and the sign of a zero entry does
    not change it. From step ``settled`` on, the pairs (a list then) are one
    pair, so once the entries repeat there, every later step repeats them too.
    """
    a = b = d = 0.0
    last_a = last_b = last_d = math.nan
    trace = array("d")
    append = trace.append
    for k, (u1, u2) in enumerate(pairs):
        a, b, d = alpha * a + u1 * u1, alpha * b + u1 * u2, alpha * d + u2 * u2
        if a * 0.0 + b * 0.0 + d * 0.0:  # 0.0 for finite entries, NaN otherwise
            raise ValueError(f"the FIM entries {(a, b, d)!r} are not finite from step {k}")
        if a != last_a or b != last_b or d != last_d:
            kappa, last_a, last_b, last_d = sym2_spectrum(a, b, d)[2], a, b, d
        elif k >= settled:  # steps k.. repeat this one
            trace += array("d", [kappa]) * (len(pairs) - k)
            break
        append(kappa)
    return trace


@dataclass(eq=False)
class _Excitation:
    """A run's excitation pass: each step's datum offered to the greedy set.

    ``offers`` holds three floats per offered step 0..quiet: the verdict (1.0
    accepted, 0.0 rejected) and kappa before and after; step k reads row
    min(k, quiet), as from step ``quiet`` on every offer repeats that row's
    rejection. ``sets`` holds the FIM entries and right-hand side of the set
    after each accepted offer, in step order: what the RLS update reads.
    """

    offers: array
    sets: list[tuple[Sym2, tuple[float, float]]]
    quiet: int

    def verdicts(self) -> Iterator[float]:
        """Each step's verdict, 1.0 or 0.0, to the end of any run."""
        return chain(self.offers[::3], repeat(0.0))

    def rows(self, i: int, j: int) -> np.ndarray:
        """The offers of steps i..j-1, a (verdict, kappa before, kappa after) row per step."""
        return _table(self.offers, 3)[np.minimum(np.arange(i, j), self.quiet)]


# the pass that a lane other than GRLS's steps over: every step a rejection, no set
_NO_OFFERS = _Excitation(array("d"), [], 0)


def _excitation_pass(pairs, ys, settled: float = math.inf) -> _Excitation:
    """The greedy offers of a run's data (``_Excitation``). From step ``settled``
    on, the pairs and observations are one pair and one observation, so once an
    offer there is rejected, every later offer repeats it, and the pass stops."""
    gset, offers, sets = GreedySet(), array("d"), []
    for k, (phi, y) in enumerate(zip(pairs, ys)):
        before = gset.cond
        gset, accepted = _offer_floats(gset, phi, y, k)
        offers.extend((accepted, before, gset.cond))
        if accepted:
            sets.append((gset.fim_entries, gset.rhs_entries))
        elif k >= settled:
            break
    return _Excitation(offers, sets, len(offers) // 3 - 1)


# What a lane yields before its first step and after each step: theta and P's
# entries (None without a covariance). A step that fails raises
# ``ConditioningError`` out of it. A lane starts from settings a config has
# read: floats, theta0 a float pair. It steps over the run's regressor pairs,
# observations and an excitation pass, which only the RLS lane reads.
# A lane only steps, to the end of the run; ``_run_lane`` decides where it ends.
_Report = tuple[tuple[float, float], Sym2 | None]


def _pure_gd_lane(est: EstimatorSettings, pairs, ys, offers: _Excitation) -> Iterator[_Report]:
    theta = est.theta0
    yield theta, None
    for phi, y in zip(pairs, ys):
        theta = pure_gd_kernel(theta, phi, y)
        yield theta, None


def _rls_lane(est: EstimatorSettings, pairs, ys, offers: _Excitation) -> Iterator[_Report]:
    """The weighted-RLS update alone: GRLS over the sets of the run's excitation
    pass, EF-RLS over ``_NO_OFFERS``, whose set stays empty."""
    p, theta, alpha = (est.p0_scale, 0.0, est.p0_scale), est.theta0, est.alpha
    fim = rhs = None
    sets = iter(offers.sets)
    yield theta, p
    for phi, y, accepted in zip(pairs, ys, offers.verdicts()):
        if accepted:
            fim, rhs = next(sets)
        p, theta = _rls_update(p, theta, fim, rhs, phi, y, alpha, accepted)
        yield theta, p


def _ie_mmai_lane(est: EstimatorSettings, pairs, ys, offers: _Excitation) -> Iterator[_Report]:
    state = ie_mmai_init(est.theta0, est.models, est.spread, est.seed)
    yield ie_mmai_selected(state[0]), None
    for phi, y in zip(pairs, ys):
        state = ie_mmai_kernel(state, phi, y)
        yield ie_mmai_selected(state[0]), None


_LANES = {
    "pure_gd": _pure_gd_lane, "ef_rls": _rls_lane, "grls": _rls_lane, "ie_mmai": _ie_mmai_lane
}

_NAN3 = (math.nan,) * 3


def _extended(column: array | None, entries: tuple, count: int) -> array | None:
    """``column`` (``count`` reports so far) with three floats per entry, NaN
    for a None entry; None while every entry so far is None."""
    nones = entries.count(None)
    if column is None:
        if nones == len(entries):
            return None
        column = array("d", _NAN3) * count
    if nones:
        entries = [_NAN3 if e is None else e for e in entries]
    column.extend(chain.from_iterable(entries))
    return column


def _table(column: array, width: int) -> np.ndarray:
    """A column of ``width`` floats per report as a (reports, width) array view."""
    return np.frombuffer(column, dtype=np.float64).reshape(-1, width)


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
    """A lane's reports at steps i..j-1, by runs of steps whose theta and P have
    equal bits: each step's run (None when each step is one), each run's
    beta_hat and gamma_hat (clamped when the run clamps), its max_rel_err
    (None without a truth) and P's spectrum (None where P is None), and each
    step's verdict, 0.0, 1.0 or NaN for no offer (None for a lane that makes
    no offers), and fim_cond."""

    run: list[int] | None
    beta: list[float]
    gamma: list[float]
    rel: list[float] | None
    spectra: list[tuple[float, float, float] | None] | None
    verdict: np.ndarray | None
    fim: np.ndarray


@dataclass(eq=False)
class _LaneRecord:
    """One lane's reports as ``array('d')`` columns, reports 0..rest (report 0
    precedes step 0): theta, two floats per report, and P (NaN for None), three
    floats per report, or None when no report has one. Step k reads report
    min(k + 1, rest), fim_cond from ``fim``, the trace of the lane's alpha,
    and, for the GRLS lane, its offer from ``excitation``, the run's
    excitation pass, at steps before ``offered``, the lane's failing step.
    """

    kind: str
    fim: array
    theta: array
    excitation: _Excitation | None = None
    p: array | None = None
    rest: int = 0
    offered: int = 0

    @property
    def count(self) -> int:
        return len(self.theta) // 2

    def add(self, reports: list) -> None:
        """Record ``reports`` and clear the list."""
        if reports:
            thetas, ps = zip(*reports)
            count = self.count
            self.theta.extend(chain.from_iterable(thetas))
            self.p = _extended(self.p, ps, count)
            reports.clear()

    def freeze(self) -> None:
        """Record the last report's theta and P again."""
        self.theta.extend(self.theta[-2:])
        if self.p is not None:
            self.p.extend(self.p[-3:])

    def settle_step(self) -> int:
        """The first step whose report and offer every later step repeats: the
        index j of the last of reports 1..rest-1 whose bits, or whose step's
        offer, differ from report ``rest``'s, or 0, as steps j.. read reports
        equal to it. Report ``rest`` holds no zero or NaN, so equal bits are
        equal values."""
        differ = np.zeros(self.rest - 1, dtype=bool)
        for column, width in ((self.theta, 2), (self.p, 3)):
            if column is not None:
                bits = _table(column, width).view(np.int64)
                differ |= (bits[1:self.rest] != bits[self.rest]).any(axis=1)
        if self.excitation is not None:  # reports 1..rest are steps 0..rest-1
            bits = self.excitation.rows(0, self.rest).view(np.int64)
            differ |= (bits[:-1] != bits[-1]).any(axis=1)
        changed = np.flatnonzero(differ)
        return int(changed[-1]) + 1 if len(changed) else 0

    def reports(self, column: array, width: int, i: int, j: int) -> np.ndarray:
        """The reports that steps i..j-1 read from ``column``, a row per step."""
        return _table(column, width)[np.minimum(np.arange(i + 1, j + 1), self.rest)]

    def chunk(self, i: int, j: int, truth, clamp: bool) -> _Chunk:
        """Steps i..j-1, by runs (``_Chunk``)."""
        theta = self.reports(self.theta, 2, i, j)
        p = None if self.p is None else self.reports(self.p, 3, i, j)
        starts, run = _runs(theta if p is None else np.hstack((theta, p)))
        beta, gamma = theta[starts].T
        if clamp:
            beta, gamma = np.where(beta > 0.0, beta, 0.0), np.where(gamma > 0.0, gamma, 0.0)
        rel = None
        if truth is not None:
            with np.errstate(all="ignore"):  # IEEE results, as float arithmetic gives them
                e1, e2 = np.abs(beta - truth[0]) / truth[0], np.abs(gamma - truth[1]) / truth[1]
            rel = np.where(e2 > e1, e2, e1).tolist()  # max(e1, e2), NaN as max reads it
        spectra = None
        if p is not None:
            spectra = [None if a != a else sym2_spectrum(a, b, d)  # NaN: no P
                       for a, b, d in p[starts].tolist()]
        verdict = None
        if self.excitation is not None:
            verdict = self.excitation.rows(i, j)[:, 0]
            verdict[max(self.offered - i, 0):] = math.nan  # no offer from the failing step on
        return _Chunk(run, beta.tolist(), gamma.tolist(), rel, spectra, verdict,
                      np.frombuffer(self.fim)[i:j])


def _run_lane(
    est: EstimatorSettings, pairs, ys, settled: int, fim: array, offers: _Excitation | None,
) -> tuple[_LaneRecord, float, dict | None, int | None]:
    """One lane's record (``_LaneRecord``), its stepping seconds, its error
    entry, and the first step whose report every later step repeats, for a
    lane that settled (None otherwise). ``offers`` is the run's excitation
    pass for the GRLS lane, None for any other.

    A lane only steps; this ends it early in two ways. A step that raises
    ``ConditioningError`` freezes it at its last report, with no offer from that
    step on, and makes the error entry (None otherwise). From step ``settled``
    on, every step has one regressor pair and observation, and from step
    ``offers.quiet`` on, every offer is a rejection, so a report from the later
    of the two on that equals the one before it is a state that every later
    step repeats, and the lane is stepped no further. Two kinds of report are
    stepped on: IE-MMAI's, which is not its state (its models' costs decay
    every step), and one holding a zero in theta or P, as 0.0 == -0.0 and a
    zero's sign can change the next step. The last recorded report stands for
    every later step.
    """
    record = _LaneRecord(est.kind, fim, array("d"), offers)
    buf, error, lane_settled = [], None, None
    offers = offers or _NO_OFFERS
    lane = _LANES[est.kind](est, pairs, ys, offers)
    # reports drawn unchecked
    drawn = (len(ys) if est.kind == "ie_mmai" else max(settled, offers.quiet)) + 1
    t0 = time.perf_counter()
    try:
        for start in range(0, drawn, _CHUNK):
            buf.extend(islice(lane, min(_CHUNK, drawn - start)))  # keeps what came before a raise
            prev = buf[-1]
            record.add(buf)
        for report in lane:
            buf.append(report)
            theta, p = report
            if report == prev and 0.0 not in theta + (p or ()):
                break
            prev = report
            if len(buf) == _CHUNK:
                record.add(buf)
    except ConditioningError as exc:
        record.add(buf)
        error = {"estimator": est.kind, "step": record.count - 1, "message": str(exc)}
        record.freeze()
    record.add(buf)
    step_s = time.perf_counter() - t0
    record.rest = record.count - 1  # steps from ``rest`` on repeat report ``rest``
    record.offered = len(ys) if error is None else error["step"]
    if error is None and record.rest < len(ys):
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
        whose theta and P have equal bits, and each chunk's fim_cond text once
        per run of equal bits, shared by the lanes of one alpha."""
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
                    ["," if s is None else f"{s[2]!r},{s[1]!r}" for s in c.spectra], c.run)
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
                verdict, before, after = lane.excitation.rows(i, j).T.tolist()
                yield from ((k, v == 1.0, b, a)
                            for k, v, b, a in zip(range(i, j), verdict, before, after))

    def excitation(self) -> tuple[list[int], float] | None:
        """The steps of the accepted offers and the kappa after the last offer,
        as ``offers`` gives them; None when there is no offer."""
        for lane in self._lanes:
            if lane.excitation is not None and lane.offered:
                # the rows of steps 0..offered-1; those past the pass repeat its
                # last row, a rejection
                table = _table(lane.excitation.offers, 3)[:lane.offered]
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

    The cyclic garbage collector is paused for the run, so that collections do
    not walk its live regressor pairs and reports, which form no cycles, to
    free nothing; only writing the manifest by ``json.dumps`` leaves cyclic
    garbage. When the run returns or raises, the collector is switched back
    on only if it was on when the run began. The pause is process-wide: while
    a run is in progress no thread gets automatic collections, and of runs
    overlapping in several threads, the one that paused the collector
    switches it back on.
    """
    (result,) = _run_variants([(config, output_dir)])
    return result


def _run_variants(
    variants: Iterable[tuple[ExperimentConfig, str | Path | None]],
) -> Iterator[RunResult]:
    """``run_experiment`` on each (config, output_dir) in turn, each result
    yielded when its run is done. A variant whose (x0, sis, steps, noise) are
    those of the variant before it shares that variant's preparation
    (``_Prepared``), its ``Trajectory`` object included. One preparation is
    held at a time: a run whose next variant does not share it releases its
    regressor pairs and observations once its lanes have stepped, and the rest
    when it is done. Each run pauses the collector as ``run_experiment`` does,
    and restores it before its result is yielded."""
    prepared, variants = None, iter(variants)
    upcoming = next(variants, None)
    while upcoming is not None:
        (config, output_dir), upcoming = upcoming, next(variants, None)
        shared = upcoming is not None and _trajectory_key(upcoming[0]) == _trajectory_key(config)
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            if prepared is None:
                prepared = _Prepared(config)
            result = _run_experiment(config, output_dir, prepared, t0, shared)
        finally:
            if collecting:
                gc.enable()
        if not shared:
            prepared = None
        yield result


def _trajectory_key(config: ExperimentConfig) -> str:
    """What a run's trajectory is simulated from, as text, so that 0.0 and -0.0 differ."""
    return repr((config.x0, config.sis, config.steps, config.noise))


class _Prepared:
    """What the lanes of a run read that only its trajectory decides: the
    trajectory, its settle step, the regressor pairs and observations, and the
    FIM condition traces and excitation pass, each formed the first time a run
    asks for it. ``timings`` holds the seconds spent on each phase since a run
    last took them (``take_timings``)."""

    def __init__(self, config: ExperimentConfig):
        clock = time.perf_counter
        t0 = clock()
        try:
            traj = simulate(config.x0, config.sis, config.steps, config.noise)
        except ValueError as exc:  # the config was read: only observation noise is left to fail
            raise ConfigError(str(exc)) from None
        t1 = clock()
        # the first step from which the states, and so the pairs and observations, repeat
        bits = traj.states.view(np.int64)  # bits, so that 0.0 and -0.0 differ
        changes = np.flatnonzero(bits[1:] != bits[:-1])
        settled = int(changes[-1]) + 1 if len(changes) else 0
        pairs = list(map(sis_regressor_pair, traj.states[:settled].tolist()))
        pairs += [sis_regressor_pair(traj.states[settled].item())] * (config.steps - settled)
        self.traj, self.settled = traj, settled
        self.pairs, self.ys = pairs, traj.observations.tolist()
        self._fim: dict[float, array] = {}
        self._excitation: _Excitation | None = None
        self.timings = {"simulate_s": t1 - t0, "fim_trace_s": clock() - t1, "excitation_s": 0.0}

    def fim_traces(self, config: ExperimentConfig) -> dict[float, array]:
        """The FIM condition trace of each alpha, those of ``config``'s
        estimators among them; ``ConfigError`` naming
        ``noise.observation_std`` when the FIM entries are not finite."""
        missing = sorted({est.alpha for est in config.estimators} - self._fim.keys(), reverse=True)
        if missing:
            t0 = time.perf_counter()
            try:
                # the largest alpha's entries are the largest, so it names the first failing step
                for alpha in missing:
                    self._fim[alpha] = _fim_condition_trace(self.pairs, alpha, self.settled)
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
            self._excitation = _excitation_pass(self.pairs, self.ys, self.settled)
            self.timings["excitation_s"] += time.perf_counter() - t0
        return self._excitation

    def take_timings(self) -> dict[str, float]:
        """The seconds spent on each phase since the last call; zero from then on."""
        timings, self.timings = self.timings, dict.fromkeys(self.timings, 0.0)
        return timings


def _run_experiment(config: ExperimentConfig, output_dir: str | Path | None,
                    prepared: _Prepared, t0: float, shared: bool) -> RunResult:
    """``run_experiment`` over a preparation of its trajectory, begun at ``t0``,
    with the collector's setting left to the caller; the preparation keeps its
    regressor pairs and observations only when it is ``shared`` with a later
    run."""
    clock = time.perf_counter
    fim_traces = prepared.fim_traces(config)
    grls = any(est.kind == "grls" for est in config.estimators)
    offers = prepared.excitation() if grls else None
    timings = prepared.take_timings()
    beta, gamma = config.sis.beta, config.sis.gamma
    truth = (beta, gamma) if beta > 0 and gamma > 0 else None

    # lane by lane, so that only one lane's chunk of reports is held at a time
    lanes, errors, step_s, settled = [], [], {}, prepared.settled
    settled_at = {"trajectory": settled if settled < config.steps else None}
    for est in config.estimators:
        record, step_s[est.kind], error, settled_at[est.kind] = _run_lane(
            est, prepared.pairs, prepared.ys, settled, fim_traces[est.alpha],
            offers if est.kind == "grls" else None,
        )
        lanes.append(record)
        if error is not None:
            errors.append(error)
    if not shared:  # the columns hold what the rows and traces read
        prepared.pairs = prepared.ys = None
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
        "settled": settled_at,
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
