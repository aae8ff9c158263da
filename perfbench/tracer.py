"""In-memory span tracer that wraps sisid's public functions at their call sites.

Each entry of ``SITES`` names a module attribute through which a caller
looks a function up (``sisid.estimators.inversion_lemma_update`` is what
``grls_step`` calls), the span name recorded for it, and optionally how to
read one number from the call (block rows, acceptance verdict, step count).
Installing the tracer swaps each attribute for a wrapper; removing it puts
the originals back. A site whose module or attribute no longer exists is
listed in ``Tracer.absent`` and skipped, so a refactor that renames or
deletes a function never breaks the benchmark: its span just reads zero.

A span is (name, start, end, parent, info, error). Spans are appended to
flat arrays so that a long traced run stays small in memory.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
from array import array
from time import perf_counter


def _block_rows(args, kwargs, result):
    return len(kwargs["phi_block"] if "phi_block" in kwargs else args[1])


def _accepted(args, kwargs, result):
    return float(bool(result[1]))


def _sim_steps(args, kwargs, result):
    return kwargs["steps"] if "steps" in kwargs else args[2]


# (module, attribute path, span name, info extractor)
SITES = (
    ("sisid.cli", "main", "cli.main", None),
    ("sisid.cli", "load_config_mapping", "config.load", None),
    ("sisid.cli", "config_from_mapping", "config.load", None),
    ("sisid.cli", "load_config", "config.load", None),
    ("sisid.config", "ExperimentConfig.validate", "config.validate", None),
    ("sisid", "run_experiment", "harness.run_experiment", None),
    ("sisid.cli", "run_experiment", "harness.run_experiment", None),
    ("sisid.harness", "fim_condition_trace", "harness.fim_condition_trace", None),
    ("sisid.harness", "simulate", "dynamics.simulate", _sim_steps),
    ("sisid.harness", "pure_gd_step", "estimators.pure_gd.step", None),
    ("sisid.harness", "ef_rls_step", "estimators.ef_rls.step", None),
    ("sisid.harness", "ie_mmai_step", "estimators.ie_mmai.step", None),
    ("sisid.harness", "grls_step", "estimators.grls.step", None),
    ("sisid", "grls_step", "estimators.grls.step", None),
    ("sisid.estimators", "greedy_offer", "excitation.greedy_offer", _accepted),
    ("sisid.estimators", "inversion_lemma_update", "linalg.inversion_lemma", _block_rows),
    ("sisid.estimators", "solve_spd", "linalg.solve_spd", None),
    ("sisid.excitation", "condition_number", "linalg.condition_number", None),
    ("sisid.harness", "condition_number", "linalg.condition_number", None),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute) for ``module:path``, or None when either is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and removes it."""

    def __init__(self, sites=None):
        self.sites = SITES if sites is None else sites
        self.names: list[str] = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.infos = array("d")
        self.errors: dict[int, str] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.absent = sorted(
            {f"{m}.{p}" for m, p, _, _ in self.sites if _resolve(m, p) is None}
        )

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name_id: int, info):
        stack, errors = self._stack, self.errors
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, infos = self.parents, self.infos

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            infos.append(math.nan)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if info is not None:
                try:
                    infos[idx] = info(args, kwargs, result)
                except (LookupError, TypeError, ValueError):
                    pass
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, path, name, info in self.sites:
            site = _resolve(module_name, path)
            if site is None:
                continue
            owner, attr = site
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, self._name_id(name), info))
            self._installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def spans(self):
        """Yield (name, start, end, parent index, info or None, error or None)."""
        for i in range(len(self.starts)):
            info = self.infos[i]
            yield (
                self.names[self.name_ids[i]], self.starts[i], self.ends[i],
                self.parents[i], None if math.isnan(info) else info,
                self.errors.get(i),
            )

    def write(self, path) -> None:
        """Write every span as one tab-separated line to a gzip file."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tinfo\terror\n")
            for i, (name, start, end, parent, info, error) in enumerate(self.spans()):
                fh.write(
                    f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t"
                    f"{'' if info is None else repr(info)}\t{error or ''}\n"
                )

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-name call counts, total, self and per-parent time, info sums, errors."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.starts)
        names = [tracer.names[i] for i in tracer.name_ids]
        durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            parent = tracer.parents[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.info_sum: dict[str, float] = {}
        self.info_count: dict[str, int] = {}
        # (name, exception type) -> count
        self.errors: dict[tuple[str, str], int] = {}
        # (name, parent name) -> [calls, seconds]
        self.by_parent: dict[tuple[str, str], list] = {}
        # seconds of spans whose parent is not of the same layer
        self.layer_outer_s: dict[str, float] = {}
        for i in range(n):
            name = names[i]
            parent = tracer.parents[i]
            parent_name = names[parent] if parent >= 0 else ""
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + durations[i]
            self.self_s[name] = self.self_s.get(name, 0.0) + durations[i] - child_time[i]
            entry = self.by_parent.setdefault((name, parent_name), [0, 0.0])
            entry[0] += 1
            entry[1] += durations[i]
            layer = name.split(".", 1)[0]
            if parent_name.split(".", 1)[0] != layer:
                self.layer_outer_s[layer] = self.layer_outer_s.get(layer, 0.0) + durations[i]
            info = tracer.infos[i]
            if not math.isnan(info):
                self.info_sum[name] = self.info_sum.get(name, 0.0) + info
                self.info_count[name] = self.info_count.get(name, 0) + 1
            if i in tracer.errors:
                key = (name, tracer.errors[i])
                self.errors[key] = self.errors.get(key, 0) + 1

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for name, s in self.self_s.items() if name.startswith(prefix))

    def layer_errors(self, layer: str, exc_type: str | None = None) -> int:
        prefix = layer + "."
        return sum(
            count for (name, kind), count in self.errors.items()
            if name.startswith(prefix) and exc_type in (None, kind)
        )

    def info_mean(self, name: str) -> float:
        count = self.info_count.get(name, 0)
        return self.info_sum[name] / count if count else 0.0

    def parent_calls(self, name: str, parent: str) -> tuple[int, float]:
        calls, seconds = self.by_parent.get((name, parent), (0, 0.0))
        return calls, seconds
