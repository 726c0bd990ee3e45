"""In-memory span tracer and the per-layer metrics derived from its spans.

The tracer wraps public vctkit names where the pipeline imports them, so
no program file changes. Every span records (name, start, end, parent,
pass id, thread). A worker thread's top-level span takes as parent the
span the main thread has open, which is the stage that started the pool.
A wrapper whose target name is missing raises ``TraceError``: a refactor
that renames a traced function fails the traced run instead of reading
as zero work.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time

SETUP = -1  # pass id of spans made outside the timed passes


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.pass_id = SETUP
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main_thread and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.pass_id, threading.get_ident()])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: int) -> None:
        key = (self.pass_id, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + int(n)

    def _target(self, owner, attr: str):
        if attr not in vars(owner):
            raise TraceError(f"trace target {getattr(owner, '__name__', owner)}.{attr} "
                             "is missing")
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        return original

    def wrap(self, owner, attr: str, span: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a spanned call; ``on_result(args, result)``
        adds counts once the call returns."""
        original = self._target(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.begin(span)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_count(self, owner, attr: str, counter: str, amount) -> None:
        """Count ``amount(args, kwargs)`` per call without a span."""
        original = self._target(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.count(counter, amount(args, kwargs))
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id, thread in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id,
                                     "thread": thread}) + "\n")


# --- what gets wrapped -------------------------------------------------------


def _count_nodes(node) -> int:
    if "value" in node:
        return 1
    return 1 + _count_nodes(node["left"]) + _count_nodes(node["right"])


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary. Raises TraceError on a missing name."""
    import vctkit.cli as cli
    import vctkit.io as io
    import vctkit.metrics as metrics
    import vctkit.phantom as phantom
    import vctkit.trial as trial
    from vctkit.rng import Stream
    from vctkit.volume import LabelMap

    def voxels(t, args, kwargs, result):
        t.count("phantom.voxels", result[0].data.size)

    def counted_bytes(counter):
        def on_result(t, args, kwargs, result):
            t.count(counter, result.data.nbytes)
        return on_result

    def saved_bytes(t, args, kwargs, result):
        t.count("io.save.bytes", args[0].data.nbytes)

    def labelmap_bytes(t, args, kwargs, result):
        t.count("volume.labelmap.bytes", args[0].data.nbytes)

    def nodes(t, args, kwargs, result):
        t.count("forest.nodes", sum(_count_nodes(tree) for tree in result.trees))

    def resamples(t, args, kwargs, result):
        t.count("stats.bootstrap.resamples", kwargs.get("n_boot", 10000))

    tracer.wrap(trial, "generate_phantom", "phantom.generate", voxels)
    tracer.wrap(phantom, "generate_phantom", "phantom.generate", voxels)
    tracer.wrap(LabelMap, "__post_init__", "volume.labelmap", labelmap_bytes)
    tracer.wrap(trial, "measure_composition", "composition.measure")
    tracer.wrap(cli, "measure_composition", "composition.measure")
    tracer.wrap(cli, "measure_height", "skeleton.height")
    # generate_cohort imports the savers from vctkit.io at call time
    tracer.wrap(io, "save_volume", "io.save", saved_bytes)
    tracer.wrap(io, "save_labelmap", "io.save", saved_bytes)
    tracer.wrap(cli, "load_volume", "io.load", counted_bytes("io.load.bytes"))
    tracer.wrap(cli, "load_labelmap", "io.load", counted_bytes("io.load.bytes"))
    tracer.wrap(cli, "collect_structure_measurements", "metrics.collect")
    tracer.wrap(metrics, "per_class_dice", "metrics.dice")
    tracer.wrap(cli, "cohort_consistency", "metrics.table")
    tracer.wrap(trial, "fit_forest", "forest.fit", nodes)
    tracer.wrap(trial, "predict", "forest.predict")
    tracer.wrap(trial, "predict_proba", "forest.predict")
    tracer.wrap(trial, "bootstrap_ci", "stats.bootstrap", resamples)
    tracer.wrap_count(Stream, "u64", "rng.draws",
                       lambda args, kwargs: args[1] if len(args) > 1 else kwargs["n"])
    tracer.wrap(trial, "generate_measured_cohort", "trial.cohort")
    tracer.wrap(trial, "synthesize_matched_cohort", "trial.synth")
    tracer.wrap(trial, "build_biased_split", "trial.split")
    tracer.wrap(trial.ShortcutLinear, "fit", "trial.predictor")
    tracer.wrap(trial, "run_trial", "trial.run_trial")
    tracer.wrap(trial, "attribute_errors", "trial.attribution")
    tracer.wrap(trial, "write_trial_outputs", "trial.write")
    tracer.wrap(cli, "cmd_phantom_gen", "cli.gen")
    tracer.wrap(cli, "cmd_measure", "cli.measure")
    tracer.wrap(cli, "cmd_consistency", "cli.consistency")


# --- per-layer metrics ---------------------------------------------------------

COUNTERS = ("phantom.voxels", "volume.labelmap.bytes", "io.save.bytes",
            "io.load.bytes", "forest.nodes", "stats.bootstrap.resamples",
            "rng.draws")


def union_length(intervals) -> float:
    total, end = 0.0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it; below 20 samples
    that percentile falls under the median, so the median stands in."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


def quantile(values, pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class PassView:
    """The spans and counts of one timed pass."""

    def __init__(self, tracer: Tracer, pass_id: int, threads: int):
        self.threads = threads
        self.spans = {i: s for i, s in enumerate(tracer.spans) if s[4] == pass_id}
        self.children: dict[int, list[int]] = {}
        for i, s in self.spans.items():
            if s[3] is not None:
                self.children.setdefault(s[3], []).append(i)
        self.counts = {name: n for (p, name), n in tracer.counts.items() if p == pass_id}

    def _matching(self, prefix: str):
        return [i for i, s in self.spans.items()
                if s[0] == prefix or s[0].startswith(prefix + ".")]

    def _duration(self, i: int) -> float:
        s = self.spans[i]
        return s[2] - s[1]

    def self_time(self, i: int) -> float:
        kids = [(self.spans[c][1], self.spans[c][2]) for c in self.children.get(i, [])]
        return self._duration(i) - union_length(kids)

    def busy(self, prefix: str) -> float:
        # a span nested in another span of the same layer is not counted twice
        ids = set(self._matching(prefix))
        total = 0.0
        for i in ids:
            p = self.spans[i][3]
            while p is not None and p not in ids:
                p = self.spans[p][3]
            if p is None:
                total += self._duration(i)
        return total

    def metric(self, name: str) -> float:
        if name in COUNTERS:
            return self.counts.get(name, 0)
        if name == "trace.coverage":
            (root,) = self._matching("pass")
            return 1.0 - self.self_time(root) / self._duration(root)
        if name == "trial.cohort.parallel_eff":
            stages = self._matching("trial.cohort")
            if not stages:
                return 0.0
            work = sum(self._duration(c) for st in stages for c in self.children.get(st, []))
            return work / (self.threads * sum(self._duration(st) for st in stages))
        prefix, stat = name.rsplit(".", 1)
        ids = self._matching(prefix)
        if stat == "calls":
            return len(ids)
        if stat == "busy_s":
            return self.busy(prefix)
        if stat == "self_s":
            return sum(self.self_time(i) for i in ids)
        durations_ms = [1000.0 * self._duration(i) for i in ids]
        if not durations_ms:
            return 0.0
        if stat == "ms_p50":
            return quantile(durations_ms, 50.0)
        if stat == "ms_tail":
            return quantile(durations_ms, tail_percentile(len(durations_ms)))
        raise KeyError(f"no rule for per-layer metric {name!r}")


def per_layer(tracer: Tracer, pass_ids, names, threads: int) -> dict[str, float]:
    """Median over passes of each metric; counts must repeat exactly."""
    views = [PassView(tracer, p, threads) for p in pass_ids]
    out = {}
    for name in names:
        values = [v.metric(name) for v in views]
        if name in COUNTERS or name.endswith(".calls"):
            if len(set(values)) != 1:
                raise TraceError(f"count {name} differs between passes: {values}")
        out[name] = statistics.median(values)
    return out
