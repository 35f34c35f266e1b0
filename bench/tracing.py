"""In-memory call tracing for the benchmark's traced runs.

`Tracer` replaces every public function of the given algaeid modules with a
timing wrapper. The wrapper is installed under every module attribute that
binds the function, because `cli`, `evaluation`, `segmentation` and
`synthgen` bind some names through `from ... import` and look them up in
their own namespace. Each call records one span: name, start, end, parent
span, the benchmark operation it belongs to, and the phase (set-up or
measurement). Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import time
import types
from collections import defaultdict

# Called once per layer per SGD step (about 1.3 M calls per MCCV call):
# wrapping them would make the tracer, not the program, the measured work.
UNTRACED = {"relu", "softmax"}


def _train_steps(args, kwargs, result):
    cfg = kwargs.get("cfg") or (args[3] if len(args) > 3 else None)
    epochs, batch = (cfg.epochs, cfg.batch_size) if cfg else (500, 32)
    return {"steps": epochs * math.ceil(len(args[0]) / batch)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# Work counts recorded with a function's span: (args, kwargs, result) -> dict.
DETAILS = {
    "illumination.morphological_opening": lambda a, k, r: {"radius": int(a[1])},
    "illumination.estimate_background": lambda a, k, r: {
        "mpix": a[0].num_bands * a[0].height * a[0].width / 1e6},
    "segmentation.connected_components": lambda a, k, r: {"components": r.count},
    "segmentation.extract_organisms": lambda a, k, r: {
        "kept": len(r), "dropped": a[0].count - len(r)},
    "classifier.train": _train_steps,
    "stack_io.atomic_write_bytes": lambda a, k, r: {"bytes": len(a[1])},
    "stack_io.read_pgm": _file_bytes,
    "features.read_features_csv": _file_bytes,
    "classifier.load_model": _file_bytes,
    "cli.main": lambda a, k, r: {"command": a[0][0]},
}

# Functions reported as the median duration of one call, in seconds.
TIMED = (
    "synthgen.generate_scene",
    "stack_io.load_stack", "stack_io.read_pgm", "stack_io.write_pgm16",
    "stack_io.save_stack",
    "illumination.estimate_background", "illumination.gaussian_lowpass",
    "illumination.subtract_background",
    "segmentation.otsu_threshold", "segmentation.binarize",
    "segmentation.fuse_masks", "segmentation.connected_components",
    "segmentation.extract_organisms", "segmentation.labelmap_to_pgm",
    "features.compute_features", "features.convex_area",
    "features.spectral_means", "features.write_features_csv",
    "features.read_features_csv",
    "classifier.train", "classifier.predict_batch", "classifier.load_model",
    "evaluation.run_mccv", "evaluation.paired_t_test", "evaluation.build_report",
)

OPENING_RADII = (4, 8, 16, 32)

CLI_COMMANDS = ("segment", "features", "classify", "mccv")

# Every per-layer metric a traced run prints, with its unit, apart from
# `trace.overhead_s`, which the run itself adds.
PER_LAYER = {
    **{f"{name}_s": "s" for name in TIMED},
    **{f"illumination.opening_r{r}_s": "s" for r in OPENING_RADII},
    "illumination.band_mpix_per_s": "Mpix/s",
    "features.organisms_per_s": "1/s",
    "classifier.sgd_steps_per_s": "1/s",
    "stack_io.bytes_read": "B",
    "stack_io.bytes_written": "B",
    "evaluation.run_mccv_self_s": "s",
    **{f"cli.{c}_self_s": "s" for c in CLI_COMMANDS},
}


class Tracer:
    """Context manager: wrappers are installed on entry, removed on exit."""

    def __init__(self, modules):
        self.spans = []      # [name, start, end, parent, op, phase, detail]
        self.phase = "setup"
        self.op = None
        self._open = []
        self._patches = []
        wrappers = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__.startswith("algaeid.")
                        and not attr.startswith("_")
                        and fn.__name__ not in UNTRACED):
                    if fn not in wrappers:
                        wrappers[fn] = self._wrap(fn)
                    self._patches.append((mod, attr, fn, wrappers[fn]))

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        detail = DETAILS.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1,
                    self.op, self.phase, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if detail is not None:
                span[6] = detail(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)
        return False

    def write(self, path):
        """Dump the spans as JSON, one list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "phase", "detail"], "spans": self.spans}, fh)


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans, ops):
    """Per-layer metrics and work counts from the spans.

    A function that ran in the measured operations is reported as the median
    duration of one call there. One that ran only in set-up (for example
    `synthgen.generate_scene`) is reported as its total over the traced
    set-up. Byte counts are per measured operation, `ops` being how many
    operations the traced measurement attempted. Every metric of
    `PER_LAYER` is returned; one whose function the workload never calls,
    or whose work is none, reads 0.
    """
    by_name = defaultdict(lambda: {"setup": [], "measure": []})
    children = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]][s[5]].append(i)
        if s[3] >= 0:
            children[s[3]].append(i)

    def calls(name):
        return by_name[name]["measure"] or by_name[name]["setup"]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def detail_sum(name, key):
        return sum(spans[i][6][key] for i in calls(name) if spans[i][6])

    metrics = {}
    for name in TIMED:
        if by_name[name]["measure"]:
            metrics[f"{name}_s"] = statistics.median(dur(i) for i in calls(name))
        elif calls(name):
            metrics[f"{name}_s"] = sum(dur(i) for i in calls(name))
    for r in OPENING_RADII:
        idx = [i for i in calls("illumination.morphological_opening")
               if spans[i][6] and spans[i][6]["radius"] == r]
        if idx:
            metrics[f"illumination.opening_r{r}_s"] = statistics.median(
                dur(i) for i in idx)

    def rate(name, total):
        busy = sum(dur(i) for i in calls(name))
        return total / busy if busy > 0 else None

    rates = {
        "illumination.band_mpix_per_s": rate(
            "illumination.estimate_background",
            detail_sum("illumination.estimate_background", "mpix")),
        "features.organisms_per_s": rate(
            "features.compute_features", len(calls("features.compute_features"))),
        "classifier.sgd_steps_per_s": rate(
            "classifier.train", detail_sum("classifier.train", "steps")),
    }
    metrics.update({k: v for k, v in rates.items() if v})

    mccv_calls = calls("evaluation.run_mccv")
    if mccv_calls:
        metrics["evaluation.run_mccv_self_s"] = statistics.median(
            dur(i) - sum(dur(c) for c in children[i]
                         if spans[c][0] in ("classifier.train", "classifier.predict_batch"))
            for i in mccv_calls)

    own = self_times(spans)

    def cli_self(root):
        total, todo = 0.0, [root]
        while todo:
            i = todo.pop()
            if spans[i][0].startswith("cli."):
                total += own[i]
            todo.extend(children[i])
        return total

    for command in CLI_COMMANDS:
        roots = [i for i in calls("cli.main")
                 if spans[i][6] and spans[i][6]["command"] == command]
        if roots:
            metrics[f"cli.{command}_self_s"] = statistics.median(
                cli_self(i) for i in roots)

    measured = [s for s in spans if s[5] == "measure"]

    def measured_sum(names, key):
        return sum(s[6][key] for s in measured if s[0] in names and s[6])

    read = measured_sum(("stack_io.read_pgm", "features.read_features_csv",
                         "classifier.load_model"), "bytes")
    written = measured_sum(("stack_io.atomic_write_bytes",), "bytes")
    if read:
        metrics["stack_io.bytes_read"] = read / ops
    if written:
        metrics["stack_io.bytes_written"] = written / ops

    counts = {
        "operations": ops,
        "components": measured_sum(("segmentation.connected_components",), "components"),
        "organisms_kept": measured_sum(("segmentation.extract_organisms",), "kept"),
        "organisms_dropped_below_min_area": measured_sum(
            ("segmentation.extract_organisms",), "dropped"),
        "sgd_steps": measured_sum(("classifier.train",), "steps"),
        "bytes_read": read,
        "bytes_written": written,
        "spans": len(spans),
    }
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}, counts
