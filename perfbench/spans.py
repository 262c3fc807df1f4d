"""Span tracer that wraps the program's public functions from outside.

Each entry of TRACED names a module of the program and the names that module
looks up at call time, for example ``ltlab.metatrain.backward``. The
attribute is replaced by a wrapper that records one span per call. A span
is named after the function's own module, so ``nnet.backward`` collects the
calls made from every wrapped caller. The program's arithmetic is untouched;
run.py checks that traced run directories are byte-identical to untraced ones.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

TRACED = {
    "ltlab.cli": ("run", "crt_existing", "ensemble_existing", "collect_rows"),
    "ltlab.harness": (
        "build_datasets", "train_one", "train", "train_weighted", "crt_retrain",
        "ensemble_predict", "synth_gaussian", "split_meta", "save_dataset", "load_dataset",
        "per_class_accuracy", "save_checkpoint", "dnet_forward", "abs_dnet_forward",
    ),
    "ltlab.metatrain": (
        "meta_gradient", "virtual_step", "backward", "per_sample_grad_dots", "output_vjp",
        "optimizer_step", "classifier_logits", "weighted_ce_loss",
        "backward_from_logit_cotangent", "per_class_accuracy", "dnet_forward",
        "abs_dnet_forward", "sample_dnet_forward", "driver_loss", "focal_loss",
        "focal_logit_cotangent",
    ),
    "ltlab.baselines": ("backward", "classifier_logits", "optimizer_step"),
}

# A span of one of these starts a new run id for everything beneath it.
RUN_SPANS = ("cli.main", "harness.train_one")

# Per-span extra value, read from the call's arguments after it returns.
EXTRA = {
    "metatrain.train": lambda args: args[0].T,
    "metatrain.train_weighted": lambda args: args[0].T,
    "harness.train_one": lambda args: args[0].method,
    "nnet.save_checkpoint": lambda args: os.path.getsize(args[1]),
    "data.load_dataset": lambda args: os.path.getsize(args[0]),
}

FIELDS = ("id", "parent", "run", "name", "start", "end", "extra")


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('ltlab.')}.{fn.__name__}"


class Tracer:
    """Collects spans in memory; dump() writes them out once at the end.

    Parents are tracked per thread. A worker thread with nothing open yet
    takes the main thread's innermost open span as its parent, which is the
    harness.run that handed it the seed.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)
        extra = EXTRA.get(name)
        spans, ids, main = self.spans, self._ids, self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            open_span = stack or main
            parent, run = open_span[-1] if open_span else (0, 0)
            sid = next(ids)
            if name in RUN_SPANS:
                run = sid
            stack.append((sid, run))
            ok = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, run, name, start, end,
                              extra(args) if ok and extra else None))
            return out

        return traced

    def install(self, modules) -> None:
        """Replace every TRACED name found in the given {module name: module}."""
        for mod_name, names in TRACED.items():
            mod = modules[mod_name]
            for attr in names:
                fn = getattr(mod, attr, None)
                if callable(fn):
                    setattr(mod, attr, self.wrap(fn))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)
