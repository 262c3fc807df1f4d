"""Per-layer metrics from the spans of one traced pass.

A layer is a module of the program. For each traced public function the
metrics are calls, total_s (summed span durations) and self_s (duration
minus the time its traced children cover; children that run at once in
different threads, as the seeds under harness.run do, cover their common
time once).

Bilevel phases are attributed from the order of the calls directly beneath
each metatrain.train / train_weighted span, with meta_gradient opened up:

  virtual_step       metatrain.virtual_step (its own backward included)
  meta_backward      the nnet.backward right after a virtual step
  sample_dots        nnet.per_sample_grad_dots
  dnet_vjp_update    difficulty forwards, driver_loss, output_vjp and the
                     optimizer_step right after output_vjp
  eval               per_class_accuracy, and the difficulty snapshot taken
                     right after it at an epoch end
  classifier_step    everything else: logits, loss, backward, optimizer step
  other              train time that no traced call covers (batching, the
                     weight trace, and the bodies of the private abs and
                     sample meta-gradient functions)

On dnet-sample the loss pass that feeds the sample net counts as
classifier_step.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

FUNCTIONS = {
    "metatrain": ("meta_gradient", "virtual_step", "train", "train_weighted"),
    "nnet": ("backward", "per_sample_grad_dots", "output_vjp", "optimizer_step",
             "classifier_logits", "weighted_ce_loss", "backward_from_logit_cotangent",
             "per_class_accuracy", "save_checkpoint"),
    "difficulty": ("dnet_forward", "abs_dnet_forward", "sample_dnet_forward", "driver_loss"),
    "baselines": ("crt_retrain", "ensemble_predict", "focal_loss", "focal_logit_cotangent"),
    "harness": ("build_datasets", "train_one", "run", "crt_existing", "ensemble_existing",
                "collect_rows"),
    "data": ("synth_gaussian", "split_meta", "save_dataset", "load_dataset"),
    "cli": ("main",),
}
PHASES = ("virtual_step", "meta_backward", "sample_dots", "dnet_vjp_update",
          "classifier_step", "eval", "other")
TRAIN_LOOPS = ("metatrain.train", "metatrain.train_weighted")
DNET_FORWARDS = ("difficulty.dnet_forward", "difficulty.abs_dnet_forward",
                 "difficulty.sample_dnet_forward")
# calls that each run a classifier forward pass
CLF_FORWARDS = ("nnet.backward", "nnet.per_sample_grad_dots", "nnet.classifier_logits",
                "nnet.backward_from_logit_cotangent")

# (name, unit) of every metric aggregate() returns besides the per-function ones
EXTRA_METRICS = (
    ("metatrain.steps", "count"),
    ("metatrain.step_ms", "ms"),
    *((f"phase.{p}_s", "s") for p in PHASES),
    ("nnet.save_checkpoint.bytes", "B"),
    ("nnet.forward_calls_per_step", "count"),
    ("difficulty.net_forwards_per_step", "count"),
    ("harness.train_one.p50_s", "s"),
    ("harness.run.overlap", "ratio"),
    ("data.ltds_bytes", "B"),
)


def metric_units() -> dict:
    units = {}
    for mod, names in FUNCTIONS.items():
        for fn in names:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_s"] = "s"
            units[f"{mod}.{fn}.total_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class Span:
    __slots__ = ("id", "parent", "run", "name", "start", "end", "extra", "children")

    def __init__(self, row):
        self.id, self.parent, self.run, self.name, self.start, self.end, self.extra = row
        self.children: list[Span] = []

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def covered(self) -> float:
        """Length of the union of the children's intervals."""
        out, reach = 0.0, float("-inf")
        for c in self.children:  # in start order
            if c.end > reach:
                out += c.end - max(c.start, reach)
                reach = c.end
        return out


def load(rows) -> list[Span]:
    spans = [Span(r) for r in rows]
    by_id = {s.id: s for s in spans}
    for s in sorted(spans, key=lambda s: s.start):
        if s.parent in by_id:
            by_id[s.parent].children.append(s)
    return spans


def _units(span: Span):
    for child in span.children:
        if child.name == "metatrain.meta_gradient":
            yield from _units(child)
        else:
            yield child


def _count(span: Span, names) -> int:
    return sum((c.name in names) + _count(c, names) for c in span.children)


def _phase(name: str, prev: str | None, nxt: str | None) -> str:
    if name == "nnet.per_class_accuracy":
        return "eval"
    if name in DNET_FORWARDS and prev == "nnet.per_class_accuracy" \
            and nxt != "metatrain.virtual_step":
        return "eval"
    if name == "metatrain.virtual_step":
        return "virtual_step"
    if name == "nnet.backward" and prev == "metatrain.virtual_step":
        return "meta_backward"
    if name == "nnet.per_sample_grad_dots":
        return "sample_dots"
    if name in DNET_FORWARDS or name in ("difficulty.driver_loss", "nnet.output_vjp"):
        return "dnet_vjp_update"
    if name == "nnet.optimizer_step" and prev == "nnet.output_vjp":
        return "dnet_vjp_update"
    return "classifier_step"


def aggregate(spans: list[Span]) -> dict:
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    extras = defaultdict(list)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.dur
        self_s[s.name] += s.dur - s.covered
        if s.extra is not None:
            extras[s.name].append(s.extra)

    out = {}
    for mod, names in FUNCTIONS.items():
        for fn in names:
            key = f"{mod}.{fn}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
            out[f"{key}.total_s"] = total[key]

    phase = dict.fromkeys(PHASES, 0.0)
    clf_forwards = net_forwards = 0
    for loop in (s for s in spans if s.name in TRAIN_LOOPS):
        units = list(_units(loop))
        names = [u.name for u in units]
        for i, u in enumerate(units):
            ph = _phase(u.name, names[i - 1] if i else None,
                        names[i + 1] if i + 1 < len(names) else None)
            phase[ph] += u.dur
            if ph == "dnet_vjp_update" and u.name in DNET_FORWARDS + ("nnet.output_vjp",):
                net_forwards += 1
        phase["other"] += loop.dur - sum(u.dur for u in units)
        clf_forwards += _count(loop, CLF_FORWARDS)

    steps = sum(extras["metatrain.train"]) + sum(extras["metatrain.train_weighted"])
    loop_s = total["metatrain.train"] + total["metatrain.train_weighted"]
    run_s = total["harness.run"]
    train_one = [s.dur for s in spans if s.name == "harness.train_one"]
    out.update({
        "metatrain.steps": steps,
        "metatrain.step_ms": 1000.0 * loop_s / steps if steps else 0.0,
        **{f"phase.{p}_s": v for p, v in phase.items()},
        "nnet.save_checkpoint.bytes": sum(extras["nnet.save_checkpoint"]),
        "nnet.forward_calls_per_step": clf_forwards / steps if steps else 0.0,
        "difficulty.net_forwards_per_step": net_forwards / steps if steps else 0.0,
        "harness.train_one.p50_s": statistics.median(train_one) if train_one else 0.0,
        "harness.run.overlap": total["harness.train_one"] / run_s if run_s else 0.0,
        "data.ltds_bytes": sum(extras["data.load_dataset"]),
    })
    return out


def train_one_by_method(spans: list[Span]) -> dict:
    """Median harness.train_one seconds per method, for the notes' tables."""
    by = defaultdict(list)
    for s in spans:
        if s.name == "harness.train_one" and s.extra is not None:
            by[s.extra].append(s.dur)
    return {m: statistics.median(v) for m, v in sorted(by.items())}
