"""Per-step A/B timing of two ltlab source trees, in one process.

    python3 tools/step_ab.py SRC_A SRC_B [--pairs 10] [--seed 0]
                             [--methods dnet,dnet-abs,dnet-sample,ce,cdb]

SRC_A and SRC_B are checkouts (each with src/ltlab) or src directories.
Each side's ltlab is copied into a temporary directory under its own
package name, ltlab_a and ltlab_b, so both import side by side. For every
method the tool trains `harness.train_one` on the default config once per
side to warm up, then runs PAIRS timed pairs, alternating which side goes
first. It prints per method and side the median time per step with its
quartiles, in µs, and how many pairs B won. Then, from one cProfile run
per side, the function calls per step and the per-step cumulative time of
forward_tape, Tape.with_labels, Tape.grads, Tape.dots, optimizer_step and
_meta_gradient: the layer-level numbers that perfbench's tracer, which
wraps only public module attributes, cannot see. cProfile adds a cost to
every Python call, so read its times as shares, not as speeds. Last, the
same for the default config's stage 2: `baselines.crt_retrain` of a
freshly built classifier with crt_steps, crt_batch_size and crt_lr, in µs
per stage-2 step.

Set OPENBLAS_NUM_THREADS=1 (or the BLAS build's equivalent) for steadier
numbers; the shapes here are too small for BLAS threads to help.

Comparing checkouts with perfbench instead: where PYTHONDONTWRITEBYTECODE=1
is set, a checkout whose sources were edited has no valid __pycache__ and
recompiles on every import, which perfbench counts as setup time. One such
comparison read a false 12% setup_s rise on seeds-pool (0.241 s against
0.213 s) that went away (0.241 s against 0.236 s) once both checkouts'
__pycache__ directories were cleared. Clear them before comparing.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import os
import pstats
import shutil
import sys
import tempfile
import time

import numpy as np

PROFILED = (("nnet.py", "forward_tape"), ("nnet.py", "with_labels"), ("nnet.py", "grads"),
            ("nnet.py", "dots"), ("nnet.py", "optimizer_step"), ("metatrain.py", "_meta_gradient"))


def package_dir(src: str) -> str:
    for cand in (os.path.join(src, "src", "ltlab"), os.path.join(src, "ltlab")):
        if os.path.isfile(os.path.join(cand, "harness.py")):
            return cand
    sys.exit(f"no ltlab package under {src}")


class Side:
    """One source tree, imported as its own package, with the default
    config's data built once per method."""

    def __init__(self, name: str, src: str, root: str):
        shutil.copytree(package_dir(src), os.path.join(root, name),
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.name = name
        self.harness = importlib.import_module(f"{name}.harness")
        self.data: dict = {}

    def setup(self, method: str, seed: int):
        """A call that trains the method's run for seed, and its step count;
        method "crt" is the stage-2 retraining alone."""
        name = "ce" if method == "crt" else method
        if name not in self.data:
            cfg = self.harness.parse_config(None, (f"method={name}",))
            self.data[name] = (cfg, *self.harness.build_datasets(cfg))
        cfg, train_set, meta_set = self.data[name]
        h = self.harness
        if method == "crt":  # as harness._crt_run calls it
            model = h._build_model(cfg, train_set.dim, train_set.class_count, seed)
            spec = h.OptSpec("momentum", cfg.crt_lr, 0.9, cfg.classifier_weight_decay)
            return (lambda: h.crt_retrain(model, train_set, cfg.crt_steps, cfg.crt_batch_size,
                                          spec, seed)), cfg.crt_steps
        steps = h._train_config(cfg, train_set, seed).T
        return (lambda: h.train_one(cfg, train_set, meta_set, seed)), steps

    def time_step(self, method: str, seed: int) -> float:
        """µs per step of one run."""
        run, steps = self.setup(method, seed)
        gc.collect()
        start = time.perf_counter()
        run()
        return 1e6 * (time.perf_counter() - start) / steps

    def profile(self, method: str, seed: int) -> tuple[float, dict]:
        """Calls per step and per-step cumulative µs of PROFILED, from one
        cProfile run."""
        run, steps = self.setup(method, seed)
        prof = cProfile.Profile()
        prof.runcall(run)
        stats = pstats.Stats(prof).stats
        calls = sum(nc for _, nc, _, _, _ in stats.values())
        cum = {}
        for (path, _, func), (_, _, _, ct, _) in stats.items():
            for fname, want in PROFILED:
                if func == want and path.endswith(os.path.join(self.name, fname)):
                    cum[want] = cum.get(want, 0.0) + 1e6 * ct / steps
        return calls / steps, cum


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a")
    ap.add_argument("src_b")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--methods", default="dnet,dnet-abs,dnet-sample,ce,cdb")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("--pairs must be at least 1")
    methods = [m for m in args.methods.split(",") if m] + ["crt"]

    root = tempfile.mkdtemp(prefix="step_ab_")
    sys.path.insert(0, root)
    try:
        a, b = Side("ltlab_a", args.src_a, root), Side("ltlab_b", args.src_b, root)
        for method in methods:
            for side in (a, b):
                side.time_step(method, args.seed)  # warm-up
            times = {a.name: [], b.name: []}
            for k in range(args.pairs):
                for side in ((a, b) if k % 2 == 0 else (b, a)):
                    times[side.name].append(side.time_step(method, args.seed))
            ta, tb = (np.array(times[s.name]) for s in (a, b))
            what = "stage-2 step" if method == "crt" else "step"
            print(f"{method}: µs per {what} over {args.pairs} pairs, seed {args.seed}")
            for side, t in ((a, ta), (b, tb)):
                q1, med, q3 = np.percentile(t, [25, 50, 75])
                print(f"  {side.name}  median {med:8.1f}  quartiles {q1:8.1f} {q3:8.1f}")
            print(f"  B faster in {int((tb < ta).sum())} of {args.pairs} pairs, "
                  f"median ratio A/B {np.median(ta / tb):.3f}")
            for side in (a, b):
                per_step, cum = side.profile(method, args.seed)
                parts = "  ".join(f"{name} {cum.get(name, 0.0):.1f}" for _, name in PROFILED)
                print(f"  {side.name}  cProfile calls/step {per_step:.1f}  µs/step: {parts}")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
