"""Per-step A/B timing of two ltlab source trees, in one process.

    python3 tools/step_ab.py SRC_A SRC_B [--pairs 10] [--seed 0]
                             [--methods dnet,dnet-abs,dnet-sample,ce,cdb,crt,ltds,eval]

SRC_A and SRC_B are checkouts (each with src/ltlab) or src directories.
Before its tables the tool prints one environment line: the Python and
numpy versions, the BLAS name and version that np.show_config reports, and
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS as set (unset when not).
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
every Python call, so read its times as shares, not as speeds. The entry
crt does the same for the default config's stage 2: `baselines.crt_retrain`
of a freshly built classifier with crt_steps, crt_batch_size and crt_lr, in
µs per stage-2 step. The entry ltds times, in µs per call and without a
profile, `data.load_dataset` of the train file that `gen-data` writes for
C=100 (the data of perfbench's c100-wide workload, 21,285 rows of 16
features for seed 0) and `data.save_dataset` of its rows to a file beside
it, and checks that both sides write the same bytes. On a side whose
`gen_data` writes binary twins, ltds-load reads the file's twin, not its
text. With them it times, as ltds-bad, one
`data.load_dataset` of a copy of that file whose last line is corrupted,
which has no twin, so it times the text parser, which must name the line;
it checks that both sides raise the same message. And it times, as
ltds-gen, one `harness.gen_data` of that data config, which writes the
train and meta files and, where the side has them, their twins. The entry eval times, in µs per call and without a
profile, one `nnet.per_class_accuracy(model, meta_set)` of a freshly
built lone classifier on the meta set: at C=10 (the default config, 200
meta rows) and at C=100 (the c100-wide data, 500 rows). It checks that
both sides give the same bytes.

Set OPENBLAS_NUM_THREADS=1 (or the BLAS build's equivalent) for steadier
numbers. At C=100, as in the eval entry's second shape, the products are
large enough for OpenBLAS to thread, but whether one thread trains faster
there is unresolved (see README, Determinism). The tool cannot A/B a BLAS
setting: both sides run in one process, under one setting.

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
import platform
import pstats
import shutil
import sys
import tempfile
import time

import numpy as np

# perfbench's c100-wide data settings; the rest are the defaults it also uses
LTDS_DATA = ("classes=100", "n_max=1000", "m_per_class=5")
EVAL_CALLS = 200  # per_class_accuracy calls per timed run of an eval entry
PROFILED = (("nnet.py", "forward_tape"), ("nnet.py", "with_labels"), ("nnet.py", "grads"),
            ("nnet.py", "dots"), ("nnet.py", "optimizer_step"), ("metatrain.py", "_meta_gradient"))


def environment() -> str:
    """The environment line: Python, numpy, the BLAS build and the BLAS
    thread settings, so that every table carries the record it was taken in."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "  ".join(f"{name}={os.environ.get(name, 'unset')}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"environment: Python {platform.python_version()}  numpy {np.__version__}  "
            f"BLAS {blas.get('name')} {blas.get('version')}  {threads}")


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
        self.ltds = importlib.import_module(f"{name}.data")
        self.nnet = importlib.import_module(f"{name}.nnet")
        self.root = root
        self.data: dict = {}

    def setup(self, method: str, seed: int):
        """A call that trains the method's run for seed, and its step count;
        method "crt" is the stage-2 retraining alone, "ltds-save" and
        "ltds-load" one save and one load of the C=100 gen-data train file,
        "ltds-bad" one load of a copy whose last line is corrupted, the call
        returning the FormatError's message, "ltds-gen" one gen_data of it,
        "eval-c10" and "eval-c100" EVAL_CALLS meta-set evaluations, the
        call returning the last one's accuracies."""
        if method.startswith("eval"):
            if method not in self.data:
                data = () if method == "eval-c10" else LTDS_DATA
                cfg = self.harness.parse_config(None, data + (f"data_seed={seed}",))
                _, meta_set = self.harness.build_datasets(cfg)
                model = self.harness._build_model(cfg, meta_set.dim, meta_set.class_count, seed)
                self.data[method] = model, meta_set
            model, meta_set = self.data[method]

            def evaluate():
                for _ in range(EVAL_CALLS):
                    acc = self.nnet.per_class_accuracy(model, meta_set)
                return acc

            return evaluate, EVAL_CALLS
        if method.startswith("ltds"):
            out = os.path.join(self.root, f"{self.name}_data")
            cfg = self.harness.parse_config(None, LTDS_DATA + (f"data_seed={seed}",
                                                               f"out_dir={out}"))
            if method == "ltds-gen":
                return (lambda: self.harness.gen_data(cfg)), 1
            if "ltds" not in self.data:
                path, _ = self.harness.gen_data(cfg)
                self.data["ltds"] = path, self.ltds.load_dataset(path)
            path, ds = self.data["ltds"]
            if method == "ltds-save":
                # beside the file: a save over it would remove its twin
                return (lambda: self.ltds.save_dataset(ds, f"{path}.saved")), 1
            if method == "ltds-bad":
                bad = f"{path}.bad"
                if not os.path.exists(bad):
                    with open(path, "r", encoding="ascii") as fh:
                        text = fh.read()
                    with open(bad, "w", encoding="ascii", newline="\n") as fh:
                        fh.write(text[: text.rindex(",")] + ",zap\n")

                def load_bad():
                    try:
                        self.ltds.load_dataset(bad)
                    except self.ltds.FormatError as e:
                        return str(e)
                    raise AssertionError(f"{bad} loaded")

                return load_bad, 1
            return (lambda: self.ltds.load_dataset(path)), 1
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
        steps = h._train_config(cfg, train_set).T
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
    ap.add_argument("--methods", default="dnet,dnet-abs,dnet-sample,ce,cdb,crt,ltds,eval")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("--pairs must be at least 1")
    entries = {"ltds": ("ltds-save", "ltds-load", "ltds-bad", "ltds-gen"),
               "eval": ("eval-c10", "eval-c100")}
    methods = [e for m in args.methods.split(",") if m for e in entries.get(m, (m,))]

    print(environment())
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
            per_call = method.startswith(("ltds", "eval"))
            what = "stage-2 step" if method == "crt" else "call" if per_call else "step"
            print(f"{method}: µs per {what} over {args.pairs} pairs, seed {args.seed}")
            for side, t in ((a, ta), (b, tb)):
                q1, med, q3 = np.percentile(t, [25, 50, 75])
                print(f"  {side.name}  median {med:8.1f}  quartiles {q1:8.1f} {q3:8.1f}")
            print(f"  B faster in {int((tb < ta).sum())} of {args.pairs} pairs, "
                  f"median ratio A/B {np.median(ta / tb):.3f}")
            if method == "ltds-save":
                written = []
                for side in (a, b):
                    with open(f"{side.data['ltds'][0]}.saved", "rb") as fh:
                        written.append(fh.read())
                print(f"  both sides write the same bytes: {written[0] == written[1]}")
            if method == "ltds-bad":
                said = [side.setup(method, args.seed)[0]() for side in (a, b)]
                print(f"  both sides raise the same message: {said[0] == said[1]} ({said[0]})")
            if method.startswith("eval"):
                accs = [side.setup(method, args.seed)[0]().tobytes() for side in (a, b)]
                print(f"  both sides give the same bytes: {accs[0] == accs[1]}")
            if per_call:
                continue
            for side in (a, b):
                per_step, cum = side.profile(method, args.seed)
                parts = "  ".join(f"{name} {cum.get(name, 0.0):.1f}" for _, name in PROFILED)
                print(f"  {side.name}  cProfile calls/step {per_step:.1f}  µs/step: {parts}")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
