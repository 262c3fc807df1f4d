"""One client process: runs a workload's command sequence through
``ltlab.cli.main``, each command after the previous one completes.

run.py starts this file in a fresh interpreter for every pass, so each pass
pays the import and dataset set-up a user pays. Modes:

  run    run every command; with --spans, trace them and write the spans
  setup  stop at the first training step (a set-up probe)
  env    import the program and record the environment
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import platform
import resource
import sys
import threading
import time
import traceback

import calib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


class Marker:
    """Always-on probes, a few dozen calls per run, so cheap enough for the
    untraced passes.

    build_datasets: set-up ends when the first train command has its data;
    in setup mode the process ends there.
    train, train_weighted (as harness looks them up): each stage-1 run's
    TrainConfig, so the samples a pass trains on are counted, not assumed.
    per_class_accuracy (as metatrain looks it up), and the start and end of
    every command: points at which the machine's speed is sampled with
    calib.sample(), at most every MIN_GAP seconds, and only while no other
    thread trains, so that a sample reads the machine and not a contended
    interpreter. Each sample is logged as (before, seconds, after). When
    LTLAB_THREADS lets the program keep several CPUs busy, each sample reads
    all of them.
    """

    MIN_GAP = 0.1

    def __init__(self, harness, metatrain, t0: float, setup_result: str | None,
                 sampling: bool):
        self.first: float | None = None
        self.kind = ""  # name of the ltlab command running now: train, crt, ...
        self.samples: list[tuple[float, float, float]] = []
        self.runs: list[tuple[int, int]] = []  # (T, b) of every stage-1 run
        self.sampling = sampling
        self.cpus = calib.program_cpus(os.environ.get("LTLAB_THREADS", "1"))
        build, accuracy = harness.build_datasets, metatrain.per_class_accuracy

        @functools.wraps(build)
        def build_datasets(*args, **kwargs):
            out = build(*args, **kwargs)
            if self.first is None and self.kind == "train":
                self.first = time.monotonic()
                self.sample(force=True)
                if setup_result:  # a probe: skip the training it has reached
                    _write(setup_result, {"t0": t0, "t_setup": self.first,
                                          "samples": self.samples})
                    os._exit(0)
            return out

        @functools.wraps(accuracy)
        def per_class_accuracy(*args, **kwargs):
            if threading.active_count() <= 2:  # this thread, and main waiting for it
                self.sample()
            return accuracy(*args, **kwargs)

        harness.build_datasets = build_datasets
        metatrain.per_class_accuracy = per_class_accuracy
        for name in ("train", "train_weighted"):
            fn = getattr(harness, name, None)
            if callable(fn):
                setattr(harness, name, self._count(fn))

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(cfg, *args, **kwargs):
            self.runs.append((cfg.T, cfg.b))
            return fn(cfg, *args, **kwargs)

        return counted

    def sample(self, force: bool = False) -> None:
        if not self.sampling:
            return
        before = time.monotonic()
        if not force and self.samples and before - self.samples[-1][2] < self.MIN_GAP:
            return
        secs = calib.sample(self.cpus)
        self.samples.append((before, secs, time.monotonic()))


def _blas_threads():
    """OpenBLAS's own thread count, asked from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "LTLAB_THREADS": os.environ.get("LTLAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--plan", required=True, help="plan.json written by run.py")
    p.add_argument("--mode", choices=("run", "setup", "env"), required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default="", help="trace, and write the spans here")
    args = p.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ltlab.baselines
    import ltlab.cli
    import ltlab.harness
    import ltlab.metatrain

    if args.mode == "env":
        _write(args.result, environment())
        return 0
    with open(args.plan, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    marker = Marker(ltlab.harness, ltlab.metatrain, args.t0,
                    args.result if args.mode == "setup" else None, sampling=not args.spans)
    cli_main = ltlab.cli.main
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install({m: sys.modules[m] for m in
                        ("ltlab.cli", "ltlab.harness", "ltlab.metatrain", "ltlab.baselines")})
        cli_main = tracer.wrap(cli_main, "cli.main")

    done = []
    for argv in commands:
        marker.kind = argv[0]
        marker.sample(force=True)
        start = time.monotonic()
        try:
            rc = cli_main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        done.append({"argv": argv, "start": start, "end": time.monotonic(), "rc": rc})
        sys.stdout.flush()
        marker.sample(force=True)
    t_end = time.monotonic()
    if tracer is not None:
        tracer.dump(args.spans)
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    _write(args.result, {
        "t0": args.t0,
        "t_setup": marker.first,
        "t_end": t_end,
        "commands": done,
        "samples": marker.samples,
        "runs": marker.runs,
        "maxrss_kb": own.ru_maxrss + kids.ru_maxrss,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
