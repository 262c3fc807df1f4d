"""ltlab benchmark: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload c10-dnet --seed 0 --seconds 28 --trace 0

Run from anywhere inside a checkout; sources are taken from its src/. Each
pass starts worker.py in a fresh interpreter, which runs the workload's
ltlab commands one after another; the next pass starts when the previous
one has ended. Passes repeat while another fits in --seconds (at least one
runs). Every pass is checked (checks.py) and its output files hashed; the
hashes of all passes must agree.

--trace 0 prints the end-to-end metrics. Set-up is also probed on its own
several times, so setup_s is a median over many fresh starts. Times are
corrected for the machine's speed, read from a fixed numpy kernel that is
timed before each worker starts and inside it between epochs (calib.py,
NOTES.md).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics, including the tracing overhead (traced minus untraced wall time).

The last line of output is one JSON object with correct, attempted, failed
and metrics. Scratch files go to .perfbench/<workload>/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WHY, Plan, plan as make_plan  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = (3, 16)  # fewest and most set-up probes of a --trace 0 run
SETUP_SHARE = 0.25  # probes stop once they have taken this share of --seconds
DEADLINE_S = 170  # the whole command must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **layers.metric_units(),
    "harness.artifact_bytes": "B",
    "proc.cpu_util": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "quality.overall_acc": "fraction",
    "quality.few_acc": "fraction",
}


class Bench:
    """Starts the worker processes of one workload, one at a time."""

    def __init__(self, plan: Plan, deadline: float):
        self.plan = plan
        self.deadline = deadline
        # The program runs as users run it: only LTLAB_THREADS is set here.
        self.env = dict(os.environ, LTLAB_THREADS=str(plan.threads))
        self.cpus = calib.program_cpus(str(plan.threads))
        self.plan_path = os.path.join(plan.work, "plan.json")
        with open(plan.config_path, "w", encoding="utf-8") as fh:
            fh.write(plan.config_text())
        with open(self.plan_path, "w", encoding="utf-8") as fh:
            json.dump({"commands": plan.commands}, fh)
        self.count = 0

    def worker(self, mode: str, traced: bool = False) -> dict:
        """Start one worker, wait for it to end, return its result record."""
        self.count += 1
        base = os.path.join(self.plan.work, f"{mode}{self.count}")
        argv = [sys.executable, WORKER, "--plan", self.plan_path, "--mode", mode,
                "--result", base + ".json"]
        if traced:
            argv += ["--spans", base + ".spans.json"]
        self._clean()
        before = time.monotonic()
        spawn_sample = (before, calib.sample(self.cpus), time.monotonic())
        with open(base + ".log", "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            # its own process group, so whatever the program starts is stopped too
            proc = subprocess.Popen(argv + ["--t0", repr(t0)], env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.deadline - t0))
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if proc.returncode != 0 or not os.path.exists(base + ".json"):
            raise RuntimeError(f"worker exited with {proc.returncode}; see {base}.log")
        with open(base + ".json", encoding="utf-8") as fh:
            rec = json.load(fh)
        if traced:
            rec["spans_path"] = base + ".spans.json"
        elif mode != "env":
            rec["samples"] = [spawn_sample] + rec.get("samples", [])
        return rec

    def _clean(self) -> None:
        for d in (self.plan.runs_dir, os.path.join(self.plan.work, "data")):
            shutil.rmtree(d, ignore_errors=True)
        if self.plan.summary_csv and os.path.exists(self.plan.summary_csv):
            os.remove(self.plan.summary_csv)

    def run_pass(self, traced: bool) -> dict:
        rec = self.worker("run", traced)
        rec["traced"] = traced
        rec["problems"] = checks.check(self.plan)
        rec["digest"] = checks.digest(self.plan)
        rec["artifact_bytes"] = checks.artifact_bytes(self.plan)
        rec["final_rows"] = [] if rec["problems"] else checks.final_rows(self.plan)
        rec["samples_trained"] = sum(t * b for t, b in rec["runs"])
        return rec


def timed(rec: dict, lo: float, hi: float) -> tuple[float, float]:
    """(raw, speed-corrected) program seconds of one worker in [lo, hi]."""
    return calib.corrected(rec["t0"], rec["t_end"], rec["samples"], lo, hi)


def pass_times(rec: dict) -> dict:
    """Raw and corrected wall, train and set-up time of one untraced worker:
    a pass or a set-up probe."""
    out = {"samples": len(rec["samples"])}
    out["wall_s"], out["wall_fixed"] = timed(rec, rec["t0"], rec["t_end"])
    out["train_s"] = out["train_fixed"] = 0.0
    for c in rec.get("commands", []):
        if c["argv"][0] == "train":
            raw, fixed = timed(rec, c["start"], c["end"])
            out["train_s"] += raw
            out["train_fixed"] += fixed
    if rec["t_setup"] is not None:
        out["setup_s"], out["setup_fixed"] = timed(rec, rec["t0"], rec["t_setup"])
    return out


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def split_median(rows: list[dict], split: str) -> float:
    return median([float(r[split]) for r in rows if r.get(split)])


def measure(plan: Plan, seconds: int, trace: bool) -> dict:
    bench = Bench(plan, time.monotonic() + DEADLINE_S)
    env = bench.worker("env")  # also compiles the sources before anything is timed
    start = time.monotonic()
    probes: list[dict] = []
    while not trace and len(probes) < SETUP_PROBES[1] and (
            len(probes) < SETUP_PROBES[0]
            or time.monotonic() - start < SETUP_SHARE * seconds):
        probes.append(bench.worker("setup"))
        probes[-1].setdefault("t_end", probes[-1]["t_setup"])
    passes: list[dict] = []
    while True:
        passes.append(bench.run_pass(trace and len(passes) % 2 == 1))
        now = time.monotonic()
        longest = max(p["t_end"] - p["t0"] for p in passes)
        if trace and len(passes) < 2:
            continue
        if now - start + longest > seconds or now + 1.5 * longest > bench.deadline:
            break

    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        for cmd, runs in zip(p["commands"], plan.attempts):
            attempted += runs
            if cmd["rc"] != 0:
                failed += runs
                problems.append(f"ltlab {' '.join(cmd['argv'])} exited with {cmd['rc']}")
        problems += p["problems"]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) != 1:
        problems.append(f"output digests differ between passes: {digests}")

    notes: list[str] = []
    trained = {p["samples_trained"] for p in passes}
    if trained != {plan.samples}:
        notes.append(f"stage-1 runs trained on {sorted(trained)} samples per pass; "
                     f"the workload expects {plan.samples}")

    untraced = [p for p in passes if not p["traced"]]
    # Each stretch of program time is scaled by the kernel's reference time
    # over its time around that stretch, so a slow or fast spell of the
    # machine (other tenants of a shared host) counts as the reference speed.
    for p in probes + untraced:
        p["times"] = pass_times(p)
    kernel = [s[1] for r in probes + untraced for s in r["samples"]]
    finals = passes[-1]["final_rows"]
    out = {
        "workload": plan.name, "why": WHY[plan.name], "env": env, "passes": len(passes),
        "attempted": attempted, "failed": failed, "problems": problems, "notes": notes,
        "digest": digests[0] if len(digests) == 1 else None,
        "kernel_median_s": median(kernel),
        "raw": [p["times"] for p in untraced],
        "records": [{k: r.get(k) for k in ("t0", "t_setup", "t_end", "samples", "commands")}
                    for r in probes + untraced],
    }
    if not trace:
        setups = [r["times"] for r in probes + untraced if "setup_s" in r["times"]]
        out["setup_samples"] = [(s["setup_s"], s["setup_fixed"]) for s in setups]
        values = {
            "setup_s": median([s["setup_fixed"] for s in setups]),
            "wall_s": median([p["times"]["wall_fixed"] for p in untraced]),
            "train_samples_per_s": median([(p["samples_trained"] or plan.samples)
                                           / p["times"]["train_fixed"]
                                           for p in untraced]),
            "peak_rss_mb": median([p["maxrss_kb"] / 1024.0 for p in untraced]),
        }
        units = END_TO_END
    else:
        traced = [p for p in passes if p["traced"]]
        per_pass = []
        for p in traced:
            with open(p["spans_path"], encoding="utf-8") as fh:
                spans = layers.load(json.load(fh)["spans"])
            per_pass.append(layers.aggregate(spans))
            out["train_one_by_method"] = layers.train_one_by_method(spans)
        values = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
        # raw times: the traced passes sample no kernel, the untraced ones
        # leave their kernel time out
        wall_off = median([p["times"]["wall_s"] for p in untraced])
        wall_on = median([p["t_end"] - p["t0"] for p in traced])
        values.update({
            "harness.artifact_bytes": median([p["artifact_bytes"] for p in traced]),
            "proc.cpu_util": median([(p["cpu_s"] - (p["t_end"] - p["t0"] - p["times"]["wall_s"]))
                                     / p["times"]["wall_s"] for p in untraced]),
            "trace.overhead_s": wall_on - wall_off,
            "trace.overhead_ratio": (wall_on - wall_off) / wall_off,
            "quality.overall_acc": split_median(finals, "overall"),
            "quality.few_acc": split_median(finals, "few"),
        })
        units = PER_LAYER
    out["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return out


def recorded_digest(workload: str, seed: int) -> str | None:
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ltlab", "cli.py")):
        print("perfbench: no ltlab sources under src/ in this checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    work = f".perfbench/{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = make_plan(args.workload, args.seed, work)
    try:
        out = measure(plan, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    out["seed"], out["trace"] = args.seed, args.trace
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)

    print(f"workload {plan.name} seed {args.seed}: {out['why']}")
    print("env " + json.dumps(out["env"], sort_keys=True))
    for name, m in out["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    for method, secs in out.get("train_one_by_method", {}).items():
        print(f"  train_one[{method}] {secs:.3f} s (traced)")
    print(f"passes {out['passes']}, fail_ratio {out['failed']}/{out['attempted']}")
    recorded = recorded_digest(plan.name, args.seed)
    note = "" if recorded is None else \
        " (matches recorded)" if recorded == out["digest"] else f" (recorded {recorded})"
    print(f"output digest {out['digest']}{note}")
    for note in out["notes"]:
        print(f"note: {note}")
    print(f"kernel samples per pass {[t['samples'] for t in out['raw']]}, median "
          f"{out['kernel_median_s'] * 1e3:.3f} ms, reference {calib.REFERENCE_S * 1e3:.3f} ms")
    for problem in out["problems"]:
        print(f"PROBLEM {problem}")
    print(json.dumps({
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
