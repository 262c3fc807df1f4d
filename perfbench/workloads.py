"""Workload definitions: the config and command sequence each workload runs.

A workload seed fixes everything the program receives: the data seed of the
synthetic set and the training seeds. Paths are relative to the checkout
root, so the run directories (which echo out_dir) hash the same everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Training knobs are written out in full, so a later change of the program's
# defaults does not silently change what a workload measures.
C10 = {
    "classes": 10, "n_max": 2300, "imbalance": 100.0, "dim": 16, "separation": 2.5,
    "m_per_class": 20, "epochs": 30, "batch_size": 64, "meta_batch_size": 64,
    "alpha": 0.1, "beta": 0.03, "lambda": 0.25, "hidden": 64, "dnet_weight_decay": 0.003,
}
C100 = dict(C10, classes=100, n_max=1000, m_per_class=5, epochs=3)

DNET_METHODS = ("dnet", "dnet-abs", "dnet-sample", "dnet-nodriver")
CLASS_DIFFICULTY_METHODS = ("dnet", "dnet-abs", "dnet-nodriver", "dnet-nometa")

WHY = {  # the same sentences as BENCHMARK.json
    "c10-dnet": (
        "default C=10 bilevel loop (dnet, dnet-abs, dnet-sample) on 64x16 and 64x64 "
        "matrices, where Python and numpy call overhead dominates"
    ),
    "c10-fixed": (
        "fixed-weight baselines with cRT, ensemble and report: no difficulty net or "
        "lookahead, so a bilevel-only change must show no change here"
    ),
    "c100-wide": (
        "C=100 from gen-data LTDS files: arithmetic and data loading outweigh call "
        "overhead, so overhead-only savings gain less here"
    ),
    "seeds-pool": (
        "dnet seeds trained concurrently under LTLAB_THREADS=2, the only workload where "
        "harness.run overlaps seeds"
    ),
}


@dataclass(frozen=True)
class Run:
    """One (method, seed) run directory a workload must leave behind."""

    method: str
    seed: int
    epochs: int
    crt: bool


@dataclass
class Plan:
    name: str
    threads: int  # LTLAB_THREADS given to the program
    config: dict  # written to <work>/exp.cfg
    commands: list = field(default_factory=list)  # argv lists for ltlab.cli.main
    attempts: list = field(default_factory=list)  # (method, seed) runs per command
    runs: list = field(default_factory=list)  # Run
    work: str = ""
    train_size: int = 5509  # train samples after the meta split
    ltds: tuple = ()  # (path, class count, rows) per LTDS file gen-data writes
    ensemble_csv: str = ""
    summary_csv: str = ""

    @property
    def runs_dir(self) -> str:
        return f"{self.work}/runs"

    @property
    def config_path(self) -> str:
        return f"{self.work}/exp.cfg"

    @property
    def samples(self) -> int:
        """Stage-1 samples over all runs: sum of T * b."""
        b = self.config["batch_size"]
        return sum(r.epochs * (self.train_size // b) * b for r in self.runs)

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())

    def command(self, argv: list, runs: int = 0) -> None:
        self.commands.append(argv)
        self.attempts.append(runs)

    def train(self, method: str, seeds, *extra: str, crt: bool = False) -> None:
        argv = ["train", "--config", self.config_path, "--set", f"method={method}"]
        for item in extra:
            argv += ["--set", item]
        self.command(argv, len(seeds))
        self.runs += [Run(method, s, self.config["epochs"], crt) for s in seeds]


def plan(name: str, seed: int, work: str) -> Plan:
    if seed < 0:
        raise ValueError("the workload seed must be non-negative")
    if name == "c10-dnet":
        p = Plan(name, 1, dict(C10), work=work)
        seeds = (seed,)
        methods = ("dnet", "dnet-abs", "dnet-sample")
    elif name == "c10-fixed":
        p = Plan(name, 1, dict(C10, stage2="crt"), work=work)
        seeds = (seed,)
        methods = ("ce", "invfreq", "effnum", "cdb")
    elif name == "c100-wide":
        p = Plan(name, 1, dict(C100), work=work, train_size=21285)
        seeds = (seed,)
        methods = ("ce", "dnet", "dnet-sample")
    elif name == "seeds-pool":
        # 4 epochs, so that a run holds about ten passes: the machine's
        # speed is sampled only between commands here
        p = Plan(name, 2, dict(C10, epochs=4), work=work)
        seeds = (seed, seed + 1)
        methods = ("dnet",)
    else:
        raise KeyError(name)
    p.config.update(data_seed=seed, seeds=",".join(map(str, seeds)), out_dir=p.runs_dir)

    extra: tuple[str, ...] = ()
    if name == "c100-wide":
        data_dir = f"{work}/data"
        p.command(["gen-data", "--config", p.config_path, "--set", f"out_dir={data_dir}"])
        p.ltds = ((f"{data_dir}/train.ltds", 100, p.train_size), (f"{data_dir}/meta.ltds", 100, 500))
        extra = (f"train_file={data_dir}/train.ltds", f"meta_file={data_dir}/meta.ltds")
    for method in methods:
        p.train(method, seeds, *extra, crt=p.config.get("stage2") == "crt")
    if name == "c10-fixed":
        # focal gets its cRT stage from the crt command instead, which runs
        # harness.crt_existing and leaves the same files as stage2 = crt
        p.train("focal", seeds, "stage2=none", crt=True)
        p.command(["crt", "--config", p.config_path, "--set", "method=focal"])
        members = ",".join(f"{p.runs_dir}/{m}/seed{seed}" for m in ("ce", "focal"))
        p.command(["ensemble", "--config", p.config_path, "--set",
                   f"ensemble_members={members}"])
        p.ensemble_csv = f"{p.runs_dir}/ensemble_metrics.csv"
        p.summary_csv = f"{work}/summary.csv"
        p.command(["report", p.runs_dir, "--csv", p.summary_csv])
    return p
