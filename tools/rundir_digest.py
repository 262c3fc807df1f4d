"""Digest of every run-directory file that ltlab writes for all ten methods.

    python3 tools/rundir_digest.py OUT

For each of three configs (C=10 linear with 4 epochs, C=10 cosine with 3
epochs, C=100 with 1 epoch, each training seeds 0 and 1 in one command, so
that their files also pin a stacked step), this trains every method
with stage2 = none and with stage2 = crt, copies the stage2 = none runs and
runs `ltlab crt` over the copy twice, so that the digest also pins that a
second `ltlab crt` leaves the files as the first one left them. Per config
it then runs `ltlab ensemble` over two members (a stage2 = crt dnet run and
a stage2 = none ce run) and `ltlab report --csv` over all of the config's
runs, keeping the stdout of both next to their CSV files. It prints one "sha256  path" line per file
under OUT, paths relative to OUT, leaving out manifest.json (the only file
with wall-clock times). The package is imported from the src/
directory next to this script, so two checkouts compare with one diff:

    python3 a/tools/rundir_digest.py /tmp/a > a.txt
    python3 b/tools/rundir_digest.py /tmp/b > b.txt
    diff a.txt b.txt

A change that retires or adds a config key changes every run_config.txt,
and so the digest lines of those files alone. Check it on the trees:

    diff -r -x manifest.json /tmp/a /tmp/b

where only run_config.txt files may differ, each by exactly the lines of
the keys that changed.

OUT must not exist yet. Takes a few minutes on two CPUs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from ltlab.cli import main  # noqa: E402
from ltlab.harness import METHODS  # noqa: E402

CONFIGS = {
    "c10": ("seeds=0,1", "epochs=4"),
    "c10-cosine": ("seeds=0,1", "epochs=3", "head=cosine"),
    "c100": ("seeds=0,1", "epochs=1", "classes=100", "n_max=1000", "m_per_class=5"),
}


def ltlab(*argv: str) -> str:
    """Run one ltlab command; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        sys.exit(f"ltlab {' '.join(argv)} exited {code}")
    return out.getvalue()


def save(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def with_sets(command: str, *items: str) -> list[str]:
    argv = [command]
    for item in items:
        argv += ["--set", item]
    return argv


def main_digest(out: str) -> None:
    os.makedirs(out)
    os.chdir(out)  # run_config.txt records out_dir, so keep it relative
    for name, keys in CONFIGS.items():
        for method in METHODS:
            for stage2 in ("none", "crt"):
                ltlab(*with_sets("train", *keys, f"method={method}", f"stage2={stage2}",
                                 f"out_dir={name}/{stage2}"))
            shutil.copytree(f"{name}/none/{method}", f"{name}/none+crt/{method}")
            for _ in range(2):
                ltlab(*with_sets("crt", *keys, f"method={method}", f"out_dir={name}/none+crt"))
        members = f"{name}/crt/dnet/seed0,{name}/none/ce/seed0"
        save(f"{name}/ensemble.out", ltlab(*with_sets("ensemble", *keys, f"ensemble_members={members}",
                                                      f"out_dir={name}")))
        save(f"{name}/report.out", ltlab("report", name, "--csv", f"{name}/summary.csv"))
    for root, dirs, files in os.walk("."):
        dirs.sort()
        for f in sorted(files):
            if f == "manifest.json":
                continue
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {os.path.relpath(path)}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main_digest(sys.argv[1])
