"""Command line front end.

Exit codes: 0 success, 2 configuration problem (bad key, bad value, bad
input file, or a file that cannot be read or written, named by its path),
3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .data import FormatError
from .harness import (
    ConfigError,
    collect_rows,
    crt_existing,
    ensemble_existing,
    gen_data,
    parse_config,
    report_csv,
    report_text,
    run,
    summarize,
)
from .metatrain import SPLITS, NumericError


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="flat key = value config file")
    sub.add_argument(
        "--set", metavar="KEY=VALUE", action="append", default=[],
        help="override one config key (repeatable)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlab",
        description="Long-tailed classification experiments with difficulty-weighted losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write train.ltds and meta.ltds under out_dir")
    _add_config_args(p)

    p = sub.add_parser("train", help="train the configured method for every seed")
    _add_config_args(p)

    p = sub.add_parser("crt", help="retrain the final layer of existing runs (stage 2)")
    _add_config_args(p)

    p = sub.add_parser("ensemble", help="mean-probability ensemble of existing runs")
    _add_config_args(p)

    p = sub.add_parser("report", help="aggregate run directories into a summary table")
    p.add_argument("paths", nargs="+", help="run directories (searched recursively)")
    p.add_argument("--csv", metavar="PATH", help="also write the summary as CSV")
    return parser


def _fmt_split(v) -> str:
    return "-" if v is None else f"{v:.4f}"


def _splits(row, names=SPLITS) -> str:
    """name=value for each of a row's splits."""
    return " ".join(f"{n}={_fmt_split(getattr(row, n))}" for n in names)


# a command's finite checks name a failure's phase, step and quantity, so
# numpy's floating-point warnings would only repeat it, less precisely
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            rows, left_out = collect_rows(args.paths)
            summaries = summarize(rows)
            print("\n".join([report_text(summaries), *left_out]))
            if args.csv:
                report_csv(summaries, args.csv)
            return 0

        cfg = parse_config(args.config, tuple(args.set))
        if args.command == "gen-data":
            train_path, meta_path = gen_data(cfg)
            print(f"wrote {train_path} and {meta_path}")
        elif args.command == "train":
            started = time.perf_counter()
            rows, left_out = run(cfg)
            seconds = time.perf_counter() - started  # the whole command's, on every row
            print("\n".join([*(f"{r.method} seed={r.seed} {_splits(r)} ({seconds:.1f}s)"
                                for r in rows), *left_out]))
        elif args.command == "crt":
            rows, left_out = crt_existing(cfg)
            print("\n".join([*(f"{r.method}+crt seed={r.seed} {_splits(r)}" for r in rows),
                             *left_out]))
        elif args.command == "ensemble":
            rows, csv_path = ensemble_existing(cfg)
            for name, splits in rows[:-1]:
                print(f"{name}: {_splits(splits, ('overall',))}")
            print(f"ensemble: {_splits(rows[-1][1])}")
            print(f"wrote {csv_path}")
        return 0
    except (ConfigError, FormatError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
