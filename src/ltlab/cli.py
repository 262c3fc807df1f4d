"""Command line front end.

Exit codes: 0 success, 2 configuration problem (bad key, bad value, bad
input file), 3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import sys

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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            rows, failed = collect_rows(args.paths)
            summaries = summarize(rows)
            print("\n".join([report_text(summaries), *failed]))
            if args.csv:
                report_csv(summaries, args.csv)
            return 0

        cfg = parse_config(args.config, tuple(args.set))
        if args.command == "gen-data":
            train_path, meta_path = gen_data(cfg)
            print(f"wrote {train_path} and {meta_path}")
        elif args.command == "train":
            for r in run(cfg):
                print(f"{r.method} seed={r.seed} {_splits(r)} ({r.wall_seconds:.1f}s)")
        elif args.command == "crt":
            for r in crt_existing(cfg):
                print(f"{r.method}+crt seed={r.seed} {_splits(r)}")
        elif args.command == "ensemble":
            result = ensemble_existing(cfg)
            for entry in result["members"]:
                print(f"{entry['name']}: {_splits(entry['splits'], ('overall',))}")
            print(f"ensemble: {_splits(result['ensemble'])}")
            print(f"wrote {result['csv_path']}")
        return 0
    except (ConfigError, FormatError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
