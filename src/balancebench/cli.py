"""Command-line interface for running benchmark scenarios and emitting results."""

from __future__ import annotations

import argparse
import sys
import time

from .errors import BalanceBenchError, ConfigError
from .harness import (
    CONFIG_KEYS,
    config_from_mapping,
    emit_results,
    parse_config_text,
    run,
    summarize,
)


def build_parser() -> argparse.ArgumentParser:
    """--config plus one flag per configuration key; values stay text until config_from_mapping."""
    p = argparse.ArgumentParser(
        prog="balancebench",
        description="Run covariate-balancing benchmark scenarios and write metric tables.",
    )
    p.add_argument("--config", metavar="PATH", help="key = value configuration file")
    for key, entry in CONFIG_KEYS.items():
        action = argparse.BooleanOptionalAction if entry.kind == "bool" else "store"
        p.add_argument(f"--{key.replace('_', '-')}", action=action, help=entry.help)
    return p


def _cli_mapping(args: argparse.Namespace) -> dict:
    """The configuration keys given on the command line, as config-file text."""
    return {
        key: str(value).lower() if isinstance(value, bool) else value
        for key in CONFIG_KEYS
        if (value := getattr(args, key)) is not None
    }


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        mapping = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    mapping = parse_config_text(fh.read())
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
        mapping.update(_cli_mapping(args))
        if "out" not in mapping or not mapping["out"]:
            raise ConfigError("an output directory is required (--out DIR)")
        config = config_from_mapping(mapping)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    total = len(config.scenarios)

    def progress(i, scenario, seconds):
        n, rarity, confounding = scenario
        print(
            f"[{i + 1}/{total}] n={n} {rarity}/{confounding}: "
            f"{config.replications} replications in {seconds:.1f}s",
            file=sys.stderr,
        )

    t0 = time.perf_counter()
    try:
        records = run(config, progress=progress)
        summaries = summarize(records)
        paths = emit_results(summaries, records, config, wall_time=time.perf_counter() - t0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BalanceBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {paths['summary']}", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
