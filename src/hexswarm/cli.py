"""Command-line front end.

Subcommands:
    run       execute one simulation, write run_record.json plus a trace
              log sampled at the metric interval
    sweep     execute a parameter sweep, write the three CSV outputs
    validate  check a config file and report what it describes; writes
              nothing
    trace     like run, but the trace log covers every tick (meant for
              short runs)

Configs are flat JSON documents whose keys mirror the run/sweep parameter
names; ``--set key=value`` overrides individual entries. A config whose
value lists or ``repeats``/``base_seed`` keys are present is treated as a
sweep, otherwise as a single run.

Exit codes: 0 success, 1 I/O failure, 2 bad usage or bad config.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from .engine import SimConfig, run

# Bound here although nothing in this module calls them: the benchmark's
# tracer (perfbench/tracer.py) wraps ``hexswarm.cli.initialize`` and ``tick``.
from .engine import initialize, tick  # noqa: F401
from .errors import ConfigError, check
from .experiment import (
    SweepSpec,
    aggregate,
    group_by_cell,
    mean_trajectories,
    run_sweep,
    write_cell_summary,
    write_sweep_results,
    write_trajectories,
)

RUN_KEYS = {f.name for f in dataclasses.fields(SimConfig)}
SWEEP_KEYS = {f.name for f in dataclasses.fields(SweepSpec)}
SWEEP_ONLY_KEYS = SWEEP_KEYS - RUN_KEYS


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer literal past Python's digit limit
        value = raw
    except RecursionError:
        raise ConfigError(f"override {key!r} is nested too deeply to parse") from None
    return key, value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept: building it
    costs about a millisecond, and parsing leaves it unchanged (``append``
    copies its default list before appending)."""
    parser = argparse.ArgumentParser(
        prog="hexswarm",
        description="Collective learning simulator over a hexagonal arena.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, text in (
        ("run", "execute a single simulation run"),
        ("sweep", "execute a parameter sweep"),
        ("validate", "check a config file without running anything"),
        ("trace", "execute a single run with a per-tick trace log"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--out", "-o", metavar="DIR", default="out", help="output directory")
        p.add_argument(
            "--set",
            metavar="K=V",
            action="append",
            default=[],
            dest="overrides",
            help="override a config key (repeatable)",
        )
        p.add_argument("--workers", type=int, default=1, metavar="N", help="parallel run workers")
        p.add_argument("--seed", type=int, default=None, metavar="N", help="override the seed")
    return parser


def parse_and_validate(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments, with ``--workers`` checked and ``overrides``
    holding the parsed (key, value) pairs of ``--set``."""
    args = _parser().parse_args(argv)
    check("--workers", args.workers)
    args.overrides = [_parse_override(s) for s in args.overrides]
    return args


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is an error (``json`` keeps the last)."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config key {key!r} appears more than once")
        data[key] = value
    return data


def _load_config_data(args: argparse.Namespace) -> dict:
    data: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                data = json.load(fh, object_pairs_hook=_unique_keys)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except ConfigError:
            raise
        except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError(f"config {args.config} is nested too deeply to parse") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config} must be a JSON object")
    for key, value in args.overrides:
        data[key] = value
    return data


def _sweep_key(data: dict) -> str | None:
    """The first key that makes ``data`` a sweep config, a sweep-only key or
    one with a list value, or None for a single-run config."""
    return next((k for k, v in data.items() if k in SWEEP_ONLY_KEYS or isinstance(v, list)), None)


def _check_keys(data: dict, allowed: set[str], kind: str) -> None:
    unknown = sorted(data.keys() - allowed)
    if unknown:
        raise ConfigError(f"unknown {kind} config key: {unknown[0]}")


def _build_run_config(data: dict, seed: int | None) -> SimConfig:
    key = _sweep_key(data)
    if key is not None:
        cause = "is a sweep-only key" if key in SWEEP_ONLY_KEYS else "has a list value"
        raise ConfigError(f"config describes a sweep ({key!r} {cause}); use the sweep subcommand")
    _check_keys(data, RUN_KEYS, "run")
    if seed is not None:
        data = {**data, "seed": seed}
    config = SimConfig(**data)
    config.validate()
    return config


def _build_sweep_spec(data: dict, seed: int | None) -> SweepSpec:
    _check_keys(data, SWEEP_KEYS, "sweep")
    if seed is not None:
        data = {**data, "base_seed": seed}
    spec = SweepSpec(**data)
    spec.validate()
    return spec


def execute(args: argparse.Namespace) -> int:
    data = _load_config_data(args)

    if args.subcommand == "validate":
        if _sweep_key(data) is not None:
            spec = _build_sweep_spec(data, args.seed)
            total = len(spec.cells()) * spec.repeats
            print(f"valid sweep config: {len(spec.cells())} cells x {spec.repeats} repeats = {total} runs")
        else:
            config = _build_run_config(data, args.seed)
            print(
                f"valid run config: m={config.m} topology={config.topology} "
                f"C_r={config.C_r:g} C_f={config.C_f:g} epsilon={config.epsilon:g} "
                f"seed={config.seed}"
            )
        return 0

    out_dir = Path(args.out)
    if args.subcommand in ("run", "trace"):
        config = _build_run_config(data, args.seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        # The log is streamed to a temporary file, so memory stays flat however
        # many ticks are traced, and is renamed onto trace.log only once the
        # run and its record are written.
        partial = out_dir / "trace.log.tmp"
        try:
            with partial.open("w") as log:

                def log_agents(state, *_):
                    t = state.tick_index
                    log.writelines(f"{a.log_line(t)}\n" for a in state.agents)

                # trace logs every tick; run logs the rows only, which lets
                # the engine keep its certified legs.
                if args.subcommand == "trace":
                    record = run(config, on_tick=log_agents)
                else:
                    record = run(config, on_row=log_agents)
            (out_dir / "run_record.json").write_text(record.to_json() + "\n")
            os.replace(partial, out_dir / "trace.log")
        finally:
            partial.unlink(missing_ok=True)  # left only by a run that failed
        status = "consensus" if record.converged else "no consensus"
        print(
            f"run finished: {status} at tick {record.terminal_tick}, "
            f"steady-state error {record.steady_state_error:.4f}"
        )
        return 0

    # sweep
    spec = _build_sweep_spec(data, args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = run_sweep(spec, workers=args.workers)
    grouped = group_by_cell(spec, records)
    summaries = aggregate(grouped)
    write_sweep_results(out_dir / "sweep_results.csv", spec, records)
    write_cell_summary(out_dir / "cell_summary.csv", summaries)
    write_trajectories(out_dir / "trajectories.csv", mean_trajectories(grouped, spec.sample_every))
    for summary in summaries:
        print(summary.describe())
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_and_validate(argv)
        return execute(args)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; normalize None to 0
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
