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
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .engine import SimConfig, run

# Bound here although nothing in this module calls them: the benchmark's
# tracer (perfbench/tracer.py) wraps ``hexswarm.cli.initialize`` and ``tick``.
from .engine import initialize, tick  # noqa: F401
from .errors import ConfigError
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
SWEEP_ONLY_KEYS = {"repeats", "base_seed"}


@dataclass
class CliInvocation:
    subcommand: str
    config_path: str | None
    out_dir: str
    overrides: list[tuple[str, object]]
    workers: int
    seed: int | None


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer literal past Python's digit limit
        value = raw
    return key, value


def parse_and_validate(argv: list[str]) -> CliInvocation:
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
    args = parser.parse_args(argv)
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    return CliInvocation(
        subcommand=args.subcommand,
        config_path=args.config,
        out_dir=args.out,
        overrides=[_parse_override(s) for s in args.overrides],
        workers=args.workers,
        seed=args.seed,
    )


def _load_config_data(invocation: CliInvocation) -> dict:
    data: dict = {}
    if invocation.config_path is not None:
        try:
            with open(invocation.config_path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {invocation.config_path}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
            raise ConfigError(f"config {invocation.config_path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {invocation.config_path} must be a JSON object")
    for key, value in invocation.overrides:
        data[key] = value
    return data


def _is_sweep_shaped(data: dict) -> bool:
    if SWEEP_ONLY_KEYS & data.keys():
        return True
    return any(isinstance(v, list) for v in data.values())


def _check_keys(data: dict, allowed: set[str], kind: str) -> None:
    unknown = sorted(data.keys() - allowed)
    if unknown:
        raise ConfigError(f"unknown {kind} config key: {unknown[0]}")


def _build_run_config(data: dict, seed: int | None) -> SimConfig:
    if _is_sweep_shaped(data):
        raise ConfigError("config describes a sweep (list values); use the sweep subcommand")
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


def execute(invocation: CliInvocation) -> int:
    data = _load_config_data(invocation)

    if invocation.subcommand == "validate":
        if _is_sweep_shaped(data):
            spec = _build_sweep_spec(data, invocation.seed)
            total = len(spec.cells()) * spec.repeats
            print(f"valid sweep config: {len(spec.cells())} cells x {spec.repeats} repeats = {total} runs")
        else:
            config = _build_run_config(data, invocation.seed)
            print(
                f"valid run config: m={config.m} topology={config.topology} "
                f"C_r={config.C_r:g} C_f={config.C_f:g} epsilon={config.epsilon:g} "
                f"seed={config.seed}"
            )
        return 0

    out_dir = Path(invocation.out_dir)
    if invocation.subcommand in ("run", "trace"):
        config = _build_run_config(data, invocation.seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        every_tick = invocation.subcommand == "trace"
        lines: list[str] = []

        def log_agents(state, sampled):
            if every_tick or sampled:
                lines.extend(a.log_line(state.tick_index) for a in state.agents)

        record = run(config, on_tick=log_agents)
        (out_dir / "run_record.json").write_text(record.to_json() + "\n")
        (out_dir / "trace.log").write_text("\n".join(lines) + "\n")
        status = "consensus" if record.converged else "no consensus"
        print(
            f"run finished: {status} at tick {record.terminal_tick}, "
            f"steady-state error {record.steady_state_error:.4f}"
        )
        return 0

    # sweep
    spec = _build_sweep_spec(data, invocation.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = run_sweep(spec, workers=invocation.workers)
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
        invocation = parse_and_validate(argv)
        return execute(invocation)
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
