"""Command-line entry point for the experiment harness.

Exit codes: 0 on success, 2 on configuration errors (bad flags, bad
model config), 3 when a numerical guard trips.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from .analysis import (
    BENCHMARK_CALL_PRICE,
    ExperimentConfig,
    run_mlmc_cost,
    run_strong_conv,
    run_terminal_conv,
    run_traj_conv,
    run_weak_call,
    write_rows_csv,
)
from .coupling import lookback_single_level
from .errors import ConfigError, InvalidParameterError, NumericalError
from .models import benchmark_scott_params, scott_model, spec_from_config
from .pricing import chunked_estimate, romano_touzi_call
from .rng import RngStream
from .schemes import SchemeKind

_SCHEME_CHOICES = [k.value for k in SchemeKind]


def _add_common(parser: argparse.ArgumentParser, paths: bool = True):
    parser.add_argument("--config", help="JSON model config file (defaults to the built-in Scott benchmark)")
    parser.add_argument("--seed", type=int, default=0, help="root seed of the random streams")
    if paths:  # mlmc sets its own sample counts
        parser.add_argument("--paths", type=int, default=10_000, help="Monte Carlo paths per cell")
    parser.add_argument("--out", help="output file (CSV for experiments, JSON for price); stdout if omitted")
    parser.add_argument("--cutoff", choices=["floor", "band"], default="floor",
                        help="variance cutoff of the weak-trajectorial radicand")


def _finite(low: float, inclusive: bool):
    """argparse type: a finite number at least ``low`` (above it unless ``inclusive``)."""
    bound = f"{'>=' if inclusive else '>'} {low:g}"

    def finite(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and (value >= low if inclusive else value > low)):
            raise argparse.ArgumentTypeError(f"must be a finite number {bound}, got {text!r}")
        return value

    return finite


_strike = _finite(0.0, inclusive=True)


def _add_ladder(parser: argparse.ArgumentParser):
    parser.add_argument("--steps", type=int, default=256,
                        help="largest coarse step count of the ladder 2, 4, ..., steps")


@functools.cache  # one build per process: each parse_args fills a namespace of its own
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svschemes",
        description="Discretization schemes and multilevel Monte Carlo for stochastic volatility models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in [
        ("strong-conv", "two-level errors under the plain shared-Brownian coupling"),
        ("traj-conv", "two-level errors under the trajectorial coupling"),
        ("terminal-conv", "two-level errors under the shared-G terminal coupling"),
    ]:
        p = sub.add_parser(name, help=text)
        _add_common(p)
        _add_ladder(p)

    p = sub.add_parser("weak-call", help="conditioning-based call prices across step counts")
    _add_common(p)
    _add_ladder(p)
    p.add_argument("--strike", type=_strike, default=100.0)

    p = sub.add_parser("mlmc", help="multilevel estimate and cost for one scheme")
    _add_common(p, paths=False)
    p.add_argument("--scheme", choices=_SCHEME_CHOICES, default="weaktraj1")
    p.add_argument("--payoff", choices=["call", "lookback"], default="call")
    p.add_argument("--epsilon", type=_finite(0.0, inclusive=False), default=0.04,
                   help="target RMS accuracy")
    p.add_argument("--strike", type=_strike, default=100.0)
    p.add_argument("--max-level", type=int, default=10)
    p.add_argument("--probe-samples", type=int, default=10_000,
                   help="initial samples on each of levels 0-2 before the allocation")

    p = sub.add_parser("price", help="single-grid price of a call or lookback")
    _add_common(p)
    p.add_argument("--scheme", choices=_SCHEME_CHOICES, default="weaktraj1")
    p.add_argument("--payoff", choices=["call", "lookback"], default="call")
    p.add_argument("--steps", type=int, default=64, help="number of time steps")
    p.add_argument("--strike", type=_strike, default=100.0)

    return parser


def _load_spec(args):
    if args.config is None:
        return scott_model(benchmark_scott_params())
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
    return spec_from_config(cfg)


def _reference_price(args):
    """BENCHMARK_CALL_PRICE for a call at strike 100 on the built-in model, else None."""
    call = getattr(args, "payoff", "call") == "call"
    return BENCHMARK_CALL_PRICE if args.config is None and call and args.strike == 100.0 else None


def _ladder(max_n: int) -> tuple[int, ...]:
    if max_n < 4 or max_n & (max_n - 1):
        raise ConfigError(f"--steps must be a power of two >= 4, got {max_n}")
    ladder = []
    n = 2
    while n <= max_n:
        ladder.append(n)
        n *= 2
    return tuple(ladder)


def _check_out(path):
    """Fail with ConfigError unless ``path`` can be opened for writing, before
    anything is drawn; a file the probe creates is removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _emit_json(payload, out):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _run(args) -> int:
    spec = dataclasses.replace(_load_spec(args), cutoff=args.cutoff)
    if args.out:
        _check_out(args.out)
    rng = RngStream(args.seed)

    if args.command == "price":
        kind = SchemeKind(args.scheme)
        payload = {"payoff": args.payoff, "scheme": kind.value, "steps": args.steps}
        if args.payoff == "call":
            payload["strike"] = args.strike
            est = romano_touzi_call(spec, kind, args.steps, args.strike, rng, args.paths)
        else:
            est = chunked_estimate(lambda first, size: lookback_single_level(
                spec, kind, args.steps, rng, size, first), args.paths)
        _emit_json({**payload, "paths": est.npaths, "value": est.value, "stderr": est.stderr},
                   args.out)
        return 0

    if args.command in ("strong-conv", "traj-conv", "terminal-conv"):
        config = ExperimentConfig(n_ladder=_ladder(args.steps), npaths=args.paths)
        runner = {
            "strong-conv": run_strong_conv,
            "traj-conv": run_traj_conv,
            "terminal-conv": run_terminal_conv,
        }[args.command]
        rows = runner(spec, config, rng)
    elif args.command == "weak-call":
        config = ExperimentConfig(n_ladder=_ladder(args.steps), npaths=args.paths)
        rows = run_weak_call(spec, config, rng, args.strike, _reference_price(args))
    elif args.command == "mlmc":
        rows = run_mlmc_cost(
            spec, SchemeKind(args.scheme), args.payoff, (args.epsilon,), rng,
            max_level=args.max_level, strike=args.strike,
            initial_samples=args.probe_samples, reference=_reference_price(args),
        )
    else:
        raise ConfigError(f"unknown command {args.command!r}")
    write_rows_csv(rows, args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
