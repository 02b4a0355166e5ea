"""Command-line front end.

swapnet run --config experiment.json
swapnet run --preset fig3 [--n 6] [--seed 42] [--out runs/my-dir]
swapnet acceptance [--quick]
swapnet list-presets

Exit codes: 0 success, 1 failed acceptance criteria, 2 bad configuration,
3 invariant violation during a run, 4 network too large. The environment
variable SWAPNET_OUT_ROOT overrides the default output root (./runs).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .channel import ChannelInvariantError
from .core import DimensionCapError
from .experiment import (
    ConfigError,
    PRESET_NAMES,
    PRESET_SUMMARIES,
    load_config,
    load_preset,
    run_experiment,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_DIM_CAP = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapnet",
        description="Exact simulator for qubit networks under a random "
                    "partial-swap channel.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one configured experiment")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH",
                        help="JSON experiment config")
    source.add_argument("--preset", metavar="NAME",
                        choices=PRESET_NAMES,
                        help="shipped preset name")
    run.add_argument("--n", type=int, metavar="N",
                     help="override network size (preset runs only)")
    run.add_argument("--seed", type=int, metavar="SEED",
                     help="override the master seed")
    run.add_argument("--out", metavar="DIR",
                     help="output directory (default <root>/<name>)")

    acc = sub.add_parser("acceptance", help="run the acceptance checks")
    acc.add_argument("--quick", action="store_true",
                     help="smaller sizes and fewer seeds")

    sub.add_parser("list-presets", help="list shipped presets")
    return parser


def _cmd_run(args) -> int:
    if args.config is not None:
        if args.n is not None:
            raise ConfigError("--n applies to preset runs only")
        config = load_config(args.config)
        if args.seed is not None:
            config = config.resolve_seeds(seed_override=args.seed)
    else:
        config = load_preset(args.preset, n=args.n, seed=args.seed)
    manifest = run_experiment(config, out_dir=args.out)
    peaks = ", ".join(f"{p['freq_rad_per_step']:.4f}"
                      for p in manifest.spectrum["peaks"]) or "none"
    print(f"run {config.name}: n={config.n}, {config.steps} steps, "
          f"wrote {manifest.output_dir}")
    print(f"invariants passed, spectral peaks (rad/step): {peaks}")
    return EXIT_OK


def _cmd_acceptance(quick: bool) -> int:
    from .acceptance import run_all

    results = run_all(quick=quick)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_FAILED if failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "acceptance":
            return _cmd_acceptance(quick=args.quick)
        if args.command == "list-presets":
            for name in PRESET_NAMES:
                print(f"{name:12s} {PRESET_SUMMARIES[name]}")
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionCapError as exc:
        print(f"network too large: {exc}", file=sys.stderr)
        return EXIT_DIM_CAP
    except ChannelInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
