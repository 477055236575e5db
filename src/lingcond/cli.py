"""Command-line interface.

Subcommands: generate, sample, fit, lattice, grid, sample-complexity; a
threshold sweep is a grid of one cell with several taus. Exit codes: 0
success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .exceptions import NUMERICAL_FAILURES
from .graphs import DirectedGraph
from .harness import (
    GridConfig,
    SampleComplexityConfig,
    run_grid,
    run_sample_complexity,
    summarize_grid,
)
from .lattice import valid_dag_coarsenings
from .recover import DEFAULT_ENUM_CAP, DEFAULT_TAU, MODES, recover_condensation
from .scm import (
    DEFAULT_WEIGHT_HIGH,
    DEFAULT_WEIGHT_LOW,
    NOISE_FAMILIES,
    REGIME_TARGETS,
    ScmSpec,
    generate_scm,
    load_samples_csv,
    sample,
    save_samples_csv,
)


# study subcommand: (help, config class, runner, summary of the runner's result)
_STUDIES = {
    "grid": ("run an experiment grid or tau sweep", GridConfig, run_grid, summarize_grid),
    "sample-complexity": ("fixed-SCM recovery-rate study", SampleComplexityConfig,
                          run_sample_complexity, lambda result: result[1]),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through 1 instead
    def error(self, message):
        raise _UsageError(message)


@functools.cache  # about 2 ms to build; every call parses into a fresh namespace
def _build_parser() -> _Parser:
    parser = _Parser(prog="lingcond", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random cyclic SCM (JSON out)")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--kappa", type=int, required=True)
    gen.add_argument("--lambda", dest="lam", type=float, required=True)
    gen.add_argument("--weight-low", type=float, default=DEFAULT_WEIGHT_LOW)
    gen.add_argument("--weight-high", type=float, default=DEFAULT_WEIGHT_HIGH)
    gen.add_argument("--regime", choices=tuple(REGIME_TARGETS), default="stable")
    gen.add_argument("--noise", choices=NOISE_FAMILIES, default="laplace")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    smp = sub.add_parser("sample", help="draw observations from an SCM (CSV out)")
    smp.add_argument("--scm", required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--out", required=True)

    fit = sub.add_parser("fit", help="recover a condensation from samples (JSON out)")
    fit.add_argument("--data", required=True)
    fit.add_argument("--tau", type=float, default=DEFAULT_TAU)
    fit.add_argument("--mode", choices=MODES, default="hungarian")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    fit.add_argument("--out")

    lat = sub.add_parser("lattice", help="exhaustive DAG-coarsening report (JSON)")
    lat.add_argument("--graph", required=True)
    lat.add_argument("--out")

    for name, (helptext, *_) in _STUDIES.items():
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", required=True)
        cmd.add_argument("--summary")

    return parser


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _emit(payload: dict, out) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dispatch(args) -> int:
    if args.command == "generate":
        scm = generate_scm(
            args.d, args.kappa, args.lam, args.weight_low, args.weight_high,
            args.regime, seed=args.seed, noise_family=args.noise,
        )
        _emit(scm.to_json_dict(), args.out)
        return 0

    if args.command == "sample":
        scm = ScmSpec.from_json_dict(_load_json(args.scm))
        save_samples_csv(args.out, sample(scm, args.n, seed=args.seed))
        return 0

    if args.command == "fit":
        x = load_samples_csv(args.data)
        result = recover_condensation(
            x, tau=args.tau, seed=args.seed, mode=args.mode, enum_cap=args.enum_cap,
        )
        _emit(result.to_json_dict(), args.out)
        return 0

    if args.command == "lattice":
        graph = DirectedGraph.from_json_dict(_load_json(args.graph))
        _emit(valid_dag_coarsenings(graph).to_json_dict(), args.out)
        return 0

    if args.command in _STUDIES:
        _, config_cls, run, summarize = _STUDIES[args.command]
        cfg = config_cls.from_json_dict(_load_json(args.config))
        result = run(cfg, out_path=args.out)
        if args.summary:
            _emit(summarize(result), args.summary)
        return 0

    raise _UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # first: LinAlgError subclasses ValueError, which would otherwise claim it
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
