"""Command-line interface.

Subcommands:

* ``simulate``    one trial, printing a labeling diff summary
* ``sweep``       a parameter grid, written as CSV or JSON
* ``phase``       a sweep repeated over a list of budget scales
* ``lemma-check`` exact vs Monte Carlo tail probabilities plus the
                  exponent fit
* ``mle-check``   agreement of vote-based recovery with brute-force
                  maximum likelihood on tiny instances

Each command first validates its arguments and configuration, then
runs. Exit codes: 0 success; 2 invalid arguments or configuration,
found before anything is computed (the message is printed); 3 an error
raised while computing (the traceback is printed).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import Callable

import numpy as np

from .core import NoiseParams
from .harness import (
    ConfigError,
    SweepConfig,
    check_budget_scale,
    check_lemma_grid,
    check_mle_comparison,
    derive_trial_seed,
    lemma_report_to_csv,
    lemma_report_to_json,
    lemma_report_to_text,
    parse_config_file,
    records_to_csv,
    records_to_json,
    run_lemma_check,
    run_mle_comparison,
    run_sweep,
    run_trial_detailed,
)
from .analysis import TailSpec
from .recovery import SeedConfig, _seed_size


def _comma_list(text: str, convert: Callable, kind: str) -> tuple:
    values = []
    for item in (v.strip() for v in text.split(",")):
        if not item:
            continue
        try:
            values.append(convert(item))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid value {text!r}: expected a comma list of {kind}, "
                f"got {item!r}") from None
    return tuple(values)


def _int_list(text: str) -> tuple[int, ...]:
    return _comma_list(text, int, "integers")


def _float_list(text: str) -> tuple[float, ...]:
    return _comma_list(text, float, "numbers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycalign",
        description="Recover cyclic labels from noisy pairwise-difference queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trial and print a summary")
    sim.add_argument("--n", type=int, required=True, help="number of nodes")
    sim.add_argument("--k", type=int, required=True, help="number of labels")
    sim.add_argument("--delta", type=float, required=True, help="noise bias")
    sim.add_argument("--constant-c", type=float, default=40.0,
                     help="seed-size constant (default 40)")
    sim.add_argument("--seed", type=int, default=0, help="trial seed")
    sim.add_argument("--budget-scale", type=float, default=None,
                     help="multiplier on the seed size")
    sim.add_argument("--noiseless", action="store_true",
                     help="force all noise draws to zero (test mode)")

    for name, help_text in (("sweep", "run a parameter grid"),
                            ("phase", "run a grid across budget scales")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key=value config file (flags override)")
        sp.add_argument("--n", type=_int_list, help="comma list of node counts")
        sp.add_argument("--k", type=_int_list, help="comma list of label counts")
        sp.add_argument("--delta", type=_float_list, help="comma list of biases")
        sp.add_argument("--constant-c", type=_float_list,
                        help="comma list of seed-size constants (default 40)")
        sp.add_argument("--trials", type=int, help="trials per cell (default 100)")
        sp.add_argument("--seed", type=int, help="base seed (default 0)")
        if name == "sweep":
            sp.add_argument("--budget-scale", type=float, default=None,
                            help="multiplier on the seed size")
        else:
            sp.add_argument("--budget-scale", type=_float_list,
                            default=(1.0, 0.5, 0.2, 0.1, 0.05, 0.01),
                            help="comma list of seed-size multipliers")
        sp.add_argument("--noiseless", action="store_true",
                        help="force all noise draws to zero (test mode)")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--no-timing", action="store_true",
                        help="zero the wall-time column for byte-identical reruns")

    lem = sub.add_parser("lemma-check",
                         help="tail probabilities: exact vs Monte Carlo plus fit")
    lem.add_argument("--n", type=_int_list, required=True,
                     help="comma list of vote counts")
    lem.add_argument("--k", type=int, required=True, help="number of labels")
    lem.add_argument("--delta", type=float, required=True, help="noise bias")
    lem.add_argument("--trials", type=int, default=10**5,
                     help="Monte Carlo trials per grid point")
    lem.add_argument("--seed", type=int, default=0, help="base seed")
    lem.add_argument("--out", help="output path (default: stdout table)")
    lem.add_argument("--format", choices=("csv", "json"), default="csv")

    mle = sub.add_parser("mle-check",
                         help="agreement with brute-force maximum likelihood")
    mle.add_argument("--n", type=int, required=True, help="number of nodes (<= 8)")
    mle.add_argument("--k", type=int, required=True, help="number of labels (<= 3)")
    mle.add_argument("--delta", type=float, required=True, help="noise bias")
    mle.add_argument("--trials", type=int, default=200)
    mle.add_argument("--seed", type=int, default=0, help="base seed")
    mle.add_argument("--noiseless", action="store_true")

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# A command validates its arguments (raising ValueError or OSError) and
# returns the run, which main calls only once validation has passed.
Run = Callable[[], int]


def _cmd_simulate(args) -> Run:
    params = NoiseParams(args.k, args.delta)
    cfg = SeedConfig(constant_c=args.constant_c)
    check_budget_scale(args.budget_scale)
    _seed_size(args.n, params, cfg)  # rejects n < 4; the run warns

    def run() -> int:
        trial_seed = derive_trial_seed(args.seed, ("simulate", args.n, args.k,
                                                   args.delta, args.constant_c), 0)
        truth, result, outcome = run_trial_detailed(
            args.n, params, cfg, trial_seed,
            budget_scale=args.budget_scale, noiseless=args.noiseless)
        mismatch = (result.labeling.labels - truth.labels) % args.k
        shift_counts = np.bincount(mismatch, minlength=args.k)
        best_shift = int(shift_counts.argmax())
        wrong = np.nonzero(mismatch != best_shift)[0]
        print(f"n={args.n} k={args.k} delta={args.delta:g} "
              f"constant_c={args.constant_c:g} noiseless={args.noiseless}")
        print(f"seed size      : {len(result.seed)}")
        print(f"query count    : {result.query_count}")
        print(f"recovered      : {'yes' if outcome.success else 'no'} "
              f"(hamming after best shift = {outcome.hamming})")
        print(f"aligning shift : {best_shift}")
        if wrong.size:
            head = ", ".join(
                f"{v}:{int(result.labeling.labels[v])}!="
                f"{(int(truth.labels[v]) + best_shift) % args.k}"
                for v in wrong[:10].tolist())
            more = "" if wrong.size <= 10 else f" (+{wrong.size - 10} more)"
            print(f"mismatched     : {head}{more}")
        margins = result.per_node_margin
        print(f"vote margins   : min={int(margins.min())} "
              f"median={float(np.median(margins)):g} max={int(margins.max())}")
        return 0
    return run


def _sweep_config_from_args(args) -> dict:
    base = {}
    if args.config:
        base = parse_config_file(args.config)
    overrides = {
        "n_values": args.n, "k_values": args.k, "delta_values": args.delta,
        "constant_c_values": getattr(args, "constant_c", None),
        "trials": args.trials, "base_seed": args.seed,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    for key in ("n_values", "k_values", "delta_values"):
        if key not in base:
            raise ConfigError(f"missing {key}: pass the flag or a config file")
    base.setdefault("constant_c_values", (40.0,))
    base.setdefault("trials", 100)
    base.setdefault("base_seed", 0)
    return base


def _run_sweeps(args, configs: list[SweepConfig]) -> Run:
    def run() -> int:
        records = []
        for config in configs:
            records.extend(run_sweep(config, noiseless=args.noiseless))
        render = records_to_csv if args.format == "csv" else records_to_json
        _emit(render(records, include_timing=not args.no_timing), args.out)
        return 0
    return run


def _cmd_sweep(args) -> Run:
    base = _sweep_config_from_args(args)
    if args.budget_scale is not None:
        base["budget_scale"] = args.budget_scale
    return _run_sweeps(args, [SweepConfig(**base)])


def _cmd_phase(args) -> Run:
    base = _sweep_config_from_args(args)
    if not args.budget_scale:
        raise ConfigError("budget_scale must be nonempty")
    return _run_sweeps(args, [SweepConfig(**base, budget_scale=scale)
                              for scale in args.budget_scale])


def _cmd_lemma_check(args) -> Run:
    params = NoiseParams(args.k, args.delta)
    specs = [TailSpec(v, params) for v in args.n]
    check_lemma_grid(specs, args.trials)

    def run() -> int:
        report = run_lemma_check(specs, args.trials, base_seed=args.seed)
        if args.out is not None:
            render = lemma_report_to_csv if args.format == "csv" else lemma_report_to_json
            _emit(render(report), args.out)
        sys.stdout.write(lemma_report_to_text(report))
        return 0
    return run


def _cmd_mle_check(args) -> Run:
    params = NoiseParams(args.k, args.delta)
    check_mle_comparison(args.n, params, args.trials)
    s = _seed_size(args.n, params, SeedConfig())  # rejects n < 4; the run warns

    def run() -> int:
        report = run_mle_comparison(args.n, params, args.trials,
                                    base_seed=args.seed, noiseless=args.noiseless)
        print(f"n={args.n} k={args.k} delta={args.delta:g} trials={report.trials}")
        print(f"seed size          : {s}")
        print(f"agreement          : {report.agreements}/{report.trials} "
              f"({report.agreement_rate:.3f})")
        print(f"non-unique ML sets : {report.nonunique_mle}/{report.trials}")
        return 0
    return run


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "phase": _cmd_phase,
    "lemma-check": _cmd_lemma_check,
    "mle-check": _cmd_mle_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run()
    except Exception:
        traceback.print_exc()
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
