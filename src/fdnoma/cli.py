"""Command line interface.

    fdnoma sweep --config scenario.ini --out sweep.csv [--plot-data sweep.dat]
                 [--mc] [--samples N] [--seed S] [--ktr N] [--strict]
    fdnoma point --config scenario.ini --scheme fd_noma --node uav2 --pt 20

Exit codes: 0 on success, 1 on config, validation or arithmetic errors,
2 when --strict is set and any sweep row failed to converge.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .outage import Node, Scheme, evaluate_outage
from .scenario import (
    SweepRow,
    emit_csv,
    emit_plot_data,
    format_row,
    load_config,
    run_sweep,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdnoma",
        description="Outage probability sweeps for FD/HD NOMA UAV links "
        "over Rician shadowed fading.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a transmit-power sweep")
    sweep.add_argument("--config", required=True, help="scenario config file")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--plot-data", help="optional gnuplot-style data path")
    sweep.add_argument("--mc", action="store_true", help="force Monte Carlo columns on")
    sweep.add_argument("--samples", type=int, help="override Monte Carlo sample count")
    sweep.add_argument("--seed", type=int, help="override Monte Carlo seed")
    sweep.add_argument("--ktr", type=int, help="override series truncation order")
    sweep.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 2 if any row fails to converge",
    )

    point = sub.add_parser("point", help="evaluate a single (scheme, node, power) point")
    point.add_argument("--config", required=True, help="scenario config file")
    point.add_argument(
        "--scheme", required=True, choices=[s.value for s in Scheme]
    )
    point.add_argument("--node", required=True, choices=[n.value for n in Node])
    point.add_argument("--pt", required=True, type=float, help="transmit power in dB")
    point.add_argument("--ktr", type=int, help="override series truncation order")
    return parser


def _run_sweep(args) -> int:
    cfg, spec = load_config(args.config)
    if args.ktr is not None:
        cfg = replace(cfg, k_tr=args.ktr)
    mc = spec.mc
    if args.samples is not None:
        mc = replace(mc, num_samples=args.samples)
    if args.seed is not None:
        mc = replace(mc, seed=args.seed)
    spec = replace(spec, mc=mc, with_mc=spec.with_mc or args.mc)
    rows = run_sweep(cfg, spec)
    emit_csv(rows, args.out)
    if args.plot_data:
        emit_plot_data(rows, args.plot_data)
    bad = [row for row in rows if not row.closed.converged]
    if args.strict and bad:
        print(
            f"error: {len(bad)} row(s) did not converge "
            f"(first: {bad[0].scheme.value} {bad[0].node.value} at {bad[0].pt_db:g} dB)",
            file=sys.stderr,
        )
        return 2
    return 0


def _run_point(args) -> int:
    cfg, _ = load_config(args.config)
    cfg = replace(cfg, p_t=args.pt)
    if args.ktr is not None:
        cfg = replace(cfg, k_tr=args.ktr)
    scheme, node = Scheme(args.scheme), Node(args.node)
    print(format_row(SweepRow(scheme, node, args.pt, evaluate_outage(cfg, scheme, node))))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _run_sweep(args)
        return _run_point(args)
    except (ValueError, ArithmeticError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
