"""Command-line interface.

Subcommands: ``run`` (conformance campaign), ``sweep`` (constants against
their oracles), ``hunt`` (sharpness fuzzing), ``show`` (summarize a report
file).  Exit codes: 0 pass, 1 conformance failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .campaign import (
    CampaignConfig,
    load_config,
    run_campaign,
    summarize_report_file,
    validate_config,
)
from .errors import ConfigError, KantCheckError
from .hunt import hunt_sharpness
from .sweep import sweep_constants


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kantcheck",
        description="Verify Kantorovich-type operator inequality chains on "
                    "randomized Hermitian instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a conformance campaign")
    run.add_argument("--config", help="campaign config JSON; defaults are used when omitted")
    run.add_argument("--suite", action="append", dest="suites", metavar="NAME",
                     help="restrict to a suite (repeatable)")
    run.add_argument("--seed", type=int, help="override base_seed")
    run.add_argument("--tol", type=float, help="override rel_tol")
    run.add_argument("--samples", type=int, help="override samples_per_cell")
    run.add_argument("--out", help="override output_dir")

    sweep = sub.add_parser("sweep", help="closed-form constants vs the oracle")
    sweep.add_argument("--config", help="campaign config JSON for windows and grids")
    sweep.add_argument("--out", default="sweep_out", help="output directory")

    hunt = sub.add_parser("hunt", help="fuzz relaxed hypotheses for sharpness witnesses")
    hunt.add_argument("--config", help="campaign config JSON")
    hunt.add_argument("--samples", type=int, help="override fuzz_samples")
    hunt.add_argument("--seed", type=int, help="override base_seed")
    hunt.add_argument("--out", default="hunt_out", help="output directory")

    show = sub.add_parser("show", help="summarize a report file")
    show.add_argument("report", help="path to a reports/*.jsonl or summary.csv file")
    return parser


def _config_from_args(args) -> CampaignConfig:
    cfg = load_config(args.config) if args.config else CampaignConfig()
    if getattr(args, "suites", None):
        cfg.suites = list(args.suites)
    if getattr(args, "seed", None) is not None:
        cfg.base_seed = args.seed
    if getattr(args, "tol", None) is not None:
        cfg.rel_tol = args.tol
    if getattr(args, "samples", None) is not None:
        if args.command == "hunt":
            cfg.fuzz_samples = args.samples
        else:
            cfg.samples_per_cell = args.samples
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    return cfg


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    summary = run_campaign(cfg)
    print(f"config_hash {summary.config_hash}  output {summary.output_dir}")
    print(f"{'suite':<16} {'cells':>6} {'checks':>7} {'pass':>7} {'fail':>5} "
          f"{'tight':>6} {'worst_slack':>13} {'const_dev':>10}")
    for name, s in summary.suites.items():
        worst = "" if s.worst_slack == float("inf") else f"{s.worst_slack:.3e}"
        dev = "" if s.max_constant_dev is None else f"{s.max_constant_dev:.1e}"
        print(f"{name:<16} {s.cells:>6} {s.checks:>7} {s.passed:>7} {s.failed:>5} "
              f"{s.tight_links:>6} {worst:>13} {dev:>10}")
    print(f"total checks {summary.total_checks}, failures {summary.total_failures}, "
          f"wall {summary.wall_seconds:.1f}s")
    return summary.exit_code


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config) if args.config else CampaignConfig()
    validate_config(cfg)
    result = sweep_constants(cfg.windows, cfg.p_grid, cfg.q_grid, args.out)
    print(f"wrote {result.csv_path} ({len(result.rows)} rows) and "
          f"{len(result.svg_paths)} charts")
    print(f"max |closed_form - oracle| = {result.max_abs_diff:.3e}")
    return 0


def _cmd_hunt(args) -> int:
    cfg = _config_from_args(args)
    report = hunt_sharpness(cfg, args.out)
    print(f"{'mode':<36} {'samples':>8} {'violations':>11} {'max_violation':>14}")
    for name, mode in report["modes"].items():
        print(f"{name:<36} {mode['samples']:>8} {mode['violations']:>11} "
              f"{mode['max_violation']:>14.6g}")
    print(f"report written under {args.out}")
    return 0


def _cmd_show(args) -> int:
    print(summarize_report_file(args.report))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "hunt": _cmd_hunt, "show": _cmd_show}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KantCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
