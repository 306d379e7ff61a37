"""Command-line front end.

Subcommands: ``simulate`` (sample a noisy device to a shot CSV), ``fit``
(MMSE noise-model fitting of a shot CSV), ``estimate`` (maximum-likelihood
amplitude estimation), ``schedule`` (noise-aware shot counts), and
``experiment`` (Monte Carlo RMSE comparison driven by a JSON config).

All randomness is controlled by explicit seeds, so any command rerun with
identical flags produces byte-identical output.  The experiment command
validates the environment variable ``NAQAE_THREADS`` (a nonnegative
integer), but the value has no effect: the experiment runs serially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments, io
from .device import PRESET_THETAS, SimulatedDevice, preset_device, run_depth_sweep
from .errors import NaqaeError
from .estimation import estimate_amplitude, shot_schedule
from .fitting import MODEL_KINDS, fit_model, fit_report, points_from_records
from .models import _NOISE_SPECS, Amplitude, DepolParams, noise_from_spec


def _parse_depths(text: str) -> list[int]:
    """Parse 'a..b' (inclusive) or a comma-separated list of depths."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad depth range {text!r}") from None
        if hi_i < lo_i:
            raise ValueError(f"bad depth range {text!r}: end before start")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"bad depth list {text!r}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _check_threads_env() -> None:
    """Reject a malformed ``NAQAE_THREADS``; a valid value has no effect."""
    raw = os.environ.get("NAQAE_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"NAQAE_THREADS must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"NAQAE_THREADS must be >= 0, got {value}")


def _cmd_simulate(args) -> int:
    if (args.preset is None) == (args.theta is None):
        raise ValueError("give exactly one of --preset or --theta")
    noise = noise_from_spec(args.noise)
    if args.preset is not None:
        device = preset_device(args.preset, model=noise, seed=args.seed)
    else:
        device = SimulatedDevice(amp=Amplitude(args.theta), model=noise, seed=args.seed)
    depths = _parse_depths(args.depths)
    shots = [int(s) for s in args.shots.split(",")]
    if len(shots) == 1:
        shots = shots * len(depths)
    records = run_depth_sweep(device, depths, shots)
    _emit(io.write_shot_csv(None, records), args.out)
    return 0


def _cmd_fit(args) -> int:
    if args.table is not None and args.model != "all":
        raise ValueError("--table needs --model all")
    kind_map = {"gaussian": "gaussian", "zero-mean": "gaussian_zero_mean", "depol": "depolarizing"}
    kinds = list(MODEL_KINDS) if args.model == "all" else [kind_map[args.model]]
    grouped = io.read_shot_csv(args.input)
    results = []
    for label in sorted(grouped):
        points = points_from_records(grouped[label])
        for kind in kinds:
            results.append(fit_model(points, kind, label=label))
    payload = {"fits": [io.fit_result_dict(r) for r in results]}
    text = io.dump_json(payload, args.out)
    if args.out is None:
        sys.stdout.write(text)
    if args.model == "all":
        table = io.report_csv(fit_report(results))
        if args.table is not None:
            _emit(table, args.table)
        elif args.out is not None:
            sys.stdout.write(table)
    return 0


def _cmd_estimate(args) -> int:
    depol = None
    if args.method == "corrected":
        if args.p_coh is None:
            raise ValueError("--method corrected requires --p-coh")
        depol = DepolParams(p_coh_tilde=args.p_coh)
    elif args.p_coh is not None:
        raise ValueError("--p-coh needs --method corrected")
    grouped = io.read_shot_csv(args.input)
    estimates = [
        io.estimate_dict(
            estimate_amplitude(grouped[label], method=args.method, depol=depol),
            label=label,
        )
        for label in sorted(grouped)
    ]
    text = io.dump_json({"estimates": estimates}, args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def _cmd_schedule(args) -> int:
    schedule = shot_schedule(
        _parse_depths(args.depths), args.base_shots, args.k_sigma, args.rounding
    )
    sys.stdout.write(",".join(str(n) for n in schedule.shots) + "\n")
    if args.out is not None:
        io.dump_json(io.schedule_dict(schedule), args.out)
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    config = experiments.config_from_json(doc)
    _check_threads_env()
    curves = experiments.run_monte_carlo(config)
    _emit(io.curves_csv(curves), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naqae",
        description="Noise-aware quantum amplitude estimation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a simulated device to a shot CSV")
    p.add_argument("--preset", choices=sorted(PRESET_THETAS))
    p.add_argument("--theta", type=float, help="true angle in radians (alternative to --preset)")
    p.add_argument("--noise", default="none", help=_NOISE_SPECS)
    p.add_argument("--depths", required=True, help="'a..b' inclusive or comma list")
    p.add_argument("--shots", required=True, help="shots per depth (single value or comma list)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit noise models to a shot CSV")
    p.add_argument("--input", required=True, help="shot CSV path")
    p.add_argument("--model", choices=["gaussian", "zero-mean", "depol", "all"], default="all")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.add_argument("--table", help="comparison-table CSV path (with --model all)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("estimate", help="maximum-likelihood amplitude estimation")
    p.add_argument("--input", required=True, help="shot CSV path")
    p.add_argument("--method", choices=["naive", "corrected"], default="naive")
    p.add_argument("--p-coh", type=float, help="coherence survival for --method corrected")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("schedule", help="noise-aware shot schedule")
    p.add_argument("--depths", required=True, help="'a..b' inclusive or comma list")
    p.add_argument("--base-shots", type=int, required=True, dest="base_shots")
    p.add_argument("--k-sigma", type=float, required=True, dest="k_sigma")
    p.add_argument("--rounding", choices=["nearest", "up"], default="nearest")
    p.add_argument("--out", help="also write the schedule as JSON")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("experiment", help="Monte Carlo RMSE comparison")
    p.add_argument("--config", required=True, help="experiment config JSON path")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NaqaeError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"naqae: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
