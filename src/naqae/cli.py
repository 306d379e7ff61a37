"""Command-line front end.

Subcommands: ``simulate`` (sample a noisy device to a shot CSV), ``fit``
(MMSE noise-model fitting of a shot CSV), ``estimate`` (maximum-likelihood
amplitude estimation), ``schedule`` (noise-aware shot counts), and
``experiment`` (Monte Carlo RMSE comparison driven by a JSON config).

All randomness is controlled by explicit seeds, so any command rerun with
identical flags produces byte-identical output.  Integer arguments take
plain ASCII integers only, by the shot CSV's rule.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import experiments, io
from .device import PRESET_THETAS, SimulatedDevice, preset_device, run_depth_sweep
from .errors import NaqaeError
from .estimation import METHODS, ROUNDINGS, estimate_amplitude, shot_schedule
from .fitting import MODEL_KINDS, MODEL_SPELLINGS, _fit_kinds, fit_report, points_from_records
from .models import _NOISE_SPECS, Amplitude, DepolParams, noise_from_spec


_PLAIN = "expected plain integers in the signed 64-bit range"
# Most depths an 'a..b' range may hold; each is a list entry and an output row.
_MAX_DEPTHS = 2**20


def _parse_integer(text: str, what: str) -> int:
    """Parse one plain ASCII integer (``-?[0-9]+``, signed 64-bit)."""
    value = io._plain_integer(text)
    if value is None:
        raise ValueError(f"bad {what} {text!r}: {_PLAIN}")
    return value


def _parse_integers(text: str, what: str) -> list[int]:
    """Parse a comma-separated list of plain ASCII integers (``-?[0-9]+``, signed 64-bit)."""
    values = [io._plain_integer(part) for part in text.split(",")]
    if None in values:
        raise ValueError(f"bad {what} {text!r}: {_PLAIN}")
    return values


def _parse_depths(text: str) -> list[int]:
    """Parse 'a..b' (inclusive) or a comma-separated list of depths."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo_i, hi_i = io._plain_integer(lo), io._plain_integer(hi)
        if lo_i is None or hi_i is None:
            raise ValueError(f"bad depth range {text!r}: {_PLAIN}")
        if hi_i < lo_i:
            raise ValueError(f"bad depth range {text!r}: end before start")
        if hi_i - lo_i >= _MAX_DEPTHS:
            raise ValueError(f"bad depth range {text!r}: more than {_MAX_DEPTHS} depths")
        return list(range(lo_i, hi_i + 1))
    return _parse_integers(text, "depth list")


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to stdout, or to the file ``out`` with newlines untranslated.

    The only writer of the package's output.
    """
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_simulate(args) -> int:
    if (args.preset is None) == (args.theta is None):
        raise ValueError("give exactly one of --preset or --theta")
    noise = noise_from_spec(args.noise)
    seed = _parse_integer(args.seed, "seed")
    if args.preset is not None:
        device = preset_device(args.preset, model=noise, seed=seed)
    else:
        device = SimulatedDevice(amp=Amplitude(args.theta), model=noise, seed=seed)
    depths = _parse_depths(args.depths)
    shots = _parse_integers(args.shots, "shot list")
    if len(shots) == 1:
        shots = shots * len(depths)
    records = run_depth_sweep(device, depths, shots)
    _emit(io.write_shot_csv(records), args.out)
    return 0


def _cmd_fit(args) -> int:
    if args.table is not None and args.model != "all":
        raise ValueError("--table needs --model all")
    kinds = list(MODEL_KINDS) if args.model == "all" else [MODEL_SPELLINGS[args.model]]
    grouped = io.read_shot_csv(args.input)
    results = [fit for label in sorted(grouped)
               for fit in _fit_kinds(points_from_records(grouped[label]), kinds, label)]
    _emit(io.dump_json({"fits": [io.fit_result_dict(r) for r in results]}), args.out)
    if args.model == "all":
        table = io.report_csv(fit_report(results))
        # The table goes to --table, or to stdout when the JSON went to --out.
        if args.table is not None or args.out is not None:
            _emit(table, args.table)
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
    _emit(io.dump_json({"estimates": estimates}), args.out)
    return 0


def _cmd_schedule(args) -> int:
    schedule = shot_schedule(
        _parse_depths(args.depths),
        _parse_integer(args.base_shots, "base shot count"),
        args.k_sigma,
        args.rounding,
    )
    _emit(",".join(str(n) for n in schedule.shots) + "\n", None)
    if args.out is not None:
        _emit(io.dump_json(io.schedule_dict(schedule)), args.out)
    return 0


def _cmd_experiment(args) -> int:
    with io._open_utf8(args.config) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.config}: JSON nested too deeply to read") from None
        except json.JSONDecodeError as exc:
            where = f"line {exc.lineno} column {exc.colno}"
            raise ValueError(f"{args.config}: {where}: {exc.msg}") from None
    config = experiments.config_from_json(doc)
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
    p.add_argument("--seed", default="0")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit noise models to a shot CSV")
    p.add_argument("--input", required=True, help="shot CSV path")
    p.add_argument("--model", choices=[*MODEL_SPELLINGS, "all"], default="all")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.add_argument("--table", help="comparison-table CSV path (with --model all)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("estimate", help="maximum-likelihood amplitude estimation")
    p.add_argument("--input", required=True, help="shot CSV path")
    p.add_argument("--method", choices=METHODS, default="naive")
    p.add_argument("--p-coh", type=float, help="coherence survival for --method corrected")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("schedule", help="noise-aware shot schedule")
    p.add_argument("--depths", required=True, help="'a..b' inclusive or comma list")
    p.add_argument("--base-shots", required=True, dest="base_shots")
    p.add_argument("--k-sigma", type=float, required=True, dest="k_sigma")
    p.add_argument("--rounding", choices=ROUNDINGS, default="nearest")
    p.add_argument("--out", help="also write the schedule as JSON")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("experiment", help="Monte Carlo RMSE comparison")
    p.add_argument("--config", required=True, help="experiment config JSON path")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on first use, then kept for the process.

    Parsing leaves a parser unchanged, so one serves every call; building
    one costs about as much as a short ``estimate``.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (NaqaeError, ValueError, OSError) as exc:
        print(f"naqae: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
