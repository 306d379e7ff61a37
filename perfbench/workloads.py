"""The three benchmark workloads and the oracles that check their outputs.

A workload writes its inputs from the seed, lists the CLI calls of one pass,
and checks the bytes one pass wrote.  ``scaled`` says whether its pass times
are scaled by the speed probe run between its calls (see ``speed.py``).  The oracles here import nothing from
naqae: they recompute what the program should print from the model
definitions in the paper.

``check`` returns an :class:`Outcome`: ``checked`` items went through the
oracle and ``missed`` of them failed it; ``problems`` lists outputs that are
malformed or break an exact identity, which makes the run incorrect;
``notes`` are findings that are printed but not counted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Probabilities are kept this far from {0, 1} inside logarithms, as the
# likelihood in the paper's estimator is.
LOG_GUARD = 1e-12


@dataclass
class Outcome:
    checked: int = 0
    missed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Call:
    """One CLI call, the files it writes, and the name its stdout is kept under."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    stdout_name: str | None = None


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


# ---------------------------------------------------------------------------
# mc_criterion9: the four-setting Monte Carlo comparison.

class McCriterion9:
    """``naqae schedule`` then ``naqae experiment`` on the criterion-9 config."""

    name = "mc_criterion9"
    # Nearly all of a pass is one two-thread ``experiment`` call, which the
    # single-thread speed probe cannot interleave with; probe slices run
    # after it did not track its time, so its passes are timed wall-clock.
    scaled = False
    SETTINGS = ("noisy_a", "noisy_b", "noise_aware", "noiseless")
    K_SIGMA = 0.055
    BASE_SHOTS = 20

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.max_depth = 4 if tiny else 12
        self.replications = 2 if tiny else 50
        self.items = len(self.SETTINGS) * self.replications * (self.max_depth + 1)

    def prepare(self, work: Path) -> None:
        config = {
            "device": {
                "preset": "A1",
                "noise": {"kind": "gaussian", "k_mu": 0.0, "k_sigma": self.K_SIGMA},
            },
            "max_depth": self.max_depth,
            "n_shot_base": self.BASE_SHOTS,
            "replications": self.replications,
            "seed": self.seed,
        }
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        self.calls = [
            Call(
                ("schedule", "--depths", f"0..{self.max_depth}", "--base-shots",
                 str(self.BASE_SHOTS), "--k-sigma", str(self.K_SIGMA)),
                stdout_name="schedule.txt",
            ),
            Call(("experiment", "--config", str(work / "config.json"),
                  "--out", str(work / "curves.csv")), outputs=("curves.csv",)),
        ]

    def check(self, outputs: dict[str, bytes]) -> Outcome:
        out = Outcome()
        # N_m = (4 k_sigma m + 1) N_base, halves rounded up.
        expected = ",".join(
            str(math.floor((4.0 * self.K_SIGMA * m + 1.0) * self.BASE_SHOTS + 0.5))
            for m in range(self.max_depth + 1)
        )
        if outputs["schedule.txt"].decode("utf-8") != expected + "\n":
            out.problems.append(f"schedule: expected {expected}")

        rows = _csv_rows(outputs["curves.csv"])
        rmse: dict[str, dict[float, float]] = {s: {} for s in self.SETTINGS}
        if rows[0] != ["setting", "x_kind", "x", "rmse"]:
            out.problems.append(f"curves.csv: header {rows[0]}")
            return out
        for setting, x_kind, x, value in rows[1:]:
            if float(value) < 0.0 or not math.isfinite(float(value)):
                out.problems.append(f"curves.csv: rmse {value} for {setting}")
            if x_kind == "depth":
                rmse[setting][float(x)] = float(value)
        if len(rows) != 1 + 2 * len(self.SETTINGS) * (self.max_depth + 1) or any(
            len(by_depth) != self.max_depth + 1 for by_depth in rmse.values()
        ):
            out.problems.append(f"curves.csv: {len(rows) - 1} rows")
            return out
        # The paper's claim at the deepest prefix is noise_aware < noisy_b <
        # noisy_a.  Both corrected settings beat the uncorrected one by a
        # factor of three or more on every seed tried, so each of those two
        # pairs is an oracle item.  noise_aware < noisy_b fails on about one
        # seed in ten at 50 replications, because one replication that lands
        # in a wrong likelihood mode dominates an RMSE; that pair is reported
        # but not counted, or the miss rate would swing from seed to seed.
        final = {s: rmse[s][float(self.max_depth)] for s in self.SETTINGS}
        for better in ("noisy_b", "noise_aware"):
            out.checked += 1
            out.missed += not final[better] < final["noisy_a"]
        order = final["noise_aware"] < final["noisy_b"] < final["noisy_a"]
        out.notes.append(
            f"depth-{self.max_depth} order noise_aware < noisy_b < noisy_a "
            f"{'holds' if order else 'fails'}: "
            + ", ".join(f"{s} {final[s]:.5g}" for s in self.SETTINGS)
        )
        return out


# ---------------------------------------------------------------------------
# deep_mlae: estimation over the exponential schedule m = 0, 1, 2, 4, ..., 4096.

def correct_counts(ones, shots, ms, p_coh):
    """Depolarizing correction (ones - N (1 - p^m) / 2) / p^m, clamped to [0, N]."""
    coherent = p_coh ** np.asarray(ms, dtype=float)
    raw = (np.asarray(ones, dtype=float) - shots * 0.5 * (1.0 - coherent)) / coherent
    return np.clip(raw, 0.0, shots), int(np.count_nonzero((raw < 0.0) | (raw > shots)))


def log_likelihood(theta: float, ks, counts, shots) -> float:
    """Binomial log-likelihood of counts at angle theta, p_k = sin^2(k theta)."""
    p = np.clip(np.sin(ks * theta) ** 2, LOG_GUARD, 1.0 - LOG_GUARD)
    return float(counts @ np.log(p) + (shots - counts) @ np.log1p(-p))


def _golden_max(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def dense_mle(ks, counts_by_dataset, shots, points_per_fringe: int = 32):
    """Global maximum-likelihood angle in [0, pi/2] for each dataset.

    The grid puts ``points_per_fringe`` points in every period pi/k of the
    deepest term, so each likelihood mode spans several points.  Every grid
    local maximum within ``margin`` of the grid maximum is refined by golden
    section; ``margin`` is four times the most the log-likelihood can drop
    over half a grid step near a peak, 0.5 I (h/2)^2 with I the Fisher
    information sum 4 N k^2.

    Returns a list of (theta, log-likelihood) pairs.
    """
    ks = np.asarray(ks, dtype=float)
    n = int(points_per_fringe * ks.max() / 2.0) + 1
    thetas = np.linspace(0.0, math.pi / 2.0, n)
    h = thetas[1] - thetas[0]
    margin = 4.0 * 0.5 * float(np.sum(4.0 * shots * ks**2)) * (h / 2.0) ** 2
    p = np.clip(np.sin(np.multiply.outer(ks, thetas)) ** 2, LOG_GUARD, 1.0 - LOG_GUARD)
    log_p, log_q = np.log(p), np.log1p(-p)
    del p
    results = []
    for counts in counts_by_dataset:
        grid = counts @ log_p + (shots - counts) @ log_q
        peak = np.ones(n, dtype=bool)
        peak[1:] &= grid[1:] >= grid[:-1]
        peak[:-1] &= grid[:-1] >= grid[1:]
        candidates = np.flatnonzero(peak & (grid >= grid.max() - margin))

        def f(theta: float) -> float:
            return log_likelihood(theta, ks, counts, shots)

        best = None
        for i in candidates:
            lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, n - 1)]
            theta = _golden_max(f, float(lo), float(hi))
            value = f(theta)
            if best is None or value > best[1]:
                best = (theta, value)
        results.append(best)
    return results


class DeepMlae:
    """200 single-dataset ``naqae estimate`` calls on 14 exponential depths."""

    name = "deep_mlae"
    scaled = True
    THETA = 0.721
    SHOTS = 100
    K_SIGMA = 1e-4
    DEPTHS = (0,) + tuple(2**j for j in range(13))

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.datasets = 4 if tiny else 200
        self.items = self.datasets
        # Zero-mean Gaussian noise is depolarizing with p = exp(-2 k_sigma).
        self.p_coh = math.exp(-2.0 * self.K_SIGMA)

    def prepare(self, work: Path) -> None:
        rng = np.random.default_rng([self.seed, 1904_10246])
        ms = np.array(self.DEPTHS, dtype=float)
        clean = np.sin((2.0 * ms + 1.0) * self.THETA) ** 2
        decay = np.exp(-2.0 * self.K_SIGMA * ms)
        noisy = decay * clean + 0.5 * (1.0 - decay)
        self.ones = []
        self.calls = []
        for i in range(self.datasets):
            corrected = i % 2 == 1
            ones = rng.binomial(self.SHOTS, noisy if corrected else clean)
            self.ones.append(ones)
            label = f"d{i:03d}"
            path = work / f"{label}.csv"
            lines = ["m,shots,ones,label"] + [
                f"{m},{self.SHOTS},{k},{label}" for m, k in zip(self.DEPTHS, ones)
            ]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            method = (
                ("--method", "corrected", "--p-coh", repr(self.p_coh))
                if corrected
                else ("--method", "naive")
            )
            out = f"{label}.json"
            self.calls.append(Call(
                ("estimate", "--input", str(path), *method, "--out", str(work / out)),
                outputs=(out,),
            ))

    def check(self, outputs: dict[str, bytes]) -> Outcome:
        out = Outcome()
        ks = 2.0 * np.array(self.DEPTHS, dtype=float) + 1.0
        shots = np.full(len(self.DEPTHS), float(self.SHOTS))
        counts, clamped = [], []
        for i, ones in enumerate(self.ones):
            if i % 2 == 1:
                value, n_clamped = correct_counts(ones, self.SHOTS, self.DEPTHS, self.p_coh)
            else:
                value, n_clamped = np.asarray(ones, dtype=float), 0
            counts.append(value)
            clamped.append(n_clamped)
        optima = dense_mle(ks, counts, shots)
        for i, call in enumerate(self.calls):
            name = call.outputs[0]
            (est,) = json.loads(outputs[name])["estimates"]
            theta_hat = est["theta_hat"]
            if not (est["label"] == name[:-5] and 0.0 <= theta_hat <= math.pi / 2.0):
                out.problems.append(f"{name}: label or theta_hat out of range")
                continue
            if est["n_clamped"] != clamped[i]:
                out.problems.append(f"{name}: n_clamped {est['n_clamped']} != {clamped[i]}")
            value = log_likelihood(theta_hat, ks, counts[i], shots)
            if not math.isclose(est["log_likelihood"], value, rel_tol=1e-8, abs_tol=1e-8):
                out.problems.append(f"{name}: log_likelihood {est['log_likelihood']} != {value}")
            theta_star, best = optima[i]
            tol = 1e-8 * max(1.0, abs(best))
            if value > best + tol:
                out.problems.append(f"{name}: beats the dense-grid maximum {theta_star}")
            out.checked += 1
            if value < best - tol:
                out.missed += 1
        return out


# ---------------------------------------------------------------------------
# characterize: simulate then fit, for 20 devices.

PRESETS = {"A1": math.pi / 6, "A2": math.pi / 3, "A3": 0.5, "A4": 1.0, "A5": math.pi / 6}
# noise spec -> (k_mu, k_sigma) of the equivalent Gaussian model.
NOISES = {
    "gaussian:0,0.02": (0.0, 0.02),
    "gaussian:0.05,0.02": (0.05, 0.02),
    "depol:0.96": (0.0, -math.log(0.96) / 2.0),
    "none": (0.0, 0.0),
}
# How close the gaussian fit must land to the device's (theta, k_mu, k_sigma).
# At 262144 shots on depths 0..40 the fit errors are about 5e-4, 1e-3 and
# 3e-5 (theta and k_mu trade off along the well-determined phase slope
# 2 theta + k_mu), so these allow about ten of those; a fit in a wrong mode
# misses by far more.
FIT_TOLERANCE = {"theta_hat": 5e-3, "k_mu": 1e-2, "k_sigma": 1e-3}


def p1_gaussian(theta: float, ms, k_mu: float, k_sigma: float):
    """p(1) = (1 - exp(-2 k_sigma m) cos(2 ((2m+1) theta + k_mu m))) / 2."""
    ms = np.asarray(ms, dtype=float)
    phase = (2.0 * ms + 1.0) * theta + k_mu * ms
    return 0.5 * (1.0 - np.exp(-2.0 * k_sigma * ms) * np.cos(2.0 * phase))


class Characterize:
    """``naqae simulate`` then ``naqae fit --model all`` for each device."""

    name = "characterize"
    scaled = True

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.max_depth = 10 if tiny else 40
        self.shots = 4096 if tiny else 262144
        devices = [(p, n) for p in PRESETS for n in NOISES]
        self.devices = devices[1:3] if tiny else devices
        self.items = len(self.devices)

    def prepare(self, work: Path) -> None:
        self.calls = []
        for i, (preset, noise) in enumerate(self.devices):
            # A1 and A5 share theta, so every device needs its own seed.
            state = np.random.SeedSequence([self.seed, i]).generate_state(1, np.uint64)
            device_seed = int(state[0] >> 1)
            stem = f"dev{i:02d}"
            shots, fits, table = (f"{stem}.{ext}" for ext in ("csv", "json", "table.csv"))
            self.calls.append(Call((
                "simulate", "--preset", preset, "--noise", noise, "--depths",
                f"0..{self.max_depth}", "--shots", str(self.shots), "--seed",
                str(device_seed), "--out", str(work / shots),
            ), outputs=(shots,)))
            self.calls.append(Call(
                ("fit", "--input", str(work / shots), "--model", "all",
                 "--out", str(work / fits), "--table", str(work / table)),
                outputs=(fits, table),
            ))

    def check(self, outputs: dict[str, bytes]) -> Outcome:
        out = Outcome()
        for i, (preset, noise) in enumerate(self.devices):
            stem = f"dev{i:02d}"
            theta = PRESETS[preset]
            k_mu, k_sigma = NOISES[noise]
            rows = _csv_rows(outputs[f"{stem}.csv"])
            tallies = np.array([[int(v) for v in row] for row in rows[1:]], dtype=float)
            if rows[0] != ["m", "shots", "ones"] or tallies.shape != (self.max_depth + 1, 3) \
                    or list(tallies[:, 0]) != list(range(self.max_depth + 1)) \
                    or np.any(tallies[:, 1] != self.shots):
                out.problems.append(f"{stem}.csv: unexpected tallies")
                continue
            fits = {f["model"]: f for f in json.loads(outputs[f"{stem}.json"])["fits"]}
            table = _csv_rows(outputs[f"{stem}.table.csv"])
            if sorted(fits) != ["depolarizing", "gaussian", "gaussian_zero_mean"] or len(table) != 2 \
                    or not all(math.isfinite(f["r_squared"]) for f in fits.values()):
                out.problems.append(f"{stem}: unexpected fits or table")
                continue
            # Every tally within 6 sigma of the device's outcome probability.
            p1 = p1_gaussian(theta, tallies[:, 0], k_mu, k_sigma)
            sigma = np.sqrt(np.maximum(p1 * (1.0 - p1), 1e-12) / self.shots)
            sampled_ok = bool(np.all(np.abs(tallies[:, 2] / self.shots - p1) <= 6.0 * sigma + 1e-12))
            g = fits["gaussian"]
            truth = {"theta_hat": theta, "k_mu": k_mu, "k_sigma": k_sigma}
            recovered = all(abs(g[k] - truth[k]) <= tol for k, tol in FIT_TOLERANCE.items())
            ranked = k_mu == 0.0 or g["r_squared"] > max(
                fits["gaussian_zero_mean"]["r_squared"], fits["depolarizing"]["r_squared"]
            )
            out.checked += 1
            if not (sampled_ok and recovered and ranked):
                out.missed += 1
        return out


WORKLOADS = {w.name: w for w in (McCriterion9, DeepMlae, Characterize)}
