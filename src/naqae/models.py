"""Outcome-probability models for amplitude estimation under circuit noise.

Implements the Gaussian rotation-noise model in closed form, an independent
Gauss-Hermite quadrature evaluation of the same probability, the depolarizing
model, and the exact zero-mean mapping between the two.  Each noise kind is
one row of ``_NOISE_KINDS``: its class, CLI spelling and JSON fields.

The physical picture: after ``m`` Grover iterations applied to a state with
amplitude angle ``theta``, the measured qubit is 1 with probability
``sin^2((2m+1) theta)`` in the noiseless case.  Under accumulated rotation
noise the effective angle picks up a Gaussian perturbation with mean
``k_mu * m`` and variance ``k_sigma * m``, which integrates out to

    p(0) - p(1) = exp(-2 k_sigma m) * cos(2 ((2m+1) theta + k_mu m))

All public operations are pure functions and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import InternalConsistencyError, QuadratureError

# Round-off tolerance for clamping probabilities back into [0, 1].  Anything
# further out is treated as a formula bug, not float noise.
_CLAMP_SLACK = 1e-12

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Amplitude:
    """Target amplitude, represented by its rotation angle.

    The angle ``theta`` lives in [0, pi/2]; the amplitude itself is the
    derived quantity ``a = sin^2(theta)``.
    """

    theta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= _HALF_PI):
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta!r}")

    @property
    def a(self) -> float:
        """The amplitude sin^2(theta)."""
        return math.sin(self.theta) ** 2


@dataclass(frozen=True)
class GaussianNoiseParams:
    """Drift and diffusion rates of the per-iterate rotation error.

    ``k_mu`` is the mean rotation offset added per Grover iterate (radians);
    ``k_sigma`` is the variance growth per iterate (radians^2).  After ``m``
    iterates the accumulated error is Normal(k_mu * m, k_sigma * m).
    """

    kind: ClassVar[str] = "gaussian"

    k_mu: float
    k_sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.k_mu):
            raise ValueError(f"k_mu must be finite, got {self.k_mu!r}")
        _check_rate(self.k_sigma, "k_sigma")

    def p1_raw(self, theta, m):
        """p(1) at angle(s) ``theta`` and depth(s) ``m``; no validation."""
        return _p1_gaussian_raw(theta, m, self.k_mu, self.k_sigma)

    def rate(self) -> float:
        """Decay rate of the coherent signal per iterate: ``k_sigma``."""
        return self.k_sigma

    def to_dict(self) -> dict:
        """JSON fields of this model (without ``kind``)."""
        return dict(zip(_NOISE_KINDS[self.kind][2], astuple(self)))


@dataclass(frozen=True)
class DepolParams:
    """Per-Grover-iterate coherence survival probability.

    ``p_coh_tilde`` is the probability that the state survives one Grover
    iterate without depolarizing; after ``m`` iterates the coherent fraction
    is ``p_coh_tilde ** m`` and the rest is maximally mixed.
    """

    kind: ClassVar[str] = "depolarizing"

    p_coh_tilde: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_coh_tilde <= 1.0):
            raise ValueError(
                f"p_coh_tilde must lie in [0, 1], got {self.p_coh_tilde!r}"
            )

    def p1_raw(self, theta, m):
        """p(1) at angle(s) ``theta`` and depth(s) ``m``; no validation."""
        return _p1_depol_raw(theta, m, self.p_coh_tilde)

    def rate(self) -> float:
        """Equivalent zero-mean Gaussian rate ``-ln(p_coh_tilde) / 2``.

        Inverts :func:`depol_equivalent`.

        Raises:
            ValueError: if ``p_coh_tilde == 0`` (the rate is infinite).
        """
        if self.p_coh_tilde == 0.0:
            raise ValueError("no finite equivalent rate at p_coh_tilde == 0")
        return -math.log(self.p_coh_tilde) / 2.0

    def to_dict(self) -> dict:
        """JSON fields of this model (without ``kind``)."""
        return dict(zip(_NOISE_KINDS[self.kind][2], astuple(self)))


# None means an ideal, noiseless device.
NoiseModel = GaussianNoiseParams | DepolParams | None

# Each noise kind, by its JSON ``kind``: its class, CLI spelling and JSON
# fields, the fields in the order the class takes them.
_NOISE_KINDS = {
    cls.kind: (cls, spec, fields)
    for cls, spec, fields in (
        (GaussianNoiseParams, "gaussian:kmu,ksigma", ("k_mu", "k_sigma")),
        (DepolParams, "depol:p", ("p_coh",)),
    )
}

# The command-line spellings accepted by noise_from_spec.
_NOISE_SPECS = " | ".join([*(spec for _, spec, _ in _NOISE_KINDS.values()), "none"])


def noise_from_spec(text: str) -> NoiseModel:
    """Parse the CLI spelling: ``gaussian:kmu,ksigma``, ``depol:p`` or ``none``."""
    if text == "none":
        return None
    name, _, args = text.partition(":")
    for cls, spec, fields in _NOISE_KINDS.values():
        if spec.partition(":")[0] == name:
            values = args.split(",")
            if len(values) != len(fields) or "" in values:
                raise ValueError(f"{cls.kind} noise needs {spec!r}, got {text!r}")
            return cls(*map(float, values))
    raise ValueError(f"unknown noise model {text!r} (expected {_NOISE_SPECS})")


def _json_number(value, name: str) -> float:
    """A JSON number (booleans excluded) as a finite float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def noise_from_dict(doc: dict) -> NoiseModel:
    """Parse the JSON spelling: ``{"kind": "gaussian" | "depolarizing" | "none", ...}``.

    The other keys are exactly the :meth:`to_dict` fields of that kind.
    """
    if not isinstance(doc, dict):
        raise ValueError("noise must be a JSON object")
    kind = doc.get("kind")
    if kind == "none":
        cls, keys = None, ()
    elif isinstance(kind, str) and kind in _NOISE_KINDS:
        cls, _, keys = _NOISE_KINDS[kind]
    else:
        raise ValueError(f"noise.kind must be {'|'.join([*_NOISE_KINDS, 'none'])}, got {kind!r}")
    if set(doc) != {"kind", *keys}:
        raise ValueError(f"{kind} noise takes exactly the fields {['kind', *keys]}, got {sorted(doc)}")
    if cls is None:
        return None
    return cls(*(_json_number(doc[key], f"noise.{key}") for key in keys))


def _check_int64(value: int, name: str) -> None:
    """Reject anything but an ``int`` or numpy integer (not a bool) in the signed 64-bit range."""
    # A plain int is the common case, so it is tested first.
    integral = type(value) is int or (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    )
    if not (integral and -(2**63) <= int(value) < 2**63):
        raise ValueError(f"{name} must be an integer in the signed 64-bit range, got {value!r}")


def _check_shots(n: int, name: str) -> None:
    """Validate a shot count: an integer as :func:`_check_int64` takes it, and >= 1."""
    _check_int64(n, name)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n!r}")


def _check_depth(m: int) -> int:
    """Validate a Grover-iteration count (nonnegative integer)."""
    _check_int64(m, "depth")
    if m < 0:
        raise ValueError(f"depth must be >= 0, got {m!r}")
    return int(m)


def _check_rate(value: float, name: str) -> None:
    """Validate a noise rate (finite and >= 0)."""
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _as_probability(p: float, context: str) -> float:
    """Clamp round-off-sized excursions outside [0, 1]; reject anything larger."""
    if p < 0.0:
        if p < -_CLAMP_SLACK:
            raise InternalConsistencyError(f"{context} produced probability {p!r}")
        return 0.0
    if p > 1.0:
        if p > 1.0 + _CLAMP_SLACK:
            raise InternalConsistencyError(f"{context} produced probability {p!r}")
        return 1.0
    return p


# ---------------------------------------------------------------------------
# Raw array kernels, shared with the fitting and device modules.  No input
# validation; arguments broadcast under numpy rules.

def _p_diff_gaussian_raw(theta, m, k_mu, k_sigma):
    """p(0) - p(1) under Gaussian rotation noise (array-capable)."""
    psi = (2.0 * np.asarray(m) + 1.0) * theta + k_mu * np.asarray(m)
    decay = np.exp(-2.0 * k_sigma * np.asarray(m))
    # cos^2 - sin^2 rather than cos(2 psi): keeps the m=0 limit exactly equal
    # to cos^2(theta) - sin^2(theta) and bounds the magnitude by the decay.
    return decay * (np.cos(psi) ** 2 - np.sin(psi) ** 2)


def _p1_gaussian_raw(theta, m, k_mu, k_sigma):
    """p(1) under Gaussian rotation noise (array-capable)."""
    return 0.5 * (1.0 - _p_diff_gaussian_raw(theta, m, k_mu, k_sigma))


def _p1_depol_raw(theta, m, p_coh_tilde):
    """p(1) under per-iterate depolarizing noise (array-capable)."""
    coherent = np.asarray(p_coh_tilde) ** np.asarray(m)
    return coherent * np.sin((2.0 * np.asarray(m) + 1.0) * theta) ** 2 + (
        1.0 - coherent
    ) / 2.0


def _p1_noiseless_raw(theta, m):
    """p(1) = sin^2((2m+1) theta) with no noise (array-capable)."""
    return np.sin((2.0 * np.asarray(m) + 1.0) * theta) ** 2


# ---------------------------------------------------------------------------
# Public operations.

def p1_gaussian_closed(amp: Amplitude, m: int, noise: GaussianNoiseParams) -> float:
    """Probability of measuring 1 after ``m`` Grover iterates, closed form.

    Evaluates ``(1 - exp(-2 k_sigma m) cos(2 ((2m+1) theta + k_mu m))) / 2``.
    Reduces to ``sin^2((2m+1) theta)`` at zero noise.
    """
    m = _check_depth(m)
    p = float(_p1_gaussian_raw(amp.theta, m, noise.k_mu, noise.k_sigma))
    return _as_probability(p, "p1_gaussian_closed")


def p_diff_gaussian_closed(amp: Amplitude, m: int, noise: GaussianNoiseParams) -> float:
    """Outcome-probability difference p(0) - p(1) under Gaussian noise.

    Equals ``1 - 2 * p1_gaussian_closed(...)``; its magnitude is bounded by
    ``exp(-2 k_sigma m)``, with the noiseless zero-depth limit
    ``cos^2(theta) - sin^2(theta)``.
    """
    m = _check_depth(m)
    return float(_p_diff_gaussian_raw(amp.theta, m, noise.k_mu, noise.k_sigma))


@lru_cache(maxsize=64)
def _hermgauss_nodes(n: int):
    """Cached Gauss-Hermite nodes and weights for ``n`` points."""
    return np.polynomial.hermite.hermgauss(n)


def p1_gaussian_quadrature(
    amp: Amplitude,
    m: int,
    noise: GaussianNoiseParams,
    tol: float = 1e-10,
    max_nodes: int = 4096,
) -> float:
    """Probability of measuring 1, by direct numerical integration.

    Integrates ``sin^2((2m+1) theta + t)`` against the Normal(k_mu m,
    k_sigma m) error density using Gauss-Hermite quadrature, doubling the
    node count until successive estimates agree to ``tol``.  Serves as the
    independent check on :func:`p1_gaussian_closed`.

    Raises:
        QuadratureError: no convergence within ``max_nodes`` nodes.
    """
    m = _check_depth(m)
    mean = noise.k_mu * m
    variance = noise.k_sigma * m
    phase = (2.0 * m + 1.0) * amp.theta

    if variance == 0.0:
        # Zero variance: the error distribution is a point mass at the mean.
        p = float(np.sin(phase + mean) ** 2)
        return _as_probability(p, "gaussian quadrature (degenerate)")

    # Expectation of f(t) for t ~ N(mean, variance) via the substitution
    # t = mean + sqrt(2 variance) x against the weight exp(-x^2).
    scale = math.sqrt(2.0 * variance)
    threshold = max(tol, 1e-15)
    previous = None
    n = 16
    while n <= max_nodes:
        x, w = _hermgauss_nodes(n)
        values = np.sin(phase + mean + scale * x) ** 2
        estimate = float(w @ values) / math.sqrt(math.pi)
        if previous is not None and abs(estimate - previous) <= threshold:
            return _as_probability(estimate, "gaussian quadrature")
        previous = estimate
        n *= 2
    raise QuadratureError(
        f"quadrature did not converge to {tol!r} within {max_nodes} nodes "
        f"(theta={amp.theta}, m={m}, k_mu={noise.k_mu}, k_sigma={noise.k_sigma})"
    )


def p1_depolarizing(amp: Amplitude, m: int, depol: DepolParams) -> float:
    """Probability of measuring 1 under per-iterate depolarizing noise.

    The state stays coherent with probability ``p_coh_tilde ** m`` and is
    otherwise maximally mixed:
    ``p1 = p~^m sin^2((2m+1) theta) + (1 - p~^m) / 2``.
    """
    m = _check_depth(m)
    p = float(_p1_depol_raw(amp.theta, m, depol.p_coh_tilde))
    return _as_probability(p, "p1_depolarizing")


def depol_equivalent(noise: GaussianNoiseParams) -> DepolParams:
    """Depolarizing parameters exactly equivalent to zero-mean Gaussian noise.

    For ``k_mu == 0`` both models predict
    ``p1 = (1 - exp(-2 k_sigma m) cos(2 (2m+1) theta)) / 2`` for every depth,
    under the identification ``p_coh_tilde = exp(-2 k_sigma)``.

    Raises:
        ValueError: if ``k_mu != 0`` (the equivalence only holds without drift).
    """
    if noise.k_mu != 0.0:
        raise ValueError(
            f"depolarizing equivalence requires k_mu == 0, got {noise.k_mu!r}"
        )
    return DepolParams(math.exp(-2.0 * noise.k_sigma))
