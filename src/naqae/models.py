"""Outcome-probability models for amplitude estimation under circuit noise.

Implements the Gaussian rotation-noise model in closed form, an independent
Gauss-Hermite quadrature evaluation of the same probability, the depolarizing
model, and the exact zero-mean mapping between the two.  Every p(1), the
device's, the closed forms' and the fits', is the one Gaussian kernel below
at a per-depth decay d and drift k_mu (:func:`_decay_drift`): Gaussian noise
decays by ``exp(-2 k_sigma m)`` and drifts by ``k_mu``, depolarizing noise
keeps the coherent fraction ``p_coh_tilde ** m`` without drift, and no noise
is d = 1 without drift.  Each decay is taken from libm, one call per (rate,
depth) pair, so it has the same bits whichever SIMD kernels numpy picked;
the device and the count correction share :func:`_coherent_fraction`.  Each
noise kind is one row of ``_NOISE_KINDS``: its class, CLI spelling and JSON
fields.  Every checked p(1) goes through one evaluator, which refuses a value
that is not finite, naming its depth.  Each public formula refuses, through
one kind check, a noise model of the other kind (or None), and the quadrature
stops doubling its nodes at the first count whose Gauss-Hermite nodes or
weights are not all finite.

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
from dataclasses import dataclass
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


class _NoiseKind:
    """What both noise classes read from their ``_NOISE_KINDS`` row."""

    def _values(self) -> tuple:
        """The field values in the order the class takes them: ``astuple`` without its deep copy."""
        return tuple([getattr(self, name) for name in self.__match_args__])

    def to_dict(self) -> dict:
        """JSON fields of this model (without ``kind``)."""
        return dict(zip(_NOISE_KINDS[self.kind][2], self._values()))


@dataclass(frozen=True)
class GaussianNoiseParams(_NoiseKind):
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

    def rate(self) -> float:
        """Decay rate of the coherent signal per iterate: ``k_sigma``."""
        return self.k_sigma


@dataclass(frozen=True)
class DepolParams(_NoiseKind):
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

    def rate(self) -> float:
        """Equivalent zero-mean Gaussian rate ``-ln(p_coh_tilde) / 2``.

        Inverts :func:`depol_equivalent`.

        Raises:
            ValueError: if ``p_coh_tilde == 0`` (the rate is infinite).
        """
        if self.p_coh_tilde == 0.0:
            raise ValueError("no finite equivalent rate at p_coh_tilde == 0")
        return -math.log(self.p_coh_tilde) / 2.0


# None means an ideal, noiseless device.
NoiseModel = GaussianNoiseParams | DepolParams | None

# ---------------------------------------------------------------------------
# Raw array kernels (no input validation; arguments broadcast under numpy
# rules), shared with the fitting module.
# Each decay goes through libm, one Python call per broadcast (rate, depth)
# pair: numpy's SIMD exp and power differ from libm, and from kernel to
# kernel, in the last bit, and such a bit moves the digits of a printed fit.

def _decay(k_sigma, m):
    """The Gaussian decay ``exp(-2 k_sigma m)``; exactly 1 at depth 0, however large k_sigma.

    An overflowing ``k_sigma m`` is inf, so its decay is 0.
    """
    with np.errstate(over="ignore"):
        exponent = -2.0 * (np.asarray(k_sigma, float) * np.asarray(m, float))
    exps = map(math.exp, exponent.ravel().tolist())
    return np.fromiter(exps, float, exponent.size).reshape(exponent.shape)


def _coherent_fraction(p_coh_tilde, m):
    """The depolarizing coherent fraction ``p_coh_tilde ** m``, through Python's pow."""
    p, m = np.broadcast_arrays(np.asarray(p_coh_tilde, float), np.asarray(m, float))
    return np.array(list(map(pow, p.ravel().tolist(), m.ravel().tolist()))).reshape(p.shape)


def _decay_drift(model: NoiseModel, m):
    """The decay d of ``p(0) - p(1) = d cos 2 psi`` at depth(s) ``m`` under ``model``, and its drift k_mu.

    Depolarizing noise is the zero-mean case, and no noise (None) is d = 1.
    """
    if isinstance(model, GaussianNoiseParams):
        return _decay(model.k_sigma, m), model.k_mu
    if isinstance(model, DepolParams):
        return _coherent_fraction(model.p_coh_tilde, m), 0.0
    return 1.0, 0.0


def _psi(theta, m, k_mu):
    """The mean rotation angle ``(2m+1) theta + k_mu m`` after ``m`` iterates (array-capable)."""
    return (2.0 * np.asarray(m) + 1.0) * theta + k_mu * np.asarray(m)


def _p_diff_gaussian_raw(psi, decay):
    """p(0) - p(1) at mean angle ``psi`` (:func:`_psi`) and decay ``decay`` (array-capable)."""
    # cos^2 - sin^2 rather than cos(2 psi): keeps the m=0 limit exactly equal
    # to cos^2(theta) - sin^2(theta) and bounds the magnitude by the decay.
    return decay * (np.cos(psi) ** 2 - np.sin(psi) ** 2)


def _p1_gaussian_decayed(psi, decay):
    """p(1) at mean angle ``psi`` (:func:`_psi`) and decay ``decay`` (array-capable)."""
    return 0.5 * (1.0 - _p_diff_gaussian_raw(psi, decay))


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
_NOISE_SPECS = " | ".join([*(row[1] for row in _NOISE_KINDS.values()), "none"])


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


def _check_kind(model: NoiseModel, cls: type, name: str) -> None:
    """Refuse a noise model that is not a ``cls``: ``name`` requires that kind."""
    if not isinstance(model, cls):
        raise ValueError(f"{name} requires {cls.__name__}, got {model!r}")


def _check_frequency(p1_hat: float) -> None:
    """Validate an observed outcome-1 frequency: in [0, 1], so not NaN."""
    if not (0.0 <= p1_hat <= 1.0):
        raise ValueError(f"p1_hat must lie in [0, 1], got {p1_hat!r}")


def _as_probability(p: float, context: str) -> float:
    """Clamp round-off-sized excursions outside [0, 1]; reject anything larger, and NaN."""
    if not (-_CLAMP_SLACK <= p <= 1.0 + _CLAMP_SLACK):
        raise InternalConsistencyError(f"{context} produced probability {p!r}")
    return min(max(p, 0.0), 1.0)


def _finite(name: str, kernel, model: NoiseModel, theta: float, m: int) -> float:
    """``kernel(psi, decay)`` of ``model`` at ``theta`` and a checked depth ``m``, refused unless finite."""
    m = _check_depth(m)
    with np.errstate(all="ignore"):  # an overflow shows as the value, refused below
        decay, k_mu = _decay_drift(model, m)
        value = float(kernel(_psi(theta, m, k_mu), decay))
    if not math.isfinite(value):
        raise ValueError(f"{name} at depth {m} is {value!r}: the noise parameters overflow")
    return value


def _p1(model: NoiseModel, theta: float, m: int, context: str) -> float:
    """p(1) of ``model`` (noiseless if None) at depth ``m``: checked, finite, clamped into [0, 1]."""
    return _as_probability(_finite("p(1)", _p1_gaussian_decayed, model, theta, m), context)


# ---------------------------------------------------------------------------
# Public operations.

def p1_gaussian_closed(amp: Amplitude, m: int, noise: GaussianNoiseParams) -> float:
    """Probability of measuring 1 after ``m`` Grover iterates, closed form.

    Evaluates ``(1 - exp(-2 k_sigma m) cos(2 ((2m+1) theta + k_mu m))) / 2``.
    Reduces to ``sin^2((2m+1) theta)`` at zero noise.
    """
    _check_kind(noise, GaussianNoiseParams, "p1_gaussian_closed")
    return _p1(noise, amp.theta, m, "p1_gaussian_closed")


def p_diff_gaussian_closed(amp: Amplitude, m: int, noise: GaussianNoiseParams) -> float:
    """Outcome-probability difference p(0) - p(1) under Gaussian noise.

    Equals ``1 - 2 * p1_gaussian_closed(...)``; its magnitude is bounded by
    ``exp(-2 k_sigma m)``, with the noiseless zero-depth limit
    ``cos^2(theta) - sin^2(theta)``.
    """
    _check_kind(noise, GaussianNoiseParams, "p_diff_gaussian_closed")
    return _finite("p(0) - p(1)", _p_diff_gaussian_raw, noise, amp.theta, m)


# p1_gaussian_quadrature's fixed convergence tolerance and node cap.
_QUAD_TOL = 1e-10
_QUAD_MAX_NODES = 256


@lru_cache(maxsize=64)
def _hermgauss_nodes(n: int):
    """Cached Gauss-Hermite nodes and weights for ``n`` points, or None unless all are finite."""
    with np.errstate(all="ignore"):  # numpy's recurrence overflows at large n
        x, w = np.polynomial.hermite.hermgauss(n)
        finite = np.isfinite(x).all() and np.isfinite(w).all()
    return (x, w) if finite else None


def p1_gaussian_quadrature(amp: Amplitude, m: int, noise: GaussianNoiseParams) -> float:
    """Probability of measuring 1, by direct numerical integration.

    Integrates ``sin^2((2m+1) theta + t)`` against the Normal(k_mu m,
    k_sigma m) error density using Gauss-Hermite quadrature, doubling the
    node count from 16 until successive estimates agree to 1e-10.  Serves as
    the independent check on :func:`p1_gaussian_closed`.

    Raises:
        QuadratureError: no convergence within 256 nodes, or before the
            first count whose nodes or weights are not all finite (past the
            cap with numpy 2.4.6); the message names the last count used.
    """
    _check_kind(noise, GaussianNoiseParams, "p1_gaussian_quadrature")
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
    previous = None
    n = 16
    # Doubling stops past _QUAD_MAX_NODES, or where numpy's nodes stop being finite.
    while n <= _QUAD_MAX_NODES and (nodes := _hermgauss_nodes(n)) is not None:
        x, w = nodes
        values = np.sin(phase + mean + scale * x) ** 2
        estimate = float(w @ values) / math.sqrt(math.pi)
        if previous is not None and abs(estimate - previous) <= _QUAD_TOL:
            return _as_probability(estimate, "gaussian quadrature")
        previous = estimate
        n *= 2
    raise QuadratureError(
        f"quadrature did not converge to {_QUAD_TOL!r} within {n // 2} nodes "
        f"(theta={amp.theta}, m={m}, k_mu={noise.k_mu}, k_sigma={noise.k_sigma})"
    )


def p1_depolarizing(amp: Amplitude, m: int, depol: DepolParams) -> float:
    """Probability of measuring 1 under per-iterate depolarizing noise.

    The state stays coherent with probability ``p_coh_tilde ** m`` and is
    otherwise maximally mixed:
    ``p1 = p~^m sin^2((2m+1) theta) + (1 - p~^m) / 2``.
    """
    _check_kind(depol, DepolParams, "p1_depolarizing")
    return _p1(depol, amp.theta, m, "p1_depolarizing")


def depol_equivalent(noise: GaussianNoiseParams) -> DepolParams:
    """Depolarizing parameters exactly equivalent to zero-mean Gaussian noise.

    For ``k_mu == 0`` both models predict
    ``p1 = (1 - exp(-2 k_sigma m) cos(2 (2m+1) theta)) / 2`` for every depth,
    under the identification ``p_coh_tilde = exp(-2 k_sigma)``.

    Raises:
        ValueError: if ``k_mu != 0`` (the equivalence only holds without drift).
    """
    _check_kind(noise, GaussianNoiseParams, "depol_equivalent")
    if noise.k_mu != 0.0:
        raise ValueError(
            f"depolarizing equivalence requires k_mu == 0, got {noise.k_mu!r}"
        )
    return DepolParams(math.exp(-2.0 * noise.k_sigma))
