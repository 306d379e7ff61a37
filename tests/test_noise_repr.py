"""Property tests of the single noise-model representation in ``naqae.models``."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from naqae import (
    Amplitude,
    DepolParams,
    GaussianNoiseParams,
    SimulatedDevice,
    depol_equivalent,
    noise_from_dict,
    noise_from_spec,
    p1_depolarizing,
    p1_gaussian_closed,
)

gaussians = st.builds(
    GaussianNoiseParams,
    k_mu=st.floats(min_value=-1e3, max_value=1e3),
    k_sigma=st.floats(min_value=0.0, max_value=1e3),
)
depols = st.builds(DepolParams, st.floats(min_value=0.0, max_value=1.0))
noises = st.one_of(gaussians, depols)


@given(noises)
def test_dict_round_trip(noise):
    doc = {"kind": noise.kind, **noise.to_dict()}
    assert noise_from_dict(doc) == noise
    assert noise_from_dict(json.loads(json.dumps(doc))) == noise


@given(noises)
def test_spec_round_trip(noise):
    if isinstance(noise, GaussianNoiseParams):
        spec = f"gaussian:{noise.k_mu!r},{noise.k_sigma!r}"
    else:
        spec = f"depol:{noise.p_coh_tilde!r}"
    assert noise_from_spec(spec) == noise


@given(
    noises,
    st.floats(min_value=0.0, max_value=math.pi / 2),
    st.integers(min_value=0, max_value=500),
)
def test_device_p1_is_the_closed_form(noise, theta, m):
    amp = Amplitude(theta)
    if isinstance(noise, GaussianNoiseParams):
        expected = p1_gaussian_closed(amp, m, noise)
    else:
        expected = p1_depolarizing(amp, m, noise)
    assert SimulatedDevice(amp, noise).p1(m) == expected


# The round trips lose about eps / (2 k_sigma) and eps * |ln p_coh| relative,
# so 1e-15 holds only on these ranges: outside them the conversion is
# ill-conditioned, not wrong.
@given(st.floats(min_value=0.1, max_value=300.0))
def test_rate_inverts_depol_equivalent(k_sigma):
    noise = GaussianNoiseParams(0.0, k_sigma)
    assert noise.rate() == k_sigma
    assert math.isclose(depol_equivalent(noise).rate(), k_sigma, rel_tol=1e-15)


@given(st.floats(min_value=0.1, max_value=1.0))
def test_depol_equivalent_inverts_rate(p_coh):
    depol = DepolParams(p_coh)
    back = depol_equivalent(GaussianNoiseParams(0.0, depol.rate()))
    assert math.isclose(back.p_coh_tilde, p_coh, rel_tol=1e-15)


def test_rate_undefined_at_full_depolarization():
    with pytest.raises(ValueError):
        DepolParams(0.0).rate()


@pytest.mark.parametrize(
    "spec", ["thermal:0.1", "gaussian:0.1", "gaussian:0.1,0.2,0.3", "depol:", "depol:1.5",
             "gaussian:nan,0.1", "gaussian:0.0,inf", "depol:nan"],
)
def test_bad_specs(spec):
    with pytest.raises(ValueError):
        noise_from_spec(spec)
