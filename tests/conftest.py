"""Shared model fixtures for the test suite."""

import dataclasses
import math

import numpy as np

from svschemes import _parallel
from svschemes.models import (
    OUParams,
    VolModelSpec,
    benchmark_scott_params,
    scott_model,
)
from svschemes.rng import BlockStreams
from svschemes.schemes import draw_factor_paths, factor_normals


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: the frozen-seed acceptance suite (minutes); "
        "-m 'not acceptance' leaves it out of a quick run")


def factor_draws(spec, kind, n_steps, rng, npaths, reads=()):
    """Factor draws of ``kind`` on an n_steps grid for the paths of ``rng``,
    with the factor normals that ``kind`` and ``reads`` read."""
    normals = BlockStreams(rng, npaths).draw(n_steps, factor_normals(spec, (kind,), reads))
    return draw_factor_paths(spec, kind, n_steps, normals)


def across_layouts(monkeypatch, compute) -> set:
    """The distinct results of compute() on 1, 2 and 3 workers, at the
    default BLOCK_VALUES and at one so small that every item is one path
    block (the last one narrower)."""
    monkeypatch.setattr(_parallel, "MIN_BLOCK", 64)
    results = set()
    for block_values in (_parallel.BLOCK_VALUES, 64):
        monkeypatch.setattr(_parallel, "BLOCK_VALUES", block_values)
        for workers in (1, 2, 3):
            monkeypatch.setattr(_parallel, "WORKERS", workers)
            results.add(compute())
    return results


def coeff(spec, name, y):
    """The coefficient ``name`` of ``spec`` at y, read from the spec's node table."""
    return spec.node_table(spec, y).all(name)


def vol_flow_from_zeta(zeta, zeta_inv):
    """Flow of the ODE eta' = V(eta) from a primitive zeta of 1/V.

    Returns flow_vol(y, s) = zeta_inv(s + zeta(y)); the caller's
    zeta_inv is expected to raise NumericalError outside its range.
    """

    def flow_vol(y, s):
        return zeta_inv(s + zeta(y))

    return flow_vol


def scott_spec(**overrides):
    params = benchmark_scott_params()
    if overrides:
        params = dataclasses.replace(params, **overrides)
    return scott_model(params)


def const_vol_ou_spec(rho=0.0, sigma0=0.25, kappa=1.0, theta=0.0, nu=0.5,
                      r=0.05, s0=100.0, y0=0.0, T=1.0):
    """OU-backed spec with constant f: the asset is Black-Scholes when rho=0."""
    ou = OUParams(kappa=kappa, theta=theta, nu=nu)

    def zeros(y):
        return 0.0 * np.asarray(y, dtype=float)

    # h(y) = r - sigma0^2/2 - rho*kappa*(theta-y)*sigma0/nu (f'=sigma'=0)
    slope = rho * kappa * sigma0 / nu
    return VolModelSpec(
        r=r, s0=s0, y0=y0, T=T, rho=rho,
        f=lambda y: sigma0 + zeros(y),
        f1=zeros, f2=zeros,
        b=lambda y: kappa * (theta - np.asarray(y, dtype=float)),
        sigma=lambda y: nu + zeros(y),
        sigma1=zeros,
        F=lambda y: (sigma0 / nu) * np.asarray(y, dtype=float),
        h1=lambda y: slope + zeros(y),
        h2=zeros,
        ou=ou,
        flow_drift=lambda y, t: theta + (np.asarray(y, dtype=float) - theta) * math.exp(-kappa * t),
        flow_vol=lambda y, s: np.asarray(y, dtype=float) + nu * np.asarray(s),
    )


def gbm_factor_spec(rho=0.0):
    """Generic (non-OU) spec whose factor is a GBM: exercises the NV flows.

    b(y) = y/2 and sigma(y) = y, so V0 vanishes and the vol flow is y*e^s.
    """
    return VolModelSpec(
        r=0.05, s0=100.0, y0=1.0, T=1.0, rho=rho,
        f=lambda y: 0.25 + 0.0 * np.asarray(y, dtype=float),
        f1=lambda y: 0.0 * np.asarray(y, dtype=float),
        f2=lambda y: 0.0 * np.asarray(y, dtype=float),
        b=lambda y: 0.5 * np.asarray(y, dtype=float),
        sigma=lambda y: np.asarray(y, dtype=float),
        sigma1=lambda y: 1.0 + 0.0 * np.asarray(y, dtype=float),
        # f/sigma = 0.25/y is singular at 0, so the primitive needs an
        # explicit anchor away from 0; schemes only ever use differences of F
        F=lambda y: 0.25 * np.log(np.asarray(y, dtype=float)),
        flow_drift=lambda y, t: y,
        flow_vol=vol_flow_from_zeta(np.log, np.exp),
    )
