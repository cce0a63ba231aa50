"""Physical parameter records and validation.

All rates (detunings, frequencies, couplings, drive, decay) are expressed in a
single reference unit chosen by the caller; ``unit_label`` records which rate
was used as the reference ("kappa" or "omega1") but is metadata only — the
numerics never read it.  The drive amplitude eta is taken real and
nonnegative: only eta^2 enters any computed quantity, so a drive phase is
unobservable and would only add a redundant degree of freedom.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

TWO_PI = 2.0 * math.pi


class ParameterError(ValueError):
    """Base class for parameter validation failures."""


class NonPositiveRate(ParameterError):
    """kappa, omega1 or omega2 is zero or negative."""


class NegativeValue(ParameterError):
    """A quantity that must be >= 0 (eta, gamma, nbar) is negative."""


class NonFinite(ParameterError):
    """A field is NaN or infinite."""


@dataclass(frozen=True)
class SystemParams:
    """Full nonlinear system parameters (one cavity, two mechanical modes).

    Fields
    ------
    delta_c   : bare cavity-light detuning
    omega1    : frequency of the linearly coupled mechanical mode
    omega2    : frequency of the quadratically coupled mechanical mode
    g1, g2    : linear / quadratic optomechanical coupling strengths
    omega_ex  : phonon-exchange strength between the two mechanical modes
    theta     : phonon-exchange phase, stored reduced to [0, 2*pi)
    eta       : drive amplitude (real, >= 0)
    kappa     : cavity decay rate
    gamma1/2  : mechanical damping rates
    nbar1/2   : thermal occupancies of the mechanical baths
    unit_label: name of the reference rate ("kappa" or "omega1"), metadata only
    """

    delta_c: float
    omega1: float
    omega2: float
    g1: float
    g2: float
    omega_ex: float
    theta: float
    eta: float
    kappa: float
    gamma1: float = 0.0
    gamma2: float = 0.0
    nbar1: float = 0.0
    nbar2: float = 0.0
    unit_label: str = "kappa"

    _RATE_FIELDS = ("delta_c", "omega1", "omega2", "g1", "g2", "omega_ex",
                    "eta", "kappa", "gamma1", "gamma2")


@dataclass(frozen=True)
class LinearizedParams:
    """Effective parameters of the linearized fluctuation dynamics.

    Either derived from a steady-state branch (origin="branch-derived") or
    supplied directly (origin="direct") when the effective couplings are
    treated as free knobs of the linearized model.  A column record's
    numeric fields hold 1-D arrays of one length or shared scalars.
    """

    delta_eff: float
    omega1: float
    omega2_tilde: float
    g1_eff: complex
    g2_eff: complex
    g22: complex
    omega_ex: float
    theta: float
    kappa: float
    gamma1: float = 0.0
    gamma2: float = 0.0
    nbar1: float = 0.0
    nbar2: float = 0.0
    origin: str = "direct"


_LINEARIZED_COMPLEX = ("g1_eff", "g2_eff", "g22")
LINEARIZED_NUMERIC = ("delta_eff", "omega1", "omega2_tilde", "g1_eff",
                       "g2_eff", "g22", "omega_ex", "theta", "kappa",
                       "gamma1", "gamma2", "nbar1", "nbar2")


def linearized_columns(lp: Union[LinearizedParams,
                                 Sequence[LinearizedParams]]):
    """(columns, scalar): ``lp`` with every numeric field a 1-D array of one
    length k, and whether it was a scalar record (then k = 1).  A sequence
    of scalar records gives one column record holding their values."""
    if not isinstance(lp, LinearizedParams):
        lps = list(lp)
        lp = LinearizedParams(**{name: [getattr(r, name) for r in lps]
                                 for name in LINEARIZED_NUMERIC},
                              origin=lps[0].origin if lps else "direct")
    vals = [np.asarray(getattr(lp, name),
                       complex if name in _LINEARIZED_COMPLEX else None)
            for name in LINEARIZED_NUMERIC]
    scalar = all(v.ndim == 0 for v in vals)
    cols = np.broadcast_arrays(*(np.atleast_1d(v) for v in vals))
    return replace(lp, **dict(zip(LINEARIZED_NUMERIC, cols))), scalar


def take_columns(lp: LinearizedParams, index) -> LinearizedParams:
    """The rows ``index`` of a column record whose fields are all arrays."""
    return replace(lp, **{name: getattr(lp, name)[index]
                          for name in LINEARIZED_NUMERIC})


def _check_finite(obj, fields) -> None:
    for name in fields:
        v = getattr(obj, name)
        if isinstance(v, complex):
            ok = math.isfinite(v.real) and math.isfinite(v.imag)
        else:
            ok = math.isfinite(v)
        if not ok:
            raise NonFinite(f"{name} = {v!r} is not finite")


def validate_params(p: SystemParams) -> SystemParams:
    """Validate a SystemParams record, reducing theta to [0, 2*pi).

    Idempotent: applying it twice equals applying it once.
    """
    _check_finite(p, SystemParams._RATE_FIELDS + ("theta", "nbar1", "nbar2"))
    for name in ("kappa", "omega1", "omega2"):
        if getattr(p, name) <= 0.0:
            raise NonPositiveRate(f"{name} = {getattr(p, name)} must be > 0")
    for name in ("eta", "gamma1", "gamma2", "nbar1", "nbar2"):
        if getattr(p, name) < 0.0:
            raise NegativeValue(f"{name} = {getattr(p, name)} must be >= 0")
    theta = math.fmod(p.theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if theta >= TWO_PI:  # fmod rounding at the boundary
        theta = 0.0
    if theta != p.theta:
        p = replace(p, theta=theta)
    return p


def validate_linearized(lp: LinearizedParams) -> LinearizedParams:
    """Validate a LinearizedParams record (finiteness, kappa > 0)."""
    _check_finite(lp, LINEARIZED_NUMERIC)
    if lp.kappa <= 0.0:
        raise NonPositiveRate(f"kappa = {lp.kappa} must be > 0")
    for name in ("gamma1", "gamma2", "nbar1", "nbar2"):
        if getattr(lp, name) < 0.0:
            raise NegativeValue(f"{name} = {getattr(lp, name)} must be >= 0")
    if lp.origin not in ("branch-derived", "direct"):
        raise ParameterError(f"unknown origin tag {lp.origin!r}")
    return lp


def rescale_params(p: SystemParams, factor: float) -> SystemParams:
    """Divide every rate field by ``factor`` (unit relabeling).

    Dimensionless outputs (root counts, stability verdicts, phonon numbers)
    are invariant under this transformation; used by tests and the unit
    conversion in the CLI.
    """
    if factor <= 0.0 or not math.isfinite(factor):
        raise ParameterError(f"rescale factor must be finite and > 0, got {factor}")
    updates = {name: getattr(p, name) / factor for name in SystemParams._RATE_FIELDS}
    return replace(p, **updates)
