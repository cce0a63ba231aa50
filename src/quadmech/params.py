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
SYSTEM_NUMERIC = SystemParams._RATE_FIELDS + ("theta", "nbar1", "nbar2")
# record type -> (its numeric fields, those of them that are complex)
_NUMERIC = {SystemParams: (SYSTEM_NUMERIC, ()),
            LinearizedParams: (LINEARIZED_NUMERIC, _LINEARIZED_COMPLEX)}


def _is_columns(p) -> bool:
    """Whether ``p`` is a record whose numeric fields are 1-D arrays of one
    length, each of the dtype ``param_columns`` gives it."""
    if type(p) not in _NUMERIC:
        return False
    numeric, complex_fields = _NUMERIC[type(p)]
    vals = [getattr(p, name) for name in numeric]
    return (all(type(v) is np.ndarray and v.ndim == 1 for v in vals)
            and len({len(v) for v in vals}) == 1
            and all(v.dtype == (complex if name in complex_fields else float)
                    for name, v in zip(numeric, vals)))


def param_columns(p, kind: type = SystemParams):
    """(columns, scalar): the SystemParams or LinearizedParams record ``p``
    with every numeric field a 1-D array of one length k, and whether it was
    a scalar record (then k = 1).  A sequence of scalar records of one type
    gives one column record holding their values, with the first one's
    metadata (``unit_label``, ``origin``); an empty one, an empty column
    record of type ``kind``.  A record that is already a column record (every
    numeric field a 1-D float array, complex for the complex fields, all of
    one length) comes back as it is."""
    if _is_columns(p):
        return p, False
    if not isinstance(p, tuple(_NUMERIC)):
        records = list(p)
        first = (records[0] if records   # or a placeholder, all replaced
                 else kind(**dict.fromkeys(_NUMERIC[kind][0], 0.0)))
        p = replace(first, **{name: [getattr(r, name) for r in records]
                              for name in _NUMERIC[type(first)][0]})
    numeric, complex_fields = _NUMERIC[type(p)]
    vals = [np.asarray(getattr(p, name),
                       complex if name in complex_fields else float)
            for name in numeric]
    scalar = all(v.ndim == 0 for v in vals)
    cols = np.broadcast_arrays(*(np.atleast_1d(v) for v in vals))
    return replace(p, **dict(zip(numeric, cols))), scalar


def take_columns(p, index):
    """The rows ``index`` of a column record whose fields are all arrays."""
    return replace(p, **{name: getattr(p, name)[index]
                         for name in _NUMERIC[type(p)][0]})


# (entry test, error, message) of each validation rule
_FINITE = (np.isfinite, NonFinite, "{name} = {v!r} is not finite")
_POSITIVE = (lambda v: v > 0.0, NonPositiveRate, "{name} = {v} must be > 0")
_NONNEGATIVE = (lambda v: v >= 0.0, NegativeValue,
                "{name} = {v} must be >= 0")


def _require(p, names, rule) -> None:
    """Raise the rule's error for the first of ``names`` with an entry that
    fails it, naming its first failing entry as that field holds it.  The
    fields are tested stacked, in one call, when they share a shape."""
    test, error, message = rule
    vals = [getattr(p, name) for name in names]
    try:
        failed = ~test(np.array(vals)).reshape(len(vals), -1).all(axis=1)
    except ValueError:   # fields of unequal shapes: one test each
        failed = np.array([not test(np.asarray(v)).all() for v in vals])
    if failed.any():
        i = failed.argmax()
        v = np.asarray(vals[i])
        raise error(message.format(name=names[i], v=v[~test(v)][0].item()))


def validate_params(p: SystemParams) -> SystemParams:
    """Validate a SystemParams record, reducing theta to [0, 2*pi).

    A column record raises for the first rule and field any entry fails,
    naming that entry, as the scalar record of that entry would.
    Idempotent: applying it twice equals applying it once.
    """
    _require(p, SYSTEM_NUMERIC, _FINITE)
    _require(p, ("kappa", "omega1", "omega2"), _POSITIVE)
    _require(p, ("eta", "gamma1", "gamma2", "nbar1", "nbar2"), _NONNEGATIVE)
    theta = np.fmod(p.theta, TWO_PI)
    theta = np.where(theta < 0.0, theta + TWO_PI, theta)
    theta = np.where(theta >= TWO_PI, 0.0, theta)   # fmod rounding at 2*pi
    if np.any(theta != p.theta):
        p = replace(p, theta=theta.item() if theta.ndim == 0 else theta)
    return p


def validate_linearized(lp: LinearizedParams) -> LinearizedParams:
    """Validate a LinearizedParams record (finiteness, kappa > 0), entry by
    entry for a column record."""
    _require(lp, LINEARIZED_NUMERIC, _FINITE)
    _require(lp, ("kappa",), _POSITIVE)
    _require(lp, ("gamma1", "gamma2", "nbar1", "nbar2"), _NONNEGATIVE)
    if lp.origin not in ("branch-derived", "direct"):
        raise ParameterError(f"unknown origin tag {lp.origin!r}")
    return lp


def rescale_params(p: SystemParams, factor: float) -> SystemParams:
    """Divide every rate field by ``factor`` (unit relabeling).

    Dimensionless outputs (root counts, stability verdicts, phonon numbers)
    are invariant under this transformation.  A library helper: nothing in
    the package calls it (the ``omega1`` convention of
    ``branch_cooling_sweep`` converts its column records itself), and the
    tests use it to check that invariance.
    """
    if factor <= 0.0 or not math.isfinite(factor):
        raise ParameterError(f"rescale factor must be finite and > 0, got {factor}")
    updates = {name: getattr(p, name) / factor for name in SystemParams._RATE_FIELDS}
    return replace(p, **updates)
