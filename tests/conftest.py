"""Shared fixtures, random-parameter factories and independent oracles.

The oracles never call the code they check: ``fd_jacobian`` differentiates
the nonlinear mean-field flow numerically (against ``build_drift_matrix``),
``complex_drift_matrix`` and ``complex_noise`` build the drift and bath
matrices of the ladder-operator fluctuations (against the real quadrature
forms, through ``QUADRATURE_T``), ``spectral_phonons`` integrates their
resolvent over frequency (against the Lyapunov solve behind
``cool_linearized``), and ``stacked_detuning`` solves the mechanical steady
state read off the flow, one 4x4 system per photon number (against the
rational response the oracle scans with).

The per-cell references are the one-cell-at-a-time forms of the batched
steady-state routes (scan grid, polynomial roots, branch reconstruction,
linearization); the batched routes must equal them exactly.  At the end,
``write_table_rows`` is the per-row table writer the column writer
``cli.write_table`` must equal byte for byte, and ``table_rows`` and
``record_at`` read one row of a column table or one entry of a record with
array fields.
"""
import io
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from quadmech import (LinearizedParams, SystemParams, SteadyStateBranch,
                      validate_params)
from quadmech.steady_state import (DEDUPE_TOL, DEFLATE_TOL, IMAG_TOL, NEG_TOL,
                                   ORACLE_MARGIN, ROOT_ACCEPT_TOL,
                                   SINGULAR_COND, ResidualTooLarge,
                                   SingularMechanicalSystem, ZeroPolynomial)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_system(**kw) -> SystemParams:
    base = dict(delta_c=5.0, omega1=5.0, omega2=5.0, g1=0.05, g2=-0.0004,
                omega_ex=1.0, theta=math.pi, eta=95.0, kappa=1.0)
    base.update(kw)
    return validate_params(SystemParams(**base))


def make_linearized(**kw) -> LinearizedParams:
    base = dict(delta_eff=1.0, omega1=1.0, omega2_tilde=1.0, g1_eff=0.1,
                g2_eff=-0.01, g22=-0.01, omega_ex=0.1, theta=math.pi,
                kappa=0.1, gamma1=2e-6, gamma2=2e-6, nbar1=300.0, nbar2=300.0,
                origin="direct")
    base.update(kw)
    return LinearizedParams(**base)


def random_system(rng, g2_zero=False, decoupled=False) -> SystemParams:
    """Parameter draw spanning the reference operating ranges (kappa units)."""
    g1 = 0.0 if decoupled else 10**rng.uniform(-2.3, -1.0)
    g2 = 0.0 if (g2_zero or decoupled) else -(10**rng.uniform(-5.0, -3.0))
    return make_system(
        delta_c=rng.uniform(0.0, 10.0),
        omega1=rng.uniform(3.0, 7.0),
        omega2=rng.uniform(3.0, 7.0),
        g1=g1, g2=g2,
        omega_ex=10**rng.uniform(-2.5, 0.3),
        theta=rng.uniform(0.0, 2.0 * math.pi),
        eta=10**rng.uniform(1.0, 2.0),
    )


def random_linearized(rng, couplings_zero=False) -> LinearizedParams:
    g1 = 0.0 if couplings_zero else rng.uniform(0.01, 0.2)
    g2 = 0.0 if couplings_zero else -rng.uniform(0.01, 0.2)
    om = 0.0 if couplings_zero else rng.uniform(0.0, 0.2)
    g22 = 0.0 if couplings_zero else -rng.uniform(0.0, 0.2)
    return make_linearized(
        delta_eff=rng.uniform(0.5, 1.5),
        omega2_tilde=rng.uniform(0.8, 1.2),
        g1_eff=g1, g2_eff=g2, g22=g22, omega_ex=om,
        theta=rng.uniform(0.0, 2.0 * math.pi),
        kappa=rng.uniform(0.05, 0.5),
        gamma1=10**rng.uniform(-6.0, -4.0),
        gamma2=10**rng.uniform(-6.0, -4.0),
        nbar1=rng.uniform(0.0, 300.0),
        nbar2=rng.uniform(0.0, 300.0),
    )


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def classical_rhs(p, state):
    """Nonlinear mean-field flow d(alpha, beta1, beta2)/dt."""
    al, b1, b2 = state
    quad_b2 = (np.conj(b2)**2 + b2**2 + 2 * abs(b2)**2).real
    delta = p.delta_c + 2 * p.g1 * b1.real + p.g2 * quad_b2
    dal = -(p.kappa + 1j * delta) * al - 1j * p.eta
    db1 = (-(p.gamma1 + 1j * p.omega1) * b1 - 1j * p.g1 * abs(al)**2
           - 1j * p.omega_ex * np.exp(1j * p.theta) * b2)
    db2 = (-(p.gamma2 + 1j * p.omega2) * b2
           - 2j * p.g2 * (b2 + np.conj(b2)) * abs(al)**2
           - 1j * p.omega_ex * np.exp(-1j * p.theta) * b1)
    return np.array([dal, db1, db2])


def fd_jacobian(p, state, h=1e-7):
    """Central-difference Jacobian of ``classical_rhs`` in real coordinates
    (Re, Im of alpha, beta1, beta2); its spectrum equals the drift matrix's."""
    def rhs_real(v):
        st_c = v[0:6:2] + 1j * v[1:6:2]
        d = classical_rhs(p, st_c)
        out = np.empty(6)
        out[0:6:2] = d.real
        out[1:6:2] = d.imag
        return out
    v0 = np.empty(6)
    v0[0:6:2] = [s.real for s in state]
    v0[1:6:2] = [s.imag for s in state]
    J = np.empty((6, 6))
    scale = np.maximum(1.0, np.abs(v0))
    for k in range(6):
        dv = np.zeros(6)
        dv[k] = h * scale[k]
        J[:, k] = (rhs_real(v0 + dv) - rhs_real(v0 - dv)) / (2 * h * scale[k])
    return J


# q = T u maps u = (a, b1, b2, a+, b1+, b2+) to the quadratures
# (x_a, x_1, x_2, p_a, p_1, p_2); T is unitary.
QUADRATURE_T = np.block([[np.eye(3), np.eye(3)],
                         [-1j * np.eye(3), 1j * np.eye(3)]]) / math.sqrt(2.0)


def complex_drift_matrix(lp):
    """6x6 complex drift matrix A = [[B, C], [C*, B*]] of u, for one scalar
    record; the lower blocks are the conjugates of the upper ones."""
    G1, G2, G22 = complex(lp.g1_eff), complex(lp.g2_eff), complex(lp.g22)
    eip, eim = np.exp(1j * lp.theta), np.exp(-1j * lp.theta)
    a = np.zeros((6, 6), dtype=complex)
    a[0, 0] = -(lp.kappa + 1j * lp.delta_eff)
    a[0, 1] = a[0, 4] = a[1, 3] = -1j * G1
    a[0, 2] = a[0, 5] = a[2, 3] = -1j * G2
    a[1, 0] = -1j * np.conj(G1)
    a[1, 1] = -(lp.gamma1 + 1j * lp.omega1)
    a[1, 2] = -1j * lp.omega_ex * eip
    a[2, 0] = -1j * np.conj(G2)
    a[2, 1] = -1j * lp.omega_ex * eim
    a[2, 2] = -(lp.gamma2 + 1j * lp.omega2_tilde)
    a[2, 5] = -2j * G22
    a[3:, :3] = np.conj(a[:3, 3:])
    a[3:, 3:] = np.conj(a[:3, :3])
    return a


def complex_noise(lp):
    """(C, Q) of u: the bath correlation matrix, vacuum for the cavity and
    thermal for the mechanics, and its symmetrization Q = (C + C^T)/2."""
    c = np.zeros((6, 6))
    c[0, 3] = 2.0 * lp.kappa
    c[1, 4] = 2.0 * lp.gamma1 * (lp.nbar1 + 1.0)
    c[2, 5] = 2.0 * lp.gamma2 * (lp.nbar2 + 1.0)
    c[4, 1] = 2.0 * lp.gamma1 * lp.nbar1
    c[5, 2] = 2.0 * lp.gamma2 * lp.nbar2
    return c, 0.5 * (c + c.T)


def spectral_phonons(lp):
    """n_f via (1/2pi) Int dw [(-iw-A)^{-1} C (iw-A^T)^{-1}]_{kl}.

    Uses the complex drift matrix and the unsymmetrized bath matrix C, so
    the integral yields the ordered moments <u_k u_l> directly: entry (5,2)
    is <b1+ b1> itself."""
    a = complex_drift_matrix(lp)
    c = complex_noise(lp)[0].astype(complex)
    ident = np.eye(6)

    def integrand(w, k, l):
        r = np.linalg.solve(-1j * w * ident - a, c)
        m = np.linalg.solve((1j * w * ident - a.T).T, r.T).T
        return m[k, l].real

    out = []
    for k, l in ((4, 1), (5, 2)):
        val, _ = quad(integrand, -np.inf, np.inf, args=(k, l), limit=600)
        out.append(val / (2 * np.pi))
    return tuple(out)


def stacked_detuning(p, n_values):
    """Delta(n) from one 4x4 solve per photon number, stacked into a single
    ``np.linalg.solve``.  At fixed n the undamped flow ``classical_rhs`` is
    affine in (Re b1, Im b1, Re b2, Im b2); its matrix and offset are read
    off by probing the flow at zero and on the unit vectors."""
    q = replace(p, gamma1=0.0, gamma2=0.0)
    n_values = np.asarray(n_values, dtype=float)
    M = np.empty((len(n_values), 4, 4))
    offset = np.empty((len(n_values), 4))

    def mech(alpha, x):
        d = classical_rhs(q, (alpha, complex(x[0], x[1]),
                              complex(x[2], x[3])))[1:]
        return np.array([d[0].real, d[0].imag, d[1].real, d[1].imag])

    for i, n in enumerate(n_values):
        alpha = complex(math.sqrt(n))
        offset[i] = mech(alpha, np.zeros(4))
        for k in range(4):
            M[i, :, k] = mech(alpha, np.eye(4)[k]) - offset[i]
    x = np.linalg.solve(M, -offset[..., None])[..., 0]
    return p.delta_c + 2.0 * p.g1 * x[:, 0] + 4.0 * p.g2 * x[:, 2]**2


# ---------------------------------------------------------------------------
# per-cell references of the batched steady-state routes
# ---------------------------------------------------------------------------

def scan_grid_reference(p, scan_points):
    """Uniform scan grid, plus the geometric cluster around the mechanical
    pole when it lies inside the window, merged by np.unique."""
    n_max = (1.0 + ORACLE_MARGIN) * p.eta**2 / p.kappa**2
    grid = np.linspace(0.0, n_max, scan_points)
    pole = None
    if p.g2 != 0.0:
        pole = (p.omega_ex**2 - p.omega1 * p.omega2) / (4.0 * p.g2 * p.omega1)
    if pole is not None and 0.0 < pole < n_max:
        d = np.geomspace(1e-9 * (1.0 + pole), n_max, 512)
        extra = np.concatenate([pole - d, pole + d])
        extra = extra[(extra > 0.0) & (extra < n_max)]
        grid = np.unique(np.concatenate([grid, extra]))
    return grid


def real_roots_reference(coeffs):
    """Real nonnegative polynomial roots from numpy.roots, one polynomial."""
    c = np.asarray(coeffs.c, dtype=float)
    s = float(coeffs.aux.get("n_scale", 1.0)) or 1.0
    scaled = c * s ** np.arange(len(c))
    top = np.max(np.abs(scaled))
    if top == 0.0 or not np.isfinite(top):
        raise ZeroPolynomial("all coefficients vanish (or are non-finite)")
    hi = scaled[::-1]
    lead = 0
    while lead < len(hi) and abs(hi[lead]) < DEFLATE_TOL * top:
        lead += 1
    hi = hi[lead:]
    if len(hi) <= 1:
        raise ZeroPolynomial("polynomial deflates to a constant")
    zeros_at_origin = 0
    while len(hi) > 1 and hi[-1] == 0.0:
        hi = hi[:-1]
        zeros_at_origin += 1
    roots = []
    if len(hi) > 1:
        for r in np.roots(hi / np.max(np.abs(hi))):
            rr = float(r.real) * s
            if abs(r.imag) * s < IMAG_TOL * (1.0 + abs(rr)):
                roots.append(rr)
    if zeros_at_origin:
        roots.append(0.0)
    out = []
    for r in sorted(r for r in roots if r >= -NEG_TOL):
        r = max(r, 0.0)
        if out and abs(r - out[-1]) < DEDUPE_TOL * (1.0 + r):
            out[-1] = 0.5 * (out[-1] + r)
        else:
            out.append(r)
    return out


def reconstruct_reference(p, n_p, with_damping=False):
    """Branch record at n_p from one dense 4x4 solve; raises what rejects it."""
    if n_p < 0.0:
        raise ResidualTooLarge(f"negative photon number {n_p}")
    c, s = math.cos(p.theta), math.sin(p.theta)
    om = p.omega_ex
    g1m = p.gamma1 if with_damping else 0.0
    g2m = p.gamma2 if with_damping else 0.0
    M = np.array([(g1m, -p.omega1, -om * s, -om * c),
                  (p.omega1, g1m, om * c, -om * s),
                  (om * s, -om * c, g2m, -p.omega2),
                  (om * c, om * s, p.omega2, g2m)])
    M[3, 2] = p.omega2 + 4.0 * p.g2 * n_p
    if np.linalg.cond(M) > SINGULAR_COND:
        raise SingularMechanicalSystem(
            f"mechanical system singular at n_p = {n_p:.6g}")
    try:
        sol = np.linalg.solve(M, np.array([0.0, -p.g1 * n_p, 0.0, 0.0]))
    except np.linalg.LinAlgError:
        raise SingularMechanicalSystem(
            f"mechanical system singular at n_p = {n_p:.6g}") from None
    if not np.all(np.isfinite(sol)):
        raise SingularMechanicalSystem(
            f"mechanical solve overflowed at n_p = {n_p:.6g}")
    beta1, beta2 = complex(sol[0], sol[1]), complex(sol[2], sol[3])
    quad_b2 = (np.conj(beta2)**2 + beta2**2 + 2.0 * abs(beta2)**2).real
    delta = p.delta_c + 2.0 * p.g1 * beta1.real + p.g2 * quad_b2
    residual = abs(p.eta**2 / (p.kappa**2 + delta**2) - n_p) / max(1.0, n_p)
    if residual > ROOT_ACCEPT_TOL:
        raise ResidualTooLarge(
            f"n_p = {n_p:.9g} has self-consistency defect {residual:.3e}")
    raw = -1j * p.eta / (p.kappa + 1j * delta)
    mag = abs(raw)
    alpha = raw * math.sqrt(n_p) / mag if mag > 0.0 else complex(math.sqrt(n_p))
    return SteadyStateBranch(n_p=float(n_p), alpha=alpha, beta1=beta1,
                             beta2=beta2, delta_eff=float(delta),
                             residual=float(residual))


def linearized_reference(branch, p):
    """Linearized parameters of one branch, in Python's own arithmetic."""
    return LinearizedParams(
        delta_eff=branch.delta_eff, omega1=p.omega1,
        omega2_tilde=p.omega2 + 2.0 * p.g2 * branch.n_p,
        g1_eff=p.g1 * branch.alpha,
        g2_eff=4.0 * p.g2 * branch.alpha * branch.beta2.real,
        g22=complex(p.g2 * branch.n_p), omega_ex=p.omega_ex, theta=p.theta,
        kappa=p.kappa, gamma1=p.gamma1, gamma2=p.gamma2, nbar1=p.nbar1,
        nbar2=p.nbar2, origin="branch-derived")


# ---------------------------------------------------------------------------
# per-row readers of column tables and array-field records
# ---------------------------------------------------------------------------

def table_rows(table) -> list[dict]:
    """The rows of a column table as dicts of Python scalars, with None
    where a column is not present."""
    rows = [{} for _ in range(len(table))]
    for name, col in table.cols.items():
        keep = table.present.get(name, np.ones(len(col), dtype=bool))
        for row, value, present in zip(rows, col.tolist(), keep.tolist()):
            row[name] = value if present else None
    return rows


def root_counts(result) -> list[int]:
    """Each cell's branch count in a SweepResult: its rows with a branch."""
    return per_cell(result, result.table.present["branch_index"]).tolist()


def per_cell(result, mask) -> np.ndarray:
    """How many of each cell's rows of a SweepResult ``mask`` marks."""
    return np.add.reduceat(mask.astype(np.int64), result.offsets[:-1])


def record_at(record, k: int):
    """Entry ``k`` of a record whose fields are arrays over a stack (a
    StabilityVerdict or CovarianceResult of a stacked call), as the record a
    single call returns: 0-d entries become Python scalars."""
    def entry(value):
        x = np.asarray(value)[k]
        return x.item() if np.ndim(x) == 0 else x
    return replace(record, **{f.name: entry(getattr(record, f.name))
                              for f in fields(record)})


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j" if value.imag else f"{value.real:.12g}"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_table_rows(path, fmt: str, columns, rows: list[dict],
                     meta: dict) -> None:
    """The per-row table writer: every field of every row through ``_fmt``."""
    buf = io.StringIO()
    if fmt == "csv":
        for key in sorted(meta):
            buf.write(f"# {key} = {_fmt(meta[key])}\n")
        buf.write(",".join(columns) + "\n")
        for row in rows:
            buf.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")
    else:
        payload = {"meta": {k: _fmt(v) for k, v in sorted(meta.items())},
                   "rows": [{c: _fmt(row.get(c)) for c in columns}
                            for row in rows]}
        json.dump(payload, buf, indent=1, sort_keys=True)
        buf.write("\n")
    Path(path).write_text(buf.getvalue())
