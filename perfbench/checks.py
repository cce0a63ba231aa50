"""Checks on the tables the program writes, computed without the program.

Nothing here imports quadmech.  Each check reads a written CSV table, rebuilds
what it needs from the table's own header and rows, and recomputes it from
the model equations:

* parity: every cell of a steady-state table has an odd number of branches,
  at most 7 (f(n) = eta^2/(kappa^2 + Delta(n)^2) - n is positive at n = 0,
  negative at the oracle's n_max, and continuous through the mechanical
  pole, so it crosses zero an odd number of times);
* residual: on a seeded sample of branches, the self-consistency residual
  from a 4x4 mechanical solve written here must be <= 1e-6;
* stability: on the same sample, the ``stable`` flag must agree in sign with
  the largest real part of a central-difference Jacobian of the mean-field
  flow, taken at the fallback damping when both dampings are zero;
  branches whose margin lies within the finite-difference error are skipped,
  and the check fails when it skips more than a quarter of its sample;
* cooling: every stable row has n1f, n2f >= 0; on a seeded sample, n1f and
  n2f match a Bartels-Stewart solve (``scipy.linalg.solve_sylvester``) of
  A V + V A^T + Q = 0 to a relative 1e-6, and the ``stable`` flag agrees with
  the sign of the largest real part of A's spectrum.

Every check returns a ``Report``; an empty ``errors`` list means it passed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

RESIDUAL_TOL = 1e-6
PHONON_REL_TOL = 1e-6
FALLBACK_DAMPING = 1e-6      # times kappa, used when gamma1 = gamma2 = 0
FD_STEP = 1e-6               # relative central-difference step
MARGIN_FLOOR = 2e-9          # times kappa: the program's marginal band, doubled
SAMPLE = 40                  # rows per table in each sampled check
MAX_SKIPPED = 0.25           # share of a stability sample that may be skipped

# columns that follow the axis columns in every table
VALUE_COLUMNS = ("branch_index", "n_p", "stable", "n1f", "n2f",
                 "dark_overlap", "residual")
SYSTEM_FIELDS = ("delta_c", "omega1", "omega2", "g1", "g2", "omega_ex",
                 "theta", "eta", "kappa", "gamma1", "gamma2", "nbar1", "nbar2")
LINEARIZED_FIELDS = ("delta_eff", "omega1", "omega2_tilde", "g1_eff",
                     "g2_eff", "g22", "omega_ex", "theta", "kappa", "gamma1",
                     "gamma2", "nbar1", "nbar2")
# The two cases of the fig4 recipe differ from each other in these fields.
# The header of each fig4 table records the linear case's values, whichever
# case the table holds, so the checks take them from here.
FIG4_CASES = {
    "linear": dict(delta_c=3.2, g2=0.0, eta=56.5, omega_ex=0.2),
    "quadratic": dict(delta_c=5.0, g2=-0.0004, eta=95.0, omega_ex=1.0),
}


@dataclass
class Report:
    name: str
    checked: int = 0
    skipped: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(msg)
        elif len(self.errors) == 5:
            self.errors.append("...")


@dataclass
class Table:
    meta: dict[str, str]
    axes: tuple[str, ...]
    rows: list[dict[str, str]]

    def cells(self) -> list[tuple[tuple[str, ...], list[dict[str, str]]]]:
        """Rows grouped by their axis values, in table order."""
        out: list[tuple[tuple[str, ...], list[dict[str, str]]]] = []
        for row in self.rows:
            key = tuple(row[a] for a in self.axes)
            if out and out[-1][0] == key:
                out[-1][1].append(row)
            else:
                out.append((key, [row]))
        return out


def parse_table(text: str) -> Table:
    meta: dict[str, str] = {}
    lines = text.splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        key, _, val = lines[k][1:].partition(" = ")
        meta[key.strip()] = val
        k += 1
    if k == len(lines):
        raise ValueError("table has no column header")
    columns = lines[k].split(",")
    if tuple(columns[-len(VALUE_COLUMNS):]) != VALUE_COLUMNS:
        raise ValueError(f"unexpected columns {columns}")
    rows = []
    for line in lines[k + 1:]:
        vals = line.split(",")
        if len(vals) != len(columns):
            raise ValueError(f"row {line!r} has {len(vals)} fields")
        rows.append(dict(zip(columns, vals)))
    return Table(meta=meta, axes=tuple(columns[:-len(VALUE_COLUMNS)]),
                 rows=rows)


def read_table(path) -> Table:
    with open(path) as fh:
        return parse_table(fh.read())


def _num(text: str) -> complex | float:
    return complex(text) if text.endswith("j") else float(text)


# ---------------------------------------------------------------------------
# parameters of a row
# ---------------------------------------------------------------------------

def system_params(table: Table, row: dict[str, str]) -> dict[str, float]:
    """The nonlinear parameter set of one row of a steady-state table.

    Branch-cooling tables (fig4) carry the base set and kappa/omega1 on the
    axis; the convention rule converts them as the recipe documents it:
    "kappa" holds rates in kappa units and moves both mechanical frequencies
    to kappa/r; "omega1" converts the base to omega1 units and sets kappa = r.
    Both keep gamma_i/omega_i and the thermal occupancies.  The case's own
    coupling, drive and detuning come from ``FIG4_CASES``.
    """
    p = {f: float(table.meta[f"param.{f}"]) for f in SYSTEM_FIELDS}
    if table.meta.get("recipe.mode") != "branch-cooling":
        for a in table.axes:
            p[a] = float(row[a])
        return p
    p.update(FIG4_CASES[table.meta["recipe.case"]])
    r = float(row["kappa_over_omega1"])
    q1, q2 = p["gamma1"] / p["omega1"], p["gamma2"] / p["omega2"]
    if table.meta["recipe.convention"] == "kappa":
        w = p["kappa"] / r
        p.update(omega1=w, omega2=w, gamma1=q1 * w, gamma2=q2 * w)
    else:
        s = p["omega1"]
        for f in ("delta_c", "omega2", "g1", "g2", "omega_ex", "eta"):
            p[f] /= s
        p.update(omega1=1.0, kappa=r, gamma1=q1, gamma2=q2 * p["omega2"])
    return p


def linearized_params(table: Table, row: dict[str, str]) -> dict:
    """The linearized parameter set of one row of a direct cooling map."""
    lp = {f: _num(table.meta[f"param.{f}"]) for f in LINEARIZED_FIELDS}
    for a in table.axes:
        lp[a] = float(row[a])
    return lp


# ---------------------------------------------------------------------------
# model equations
# ---------------------------------------------------------------------------

def mechanical_state(p: dict, n: float) -> tuple[complex, complex]:
    """Undamped steady mechanical amplitudes at photon number n.

    With b = u + i v, the steady equations
      omega1 b1 + g1 n + Omega e^{i theta} b2 = 0
      omega2 b2 + 4 g2 n Re b2 + Omega e^{-i theta} b1 = 0
    split into real and imaginary parts in the unknowns (u1, v1, u2, v2).
    """
    c, s, om = math.cos(p["theta"]), math.sin(p["theta"]), p["omega_ex"]
    m = np.array([
        [p["omega1"], 0.0, om * c, -om * s],
        [0.0, p["omega1"], om * s, om * c],
        [om * c, om * s, p["omega2"] + 4.0 * p["g2"] * n, 0.0],
        [-om * s, om * c, 0.0, p["omega2"]],
    ])
    u1, v1, u2, v2 = np.linalg.solve(m, [-p["g1"] * n, 0.0, 0.0, 0.0])
    return complex(u1, v1), complex(u2, v2)


def detuning(p: dict, b1: complex, b2: complex) -> float:
    return p["delta_c"] + 2.0 * p["g1"] * b1.real + 4.0 * p["g2"] * b2.real**2


def branch_state(p: dict, n: float):
    """(residual, alpha, beta1, beta2, Delta) of the branch at photon number n;
    alpha has the Lorentzian phase and |alpha|^2 = n."""
    b1, b2 = mechanical_state(p, n)
    delta = detuning(p, b1, b2)
    n_pred = p["eta"]**2 / (p["kappa"]**2 + delta**2)
    residual = abs(n_pred - n) / max(1.0, n)
    raw = -1j * p["eta"] / (p["kappa"] + 1j * delta)
    alpha = raw * math.sqrt(n) / abs(raw) if raw != 0 else complex(math.sqrt(n))
    return residual, alpha, b1, b2, delta


def flow(p: dict, gammas: tuple[float, float], x: np.ndarray) -> np.ndarray:
    """Mean-field flow of (alpha, beta1, beta2) in real coordinates."""
    al, b1, b2 = complex(x[0], x[1]), complex(x[2], x[3]), complex(x[4], x[5])
    n = abs(al)**2
    delta = detuning(p, b1, b2)
    e = complex(math.cos(p["theta"]), math.sin(p["theta"]))
    dal = -(p["kappa"] + 1j * delta) * al - 1j * p["eta"]
    db1 = (-(gammas[0] + 1j * p["omega1"]) * b1 - 1j * p["g1"] * n
           - 1j * p["omega_ex"] * e * b2)
    db2 = (-(gammas[1] + 1j * p["omega2"]) * b2 - 4j * p["g2"] * b2.real * n
           - 1j * p["omega_ex"] * e.conjugate() * b1)
    return np.array([dal.real, dal.imag, db1.real, db1.imag,
                     db2.real, db2.imag])


def fd_max_real(p: dict, gammas, x0: np.ndarray, h: float) -> float:
    scale = np.maximum(1.0, np.abs(x0))
    jac = np.empty((6, 6))
    for k in range(6):
        dx = np.zeros(6)
        dx[k] = h * scale[k]
        jac[:, k] = (flow(p, gammas, x0 + dx)
                     - flow(p, gammas, x0 - dx)) / (2.0 * dx[k])
    return float(np.linalg.eigvals(jac).real.max())


def drift(lp: dict) -> np.ndarray:
    """Drift matrix of the linearized Langevin equations, fluctuation order
    (a, b1, b2, a+, b1+, b2+):
      da/dt  = -(kappa + i Delta) a - i G1 (b1 + b1+) - i G2 (b2 + b2+)
      db1/dt = -(gamma1 + i omega1) b1 - i (G1* a + G1 a+) - i Omega e^{i theta} b2
      db2/dt = -(gamma2 + i omega2~) b2 - i (G2* a + G2 a+) - 2i G22 b2+
               - i Omega e^{-i theta} b1
    and the conjugate equations below them."""
    g1, g2, g22 = complex(lp["g1_eff"]), complex(lp["g2_eff"]), complex(lp["g22"])
    ex = lp["omega_ex"] * complex(math.cos(lp["theta"]), math.sin(lp["theta"]))
    a = np.zeros((6, 6), dtype=complex)
    a[0, 0] = -(lp["kappa"] + 1j * lp["delta_eff"])
    a[0, 1] = a[0, 4] = -1j * g1
    a[0, 2] = a[0, 5] = -1j * g2
    a[1, 1] = -(lp["gamma1"] + 1j * lp["omega1"])
    a[1, 0] = -1j * g1.conjugate()
    a[1, 3] = -1j * g1
    a[1, 2] = -1j * ex
    a[2, 2] = -(lp["gamma2"] + 1j * lp["omega2_tilde"])
    a[2, 0] = -1j * g2.conjugate()
    a[2, 3] = -1j * g2
    a[2, 5] = -2j * g22
    a[2, 1] = -1j * ex.conjugate()
    a[3:, 3:] = a[:3, :3].conj()
    a[3:, :3] = a[:3, 3:].conj()
    return a


def phonons(lp: dict) -> tuple[float, float, float]:
    """(n1f, n2f, largest real part of the drift spectrum) by Bartels-Stewart.

    Bath correlations: vacuum cavity (2 kappa), thermal mechanics; Q is their
    symmetrization.  <b_i+ b_i> = V[b_i+, b_i] - 1/2."""
    a = drift(lp)
    c = np.zeros((6, 6))
    c[0, 3] = 2.0 * lp["kappa"]
    c[1, 4] = 2.0 * lp["gamma1"] * (lp["nbar1"] + 1.0)
    c[2, 5] = 2.0 * lp["gamma2"] * (lp["nbar2"] + 1.0)
    c[4, 1] = 2.0 * lp["gamma1"] * lp["nbar1"]
    c[5, 2] = 2.0 * lp["gamma2"] * lp["nbar2"]
    q = 0.5 * (c + c.T)
    v = scipy.linalg.solve_sylvester(a, a.T, -q)
    return (float(v[4, 1].real) - 0.5, float(v[5, 2].real) - 0.5,
            float(np.linalg.eigvals(a).real.max()))


def branch_linearized(p: dict, n: float, alpha: complex, b2: complex,
                      delta: float) -> dict:
    """Effective linearized parameters of a branch: G1 = g1 alpha,
    G2 = 4 g2 alpha Re b2, G22 = g2 n, omega2~ = omega2 + 2 g2 n."""
    return dict(delta_eff=delta, omega1=p["omega1"],
                omega2_tilde=p["omega2"] + 2.0 * p["g2"] * n,
                g1_eff=p["g1"] * alpha,
                g2_eff=4.0 * p["g2"] * alpha * b2.real,
                g22=p["g2"] * n, omega_ex=p["omega_ex"], theta=p["theta"],
                kappa=p["kappa"], gamma1=p["gamma1"], gamma2=p["gamma2"],
                nbar1=p["nbar1"], nbar2=p["nbar2"])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def branch_counts(table: Table) -> list[tuple[tuple[str, ...], int]]:
    """(axis values, branch count) of every cell."""
    return [(key, sum(1 for r in rows if r["n_p"] != ""))
            for key, rows in table.cells()]


def check_parity(name: str, table: Table) -> Report:
    rep = Report(f"parity:{name}")
    for key, count in branch_counts(table):
        rep.checked += 1
        if count % 2 == 0 or count > 7:
            rep.fail(f"{name} cell {key}: {count} branches")
    return rep


def check_coverage(name: str, table: Table,
                   wanted=frozenset({1, 3, 5, 7})) -> Report:
    rep = Report(f"coverage:{name}", checked=1)
    seen = {count for _, count in branch_counts(table)}
    if not wanted <= seen:
        rep.fail(f"{name}: branch counts {sorted(seen)} lack "
                 f"{sorted(wanted - seen)}")
    return rep


def _sample(rows: list, rng: np.random.Generator, size: int) -> list:
    if len(rows) <= size:
        return rows
    return [rows[i] for i in sorted(rng.choice(len(rows), size, replace=False))]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(b), 1e-300)


def check_branches(name: str, table: Table, rng: np.random.Generator,
                   size: int = SAMPLE) -> list[Report]:
    """Residual, stability sign and (where present) phonon numbers on a
    seeded sample of the branches of a steady-state table."""
    res = Report(f"residual:{name}")
    stab = Report(f"stability:{name}")
    cool = Report(f"cooling:{name}")
    rows = [r for r in table.rows if r["n_p"] != ""]
    for r in rows:
        if r["stable"] == "1" and r["n1f"] != "":
            cool.checked += 1
            if float(r["n1f"]) < 0.0 or float(r["n2f"]) < 0.0:
                cool.fail(f"{name} n_p={r['n_p']}: negative occupation")
    for r in _sample(rows, rng, size):
        p = system_params(table, r)
        n = float(r["n_p"])
        residual, alpha, b1, b2, delta = branch_state(p, n)
        res.checked += 1
        if not residual <= RESIDUAL_TOL:
            res.fail(f"{name} n_p={r['n_p']}: residual {residual:.3e}")
        gammas = (p["gamma1"], p["gamma2"])
        if gammas == (0.0, 0.0):
            gammas = (FALLBACK_DAMPING * p["kappa"],) * 2
        x0 = np.array([alpha.real, alpha.imag, b1.real, b1.imag,
                       b2.real, b2.imag])
        lam = fd_max_real(p, gammas, x0, FD_STEP)
        err = abs(lam - fd_max_real(p, gammas, x0, 2.0 * FD_STEP))
        if abs(lam) <= max(10.0 * err, MARGIN_FLOOR * p["kappa"]):
            stab.skipped += 1
        else:
            stab.checked += 1
            if (lam < 0.0) != (r["stable"] == "1"):
                stab.fail(f"{name} n_p={r['n_p']}: stable={r['stable']} "
                          f"but max Re = {lam:.3e}")
        if r["stable"] == "1" and r["n1f"] != "":
            n1f, n2f, _ = phonons(branch_linearized(p, n, alpha, b2, delta))
            _compare_phonons(cool, name, r, n1f, n2f)
    _limit_skips(stab)
    return [res, stab, cool]


def _limit_skips(rep: Report) -> None:
    """A stability check that skipped more than MAX_SKIPPED of its sample as
    marginal has tested too little to pass."""
    sampled = rep.checked + rep.skipped
    if rep.skipped > MAX_SKIPPED * sampled:
        rep.fail(f"{rep.name}: {rep.skipped} of {sampled} sampled rows "
                 f"skipped as marginal")


def _compare_phonons(rep: Report, name: str, row: dict, n1f: float,
                     n2f: float) -> None:
    rep.checked += 1
    if not (_close(float(row["n1f"]), n1f, PHONON_REL_TOL)
            and _close(float(row["n2f"]), n2f, PHONON_REL_TOL)):
        rep.fail(f"{name} row {row}: Bartels-Stewart gives "
                 f"({n1f:.12g}, {n2f:.12g})")


def check_cooling_map(name: str, table: Table, rng: np.random.Generator,
                      size: int = SAMPLE) -> list[Report]:
    """Sign of every stable row, and phonon numbers and stability flag of a
    seeded sample of rows of a direct cooling map."""
    cool = Report(f"cooling:{name}")
    stab = Report(f"stability:{name}")
    for r in table.rows:
        if r["stable"] == "1":
            cool.checked += 1
            if r["n1f"] == "" or float(r["n1f"]) < 0.0 or float(r["n2f"]) < 0.0:
                cool.fail(f"{name} row {r}: stable row without n >= 0")
    for r in _sample(table.rows, rng, size):
        lp = linearized_params(table, r)
        n1f, n2f, lam = phonons(lp)
        if abs(lam) <= MARGIN_FLOOR * lp["kappa"]:
            stab.skipped += 1
        else:
            stab.checked += 1
            if (lam < 0.0) != (r["stable"] == "1"):
                stab.fail(f"{name} row {r}: stable={r['stable']} but "
                          f"max Re = {lam:.3e}")
        if r["stable"] == "1" and r["n1f"] != "":
            _compare_phonons(cool, name, r, n1f, n2f)
    _limit_skips(stab)
    return [cool, stab]
