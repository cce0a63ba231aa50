"""Digests of every file a fixed list of quadmech commands writes.

    python3 scripts/output_digests.py SOURCE_TREE OUT_DIR > digests.txt

Runs each command of ``commands()`` in-process with ``SOURCE_TREE/src``
first on the import path, each writing into its own directory under
OUT_DIR, and prints one ``sha256 exit-code path`` line per written table,
``.gp`` stub and diagnostics sidecar (paths relative to OUT_DIR, sorted).  A
command that writes nothing prints ``- exit-code dir/``.  Two trees give the
same output exactly when their tables, stubs, sidecars and exit codes
agree, so the byte-identity gate between two trees is

    diff <(python3 scripts/output_digests.py A /tmp/a) \\
         <(python3 scripts/output_digests.py B /tmp/b)

and the files under the two OUT_DIRs can then be compared one by one.
Standard library only; the configs are inline below.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
from pathlib import Path

# [system] bases: the multistability point, the two fig4 points (damped),
# the decoupled and quintic degenerations, and the close pairs beside the
# pole of fig2d
SYSTEM_BASES = {
    "multi": dict(delta_c=5.0, g1=0.05, g2=-0.0004, omega_ex=1.0, eta=95.0),
    "fig4q": dict(delta_c=5.0, g1=0.05, g2=-0.0004, omega_ex=1.0, eta=95.0,
                  gamma1=1e-5, gamma2=1e-5, nbar1=300.0, nbar2=300.0),
    "fig4l": dict(delta_c=3.2, g1=0.05, g2=0.0, omega_ex=0.2, eta=56.5,
                  gamma1=1e-5, gamma2=1e-5, nbar1=300.0, nbar2=300.0),
    "decoupled": dict(delta_c=2.0, g1=0.0, g2=0.0, omega_ex=1.0, eta=10.0),
    "quintic": dict(delta_c=5.0, g1=0.0, g2=-0.0004, omega_ex=1.0, eta=95.0),
    "pole": dict(delta_c=3.2, g1=0.05, g2=-0.0004, omega_ex=0.005, eta=56.5,
                 gamma1=2e-5, gamma2=1e-5, nbar1=10.0, nbar2=20.0),
}
SYSTEM_COMMON = dict(kappa=1.0, omega1=5.0, omega2=5.0, theta=math.pi)

# [linearized] bases: stable, unstable, singular (undamped and decoupled)
# and complex couplings
LINEARIZED_BASES = {
    "stable": {},
    "unstable": dict(delta_eff=-1.0),
    "singular": dict(gamma1=0.0, gamma2=0.0, g1_eff=0.0, g2_eff=0.0,
                     g22=0.0, omega_ex=0.0),
    "complex": dict(g1_eff="0.1+0.02j", g22="-0.01+0.004j"),
}
LINEARIZED_COMMON = dict(
    delta_eff=1.0, omega1=1.0, omega2_tilde=1.0, g1_eff=0.1, g2_eff=-0.01,
    g22=-0.01, omega_ex=0.1, theta=math.pi, kappa=0.1, gamma1=2e-6,
    gamma2=2e-6, nbar1=300.0, nbar2=300.0)

SYSTEM_SWEEPS = {
    "sweep1d": [("root-count", ["delta_c 0 8 41"]),
                ("branch-curve", ["delta_c 0 8 101"])],
    "sweep2d": [("stable-count", ["g1 0 0.1 11", "delta_c 0 12 11"])],
}
COOLING_SWEEPS = {
    "sweep1d": ["delta_eff 0.5 1.5 21"],
    "sweep2d": ["g1_eff 0.001 0.2 11", "kappa 0.02 0.5 11"],
}


def _config(section: str, values: dict, sweep=None) -> str:
    lines = [f"[{section}]"] + [f"{k} = {v!r}" if isinstance(v, float)
                                else f"{k} = {v}" for k, v in values.items()]
    if sweep is not None:
        mode, axes = sweep
        lines += ["[sweep]", f"mode = {mode}"]
        lines += [f"axis{i + 1} = {ax}" for i, ax in enumerate(axes)]
    return "\n".join(lines) + "\n"


def commands():
    """(name, argv, config text or None) of every command, in run order."""
    out = []
    for tag in ("fig2a", "fig2b", "fig3a", "fig3c"):
        out.append((f"{tag}_21", ["reproduce", tag, "--set", "points=21",
                                  "--threads", "2"], None))
    out.append(("fig2a_21_serial", ["reproduce", "fig2a", "--set",
                                    "points=21"], None))
    # grids of more than one batch go to the process pool (23x23 is the
    # smallest such plane); the serial twins must write the same tables
    for points in (23, 41):
        out.append((f"fig2a_{points}", ["reproduce", "fig2a", "--set",
                                        f"points={points}", "--threads", "2"],
                    None))
        out.append((f"fig2a_{points}_serial", ["reproduce", "fig2a", "--set",
                                               f"points={points}"], None))
    out.append(("fig5_61_pool", ["reproduce", "fig5", "--set", "points=61",
                                 "--threads", "2"], None))
    out.append(("fig2a_21_oracle_off", ["reproduce", "fig2a", "--set",
                                        "points=21", "--oracle", "off"], None))
    out.append(("fig3c_21_fallback_off", ["reproduce", "fig3c", "--set",
                                          "points=21", "--gamma-fallback",
                                          "off"], None))
    for tag in ("fig2c", "fig2d", "fig3b", "fig3d"):
        out.append((f"{tag}_101", ["reproduce", tag, "--set", "points=101"],
                    None))
    for convention in ("kappa", "omega1"):
        for fallback in ("on", "off"):
            out.append((f"fig4_{convention}_{fallback}",
                        ["reproduce", "fig4", "--convention", convention,
                         "--gamma-fallback", fallback], None))
        # both cases share one batch: split it without the oracle, and at a
        # second ratio count
        out.append((f"fig4_{convention}_oracle_off",
                    ["reproduce", "fig4", "--convention", convention,
                     "--oracle", "off"], None))
        out.append((f"fig4_{convention}_7",
                    ["reproduce", "fig4", "--convention", convention,
                     "--set", "points=7"], None))
    for tag in ("fig5", "fig6", "fig7"):
        for points in (21, 61):
            out.append((f"{tag}_{points}", ["reproduce", tag, "--set",
                                            f"points={points}"], None))
    for name, base in SYSTEM_BASES.items():
        values = {**SYSTEM_COMMON, **base}
        out.append((f"roots_{name}", ["roots"], _config("system", values)))
        for fallback in ("on", "off"):
            out.append((f"branches_{name}_{fallback}",
                        ["branches", "--gamma-fallback", fallback],
                        _config("system", values)))
        if "gamma1" in base:
            out.append((f"branches_{name}_mech_damping",
                        ["branches", "--with-mech-damping", "on"],
                        _config("system", values)))
        for command, sweeps in SYSTEM_SWEEPS.items():
            for mode, axes in sweeps:
                threads = ["--threads", "2"] if command == "sweep2d" else []
                out.append((f"{command}_{mode}_{name}", [command] + threads,
                            _config("system", values, (mode, axes))))
    # a steady sweep whose eta axis crosses zero: the negative cells fail
    out.append(("sweep1d_negative_eta", ["sweep1d"], _config(
        "system", {**SYSTEM_COMMON, **SYSTEM_BASES["fig4q"]},
        ("root-count", ["eta -20 20 5"]))))
    # a drive whose root window eta^2/kappa^2 is subnormal
    out.append(("branches_subnormal_eta", ["branches"], _config(
        "system", {**SYSTEM_COMMON, **SYSTEM_BASES["multi"], "eta": 5e-161})))
    for name, base in LINEARIZED_BASES.items():
        values = {**LINEARIZED_COMMON, **base}
        out.append((f"cool_{name}", ["cool"], _config("linearized", values)))
        for command, axes in COOLING_SWEEPS.items():
            out.append((f"{command}_cooling_{name}", [command], _config(
                "linearized", values, ("cooling", axes))))
    # a cooling sweep whose nbar1 axis crosses zero: the negative cells fail
    out.append(("sweep1d_cooling_negative_nbar1", ["sweep1d"], _config(
        "linearized", LINEARIZED_COMMON, ("cooling", ["nbar1 -2 2 5"]))))
    return out


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    tree, root = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(tree / "src"))
    import quadmech.cli
    if not Path(quadmech.cli.__file__).resolve().is_relative_to(tree):
        print(f"quadmech imports from {quadmech.cli.__file__}, not {tree}",
              file=sys.stderr)
        return 1
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for fmt in ("csv", "json"):
        for name, argv_, text in commands():
            where = root / fmt / name
            where.mkdir(parents=True, exist_ok=True)
            for stale in where.iterdir():
                stale.unlink()
            args = argv_ + ["--out", str(where / f"out.{fmt}"),
                            "--format", fmt]
            if text is not None:
                config = root / "configs" / f"{name}.ini"
                config.parent.mkdir(exist_ok=True)
                config.write_text(text)
                args += ["--config", str(config)]
            with contextlib.redirect_stderr(io.StringIO()):
                code = quadmech.cli.main(args)
            written = sorted(p for p in where.iterdir() if p.is_file())
            rel = where.relative_to(root)
            if not written:
                lines.append(f"- {code} {rel}/")
            lines += [f"{_digest(p)} {code} {p.relative_to(root)}"
                      for p in written]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
