"""Command-line front end: reflection runs, strength/energy scans, critical
points, saturating-state profiles, and the low-energy reference table.

Subcommands
-----------
reflect        one (potential, E) reflection/transmission evaluation -> JSON
scan-q         R at fixed E over a strength grid -> CSV (+ minima sidecar)
scan-e         R at fixed potential over an energy grid -> CSV
find-qc        critical strength inside a bracket -> JSON
hbs-profile    critical strength + sampled zero-energy state -> CSV (+ JSON)
table1         low-energy reflection of the exponential well near its first
               critical strength, 6 strengths x 5 energies -> table/CSV
specfun-check  residuals of special-function identities (debug aid)

All file output is deterministic: fixed scientific formatting with 10
significant digits, LF endings, metadata lines prefixed with '#' carrying the
full potential descriptor and grid settings.  Exit codes: 0 success, 2 invalid
input, 3 numerical failure, 4 no root in range.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import analytic, critical, potentials, scatter, specfun
from ._brent import minimize_scalar

__all__ = ["main"]

_EXIT_INPUT = 2
_EXIT_NUMERICAL = 3
_EXIT_NO_ROOT = 4


def _fmt(x: float) -> str:
    return f"{x:.9e}"


def _load_descriptor(text: str) -> dict:
    """Accept inline JSON or a path to a JSON file."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    if text.startswith("@"):
        text = text[1:]
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    raise potentials.PotentialError(
        f"--potential must be inline JSON or an existing file, got {text!r}"
    )


def _grid_config(args) -> scatter.GridConfig:
    return scatter.GridConfig(step=args.step, n_slices=args.slices)


def _grid_metadata(args) -> dict:
    """Grid settings echoed into every output; ``tail_tol`` is the well's own."""
    return {"step": args.step, "n_slices": args.slices, "tail_tol": args.tail_tol}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_text(meta: dict, header: list[str], rows: list[tuple]) -> str:
    lines = [f"# {k}: {json.dumps(v, sort_keys=True)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _reflection(p: potentials.Potential, E: float, method: str, cfg: scatter.GridConfig) -> scatter.ScatterResult:
    if method == "transfer":
        return scatter.transfer_matrix_rt(p, E, cfg=cfg)
    bd = scatter.integrate_uv(p, E, cfg)
    return scatter.reflection_wronskian(bd)


def _R_at_strengths(family: potentials.PotentialFamily, E: float, method: str, cfg: scatter.GridConfig, qs: list[float]) -> list[float]:
    """R over a list of strengths; the transfer route reduces them in one batch."""
    wells = [family.at(float(q)) for q in qs]
    if method == "transfer":
        return [res.R for res in scatter.transfer_matrix_batch(wells, E, cfg=cfg)]
    return [_reflection(p, E, method, cfg).R for p in wells]


def _R_at_strength(family: potentials.PotentialFamily, E: float, method: str, cfg: scatter.GridConfig, q: float) -> float:
    return _reflection(family.at(float(q)), E, method, cfg).R


def _R_at_energies(p: potentials.Potential, method: str, cfg: scatter.GridConfig, Es: list[float]) -> list[float]:
    """R over a list of energies; the wronskian route integrates them in one batch."""
    if method == "transfer":
        return [_reflection(p, E, method, cfg).R for E in Es]
    return [scatter.reflection_wronskian(bd).R for bd in scatter.integrate_uv_batch(p, Es, cfg)]


def cmd_reflect(args) -> int:
    desc = _load_descriptor(args.potential)
    p = potentials.from_descriptor(desc, tail_tol=args.tail_tol)
    if args.energy <= 0.0:
        raise potentials.PotentialError(f"--energy must be positive, got {args.energy}")
    cfg = _grid_config(args)
    res = _reflection(p, args.energy, args.method, cfg)
    payload = {
        "descriptor": p.descriptor(),
        "E": args.energy,
        "method": res.method,
        "r": [res.r.real, res.r.imag],
        "t": None if res.t is None else [res.t.real, res.t.imag],
        "R": res.R,
        "T": res.T,
        "unitarity_residual": res.unitarity_residual,
        "grid": _grid_metadata(args),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _minima(qs: np.ndarray, Rs: np.ndarray, evaluator) -> list[dict]:
    out = []
    for i in range(1, len(qs) - 1):
        if Rs[i] < Rs[i - 1] and Rs[i] < Rs[i + 1]:
            res = minimize_scalar(evaluator, float(qs[i - 1]), float(qs[i + 1]), xatol=1e-10)
            out.append(
                {
                    "grid_q": float(qs[i]),
                    "grid_R": float(Rs[i]),
                    "refined_q": float(res.x),
                    "refined_R": float(res.fun),
                }
            )
    return out


def cmd_scan_q(args) -> int:
    desc = _load_descriptor(args.potential)
    family = potentials.family_from_descriptor(desc, tail_tol=args.tail_tol)
    if args.energy <= 0.0:
        raise potentials.PotentialError(f"--energy must be positive, got {args.energy}")
    if not (args.q_min < args.q_max) or args.points < 2:
        raise potentials.PotentialError("need q-min < q-max and points >= 2")
    qs = np.linspace(args.q_min, args.q_max, args.points)
    cfg = _grid_config(args)
    Rs = np.asarray(_R_at_strengths(family, args.energy, args.method, cfg, qs.tolist()))
    meta = {
        "descriptor": family.descriptor(),
        "axis": "q",
        "fixed_E": args.energy,
        "method": args.method,
        "grid": _grid_metadata(args),
    }
    text = _csv_text(meta, ["q", "R"], list(zip(qs, Rs)))
    minima = _minima(qs, Rs, functools.partial(_R_at_strength, family, args.energy, args.method, cfg))
    sidecar = json.dumps(
        {"descriptor": family.descriptor(), "fixed_E": args.energy, "minima": minima},
        sort_keys=True,
        indent=2,
    )
    if args.out is None:
        _emit(text + "# minima: " + json.dumps(minima, sort_keys=True) + "\n", None)
    else:
        _emit(text, args.out)
        with open(args.out + ".minima.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(sidecar + "\n")
    return 0


def cmd_scan_e(args) -> int:
    desc = _load_descriptor(args.potential)
    p = potentials.from_descriptor(desc, tail_tol=args.tail_tol)
    if not (0.0 < args.e_min < args.e_max) or args.points < 2:
        raise potentials.PotentialError("need 0 < e-min < e-max and points >= 2")
    if args.log:
        Es = np.geomspace(args.e_min, args.e_max, args.points)
    else:
        Es = np.linspace(args.e_min, args.e_max, args.points)
    cfg = _grid_config(args)
    Rs = _R_at_energies(p, args.method, cfg, Es.tolist())
    meta = {
        "descriptor": p.descriptor(),
        "axis": "E",
        "spacing": "log" if args.log else "linear",
        "method": args.method,
        "grid": _grid_metadata(args),
    }
    _emit(_csv_text(meta, ["E", "R"], list(zip(Es, Rs))), args.out)
    return 0


def cmd_find_qc(args) -> int:
    desc = _load_descriptor(args.potential)
    family = potentials.family_from_descriptor(desc, tail_tol=args.tail_tol)
    cfg = _grid_config(args)
    res = critical.find_critical_q(family, (args.bracket[0], args.bracket[1]), cfg)
    profile = res.profile
    if profile.shape[0] > 1001:
        idx = np.unique(np.linspace(0, profile.shape[0] - 1, 1001).astype(int))
        profile = profile[idx]
    payload = {
        "descriptor": family.descriptor(),
        "bracket": list(args.bracket),
        "q_c": res.q_c,
        "node_count": res.node_count,
        "parity": res.parity,
        "left_residual": res.left_residual,
        "right_residual": res.right_residual,
        "grid": _grid_metadata(args),
        "profile": [[float(x), float(y)] for x, y in profile],
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_hbs_profile(args) -> int:
    desc = _load_descriptor(args.potential)
    family = potentials.family_from_descriptor(desc, tail_tol=args.tail_tol)
    cfg = _grid_config(args)
    res = critical.find_critical_q(family, (args.bracket[0], args.bracket[1]), cfg)
    p = family.at(res.q_c)
    lo, hi = p.support
    xs = res.profile[:, 0]
    psi = res.profile[:, 1]
    vs = np.where((xs >= lo) & (xs <= hi), potentials.evaluate(p, np.clip(xs, lo, hi)), 0.0)
    summary = {
        "q_c": res.q_c,
        "node_count": res.node_count,
        "parity": res.parity,
        "left_residual": res.left_residual,
        "right_residual": res.right_residual,
    }
    meta = {
        "descriptor": family.descriptor(),
        "hbs": summary,
        "grid": _grid_metadata(args),
    }
    text = _csv_text(meta, ["x", "psi", "V"], list(zip(xs, psi, vs)))
    _emit(text, args.out)
    if args.out is not None:
        with open(args.out + ".json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps({"descriptor": family.descriptor(), **summary}, sort_keys=True, indent=2) + "\n")
    return 0


#: Strength grid of the reference table: successive truncations approaching
#: the first critical strength of the exponentially decaying well.
TABLE1_Q = ("2.40", "2.404", "2.4048", "2.40482", "2.404825", "2.4048255")
TABLE1_E = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


def table1_grid() -> list[list[float]]:
    """R(E) of the exponential well (a = 1) on the reference (q, E) grid."""
    grid = []
    for qstr in TABLE1_Q:
        q = float(qstr)
        grid.append([abs(analytic.exp_well_r_exact(E, q * q, 1.0)) ** 2 for E in TABLE1_E])
    return grid


def cmd_table1(args) -> int:
    grid = table1_grid()
    widths = [12] + [13] * len(TABLE1_E)
    head = ["q"] + [f"R({E:.0e})" for E in TABLE1_E]
    lines = ["".join(h.ljust(w) for h, w in zip(head, widths))]
    for qstr, row in zip(TABLE1_Q, grid):
        cells = [qstr.ljust(widths[0])] + [f"{v:.4e}".ljust(w) for v, w in zip(row, widths[1:])]
        lines.append("".join(cells))
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out is not None:
        meta = {
            "descriptor": {"kind": "ExponentialWell", "params": {"a": 1.0}},
            "strengths": list(TABLE1_Q),
            "energies": list(TABLE1_E),
            "method": "exact",
        }
        rows = [(float(q), E, R) for q, row in zip(TABLE1_Q, grid) for E, R in zip(TABLE1_E, row)]
        _emit(_csv_text(meta, ["q", "E", "R"], rows), args.out)
    return 0


def cmd_specfun_check(args) -> int:
    res = specfun.identity_residuals()
    worst = max(res.values())
    for name in sorted(res):
        sys.stdout.write(f"{name}: {res[name]:.3e}\n")
    sys.stdout.write(f"worst: {worst:.3e}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfbound",
        description="Reflection coefficients and half-bound states of 1D attractive wells",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, family=False):
        sp.add_argument(
            "--potential",
            required=True,
            help="potential descriptor: inline JSON or a path to a JSON file"
            + (" (strength parameter free)" if family else ""),
        )
        sp.add_argument("--method", choices=("wronskian", "transfer"), default="wronskian")
        sp.add_argument("--step", type=float, default=None, help="Runge-Kutta step (default min(a,1)/2000)")
        sp.add_argument("--slices", type=int, default=scatter.GridConfig.n_slices,
                        help="transfer-matrix slices, one fourth-order Magnus step each (default %(default)s)")
        sp.add_argument("--tail-tol", type=float, default=potentials.DEFAULT_TAIL_TOL,
                        help="decaying wells are cut where |V| falls to TAIL_TOL times the depth "
                             "(default %(default)s)")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--workers", type=int, default=1, help="accepted for compatibility; no effect (scans run in one process)")

    sp = sub.add_parser("reflect", help="one reflection/transmission evaluation")
    common(sp)
    sp.add_argument("--energy", type=float, required=True)
    sp.set_defaults(fn=cmd_reflect)

    sp = sub.add_parser("scan-q", help="R vs strength at fixed energy")
    common(sp, family=True)
    sp.add_argument("--energy", type=float, required=True)
    sp.add_argument("--q-min", type=float, required=True)
    sp.add_argument("--q-max", type=float, required=True)
    sp.add_argument("--points", type=int, required=True)
    sp.set_defaults(fn=cmd_scan_q, method="transfer")

    sp = sub.add_parser("scan-e", help="R vs energy for one potential")
    common(sp)
    sp.add_argument("--e-min", type=float, required=True)
    sp.add_argument("--e-max", type=float, required=True)
    sp.add_argument("--points", type=int, required=True)
    sp.add_argument("--log", action="store_true", help="logarithmic energy grid")
    sp.set_defaults(fn=cmd_scan_e)

    sp = sub.add_parser("find-qc", help="locate a critical strength in a bracket")
    common(sp, family=True)
    sp.add_argument("--bracket", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    sp.set_defaults(fn=cmd_find_qc)

    sp = sub.add_parser("hbs-profile", help="critical strength plus sampled zero-energy state")
    common(sp, family=True)
    sp.add_argument("--bracket", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    sp.set_defaults(fn=cmd_hbs_profile)

    sp = sub.add_parser("table1", help="low-energy reflection table near the first critical strength")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_table1)

    sp = sub.add_parser("specfun-check", help="special-function identity residuals")
    sp.set_defaults(fn=cmd_specfun_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", 0) < 0:  # accepted for compatibility, without effect
            raise ValueError(f"--workers must be >= 0, got {args.workers}")
        return args.fn(args)
    except critical.NoRootError as e:
        sys.stderr.write(f"error: {e}\n")
        return _EXIT_NO_ROOT
    except (potentials.PotentialError, analytic.ValidityError, json.JSONDecodeError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return _EXIT_INPUT
    except (ArithmeticError, scatter.IntegrationError) as e:
        sys.stderr.write(f"error: {e}\n")
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
