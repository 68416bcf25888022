"""Command-line behavior: formats, determinism, exit codes, sidecars."""

import functools
import json
import math
import os
import subprocess
import sys

import pytest

from halfbound import cli, critical, potentials, scatter

SQUARE = '{"kind":"SquareWell","params":{"V0":1.0,"a":1.0}}'
SQUARE_FAMILY = '{"kind":"SquareWell","params":{"a":1.0}}'
EXP_FAMILY = '{"kind":"ExponentialWell","params":{"a":1.0}}'
SIN2_FAMILY = '{"kind":"Sin2Multiwell","params":{"a":1.0,"m":2}}'


def run(args):
    """The exit code of ``halfbound args``, argparse's usage errors (SystemExit) included."""
    try:
        return cli.main(args)
    except SystemExit as e:
        return e.code


#: The directory that holds the ``halfbound`` package under test.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_python(code, *args, cwd):
    """A fresh interpreter running ``code`` with ``args``, importing halfbound from SRC."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )


class TestReflect:
    def test_json_payload(self, capsys):
        assert run(["reflect", "--potential", SQUARE, "--energy", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["R"] == pytest.approx(0.011724431718800962, abs=1e-6)
        assert out["method"] == "wronskian"
        assert out["descriptor"]["kind"] == "SquareWell"
        assert out["R"] + out["T"] == pytest.approx(1.0, abs=1e-12)
        assert out["grid"]["tail_tol"] == 1e-12

    def test_transfer_method_reports_t(self, capsys):
        assert run(["reflect", "--potential", SQUARE, "--energy", "1.0", "--method", "transfer"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "transfer"
        assert out["t"] is not None
        assert out["unitarity_residual"] <= 1e-8

    def test_potential_from_file(self, tmp_path, capsys):
        f = tmp_path / "well.json"
        f.write_text(SQUARE, encoding="utf-8")
        assert run(["reflect", "--potential", str(f), "--energy", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["R"] == pytest.approx(0.011724431718800962, abs=1e-6)

    def test_out_file(self, tmp_path):
        f = tmp_path / "res.json"
        assert run(["reflect", "--potential", SQUARE, "--energy", "1.0", "--out", str(f)]) == 0
        out = json.loads(f.read_text(encoding="utf-8"))
        assert out["E"] == 1.0


class TestScanQ:
    def _scan(self, out, workers="1"):
        return run(
            [
                "scan-q",
                "--potential", SQUARE_FAMILY,
                "--energy", "0.01",
                "--q-min", "1.4",
                "--q-max", "1.8",
                "--points", "21",
                "--workers", workers,
                "--out", str(out),
            ]
        )

    def test_csv_shape_and_metadata(self, tmp_path):
        f = tmp_path / "scan.csv"
        assert self._scan(f) == 0
        lines = f.read_text(encoding="utf-8").splitlines()
        meta = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "q,R"
        assert len(body) == 22  # header + 21 rows
        assert any("descriptor" in m and "SquareWell" in m for m in meta)
        assert any(m.startswith("# axis:") and '"q"' in m for m in meta)
        # fixed-width scientific: 10 significant digits
        q0, R0 = body[1].split(",")
        assert "e" in q0 and len(q0.split("e")[0].replace("-", "").replace(".", "")) == 10

    def test_deterministic_across_workers(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self._scan(a, workers="1") == 0
        assert self._scan(b, workers="3") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_metadata_has_default_slices(self, tmp_path):
        f = tmp_path / "scan.csv"
        assert self._scan(f) == 0
        grid = [l for l in f.read_text(encoding="utf-8").splitlines() if l.startswith("# grid: ")]
        assert json.loads(grid[0][len("# grid: "):])["n_slices"] == 1000

    def test_minima_sidecar(self, tmp_path):
        f = tmp_path / "scan.csv"
        assert self._scan(f) == 0
        side = json.loads((tmp_path / "scan.csv.minima.json").read_text(encoding="utf-8"))
        assert len(side["minima"]) == 1
        m = side["minima"][0]
        # transmission resonance of the finite-E square well:
        # q = sqrt((pi/2)^2 - E)
        assert m["refined_q"] == pytest.approx(math.sqrt((math.pi / 2) ** 2 - 0.01), abs=1e-6)
        assert m["refined_R"] < 1e-12
        assert m["refined_R"] <= m["grid_R"]

    @pytest.mark.parametrize("method", ["transfer", "wronskian"])
    @pytest.mark.parametrize("desc, qs", [(EXP_FAMILY, ("0.7", "6.0")), (SIN2_FAMILY, ("1.3", "7.0"))])
    @pytest.mark.parametrize("E", [0.01, 0.1])
    def test_grid_matches_per_well_calls(self, monkeypatch, capsys, method, desc, qs, E):
        # one sampled well scaled by depth ratios gives each member well's R to rounding
        monkeypatch.setattr(cli, "_fmt", lambda x: repr(float(x)))
        argv = ["scan-q", "--potential", desc, "--energy", str(E), "--q-min", qs[0], "--q-max", qs[1],
                "--points", "25", "--method", method]
        assert run(argv) == 0
        body = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1:]
        family = potentials.family_from_descriptor(desc)
        cfg = scatter.GridConfig()
        for q, R in (map(float, line.split(",")) for line in body):
            p = family.at(q)
            ref = (scatter.transfer_matrix_rt(p, E) if method == "transfer"
                   else scatter.reflection_wronskian(scatter.integrate_uv(p, E, cfg)))
            assert abs(R - ref.R) <= 1e-12 * ref.R

    def test_lf_line_endings(self, tmp_path):
        f = tmp_path / "scan.csv"
        assert self._scan(f) == 0
        raw = f.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestScanE:
    def test_log_grid_monotone_near_critical(self, capsys):
        # at the first critical strength of the exponential well, R(E)
        # decreases as E drops
        V0 = 2.404825557695773**2
        desc = json.dumps({"kind": "ExponentialWell", "params": {"V0": V0, "a": 1.0}})
        assert (
            run(
                [
                    "scan-e",
                    "--potential", desc,
                    "--e-min", "1e-6",
                    "--e-max", "1e-3",
                    "--points", "4",
                    "--log",
                ]
            )
            == 0
        )
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
        Es = [r[0] for r in rows]
        Rs = [r[1] for r in rows]
        assert Es == sorted(Es)
        assert all(a < b for a, b in zip(Rs, Rs[1:]))
        assert Rs[0] < 1e-3


    def test_deterministic_across_workers(self, tmp_path):
        desc = json.dumps({"kind": "SquareWell", "params": {"V0": 2.0, "a": 1.0}})
        outs = []
        for workers in ("1", "2"):
            f = tmp_path / f"scan-{workers}.csv"
            argv = ["scan-e", "--potential", desc, "--e-min", "1e-4", "--e-max", "1", "--points", "6", "--log"]
            assert run(argv + ["--workers", workers, "--out", str(f)]) == 0
            outs.append(f.read_bytes())
        assert outs[0] == outs[1]


class TestFindQc:
    def test_json_result(self, capsys):
        assert run(["find-qc", "--potential", EXP_FAMILY, "--bracket", "2.2", "2.6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["q_c"] == pytest.approx(2.404825557695773, abs=1e-8)
        assert out["node_count"] == 1
        assert out["parity"] == "odd"
        assert len(out["profile"]) <= 1001
        # the search runs RK4 only, so the echo holds no slice count
        assert out["grid"] == {"step": None, "tail_tol": 1e-12}

    def test_no_root_exit_code(self, capsys):
        code = run(["find-qc", "--potential", SQUARE_FAMILY, "--bracket", "1.7", "2.0"])
        assert code == 4


class TestHbsProfile:
    def test_csv_and_sidecar(self, tmp_path):
        f = tmp_path / "prof.csv"
        assert (
            run(
                [
                    "hbs-profile",
                    "--potential", SQUARE_FAMILY,
                    "--bracket", "1.4", "1.8",
                    "--out", str(f),
                ]
            )
            == 0
        )
        lines = f.read_text(encoding="utf-8").splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "x,psi,V"
        assert len(body) > 100
        side = json.loads((tmp_path / "prof.csv.json").read_text(encoding="utf-8"))
        assert side["q_c"] == pytest.approx(math.pi / 2.0, abs=1e-8)
        assert side["parity"] == "odd"


class TestTable1:
    def test_grid_and_timing(self, capsys):
        import time

        t0 = time.time()
        assert run(["table1"]) == 0
        assert time.time() - t0 < 60.0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 7  # header + 6 strengths
        assert out[0].split()[0] == "q"
        first = out[1].split()
        assert first[0] == "2.40"
        assert float(first[1]) == pytest.approx(0.016958909069969493, rel=1e-3, abs=0)

    def test_csv_output(self, tmp_path):
        f = tmp_path / "t1.csv"
        assert run(["table1", "--out", str(f)]) == 0
        body = [l for l in f.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        assert body[0] == "q,E,R"
        assert len(body) == 31  # header + 30 entries


class TestSpecfunCheck:
    def test_reports_small_residuals(self, capsys):
        assert run(["specfun-check"]) == 0
        out = capsys.readouterr().out
        assert "worst:" in out
        worst = float(out.strip().splitlines()[-1].split()[-1])
        assert worst < 1e-10


#: Every subcommand's option strings.  The grid options go only where a run
#: reads them: find-qc and hbs-profile search on the RK4 route alone, so they
#: take no --method or --slices.  --workers has no effect anywhere; it stays on
#: the two scans only because the benchmark's energy-scan and strength-scan
#: classes (perfbench/workloads.py) pass it.
OPTIONS = {
    "reflect": {"--potential", "--step", "--tail-tol", "--out", "--method", "--slices", "--energy"},
    "scan-q": {"--potential", "--step", "--tail-tol", "--out", "--method", "--slices", "--workers",
               "--energy", "--q-min", "--q-max", "--points"},
    "scan-e": {"--potential", "--step", "--tail-tol", "--out", "--method", "--slices", "--workers",
               "--e-min", "--e-max", "--points", "--log"},
    "find-qc": {"--potential", "--step", "--tail-tol", "--out", "--bracket"},
    "hbs-profile": {"--potential", "--step", "--tail-tol", "--out", "--bracket"},
    "table1": {"--out"},
    "specfun-check": set(),
}


def test_each_subcommand_takes_only_its_options():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    got = {
        name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }
    assert got == OPTIONS


class TestExitCodes:
    def test_bad_kind_is_input_error(self, capsys):
        assert run(["reflect", "--potential", '{"kind":"Nope","params":{}}', "--energy", "1"]) == 2

    def test_bad_json_is_input_error(self, capsys):
        assert run(["reflect", "--potential", "{not json", "--energy", "1"]) == 2

    def test_missing_file_is_input_error(self, capsys):
        assert run(["reflect", "--potential", "no/such/file.json", "--energy", "1"]) == 2

    def test_negative_energy_is_input_error(self, capsys):
        assert run(["reflect", "--potential", SQUARE, "--energy", "-1"]) == 2

    def test_delta_numeric_is_input_error(self, capsys):
        desc = '{"kind":"DeltaWell","params":{"lambda":1.0}}'
        assert run(["reflect", "--potential", desc, "--energy", "1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            # a non-positive step on the shooting path
            ["find-qc", "--potential", SQUARE_FAMILY, "--bracket", "1.4", "1.8", "--step", "0"],
            ["find-qc", "--potential", SQUARE_FAMILY, "--bracket", "1.4", "1.8", "--step", "-0.01"],
            # strengths below the family's floor
            ["scan-q", "--potential", SQUARE_FAMILY, "--energy", "0.01", "--q-min", "-2", "--q-max", "-1",
             "--points", "5"],
            # a strength knob the kind does not take
            ["find-qc", "--potential", '{"kind":"SquareWell","params":{"a":1,"nu":7}}', "--bracket", "1.4", "1.8"],
            # no transfer-matrix slices
            ["scan-q", "--potential", SQUARE_FAMILY, "--energy", "0.01", "--q-min", "1.4", "--q-max", "1.8",
             "--points", "5", "--slices", "0"],
            ["reflect", "--potential", SQUARE, "--energy", "1.0", "--method", "transfer", "--slices", "0"],
            # a negative worker count
            ["scan-q", "--potential", SQUARE_FAMILY, "--energy", "0.01", "--q-min", "1.4", "--q-max", "1.8",
             "--points", "5", "--workers", "-1"],
            ["scan-e", "--potential", SQUARE, "--e-min", "0.1", "--e-max", "1", "--points", "5", "--workers", "-2"],
            # non-finite energies, on both routes
            ["reflect", "--potential", SQUARE, "--energy", "nan"],
            ["reflect", "--potential", SQUARE, "--energy", "nan", "--method", "transfer"],
            ["reflect", "--potential", SQUARE, "--energy", "inf"],
            ["reflect", "--potential", SQUARE, "--energy", "inf", "--method", "transfer"],
            ["scan-q", "--potential", SQUARE_FAMILY, "--energy", "nan", "--q-min", "1.4", "--q-max", "1.8",
             "--points", "5"],
            ["scan-q", "--potential", SQUARE_FAMILY, "--energy", "inf", "--q-min", "1.4", "--q-max", "1.8",
             "--points", "5", "--method", "wronskian"],
            ["scan-e", "--potential", SQUARE, "--e-min", "0.1", "--e-max", "inf", "--points", "5"],
            # grid settings outside their ranges, whichever route the run takes
            ["reflect", "--potential", SQUARE, "--energy", "1.0", "--method", "transfer", "--step", "-1"],
            ["reflect", "--potential", SQUARE, "--energy", "1.0", "--step", "inf"],
            ["reflect", "--potential", SQUARE, "--energy", "1.0", "--slices", "0"],
            # a non-finite strength range
            ["scan-q", "--potential", SQUARE_FAMILY, "--energy", "0.1", "--q-min", "1", "--q-max", "inf",
             "--points", "5"],
            # options a subcommand does not take: the critical search runs RK4 only, and reflect has no pool
            ["find-qc", "--potential", SQUARE_FAMILY, "--bracket", "1.4", "1.8", "--method", "transfer"],
            ["find-qc", "--potential", SQUARE_FAMILY, "--bracket", "1.4", "1.8", "--slices", "7"],
            ["hbs-profile", "--potential", SQUARE_FAMILY, "--bracket", "1.4", "1.8", "--method", "transfer"],
            ["hbs-profile", "--potential", SQUARE_FAMILY, "--bracket", "1.4", "1.8", "--workers", "2"],
            ["reflect", "--potential", SQUARE, "--energy", "1.0", "--workers", "2"],
            # a bracket reaching below the family's floor (nu = 1) is bad input, not a missing root
            ["find-qc", "--potential", '{"kind":"SolitonWell","params":{}}', "--bracket", "0.5", "2.5"],
        ],
    )
    def test_invalid_input_is_exit_two(self, capsys, argv):
        assert run(argv) == 2

    def test_no_root_is_exit_four(self, capsys):
        assert run(["find-qc", "--potential", SQUARE_FAMILY, "--bracket", "1.7", "2.0"]) == 4

    def test_unconverged_root_is_exit_three(self, monkeypatch, capsys):
        monkeypatch.setattr(critical, "brentq", functools.partial(critical.brentq, maxiter=3))
        assert run(["find-qc", "--potential", SQUARE_FAMILY, "--bracket", "1.4", "1.8"]) == 3
        assert "not converged" in capsys.readouterr().err

    def test_unconverged_minimum_is_exit_three(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "minimize_scalar", functools.partial(cli.minimize_scalar, maxfun=3))
        argv = ["scan-q", "--potential", SQUARE_FAMILY, "--energy", "0.01", "--q-min", "1.4", "--q-max", "1.8",
                "--points", "21", "--out", str(tmp_path / "scan.csv")]
        assert run(argv) == 3
        assert "not converged" in capsys.readouterr().err
        assert not (tmp_path / "scan.csv.minima.json").exists()


#: Runs ``python -m halfbound.cli`` with every ``scipy`` import made to fail.
NO_SCIPY_CLI = """
import runpy
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not a runtime dependency")


sys.meta_path.insert(0, BlockScipy())
runpy.run_module("halfbound.cli", run_name="__main__", alter_sys=True)
"""


class TestNumpyOnlyRuntime:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table1"],
            ["find-qc", "--potential", SQUARE_FAMILY, "--bracket", "1.4", "1.8"],
            ["scan-q", "--potential", SQUARE_FAMILY, "--energy", "0.01", "--q-min", "1.4", "--q-max", "1.8",
             "--points", "20", "--out", "scan.csv"],
        ],
    )
    def test_cli_runs_without_scipy(self, tmp_path, argv):
        res = run_python(NO_SCIPY_CLI, *argv, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        if argv[0] == "scan-q":
            side = json.loads((tmp_path / "scan.csv.minima.json").read_text(encoding="utf-8"))
            assert len(side["minima"]) == 1

    def test_import_loads_no_scipy(self, tmp_path):
        code = "import sys, halfbound.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        res = run_python(code, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"
