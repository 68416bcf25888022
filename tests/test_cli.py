"""Command-line behavior: formats, determinism, exit codes, sidecars."""

import json
import math

import pytest

from halfbound import cli

SQUARE = '{"kind":"SquareWell","params":{"V0":1.0,"a":1.0}}'
SQUARE_FAMILY = '{"kind":"SquareWell","params":{"a":1.0}}'
EXP_FAMILY = '{"kind":"ExponentialWell","params":{"a":1.0}}'


def run(args):
    return cli.main(args)


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
        assert float(first[1]) == pytest.approx(0.016958909069969493, rel=1e-3)

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
        ],
    )
    def test_invalid_input_is_exit_two(self, capsys, argv):
        assert run(argv) == 2

    def test_no_root_is_exit_four(self, capsys):
        assert run(["find-qc", "--potential", SQUARE_FAMILY, "--bracket", "1.7", "2.0"]) == 4
