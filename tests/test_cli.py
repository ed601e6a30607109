import json
import subprocess
import sys

import numpy as np
import pytest

from modeset import (FBetaDensity, PointCloud, RngStream, compute_confidence_set,
                     sample_uniform, scan_region)
from modeset.cli import main


@pytest.fixture
def data_1000(tmp_path):
    path = tmp_path / "data.txt"
    values = FBetaDensity(1.0).sample(RngStream(91, 0), 1000)
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return path


def _write_lines(tmp_path, name, values):
    path = tmp_path / name
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return path


def test_ci_m1_json_output(data_1000, capsys):
    code = main(["ci", "--method", "m1", "--alpha", "0.05",
                 "--input", str(data_1000)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"intervals", "width", "alpha", "method"}
    assert payload["method"] == "m1"
    assert len(payload["intervals"]) == 1
    lo, hi = payload["intervals"][0]
    assert lo < hi
    assert payload["width"] == pytest.approx(hi - lo)


def test_ci_m1_too_small_exits_3(tmp_path, capsys):
    path = _write_lines(tmp_path, "tiny.txt", range(16))
    code = main(["ci", "--method", "m1", "--input", str(path)])
    assert code == 3
    assert "sample too small" in capsys.readouterr().err


def test_ci_m3_on_tied_data_exits_3(tmp_path, capsys):
    # rounding makes an evaluation point coincide with the pilot
    values = np.round(FBetaDensity(1.0).sample(RngStream(94, 0), 400), 1)
    path = _write_lines(tmp_path, "tied.txt", values)
    assert main(["ci", "--method", "m3", "--input", str(path)]) == 3
    assert "coincides" in capsys.readouterr().err


def test_ci_m3p_rho_validation_exits_2(data_1000, capsys):
    code = main(["ci", "--method", "m3p", "--rho", "1.0",
                 "--input", str(data_1000)])
    assert code == 2
    assert "rho must exceed 1" in capsys.readouterr().err


def test_ci_m3p_large_rho_returns_the_whole_line(tmp_path, capsys):
    values = RngStream(95, 0).generator().normal(size=3000)
    path = _write_lines(tmp_path, "normal.txt", values)
    assert main(["ci", "--method", "m3p", "--rho", "50", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["intervals"] == [[-np.inf, np.inf]]


@pytest.mark.parametrize("argv, message", [
    (["mode2d", "--gamma", "inf", "--res", "4"], "gamma must be positive and finite"),
    (["mode2d", "--gamma", "2", "--box", "nan:1,0:1"], "box sides must be finite"),
    (["mode2d", "--gamma", "2", "--box", "0:inf,0:1"], "box sides must be finite"),
    (["ci", "--method", "m2", "--h", "inf"], "bandwidth h must be positive and finite"),
    (["ci", "--method", "m2a", "--h-grid-min", "0.1", "--h-grid-max", "inf"],
     "0 < min <= max < inf"),
    (["ci", "--method", "m3p", "--rho", "inf"], "rho must exceed 1 and be finite"),
])
def test_non_finite_options_exit_2(tmp_path, capsys, argv, message):
    rng = RngStream(96, 0).generator()
    if argv[0] == "mode2d":
        path = _write_lines(tmp_path, "p.csv", [f"{x!r},{y!r}" for x, y in
                                                rng.normal(size=(300, 2)).tolist()])
    else:
        path = _write_lines(tmp_path, "x.txt", rng.normal(size=300))
    assert main(argv + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert not captured.out


def test_ci_m2_requires_bandwidth(data_1000, capsys):
    code = main(["ci", "--method", "m2", "--input", str(data_1000)])
    assert code == 2
    assert "--h" in capsys.readouterr().err


def test_ci_m2_and_m2a_and_m3_run(data_1000, capsys):
    for argv in (
        ["ci", "--method", "m2", "--h", "0.25", "--input", str(data_1000)],
        ["ci", "--method", "m2a", "--h-grid-min", "0.05", "--h-grid-max", "1.0",
         "--h-grid-size", "16", "--input", str(data_1000)],
        ["ci", "--method", "m3", "--input", str(data_1000)],
        ["ci", "--method", "m3p", "--rho", "2.5", "--input", str(data_1000)],
    ):
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["width"] > 0


@pytest.mark.parametrize("method", ["m2a", "m3p"])
def test_ci_pilot_error_names_the_sample_size(tmp_path, capsys, method):
    # the pilot half of a 2-point sample has 1 point; the message says so
    path = _write_lines(tmp_path, "two.txt", [0.1, 0.7])
    assert main(["ci", "--method", method, "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert "at least 3 points, got 1" in err
    assert "2-point" in err


@pytest.mark.parametrize("method, flag, value", [
    ("m2a", "--h", "-1"),
    ("m1", "--h", "0.25"),
    ("m2", "--h-grid-min", "0.05"),
    ("m3", "--h-grid-max", "1.0"),
    ("m3p", "--h-grid-size", "16"),
    ("m3", "--rho", "0.5"),
    ("m2a", "--rho", "2.5"),
    ("m1", "--pilot-r", "0"),
    ("m1", "--split-seed", "7"),
])
def test_ci_rejects_flags_the_method_does_not_take(data_1000, capsys, method, flag, value):
    assert main(["ci", "--method", method, flag, value, "--input", str(data_1000)]) == 2
    err = capsys.readouterr().err
    assert flag in err and method in err


def test_ci_pilot_r(data_1000, capsys):
    values = np.loadtxt(data_1000)
    for method in ("m2a", "m3"):
        assert main(["ci", "--method", method, "--pilot-r", "10",
                     "--input", str(data_1000)]) == 0
        ref = compute_confidence_set(values, 0.05, method, pilot_r=10)
        assert json.loads(capsys.readouterr().out)["intervals"] == [
            [lo, hi] for lo, hi in ref.intervals]
    assert main(["ci", "--method", "m2a", "--pilot-r", "0", "--input", str(data_1000)]) == 2
    assert "positive integer" in capsys.readouterr().err
    # the pilot half has 500 points, too few for a window of 2 * 250 + 1
    assert main(["ci", "--method", "m3", "--pilot-r", "250", "--input", str(data_1000)]) == 3
    assert "needs n >= 501" in capsys.readouterr().err


def test_ci_m2a_grid_size_needs_bounds(data_1000, capsys):
    assert main(["ci", "--method", "m2a", "--h-grid-size", "16",
                 "--input", str(data_1000)]) == 2
    assert "--h-grid-min and --h-grid-max" in capsys.readouterr().err


def test_ci_csv_format(data_1000, capsys):
    assert main(["ci", "--method", "m1", "--format", "csv",
                 "--input", str(data_1000)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "lo,hi"
    assert len(lines) == 2


def test_ci_missing_file_exits_2(capsys):
    assert main(["ci", "--method", "m1", "--input", "/nonexistent.txt"]) == 2


def test_ci_bad_alpha_exits_2(data_1000, capsys):
    assert main(["ci", "--alpha", "1.2", "--input", str(data_1000)]) == 2


def test_ci_non_numeric_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\nnot-a-number\n")
    assert main(["ci", "--method", "m1", "--input", str(path)]) == 2


def test_simulate_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["simulate", "--methods", "m1", "--n", "200", "--beta", "1",
            "--reps", "10", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("method,n,beta,alpha,reps,coverage")


def test_simulate_stdout_and_grid(tmp_path, capsys):
    argv = ["simulate", "--methods", "m1,m2", "--n", "200,400", "--beta",
            "0.5,1", "--reps", "4", "--seed", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 2 * 2 * 2  # header + one row per cell


def test_simulate_emit_widths(tmp_path, capsys):
    widths = tmp_path / "w.csv"
    argv = ["simulate", "--methods", "m1", "--n", "200", "--beta", "1",
            "--reps", "5", "--seed", "7", "--out", str(tmp_path / "r.csv"),
            "--emit-widths", str(widths)]
    assert main(argv) == 0
    lines = widths.read_text().strip().split("\n")
    assert lines[0] == "method,n,beta,alpha,rep,width"
    assert len(lines) == 6


def test_simulate_unknown_method_exits_2(capsys):
    assert main(["simulate", "--methods", "m9", "--reps", "2"]) == 2


@pytest.mark.parametrize("beta", ["200", "1000"])
def test_simulate_large_beta(capsys, beta):
    # beta**beta overflows a float above beta ~ 143
    assert main(["simulate", "--methods", "m1", "--n", "100", "--beta", beta,
                 "--reps", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"m1,100,{float(beta)},")


def test_mode2d_scan(tmp_path, capsys):
    gen_u = sample_uniform(RngStream(92, 0), 400)
    r = np.sqrt(gen_u[:200])
    ang = 2 * np.pi * gen_u[200:]
    pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    path = tmp_path / "points.csv"
    path.write_text("\n".join(f"{x},{y}" for x, y in pts) + "\n")
    mask_path = tmp_path / "mask.csv"
    code = main(["mode2d", "--gamma", "2", "--alpha", "0.05",
                 "--input", str(path), "--box=-1:1,-1:1",
                 "--res", "3", "--out", str(mask_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cells"] == 9
    assert summary["resolution"] == [3, 3]
    lines = mask_path.read_text().strip().split("\n")
    assert lines[0] == "x0,x1,in_set"
    assert len(lines) == 10
    # the coordinates are plain numbers: the cell centres in index order
    table = np.loadtxt(mask_path, delimiter=",", skiprows=1)
    grid = scan_region(PointCloud.from_points(pts, 2.0), [(-1, 1), (-1, 1)], 3, 0.05)
    assert np.array_equal(table[:, 0], np.repeat(grid.centers(0), 3))
    assert np.array_equal(table[:, 1], np.tile(grid.centers(1), 3))
    assert np.array_equal(table[:, 2], grid.mask.ravel())


def test_mode2d_does_not_offer_m2(tmp_path, capsys):
    # m2 needs a bandwidth, which mode2d has no flag for
    path = _write_lines(tmp_path, "p.csv", ["0.0,0.0", "1.0,1.0"])
    with pytest.raises(SystemExit) as exc:
        main(["mode2d", "--gamma", "2", "--method", "m2", "--input", str(path)])
    assert exc.value.code == 2
    assert "invalid choice: 'm2'" in capsys.readouterr().err


def test_mode2d_auto_box_to_stdout(tmp_path, capsys):
    gen = RngStream(93, 0).generator()
    pts = gen.normal(size=(120, 2))
    path = tmp_path / "p.csv"
    path.write_text("\n".join(f"{x},{y}" for x, y in pts) + "\n")
    code = main(["mode2d", "--gamma", "2", "--input", str(path), "--res", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("x0,x1,in_set")
    assert json.loads(captured.err.strip().split("\n")[-1])["cells"] == 4


def test_mode2d_bad_box_exits_2(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("0.0,0.0\n1.0,1.0\n")
    assert main(["mode2d", "--gamma", "2", "--input", str(path),
                 "--box", "nonsense", "--res", "2"]) == 2


def test_mode2d_overflowing_transform_exits_2(tmp_path, capsys):
    path = _write_lines(tmp_path, "p.csv", ["1e200,1e200"] * 100)
    assert main(["mode2d", "--gamma", "2", "--input", str(path),
                 "--box=-1:1,-1:1", "--res", "2"]) == 2
    assert "finite" in capsys.readouterr().err


def test_mode2d_too_few_points_exits_3(tmp_path, capsys):
    # the spacing interval has no usable level below 32 points
    pts = RngStream(94, 0).generator().normal(size=(32, 2)).tolist()
    lines = [f"{x!r},{y!r}" for x, y in pts]
    path = _write_lines(tmp_path, "p.csv", lines[:31])
    assert main(["mode2d", "--gamma", "2", "--input", str(path), "--res", "2"]) == 3
    assert "sample too small" in capsys.readouterr().err
    path = _write_lines(tmp_path, "p.csv", lines)
    assert main(["mode2d", "--gamma", "2", "--input", str(path), "--res", "2"]) == 0


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "modeset", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "ci" in proc.stdout and "simulate" in proc.stdout


def test_simulate_workers_flag_matches_serial(tmp_path, capsys):
    # the n list is unsorted on purpose: the shared draw is taken at max(n)
    base = ["simulate", "--methods", "m1,m2,m2a", "--n", "300,120", "--beta", "1,4",
            "--reps", "8", "--seed", "5"]
    outputs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"report{workers}.csv"
        widths = tmp_path / f"widths{workers}.csv"
        assert main(base + ["--out", str(out), "--emit-widths", str(widths),
                            "--workers", workers]) == 0
        outputs[workers] = (out.read_bytes(), widths.read_bytes())
    capsys.readouterr()
    assert outputs["1"] == outputs["2"]
    assert len(outputs["1"][0].decode().strip().split("\n")) == 1 + 3 * 2 * 2


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_simulate_rejects_workers_below_one(capsys, monkeypatch, workers):
    # the count is checked before any replication runs
    monkeypatch.setattr("modeset.sim._run_replication", None)
    assert main(["simulate", "--methods", "m1", "--n", "200", "--beta", "1",
                 "--reps", "2", "--workers", workers]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
