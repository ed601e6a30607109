import hashlib
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import modeset
from modeset import (FBetaDensity, PointCloud, RngStream, compute_confidence_set,
                     sample_uniform, scan_region)
from modeset import cli
from modeset.cli import _read_floats, main
from modeset.methods import METHOD_CODES, METHOD_OPTIONS, SCAN_CODES, run_method


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

    def strict(name):
        raise ValueError(f"{name} is not JSON")

    # unbounded endpoints and the width are null, as JSON.stringify writes them
    payload = json.loads(capsys.readouterr().out, parse_constant=strict)
    assert payload["intervals"] == [[None, None]]
    assert payload["width"] is None
    # the CSV form still writes the endpoints as floats
    assert main(["ci", "--method", "m3p", "--rho", "50", "--format", "csv",
                 "--input", str(path)]) == 0
    assert capsys.readouterr().out == "lo,hi\n-inf,inf\n"


def test_ci_m3p_overflowing_bracket_returns_the_whole_line(tmp_path, capsys):
    # finite data near 1e300: widening the m3p bracket at rho 30 overflows
    # before it clears the cutoff, which once left NaN endpoints and exit 2
    values = np.random.default_rng(1).normal(size=200) * 1e300
    path = _write_lines(tmp_path, "huge.txt", values)
    assert main(["ci", "--method", "m3p", "--rho", "30", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["intervals"] == [[None, None]]


@pytest.mark.parametrize("argv, message", [
    (["mode2d", "--gamma", "inf", "--res", "4"], "gamma must be positive and finite"),
    (["mode2d", "--gamma", "2", "--box", "nan:1,0:1"], "box sides must be finite"),
    (["mode2d", "--gamma", "2", "--box", "0:inf,0:1"], "box sides must be finite"),
    (["ci", "--method", "m2", "--h", "inf"], "bandwidth h must be positive and finite"),
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
    assert capsys.readouterr().err == "modeset ci: method m2 requires a fixed bandwidth h\n"


@pytest.mark.parametrize("argv, message", [
    (["--method", "m3", "--split-seed", "-1"],
     "seed must fit in an unsigned 64-bit integer, got -1"),
])
def test_ci_option_errors_name_the_value(data_1000, capsys, argv, message):
    assert main(["ci", "--input", str(data_1000)] + argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"modeset ci: {message}\n")


def test_ci_m2_and_m2a_and_m3_run(data_1000, capsys):
    for argv in (  # h = 0.1 would exclude nothing on these data, giving a null width
        ["ci", "--method", "m2", "--h", "0.75", "--input", str(data_1000)],
        ["ci", "--method", "m2a", "--input", str(data_1000)],
        ["ci", "--method", "m3", "--input", str(data_1000)],
        ["ci", "--method", "m3p", "--rho", "2.5", "--input", str(data_1000)],
    ):
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["width"] > 0


@pytest.mark.parametrize("method", ["m2a", "m3p"])
def test_ci_pilot_error_names_the_sample_size(tmp_path, capsys, method):
    # m2a takes its pilot from the whole 2-point sample; m3p from its pilot
    # half of 1 point, and the message says so
    path = _write_lines(tmp_path, "two.txt", [0.1, 0.7])
    assert main(["ci", "--method", method, "--input", str(path)]) == 3
    got = {"m2a": "got 2", "m3p": "got 1 (pilot half of a 2-point sample)"}[method]
    err = capsys.readouterr().err
    assert err == f"modeset ci: pilot mode estimate needs at least 3 points, {got}\n"


@pytest.mark.parametrize("method, flag, value", [
    ("m2a", "--h", "-1"),
    ("m1", "--h", "0.25"),
    ("m3", "--rho", "0.5"),
    ("m2a", "--rho", "2.5"),
    ("m1", "--split-seed", "7"),
    ("m2a", "--split-seed", "7"),
    ("m2", "--split-seed", "7"),
])
def test_ci_rejects_flags_the_method_does_not_take(data_1000, capsys, method, flag, value):
    assert main(["ci", "--method", method, flag, value, "--input", str(data_1000)]) == 2
    err = capsys.readouterr().err
    assert flag in err and method in err


# each method-specific flag of ci: the arguments that give it a valid
# value, the run_method option it sets and that option's value
_CI_FLAGS = {
    "--h": (["--h", "0.25"], "h", 0.25),
    "--rho": (["--rho", "2.5"], "rho", 2.5),
    "--split-seed": (["--split-seed", "7"], "split_stream", RngStream(7, 0)),
}
# flags that set options no method takes any more, each with a once-valid value
_REMOVED_FLAGS = {"--h-grid-min": "0.05", "--h-grid-max": "1.0", "--h-grid-size": "16",
                  "--pilot-r": "10"}


def test_every_option_of_the_method_table_is_a_ci_flag_and_a_run_method_keyword():
    keywords = {name for name, p in inspect.signature(run_method).parameters.items()
                if p.kind is inspect.Parameter.KEYWORD_ONLY}
    named = {option for options in METHOD_OPTIONS.values() for option in options}
    assert named == keywords
    assert named == {option for _, option, _ in _CI_FLAGS.values()}


@pytest.mark.parametrize("method", METHOD_CODES)
@pytest.mark.parametrize("flag", [*_CI_FLAGS, *_REMOVED_FLAGS])
def test_ci_takes_exactly_the_flags_of_the_method_table(data_1000, capsys, method, flag):
    if flag in _REMOVED_FLAGS:  # argparse knows no such flag, for any method
        with pytest.raises(SystemExit) as exc:
            main(["ci", "--method", method, flag, _REMOVED_FLAGS[flag],
                  "--input", str(data_1000)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out and f"unrecognized arguments: {flag}" in captured.err
        return
    argv, option, value = _CI_FLAGS[flag]
    if option not in METHOD_OPTIONS[method]:
        given = argv[argv.index(flag):argv.index(flag) + 2]
        assert main(["ci", "--method", method, *given, "--input", str(data_1000)]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and method in captured.err
        assert not captured.out
        return
    options = {option: value}
    if "h" in METHOD_OPTIONS[method] and option != "h":  # h has no default: always give it
        argv, options = argv + ["--h", "0.25"], {**options, "h": 0.25}
    assert main(["ci", "--method", method, *argv, "--input", str(data_1000)]) == 0
    ref = compute_confidence_set(np.loadtxt(data_1000), 0.05, method, **options)
    expected = json.loads(json.dumps(ref.to_json_dict(alpha=0.05, method=method)))
    assert json.loads(capsys.readouterr().out) == expected


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


@pytest.mark.parametrize("text", [b"", b"   \t \t", b"\n\n\r\n\n"])
def test_ci_empty_or_blank_input_exits_2(tmp_path, capsys, text):
    # numpy's text parser reads a blank file as [-1.0]; the reader must not
    path = tmp_path / "blank.txt"
    path.write_bytes(text)
    assert main(["ci", "--method", "m1", "--input", str(path)]) == 2
    assert "contains no numbers" in capsys.readouterr().err


def test_read_floats_matches_float_bit_for_bit(tmp_path):
    rng = np.random.default_rng(131)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308]
    values = np.concatenate([edge, bits[np.isfinite(bits)]])
    formats = [lambda v: "%.17g" % v, repr, lambda v: "%.6g" % v, lambda v: "%.20e" % v]
    tokens = [formats[i % 4](v) for i, v in enumerate(values.tolist())]
    gaps = rng.choice([" ", "\t", "\n", "\r\n", "\n\n", " \t\r\n"], size=len(tokens))
    text = "\n" + "".join(t + g for t, g in zip(tokens, gaps))
    path = tmp_path / "floats.txt"
    path.write_bytes(text.encode("ascii"))
    expected = np.array([float(t) for t in text.split()])
    got = _read_floats(str(path))
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("body, token", [
    (b"1.5.5", "'1.5.5'"),
    (b"1,2", "'1,2'"),
    (b"2.0abc", "'2.0abc'"),
    (b"1.0 # c", "'#'"),
    (b"0x10", "'0x10'"),
    (b"\x00", r"'\x00'"),
    (b"\xef\xbb\xbf1.0", r"'\ufeff1.0'"),
    (b"\xff", r"'\\xff'"),
    # float() took these; numpy's parser does not
    (b"1_000", "'1_000'"),
    ("1\u00a02".encode(), r"'1\xa02'"),
])
def test_ci_malformed_input_names_the_first_bad_token(tmp_path, capsys, body, token):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0.5\n-1.25\n" + body + b"\n7\nnot-this-one\n")
    assert main(["ci", "--method", "m1", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"modeset ci: input file {path} has a non-numeric entry: "
                   f"could not convert string to float: {token}\n")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_ci_non_finite_input_exits_2(tmp_path, capsys, token):
    path = _write_lines(tmp_path, "x.txt", [0.5] * 100 + [token])
    assert main(["ci", "--method", "m1", "--input", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_read_floats_rejects_the_truncated_array_of_older_numpy(tmp_path, monkeypatch):
    # numpy < 2 warns on unmatched data and returns the numbers before it
    fromstring = np.fromstring

    def warn_and_truncate(text, dtype, sep):
        try:
            return fromstring(text, dtype=dtype, sep=sep)
        except ValueError:
            warnings.warn("string or file could not be read to its end due to "
                          "unmatched data", DeprecationWarning)
            return fromstring(text[:text.find(b"x")], dtype=dtype, sep=sep)

    monkeypatch.setattr(np, "fromstring", warn_and_truncate)
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1.0\n2.0\nx\n3.0\n")
    with pytest.raises(ValueError, match="non-numeric entry: .*'x'"):
        _read_floats(str(path))


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


def test_mode2d_m3_on_tied_points_exits_3(tmp_path, capsys):
    # rounding repeats points, so some cell's transform ties with its pilot
    pts = np.round(RngStream(95, 0).generator().normal(size=(300, 2)), 1)
    path = _write_lines(tmp_path, "p.csv", [f"{x!r},{y!r}" for x, y in pts.tolist()])
    mask_path = tmp_path / "mask.csv"
    assert main(["mode2d", "--gamma", "2", "--method", "m3", "--input", str(path),
                 "--box=-2:2,-2:2", "--res", "4", "--out", str(mask_path)]) == 3
    assert "coincides" in capsys.readouterr().err
    assert not mask_path.exists()


def test_finite_well_formed_inputs_never_exit_2(tmp_path, capsys):
    # exit 2 is for bad flags and unreadable input; a sample a method cannot
    # handle exits 3, whatever its size, spread or scale
    gen = np.random.default_rng(44)
    samples = {"one": [0.5], "two": [0.1, 0.7], "huge": [-1e308, 1e308] * 7,
               "equal": [2.0] * 40, "subnormal": [*np.linspace(0, 1, 40).tolist(), 5e-324],
               "rounded": np.round(gen.normal(size=1000), 1)}
    codes = {}
    for name, values in samples.items():
        path = _write_lines(tmp_path, f"{name}.txt", [repr(float(v)) for v in values])
        for method in METHOD_CODES:
            h = ["--h", "1"] if method == "m2" else []
            codes[name, method] = main(["ci", "--method", method, "--input", str(path), *h])
    # a bounded set wider than the largest float has no finite width to print;
    # on 1000 points h = 4e307 is informative
    path = _write_lines(tmp_path, "wide.txt", np.linspace(-0.85e308, 0.85e308, 1000).tolist())
    codes["wide", "m2"] = main(["ci", "--method", "m2", "--h", "4e307", "--input", str(path)])
    # clouds whose radial transform overflows at gamma 400 and at scale 1e160,
    # and one of 40 equal points, whose transforms are tied at every cell
    clouds = {"point": ([[0.5, -1.5]], "2"), "steep": (gen.normal(size=(300, 2)), "400"),
              "vast": (1e160 * gen.normal(size=(200, 2)), "2"), "same": ([[0.5, -1.5]] * 40, "2")}
    for name, (points, gamma) in clouds.items():
        lines = [f"{x!r},{y!r}" for x, y in np.asarray(points).tolist()]
        path = _write_lines(tmp_path, f"{name}.csv", lines)
        for method in SCAN_CODES:
            codes[name, method] = main(["mode2d", "--gamma", gamma, "--method", method,
                                        "--input", str(path), "--res", "2"])
    capsys.readouterr()
    assert {key: code for key, code in codes.items() if code not in (0, 3)} == {}
    assert codes["huge", "m2a"] == 3 and codes["subnormal", "m2a"] == 0
    assert all(codes["one", method] == 3 for method in ("m2", "m2a", "m3", "m3p"))
    assert codes["rounded", "m1"] == codes["wide", "m2"] == 3
    # no bandwidth is informative on 14 points: the whole line
    assert codes["huge", "m2"] == 0
    assert all(codes[name, method] == 3 for name in ("steep", "vast", "same")
               for method in SCAN_CODES)


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


@pytest.mark.parametrize("box, side", [("a:b,0:1", "a:b"), ("0:1,0:2x", "0:2x"),
                                       ("0:1,3", "3"), ("0:1,1:2:3", "1:2:3")])
def test_mode2d_bad_box_side_is_named(tmp_path, capsys, box, side):
    path = _write_lines(tmp_path, "p.csv", ["0.0,0.0", "1.0,1.0"])
    assert main(["mode2d", "--gamma", "2", "--input", str(path), "--box", box]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"modeset mode2d: box side {side!r} is not of the form lo:hi\n"
    assert not captured.out


def test_mode2d_res_beyond_the_cell_limit_exits_2(tmp_path, capsys):
    # (2**32)**2 cells, which a 64-bit product wraps to 0
    pts = RngStream(97, 0).generator().normal(size=(100, 2)).tolist()
    path = _write_lines(tmp_path, "p.csv", [f"{x!r},{y!r}" for x, y in pts])
    assert main(["mode2d", "--gamma", "2", "--input", str(path), "--res", str(2**32)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"modeset mode2d: grid of {2**64} cells exceeds "
                            "the 10000000 cell limit\n")
    assert not captured.out


def test_mode2d_overflowing_transform_exits_3(tmp_path, capsys):
    # finite, well-formed points whose transform overflows: infeasible, not bad data
    path = _write_lines(tmp_path, "p.csv", ["1e200,1e200"] * 100)
    assert main(["mode2d", "--gamma", "2", "--input", str(path),
                 "--box=-1:1,-1:1", "--res", "2"]) == 3
    assert "radial transform overflows" in capsys.readouterr().err


def test_mode2d_too_few_points_exits_3(tmp_path, capsys):
    # the spacing interval has no usable level below 32 points
    pts = RngStream(94, 0).generator().normal(size=(32, 2)).tolist()
    lines = [f"{x!r},{y!r}" for x, y in pts]
    path = _write_lines(tmp_path, "p.csv", lines[:31])
    assert main(["mode2d", "--gamma", "2", "--input", str(path), "--res", "2"]) == 3
    assert "sample too small" in capsys.readouterr().err
    path = _write_lines(tmp_path, "p.csv", lines)
    assert main(["mode2d", "--gamma", "2", "--input", str(path), "--res", "2"]) == 0


def test_mode2d_empty_file_writes_one_line_to_stderr(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    env = {**os.environ, "PYTHONPATH": str(Path(modeset.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "modeset", "mode2d", "--gamma", "2", "--input", str(path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert not proc.stdout
    assert proc.stderr == f"modeset mode2d: input file {path} contains no points\n"


@pytest.mark.parametrize("flags, intervals", [
    (["--method", "m2", "--h", "1e308"], [[None, None]]),
    (["--method", "m2", "--h", "1e308", "--alpha", "1e-300"], [[None, None]]),
])
def test_ci_huge_bandwidth_writes_nothing_to_stderr(tmp_path, flags, intervals):
    # a subprocess, so that numpy's overflow warnings would reach stderr; on
    # 200 points h = 1e308 is informative, and dilating by it overflows; at
    # alpha 1e-300 the count slack exceeds 200, so it is vacuous: the whole line
    path = _write_lines(tmp_path, "many.txt", range(1, 201))
    env = {**os.environ, "PYTHONPATH": str(Path(modeset.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "modeset", "ci", *flags, "--input", str(path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["intervals"] == intervals


def test_calls_in_one_process_read_as_each_does_alone(data_1000, tmp_path, capsys):
    # main keeps one parser per process: no flag a call sets may reach a later
    # call, which here would make m1 reject --h
    pts = RngStream(96, 0).generator().normal(size=(200, 2)).tolist()
    points = _write_lines(tmp_path, "p.csv", [f"{x!r},{y!r}" for x, y in pts])
    calls = [["ci", "--method", "m2", "--h", "0.3", "--input", str(data_1000)],
             ["ci", "--method", "m1", "--input", str(data_1000)],
             ["simulate", "--methods", "m1,m2a", "--n", "200", "--beta", "1", "--reps", "2"],
             ["mode2d", "--gamma", "2", "--res", "4", "--input", str(points)]]

    def run(argv):
        return main(argv), capsys.readouterr().out

    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(argv))
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls] == alone
    assert [code for code, _ in alone] == [0, 0, 0, 0]


def test_no_command_loads_scipy(data_1000, tmp_path):
    # a fresh interpreter: importing the CLI and running every ci method, an m1
    # and an m3 scan and an m3/m3p study leave SciPy unloaded, m3's chi-square
    # cutoff (ci, the scan's covers and the study) included
    pts = RngStream(97, 0).generator().normal(size=(200, 2)).tolist()
    points = _write_lines(tmp_path, "p.csv", [f"{x!r},{y!r}" for x, y in pts])
    calls = [["ci", "--method", "m1", "--input", str(data_1000)],
             ["ci", "--method", "m2", "--h", "0.3", "--input", str(data_1000)],
             ["ci", "--method", "m2a", "--input", str(data_1000)],
             ["ci", "--method", "m3", "--input", str(data_1000)],
             ["ci", "--method", "m3p", "--input", str(data_1000)],
             *(["mode2d", "--gamma", "2", "--res", "4", "--method", method,
                "--input", str(points), "--out", str(tmp_path / f"mask_{method}.csv")]
               for method in ("m1", "m3")),
             ["simulate", "--methods", "m3,m3p", "--n", "200", "--beta", "1", "--reps", "2",
              "--out", str(tmp_path / "study.csv")]]
    verdict = tmp_path / "loaded.json"
    script = (
        "import contextlib, io, json, sys\n"
        "from modeset.cli import main\n"
        "loaded = ['scipy' in sys.modules]\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    loaded.append('scipy' in sys.modules)\n"
        f"open({str(verdict)!r}, 'w').write(json.dumps(loaded))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(modeset.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(verdict.read_text()) == [False] * (1 + len(calls))


def test_module_entry_point_help():
    env = {**os.environ, "PYTHONPATH": str(Path(modeset.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "modeset", "--help"],
        capture_output=True, text=True, timeout=60, env=env,
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


# sha256 of the study CSV and of its --emit-widths file for the study below;
# a change to any set, split, draw or number format of the study moves them
_STUDY_DIGESTS = ("c3a1c13a6c5c8b7d65b86285426b83cf2306aee3d217dfe50d2fa9bead8baa99",
                  "07b873b3fe34462cb0450df1914373b19618a192ac5444e6d9aa53aebd6c04bd")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_bytes_are_pinned(tmp_path, capsys, workers):
    out, widths = tmp_path / "report.csv", tmp_path / "widths.csv"
    assert main(["simulate", "--methods", "m1,m2,m2a,m3,m3p", "--n", "300,120", "--beta", "1,4",
                 "--reps", "8", "--seed", "5", "--workers", workers,
                 "--out", str(out), "--emit-widths", str(widths)]) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, widths))
    assert digests == _STUDY_DIGESTS


# m2 and m2a at sample sizes where the m2a sweep stops before its last
# informative bandwidth
_LARGE_N_STUDY_DIGESTS = ("1aacb8cb2e6943e41ab063398ae4a6686cd917b1e2054ccdb67593c7a3e0b4ce",
                          "407fe2d2aba2945a8e681e66d576965f20ece1304b727a7d6773a3609c1d6f43")


def test_simulate_bytes_are_pinned_at_large_n(tmp_path, capsys):
    out, widths = tmp_path / "report.csv", tmp_path / "widths.csv"
    assert main(["simulate", "--methods", "m2,m2a", "--n", "1000,16000", "--beta", "0.5,4",
                 "--reps", "20", "--seed", "9", "--out", str(out),
                 "--emit-widths", str(widths)]) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, widths))
    assert digests == _LARGE_N_STUDY_DIGESTS


# three betas in uneven blocks of replications (5 and 2 at one worker, 4 and 3 at two),
# an all-error cell (m1 at n = 16), vacuous m2/m2a sets and m3p's inf widths at alpha 1e-30
_EDGE_STUDY_DIGESTS = ("aec9570eabf67e76a1d05f2f32b68ea751384453734d72cad517f0633fcaddb0",
                       "a7d795cc127de7ca7a5d849aa03e6b99c701d528da84ae83df2b61d81f5c8c1a")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_bytes_are_pinned_at_the_edges(tmp_path, capsys, workers):
    out, widths = tmp_path / "report.csv", tmp_path / "widths.csv"
    assert main(["simulate", "--methods", "m1,m2,m2a,m3p", "--n", "16,50,2000",
                 "--beta", "0.5,1,4", "--alpha", "1e-30", "--reps", "7", "--seed", "13",
                 "--workers", workers, "--out", str(out), "--emit-widths", str(widths)]) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, widths))
    assert digests == _EDGE_STUDY_DIGESTS


# sha256 of the `ci` JSON for m3 and m3p on triangular(0, 0.3, 1) samples; m3's
# cutoff is the chi-square quantile at 4000 and 20000 degrees of freedom, two per
# point of the evaluation half
_M3_PAYLOAD_DIGESTS = {
    ("m3", 4000): "2d7a580ed094f9a5de47790e02d99bddbdc1abfd18a8d28e5f65d4e78c0bbf71",
    ("m3p", 4000): "04015955121f26e0b6628cccb30e692fa401cce2225b14a204f0df785e5f69ec",
    ("m3", 20000): "9360d7eaeb2c20c43a7c7c55c286bf4a33a4f17c76e90648a6e696511efa9f49",
    ("m3p", 20000): "78bd2a63a1a76e8a012228756e38b760354da4ebb1281ac5a35bd28b8f7a56dd",
}


@pytest.mark.parametrize("method, n", sorted(_M3_PAYLOAD_DIGESTS))
def test_m3_payloads_are_pinned_at_large_n(tmp_path, capsys, method, n):
    values = RngStream(98, n).generator().triangular(0.0, 0.3, 1.0, n)
    path = _write_lines(tmp_path, "tri.txt", values)
    assert main(["ci", "--method", method, "--input", str(path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _M3_PAYLOAD_DIGESTS[method, n]


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_simulate_rejects_workers_below_one(capsys, monkeypatch, workers):
    # the count is checked before any replication runs
    monkeypatch.setattr("modeset.sim._run_block", None)
    assert main(["simulate", "--methods", "m1", "--n", "200", "--beta", "1",
                 "--reps", "2", "--workers", workers]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
