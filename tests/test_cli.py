import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import stacked_triangulation
from polyvol.cli import main
from polyvol.graphs import format_graph, pyramid_graph, tetrahedron_graph
from polyvol.polyhedron import format_polyhedron
from polyvol.shapes import regular_tetrahedron
from polyvol.volume import lobachevsky


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text(format_graph(tetrahedron_graph()))
    return str(path)


@pytest.fixture
def tetra_file(tmp_path):
    path = tmp_path / "tetra.poly"
    path.write_text(format_polyhedron(regular_tetrahedron(0.55)))
    return str(path)


@pytest.fixture
def hyper_file(tmp_path):
    path = tmp_path / "hyper.poly"
    path.write_text(format_polyhedron(regular_tetrahedron(1.3)))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_classify_compact(tetra_file, capsys):
    code, out = run_cli(["classify", tetra_file], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines.count("Real Proper") == 4
    assert lines[-1] == "OVERALL Proper"


def test_volume_line(tetra_file, capsys):
    code, out = run_cli(["volume", tetra_file], capsys)
    assert code == 0
    parts = out.split()
    assert parts[0] == "VOL"
    assert 0.05 < float(parts[1]) < 0.2


def test_volume_writes_nothing_on_stderr(tetra_file, capsys):
    code = main(["volume", tetra_file])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("VOL ")
    assert captured.err == ""


def test_rectify_emits_planes_and_volume(k4_file, capsys):
    code, out = run_cli(["rectify", k4_file], capsys)
    assert code == 0
    assert out.startswith("P 4\n")
    vol_line = [l for l in out.splitlines() if l.startswith("VOL")][0]
    value = float(vol_line.split()[1])
    assert abs(value - 3.663862376709) < 1e-6


def test_rectify_volume_line_is_stable(k4_file, capsys):
    # The value and the error estimate (1e-12 per ideal tetrahedron, four
    # here) at 12 significant digits, identical from run to run.
    outs = [run_cli(["rectify", k4_file], capsys) for _ in range(2)]
    assert outs[0] == outs[1]
    assert outs[0][1].endswith("\nVOL 3.66386237671 4e-12\n")


def test_rectify_pyramid13_prints_antiprism_volume(tmp_path, capsys):
    path = tmp_path / "pyr13.graph"
    path.write_text(format_graph(pyramid_graph(13)))
    code, out = run_cli(["rectify", str(path)], capsys)
    assert code == 0
    vol_line = [l for l in out.splitlines() if l.startswith("VOL")][0]
    antiprism = 26 * (lobachevsky(math.pi / 4 + math.pi / 26)
                      + lobachevsky(math.pi / 4 - math.pi / 26))
    assert abs(float(vol_line.split()[1]) - antiprism) < 1e-9


def test_rectify_output_reads_back_as_rectified_volume(tmp_path, capsys):
    # rectify's plane lines round-trip, so volume --rectified accepts its own
    # 100-vertex output; at 12 digits the moved planes broke the truncation's
    # right angles (gram 1.15e-7 against 1e-7).
    graph = tmp_path / "stacked100.graph"
    graph.write_text(format_graph(stacked_triangulation(100, np.random.default_rng(3))))
    code, out = run_cli(["rectify", str(graph)], capsys)
    assert code == 0
    lines = out.splitlines()
    poly = tmp_path / "stacked100.poly"
    poly.write_text("".join(line + "\n" for line in lines if not line.startswith("VOL ")))
    code, again = run_cli(["volume", "--rectified", str(poly)], capsys)
    assert code == 0, again
    (rivin,), (measured,) = ([float(line.split()[1]) for line in text.splitlines()
                              if line.startswith("VOL ")] for text in (out, again))
    assert abs(rivin - measured) <= 1e-8


def test_angles_check_admissible_and_witness(k4_file, capsys):
    code, out = run_cli(["angles-check", k4_file, "--angles",
                         ",".join(["0.2"] * 6)], capsys)
    assert code == 0 and out.strip() == "Admissible"
    half_pi = f"{math.pi / 2}"
    code, out = run_cli(["angles-check", k4_file, "--angles",
                         ",".join([half_pi] * 6)], capsys)
    assert code == 0
    assert out.startswith("ViolatedClosedCurve")
    # the witness re-sums past its bound
    tokens = out.split()
    s = float(tokens[tokens.index("sum") + 1])
    bound = float(tokens[tokens.index("bound") + 1])
    assert s > bound


def test_angles_check_arc_witness_line(tmp_path, capsys):
    path = tmp_path / "pyr4.graph"
    path.write_text(format_graph(pyramid_graph(4)))
    # sorted edges: 0-1 0-2 0-3 0-4 1-2 1-4 2-3 3-4
    angles = "0.3,0.3,0.3,0.3,1.65,0.3,0.3,1.65"
    code, out = run_cli(["angles-check", str(path), "--angles", angles], capsys)
    assert code == 0
    assert out == "ViolatedArc edges 1-2 3-4 sum 3.3 bound 3.14159265359\n"


def test_flow_csv(hyper_file, capsys):
    code, out = run_cli(["--seed", "5", "flow", hyper_file], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,volume,vol_error,event,skeleton_hash"
    assert len(lines) > 2


def test_flow_deterministic_bytes(hyper_file, capsys):
    _, out1 = run_cli(["--seed", "5", "flow", hyper_file], capsys)
    _, out2 = run_cli(["--seed", "5", "flow", hyper_file], capsys)
    assert out1 == out2


def test_flow_nudges_an_ideal_seed(tmp_path, capsys):
    # Every vertex of the radius-1 regular tetrahedron is ideal, so the
    # flow first nudges them hyperideal; it then climbs toward 8 L(pi/4).
    path = tmp_path / "ideal.poly"
    path.write_text(format_polyhedron(regular_tetrahedron(1.0)))
    code, out = run_cli(["--seed", "3", "flow", str(path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,volume,vol_error,event,skeleton_hash"
    first, last = (float(line.split(",")[1]) for line in (lines[1], lines[-1]))
    assert abs(first - 3 * lobachevsky(math.pi / 3)) < 0.02
    assert abs(last - 8 * lobachevsky(math.pi / 4)) < 0.01


def test_env_seed_override(hyper_file, capsys, monkeypatch):
    monkeypatch.setenv("POLYVOL_SEED", "5")
    _, out1 = run_cli(["--seed", "99", "flow", hyper_file], capsys)
    monkeypatch.delenv("POLYVOL_SEED")
    _, out2 = run_cli(["--seed", "5", "flow", hyper_file], capsys)
    assert out1 == out2


def test_domain_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("V 4\nF 0 1 2\n")  # Euler failure
    code, out = run_cli(["rectify", str(bad)], capsys)
    assert code == 1
    assert out.startswith("ERR BadFormat")


@pytest.mark.parametrize("command, head, line, detail", [
    ("volume", "N", "N 0.3 1 0", "N line needs four numbers of a spacelike normal: 'N 0.3 1 0'"),
    ("volume", "N", "N 0.3 1 x 0", "N line needs four numbers of a spacelike normal: 'N 0.3 1 x 0'"),
    ("volume", "N", "N 1 0 0 0", "N line needs four numbers of a spacelike normal: 'N 1 0 0 0'"),
    ("volume", "N", "N 0.3 1 0 0 2",
     "N line needs four numbers of a spacelike normal: 'N 0.3 1 0 0 2'"),
    ("volume", "P", "P 4.5", "P line needs one integer: 'P 4.5'"),
    ("rectify", "V", "V x", "V line needs one integer: 'V x'"),
    ("rectify", "F", "F 0 1 y", "F line needs integers: 'F 0 1 y'"),
], ids=["N_three_numbers", "N_not_numeric", "N_timelike", "N_five_numbers", "P_not_integer",
        "V_not_integer", "F_not_integer"])
def test_malformed_line_is_bad_format(tmp_path, capsys, command, head, line, detail):
    # The first line with the given head is replaced; the error names the line.
    text = (format_polyhedron(regular_tetrahedron(0.55)) if command == "volume"
            else format_graph(tetrahedron_graph())).splitlines()
    first = next(i for i, text_line in enumerate(text) if text_line.split()[0] == head)
    text[first] = line
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(text) + "\n")
    assert run_cli([command, str(bad)], capsys) == (1, f"ERR BadFormat {detail}\n")


def test_repeated_p_line_is_bad_format(tmp_path, capsys):
    bad = tmp_path / "twice.poly"
    bad.write_text("P 4\n" + format_polyhedron(regular_tetrahedron(0.5)))
    assert run_cli(["volume", str(bad)], capsys) == (1, "ERR BadFormat duplicate P line: 'P 4'\n")


def test_polyhedron_without_graph_lines_is_bad_format(tmp_path, capsys):
    bad = tmp_path / "planes.poly"
    bad.write_text("".join(line for line in format_polyhedron(regular_tetrahedron(0.55))
                           .splitlines(keepends=True) if line[0] in "PN"))
    assert run_cli(["volume", str(bad)], capsys) == \
        (1, "ERR BadFormat need one V line and at least one F line\n")


@pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
def test_tol_ideal_must_be_finite_and_nonnegative(tetra_file, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main([f"--tol-ideal={value}", "classify", tetra_file])
    assert exc.value.code == 2
    assert f"--tol-ideal must be a finite number >= 0, got {float(value)!r}" in \
        capsys.readouterr().err


def test_tol_ideal_band_reads_near_sphere_vertices_as_ideal(tetra_file, capsys):
    code, out = run_cli(["--tol-ideal", "0.5", "classify", tetra_file], capsys)
    assert code == 0
    assert out.splitlines().count("Ideal Proper") == 4


def test_error_code_for_improper(tmp_path, capsys):
    import numpy as np
    from polyvol.polyhedron import build_polyhedron
    from polyvol.shapes import planes_from_vertices

    g = tetrahedron_graph()
    pts = np.array([[2.0, 0, 0], [0.6, 0.3, 0], [0.2, -0.5, 0.3], [0, 0, -0.4]])
    P = build_polyhedron(planes_from_vertices(pts, g), g)
    f = tmp_path / "improper.poly"
    f.write_text(format_polyhedron(P))
    code, out = run_cli(["volume", str(f)], capsys)
    assert code == 1
    assert out.startswith("ERR ImproperInput")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_non_integer_env_seed_is_a_usage_error(hyper_file, capsys, monkeypatch):
    monkeypatch.setenv("POLYVOL_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["flow", hyper_file])
    assert exc.value.code == 2
    assert "POLYVOL_SEED must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-1")],
                         ids=["option", "environment"])
def test_negative_seed_is_a_usage_error(hyper_file, capsys, monkeypatch, flag, env):
    if env is not None:
        monkeypatch.setenv("POLYVOL_SEED", env)
    with pytest.raises(SystemExit) as exc:
        main([*flag, "flow", hyper_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the seed must be an integer >= 0, got -1" in captured.err


def test_non_numeric_angle_is_a_usage_error(k4_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["angles-check", k4_file, "--angles", "0.2,x,0.2,0.2,0.2,0.2"])
    assert exc.value.code == 2
    assert "not a list of numbers: '0.2,x,0.2,0.2,0.2,0.2'" in capsys.readouterr().err


def test_angles_check_needs_one_angle_per_edge(k4_file, capsys):
    assert run_cli(["angles-check", k4_file, "--angles", "0.2,0.2,0.2,0.2,0.2"], capsys) == \
        (1, "ERR AngleOutOfRange expected 6 angles, got 5\n")


@pytest.mark.parametrize("command", ["classify", "volume", "rectify"])
def test_out_file_holds_what_stdout_would(tmp_path, tetra_file, k4_file, capsys, command):
    args = [command, k4_file if command == "rectify" else tetra_file]
    code, want = run_cli(args, capsys)
    out = tmp_path / "out.txt"
    assert run_cli(["--out", str(out), *args], capsys) == (code, "")
    assert out.read_bytes() == want.encode()


def test_missing_file(capsys):
    code, out = run_cli(["classify", "/nonexistent/file.poly"], capsys)
    assert code == 1
    assert out.startswith("ERR FileNotFound")


def test_out_of_range_vertex_is_named(tmp_path, capsys):
    # Vertex 9 of a 4-vertex graph: named before orientation counts edges.
    bad = tmp_path / "range.graph"
    bad.write_text("V 4\nF 1 3 9\nF 0 1 2\n")
    assert run_cli(["rectify", str(bad)], capsys) == (1, "ERR BadFormat vertex 9 out of range\n")


def test_directory_input_is_one_err_line(tmp_path, capsys):
    code = main(["volume", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, f"ERR IsADirectory {tmp_path}\n", "")


def test_input_that_is_not_utf8_is_bad_format(tmp_path, capsys):
    bad = tmp_path / "bytes.graph"
    bad.write_bytes(b"\xff\xfe")
    code = main(["rectify", str(bad)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, f"ERR BadFormat {bad} is not UTF-8 text (byte 0)\n", "")


def test_selftest_subset(capsys):
    code, out = run_cli(["selftest", "--criteria", "1,3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(l.startswith("PASS") for l in lines)


def test_selftest_one_criterion(capsys):
    code, out = run_cli(["selftest", "--criteria", "1"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 and out.startswith("PASS ")


@pytest.mark.parametrize("value", ["10", "x", ""])
def test_selftest_unknown_criteria_are_usage_errors(value):
    result = subprocess.run([sys.executable, "-m", "polyvol.cli", "selftest", "--criteria", value],
                            capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (2, "")
    assert "argument --criteria" in result.stderr and "Traceback" not in result.stderr


def test_console_script_installed():
    result = subprocess.run([sys.executable, "-m", "polyvol.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "polyvol" in result.stdout
