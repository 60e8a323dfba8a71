"""CLI surface: flags, CSV schemas, exit codes, determinism."""

import contextlib
import io
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from helpers import csv_by_cells, random_density_matrix, random_rank_one_x_state
from qcorr import (WeakCouplingWarning, concurrence_x, dumps_density_matrix, lqu_x, make_mixture,
                   make_werner)
from qcorr.cli import EVOLVE_HEADER, _csv, build_parser, main
from qcorr.dynamics import MAX_SAMPLES


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, (out.read_text(encoding="utf-8") if out.exists() else "")


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _with_neighbours(values):
    values = np.array(values)
    return [*values, *np.nextafter(values, 0.0), *np.nextafter(values, math.inf)]


def _tie(e):
    """The least double above 10**e that lies exactly halfway between two
    17-digit decimals: an odd multiple of 2**(e - 17)."""
    x = (math.ceil(Fraction(10) ** e * 2 ** (17 - e)) | 1) / 2 ** (17 - e)
    assert (Fraction(x) * 10 ** (16 - e)).denominator == 2
    return x


# The CSV kernel's hard cases, each also negated: exact ties halfway between two
# 17-digit decimals, one for each exponent that has them in fixed notation; the
# doubles nearest 10**k and their neighbours (the carry into an 18th digit, an
# exponent guess off by one); the %g layout edges, 1e-4 and 1e17 being the ends
# of the certified range; the edge of 3-digit exponents.
_HARD_CELLS = [1 + 3 * 2**-17, 0.5 + 2**-18, *(_tie(e) for e in range(-4, 16)),
               *_with_neighbours([float(f"1e{k}") for k in range(-30, 31)]),
               *_with_neighbours([1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e-100])]
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.225e-308,
                     1e300, -1e-300, 1e16, 0.1, *_HARD_CELLS, *(-v for v in _HARD_CELLS)]),
)


@settings(max_examples=100, deadline=None)
@example((1, [[v] for v in [*_HARD_CELLS, *(-v for v in _HARD_CELLS)]]))
@given(st.integers(1, 10).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.lists(_CELLS, min_size=k, max_size=k),
                                             max_size=12))))
def test_csv_writer_equals_per_cell_format(shape_and_rows):
    k, rows = shape_and_rows
    columns = tuple(np.array(rows, dtype=float).reshape(-1, k).T)
    assert b"".join(_csv("h", columns)) == csv_by_cells("h", columns).encode()


def test_csv_writer_equals_per_cell_format_on_long_tables():
    """The MAX_SAMPLES evolve shape, over several of the kernel's row blocks:
    random bit patterns, log-uniform magnitudes and short decimals."""
    rng = np.random.default_rng(17)
    n = MAX_SAMPLES
    bits = rng.integers(0, 2**64, (n, 2), dtype=np.uint64).view(float)
    exponents = np.column_stack([rng.uniform(-300, 300, (n, 2)), rng.uniform(-20, 18, (n, 3))])
    magnitudes = rng.choice([-1.0, 1.0], (n, 5)) * 10.0**exponents
    decimals = rng.integers(-10**6, 10**6, (n, 3)) / 10.0 ** rng.integers(0, 8, (n, 3))
    table = np.column_stack([bits, magnitudes, decimals])
    for rows in (table[:0], table[:1], table):
        assert b"".join(_csv("h", tuple(rows.T))) == csv_by_cells("h", tuple(rows.T)).encode()


def test_evolve_csv_schema_and_determinism(tmp_path):
    args = ["evolve", "--initial", "mixture:0.5", "--t-max", "2", "--stride", "500"]
    code, text = run_cli(args, tmp_path, "a.csv")
    assert code == 0
    code2, text2 = run_cli(args, tmp_path, "b.csv")
    assert code2 == 0
    assert text == text2
    header, rows = parse_csv(text)
    assert ",".join(header) == EVOLVE_HEADER
    assert len(rows) == 5
    t0 = rows[0]
    assert t0[0] == 0.0 and t0[1] == 0.0
    assert t0[2] == pytest.approx(0.5, abs=1e-12)          # concurrence
    assert t0[3] == pytest.approx((math.sqrt(2) - 1) / 4, abs=1e-12)  # negativity
    assert t0[9] == pytest.approx(0.5, abs=1e-12)          # purity
    # gamma_t column is gamma * t
    for row in rows:
        assert row[1] == pytest.approx(0.1 * row[0], abs=1e-15)


def test_correlation_set_tuple_follows_the_evolve_measure_columns():
    # cmd_evolve writes as_tuple() under these header names, whatever the keyword order
    from qcorr import CorrelationSet

    columns = EVOLVE_HEADER.split(",")[2:-1]
    names = [{"min": "min_trace", "ccc": "correlated_coherence"}.get(c, c) for c in columns]
    cs = CorrelationSet(**{name: float(k) for k, name in reversed(list(enumerate(names)))})
    assert cs.as_tuple() == tuple(float(k) for k in range(len(names)))
    with pytest.raises(AttributeError):
        cs.lqu = 0.5


def test_evolve_constant_columns_without_decay(tmp_path):
    args = [
        "evolve", "--initial", "werner:0.5", "--gamma", "0",
        "--t-max", "5", "--stride", "1000", "--dt", "1e-2",
    ]
    code, text = run_cli(args, tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    first = rows[0]
    for row in rows[1:]:
        for a, b in zip(row[2:], first[2:]):
            assert a == pytest.approx(b, abs=1e-10)


def test_evolve_custom_initial_state(tmp_path):
    state_file = tmp_path / "rho.txt"
    state_file.write_text(dumps_density_matrix(make_mixture(0.5).to_matrix()), encoding="utf-8")
    code, text = run_cli(
        ["evolve", "--initial", f"custom@{state_file}", "--t-max", "1", "--stride", "500"],
        tmp_path,
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert rows[0][2] == pytest.approx(0.5, abs=1e-12)


def test_evolve_of_a_near_x_custom_state_takes_the_general_routes(tmp_path, capsys):
    # Werner(0.3) with 1e-10 on every entry off the X pattern is not X-shaped:
    # its samples take the general routes, which no closed form cross-checks
    rho = make_werner(0.3).to_matrix() + 1e-10 * (1.0 - np.eye(4) - np.eye(4)[::-1])
    state_file = tmp_path / "near_x.txt"
    state_file.write_text(dumps_density_matrix(rho), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["evolve", "--initial", f"custom@{state_file}", "--t-max", "5"],
                             tmp_path)
    assert code == 0 and capsys.readouterr().err == ""
    assert len(text.splitlines()) == 52


_ROWS = dumps_density_matrix(make_mixture(0.5).to_matrix()).splitlines()


@pytest.mark.parametrize("rows, reason", [
    (_ROWS[:3], "expected 4 matrix rows, got 3"),
    ([_ROWS[0], _ROWS[1].rsplit(" ", 1)[0], *_ROWS[2:]], "row 2: expected 4 entries, got 3"),
    ([_ROWS[0][:-1], *_ROWS[1:]], "row 1 entry 4: missing trailing 'i'"),
    (["x+0i " + _ROWS[0].split(" ", 1)[1], *_ROWS[1:]], "complex()"),
])
def test_evolve_rejects_malformed_custom_state_file(rows, reason, tmp_path, capsys):
    state_file = tmp_path / "rho.txt"
    state_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["evolve", "--initial", f"custom@{state_file}", "--t-max", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qcorr: configuration error: malformed initial-state file "
                          f"{str(state_file)!r}: ")
    assert reason in err and err.count("\n") == 1


_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")


@_DEV_FULL
def test_full_output_file_exits_2_with_one_stderr_line(capsys):
    assert main(["steady", "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcorr: configuration error: cannot write output file '/dev/full': ")
    assert err.count("\n") == 1


@_DEV_FULL
def test_full_stdout_exits_2_with_one_stderr_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "qcorr", "steady"], stdout=full,
                              stderr=subprocess.PIPE, env=env, text=True, cwd=tmp_path)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("qcorr: configuration error: cannot write standard output: ")


def test_evolve_rank_one_x_state_passes_cross_checks(tmp_path):
    # |rho14|^2 = rho11 rho44 up to round-off; square roots of the eigenvalues
    # of sqrt(rho) rho~ sqrt(rho) miss this state's concurrence by 1.2e-8
    x = random_rank_one_x_state(np.random.default_rng(60))
    state_file = tmp_path / "rho.txt"
    state_file.write_text(dumps_density_matrix(x.to_matrix()), encoding="utf-8")
    code, text = run_cli(
        ["evolve", "--initial", f"custom@{state_file}", "--t-max", "1", "--stride", "500"],
        tmp_path,
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert rows[0][2] == pytest.approx(concurrence_x(x), abs=1e-12)


def test_evolve_rank_one_x_state_passes_lqu_cross_check(tmp_path):
    # with LAPACK's small block eigenvalue the general-route LQU of this state
    # missed the closed form by 1.08e-8; both now take it as det / lambda_big
    x = random_rank_one_x_state(np.random.default_rng(196))
    state_file = tmp_path / "rho.txt"
    state_file.write_text(dumps_density_matrix(x.to_matrix()), encoding="utf-8")
    code, text = run_cli(["evolve", "--initial", f"custom@{state_file}", "--t-max", "1"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert rows[0][5] == pytest.approx(lqu_x(x), abs=1e-12)


def test_evolve_rejects_bad_config(tmp_path, capsys):
    assert main(["evolve", "--initial", "mixture:1.5"]) == 2
    assert main(["evolve", "--initial", "nonsense"]) == 2
    assert main(["evolve", "--initial", "mixture:0.5", "--dt", "0"]) == 2
    assert main(["evolve", "--initial", "custom@/does/not/exist"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_evolve_rejects_non_finite_custom_state(tmp_path, capsys):
    text = dumps_density_matrix(make_mixture(0.5).to_matrix()).splitlines()
    text[1] = "0+0i nan+0i 0+0i 0+0i"
    state_file = tmp_path / "rho.txt"
    state_file.write_text("\n".join(text) + "\n", encoding="utf-8")
    assert main(["evolve", "--initial", f"custom@{state_file}", "--t-max", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcorr: configuration error:") and "not finite" in err
    assert err.count("\n") == 1


def test_evolve_rejects_infinite_custom_state_without_warnings(tmp_path, capsys):
    text = dumps_density_matrix(make_mixture(0.5).to_matrix()).splitlines()
    text[0] = "inf+0i 0+0i 0+0i 0.25+0i"
    state_file = tmp_path / "rho.txt"
    state_file.write_text("\n".join(text) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--initial", f"custom@{state_file}", "--t-max", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcorr: configuration error:") and "not finite" in err
    assert err.count("\n") == 1


def test_evolve_rejects_non_utf8_custom_state_file(tmp_path, capsys):
    state_file = tmp_path / "rho.txt"
    state_file.write_bytes(b"\xff\xfe")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--initial", f"custom@{state_file}", "--t-max", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcorr: configuration error: cannot read initial-state file")
    assert err.count("\n") == 1


def test_evolve_reads_the_custom_state_path_as_given(tmp_path, capsys):
    # a trailing slash names a directory, so a file path with one is refused,
    # as --out refuses it, rather than read with the slash dropped
    state_file = tmp_path / "rho.txt"
    state_file.write_text(dumps_density_matrix(make_mixture(0.5).to_matrix()), encoding="utf-8")
    assert main(["evolve", "--initial", f"custom@{state_file}/", "--t-max", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcorr: configuration error: cannot read initial-state file")
    assert "Not a directory" in err and err.count("\n") == 1


def test_evolve_stride_beyond_the_horizon_samples_both_ends(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = run_cli(["evolve", "--t-max", "1", "--stride", str(10**30)], tmp_path, "huge.csv")
        ref = run_cli(["evolve", "--t-max", "1", "--stride", "1000"], tmp_path, "ref.csv")
    assert huge == ref
    assert len(ref[1].splitlines()) == 3


def test_evolve_past_a_long_horizon_reaches_the_steady_state(tmp_path):
    # one stride of 1e19 steps: a stable decay to the steady state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["evolve", "--t-max", "1e18", "--dt", "0.1",
                              "--stride", str(10**21)], tmp_path)
    assert code == 0
    assert len(text.splitlines()) == 3


@pytest.mark.parametrize("value, code, lines", [("-1e-3", 0, 2), ("-inf", 2, 0), ("-nan", 2, 0)])
def test_negative_number_in_exponent_notation_is_a_flag_value(value, code, lines, tmp_path,
                                                               capsys):
    # argparse alone takes "-1e-3" or "-inf" for an option, not for the value of --delta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_cli(["steady", "--delta", value], tmp_path)
    assert got[0] == code and len(got[1].splitlines()) == lines
    if code:
        assert capsys.readouterr().err.count("\n") == 1
    else:
        assert got == run_cli(["steady", f"--delta={value}"], tmp_path)


def test_solver_failure_exits_3(monkeypatch, capsys):
    def failing_evolve(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("qcorr.cli.evolve", failing_evolve)
    assert main(["evolve", "--t-max", "1"]) == 3
    assert capsys.readouterr().err.startswith("qcorr: run failed: Eigenvalues")


@pytest.mark.parametrize("command", ["evolve", "steady", "esd"])
@pytest.mark.parametrize("out", ["missing/x.csv", ".", "a" * 300 + ".csv", ""])
def test_unwritable_out_exits_2_before_the_run(command, out, monkeypatch, tmp_path, capsys):
    from qcorr import cli

    def never(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("evolve", "steady_correlations_thermal", "esd_gamma_tau"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.chdir(tmp_path)  # out as given: tmp_path / "" would be tmp_path itself
    assert main([command, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcorr: configuration error: cannot write output file ")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["evolve", "--t-max", "1"],
    ["steady", "--gamma", "0.01", "--sweep", "nbar:0:2:2000"],  # several row blocks
    ["esd", "--w", "0.5", "--sweep", "nbar:0:1:2000"],
    ["esd"],
    ["steady"],
])
def test_stdout_equals_the_out_file(args, tmp_path, capsys):
    # stdout receives the joined, decoded blocks; --out receives them in binary mode
    out = tmp_path / "out.csv"
    assert main([*args, "--out", str(out)]) == 0
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("args", [["steady", "--sweep", "nbar:0:2:20000"], ["esd"]])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_2_with_one_stderr_line(args, unbuffered, tmp_path):
    # the reader is gone before the run starts: one configuration-error line,
    # and no second failure when the interpreter flushes stdout at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "qcorr", *args], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True, cwd=tmp_path)
    finally:
        os.close(write)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("qcorr: configuration error: cannot write standard output: ")
    assert "Traceback" not in done.stderr


def test_esd_single_value(tmp_path):
    code, text = run_cli(["esd", "--w", "0.5", "--nbar", "0"], tmp_path, "esd.txt")
    assert code == 0
    value = float(text.split("=")[1])
    assert value == pytest.approx(math.log(1 + 1 / math.sqrt(2)), abs=1e-12)


def test_esd_sweep_w_monotone(tmp_path):
    code, text = run_cli(["esd", "--sweep", "w:0.05:1:40", "--nbar", "0"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["w", "gamma_tau"]
    taus = [r[1] for r in rows]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_esd_sweep_nbar_monotone(tmp_path):
    code, text = run_cli(["esd", "--w", "0.5", "--sweep", "nbar:0:1:12"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["nbar", "gamma_tau"]
    taus = [r[1] for r in rows]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_esd_infinite_for_pure_bell_weight(tmp_path):
    code, text = run_cli(["esd", "--w", "0", "--nbar", "0"], tmp_path, "esd.txt")
    assert code == 0
    assert math.isinf(float(text.split("=")[1]))


def test_steady_single_row_reference_values(tmp_path):
    code, text = run_cli(["steady", "--gamma", "0.1", "--delta", "0.5"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["nbar", "concurrence", "log_negativity", "lqu", "min", "ccc"]
    row = rows[0]
    assert row[1] == pytest.approx(0.2999, abs=5e-4)
    assert row[2] == pytest.approx(0.3784, abs=5e-4)
    assert row[3] == pytest.approx(0.1597, abs=5e-4)
    assert row[4] == row[5]


def test_steady_delta_sweep_cutoff(tmp_path):
    code, text = run_cli(
        ["steady", "--gamma", "0.1", "--sweep", "delta:0:2.2:23"], tmp_path
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert header[0] == "delta"
    for row in rows:
        if row[0] > 2.01:
            assert row[1] == 0.0
        if 0.1 < row[0] < 1.9:
            assert row[1] > 0.0


def test_steady_nbar_sweep_decay_and_robustness(tmp_path):
    code, text = run_cli(
        ["steady", "--gamma", "0.01", "--delta", "0.5", "--sweep", "nbar:0:2:21"],
        tmp_path,
    )
    assert code == 0
    _, rows = parse_csv(text)
    conc = np.array([r[1] for r in rows])
    ccc = np.array([r[5] for r in rows])
    assert conc[-1] == 0.0
    assert np.all(ccc > 0.0)  # CC outlives concurrence on this grid
    assert np.all(np.diff(ccc) < 0.0)


def test_steady_requires_decay():
    assert main(["steady", "--gamma", "0"]) == 2


@pytest.mark.parametrize("flag", ["--delta", "--j", "--omega"])
def test_esd_rejects_coupling_flags(flag, capsys):
    # the ESD is the J = Delta = 0 closed form: a coupling would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["esd", flag, "0.5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err


def test_sweep_parsing_errors():
    assert main(["esd", "--sweep", "bogus:0:1:5"]) == 2
    assert main(["esd", "--sweep", "w:0:1"]) == 2
    assert main(["steady", "--sweep", "w:0:1:5"]) == 2


@pytest.mark.parametrize("args", [
    ["evolve", "--dt", "nan"],
    ["evolve", "--t-max", "inf"],
    ["steady", "--sweep", "nbar:0:1:x"],
    ["steady", "--sweep", "nbar:a:1:3"],
    ["steady", "--sweep", "delta:0:inf:3"],
    ["esd", "--nbar", "nan"],
    ["evolve", "--initial", "mixture:abc"],
    ["evolve", "--initial", "werner:"],
])
def test_non_finite_or_malformed_numbers_exit_2(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcorr: configuration error:")
    assert err.count("\n") == 1


def test_unstable_integration_with_large_stride_exits_3(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "evolve", "--initial", "mixture:0.5", "--gamma", "0.5",
            "--dt", "2.0", "--t-max", "200000", "--stride", "100000",
            "--out", str(tmp_path / "x.csv"),
        ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("qcorr: run failed:") and err.count("\n") == 1


def test_unstable_integration_exits_3(tmp_path, capsys):
    code = main([
        "evolve", "--initial", "mixture:0.5", "--gamma", "0.5",
        "--dt", "2.0", "--t-max", "200", "--stride", "1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 3
    assert "run failed" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--omega", "1e308", "--t-max", "0.01"],
    ["--gamma", "1e308", "--nbar", "10"],
])
def test_overflowing_generator_exits_3_without_warnings(args, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", *args, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("qcorr: run failed:") and err.count("\n") == 1


def test_evolve_sample_bound_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert main(["evolve", "--t-max", "1e12"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("qcorr: configuration error:") and "MAX_SAMPLES" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["steady", "--nbar", "inf"],
    ["steady", "--gamma", "nan"],
    ["evolve", "--j", "inf"],
])
def test_non_finite_model_parameters_exit_2_without_warnings(args, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcorr: configuration error:") and "must be finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("w, root", [
    (0.999999999, 4.999999864840342336e-10),  # 60-digit roots at these doubles
    (1e-320, 736.8272408909739061),
])
def test_esd_zero_temperature_matches_high_precision_root(w, root, tmp_path):
    code, text = run_cli(["esd", "--w", repr(w), "--nbar", "0"], tmp_path, "esd.txt")
    assert code == 0
    assert abs(float(text.split("=")[1]) - root) <= 1e-15 * root


@pytest.mark.parametrize("args", [
    ["--nbar", "1e160"],
    ["--sweep", "nbar:0:1e300:3"],
    ["--gamma", "1e200"],
    ["--nbar", "1e80"],
    ["--gamma", "1e-320"],
    ["--omega", "1e300"],
    ["--gamma", "1e300", "--nbar", "1e300"],
    ["--gamma", "1e-300", "--sweep", "nbar:0:1e300:4"],
    ["--sweep", "nbar:0:1.7e308:3"],
])
def test_steady_at_extreme_parameters_is_finite_without_warnings(args, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["steady", *args], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    values = np.array(rows)[:, 1:]
    assert np.isfinite(values).all()
    assert (values >= 0.0).all() and (values[:, :3] <= 1.0).all()


def test_steady_far_above_any_temperature_scale_is_uncorrelated(tmp_path):
    code, text = run_cli(["steady", "--sweep", "nbar:1e80:1e300:5"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert np.abs(np.array(rows)[:, 1:]).max() <= 1e-15


@pytest.mark.parametrize("args", [
    ["steady", "--sweep", "nbar:0:1:1000000000"],
    ["esd", "--sweep", "w:0:1:1000000000"],
])
def test_sweep_count_bound_exits_2_at_once(args, capsys):
    start = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("qcorr: configuration error:") and "MAX_SAMPLES" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["esd", "--sweep", "nbar:0:1.7e308:3"],
    ["esd", "--w", "1e-320", "--nbar", "1e-300"],
    ["steady", "--sweep", "delta:-1e308:1e308:3"],
])
def test_extreme_sweeps_end_cleanly_without_warnings(args, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args + ["--out", str(tmp_path / "x.csv")])
    assert code in (0, 2)
    err = capsys.readouterr().err
    assert err == "" if code == 0 else err.count("\n") == 1


_WEAK_LINE = ("qcorr: warning: coupling beyond the weak-interaction regime (|J| or |Delta|"
              " exceeds omega/2); equations stay exact but the equal-rate relaxation"
              " assumption degrades")


def test_weak_coupling_warning_fires_once_per_sweep(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(["steady", "--gamma", "0.1", "--sweep", "delta:0:2.2:23"], tmp_path)
    assert code == 0
    assert caught == []  # main prints it as one line instead
    assert capsys.readouterr().err.splitlines() == [_WEAK_LINE]
    assert issubclass(WeakCouplingWarning, UserWarning)


def test_other_warnings_pass_through_main(monkeypatch, tmp_path, capsys):
    from qcorr import cli

    def probe(out):
        warnings.warn("probe", RuntimeWarning)

    monkeypatch.setattr(cli, "_check_output", probe)
    with pytest.warns(RuntimeWarning, match="^probe$") as caught:
        code, _ = run_cli(["steady"], tmp_path)
    assert code == 0 and caught[0].filename == probe.__code__.co_filename
    assert capsys.readouterr().err == ""


def test_weak_coupling_warning_is_one_stderr_line_on_exit_0(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-m", "qcorr", "steady", "--delta", "0.9"],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, cwd=tmp_path)
    assert done.returncode == 0
    assert done.stderr.splitlines() == [_WEAK_LINE]
    assert done.stdout == ("nbar,concurrence,log_negativity,lqu,min,ccc\n"
                           "0,0.27372375048415737,0.34905241493942957,0.24718002378121282,"
                           "0.49717202634622626,0.49717202634622626\n")


@pytest.mark.parametrize("args, code, failure", [
    (["steady", "--delta", "0.9", "--gamma", "0"], 2,
     "qcorr: configuration error: gamma > 0 is required for a unique steady state"),
    (["evolve", "--delta", "1e16", "--t-max", "0.01"], 3,
     "qcorr: run failed: integration rejected at t = 0.01: entry (0, 0) = (nan+nanj) is not finite"),
], ids=["steady", "evolve"])
def test_failure_line_follows_the_weak_coupling_warning(args, code, failure, capsys):
    # the outcome is always the last stderr line
    assert main(args) == code
    assert capsys.readouterr().err.splitlines() == [_WEAK_LINE, failure]


def test_weak_coupling_warning_as_error_exits_2(monkeypatch, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["steady", "--sweep", "delta:0:2.2:5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcorr: configuration error: coupling beyond the weak-interaction")
    assert err.count("\n") == 1
    # no other warning is mapped: numpy warnings raised as errors still surface
    monkeypatch.setattr("qcorr.cli.steady_correlations_thermal",
                        lambda params: warnings.warn("overflow", RuntimeWarning))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning):
            main(["steady"])


@pytest.mark.parametrize("sweep, flags", [
    ("nbar:0:2:21", ["--gamma", "0.01"]),
    ("delta:0:0.5:11", ["--nbar", "0.3"]),
])
def test_steady_sweep_rows_equal_single_rows(sweep, flags, tmp_path):
    code, text = run_cli(["steady", *flags, "--sweep", sweep], tmp_path, "sweep.csv")
    assert code == 0
    name = sweep.split(":")[0]
    for line in text.splitlines()[1:]:
        value = line.split(",")[0]
        code, single = run_cli(["steady", *flags, f"--{name}", value], tmp_path, "one.csv")
        assert code == 0
        assert single.splitlines()[1].split(",")[1:] == line.split(",")[1:]


def test_steady_cross_check_miss_names_swept_value(monkeypatch, tmp_path, capsys):
    from qcorr import dynamics

    real = dynamics._steady_closed_forms

    def missed(*scales):  # the paper's CC misses by 1e-6 where nbar > 0.5
        paper_cc, *rest = real(*scales)
        return paper_cc + 1e-6 * (np.linspace(0.0, 1.0, 11) > 0.5), *rest

    monkeypatch.setattr(dynamics, "_steady_closed_forms", missed)
    code, _ = run_cli(["steady", "--sweep", "nbar:0:1:11"], tmp_path)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("qcorr: run failed: at nbar = 0.60000000000000009:")
    assert "correlated coherence" in err and err.count("\n") == 1


def test_steady_range_violation_names_swept_value(monkeypatch, tmp_path, capsys):
    from qcorr import CorrelationSet
    from qcorr import cli

    def shifted(params):
        lqu = np.where(np.asarray(params.delta) > 0.35, np.nan, 0.1)
        return CorrelationSet(0.1, 0.05, 0.14, lqu, 0.3, 0.3, 0.3)

    monkeypatch.setattr(cli, "steady_correlations_thermal", shifted)
    code, text = run_cli(["steady", "--sweep", "delta:0:0.5:6"], tmp_path)
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err == ("qcorr: run failed: correlation range violation at delta = 0.40000000000000002:"
                   " lqu = nan outside [0.0, 1.0]\n")


@pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
def test_esd_range_violation_names_swept_value(bad, monkeypatch, tmp_path, capsys):
    from qcorr import cli

    monkeypatch.setattr(cli, "esd_gamma_tau",
                        lambda w, gamma, nbar: np.where(np.asarray(w) > 0.5, bad, 1.0))
    code, text = run_cli(["esd", "--nbar", "0", "--sweep", "w:0:1:5"], tmp_path)
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("qcorr: run failed: death time at w = 0.75 is gamma_tau = ")
    assert err.count("\n") == 1


def test_evolve_range_violation_names_time(monkeypatch, tmp_path, capsys):
    from qcorr import CorrelationSet, evolve
    from qcorr import cli

    def broken(*args, **kwargs):
        traj = evolve(*args, **kwargs)
        concurrence = traj.correlations.concurrence.copy()
        concurrence[2] = 1.5
        traj.correlations = CorrelationSet(**{**vars(traj.correlations), "concurrence": concurrence})
        return traj

    monkeypatch.setattr(cli, "evolve", broken)
    code, text = run_cli(["evolve", "--t-max", "1", "--stride", "250"], tmp_path)
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err == ("qcorr: run failed: correlation range violation at t = 0.5:"
                   " concurrence = 1.5 outside [0.0, 1.0]\n")


def test_evolve_of_the_bell_state_writes_a_concurrence_of_exactly_one(tmp_path, capsys):
    # a value exactly at a range end is inside the range: Werner p = 1 is the
    # singlet, whose concurrence at t = 0 is 1.0
    code, text = run_cli(["evolve", "--initial", "werner:1", "--t-max", "1"], tmp_path)
    assert code == 0 and capsys.readouterr().err == ""
    _, rows = parse_csv(text)
    assert len(rows) == 11 and rows[0][2] == 1.0


@pytest.mark.parametrize("selector, code", [
    ("werner:-0.3333333333333333", 0), ("werner:-0.34", 2), ("werner:1.0000000000000002", 2),
    ("mixture:0", 0), ("mixture:1", 0), ("mixture:-1e-300", 2)])
def test_initial_state_parameters_at_and_past_their_domain_ends(selector, code, tmp_path, capsys):
    # the CLI builds these states without the constructors' validation; the
    # domain checks stay, and evolve validates the state it is given
    assert run_cli(["evolve", "--initial", selector, "--t-max", "1"], tmp_path)[0] == code
    err = capsys.readouterr().err
    assert err == "" if code == 0 else err.startswith("qcorr: configuration error: ")


# ------------------------------------------------------------------ grammar property

# numbers as the command line spells them: mostly plain values, sometimes odd
# ones (finite, non-finite, huge, integers too, and malformed)
_ODD = st.one_of(
    st.floats(-3.0, 3.0).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "5e-324", "-0",
                     str(10**30), "abc", "", "1,5", "0x10"]),
    # negative numbers that argparse alone would take for options
    st.sampled_from(["-1e-3", "-2.5E+3", "-nan", "-Infinity", "-5e-324"]),
)
_PLAIN = st.one_of(st.floats(0.01, 1.0).map(repr), st.integers(1, 2).map(str))
_NUMBER = st.integers(0, 3).flatmap(lambda k: _ODD if k == 0 else _PLAIN)
_COUNT = st.one_of(st.integers(-1, 40).map(str),
                   st.sampled_from(["100001", str(10**30), "nan", "1.5", "x", ""]))
# at most 2000 steps, or an odd step or horizon, which a run rejects or
# turns into few steps
_HORIZON = st.one_of(
    st.builds(lambda dt, n: {"--dt": repr(dt), "--t-max": repr(dt * n)},
              st.floats(1e-3, 10.0), st.integers(0, 2000)),
    st.fixed_dictionaries({}, optional={
        "--t-max": _ODD,
        "--dt": st.sampled_from(["0", "-1", "-1e-3", "nan", "inf", "5e-324", "x"])}),
)
# custom@ files: the valid dense state, and files that are missing, a
# directory, not UTF-8, malformed or invalid
_FILES = ("dense", "missing", "directory", "not_utf8", "malformed", "no_i", "non_finite",
          "not_hermitian", "trace")
_MODEL = {"--gamma": _NUMBER, "--delta": _NUMBER, "--j": _NUMBER, "--omega": _NUMBER,
          "--nbar": _NUMBER}
_SWEEP = st.builds("{}:{}:{}:{}".format, st.sampled_from(["w", "nbar", "delta", "bogus"]),
                   _NUMBER, _NUMBER, _COUNT)
_FLAGS = {
    "evolve": st.builds(
        lambda model, stride, initial, horizon: {**model, "--stride": stride,
                                                 "--initial": initial, **horizon},
        st.fixed_dictionaries({}, optional=_MODEL),
        st.one_of(st.just("100"), _COUNT, st.sampled_from(["1000", str(2**63)]),
                  st.integers(1, 10**30).map(str)),
        st.one_of(st.builds("{}:{}".format, st.sampled_from(["mixture", "werner", "bogus"]),
                            _NUMBER),
                  st.sampled_from([f"custom@{kind}" for kind in _FILES])),
        _HORIZON),
    "steady": st.fixed_dictionaries({}, optional={**_MODEL, "--sweep": _SWEEP}),
    "esd": st.fixed_dictionaries({}, optional={"--gamma": _NUMBER, "--nbar": _NUMBER,
                                               "--w": _NUMBER, "--sweep": _SWEEP}),
}
_COMMANDS = st.sampled_from(["evolve", "evolve", "steady", "esd"]).flatmap(
    lambda command: st.tuples(st.just(command), _FLAGS[command]))
# --out under the grammar directory: a writable file, the directory itself, a
# file in a directory that does not exist and a name too long for the file system
_OUTS = st.sampled_from(["out.csv", ".", "missing/out.csv", "a" * 300 + ".csv"])


@pytest.fixture(scope="module")
def grammar_dir(tmp_path_factory):
    """A directory holding the custom@ files of _FILES (except the missing one)."""
    root = tmp_path_factory.mktemp("grammar")
    valid = dumps_density_matrix(random_density_matrix(np.random.default_rng(0))).splitlines()
    texts = {
        "dense": "\n".join(valid) + "\n",
        "malformed": "\n".join(valid[:3]) + "\n",
        "no_i": "\n".join(valid).replace("i", "") + "\n",
        "non_finite": "\n".join(["nan+0i 0+0i 0+0i 0+0i", *valid[1:]]) + "\n",
        "not_hermitian": dumps_density_matrix(np.triu(np.full((4, 4), 0.25))),
        "trace": dumps_density_matrix(np.eye(4) / 2.0),
    }
    for kind, text in texts.items():
        (root / kind).write_text(text, encoding="utf-8")
    (root / "not_utf8").write_bytes(b"\xff\xfe")
    (root / "directory").mkdir()
    return root


def _undying(command: str, flags: dict, sweep_value: float | None) -> bool:
    """True for the esd row of the w = 0 mixture at nbar = 0: its death time is inf."""
    if command != "esd":
        return False
    w, nbar = float(flags.get("--w", 0.5)), float(flags.get("--nbar", 0.0))
    if sweep_value is not None:
        w, nbar = (sweep_value, nbar) if flags["--sweep"].startswith("w:") else (w, sweep_value)
    return w == 0.0 and nbar == 0.0


_FLOAT_FLAGS = ("--gamma", "--delta", "--j", "--omega", "--nbar", "--t-max", "--dt", "--w")


def _argparse_rejects(flags: dict) -> bool:
    """True if a value does not parse as its flag's type: a float flag's
    value that float() rejects or a --stride that int() rejects."""
    for flag, value in flags.items():
        parse = float if flag in _FLOAT_FLAGS else int if flag == "--stride" else str
        try:
            parse(value)
        except ValueError:
            return True
    return False


@settings(max_examples=400, deadline=None)
@given(_COMMANDS, _OUTS)
def test_every_argv_ends_in_exit_0_2_or_3(grammar_dir, command_and_flags, out_name):
    # every argv ends in exit 0 with finite cells, or in exit 2 or 3 with a
    # one-line message, with warnings as errors; argparse's usage and exit 2
    # only for a value that does not parse as its flag's type (a negative
    # number such as -1e-3 or -inf, given as a separate argument, parses)
    command, flags = command_and_flags
    out = grammar_dir / out_name
    argv = [command, "--out", str(out)]
    for flag, value in flags.items():
        kind = value[len("custom@"):] if value.startswith("custom@") else None
        argv += [flag, f"custom@{grammar_dir / kind}" if kind else value]
    if os.path.isfile(out):  # Path.is_file raises on a name too long
        out.unlink()
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and _argparse_rejects(flags), stderr.getvalue()
            event(f"{command}: usage error")
            return
    event(f"{command}: exit {code}")
    assert code in (0, 2, 3)
    if code:
        assert stderr.getvalue().count("\n") == 1
        return
    text = out.read_text(encoding="utf-8")
    if text.startswith("gamma_tau = "):
        value = float(text.split(" = ")[1])
        assert math.isfinite(value) or (value == math.inf and _undying(command, flags, None))
        return
    for line in text.splitlines()[1:]:
        *cells, last = map(float, line.split(","))
        assert all(map(math.isfinite, cells))
        assert math.isfinite(last) or (last == math.inf and _undying(command, flags, cells[0]))


def test_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    """Calls of main in one process, through the one shared parser, end as the
    same arguments do in a fresh interpreter: exit code, stdout, stderr and
    --out file alike, after argparse rejections and configuration errors."""
    assert build_parser() is build_parser()
    steady = ["steady", "--gamma", "0.01", "--sweep", "nbar:0:2:21"]
    sequence = [
        steady,
        ["esd", "--delta", "0.3"],  # argparse rejects a flag esd does not take
        ["steady", "--sweep", "nbar:0:1:0"],  # configuration error
        ["esd", "--w", "0.5", "--sweep", "nbar:0:1:50", "--out", "esd.csv"],
        ["evolve", "--t-max", "1"],
        steady,
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def ending(args, run):
        out = Path("esd.csv")
        out.unlink(missing_ok=True)
        code, stdout, stderr = run(args)
        return code, stdout, stderr, out.read_bytes() if out.exists() else None

    def in_process(args):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err.encode()

    def fresh(args):
        done = subprocess.run([sys.executable, "-m", "qcorr", *args], env=env, capture_output=True)
        return done.returncode, done.stdout, done.stderr

    monkeypatch.chdir(tmp_path)
    codes = []
    for args in sequence:
        got = ending(args, in_process)
        assert got == ending(args, fresh), args
        codes.append(got[0])
    assert codes == [0, 2, 2, 0, 0, 0]


def test_package_imports_only_numpy_of_the_test_dependencies():
    # numpy is the only runtime dependency, and the test oracles in helpers
    # stay out of reach of the package
    src = Path(__file__).resolve().parent.parent / "src"
    script = "import sys, qcorr, qcorr.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    loaded = set(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, check=True).stdout.split())
    assert "numpy" in loaded
    tops = {name.split(".", 1)[0] for name in loaded}
    assert not tops & {"scipy", "mpmath", "hypothesis", "pytest", "helpers"}


def test_importing_the_cli_loads_neither_dataclasses_nor_pathlib():
    # start-up cost: the record types are plain classes and the CLI reads and
    # writes files with open(); a site hook that preloads pathlib hides that half
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import sys; before = set(sys.modules); import qcorr, qcorr.cli; "
              "print(' '.join(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    loaded = set(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, check=True).stdout.split())
    assert "qcorr.cli" in loaded
    assert not loaded & {"dataclasses", "pathlib"}


@pytest.mark.parametrize("given", [None, "2"])
def test_importing_the_cli_pins_openblas_to_one_thread_unless_the_caller_set_it(given):
    # qcorr's operands stay below OpenBLAS's thread thresholds, so a second
    # worker would only spin; a value already in the environment still wins,
    # and one that qcorr set is gone again after the import, from the
    # importing process and from the processes it starts, while BLAS keeps
    # its one thread through an eigensolve and a 300x300 product
    src = Path(__file__).resolve().parent.parent / "src"
    script = "\n".join([
        "import os, subprocess, sys",
        "import qcorr.cli",
        "import numpy as np",
        "np.linalg.eigh(np.eye(4)); np.ones((300, 300)) @ np.ones((300, 300))",
        "child = subprocess.run([sys.executable, '-c', 'import os; "
        "print(os.environ.get(\"OPENBLAS_NUM_THREADS\"))'], capture_output=True, text=True)",
        "tasks = '/proc/self/task'",
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), child.stdout.strip(),",
        "      len(os.listdir(tasks)) if os.path.isdir(tasks) else 'none')",
    ])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(src)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True).stdout
    value, child, threads = out.split()
    assert value == child == (given or "None")
    if given is None and threads != "none":  # Linux lists one directory per thread
        assert threads == "1"
