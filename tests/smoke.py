"""CLI smoke manifest. ``python tests/smoke.py`` runs each case of CASES in a fresh
temporary directory as ``python -W error -m qcorr ARGV``, on the ``src/`` beside this
``tests/``. It prints one digest line per case (exit code, hashes of the output, which is the
``--out`` file or else stdout, and of stderr, argv) and one ``FAIL <argv>: <what>`` line on
stderr per failed check, then exits 1. CPU and RSS readings go to stderr, so that ``diff`` can
compare the digests of two checkouts. Importing this module runs nothing."""

import csv
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))  # qcorr's import below leaves os.environ as it was
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from helpers import random_rank_one_x_state  # noqa: E402
from qcorr.states import XColumns, dumps_density_matrix, make_werner  # noqa: E402

Run = namedtuple("Run", "argv cwd code out err cpu_s wall_s peak_mb")  # of one qcorr process
# argv (shell syntax, relative paths only), expected output lines, exit code, stderr lines, checks
Case = namedtuple("Case", "argv lines code err_lines checks", defaults=(0, 0, ()))


def _seeded(mask, fault=lambda m: m) -> bytes:  # the seeded full-rank state, zero where mask is
    g = mask * (np.random.default_rng(0).standard_normal((4, 4, 2)) @ [1, 1j])
    rho = g @ g.conj().T
    return dumps_density_matrix(fault((rho + rho.conj().T) / (2 * np.trace(rho).real))).encode()


def _set(m, at, value):  # m with its entry ``at`` set to value
    m[at] = value
    return m


def _x_state(entries, at=None, value=None) -> bytes:  # an X state's matrix, maybe one entry set
    m = XColumns(*entries).to_matrix()
    if at is not None:
        m[at] = value
    return dumps_density_matrix(m).encode()


# written into the directory of each case whose argv names custom@FILE
INPUTS = {
    "dense.txt": lambda: _seeded(1),  # entangled, full rank, not X
    "blocks.txt": lambda: _seeded(np.kron(np.eye(2), np.ones((2, 2)))),  # a non-X block pattern
    "product_plus.txt": lambda: dumps_density_matrix(  # |+><+| ox |0><0|: rank one, pattern {0, 2}
        np.kron(np.full((2, 2), 0.5), np.diag([1.0, 0.0]))).encode(),
    "rank_one.txt": lambda: dumps_density_matrix(  # |rho14|^2 = rho11 rho44 up to round-off
        random_rank_one_x_state(np.random.default_rng(60)).to_matrix()).encode(),
    "near_x.txt": lambda: dumps_density_matrix(  # Werner 0.3, 1e-10 on every off-X entry
        make_werner(0.3).to_matrix() + 1e-10 * (1 - np.eye(4) - np.eye(4)[::-1])).encode(),
    "not_utf8.txt": lambda: b"\xff\xfe",
    # invalid X states: rho14 - rho41* = 0.1, trace 1.1, block eigenvalue -0.3, a NaN population
    "x_not_hermitian.txt": lambda: _x_state((0.4, 0.3, 0.2, 0.1, 0.1, 0.05), (0, 3), 0.2),
    "x_trace.txt": lambda: _x_state((0.4, 0.3, 0.2, 0.2, 0.1, 0.05)),
    "x_not_psd.txt": lambda: _x_state((0.5, 0.3, 0.2, 0.0, 0.24 ** 0.5, 0.0)),
    "x_nan.txt": lambda: _x_state((0.4, 0.3, 0.2, 0.1, 0.1, 0.05), (0, 0), np.nan),
    # the same faults of the dense state: rho12 - rho21* = 0.1, trace 1.1, rho22 = -0.1 and a NaN
    # rho12, off the X pattern
    "dense_not_hermitian.txt": lambda: _seeded(1, lambda m: _set(m, (0, 1), m[0, 1] + 0.1)),
    "dense_trace.txt": lambda: _seeded(1, lambda m: 1.1 * m),
    "dense_not_psd.txt": lambda: _seeded(1, lambda m: m + (m[1, 1].real + 0.1)
                                         * np.diag([1.0, -1.0, 0.0, 0.0])),
    "dense_nan.txt": lambda: _seeded(1, lambda m: _set(m, (0, 1), np.nan)),
}


def _spawn(argv: list, cwd: Path) -> Run:
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-W", "error", "-m", "qcorr", *argv], cwd=cwd,
                                stdout=out, stderr=err, env=ENV)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait
        out.seek(0), err.seek(0)
        path = cwd / argv[argv.index("--out") + 1] if "--out" in argv else cwd
        return Run(argv, cwd, proc.returncode, path.read_bytes() if path.is_file() else out.read(),
                   err.read(), usage.ru_utime + usage.ru_stime, wall_s, usage.ru_maxrss / 1024)


def cells_17g(run: Run):
    text = run.out.decode()
    header, *rows = text.splitlines()
    cells = [",".join(format(float(c), ".17g") for c in row.split(",")) for row in rows]
    if "\n".join([header, *cells]) + "\n" != text:
        return "a cell differs from format(float(cell), '.17g')"


def no_zero_lqu(run: Run):
    zeros = [row["nbar"] for row in csv.DictReader(run.out.decode().splitlines())
             if float(row["lqu"]) == 0.0]
    if zeros:
        return f"lqu is 0 at nbar = {', '.join(zeros)}"


def gamma_tau_prefix(run: Run):
    if not run.out.startswith(b"gamma_tau = "):
        return "the output does not start with 'gamma_tau = '"


def stdout_equals_out(run: Run):
    at = run.argv.index("--out")
    again = _spawn(run.argv[:at] + run.argv[at + 2:], run.cwd)
    if (again.code, again.out) != (run.code, run.out):
        return "stdout without --out differs from the --out file"


def cpu_1_2x_wall(run: Run):  # so that no idle BLAS worker spins
    print(f"{' '.join(run.argv)}: {run.cpu_s:.3f} s CPU, {run.wall_s:.3f} s wall", file=sys.stderr)
    if run.cpu_s > 1.2 * run.wall_s:
        return f"used {run.cpu_s / run.wall_s:.2f}x its wall time in CPU, above 1.2x"


def rss_250_mb(run: Run):
    print(f"{' '.join(run.argv)}: peak RSS {run.peak_mb:.1f} MB", file=sys.stderr)
    if run.peak_mb > 250.0:
        return f"peaked at {run.peak_mb:.1f} MB RSS, above 250 MB"


CASES = [
    Case("evolve --out fig1.csv", 1002, checks=(cells_17g, stdout_equals_out, cpu_1_2x_wall)),
    Case("evolve --initial werner:1 --t-max 1 --out bell.csv", 12),  # rank one, balanced MIN
    Case("evolve --initial mixture:1 --t-max 1 --out product.csv", 12),  # a diagonal first sample
    Case("evolve --initial custom@rank_one.txt --t-max 1 --out rank_one.csv", 12),
    Case("evolve --initial custom@near_x.txt --t-max 5 --out near_x.csv", 52),  # general routes
    Case("evolve --initial custom@blocks.txt --t-max 2 --dt 0.01 --stride 1 --out blocks.csv", 202),
    Case("evolve --initial custom@product_plus.txt --t-max 1 --out product_plus.csv", 12),  # LAPACK
    Case("evolve --initial custom@dense.txt --nbar 0.5 --t-max 1 --dt 0.01 --stride 1"
         " --out dense.csv", 102),
    Case("evolve --t-max 99.999 --stride 1 --out max_samples.csv", 100_001, checks=(rss_250_mb,)),
    Case("evolve --t-max 1e18 --dt 0.1 --stride 1000000000000000000000 --out long_stride.csv", 3,
         checks=(cells_17g,)),  # one stride of 1e19 steps reaches the steady state
    Case("evolve --stride 1000000000000000000000000000000 --t-max 1 --out huge_stride.csv", 3),
    Case("esd --w 0.5 --sweep nbar:0:1:50 --out esd.csv", 51),
    Case("esd --w 0.5 --sweep nbar:0:1:2000 --out via_out.csv", 2001, checks=(stdout_equals_out,)),
    Case("esd --w 0.5 --sweep nbar:0:1e6:50 --out cells_esd_nbar.csv", 51, checks=(cells_17g,)),
    Case("esd --sweep w:0:1:3 --out cells_esd_w.csv", 4, checks=(cells_17g,)),
    Case("esd --out esd_row.txt", 1, checks=(gamma_tau_prefix, stdout_equals_out)),
    Case("steady --gamma 0.01 --sweep nbar:0:2:200 --out steady.csv", 201),
    Case("steady --gamma 0.01 --sweep nbar:0:2:2000 --out cells_steady.csv", 2001,
         checks=(cells_17g, stdout_equals_out)),
    Case("steady --sweep delta:0:0.5:2000 --out cells_steady_delta.csv", 2001, checks=(cells_17g,)),
    Case("steady --j 0 --delta -1e-3 --gamma 9.5 --sweep nbar:1e-3:50:400 --out small_lqu.csv", 401,
         checks=(no_zero_lqu,)),  # LQU below 1e-15 is not rounded to zero
    Case("steady --out steady_row.csv", 2, checks=(stdout_equals_out,)),
    Case("steady --delta -1e-3 --out negative_delta.csv", 2),  # a negative exponent-notation value
    Case("evolve --initial mixture:abc", 0, 2, 1),
    Case("evolve --initial custom@not_utf8.txt", 0, 2, 1),
    Case("evolve --initial custom@x_not_hermitian.txt", 0, 2, 1),
    Case("evolve --initial custom@x_trace.txt", 0, 2, 1),
    Case("evolve --initial custom@x_not_psd.txt", 0, 2, 1),
    Case("evolve --initial custom@x_nan.txt", 0, 2, 1),
    Case("evolve --initial custom@dense_not_hermitian.txt", 0, 2, 1),
    Case("evolve --initial custom@dense_trace.txt", 0, 2, 1),
    Case("evolve --initial custom@dense_not_psd.txt", 0, 2, 1),
    Case("evolve --initial custom@dense_nan.txt", 0, 2, 1),
    Case("steady --out missing_dir/x.csv", 0, 2, 1),
    Case("steady --out ''", 0, 2, 1),
    Case("steady --sweep delta:0:2.2:5", 0, 2, 1),  # the weak-coupling warning raised as an error
    Case("evolve --dt 3 --t-max 30 --stride 1", 0, 3, 1),  # an unstable step
    Case("evolve --omega 1e308 --t-max 0.01", 0, 3, 1),  # an overflowing generator
]


def check_case(case: Case) -> tuple[str, list]:
    """Run one case; return its digest line and the failures of its checks."""
    argv = shlex.split(case.argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in INPUTS.items():
            if f"custom@{name}" in argv:
                (Path(tmp) / name).write_bytes(write())
        run = _spawn(argv, Path(tmp))
        failures = [f"{what} {got}, expected {want}" for what, got, want in (
            ("exit code", run.code, case.code), ("output lines", run.out.count(b"\n"), case.lines),
            ("stderr lines", run.err.count(b"\n"), case.err_lines)) if got != want]
        failures += [failure for check in case.checks if (failure := check(run))]
    digest = " ".join(hashlib.sha256(b).hexdigest()[:16] for b in (run.out, run.err))
    return f"{run.code} {digest} {case.argv}", failures


if __name__ == "__main__":
    failed = False
    for case in CASES:
        digest, failures = check_case(case)
        print(digest, flush=True)
        for failure in failures:
            print(f"FAIL {case.argv}: {failure}", file=sys.stderr)
        failed = failed or bool(failures)
    sys.exit(failed)
