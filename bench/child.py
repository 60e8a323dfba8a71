"""One timed repetition of a workload, run in a fresh interpreter by run.py.

Usage: child.py SRC_DIR JOB_JSON RESULT_JSON

JOB_JSON holds {"calls": [argv, ...], "trace": bool}. The child imports
qcorr.cli from SRC_DIR and builds its parser (that is the set-up), then runs
``qcorr.cli.main(argv)`` for each call and writes the CLOCK_MONOTONIC time
at which set-up ended, the wall and CPU time of the calls, their exit codes,
the peak RSS, the calibration times and, when traced, the spans to
RESULT_JSON.
"""

import json
import resource
import sys
import time


def calibrate() -> float:
    """Seconds taken by a fixed piece of work in qcorr's instruction mix:
    cyclic Jacobi sweeps on a 4x4 complex Hermitian matrix and RK4 steps
    with a 16x16 generator, driven from Python with small numpy calls.

    It runs in this process just before and just after the timed calls, so
    it sees the same core under the same load from other tenants; run.py
    divides the timings by it (see REFERENCE_CAL_S there).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = m + m.conj().T
    gen = 0.01 * rng.standard_normal((16, 16)) + 0j
    start = time.perf_counter()
    for _ in range(100):
        a = herm.copy()
        for _ in range(6):
            for p in range(3):
                for q in range(p + 1, 4):
                    mag = abs(a[p, q])
                    if mag <= 1e-300:
                        continue
                    zeta = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                    t = 1.0 if zeta == 0.0 else -np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    g = np.eye(4, dtype=complex)
                    g[p, p] = g[q, q] = c
                    g[p, q], g[q, p] = -t * c * a[p, q] / mag, t * c * np.conj(a[p, q]) / mag
                    a = g.conj().T @ a @ g
    y = np.ones(16, dtype=complex)
    for _ in range(3000):
        k1 = gen @ y
        k2 = gen @ (y + 0.5e-3 * k1)
        k3 = gen @ (y + 0.5e-3 * k2)
        k4 = gen @ (y + 1e-3 * k3)
        y = y + (1e-3 / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return time.perf_counter() - start


t_child = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
src, job_path, result_path = sys.argv[1:4]
sys.path.insert(0, src)

import qcorr.cli as cli  # noqa: E402

cli.build_parser()
t_ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

with open(job_path, encoding="utf-8") as fh:
    job = json.load(fh)
tracer = None
if job["trace"]:
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)

codes = []
cal_before = calibrate()
ru0 = resource.getrusage(resource.RUSAGE_SELF)
start = time.perf_counter()
for argv in job["calls"]:
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught failure of the program fails the call's rows
        print(f"child: {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    codes.append(code)
run_s = time.perf_counter() - start
ru1 = resource.getrusage(resource.RUSAGE_SELF)
cal_after = calibrate()

result = {
    "t_child_ns": t_child,
    "t_ready_ns": t_ready,
    "run_s": run_s,
    "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
    "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    "codes": codes,
    "cal_s": [cal_before, cal_after],
}
if tracer is not None:
    result.update(spans=tracer.spans, names=tracer.names, steps=tracer.steps)
with open(result_path, "w", encoding="utf-8") as fh:
    json.dump(result, fh)
