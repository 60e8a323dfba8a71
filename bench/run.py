"""qcorr benchmark: end-to-end and per-layer timings of CLI workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload fig1_evolve --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --self-test

Each repetition runs the workload's ``qcorr.cli.main(argv)`` calls in a
fresh child interpreter (bench/child.py), one child at a time, until
``--seconds`` have passed. Metrics are medians over the repetitions, with
timings scaled to a reference machine speed (REFERENCE_CAL_S). Every
output row is checked against the independent reference in reference.py,
outside the timed region. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of tracing.py. A line starting with ``record:`` gives the
machine, the per-repetition values and any failed rows; the last line is
the result as JSON.

Workloads (the seed only shapes general_dense's initial state):
  fig1_evolve    qcorr evolve with its defaults: 100k RK4 steps, 1001 rows
  general_dense  evolve of a seeded full-rank non-X state, nbar 0.5,
                 500 steps of 0.01 and 501 rows
  sweeps         two steady and two esd sweeps, 8200 rows
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_ENV = dict(os.environ)  # the program runs in the environment it was given
for _var in BLAS_VARS[:3]:  # while this process's own numpy stays single-threaded
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(SRC))
try:
    import reference as R  # noqa: E402
except ModuleNotFoundError as _exc:  # not run from a qcorr source checkout
    sys.exit(f"bench: cannot import qcorr from {SRC}: {_exc}")

MIN_REPS = 3
CHILD_TIMEOUT_S = 170
# Timings are reported in seconds of a machine on which child.calibrate()
# takes this long: each repetition's run and CPU times are scaled by
# REFERENCE_CAL_S over the mean of the calibrations its child ran just before
# and after the timed calls, and its set-up time over the one just after
# set-up. The machines this runs on share cores with other tenants; over ten
# 35 s runs the quartile spread of the run_s median fell from 13-28% raw to
# about 5% scaled. The raw timings are in the record line.
REFERENCE_CAL_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "rows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s", "cli.rows": "count", "model.self_s": "s",
    "dynamics.evolve.self_s": "s", "dynamics.rk4_steps": "count", "dynamics.step_us": "us",
    "dynamics.steady.self_s": "s", "dynamics.steady.calls": "count",
    "dynamics.esd.self_s": "s", "dynamics.esd.calls": "count", "dynamics.other.self_s": "s",
    "linalg.eig.self_s": "s", "linalg.eig.calls": "count", "linalg.eig_us": "us",
    "linalg.eig_per_row": "count/row", "linalg.other.self_s": "s",
    "measures.correlations.self_s": "s", "measures.correlations.calls": "count",
    "measures.closed.self_s": "s", "measures.closed.calls": "count",
    "measures.general.self_s": "s", "measures.general.calls": "count",
    "measures.other.self_s": "s",
    "states.validate.self_s": "s", "states.validate.calls": "count",
    "states.xshape.self_s": "s", "states.xshape.calls": "count", "states.other.self_s": "s",
    "trace.run_s": "s", "trace.overhead_ratio": "ratio", "trace.accounted_ratio": "ratio",
    "trace.spans": "count",
}


@dataclass
class Call:
    """One qcorr.cli.main call, the rows it must write and its row checker."""

    argv: list[str]
    out: Path
    rows: int
    check: object  # callable: CSV text -> {row index: message}


# ---------------------------------------------------------------------------
# workloads


def fig1_evolve(seed: int, tiny: bool) -> list[Call]:
    t_max, dt, stride = (1.0 if tiny else 100.0), 1e-3, 100
    times = np.arange(int(round(t_max / dt)) // stride + 1) * stride * dt
    p = R.params(j=0.1, delta=0.5, gamma=0.1, nbar=0.0)
    out = WORK / "fig1.csv"
    argv = ["evolve", "--out", str(out)] + (["--t-max", str(t_max)] if tiny else [])
    return [Call(argv, out, len(times),
                 lambda text: R.check_evolve(text, times, R.mixture_states(times, p), p.gamma))]


def _format_state(rho) -> str:
    return "".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) + "\n" for row in rho)


def dense_state(seed: int, times, p):
    """A full-rank non-X initial state from ``seed`` whose marginal of A stays
    non-degenerate (gap >= 0.05) along the exact trajectory, so the MIN
    measurement basis is unique on every row; returns it with that trajectory."""
    rng = np.random.default_rng(seed)
    while True:
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T + 0.25 * np.trace(g @ g.conj().T).real * np.eye(4) / 4.0
        rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
        # the numbers exactly as the program will read them back
        text = _format_state(rho)
        rho = np.array([[complex(tok[:-1] + "j") for tok in line.split()]
                        for line in text.splitlines()])
        states = R.generator_states(times, p, rho)
        gaps = [np.diff(np.linalg.eigvalsh(np.trace(s.reshape(2, 2, 2, 2), axis1=1, axis2=3)))[0]
                for s in states]
        if min(gaps) >= 0.05:
            return text, states


def general_dense(seed: int, tiny: bool) -> list[Call]:
    t_max, dt = (0.2 if tiny else 5.0), 0.01
    times = np.arange(int(round(t_max / dt)) + 1) * dt
    p = R.params(j=0.1, delta=0.5, gamma=0.1, nbar=0.5)
    text, states = dense_state(seed, times, p)
    state_file = WORK / f"dense_state_{seed}.txt"
    state_file.write_text(text, encoding="utf-8")
    out = WORK / "dense.csv"
    argv = ["evolve", "--initial", f"custom@{state_file}", "--nbar", "0.5", "--t-max",
            str(t_max), "--dt", str(dt), "--stride", "1", "--out", str(out)]
    return [Call(argv, out, len(times), lambda txt: R.check_evolve(txt, times, states, p.gamma))]


SWEEPS = [  # (subcommand, swept parameter, start, stop, points, other flags)
    ("steady", "nbar", 0.0, 2.0, 2000, {"gamma": 0.01}),
    ("steady", "delta", 0.0, 2.2, 2200, {}),
    ("esd", "nbar", 0.0, 1.0, 2000, {"w": 0.5}),
    ("esd", "w", 0.01, 1.0, 2000, {"nbar": 0.0}),
]


def sweeps(seed: int, tiny: bool) -> list[Call]:
    calls = []
    for i, (cmd, name, a, b, n, extra) in enumerate(SWEEPS):
        n = n // 100 if tiny else n
        values, out = np.linspace(a, b, n), WORK / f"sweep{i}.csv"
        flags = [s for k, v in extra.items() for s in (f"--{k}", str(v))]
        argv = [cmd, *flags, "--sweep", f"{name}:{a}:{b}:{n}", "--out", str(out)]
        if cmd == "steady":
            check = functools.partial(R.check_steady, name=name, values=values, base=extra)
        else:  # the esd subcommand's defaults: w = 0.5, nbar = 0, gamma = 0.1
            check = functools.partial(R.check_esd, name=name, values=values, gamma=0.1,
                                      w=extra.get("w", 0.5), nbar=extra.get("nbar", 0.0))
        calls.append(Call(argv, out, n, check))
    return calls


WORKLOADS = {"fig1_evolve": fig1_evolve, "general_dense": general_dense, "sweeps": sweeps}


# ---------------------------------------------------------------------------
# repetitions


def run_child(calls: list[Call], trace: bool, rep: int) -> tuple[dict, list[str]]:
    """One repetition in a fresh interpreter; returns its result and outputs."""
    for c in calls:
        c.out.unlink(missing_ok=True)
    job, res, log = (WORK / f"job{rep}.json", WORK / f"result{rep}.json", WORK / f"child{rep}.log")
    job.write_text(json.dumps({"calls": [c.argv for c in calls], "trace": trace}), encoding="utf-8")
    t_spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.run([sys.executable, str(CHILD), str(SRC), str(job), str(res)],
                              env=CHILD_ENV, stdout=fh, stderr=subprocess.STDOUT,
                              timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not res.is_file():
        raise RuntimeError(f"child exited with {proc.returncode}: {log.read_text()[-2000:]}")
    result = json.loads(res.read_text(encoding="utf-8"))
    result["setup_s"] = (result["t_ready_ns"] - t_spawn) / 1e9
    texts = [c.out.read_text(encoding="utf-8") if c.out.is_file() else "" for c in calls]
    return result, texts


class Gate:
    """Counts attempted and failed rows; each distinct output is checked once."""

    def __init__(self, calls: list[Call]):
        self.calls = calls
        self.cache: list[dict[str, dict[int, str]]] = [{} for _ in calls]
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, codes: list[int], texts: list[str]):
        for i, (call, code, text) in enumerate(zip(self.calls, codes, texts)):
            self.attempted += call.rows
            if code != 0:
                bad = dict.fromkeys(range(call.rows), f"exit code {code}")
            else:
                if text not in self.cache[i]:
                    self.cache[i][text] = call.check(text)
                bad = self.cache[i][text]
            self.failed += len(bad)
            for row, msg in list(bad.items())[:3]:
                if len(self.messages) < 20:
                    self.messages.append(f"{call.argv[0]} {call.out.name} row {row}: {msg}")


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            min_reps: int = MIN_REPS):
    """Run one benchmark; returns (result line, record, calls, last outputs)."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    calls = WORKLOADS[workload](seed, tiny)
    gate = Gate(calls)
    # compile and page in qcorr before timing: every later child starts warm
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import qcorr.cli"], env=CHILD_ENV, check=True, timeout=CHILD_TIMEOUT_S)

    plain, traced, texts = [], [], []
    deadline = time.monotonic() + seconds
    while len(plain) < min_reps or time.monotonic() < deadline:
        for with_trace in ((False, True) if trace else (False,)):
            result, texts = run_child(calls, with_trace, len(plain) + len(traced))
            result["rows"] = sum(max(t.count("\n") - 1, 0) for t in texts)
            result["scale"] = REFERENCE_CAL_S / statistics.mean(result["cal_s"])
            result["setup_scale"] = REFERENCE_CAL_S / result["cal_s"][0]
            gate.add(result["codes"], texts)
            (traced if with_trace else plain).append(result)

    per_rep: dict[str, list[float]] = {}
    accounting_ok = True
    if trace:
        import tracing

        for r in traced:
            try:
                layer = tracing.layer_metrics(r.pop("spans"), r.pop("names"), r["rows"],
                                              r["steps"], r["run_s"])
            except ValueError as exc:
                accounting_ok = False
                gate.messages.append(f"trace accounting: {exc}")
                continue
            for k, v in layer.items():
                per_rep.setdefault(k, []).append(
                    v * r["scale"] if PER_LAYER.get(k) in ("s", "us") else v)
        metrics = {k: statistics.median(v) for k, v in per_rep.items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["run_s"] * r["scale"] for r in traced)
            / statistics.median(r["run_s"] * r["scale"] for r in plain) - 1.0)
        units = PER_LAYER
    else:
        for r in plain:
            per_rep.setdefault("setup_s", []).append(r["setup_s"] * r["setup_scale"])
            per_rep.setdefault("run_s", []).append(r["run_s"] * r["scale"])
            per_rep.setdefault("cpu_s", []).append(r["cpu_s"] * r["scale"])
            per_rep.setdefault("peak_rss_mb", []).append(r["peak_rss_mb"])
            per_rep.setdefault("rows_per_s", []).append(r["rows"] / (r["run_s"] * r["scale"]))
        metrics = {k: statistics.median(v) for k, v in per_rep.items()}
        units = END_TO_END
    line = {
        "correct": gate.failed == 0 and accounting_ok,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "reps": len(plain), "traced_reps": len(traced),
        "quartiles": {k: _quartiles(v) for k, v in per_rep.items()},
        "raw_per_rep": {k: [r[k] for r in plain + traced]
                        for k in ("setup_s", "run_s", "cpu_s", "cal_s")},
        "failures": gate.messages,
        "argv": [c.argv for c in calls],
        "machine": machine(),
    }
    return line, record, calls, texts


# ---------------------------------------------------------------------------
# machine record


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env_of_program": {k: CHILD_ENV.get(k) for k in BLAS_VARS},
        "git_commit": _git_commit(),
        "threads": (f"qcorr's sweeps start a pool of min(8, points) threads on these "
                    f"{os.cpu_count()} CPUs; this benchmark process is single-threaded "
                    "and runs one child at a time"),
    }


# ---------------------------------------------------------------------------
# self-test


def self_test() -> int:
    """Tiny sizes of every workload in both modes: every metric printed by name
    with the unit BENCHMARK.json gives it, and a perturbed row fails the gate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}, "workload names"
    perturb = {"fig1_evolve": (0, 3, 2), "general_dense": (0, 3, 6), "sweeps": (3, 5, 1)}
    for name in WORKLOADS:
        for trace in (False, True):
            line, record, calls, texts = measure(name, 7, 0.0, trace, tiny=True, min_reps=1)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == want[trace], f"{name} trace={trace}: metrics {got}"
            assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
            assert line["correct"] and line["failed"] == 0, (name, record["failures"])
            print(f"self-test {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{line['attempted']} rows pass")
        call_i, row, col = perturb[name]
        lines = texts[call_i].splitlines()
        cells = lines[row + 1].split(",")
        cells[col] = repr(float(cells[col]) + 1e-6)
        lines[row + 1] = ",".join(cells)
        failed = calls[call_i].check("\n".join(lines) + "\n")
        assert list(failed) == [row], f"{name}: perturbed row {row} gave {failed}"
        print(f"self-test {name}: perturbed row {row} fails: {failed[row]}")
    shutil.rmtree(WORK, ignore_errors=True)
    print("self-test passed")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    line, record, _, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(WORK, ignore_errors=True)
    print("record: " + json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
