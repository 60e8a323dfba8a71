"""The smoke manifest (tests/smoke.py) as data: its per-case check names each
failed count and exit code, and its cases are distinct runs."""

import shlex

import pytest

import smoke


@pytest.mark.parametrize("argv, lines, code, err_lines", [
    ("esd", 1, 0, 0),
    ("steady --sweep delta:0:2.2:5", 0, 2, 1),  # the weak-coupling warning raised as an error
])
def test_a_wrong_count_or_exit_code_is_a_named_failure(argv, lines, code, err_lines):
    assert smoke.check_case(smoke.Case(argv, lines, code, err_lines))[1] == []
    digest, failures = smoke.check_case(smoke.Case(argv, lines + 1, code + 1, err_lines + 1))
    assert digest.startswith(f"{code} ") and digest.endswith(f" {argv}")
    assert failures == [f"exit code {code}, expected {code + 1}",
                        f"output lines {lines}, expected {lines + 1}",
                        f"stderr lines {err_lines}, expected {err_lines + 1}"]


def test_cases_are_distinct_runs_with_relative_paths():
    # an --out name matters only where the write fails, so runs that succeed merge across it
    runs = []
    for case in smoke.CASES:
        argv = shlex.split(case.argv)
        assert not any(arg.startswith("/") or "@/" in arg for arg in argv)
        if "--out" in argv and case.code == 0:
            del argv[argv.index("--out") + 1]
        runs.append(tuple(argv))
    assert len(set(runs)) == len(runs)
