"""run_battery on its process pool: the same rows as the eleven criteria run
one after another, the worker-count rule, and errors and shutdown."""

import multiprocessing
import os
import time

import pytest

from polydisc import battery
from polydisc.cli import main
from polydisc.errors import NotContraction

SEED = 42


def criteria_one_by_one(seed):
    return (
        battery.onevar_reduction(seed)
        + battery.blaschke_recovery(seed)
        + battery.onevar_inner(seed)
        + battery.pair_form_identity(seed)
        + battery.coincidence_battery(seed)
        + battery.positivity_battery(seed)
        + battery.model_suite()
        + battery.growth_battery()
        + battery.series_battery(seed)
        + battery.dilation_battery(seed)
        + battery.dilation_form_battery()
    )


@pytest.fixture(scope="module")
def serial_rows():
    return criteria_one_by_one(SEED)


def machine(monkeypatch, cpus, **blas):
    """Pretend the process may use `cpus` CPUs, with only the given BLAS
    thread variables set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    for var in battery.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)


def test_pool_rows_equal_the_criteria_one_by_one(monkeypatch, serial_rows):
    machine(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    assert battery.worker_count() == 2
    rows = battery.run_battery(SEED)
    assert [r.name for r in rows] == [r.name for r in serial_rows]
    assert repr(rows) == repr(serial_rows)
    assert multiprocessing.active_children() == []


def test_in_process_rows_equal_the_criteria_one_by_one(monkeypatch, serial_rows):
    machine(monkeypatch, 1, OPENBLAS_NUM_THREADS="1")
    pids = []
    growth = battery.growth_battery

    def watched():
        pids.append(os.getpid())
        return growth()

    monkeypatch.setattr(battery, "growth_battery", watched)
    rows, seconds = battery.timed_battery(SEED)
    assert pids == [os.getpid()]
    assert repr(rows) == repr(serial_rows)
    assert list(seconds) == [label for label, _, _ in battery.CRITERIA]
    assert all(s >= 0.0 for s in seconds.values())


@pytest.mark.parametrize(
    "cpus, blas, workers",
    [
        (2, {}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {"MKL_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "auto", "OMP_NUM_THREADS": "0", "MKL_NUM_THREADS": "1"}, 2),
        (8, {"OMP_NUM_THREADS": "2"}, 4),
        (2, {"OPENBLAS_NUM_THREADS": "4"}, 1),
        (64, {"OPENBLAS_NUM_THREADS": "1"}, 11),
    ],
)
def test_worker_count(monkeypatch, cpus, blas, workers):
    machine(monkeypatch, cpus, **blas)
    assert battery.worker_count() == workers


def test_worker_count_without_affinity(monkeypatch):
    machine(monkeypatch, 4, OPENBLAS_NUM_THREADS="2")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert battery.worker_count() == 2


def contraction_fault(monkeypatch):
    def raises(seed):
        raise NotContraction(0, 1.5)

    monkeypatch.setattr(battery, "onevar_reduction", raises)


@pytest.mark.parametrize("cpus", [2, 1])
def test_criterion_error_reaches_the_caller(monkeypatch, cpus):
    machine(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")
    contraction_fault(monkeypatch)
    start = time.monotonic()
    with pytest.raises(NotContraction) as caught:
        battery.run_battery(SEED)
    assert time.monotonic() - start < 30.0
    assert caught.value.norm == 1.5 and caught.value.index == 0
    assert multiprocessing.active_children() == []


def test_suite_error_line_matches_a_serial_run(monkeypatch, tmp_path, capsys):
    contraction_fault(monkeypatch)
    lines = []
    for cpus in (2, 1):
        machine(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")
        assert main(["suite", "--seed", str(SEED), "--out", str(tmp_path / "suite.json")]) == 2
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1] == "polydisc suite: matrix 0 has norm 1.500000 > 1\n"
    assert not (tmp_path / "suite.json").exists()
