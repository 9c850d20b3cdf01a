"""Self-tests of the benchmark's checks: each must pass a right output and
reject a deliberately perturbed one, so no check is one that cannot fail.

Run from the root of a checkout:

    python3 bench/selftest.py

The right outputs come from the program itself at small sizes; the
perturbations are a Theta scaled by 1 + 1e-6, a quotient dimension off by
one, a dilation defect above its tail bound and a suite report with one
failed row.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polydisc import charfn, cli, defects, dilation, hardy, sampling, tuples  # noqa: E402

SCALE = 1.0 + 1e-6


def _theta(t, mask, points):
    f = charfn.build_charfn(t, defects.build_defects(t, mask))
    return [f.eval(w) for w in points]


def _both(check, right, wrong):
    """The check passes the right output and rejects the wrong one."""
    assert check(right) == [], check(right)
    assert check(wrong), "perturbed output was accepted"


def test_onevar_theta_scaled():
    rng = np.random.default_rng(1)
    mat = sampling.random_pure_contraction(rng, 4, norm_max=0.95)
    points = workloads.interior_points(rng, 1, 4)
    thetas = _theta(tuples.validate([mat]), None, points)
    _both(lambda th: checks.check_onevar(mat, points, th), thetas, [SCALE * th for th in thetas])


def test_node_theta_scaled():
    rng = np.random.default_rng(2)
    nodes = sampling.random_nodes(rng, 3, 1)
    points = workloads.interior_points(rng, 1, 4)
    thetas = _theta(tuples.szego_tuple_from_nodes(nodes), None, points)
    _both(lambda th: checks.check_blaschke(nodes[:, 0], points, th), thetas, [SCALE * th for th in thetas])


def test_model_theta_scaled():
    rng = np.random.default_rng(3)
    alpha = (1, 2)
    matrices, window = workloads.monomial_model(alpha, 5)
    points = workloads.interior_points(rng, 2, 4)
    thetas = _theta(tuples.validate(matrices), window, points)
    _both(lambda th: checks.check_monomial(alpha, points, th), thetas, [SCALE * th for th in thetas])


def test_contractive_and_inner_reject():
    assert checks.check_contractive([np.eye(2)]) == []
    assert checks.check_contractive([SCALE * np.eye(2)])
    assert checks.check_inner(1e-12) == []
    assert checks.check_inner(1e-6)
    assert checks.check_inner(float("nan"))


def test_quotient_dim_off_by_one():
    alpha = (2, 1)
    model = hardy.quotient_model(hardy.build_space(2, 6, 1), hardy.monomial_symbol(2, alpha))
    right = model.quotient_dim
    _both(lambda q: checks.check_quotient(2, 6, alpha, q), right, right + 1)
    assert checks.check_quotient(2, 6, alpha, right - 1)
    assert len(workloads.monomial_model(alpha, 6)[1]) == right


def test_dilation_defect_above_tail():
    rng = np.random.default_rng(4)
    nodes = workloads.pinned_nodes(SimpleNamespace(sampling=sampling), rng, 3, 2, 0.2)
    t = tuples.szego_tuple_from_nodes(nodes)
    d = dilation.build_dilation(t)
    right = {"isometry": dilation.isometry_defect(d), "minimality": dilation.minimality_defect(d)}
    wrong = dict(right, minimality=d.tail_bound + 2 * checks.DEFECT_SLACK)
    _both(lambda x: checks.check_dilation(x, d.tail_bound, d.pi, x["isometry"]), right, wrong)
    # an isometry defect that does not match pi is caught as well
    assert checks.check_dilation(right, d.tail_bound, d.pi, right["isometry"] + 1e-9)


def _suite_report(seed):
    rows = [{"name": name, "value": gate / 2 if upper else gate + 1.0, "threshold": gate, "passed": True}
            for name, gate, upper in checks.SUITE_GATES]
    return {"suite": {"seed": seed, "checks": rows, "all_passed": True}}


def test_suite_report_one_row_failed():
    right = _suite_report(42)
    assert checks.check_suite_report(right, 42) == []
    for index in range(len(checks.SUITE_GATES)):
        wrong = _suite_report(42)
        row = wrong["suite"]["checks"][index]
        name, gate, upper = checks.SUITE_GATES[index]
        row["value"] = gate + 1.0 if upper else gate - 1.0
        row["passed"] = False
        wrong["suite"]["all_passed"] = False
        assert checks.check_suite_report(wrong, 42), name
        # the same row still claiming a pass is caught too
        row["passed"] = True
        wrong["suite"]["all_passed"] = True
        assert checks.check_suite_report(wrong, 42), name
    dropped = _suite_report(42)
    dropped["suite"]["checks"].pop()
    assert checks.check_suite_report(dropped, 42)
    assert checks.check_suite_report(right, 16)


def test_cli_reports_checked():
    """The checks of the charfn and hardy reports pass on real reports and
    reject them with Theta scaled or the quotient dimension off by one."""
    tmp = ROOT / ".bench_out" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        _cli_reports_checked(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _cli_reports_checked(tmp: Path):
    alpha = (2, 1)
    matrices, window = workloads.monomial_model(alpha, 6)
    mat = workloads._mat_json
    (tmp / "t.json").write_text(json.dumps({"n": 2, "dim": len(window),
                                            "matrices": [mat(m) for m in matrices], "window": mat(window)}))
    (tmp / "p.json").write_text(json.dumps({"points": [[[0.5, 0.1], [0.0, -0.6]]], "grid": {"per_axis": 8}}))
    assert cli.main(["charfn", str(tmp / "t.json"), str(tmp / "p.json"), "--window", "0",
                     "--out", str(tmp / "r.json")]) == 0
    report = json.loads((tmp / "r.json").read_text())
    assert checks.check_charfn_report(report, alpha, 8) == []
    entry = report["charfn_summary"]["points"][0]["matrix"][0][0]
    entry[:] = [SCALE * entry[0], SCALE * entry[1]]
    assert checks.check_charfn_report(report, alpha, 8)

    (tmp / "s.json").write_text(json.dumps(hardy.symbol_to_json(hardy.monomial_symbol(2, alpha))))
    assert cli.main(["hardy", str(tmp / "s.json"), "--degree", "6", "--out", str(tmp / "h.json")]) == 0
    report = json.loads((tmp / "h.json").read_text())
    assert checks.check_hardy_report(report, 2, 6, alpha, 1) == []
    report["model"]["quotient_dim"] += 1
    assert checks.check_hardy_report(report, 2, 6, alpha, 1)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures} of {len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
