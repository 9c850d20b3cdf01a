"""CLI behavior: report contents, exit codes, and determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from polydisc.cli import main
from polydisc.dilation import DEGREE_CAP
from polydisc.hardy import monomial_symbol, symbol_to_json
from polydisc.tuples import validate, tuple_to_json

from .test_tuples import trunc_shift


def mat_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(m)]


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def scalar_file(tmp_path):
    t = validate([np.array([[0.5]])])
    return write_json(tmp_path / "t.json", tuple_to_json(t))


@pytest.fixture
def bishift_file(tmp_path):
    s = trunc_shift(4)
    t = validate([np.kron(s, np.eye(4)), np.kron(np.eye(4), s)])
    return write_json(tmp_path / "b.json", tuple_to_json(t))


def read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_classify_scalar(scalar_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["classify", scalar_file, "--out", str(out)]) == 0
    c = read(out)["classification"]
    assert c["is_pure"] and c["is_szego"] and c["is_beurling"]


def test_classify_truncated_bishift(bishift_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["classify", bishift_file, "--out", str(out)]) == 0
    c = read(out)["classification"]
    assert c["is_szego"] and not c["is_beurling"]
    assert abs(c["beurling_residual"] - 1.0) < 1e-12


def test_classify_malformed_json(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    assert "g.json:1:" in capsys.readouterr().err


def test_charfn_scalar_at_zero(scalar_file, tmp_path):
    pts = write_json(tmp_path / "p.json",
                     {"points": [[[0.0, 0.0]]], "grid": {"per_axis": 64}})
    out = tmp_path / "r.json"
    assert main(["charfn", scalar_file, pts, "--out", str(out)]) == 0
    s = read(out)["charfn_summary"]
    assert s["inner_residual"] <= 1e-10
    assert abs(s["points"][0]["matrix"][0][0][0] + 0.5) < 1e-12
    assert abs(s["points"][0]["matrix"][0][0][1]) < 1e-12


def test_charfn_beurling_gate(bishift_file, capsys):
    assert main(["charfn", bishift_file]) == 3
    assert "not Beurling" in capsys.readouterr().err


def test_charfn_windowed_pair(tmp_path):
    t = validate([np.zeros((4, 4)), trunc_shift(4)])
    obj = tuple_to_json(t)
    w = np.eye(4)
    w[3, 3] = 0.0
    obj["window"] = mat_json(w)
    path = write_json(tmp_path / "t.json", obj)
    assert main(["charfn", path]) == 3  # unmasked: defects overlap
    out = tmp_path / "r.json"
    assert main(["charfn", path, "--window", "0", "--out", str(out)]) == 0
    s = read(out)["charfn_summary"]
    assert s["input_dim"] == 1 and s["inner_residual"] <= 1e-12


def test_charfn_window_flag_needs_field(scalar_file):
    assert main(["charfn", scalar_file, "--window", "0"]) == 2


def test_hardy_monomial(tmp_path):
    sym = write_json(tmp_path / "s.json", symbol_to_json(monomial_symbol(2, (1, 0))))
    out = tmp_path / "r.json"
    assert main(["hardy", sym, "--degree", "6", "--out", str(out)]) == 0
    rep = read(out)
    assert rep["model"]["quotient_dim"] == 7
    assert rep["structural_checks"]["dims"]["wandering"] == 1
    assert rep["structural_checks"]["passed"]
    assert rep["growth"]["quotient_dims"] == [3, 4, 5, 6, 7]


def test_hardy_non_inner_symbol(tmp_path, capsys):
    bad = write_json(tmp_path / "s.json",
                     {"kind": "unitary", "n": 2, "matrix": [[[0.5, 0.0]]]})
    assert main(["hardy", bad]) == 4
    assert "not unitary" in capsys.readouterr().err


def test_dilate_scalar(scalar_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["dilate", scalar_file, "--out", str(out)]) == 0
    d = read(out)["dilation_defects"]
    for key in ("isometry", "intertwining", "minimality", "model_equivalence"):
        assert d[key] <= d["tail_bound"] + 1e-10


def test_coincide_identity_and_gates(scalar_file, tmp_path):
    u1 = write_json(tmp_path / "u1.json", {"matrix": mat_json(np.eye(1))})
    out = tmp_path / "r.json"
    assert main(["coincide", scalar_file, u1, "--out", str(out)]) == 0
    assert read(out)["coincidence"]["residual"] <= 1e-13

    u2 = write_json(tmp_path / "u2.json", {"matrix": mat_json(np.eye(2))})
    assert main(["coincide", scalar_file, u2]) == 5
    u3 = write_json(tmp_path / "u3.json", {"matrix": mat_json(np.array([[0.5]]))})
    assert main(["coincide", scalar_file, u3]) == 5


def test_report_determinism(scalar_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["charfn", scalar_file, "--seed", "7", "--out", str(out)]) == 0
        rep = read(out)
        rep["provenance"].pop("timestamp")
        outs.append(json.dumps(rep, indent=2, sort_keys=True))
    assert outs[0] == outs[1]


def test_csv_format(scalar_file, tmp_path):
    out = tmp_path / "r.csv"
    assert main(["classify", scalar_file, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "check,value,threshold,pass"
    assert any(row.startswith("classification.is_beurling") for row in lines)


def test_bad_grid_rejected(scalar_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charfn", scalar_file, "--grid", "3"])
    assert exc.value.code == 2
    assert "--grid must be >= 4" in capsys.readouterr().err


# The flags each subcommand accepts and never read; each is now a usage error.
IGNORED_FLAGS = [
    ("classify", "--degree", "3"), ("classify", "--grid", "8"), ("classify", "--seed", "5"),
    ("charfn", "--degree", "3"),
    ("hardy", "--seed", "5"),
    ("dilate", "--grid", "8"), ("dilate", "--seed", "5"), ("dilate", "--window", "3"),
    ("coincide", "--degree", "3"), ("coincide", "--grid", "8"),
    ("suite", "--tol", "1e-3"), ("suite", "--degree", "3"), ("suite", "--grid", "8"), ("suite", "--window", "3"),
]


@pytest.mark.parametrize("command, flag, value", IGNORED_FLAGS, ids=[f"{c}{f}" for c, f, _ in IGNORED_FLAGS])
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, command, flag, value):
    path = write_json(tmp_path / "t.json", tuple_to_json(validate([np.array([[0.5]])])))
    operands = {
        "classify": [path],
        "charfn": [path],
        "hardy": [write_json(tmp_path / "s.json", symbol_to_json(monomial_symbol(2, (1, 0))))],
        "dilate": [path],
        "coincide": [path, write_json(tmp_path / "u.json", {"matrix": mat_json(np.eye(1))})],
        "suite": [],
    }[command]
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:  # an argparse usage error, before any work
        main([command, *operands, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_provenance_lists_only_the_flags_of_the_subcommand(scalar_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["classify", scalar_file, "--tol", "1e-9", "--out", str(out)]) == 0
    config = read(out)["provenance"]["config"]
    assert config == {"tol_structural": 1e-9, "window_margin": 0, "format": "json"}


def test_tol_reaches_the_structural_gates(tmp_path, capsys):
    """A pair whose commutator has norm 1e-7: not commuting at the default
    structural tolerance, commuting under --tol 1e-6."""
    pair = [np.diag([0.5, 0.0]), np.array([[0.0, 2e-7], [0.0, 0.0]])]
    path = write_json(tmp_path / "t.json", {"n": 2, "dim": 2, "matrices": [mat_json(m) for m in pair]})
    assert main(["classify", path]) == 2
    assert "do not commute" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert main(["classify", path, "--tol", "1e-6", "--out", str(out)]) == 0
    c = read(out)["classification"]
    assert c["is_commuting"] and c["commuting_residual"] == pytest.approx(1e-7)


@pytest.mark.parametrize("command", ["hardy", "charfn"])
def test_oversized_grid_refused(tmp_path, command):
    """A torus grid over BYTE_BUDGET exits 2 before anything is allocated."""
    if command == "hardy":
        path = write_json(tmp_path / "s.json", {"kind": "monomial", "n": 3, "exponent": [1, 1, 1]})
        argv = ["hardy", path, "--grid", "10000000"]
    else:
        path = write_json(tmp_path / "t.json", tuple_to_json(validate([np.array([[0.5]])])))
        argv = ["charfn", path, write_json(tmp_path / "p.json", {"points": [], "grid": {"per_axis": 10**8}})]
    proc = subprocess.run([sys.executable, "-m", "polydisc.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "torus grid" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_classify_non_finite_entry(tmp_path, bad):
    obj = tuple_to_json(validate([np.diag([0.5, 0.25])]))
    obj["matrices"][0][1][0][0] = bad
    path = write_json(tmp_path / "t.json", obj)  # json writes NaN / Infinity
    proc = subprocess.run(
        [sys.executable, "-m", "polydisc.cli", "classify", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "finite" in proc.stderr and "Traceback" not in proc.stderr


def _points(*points, per_axis=8):
    return {"points": [list(p) for p in points], "grid": {"per_axis": per_axis}}


NAN = float("nan")
SCALAR = [[[[0.5, 0.0]]]]
SCALAR_TUPLE = {"n": 1, "dim": 1, "matrices": SCALAR}
MALFORMED = {
    "classify-matrices-int": ("classify", {"n": 1, "dim": 1, "matrices": 5}),
    "classify-matrices-null": ("classify", {"n": 1, "dim": 1, "matrices": None}),
    "classify-n-true": ("classify", {"n": True, "dim": 1, "matrices": SCALAR}),
    "classify-dim-true": ("classify", {"n": 1, "dim": True, "matrices": SCALAR}),
    "classify-window-missing": ("classify-window", None),
    "coincide-unitary-nan": ("coincide", {"matrix": [[[NAN, 0.0]]]}),
    "coincide-unitary-string": ("coincide", {"matrix": [[["a", 0.0]]]}),
    "charfn-point-nan": ("charfn", _points([[NAN, 0.0]])),
    "charfn-point-string": ("charfn", _points([["x", 0.0]])),
    "charfn-point-outside": ("charfn", _points([[1.5, 0.0]])),
    "charfn-grid-not-object": ("charfn", {"points": [], "grid": 5}),
    "charfn-grid-too-small": ("charfn", _points(per_axis=1)),
    "charfn-window-huge": ("charfn-window", [[[1e200, 0.0]]]),
    "hardy-blaschke-zero-nan": ("hardy", {"kind": "blaschke1", "n": 1, "variable": 0, "zeros": [[NAN, 0.0]]}),
    "hardy-exponent-float": ("hardy", {"kind": "monomial", "n": 2, "exponent": [1.5, 0]}),
    "hardy-exponent-true": ("hardy", {"kind": "monomial", "n": 2, "exponent": [True, 0]}),
    "hardy-variable-float": ("hardy", {"kind": "blaschke1", "n": 1, "variable": 0.9, "zeros": [[0.3, 0.0]]}),
    "hardy-n-string": ("hardy", {"kind": "monomial", "n": "2", "exponent": [1, 0]}),
    "hardy-n-zero": ("hardy", {"kind": "unitary", "n": 0, "matrix": [[[1.0, 0.0]]]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, case):
    command, payload = MALFORMED[case]
    tuple_obj = tuple_to_json(validate([np.array([[0.5]])]))
    if command == "charfn-window":
        tuple_obj["window"] = payload
    path = write_json(tmp_path / "t.json", tuple_obj)
    data = write_json(tmp_path / "d.json", payload)  # json writes NaN
    argv = {
        "classify": ["classify", data],
        "classify-window": ["classify", path, "--window", "0"],
        "coincide": ["coincide", path, data],
        "charfn": ["charfn", path, data],
        "charfn-window": ["charfn", path, "--window", "0"],
        "hardy": ["hardy", data],
    }[command]
    proc = subprocess.run([sys.executable, "-m", "polydisc.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_tol_must_be_finite_and_nonnegative(tmp_path, tol):
    """A NaN tolerance makes every gate comparison false, so this
    non-commuting pair would be reported as commuting."""
    pair = [np.array([[0, 0.5], [0, 0]]), np.array([[0, 0], [0.5, 0]])]
    path = write_json(tmp_path / "t.json", {"n": 2, "dim": 2, "matrices": [mat_json(m) for m in pair]})
    proc = subprocess.run(
        [sys.executable, "-m", "polydisc.cli", "classify", path, "--tol", tol],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "--tol must be a finite number >= 0" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, code", [("hardy", 4), ("coincide", 5)], ids=["hardy", "coincide"])
def test_nan_unitarity_residual_fails_gate(tmp_path, command, code):
    """A unitary entry near 1e200 overflows U U^H, so the unitarity residual
    is NaN; the gate must read that as a failure, not as a pass."""
    huge = [[[1e200, 0.0]]]
    if command == "hardy":
        argv = ["hardy", write_json(tmp_path / "s.json", {"kind": "unitary", "n": 2, "matrix": huge})]
    else:
        path = write_json(tmp_path / "t.json", tuple_to_json(validate([np.array([[0.5]])])))
        argv = ["coincide", path, write_json(tmp_path / "u.json", {"matrix": huge})]
    proc = subprocess.run([sys.executable, "-m", "polydisc.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "not unitary" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "symbol",
    [{"kind": "monomial", "n": 1, "exponent": [2]}, {"kind": "unitary", "n": 2, "matrix": [[[1, 0]]]}],
    ids=["one-variable", "constant"],
)
def test_hardy_growth_null_outside_its_range(tmp_path, symbol):
    path = write_json(tmp_path / "s.json", symbol)
    out = tmp_path / "r.json"
    assert main(["hardy", path, "--out", str(out)]) == 0
    rep = read(out)
    assert rep["growth"] is None
    assert rep["structural_checks"]["passed"]


def test_dilate_zero_tol_runs_at_the_degree_cap(scalar_file, tmp_path):
    """No truncation degree meets a zero tolerance, so `dilate --tol 0`
    runs at DEGREE_CAP rather than dying in a logarithm of zero."""
    out = tmp_path / "r.json"
    proc = subprocess.run([sys.executable, "-m", "polydisc.cli", "dilate", scalar_file, "--tol", "0", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert read(out)["dilation_defects"]["degree"] == DEGREE_CAP


@pytest.mark.parametrize("flags, degree, margin", [([], 6, 1), (["--window", "0"], 6, 1),
                                                   (["--degree", "4", "--window", "2"], 4, 2)])
def test_hardy_provenance_records_the_degree_and_margin_it_ran(tmp_path, flags, degree, margin):
    sym = write_json(tmp_path / "s.json", symbol_to_json(monomial_symbol(2, (1, 0))))
    out = tmp_path / "r.json"
    assert main(["hardy", sym, *flags, "--out", str(out)]) == 0
    rep = read(out)
    assert rep["model"]["degree"] == degree
    config = rep["provenance"]["config"]
    assert (config["truncation_degree"], config["window_margin"]) == (degree, margin)


def test_charfn_provenance_records_the_points_file_grid(scalar_file, tmp_path):
    pts = write_json(tmp_path / "p.json", _points([[0.1, 0.0]], per_axis=24))
    out = tmp_path / "r.json"
    assert main(["charfn", scalar_file, pts, "--out", str(out)]) == 0
    rep = read(out)
    assert rep["charfn_summary"]["grid_per_axis"] == rep["provenance"]["config"]["grid_per_axis"] == 24


@pytest.mark.parametrize(
    "matrices, reason",
    [([np.array([[1.0]])], "not pure (spectral radius of T_0 is 1.000e+00"),
     ([np.array([[0.0, 0.9], [0.0, 0.0]])] * 2, "Szego inverse has minimum eigenvalue -6.200e-01")],
    ids=["not-pure", "not-szego"],
)
def test_charfn_names_the_failed_szego_condition(tmp_path, capsys, matrices, reason):
    path = write_json(tmp_path / "t.json", tuple_to_json(validate(matrices)))
    assert main(["charfn", path]) == 3
    err = capsys.readouterr().err
    assert "tuple is not Szego" in err and reason in err and "Beurling" not in err


@pytest.mark.parametrize("flags", [[], ["--tol", "0"], ["--degree", "5"]], ids=["auto", "tol-0", "given"])
def test_dilate_provenance_records_the_degree_it_ran(scalar_file, tmp_path, flags):
    out = tmp_path / "r.json"
    assert main(["dilate", scalar_file, *flags, "--out", str(out)]) == 0
    rep = read(out)
    assert rep["provenance"]["config"]["truncation_degree"] == rep["dilation_defects"]["degree"]


REFUSED = {  # command, file payload (None: a missing file), extra flags, message
    "matrices-not-list": ("classify", {"n": 1, "dim": 1, "matrices": {"0": SCALAR[0]}}, [], "must be a list"),
    "matrix-entry-string": ("classify", {"n": 1, "dim": 1, "matrices": [[[["a", 0.0]]]]}, [], "must be numbers"),
    "matrix-entry-nan": ("classify", {"n": 1, "dim": 1, "matrices": [[[[NAN, 0.0]]]]}, [], "must be finite"),
    "unreadable-path": ("classify", None, [], "cannot read"),
    "unitary-no-matrix": ("coincide", {"unitary": [[[1.0, 0.0]]]}, [], "with a 'matrix' field"),
    "unitary-not-square": ("coincide", {"matrix": [[[1.0, 0.0], [0.0, 0.0]]]}, [], "must be square"),
    "points-not-object": ("charfn", [[[0.1, 0.0]]], [], "must be a JSON object"),
    "grid-not-object": ("charfn", {"grid": [8]}, [], "'grid' must be an object"),
    "points-not-list": ("charfn", {"points": {"0": [[0.1, 0.0]]}}, [], "'points' must be a list"),
    "point-outside": ("charfn", _points([[0.0, 1.5]]), [], "outside the closed polydisc"),
    "negative-tol": ("classify", SCALAR_TUPLE, ["--tol", "-1"], "--tol must be a finite number >= 0"),
    "window-not-projector": ("classify", {**SCALAR_TUPLE, "window": [[[2.0, 0.0]]]}, ["--window", "0"],
                             "window is not an orthogonal projector"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_input_exits_2_with_one_message(tmp_path, capsys, case):
    """In-process, so that a line trace of the suite reaches each refusal."""
    command, payload, flags, message = REFUSED[case]
    tuple_path = write_json(tmp_path / "t.json", SCALAR_TUPLE)
    data = str(tmp_path / "missing.json") if payload is None else write_json(tmp_path / "d.json", payload)
    argv = {
        "classify": ["classify", data],
        "coincide": ["coincide", tuple_path, data],
        "charfn": ["charfn", tuple_path, data],
    }[command] + flags
    try:
        code = main(argv)
    except SystemExit as exc:  # a flag refused by argparse
        code = exc.code
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith(f"polydisc {command}: ")]
    assert code == 2
    assert len(lines) == 1 and message in lines[0], err
    assert "Traceback" not in err
