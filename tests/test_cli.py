import argparse
import hashlib
import importlib.util
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from slopes import cli, phi
from slopes.cli import main
from slopes.errors import SchemaError
from slopes.filtered import FilteredSpace
from slopes.lattices import EuclideanLattice
from slopes.phi import TwistSpec, TwistedPolynomial, twisted_mul
from slopes.polygon import NewtonPolygon
from slopes.ramification import load_ramification
from slopes.series import Series
from slopes.tables import load_table

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "slopes" / "fixtures"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_hn_lattice(capsys):
    code, out = run_cli(
        ["hn", "--backend", "lattice", "--in", str(FIXTURES / "z2.json")], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["polygon"]["segments"] == [
        {"slope": {"neg_half_log": "1"}, "mult": 2}
    ]


def test_np_diff(capsys):
    code, out = run_cli(
        ["np", "--backend", "diff", "--in", str(FIXTURES / "diff_op.json")], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["irregularity"] == 3
    assert doc["polygon"]["segments"] == [{"slope": "3/2", "mult": 2}]


def test_np_diff_exact_zero_factor(tmp_path, capsys):
    """x^-1 + O(x^0) beside exact zeros: both irregularities are certified."""
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"matrix": [["0", "0"], ["0", {"vmin": -1, "c": ["1"], "prec": 0}]]}))
    code, out = run_cli(["np", "--backend", "diff", "--in", str(f)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["gerard_levelt_irregularity"], doc["stabilized"]) == (1, True)
    assert (doc["katz_rank_estimate"], doc["katz_converged"]) == ("1", True)


def test_np_twisted_adams_sauloy(capsys):
    code, out = run_cli(
        ["np", "--backend", "twisted", "--in", str(FIXTURES / "adams_sauloy.json")],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["polygon"]["segments"] == [
        {"slope": "1", "mult": 1},
        {"slope": "0", "mult": 1},
    ]


def test_factor_verifies(capsys):
    code, out = run_cli(
        ["factor", "--in", str(FIXTURES / "twisted_two_slopes.json"), "--prec", "40"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["factor_slopes"] == ["0", "1"]
    assert doc["product_verification"]["verified_mod_x_prec"] is True


def _three_slope_input(tmp_path):
    """(phi + x^2)(phi - 3x^-2)(phi + 2x^-3), q = 2: slopes -2, 2, 3."""
    twist = TwistSpec(2)
    prod = None
    for c, k in ((1, 2), (-3, -2), (2, -3)):
        f = TwistedPolynomial((Series.monomial(c, k), Series.one()), twist)
        prod = f if prod is None else twisted_mul(prod, f)
    path = tmp_path / "three.json"
    path.write_text(json.dumps({**prod.to_json(), "precision": 40}))
    return path


def test_factor_builds_each_polygon_once(tmp_path, monkeypatch, capsys):
    """A factor job builds one Newton polygon per polynomial it holds: the
    input's and each factor's, plus the cofactor of every split."""
    calls = []
    np_twisted = phi.np_twisted

    def counting(vals):
        calls.append(vals)
        return np_twisted(vals)

    monkeypatch.setattr(phi, "np_twisted", counting)
    for path, slopes, want in (
        (FIXTURES / "twisted_two_slopes.json", ["0", "1"], 3),
        (_three_slope_input(tmp_path), ["-2", "2", "3"], 5),
    ):
        calls.clear()
        code, out = run_cli(["factor", "--in", str(path), "--prec", "40"], capsys)
        assert code == 0
        assert json.loads(out)["factor_slopes"] == slopes
        assert len(calls) == want, path


@pytest.mark.parametrize(
    "a1, want",
    [
        # a_1 zero only below x^-5: (1, 5) lies above the hull of (0, 0)
        # and (2, -2), so the polygon is open
        ({"vmin": 0, "c": [], "prec": -5}, None),
        # its completion a_1 = x^-5
        ({"vmin": -5, "c": ["1"]}, ["5", "-7"]),
    ],
)
def test_np_twisted_open_coefficient(tmp_path, capsys, a1, want):
    """phi^2 + a_1 phi + x^2: a coefficient known only to x^p is certified
    absent from the hull only when (i, -p) does not lie above it."""
    f = tmp_path / "open.json"
    coeffs = [{"vmin": 2, "c": ["1"]}, a1, {"vmin": 0, "c": ["1"]}]
    f.write_text(json.dumps({"twist": {"q": "2"}, "coeffs": coeffs}))
    argv = ["np", "--backend", "twisted", "--require-complete", "--in", str(f)]
    code = main(argv)
    captured = capsys.readouterr()
    if want is None:
        assert code == 2
        assert "a_1 is zero only below x^-5" in captured.err
    else:
        assert code == 0
        segs = json.loads(captured.out)["polygon"]["segments"]
        assert [s["slope"] for s in segs] == want


_MONIC = {"vmin": 0, "c": ["1"]}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (
            ["np", "--backend", "diff"],
            {"matrix": [[{"vmin": -2, "c": ["1"], "prec": 2.5}]]},
            "series prec must be an integer",
        ),
        (
            ["factor"],
            {"twist": {"q": "2"}, "coeffs": [{"vmin": 1.5, "c": ["1"]}, _MONIC]},
            "series vmin must be an integer",
        ),
        (
            ["factor"],
            {
                "twist": {"q": "2"},
                "coeffs": [{"vmin": -1, "c": ["1"], "prec": True}, _MONIC],
            },
            "series prec must be an integer",
        ),
        (
            ["np", "--backend", "twisted"],
            {
                "twist": {"q": "2"},
                "coeffs": [{"vmin": -1, "c": ["1"], "prec": 5.5}, _MONIC],
            },
            "series prec must be an integer",
        ),
        (
            ["factor"],
            {"twist": {"q": "2"}, "coeffs": [{"vmin": 0, "c": "12"}, _MONIC]},
            "series c must be a list of strings or integers",
        ),
        (
            ["np", "--backend", "diff"],
            {"matrix": [[{"vmin": -2, "c": [1.5]}]]},
            "series c must be a list of strings or integers",
        ),
        (
            ["np", "--backend", "twisted"],
            {"twist": {"q": "2"}, "coeffs": [{"vmin": -1, "c": [True]}, _MONIC]},
            "series c must be a list of strings or integers",
        ),
    ],
    ids=[
        "diff-float-prec",
        "factor-float-vmin",
        "factor-bool-prec",
        "twisted-float-prec",
        "factor-string-c",
        "diff-float-c",
        "twisted-bool-c",
    ],
)
def test_series_fields_must_be_integers(tmp_path, capsys, argv, doc, message):
    """A series vmin or prec that is a float or a bool, or a c that is not
    a list of strings and integers, is a bad input (exit 2), never read as
    a number nor left to fail as a bug."""
    f = tmp_path / "in.json"
    f.write_text(json.dumps(doc))
    code = main(argv + ["--in", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (
            ["np", "--backend", "twisted"],
            {"valuations": [0, -1.5, 0]},
            "valuation must be an integer, got -1.5",
        ),
        (
            ["np", "--backend", "diff"],
            {"valuations": [0, 1.5, -2]},
            "valuation must be an integer, got 1.5",
        ),
        (
            ["np", "--backend", "twisted"],
            {"valuations": [0, True, 0]},
            "valuation must be an integer, got True",
        ),
        (
            ["np", "--backend", "twisted"],
            {
                "twist": {"q": "2"},
                "coeffs": [{"vmin": -1, "c": ["1"]}, _MONIC],
                "precision": 2.5,
            },
            "precision must be an integer, got 2.5",
        ),
        (
            ["hn", "--backend", "lattice"],
            {"gram": [[0.1, 0], [0, 2]]},
            "gram entry must be a string or an integer, got 0.1",
        ),
        (
            ["hn", "--backend", "filtered"],
            {"dim": 2.5, "filtrations": []},
            "dim must be an integer, got 2.5",
        ),
        (
            ["hn", "--backend", "filtered"],
            {"dim": 1, "filtrations": [{"steps": [{"jump": "0", "basis": [[1.5]]}]}]},
            "basis entry must be a string or an integer, got 1.5",
        ),
        (
            ["hn", "--backend", "filtered"],
            {"dim": 1, "filtrations": [{"steps": [{"jump": 0.5, "basis": [["1"]]}]}]},
            "jump must be a string or an integer, got 0.5",
        ),
        (
            ["hn", "--backend", "table"],
            {"objects": [{"id": "a", "rank": 1.5, "deg": "0"}]},
            "rank must be an integer, got 1.5",
        ),
        (
            ["hn", "--backend", "table"],
            {"objects": [{"id": "a", "rank": 1, "deg": 0.1}]},
            "deg must be a string or an integer, got 0.1",
        ),
        (
            ["combine", "--mode", "dual"],
            {"p": {"segments": [{"slope": "1", "mult": 1.7}]}},
            "mult must be an integer, got 1.7",
        ),
        (
            ["combine", "--mode", "dual"],
            {"p": {"segments": [{"slope": 0.1, "mult": 1}]}},
            "slope must be a string or an integer, got 0.1",
        ),
        (
            ["combine", "--mode", "dual"],
            {"p": {"segments": [{"slope": {"neg_half_log": "2", "root": 2.0}, "mult": 1}]}},
            "root must be an integer, got 2.0",
        ),
        (["swan"], {"sizes": [3.5, 1]}, "size must be an integer, got 3.5"),
        (
            ["swan"],
            {"sizes": [3, 3, 1], "reps": [{"dim": 1.9, "fixed": [0, 0, 1]}]},
            "dim must be an integer, got 1.9",
        ),
        (
            ["np", "--backend", "twisted"],
            {"twist": {"q": 0.5}, "coeffs": [{"vmin": -1, "c": ["1"]}, _MONIC]},
            "q must be a string or an integer, got 0.5",
        ),
    ],
    ids=[
        "twisted-float-valuation",
        "diff-float-valuation",
        "twisted-bool-valuation",
        "twisted-float-precision",
        "lattice-float-gram",
        "filtered-float-dim",
        "filtered-float-basis",
        "filtered-float-jump",
        "table-float-rank",
        "table-float-deg",
        "polygon-float-mult",
        "polygon-float-slope",
        "polygon-float-root",
        "ramification-float-size",
        "ramification-float-dim",
        "twist-float-q",
    ],
)
def test_integer_fields_are_never_truncated(tmp_path, capsys, argv, doc, message):
    """A valuation, a twisted polynomial's precision, a dimension, a rank,
    a ramification size or a polygon's mult or root that is a float or a
    bool is a bad input (exit 2), never truncated to an integer; a Gram or
    basis entry, a jump, a degree, a slope or a twist q that is a float is
    one too, never read through its binary value."""
    f = tmp_path / "in.json"
    f.write_text(json.dumps(doc))
    code = main(argv + ["--in", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err


def test_factor_echoes_a_zero_coefficient_at_vmin_0(tmp_path, capsys):
    """A one-slope input is its own factor, echoed in the Series normal
    form: a_1 written as {"vmin": 3, "c": ["0"]} is the zero series and
    prints vmin 0."""
    f = tmp_path / "in.json"
    coeffs = [{"vmin": -1, "c": ["1"]}, {"vmin": 3, "c": ["0"]}, _MONIC]
    f.write_text(json.dumps({"twist": {"q": "2"}, "coeffs": coeffs}))
    out = tmp_path / "out.json"
    assert main(["factor", "--prec", "40", "--in", str(f), "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["factor_slopes"] == ["1/2"]
    assert doc["factors"][0]["coeffs"][1] == {"vmin": 0, "c": []}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "31255edaeec2dbcbe839daa6dbc7b19070f95609fb1fb55241adc13e63a96667"
    )


def test_swan(capsys):
    code, out = run_cli(["swan", "--in", str(FIXTURES / "artin_schreier.json")], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["herbrand_breaks"][0] == {"i": 1, "lambda": "1"}
    assert all(r["integral"] for r in doc["reps"])


def test_combine(tmp_path, capsys):
    payload = {
        "mode": "tensor_mult",
        "p": {"segments": [{"slope": "1", "mult": 1}, {"slope": "0", "mult": 1}]},
        "q": {"segments": [{"slope": "2", "mult": 1}]},
    }
    f = tmp_path / "combine.json"
    f.write_text(json.dumps(payload))
    code, out = run_cli(["combine", "--in", str(f)], capsys)
    assert code == 0
    assert json.loads(out)["polygon"]["segments"] == [
        {"slope": "3", "mult": 1},
        {"slope": "2", "mult": 1},
    ]


def test_schema_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gram": [["1", "2"], ["2", "1"]]}))
    code, _ = run_cli(["hn", "--backend", "lattice", "--in", str(bad)], capsys)
    assert code == 2


def test_require_complete_exit_3(tmp_path, capsys):
    # three filtrations in dim 3: the candidate search is heuristic
    doc = {
        "dim": 3,
        "filtrations": [
            {
                "steps": [
                    {"jump": "1", "basis": [[a, b, c]]},
                    {
                        "jump": "0",
                        "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                    },
                ]
            }
            for a, b, c in (("1", "0", "0"), ("0", "1", "0"), ("1", "1", "1"))
        ],
    }
    f = tmp_path / "three.json"
    f.write_text(json.dumps(doc))
    code, _ = run_cli(
        ["hn", "--backend", "filtered", "--in", str(f), "--require-complete"],
        capsys,
    )
    assert code == 3
    code, _ = run_cli(["hn", "--backend", "filtered", "--in", str(f)], capsys)
    assert code == 0


def test_budget_exhaustion_exit_3(monkeypatch, capsys):
    import pytest

    from slopes.core import Budget, BudgetExhausted
    from slopes.lattices import EuclideanLattice, destabilizer_lattice

    with pytest.raises(BudgetExhausted):
        destabilizer_lattice(
            EuclideanLattice.standard(4), Budget(bound=4, max_candidates=3)
        )
    import slopes.cli as cli_mod

    def exploding(args):
        raise BudgetExhausted("out of budget")

    monkeypatch.setattr(cli_mod, "dispatch", exploding)
    code = main(["hn", "--backend", "lattice", "--in", str(FIXTURES / "z2.json")])
    capsys.readouterr()
    assert code == 3


def test_lattice_search_budget_exit_3(tmp_path, capsys):
    """A Gram whose enumeration cannot finish under the default Budget
    stops with exit 3 within seconds."""
    gram = [[str(int(i == j)) for j in range(6)] for i in range(6)]
    gram[5][5] = str(10**30)
    f = tmp_path / "skew.json"
    f.write_text(json.dumps({"gram": gram}))
    code, _ = run_cli(["hn", "--backend", "lattice", "--in", str(f)], capsys)
    assert code == 3


def test_outputs_pass_the_digit_limit(tmp_path, capsys):
    """An answer longer than Python's int/str digit limit is written, an
    input integer longer than it is still a bad input, and main hands the
    caller its limit back."""
    big = "1" + "0" * 2200
    answer = tmp_path / "answer.json"
    answer.write_text(json.dumps({"gram": [[big, "0"], ["0", "3" + big[1:]]]}))
    given = tmp_path / "given.json"
    given.write_text(json.dumps({"gram": [["1" + "0" * 4400, "0"], ["0", "1"]]}))
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run_cli(["hn", "--backend", "lattice", "--in", str(answer)], capsys)
        assert (code, sys.get_int_max_str_digits()) == (0, 4300)
        assert json.loads(out)["polygon"]["endpoints"][-1][1] == {"neg_half_log": "3" + "0" * 4400}
        code = main(["hn", "--backend", "lattice", "--in", str(given)])
        assert (code, sys.get_int_max_str_digits()) == (2, 4300)
        assert "Exceeds the limit" in capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(caller)


# Run in a fresh interpreter: the slopes modules that import slopes.cli
# loads, then those that main(argv) adds to them.
_LOAD_PROBE = """
import json, sys
loaded = lambda: {m for m in sys.modules if m.split(".")[0] == "slopes"}
from slopes import cli
base = loaded()
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(base), sorted(loaded() - base)]))
"""


def _probe_loads(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, *argv], capture_output=True, text=True, check=True
    )
    code, base, added = json.loads(proc.stdout.splitlines()[-1])
    return code, set(base), {m.removeprefix("slopes.") for m in added}


def test_import_of_cli_loads_no_backend():
    assert _probe_loads([])[1] == {
        "slopes",
        "slopes.cli",
        "slopes.core",
        "slopes.degrees",
        "slopes.errors",
        "slopes.polygon",
    }


@pytest.mark.parametrize(
    "argv, backend",
    [
        (["factor", "--in", "twisted_two_slopes.json"], {"phi", "diff", "series"}),
        (["np", "--backend", "twisted", "--in", "adams_sauloy.json"], {"phi", "diff", "series"}),
        (["np", "--backend", "diff", "--in", "diff_op.json"], {"diff", "series"}),
        (["hn", "--backend", "diff", "--in", "diff_op.json"], {"diff", "series"}),
        (["hn", "--backend", "lattice", "--in", "rank3.json"], {"lattices", "linalg"}),
        (
            ["hn", "--backend", "filtered", "--in", "filtered_two_jumps.json"],
            {"filtered", "linalg"},
        ),
        (["hn", "--backend", "table", "--in", "hn_chain.json", "--object", "N"], {"tables"}),
        (["swan", "--in", "artin_schreier.json"], {"ramification"}),
        (
            ["check", "--law", "axioms", "--backend", "filtered", "--samples", "2"],
            {"laws", "filtered", "linalg"},
        ),
        (
            ["check", "--law", "axioms", "--backend", "table", "--in", "eq5_2.json"],
            {"laws", "tables"},
        ),
    ],
    ids=[
        "factor",
        "np-twisted",
        "np-diff",
        "hn-diff",
        "hn-lattice",
        "hn-filtered",
        "hn-table",
        "swan",
        "check",
        "check-table",
    ],
)
def test_each_subcommand_loads_only_its_backend(tmp_path, argv, backend):
    """One run of a subcommand adds to what import slopes.cli loads only the
    backend it runs; check adds laws and the backend its law runs on."""
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    code, _, added = _probe_loads(argv + ["--out", str(tmp_path / "out.json")])
    assert code == 0
    assert added == backend


def test_determinism_byte_identical(tmp_path):
    """Every command with a fixed seed writes byte-identical output."""
    cases = [
        ["hn", "--backend", "lattice", "--in", str(FIXTURES / "z2.json")],
        ["hn", "--backend", "table", "--in", str(FIXTURES / "hn_chain.json"), "--object", "N"],
        ["np", "--backend", "diff", "--in", str(FIXTURES / "diff_op.json")],
        ["factor", "--in", str(FIXTURES / "twisted_two_slopes.json"), "--prec", "40"],
        ["swan", "--in", str(FIXTURES / "artin_schreier.json")],
        ["check", "--law", "dominance", "--backend", "filtered", "--samples", "6", "--seed", "7"],
        ["check", "--law", "axioms", "--backend", "filtered", "--samples", "10", "--seed", "3"],
    ]
    for args in cases:
        outs = []
        for run in range(2):
            out = tmp_path / f"out-{run}.json"
            cmd = [sys.executable, "-m", "slopes.cli"] + args + ["--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True)
            assert proc.returncode == 0, (args, proc.stderr)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], args


def test_svg_sidecar(tmp_path, capsys):
    out = tmp_path / "res.json"
    svg = tmp_path / "poly.svg"
    code = main(
        [
            "hn",
            "--backend",
            "table",
            "--in",
            str(FIXTURES / "hn_chain.json"),
            "--object",
            "N",
            "--out",
            str(out),
            "--svg",
            str(svg),
        ]
    )
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<svg") and "polyline" in body
    # svg deterministic too
    first = svg.read_bytes()
    main(
        [
            "hn",
            "--backend",
            "table",
            "--in",
            str(FIXTURES / "hn_chain.json"),
            "--object",
            "N",
            "--out",
            str(out),
            "--svg",
            str(svg),
        ]
    )
    assert svg.read_bytes() == first


def test_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("SLOPES_SEED", "42")
    code, out = run_cli(
        ["check", "--law", "axioms", "--backend", "filtered", "--samples", "5"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["seed"] == 42


def test_env_seed_not_an_integer_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("SLOPES_SEED", "abc")
    code = main(["check", "--law", "axioms", "--backend", "filtered", "--samples", "5"])
    assert code == 2
    assert capsys.readouterr().err == "error: SLOPES_SEED must be an integer, got 'abc'\n"


def test_flag_seed_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("SLOPES_SEED", "42")
    code, out = run_cli(
        [
            "check",
            "--law",
            "axioms",
            "--backend",
            "filtered",
            "--samples",
            "5",
            "--seed",
            "7",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["seed"] == 7


# three HN steps, so the middle one is a pullback from the quotient
DIAG_1_4_16 = {"gram": [["1", "0", "0"], ["0", "4", "0"], ["0", "0", "16"]]}

THREE_FILTRATIONS = {
    "dim": 3,
    "filtrations": [
        {
            "steps": [
                {"jump": "2", "basis": [["1", "0", "0"]]},
                {"jump": "1", "basis": [["1", "0", "0"], ["0", "1", "0"]]},
                {"jump": "0", "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
            ]
        },
        {
            "steps": [
                {"jump": "1", "basis": [["0", "1", "1"]]},
                {"jump": "0", "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
            ]
        },
        {
            "steps": [
                {"jump": "1", "basis": [["1", "1", "0"], ["0", "0", "1"]]},
                {"jump": "-1", "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
            ]
        },
    ],
}

# (phi - 2x^-3)(phi + 3x), slopes 3 then -1, to precision 40
TWO_SLOPE_PRODUCT = {
    "twist": {"q": "2"},
    "coeffs": [
        {"vmin": -2, "c": ["-6"]},
        {"vmin": -3, "c": ["-2", "0", "0", "0", "6"]},
        {"vmin": 0, "c": ["1"]},
    ],
    "precision": 40,
}

# (phi + x^-2)(phi - 3x^2)(phi + 2x^-3), slopes 2, -2, 3, to precision 40
THREE_SLOPE_PRODUCT = {
    "twist": {"q": "2"},
    "coeffs": [
        {"vmin": -3, "c": ["-6"]},
        {"vmin": -5, "c": ["1/4", "0", "0", "0", "-3", "-3"]},
        {"vmin": -3, "c": ["1/32", "1", "0", "0", "0", "-12"]},
        {"vmin": 0, "c": ["1"]},
    ],
    "precision": 40,
}

# (phi + 3/2 x^-2 + 1)(phi - 2x + 1/3 x^2) twisted by q = -2/3, slopes 2
# and -1, the constant coefficient known only below x^43: dilation by a
# rational q with a denominator, and a truncated input
RATIONAL_TWIST_PRODUCT = {
    "twist": {"q": "-2/3"},
    "coeffs": [
        {"vmin": -1, "c": ["-3", "1/2", "-2", "1/3"], "prec": 43},
        {"vmin": -2, "c": ["3/2", "0", "1", "4/3", "4/27"]},
        {"vmin": 0, "c": ["1"]},
    ],
}

_ZERO = {"vmin": 0, "c": []}

# companion matrix of D^3 - (-2/3 + 3/2 D - 3/2 D^2) x^-2, common
# denominator 6
DIFF_RANK3_RATIONAL = {
    "matrix": [
        [_ZERO, _ZERO, {"vmin": -2, "c": ["-2/3"]}],
        [{"vmin": 0, "c": ["1"]}, _ZERO, {"vmin": -2, "c": ["3/2"]}],
        [_ZERO, {"vmin": 0, "c": ["1"]}, {"vmin": -2, "c": ["-3/2"]}],
    ]
}

# the Katz powers vanish to a precision below x^1 at keep=16, so the run
# needs a keep doubling; the x^-1 entry is known only below x^23
DIFF_KEEP_DOUBLING = {
    "matrix": [
        [_ZERO, {"vmin": -1, "c": ["-1", "-3"], "prec": 23}, {"vmin": 1, "c": ["1/2", "1/2"]}],
        [{"vmin": 2, "c": ["-3/2"]}, _ZERO, _ZERO],
        [_ZERO, {"vmin": 1, "c": ["-1"]}, {"vmin": 0, "c": ["-1"]}],
    ]
}

# the first of 200 sparse rank-3 draws (random.Random(1), q = 2, each entry
# c x^e with probability 0.7, c in {1, 2, -1, 3}, e in -2..2): slopes 0, -1
# and -2; its digest was read off a Series solve of the cyclic vector's
# iterates, so the pin holds the determinant valuations to that answer
PHI_RANK3_DRAW = {
    "matrix": [
        [{"vmin": 0, "c": ["1"]}, {"vmin": 1, "c": ["3"]}, {"vmin": -2, "c": ["2"]}],
        [{"vmin": 1, "c": ["3"]}, {"vmin": 1, "c": ["1"]}, {"vmin": 2, "c": ["2"]}],
        [_ZERO, _ZERO, {"vmin": 2, "c": ["1"]}],
    ],
    "twist": {"q": "2"},
}

LATTICE_HN = ("hn", "--backend", "lattice")
FILTERED_HN = ("hn", "--backend", "filtered")
FACTOR_40 = ("factor", "--prec", "40")
NP_DIFF = ("np", "--backend", "diff")
NP_TWISTED = ("np", "--backend", "twisted")

CHECK = ("check", "--law")

# sha256 of the --out artifacts of `hn`, `np`, `factor` and `check` (input
# name None: the law samples its own objects); a refactor of the
# destabilizer searches, of the filtered degrees, of the slope
# factorization or of the Katz powers must keep them byte for byte.
PINNED_ARTIFACTS = {
    (LATTICE_HN, "z2"):
        "2a33e30158f88ea37147e43e0bea63537b9fed98f678f625d2acc0ede1bc61d3",
    (LATTICE_HN, "diag14"):
        "ee613c8d2e2fb7fe24e8ddf645f13df6571cc03b9a1d552def536e125217839d",
    (LATTICE_HN, "rank3"):
        "a919457967fe187b3e7c2273c3f0bf0880746b357677b31e46c64190059bb2c4",
    (FILTERED_HN, "filtered_two_jumps"):
        "9f9c07088ab3cfed4ef8b8b8154845b14d579fad081c67b5d5f2cd06c91db242",
    (FILTERED_HN, "three_filtrations"):
        "ad8b7502792133774ff37eacd2875195258bbbe89e381fb3baf0945c20124630",
    (LATTICE_HN, "diag_1_4_16"):
        "03eb32d08cfeed067946130f65f570a4b76c27f6d3c9d4fdf4edb7b60b1a5fda",
    (("hn", "--backend", "diff"), "diff_op"):
        "21dccbd70fa3ebb73a333bc80fefd342266f2f013f33cb5316efcc82d80bb469",
    (FACTOR_40, "twisted_two_slopes"):
        "ede3422ec7f493218d88476e4fc03a5782b971c91cfaae9324c16c7f8a603ea2",
    (FACTOR_40, "two_slope_product"):
        "d42eb543fe3ef9140c6219c87bc29f863f5ea37b9592ba8d07a527cdf407ad34",
    (FACTOR_40, "three_slope_product"):
        "b2239cf54b124cb2ebfb64b9e7ea5925410571df22c8da1c25b819345b0bf41e",
    (FACTOR_40, "rational_twist_product"):
        "249bae61e8aa7ca4d7039bd9237495c702d0c1187ab72b7befa60df4217944dc",
    ((*CHECK, "dominance", "--seed", "7"), None):
        "af6164ad847573d90c87329b4e14ff3ad0c8b45f735336733e719a0837b87524",
    ((*CHECK, "duality"), None):
        "e18cce66f1aa21f3e12a535503c3aca2dec1405272bb7154903296603d5c79fe",
    ((*CHECK, "tensor-mult"), None):
        "203f68e23984593980018e46aa916b23a3eb9be96fe35b35cebbf3080c6ec661",
    ((*CHECK, "exactness", "--backend", "filtered"), None):
        "7c0f634a89c75392e684b9cbf45a09c424c3c136cbf491c9fe7a817fec926046",
    ((*CHECK, "coprime-stable"), None):
        "0a7a236269fdb3a1ee126524df8e93b75dfc77c726641d2dd0e0d4c2c807aec7",
    ((*CHECK, "axioms", "--backend", "filtered"), None):
        "d163295ae592739ce526fde3dcaadd93e52805f7c1a2ccfbfc631c2b5340b349",
    (NP_DIFF, "diff_op"):
        "e7fbf7c220d0d7f5bb6bc9753a56c1a7e260e64c7dd9a00a5e0c5606cb2a7446",
    (NP_DIFF, "diff_rank3_rational"):
        "5f296aab2623ce08ed3ba617a6b34a4e3b7ffb43d1f381f6865f85f9d3f12fdd",
    (NP_DIFF, "diff_keep_doubling"):
        "5b0104c2008e30a90d835b01ebd08678f1b9041cdf29d594ed4042f4bca3a92a",
    (NP_TWISTED, "adams_sauloy"):
        "5db40eff3bddc2a76f7aa765021772177e6ecb6428b0b4017514f12c5bf2bc8d",
    (NP_TWISTED, "phi_rank3_draw"):
        "a5eb839fe8e15daa5f69767bba998cba86cc0f57fbde8132bfeb93ca88e53944",
}


def test_hn_artifacts_pinned(tmp_path, capsys):
    inline = {
        "three_filtrations": THREE_FILTRATIONS,
        "diag_1_4_16": DIAG_1_4_16,
        "two_slope_product": TWO_SLOPE_PRODUCT,
        "three_slope_product": THREE_SLOPE_PRODUCT,
        "rational_twist_product": RATIONAL_TWIST_PRODUCT,
        "diff_rank3_rational": DIFF_RANK3_RATIONAL,
        "diff_keep_doubling": DIFF_KEEP_DOUBLING,
        "phi_rank3_draw": PHI_RANK3_DRAW,
    }
    for (command, name), digest in PINNED_ARTIFACTS.items():
        argv = list(command)
        if name in inline:
            src = tmp_path / f"{name}.json"
            src.write_text(json.dumps(inline[name]))
            argv += ["--in", str(src)]
        elif name is not None:
            argv += ["--in", str(FIXTURES / f"{name}.json")]
        out = tmp_path / "out.json"
        code = main([*argv, "--out", str(out)])
        capsys.readouterr()
        assert code == 0, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


Q2 = {"q": "2"}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["hn", "--backend", "lattice"], None, None),
        (["hn", "--backend", "lattice"], {"gram": 5}, None),
        (["hn", "--backend", "table"], {"objects": []}, None),
        (["hn", "--backend", "table"], ["not", "an", "object"], None),
        (
            ["combine", "--mode", "direct_sum"],
            {"p": {"segments": [{"slope": "1", "mult": 1}]}},
            None,
        ),
        (["factor", "--prec", "40"], {**TWO_SLOPE_PRODUCT, "precision": 3}, None),
        (["np", "--backend", "diff"], {"matrix": [["1"], []]}, None),
        (["np", "--backend", "twisted"], {"matrix": [["1"], []], "twist": Q2}, None),
        (
            ["hn", "--backend", "filtered"],
            {
                "dim": 2,
                "filtrations": [
                    {
                        "steps": [
                            {"jump": "1", "basis": [["1", "0", "0"]]},
                            {"jump": "0", "basis": [["1", "0"], ["0", "1"]]},
                        ]
                    }
                ],
            },
            None,
        ),
        (
            ["np", "--backend", "twisted"],
            {"matrix": [["1", "1"], ["1", "1"]], "twist": Q2},
            "matrix determinant is zero",
        ),
        (
            ["np", "--backend", "twisted"],
            {"matrix": [[_ZERO]], "twist": Q2},
            "matrix determinant is zero",
        ),
        (
            ["hn", "--backend", "table"],
            json.loads((FIXTURES / "z2.json").read_text()),
            "the table has no nonzero object",
        ),
    ],
    ids=[
        "missing-file",
        "gram-not-a-matrix",
        "table-without-objects",
        "table-not-an-object",
        "sum-without-q",
        "factor-prec-above-input",
        "diff-matrix-ragged",
        "twisted-matrix-ragged",
        "filtered-row-too-wide",
        "phi-matrix-singular",
        "phi-matrix-zero",
        "table-without-nonzero-object",
    ],
)
def test_bad_input_exit_2(tmp_path, capsys, argv, doc, message):
    f = tmp_path / "in.json"
    if doc is not None:
        f.write_text(json.dumps(doc))
    code = main(argv + ["--in", str(f)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if message is not None:
        assert err == f"error: {message}\n"


def _mono(c, k):
    return {"vmin": k, "c": [c]}


@pytest.mark.parametrize(
    "argv, doc, want",
    [
        # no working precision is chosen: the first cyclic candidate of
        # both diagonal matrices is e_0 + x e_1
        (NP_TWISTED, {"matrix": [["1", "0"], ["0", "1"]], "twist": Q2}, ["0 x2"]),
        (
            NP_TWISTED,
            {"matrix": [[_mono("1", -1), _ZERO], [_ZERO, _mono("1", -1)]], "twist": Q2},
            ["1 x2"],
        ),
        # v(det A) is 0 unless the open x^2 coefficient of A_11 vanishes
        (
            NP_TWISTED,
            {
                "matrix": [
                    [{"vmin": -2, "c": ["3", "-1"]}, {"vmin": 0, "c": ["-2", "3"]}],
                    [_mono("1", 1), {"vmin": 0, "c": [], "prec": 2}],
                ],
                "twist": Q2,
            },
            "column reduction ran out of certified pivots",
        ),
        # a_0 = x^-5 would give one slope 5/2 of multiplicity 2
        (
            ("hn", "--backend", "diff"),
            {"coeffs": [{"vmin": 0, "c": [], "prec": -5}, _mono("1", -1)], "n": 2},
            "indeterminate polygon: a_0 is zero only below x^-5, and (2, 5) lies "
            "above the hull of the known points",
        ),
        # (2, -3) lies below the hull, and -3 below the Fuchs number 1
        (
            NP_DIFF,
            {"coeffs": [{"vmin": 0, "c": [], "prec": 3}, _mono("1", -1)], "n": 2},
            ["1 x1", "0 x1"],
        ),
    ],
    ids=["phi-identity", "phi-diag-x-inv", "phi-det-open", "diff-hn-open-a0", "diff-np-open-a0"],
)
def test_polygons_decided_by_the_known_terms(tmp_path, capsys, argv, doc, want):
    """A list want is the polygon's slopes ("slope xmult"), a string the
    error of an exit-2 run."""
    f = tmp_path / "in.json"
    f.write_text(json.dumps(doc))
    code = main([*argv, "--in", str(f)])
    captured = capsys.readouterr()
    if isinstance(want, str):
        assert (code, captured.err) == (2, f"error: {want}\n")
        return
    assert code == 0
    out = json.loads(captured.out)
    assert [f"{s['slope']} x{s['mult']}" for s in out["polygon"]["segments"]] == want
    if argv == NP_DIFF:
        assert out["irregularity"] == 1


def test_bug_is_not_bad_input(monkeypatch):
    def broken(*args):
        raise KeyError("a defect, not an input")

    monkeypatch.setattr(cli, "hn_filtration", broken)
    with pytest.raises(KeyError):
        main(["hn", "--backend", "lattice", "--in", str(FIXTURES / "z2.json")])


def test_dominance_on_a_table(capsys):
    code, out = run_cli(
        [
            "check",
            "--law",
            "dominance",
            "--backend",
            "table",
            "--in",
            str(FIXTURES / "hn_chain.json"),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["flags_checked"] == 11
    assert report["dominance_failures"] == 0 and report["uniqueness_failures"] == 0


@pytest.mark.parametrize(
    "load, doc",
    [
        (load_table, [1, 2]),
        (EuclideanLattice.from_json, {}),
        (FilteredSpace.from_json, {"dim": 2}),
        (load_ramification, {}),
        (NewtonPolygon.from_json, {}),
    ],
    ids=["table", "lattice", "filtered", "ramification", "polygon"],
)
def test_loaders_reject_malformed_documents(load, doc):
    with pytest.raises(SchemaError):
        load(doc)


def test_error_classes_share_one_root():
    from slopes.core import BudgetExhausted, CapabilityError
    from slopes.degrees import SlopeError
    from slopes.diff import DiffError
    from slopes.errors import SchemaError, SlopesError
    from slopes.filtered import FilteredError
    from slopes.lattices import LatticeError
    from slopes.phi import TwistError
    from slopes.ramification import RamificationError
    from slopes.series import PrecisionError
    from slopes.tables import TableError

    for cls in (
        SlopeError,
        TableError,
        LatticeError,
        TwistError,
        DiffError,
        FilteredError,
        RamificationError,
        PrecisionError,
        BudgetExhausted,
        SchemaError,
    ):
        assert issubclass(cls, SlopesError), cls
    assert issubclass(SchemaError, ValueError)
    assert not issubclass(CapabilityError, SlopesError)


def _parser_flags():
    """subcommand -> the option strings its parser accepts."""
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }


def test_subcommand_flag_sets():
    common = {"--out", "--svg", "--seed", "--require-complete"}
    own = {
        "hn": {"--backend", "--in", "--object"},
        "np": {"--backend", "--in", "--object"},
        "factor": {"--in", "--prec"},
        "check": {"--law", "--backend", "--samples", "--in", "--bound"},
        "swan": {"--in"},
        "combine": {"--in", "--mode"},
    }
    flags = _parser_flags()
    assert flags == {name: own[name] | common for name in own}
    assert sum(map(len, flags.values())) == 40


@pytest.mark.parametrize(
    "argv",
    [
        ["swan", "--in", str(FIXTURES / "artin_schreier.json"), "--depth", "3"],
        ["factor", "--in", str(FIXTURES / "twisted_two_slopes.json"), "--law", "x"],
        ["hn", "--backend", "bogus", "--in", str(FIXTURES / "z2.json")],
        ["np", "--in", str(FIXTURES / "adams_sauloy.json"), "--prec", "40"],
        ["check", "--backend", "filtered"],
        ["check", "--law", "duality", "--backend", "lattice"],
        ["hn", "--backend", "lattice", "--in", str(FIXTURES / "z2.json"), "--bound", "3"],
        ["check", "--law", "axioms", "--backend", "lattice", "--in", "/nonexistent.json"],
        ["check", "--law", "tensor-mult", "--in", "/nonexistent.json", "--bound", "3"],
        ["check", "--law", "bost-experiment", "--bound", "3"],
        ["check", "--law", "dominance", "--backend", "table", "--samples", "50"],
        ["check", "--law", "exactness", "--backend", "lattice", "--depth", "8"],
        [
            *("check", "--law", "dominance", "--backend", "lattice"),
            *("--in", str(FIXTURES / "rank3.json"), "--samples", "30"),
        ],
        ["check", "--law", "exactness", "--backend", "lattice", "--bound", "-1"],
        ["check", "--law", "exactness", "--backend", "lattice", "--bound", "1/0"],
        ["check", "--law", "exactness", "--backend", "lattice", "--bound", "0"],
    ],
    ids=[
        "swan-depth",
        "factor-law",
        "hn-bogus-backend",
        "np-prec",
        "check-without-law",
        "duality-on-lattice",
        "hn-bound",
        "axioms-lattice-in",
        "tensor-mult-in-bound",
        "bost-bound",
        "dominance-table-samples",
        "exactness-lattice-depth",
        "dominance-lattice-in-samples",
        "bound-negative",
        "bound-zero-denominator",
        "bound-zero",
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: slopes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--in", str(FIXTURES / "twisted_two_slopes.json"), "--prec", "-3"],
        ["factor", "--in", str(FIXTURES / "twisted_two_slopes.json"), "--prec", "0"],
        ["check", "--law", "dominance", "--samples", "-1"],
        ["check", "--law", "axioms", "--samples", "0"],
    ],
    ids=[
        "factor-prec-neg",
        "factor-prec-0",
        "check-samples-neg",
        "check-samples-0",
    ],
)
def test_nonpositive_prec_and_samples_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


RUN_CHECKS = Path(__file__).resolve().parents[1] / "scripts" / "run_checks.py"


def test_run_checks_rejects_nonpositive_samples():
    proc = subprocess.run(
        [sys.executable, str(RUN_CHECKS), "--samples", "0"], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "must be at least 1" in proc.stderr


def test_run_checks_passes_every_law_on_every_backend():
    """One ok row for each (law, backend) pair of cli.LAWS, and nothing else."""
    proc = subprocess.run([sys.executable, str(RUN_CHECKS)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split()[:2] for line in proc.stdout.splitlines()]
    pairs = [f"{name}/{backend}" for name, law in cli.LAWS.items() for backend in law.reads]
    assert rows == [[pair, "ok"] for pair in pairs]


def _run_checks_module():
    spec = importlib.util.spec_from_file_location("run_checks", RUN_CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_checks_rows_exit_0_through_main(tmp_path, capsys):
    out = tmp_path / "report.json"
    for name, backend, argv in _run_checks_module().rows(40, 0):
        assert main(argv + ["--out", str(out)]) == 0, f"{name}/{backend}"
    assert capsys.readouterr().err == ""


def test_check_exits_4_when_the_verdict_rejects(tmp_path, monkeypatch, capsys):
    """The report is written as ever; the exit code and stderr say the law
    fails."""
    argv = ["check", "--law", "axioms", "--backend", "filtered", "--samples", "3"]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    written = out.read_text()
    rejecting = cli.LAWS["axioms"]._replace(verdict=lambda report, backend: False)
    monkeypatch.setitem(cli.LAWS, "axioms", rejecting)
    out.unlink()
    assert main(argv + ["--out", str(out)]) == 4
    assert out.read_text() == written
    assert capsys.readouterr().err == "error: law axioms fails on filtered\n"


def test_check_runs_on_every_backend_of_its_law(capsys):
    """--backend takes every backend of cli.LAWS: tensor-bounded runs on diff."""
    assert cli.CHECK_BACKENDS == ("filtered", "lattice", "table", "diff")
    code, out = run_cli(["check", "--law", "tensor-bounded", "--backend", "diff"], capsys)
    assert code == 0
    assert json.loads(out)["backend"] == "diff"


def test_parser_built_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert main(["swan", "--in", str(FIXTURES / "artin_schreier.json")]) == 0
    capsys.readouterr()
    assert cli.build_parser.cache_info().misses == 1


def _readme_invocations():
    """Each `slopes <cmd> ...` line of the README, with its indented
    continuation lines."""
    found, current = [], None
    for line in README.read_text().splitlines():
        if line.startswith("slopes "):
            current = line
            found.append(current)
        elif current is not None and line.startswith(" ") and line.strip():
            found[-1] += " " + line.strip()
        else:
            current = None
    return found


def test_readme_usage_matches_parser():
    flags = _parser_flags()
    invocations = _readme_invocations()
    assert {text.split()[1] for text in invocations} == set(flags)
    for text in invocations:
        cmd = text.split()[1]
        assert set(re.findall(r"--[a-z][a-z-]*", text)) <= flags[cmd], text
        if "|" not in text and "[" not in text:
            cli.build_parser().parse_args(shlex.split(text)[1:])
