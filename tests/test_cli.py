import hashlib
import json
import subprocess
import sys
from pathlib import Path

from slopes.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "slopes" / "fixtures"


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


RANK3_LATTICE = {"gram": [["2", "1", "0"], ["1", "2", "1"], ["0", "1", "9"]]}

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

# sha256 of the --out artifacts of `hn`; a refactor of the destabilizer
# searches must keep them byte for byte.
PINNED_ARTIFACTS = {
    ("lattice", "z2"):
        "2a33e30158f88ea37147e43e0bea63537b9fed98f678f625d2acc0ede1bc61d3",
    ("lattice", "diag14"):
        "ee613c8d2e2fb7fe24e8ddf645f13df6571cc03b9a1d552def536e125217839d",
    ("lattice", "rank3"):
        "a919457967fe187b3e7c2273c3f0bf0880746b357677b31e46c64190059bb2c4",
    ("filtered", "filtered_two_jumps"):
        "9f9c07088ab3cfed4ef8b8b8154845b14d579fad081c67b5d5f2cd06c91db242",
    ("filtered", "three_filtrations"):
        "ad8b7502792133774ff37eacd2875195258bbbe89e381fb3baf0945c20124630",
}


def test_hn_artifacts_pinned(tmp_path, capsys):
    inline = {"rank3": RANK3_LATTICE, "three_filtrations": THREE_FILTRATIONS}
    for (backend, name), digest in PINNED_ARTIFACTS.items():
        src = FIXTURES / f"{name}.json"
        if name in inline:
            src = tmp_path / f"{name}.json"
            src.write_text(json.dumps(inline[name]))
        out = tmp_path / f"{name}.out.json"
        code = main(["hn", "--backend", backend, "--in", str(src), "--out", str(out)])
        capsys.readouterr()
        assert code == 0, name
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name
