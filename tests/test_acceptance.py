"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.  Everything here is exact arithmetic; the only
tolerance that appears at all is the 1/n_max window of the spectral-rank
estimate, pinned below.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from slopes.core import Budget, hn_filtration, is_semistable
from slopes.degrees import DegreeValue, SlopeKey
from slopes.diff import (
    DifferentialOperator,
    companion,
    gerard_levelt_irregularity,
    highest_break,
    irregularity_cyclic,
    katz_rank_spectral,
    np_diff,
    polygon_height,
    rank_one_break,
)
from slopes.filtered import (
    FilteredBackend,
    degree_filtered,
    induced_filtration,
    make_filtered,
)
from slopes.lattices import (
    EuclideanLattice,
    LatticeBackend,
    quotient_with_metric,
    saturate,
)
from slopes.laws import (
    bost_experiment,
    check_dominance,
    check_duality_filtered,
    check_exactness,
    check_hn_uniqueness,
    check_coprime_stability,
    check_tensor_mult_filtered,
    gr_kernel_demo,
    sample_filtered_space,
)
from slopes.phi import (
    PhiMatrix,
    TwistSpec,
    TwistedPolynomial,
    diagonal_phi,
    dm_degree,
    np_of_poly,
    np_phi_matrix,
    slope_factor,
    tensor_phi,
    twisted_mul,
)
from slopes.ramification import (
    RamificationData,
    RepresentationData,
    herbrand_breaks,
    swan,
)
from slopes.series import Series
from slopes.tables import TableBackend, load_table

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "slopes" / "fixtures"


def table(name):
    return TableBackend(load_table(json.loads((FIXTURES / name).read_text())))


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_hn_uniqueness_and_dominance():
    """>= 200 seeded filtered instances (dim <= 3, n <= 2) plus all table
    fixtures: exactly one qualifying flag equals the engine's, and every
    flag polygon is dominated with equal endpoints.  Exact; < 60 s."""
    t0 = time.time()
    budget = Budget()
    backend = FilteredBackend()
    rng = random.Random(20260808)
    instances = 0
    while instances < 200:
        v = sample_filtered_space(rng, dim_max=3, n=rng.choice((1, 2)))
        uni = check_hn_uniqueness(backend, v, budget)
        assert uni["qualifying"] == 1 and uni["matches_hn"], v.to_json()
        assert uni["complete"]
        dom = check_dominance(backend, v, budget)
        assert dom["dominance_failures"] == 0
        instances += 1
    for name in ("eq5_1.json", "eq5_2.json", "rem3_2_5.json", "hn_chain.json"):
        tb = table(name)
        for oid in tb.cat.objects:
            if oid == "0":
                continue
            uni = check_hn_uniqueness(tb, oid, budget)
            assert uni["qualifying"] == 1 and uni["matches_hn"], (name, oid)
            dom = check_dominance(tb, oid, budget)
            assert dom["dominance_failures"] == 0
    elapsed = time.time() - t0
    report("1 (HN uniqueness & dominance)", True, f"{instances} instances, {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_2_lattice_fixture():
    """Eq 5.2 data: sub degree -1/2 log 2, quotient +1/2 log 2, standard
    rank-2 lattice semistable of slope 0 with complete certificate, and
    the exactness probe returns that counterexample.  Exact."""
    z2 = EuclideanLattice.standard(2)
    diag = saturate(z2, [[1, 1]])
    ok = diag.degree().cmp(DegreeValue.log_positive(2)) == 0
    quot = quotient_with_metric(z2, diag)
    ok = ok and quot.degree().cmp(DegreeValue.log_positive(Fraction(1, 2))) == 0
    backend = LatticeBackend()
    ss, cert = is_semistable(backend, z2)
    ok = ok and ss and cert.complete
    ok = ok and backend.slope(z2).cmp(
        SlopeKey(DegreeValue.log_positive(1), 1)
    ) == 0
    rep = check_exactness(backend, [z2])
    ok = ok and rep["exact"] is False
    ok = ok and rep["witness"]["subobject"] == {"basis_columns": [[1, 1]]}
    ok = ok and rep["witness"]["sub_slope"] == {"neg_half_log": "2"}
    report("2 (Eq 5.2 lattice fixture)", ok)


def test_criterion_3_eq5_1_fixture():
    """Table polygon of the rank-2 middle object is one slope-0 segment;
    the flag through the twist-(-1) sub gives the same hull; the graded
    kernel accounting reports non-isomorphism.  Exact."""
    tb = table("eq5_1.json")
    res = hn_filtration(tb, "O2")
    ok = res.polygon.to_json()["segments"] == [{"slope": "0", "mult": 2}]
    from slopes.polygon import polygon_of_flag

    flag_poly = polygon_of_flag(
        [(1, tb.degree("Om1")), (2, tb.degree("O2"))]
    )
    ok = ok and flag_poly.to_json() == res.polygon.to_json()
    demo = gr_kernel_demo(tb, tb.morphisms()[0])
    ok = ok and demo["iso_possible"] is False
    report("3 (Eq 5.1 fixture)", ok)


def test_criterion_4_factor_roundtrip():
    """100 seeded products of 2-3 single-slope monic twisted polynomials
    (q = 2, precision 40): slope multisets match the product polygon and
    the re-multiplied product agrees mod x^40.  < 120 s."""
    t0 = time.time()
    rng = random.Random(4040)
    tw = TwistSpec(Fraction(2))
    done = 0
    while done < 100:
        k = rng.choice((2, 3))
        slopes = rng.sample(range(-2, 4), k)
        factors = []
        for s in slopes:
            c = Fraction(rng.randint(1, 4)) * rng.choice((1, -1))
            factors.append(
                TwistedPolynomial(
                    (Series.monomial(c, -s), Series.one()), tw
                )
            )
        prod = factors[0]
        for f in factors[1:]:
            prod = twisted_mul(prod, f)
        prod = prod.truncate(40)
        got = slope_factor(prod, 40)
        got_slopes = sorted(
            np_of_poly(f).highest_break().reduced().deg.value for f in got
        )
        assert got_slopes == sorted(Fraction(s) for s in slopes)
        re = got[0]
        for f in got[1:]:
            re = twisted_mul(re, f)
        assert all(
            re.coeff(i).eq_to_precision(prod.coeff(i), 40)
            for i in range(prod.degree + 1)
        )
        done += 1
    elapsed = time.time() - t0
    report("4 (twisted factorization roundtrip)", True, f"100 roundtrips, {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_5_adams_sauloy():
    """Cyclic form of the fixture matrix has breaks exactly {1, 0}."""
    tw = TwistSpec(Fraction(2))
    m = PhiMatrix(
        (
            (Series.monomial(1, -1), Series.monomial(1, -1)),
            (Series.zero(), Series.one()),
        ),
        tw,
    )
    got = np_phi_matrix(m).to_json()["segments"]
    ok = got == [{"slope": "1", "mult": 1}, {"slope": "0", "mult": 1}]
    report("5 (Adams-Sauloy fixture)", ok, str(got))


DIFF_FIXTURES = [
    # order 1
    [0], [-1], [-3], [2], [None],
    # order 2
    [-3, -1], [-1, None], [0, 2], [-2, -2], [None, -3], [-4, -2], [-1, -1],
    [-5, -1], [None, None], [-6, -3], [-2, None], [3, -2],
    # order 3
    [-3, -1, 0], [-2, -2, -2], [None, None, -2], [-6, -4, -2], [-1, None, None],
    [-4, None, -1], [0, 0, 0], [-5, -3, -4],
    # order 4
    [-2, None, -1, None], [-6, None, -2, None], [-4, -3, -2, -1],
    [None, None, None, -1], [-8, -6, -4, -2], [-3, -1, -2, -1],
]


def test_criterion_6_differential_triple_agreement():
    """>= 30 operators of order <= 4: Fuchs number = polygon height =
    stabilized lattice-growth increment, exactly; the spectral estimate
    matches the highest break within 1/64 at n_max = 64."""
    assert len(DIFF_FIXTURES) >= 30
    for vals in DIFF_FIXTURES:
        op = DifferentialOperator.from_valuations(vals)
        ir = irregularity_cyclic(op)
        poly = np_diff(op)
        assert polygon_height(poly) == ir, vals
        mod = companion(op)
        gl, stabilized, _ = gerard_levelt_irregularity(mod, 12)
        assert stabilized, vals
        assert gl == ir, (vals, gl, ir)
        est, _ = katz_rank_spectral(mod, 64)
        rho = highest_break(poly)
        assert abs(est - rho) <= Fraction(1, 64), (vals, est, rho)
    report(
        "6 (differential triple agreement)",
        True,
        f"{len(DIFF_FIXTURES)} operators",
    )


def test_criterion_7_tensor_laws():
    """(a) filtered n=1 tensor breaks are pairwise sums; (b) rank-one
    differential pairs obey the max bound and duality; (c) diagonal
    twisted matrices obey degree additivity.  All exact."""
    rep = check_tensor_mult_filtered(40, seed=77)
    ok_a = rep["failures"] == []

    rng = random.Random(78)
    ok_b = True
    for _ in range(60):
        f = Series.from_coeffs(rng.randint(-4, 1), [Fraction(rng.randint(-3, 3)) for _ in range(3)])
        g = Series.from_coeffs(rng.randint(-4, 1), [Fraction(rng.randint(-3, 3)) for _ in range(3)])
        bt = rank_one_break(f + g)
        ok_b = ok_b and bt <= max(rank_one_break(f), rank_one_break(g))
        ok_b = ok_b and rank_one_break(-f) == rank_one_break(f)

    tw = TwistSpec(Fraction(2))
    ok_c = True
    for _ in range(30):
        d1 = diagonal_phi(
            [Series.monomial(1, rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))],
            tw,
        )
        d2 = diagonal_phi(
            [Series.monomial(1, rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))],
            tw,
        )
        t = tensor_phi(d1, d2)
        ok_c = ok_c and dm_degree(t).value == (
            d2.rank * dm_degree(d1).value + d1.rank * dm_degree(d2).value
        )
    report("7 (tensor laws)", ok_a and ok_b and ok_c, f"a={ok_a} b={ok_b} c={ok_c}")


def test_criterion_8_duality():
    """>= 100 filtered fixtures: dual polygon = negated-reversed polygon
    and double dual = identity.  Exact."""
    rep = check_duality_filtered(100, seed=88)
    report("8 (duality)", rep["failures"] == [], f"{rep['samples']} fixtures")


def test_criterion_9_coprimality():
    """Three-line fixture semistable and stable; >= 20 randomized
    integer-jump certified-semistable fixtures with gcd(deg, rk) = 1 have
    no proper equal-slope subobject."""
    v = make_filtered(
        2,
        [
            [(1, [[1, 0]]), (0, [[1, 0], [0, 1]])],
            [(1, [[0, 1]]), (0, [[1, 0], [0, 1]])],
            [(1, [[1, 1]]), (0, [[1, 0], [0, 1]])],
        ],
    )
    backend = FilteredBackend()
    ss, cert = is_semistable(backend, v)
    ok = ss and cert.complete and degree_filtered(v).value == 3
    mu = backend.slope(v)
    subs, _ = backend.strict_subobjects(v)
    for _, rows in subs:
        sub = induced_filtration(v, rows, "sub")
        ok = ok and backend.slope(sub).cmp(mu) < 0
    rep = check_coprime_stability(20, seed=99)
    ok = ok and rep["found"] >= 20 and rep["failures"] == []
    report("9 (coprimality)", ok, f"{rep['found']} randomized fixtures")


def test_criterion_10_hasse_arf():
    """Tame (e, 1) has break 1/e and swan 0; the wild degree-p fixture has
    swan 1; every curated fixture is integral.  Exact."""
    ok = True
    for e in (2, 3, 4, 7):
        tame = RamificationData((e, 1))
        ok = ok and herbrand_breaks(tame) == [(Fraction(1, e), 1)]
        for dim in (1, 2):
            rep_data = RepresentationData(dim, (0, dim))
            value, integral = swan(tame, rep_data)
            ok = ok and value == 0 and integral
    for doc_name in ("artin_schreier.json", "tame_e4.json"):
        doc = json.loads((FIXTURES / doc_name).read_text())
        from slopes.ramification import load_ramification

        data, reps = load_ramification(doc)
        for r in reps:
            value, integral = swan(data, r)
            ok = ok and integral
    azp = RamificationData((3, 3, 1))
    char = RepresentationData(1, (0, 0, 1))
    value, integral = swan(azp, char)
    ok = ok and value == 1 and integral
    report("10 (Hasse-Arf)", ok)


def test_criterion_11_cli_determinism(tmp_path):
    """Repeated runs of every CLI command with fixed seed are
    byte-identical."""
    commands = [
        ["hn", "--backend", "lattice", "--in", str(FIXTURES / "z2.json")],
        ["hn", "--backend", "lattice", "--in", str(FIXTURES / "diag14.json")],
        ["hn", "--backend", "filtered", "--in", str(FIXTURES / "filtered_two_jumps.json")],
        ["hn", "--backend", "table", "--in", str(FIXTURES / "hn_chain.json"), "--object", "N"],
        ["np", "--backend", "diff", "--in", str(FIXTURES / "diff_op.json")],
        ["np", "--backend", "twisted", "--in", str(FIXTURES / "adams_sauloy.json")],
        ["factor", "--in", str(FIXTURES / "twisted_two_slopes.json"), "--prec", "40"],
        ["swan", "--in", str(FIXTURES / "artin_schreier.json")],
        ["check", "--law", "dominance", "--backend", "filtered", "--samples", "5", "--seed", "7"],
        ["check", "--law", "exactness", "--backend", "lattice"],
        ["check", "--law", "axioms", "--backend", "filtered", "--samples", "8", "--seed", "1"],
        ["check", "--law", "tensor-mult", "--samples", "6", "--seed", "2"],
        ["check", "--law", "tensor-bounded", "--samples", "8", "--seed", "3"],
        ["check", "--law", "coprime-stable", "--samples", "4", "--seed", "4"],
        ["check", "--law", "bost-experiment", "--samples", "2", "--seed", "5"],
        ["combine", "--mode", "dual", "--in", str(_combine_file(tmp_path))],
    ]
    for args in commands:
        outputs = []
        for run in range(2):
            out = tmp_path / f"{args[0]}-{run}.json"
            svg = tmp_path / f"{args[0]}-{run}.svg"
            cmd = (
                [sys.executable, "-m", "slopes.cli"]
                + args
                + ["--out", str(out), "--svg", str(svg)]
            )
            proc = subprocess.run(cmd, capture_output=True)
            assert proc.returncode == 0, (args, proc.stderr.decode())
            blob = out.read_bytes()
            if svg.exists():
                blob += svg.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1], args
    report("11 (CLI determinism)", True, f"{len(commands)} commands")


def _combine_file(tmp_path):
    f = tmp_path / "combine-in.json"
    f.write_text(
        json.dumps(
            {"p": {"segments": [{"slope": "1", "mult": 2}, {"slope": "0", "mult": 1}]}}
        )
    )
    return f


def test_evidence_bost_experiment():
    """Report-only: no destabilizing sublattice of a tensor of semistable
    rank-2 lattices, each decided by the exact destabilizer search."""
    rep = bost_experiment(4, seed=2026)
    complete_pairs = rep["complete_pairs"]
    ok = rep["counterexamples"] == []
    report(
        "evidence (Bost experiment)",
        ok,
        f"{rep['pairs']} pairs, {complete_pairs} with complete certificates",
    )
