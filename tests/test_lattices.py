import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import fraction_reference as ref
from slopes import linalg
from slopes.core import Budget, BudgetExhausted, SlopeBackend, hn_filtration
from slopes.degrees import DegreeValue, SlopeKey
from slopes.lattices import (
    EuclideanLattice,
    LatticeBackend,
    LatticeError,
    Sublattice,
    completion,
    default_bound,
    destabilizer_lattice,
    lagrange_gauss,
    quotient_with_metric,
    saturate,
    short_vectors,
    tensor_lattice,
)
from slopes.laws import sample_lattice, sample_saturated_sub

Z2 = EuclideanLattice.standard(2)
FIXTURES = Path(__file__).resolve().parents[1] / "src" / "slopes" / "fixtures"


NOT_POSITIVE_DEFINITE = (
    [[0, 0], [0, 1]],
    [[1, 2], [2, 1]],
    [[1, 1], [1, 1]],  # singular and positive semidefinite
    [[2, 1, 0], [1, 1, 2], [0, 2, 1]],  # indefinite, first two minors > 0
)


def test_positive_definiteness_enforced():
    for gram in NOT_POSITIVE_DEFINITE:
        with pytest.raises(LatticeError, match="gram matrix is not positive definite"):
            EuclideanLattice(gram)
    with pytest.raises(LatticeError, match="symmetric"):
        EuclideanLattice([[1, 2], [3, 1]])


def test_one_ldl_per_lattice(monkeypatch):
    """The factorization made at construction serves short_vectors; the
    cached factors take no part in equality or hashing."""
    import slopes.lattices as lattices_mod

    calls = []
    real_ldl = lattices_mod._ldl

    def counting_ldl(gram):
        calls.append(gram)
        return real_ldl(gram)

    monkeypatch.setattr(lattices_mod, "_ldl", counting_ldl)
    lat = EuclideanLattice([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    short_vectors(lat, Fraction(6))
    short_vectors(lat, Fraction(9))
    assert len(calls) == 1
    twin = EuclideanLattice([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    assert lat == twin and hash(lat) == hash(twin)


def test_degree_examples():
    assert Z2.degree().cmp(DegreeValue.log_positive(1)) == 0
    diag = saturate(Z2, [[1, 1]])
    # covolume^2 of (1,1)Z is 2: degree -1/2 log 2
    assert diag.degree().cmp(DegreeValue.log_positive(2)) == 0
    quot = quotient_with_metric(Z2, diag)
    assert quot.gram == ((Fraction(1, 2),),)
    assert quot.degree().cmp(DegreeValue.log_positive(Fraction(1, 2))) == 0


def test_saturation_examples():
    assert saturate(Z2, [[2, 0]]).basis == ((1, 0),)
    assert saturate(Z2, [[1, 0]]).basis == ((1, 0),)
    s = saturate(Z2, [[2, 2]])
    assert s.basis == ((1, 1),)
    assert s.induced_gram() == ((Fraction(2),),)
    with pytest.raises(LatticeError):
        saturate(Z2, [[0, 0]])


def test_quotient_orthogonal_split():
    q = quotient_with_metric(Z2, saturate(Z2, [[1, 0]]))
    assert q.gram == ((Fraction(1),),)
    z3 = EuclideanLattice.standard(3)
    # index-2 line, index-2 full-rank sublattice, index-3 plane
    for ambient, basis in (
        (Z2, ((2, 0),)),
        (Z2, ((1, 1), (1, -1))),
        (z3, ((1, 0, 0), (0, 3, 3))),
    ):
        with pytest.raises(LatticeError, match="saturated"):
            quotient_with_metric(ambient, Sublattice(ambient, basis))
    assert quotient_with_metric(Z2, saturate(Z2, [[1, 0], [0, 1]])).rank == 0


def test_lagrange_gauss_finds_shortest():
    lat = EuclideanLattice([[5, 3], [3, 2]])  # reduces to the unimodular form
    v, norm = lagrange_gauss(lat)
    assert norm == min(n for n, _ in short_vectors(lat, Fraction(10)))


def test_destabilizer_examples():
    whole, key, cert = destabilizer_lattice(Z2)
    assert isinstance(whole, EuclideanLattice) and cert.complete
    assert key.cmp(Z2.slope()) == 0

    sub, key, cert = destabilizer_lattice(EuclideanLattice([[1, 0], [0, 4]]))
    assert isinstance(sub, Sublattice)
    assert sub.basis == ((1, 0),)
    assert key.deg.cmp(DegreeValue.log_positive(1)) == 0 and key.rk == 1
    assert cert.complete

    r1 = EuclideanLattice([[3]])
    whole, key, cert = destabilizer_lattice(r1)
    assert isinstance(whole, EuclideanLattice) and cert.complete


def test_destabilizer_rank3_complete():
    z3 = EuclideanLattice.standard(3)
    whole, key, cert = destabilizer_lattice(z3)
    assert isinstance(whole, EuclideanLattice)
    assert cert.complete
    skew = EuclideanLattice([[1, 0, 0], [0, 1, 0], [0, 0, 9]])
    sub, key, cert = destabilizer_lattice(skew)
    assert isinstance(sub, Sublattice) and sub.rank == 2
    assert cert.complete
    # the best sublattice is the unimodular plane, slope 0 > -1/6 log 9
    assert key.deg.cmp(DegreeValue.log_positive(1)) == 0


def _tridiagonal(r):
    """Diagonal 2..r+1, off-diagonal 1/2."""
    return EuclideanLattice(
        [[i + 2 if i == j else Fraction(abs(i - j) == 1, 2) for j in range(r)] for i in range(r)]
    )


def _skewed(r):
    """A^T A for A upper triangular with diagonal 3^i and ones above it."""
    a = [[3**i if i == j else int(j > i) for j in range(r)] for i in range(r)]
    return EuclideanLattice(
        [[sum(a[k][i] * a[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
    )


# HN slopes as neg_half_log values, one segment of multiplicity 1 each
PINNED_POLYGONS = [
    (_tridiagonal(4), ["2", "23/8", "90/23", "1777/360"]),
    (_tridiagonal(5), ["2", "23/8", "90/23", "1777/360", "10572/1777"]),
    (_tridiagonal(6), ["2", "23/8", "90/23", "1777/360", "10572/1777", "294239/42288"]),
    (_skewed(4), ["1", "9", "81", "729"]),
    (_skewed(5), ["1", "9", "81", "729", "6561"]),
]


@pytest.mark.parametrize(
    "lat, slopes", PINNED_POLYGONS, ids=["tri4", "tri5", "tri6", "skew4", "skew5"]
)
def test_hn_complete_in_rank_4_to_6(lat, slopes):
    res = hn_filtration(LatticeBackend(), lat)
    assert res.certificate.complete
    segments = res.polygon.to_json()["segments"]
    assert segments == [{"slope": {"neg_half_log": s}, "mult": 1} for s in slopes]


def _root_bound(x: Fraction, r: int) -> Fraction:
    """A power of two b with b^r >= x > (b/2)^r, for x > 0: a norm bound
    for the vectors whose norm^r is at most x, taken without roots."""
    b = Fraction(1)
    while b**r < x:
        b *= 2
    while (b / 2) ** r >= x:
        b /= 2
    return b


def _primitive_up_to(lat: EuclideanLattice, limit: Fraction, r: int):
    """(norm, v) for the primitive vectors v of lat with norm(v)^r <= limit."""
    return [
        (nrm, v)
        for nrm, v in short_vectors(lat, _root_bound(limit, r))
        if nrm**r <= limit and math.gcd(*v) == 1
    ]


def _exact_destabilizer(lat: EuclideanLattice):
    """(SlopeKey, span or None for lat itself) of the destabilizer in
    rank <= 3, by maximal slope, then maximal rank, over every saturated
    sublattice S with slope(S) >= slope(L), i.e. det(S)^r <= det(L)^k:
    - lines: primitive v with norm(v)^r <= det(L);
    - planes of a rank-3 L: w^perp for primitive w of the dual lattice
      (Gram G^-1), as det(w^perp) = det(G) w^T G^-1 w; the condition
      (det(G) q)^3 <= det(G)^2 reads q^3 <= det(G^-1).
    Slopes are compared by exact integer powers, never by roots."""
    r, det = lat.rank, lat.det()
    found = [(lat.slope(), None)]
    if r >= 2:
        for nrm, v in _primitive_up_to(lat, det, r):
            found.append((SlopeKey(DegreeValue.log_positive(nrm), 1), linalg.rref([v])))
    if r == 3:
        dual = EuclideanLattice(ref.inverse(lat.gram))
        for q, w in _primitive_up_to(dual, dual.det(), 3):
            plane = linalg.kernel_basis((tuple(Fraction(c) for c in w),))
            found.append((SlopeKey(DegreeValue.log_positive(det * q), 2), plane))
    top = max(key for key, _ in found)
    best = [(key, span) for key, span in found if key.slope_eq(top)]
    rank = max(key.rk for key, _ in best)
    best = [(key, span) for key, span in best if key.rk == rank]
    assert len(best) == 1  # the destabilizer is unique
    return best[0]


CHEAP_CLOSURE = 60


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_destabilizer_matches_closure_reference(seed):
    """The Plücker search returns the key and span of the exact rank <= 3
    reference.  Where the span closure at the default norm bound is cheap
    (at most CHEAP_CLOSURE vectors; its cost is the square of that
    count), the base SlopeBackend.destabilizer over it gives the same key
    and, in rank 3, the same basis.  (Rank 2 runs Lagrange-Gauss, whose
    line may differ from the closure's in sign.)"""
    lat = sample_lattice(random.Random(seed), rank_max=3)
    got, key, cert = destabilizer_lattice(lat)
    want_key, want_span = _exact_destabilizer(lat)
    assert cert.complete and key.slope_eq(want_key) and key.rk == want_key.rk
    if want_span is None:
        assert got is lat
    else:
        assert got.span_key() == want_span
    if len(short_vectors(lat, default_bound(lat))) <= CHEAP_CLOSURE:
        want, closure_key, _ = SlopeBackend.destabilizer(LatticeBackend(), lat, Budget())
        assert key.cmp(closure_key) == 0
        assert got is lat if want is lat else lat.rank == 2 or got == want


def test_strict_subobjects_respects_candidate_budget():
    with pytest.raises(BudgetExhausted):
        LatticeBackend().strict_subobjects(
            EuclideanLattice.standard(4), Budget(bound=4, max_candidates=3)
        )


def test_span_closure_saturates_each_span_once(monkeypatch):
    import slopes.lattices as lattices

    results = []

    def recording(ambient, columns):
        results.append(saturate(ambient, columns))
        return results[-1]

    monkeypatch.setattr(lattices, "saturate", recording)
    lat = EuclideanLattice.from_json(json.loads((FIXTURES / "rank3.json").read_text()))
    subs = lattices._span_closure(lat, lattices.default_bound(lat), Budget())
    keys = [s.span_key() for s in results]
    assert len(keys) == len(set(keys)) == len(subs)


def test_tensor_examples():
    assert tensor_lattice(
        EuclideanLattice([[Fraction(2)]]), EuclideanLattice([[Fraction(3)]])
    ).gram == ((Fraction(6),),)
    t = tensor_lattice(Z2, Z2)
    assert t.rank == 4 and t.gram == linalg.identity(4)
    assert t.det() == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_degree_additivity_is_exact(seed):
    rng = random.Random(seed)
    lat = sample_lattice(rng, rank_max=3)
    if lat.rank < 2:
        return
    sub = sample_saturated_sub(rng, lat)
    if sub.rank == lat.rank:
        return
    quot = quotient_with_metric(lat, sub)
    assert lat.det() == linalg.det(sub.induced_gram()) * quot.det()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_saturation_idempotent_and_basis_free(seed):
    rng = random.Random(seed)
    lat = sample_lattice(rng, rank_max=3)
    sub = sample_saturated_sub(rng, lat)
    again = saturate(lat, sub.basis)
    assert again.span_key() == sub.span_key()
    assert linalg.det(again.induced_gram()) == linalg.det(sub.induced_gram())
    if sub.rank < lat.rank:
        # quotient metric must not depend on the chosen basis of the span
        doubled = [
            [2 * c for c in col] for col in sub.basis
        ]  # same span after saturation
        q1 = quotient_with_metric(lat, sub)
        q2 = quotient_with_metric(lat, saturate(lat, doubled))
        assert q1.det() == q2.det()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_tensor_degree_law(seed):
    rng = random.Random(seed)
    a = sample_lattice(rng, rank_max=2)
    b = sample_lattice(rng, rank_max=2)
    t = tensor_lattice(a, b)
    assert t.det() == a.det() ** b.rank * b.det() ** a.rank


def test_completion_gives_unimodular_basis():
    sub = saturate(Z2, [[1, 1]])
    t = completion(Z2, sub)
    full = [[sub.basis[0][i]] + [c[i] for c in t] for i in range(2)]
    assert abs(linalg.det(linalg.frac_matrix(full))) == 1


def test_hn_on_backend():
    b = LatticeBackend()
    res = hn_filtration(b, Z2)
    assert res.polygon.to_json()["segments"] == [
        {"slope": {"neg_half_log": "1"}, "mult": 2}
    ]
    res2 = hn_filtration(b, EuclideanLattice([[1, 0], [0, 4]]))
    segs = res2.polygon.to_json()["segments"]
    assert segs == [
        {"slope": {"neg_half_log": "1"}, "mult": 1},
        {"slope": {"neg_half_log": "4"}, "mult": 1},
    ]
    assert res2.certificate.complete


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rank2_destabilizer_matches_enumeration_oracle(seed):
    """Independent oracle: the reduction-based rank-2 destabilizer agrees
    with brute-force enumeration of every primitive line up to a generous
    norm bound."""
    rng = random.Random(seed)
    lat = sample_lattice(rng, rank_max=2)
    if lat.rank != 2:
        return
    got, key, cert = destabilizer_lattice(lat)
    assert cert.complete
    bound = 4 * max(lat.gram[i][i] for i in range(2))
    best = lat.slope()
    best_line = None
    for _, v in short_vectors(lat, bound):
        line = saturate(lat, [v])
        k = SlopeKey(line.degree(), 1)
        if k.cmp(best) > 0:
            best, best_line = k, line
    if best_line is None:
        assert isinstance(got, EuclideanLattice)
    else:
        assert isinstance(got, Sublattice)
        assert key.cmp(best) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_minmax_on_lattice_sequences(seed):
    """min(mu(S), mu(L/S)) <= mu(L) <= max(...), strict unless all equal."""
    rng = random.Random(seed)
    lat = sample_lattice(rng, rank_max=3)
    if lat.rank < 2:
        return
    sub = sample_saturated_sub(rng, lat)
    if sub.rank == lat.rank:
        return
    quot = quotient_with_metric(lat, sub)
    mu_s = SlopeKey(sub.degree(), sub.rank)
    mu_l = lat.slope()
    mu_q = quot.slope()
    lo = mu_s if mu_s.cmp(mu_q) <= 0 else mu_q
    hi = mu_s if mu_s.cmp(mu_q) >= 0 else mu_q
    assert lo.cmp(mu_l) <= 0 and mu_l.cmp(hi) <= 0
    all_equal = mu_s.cmp(mu_l) == 0 and mu_l.cmp(mu_q) == 0
    if not all_equal:
        assert lo.cmp(mu_l) < 0 and mu_l.cmp(hi) < 0
