"""Cross checks between the independent computational pipelines.

Every curvature quantity is computed at least two ways that share no code
path: the Gauss-equation route through ambient brackets, the Koszul route
through structure constants, and where available a closed form.  These
tests pin the three against each other and check that the Koszul route is
basis independent.
"""

import json
import math

import numpy as np
import pytest

from solvgeom.cli import main
from solvgeom.engine import DEGENERATE_PLANE_TOL, MetricLieAlgebra
from solvgeom.hypersurface import (
    AMBIENT_BASIS,
    HypersurfaceModel,
    TangentVector,
    _PAIRS,
    _at,
    _gauss_family,
    _gram_schmidt,
    ambient_algebra,
    ambient_curvature,
    build_hypersurface_algebra,
    nonpositivity_scan,
    random_unit_tangents,
    ricci_closed_many,
    ricci_gauss_many,
    gauss_sectional,
)

ANGLES = [0.0, 0.3, math.pi / 6, math.pi / 4, math.pi / 3, 1.25, math.pi / 2]


def ambient_span(coeffs):
    return np.tensordot(coeffs, AMBIENT_BASIS, axes=1)


@pytest.mark.parametrize("alpha", ANGLES)
def test_ricci_gauss_vs_closed(alpha):
    model = HypersurfaceModel.from_angle(alpha)
    vecs = random_unit_tangents(np.random.default_rng(1), 200)
    dev = np.max(np.abs(ricci_gauss_many(model, vecs) - ricci_closed_many(alpha, vecs)))
    assert dev <= 1e-10


@pytest.mark.parametrize("alpha", ANGLES)
def test_ricci_gauss_vs_koszul(alpha):
    model = HypersurfaceModel.from_angle(alpha)
    alg = build_hypersurface_algebra(alpha)
    rng = np.random.default_rng(2)
    for _ in range(30):
        v = rng.standard_normal(7)
        assert ricci_gauss_many(model, v) == pytest.approx(
            alg.ricci(v), abs=1e-10
        )


@pytest.mark.parametrize("alpha", ANGLES)
def test_sectional_gauss_vs_koszul(alpha):
    model = HypersurfaceModel.from_angle(alpha)
    alg = build_hypersurface_algebra(alpha)
    u, v = _gram_schmidt(*np.random.default_rng(3).standard_normal((2, 50, 7)))
    for a, b in zip(u, v):
        ks = gauss_sectional(
            model, TangentVector.from_coeffs(a), TangentVector.from_coeffs(b)
        )
        assert ks == pytest.approx(alg.sectional(a, b), abs=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.7, math.pi / 2])
@pytest.mark.parametrize("ratio", [0.5, 0.9, 1.1, 2.0])
def test_both_pipelines_refuse_at_the_same_bound(alpha, ratio):
    # u, v at the angle whose sin^2 = w . w / (|u|^2 |v|^2) is ratio * the bound
    model = HypersurfaceModel.from_angle(alpha)
    alg = build_hypersurface_algebra(alpha)
    sin = math.sqrt(ratio * DEGENERATE_PLANE_TOL)
    a, b = _gram_schmidt(*np.random.default_rng(4).standard_normal((2, 20, 7)))
    for u, v in zip(3.0 * a, 0.5 * (math.sqrt(1.0 - sin**2) * a + sin * b)):
        refused = []
        for sectional in (lambda: gauss_sectional(model, TangentVector.from_coeffs(u),
                                                  TangentVector.from_coeffs(v)),
                          lambda: alg.sectional(u, v)):
            try:
                sectional()
                refused.append(False)
            except ValueError as exc:
                assert str(exc).startswith("degenerate plane")
                refused.append(True)
        assert refused == [ratio < 1.0] * 2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_both_pipelines_refuse_a_plane_that_is_not_finite(bad):
    model = HypersurfaceModel.from_angle(0.7)
    u, v = np.eye(7)[:2]
    u[3] = bad
    # refused without a numpy warning, though inf * 0 in the products is nan
    with pytest.raises(ValueError, match="^degenerate plane"):
        gauss_sectional(model, TangentVector.from_coeffs(u), TangentVector.from_coeffs(v))
    with pytest.raises(ValueError, match="^degenerate plane"):
        build_hypersurface_algebra(0.7).sectional(u, v)


@pytest.mark.parametrize("alpha", [0.0, 0.7, math.pi / 2])
@pytest.mark.parametrize("scale", [2.0**-700, 2.0**700], ids=["2^-700", "2^700"])
def test_both_pipelines_read_planes_of_any_scale(alpha, scale):
    # K does not depend on the lengths of u and v, and both pipelines first
    # scale each by a power of two, which is exact: K at 2^+-700, where the
    # Gram determinant itself under- or overflows, is the unit-scale K
    model = HypersurfaceModel.from_angle(alpha)
    gauss = lambda u, v: gauss_sectional(model, TangentVector.from_coeffs(u),
                                         TangentVector.from_coeffs(v))
    planes = [np.eye(7)[[0, 2]], *np.random.default_rng(6).standard_normal((5, 2, 7))]
    for sectional in (gauss, build_hypersurface_algebra(alpha).sectional):
        for u, v in planes:
            want = sectional(u, v)
            for su, sv in ((scale, 1.0), (1.0, scale), (scale, scale)):
                assert sectional(su * u, sv * v) == want
            for bad in (0.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="^degenerate plane"):
                    sectional(np.full(7, bad), scale * v)


def test_ambient_koszul_vs_nested_bracket():
    amb = ambient_algebra()
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y = rng.standard_normal((2, 8))
        engine_val = amb.curvature_inner(x, y, y, x)
        bracket_val = ambient_curvature(ambient_span(x), ambient_span(y))
        assert engine_val == pytest.approx(bracket_val, abs=1e-10)


def test_ambient_is_einstein():
    flat, const = ambient_algebra().einstein_check(1e-8)
    assert flat
    assert const == pytest.approx(-3.0, abs=1e-10)


def test_hypersurface_einstein_only_at_zero():
    flat, const = build_hypersurface_algebra(0.0).einstein_check(1e-8)
    assert flat and const == pytest.approx(-3.0, abs=1e-10)
    for alpha in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        alg = build_hypersurface_algebra(alpha)
        flat, _ = alg.einstein_check(1e-8)
        assert not flat
        ev = np.linalg.eigvalsh(alg.ricci_matrix())
        assert ev[-1] - ev[0] > 0.1


def test_ricci_operator_spectrum_at_pi_sixth():
    ev = np.sort(np.linalg.eigvalsh(build_hypersurface_algebra(math.pi / 6).ricci_matrix()))
    assert np.max(np.abs(ev - np.array([-4, -4, -3, -2, -2, -1, -1]))) <= 1e-10


@pytest.mark.parametrize("alpha", ANGLES)
def test_cheeger_closed_form(alpha):
    assert build_hypersurface_algebra(alpha).cheeger() == pytest.approx(
        4.0 * math.cos(alpha), abs=1e-12
    )


def test_cheeger_monte_carlo_bound():
    """Sampled trace functional never exceeds the dual-norm value."""
    alg = build_hypersurface_algebra(0.4)
    target = alg.cheeger()
    c, g = alg.structure, alg.gram
    tau = np.einsum("ijj->i", c)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((100000, 7))
    u /= np.sqrt(np.einsum("ni,ij,nj->n", u, g, u))[:, None]
    values = u @ tau
    assert np.max(values) <= target + 1e-12
    # projected gradient ascent from the best sample reaches the bound
    best = u[int(np.argmax(values))]
    for _ in range(200):
        grad = np.linalg.solve(g, tau)
        step = best + 0.5 * grad
        best = step / math.sqrt(step @ g @ step)
    assert best @ tau == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("alpha", [0.0, math.pi / 6, math.pi / 3, 1.2, math.pi / 2])
def test_gauss_tensor_matches_koszul(alpha):
    """All 7^4 entries of <R(e_i, e_j) e_k, e_l> agree across the pipelines."""
    gauss = _at(alpha, _gauss_family().tensor)
    alg = build_hypersurface_algebra(alpha)
    koszul = np.einsum("ijkm,ml->ijkl", alg._riemann, alg.gram)
    assert gauss.shape == koszul.shape == (7, 7, 7, 7)
    assert np.max(np.abs(gauss - koszul)) <= 1e-12


# The diagonal 2-torus of SU(3) rotates (E12, iE12), (E23, iE23), (E13, iE13)
# and fixes H, so the curvature operator on Lambda^2 R^7 commutes with it: it
# is zero outside these seven blocks of pairs e_i ^ e_j, written "ij".
TORUS_BLOCKS = ["01 23 45", "02 13 46", "03 12 56", "04 15 26", "05 14 36", "06 24 35",
                "16 25 34"]


def test_curvature_operator_is_torus_equivariant():
    block_of = {pair: b for b, pairs in enumerate(TORUS_BLOCKS) for pair in pairs.split()}
    i, j = _PAIRS
    label = np.array([block_of[f"{p}{q}"] for p, q in zip(i, j)])
    outside = label[:, None] != label[None, :]
    assert outside.sum() == 21 * 21 - 7 * 9
    for alpha in np.linspace(0.0, math.pi / 2.0, 101):
        gauss = _at(alpha, _gauss_family().operator)
        alg = build_hypersurface_algebra(alpha)
        lowered = alg._riemann @ alg.gram
        koszul = lowered[i[:, None], j[:, None], j[None, :], i[None, :]]
        assert not np.any(gauss[outside]) and not np.any(koszul[outside])


def test_gauss_pipeline_never_builds_an_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Gauss pipeline constructed a MetricLieAlgebra")

    monkeypatch.setattr(MetricLieAlgebra, "__init__", refuse)
    model = HypersurfaceModel.from_angle(0.9)
    vecs = random_unit_tangents(np.random.default_rng(4), 20)
    assert np.max(np.abs(ricci_gauss_many(model, vecs) - ricci_closed_many(0.9, vecs))) <= 1e-10
    x, y = TangentVector(a=1), TangentVector(b=1)
    assert math.isfinite(gauss_sectional(model, x, y))
    assert nonpositivity_scan(0.9, samples=100, seed=1).samples == 100


def test_koszul_ricci_basis_independent():
    """The same geometry through a skewed matrix basis gives the same Ricci."""
    model = HypersurfaceModel.from_angle(0.6)
    base = model.basis
    mix = np.array(
        [
            [2.0, 0, 0, 0, 0, 0, 0],
            [1.0, 1.0, 0, 0, 0, 0, 0],
            [0, 0, 3.0, 0, 0, 0, 1.0],
            [0, 0, 0, 1.0, 0, 0, 0],
            [0, 0, 0, 0, 1.0, -2.0, 0],
            [0, 0, 0, 0, 0, 0.5, 0],
            [0, 1.0, 0, 0, 0, 0, 1.0],
        ]
    )
    skewed = np.tensordot(mix, base, axes=1)
    straight = build_hypersurface_algebra(0.6)
    crooked = MetricLieAlgebra.from_matrix_basis(skewed)
    assert np.max(np.abs(crooked.gram - np.eye(7))) > 0.5  # genuinely skewed
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = rng.standard_normal(7)
        u_crooked = np.linalg.solve(mix.T, u)
        assert crooked.ricci(u_crooked) == pytest.approx(
            straight.ricci(u), abs=1e-10
        )
        v = rng.standard_normal(7)
        v_crooked = np.linalg.solve(mix.T, v)
        assert crooked.sectional(u_crooked, v_crooked) == pytest.approx(
            straight.sectional(u, v), abs=1e-10
        )
    assert crooked.cheeger() == pytest.approx(straight.cheeger(), abs=1e-10)
    # ricci_matrix is expressed in a gram-orthonormal frame, so its spectrum
    # is the Ricci operator's and must not depend on the coordinate basis
    op_straight = np.sort(np.linalg.eigvalsh(straight.ricci_matrix()))
    op_crooked = np.sort(np.linalg.eigvalsh(crooked.ricci_matrix()))
    assert np.max(np.abs(op_straight - op_crooked)) <= 1e-9


def _rebased_hypersurface(alpha, rng):
    """The tangent algebra at alpha as a JSON document in the basis
    f_a = sum_i P[a, i] e_i, and P: P = Q1 diag(d) Q2 with Q1, Q2 random
    orthogonal and d in [0.7, 1.4], the re-basing of the generated files that
    the benchmark's checks feed the engine."""
    alg = build_hypersurface_algebra(alpha)
    n = alg.dim
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    p = q1 @ np.diag(rng.uniform(0.7, 1.4, n)) @ q2
    c = np.einsum("ai,bj,ijk,kc->abc", p, p, alg.structure, np.linalg.inv(p))
    gram = p @ alg.gram @ p.T
    doc = {
        "dim": n,
        "structure": [[a, b, k, float(c[a, b, k])]
                      for a in range(n) for b in range(a + 1, n) for k in range(n)],
        "gram": (0.5 * (gram + gram.T)).tolist(),
    }
    return doc, p


@pytest.mark.parametrize("seed", range(5))
def test_rebased_hypersurface_file_matches_the_gauss_ricci_form(tmp_path, capsys, seed):
    """einstein --file and ricci --file on a re-based hypersurface algebra give
    the Gauss tensor's Ricci form pulled back by the re-basing."""
    rng = np.random.default_rng(seed)
    alpha = float(rng.uniform(0.1, math.pi / 2))
    doc, p = _rebased_hypersurface(alpha, rng)
    path = tmp_path / "rebased.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    ric = np.einsum("ijki->jk", _at(alpha, _gauss_family().tensor))
    pulled = p @ ric @ p.T  # the Ricci form in the basis f
    gram = np.array(doc["gram"])

    assert main(["algebra", "einstein", "--file", str(path)]) == 0
    constant = json.loads(capsys.readouterr().out)["constant"]
    assert constant == pytest.approx(np.trace(np.linalg.solve(gram, pulled)) / 7, abs=1e-12)
    for x in rng.standard_normal((3, 7)):
        argv = ["algebra", "ricci", "--file", str(path),
                "--vector=" + ",".join(repr(float(v)) for v in x)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["ricci"] == pytest.approx(
            x @ pulled @ x, abs=1e-12)


def test_j_operator_frozen_maps():
    alg = build_hypersurface_algebra(0.0)
    e = np.eye(4)
    # J_Z on v = span{e0, ..., e3} for Z = e4, e5; column q is J_Z e_q
    j4, j5 = alg._j_matrices(np.eye(7)[[4, 5]], [0, 1, 2, 3])
    assert np.allclose(j4[:, 0], e[2], atol=1e-12)
    assert np.allclose(j4[:, 2], -e[0], atol=1e-12)
    assert np.allclose(j4[:, 1], -e[3], atol=1e-12)
    assert np.allclose(j5[:, 0], e[3], atol=1e-12)
    # J_Z squares to minus identity on the nilpotent core
    assert np.allclose(j4 @ j4, -e, atol=1e-12)


def test_damek_ricci_transition():
    passing = build_hypersurface_algebra(0.0).damek_ricci_check((0, 1, 2, 3), (4, 5), 6)
    assert passing.overall
    assert passing.axiom_4.residual <= 1e-10
    failing = build_hypersurface_algebra(0.1).damek_ricci_check((0, 1, 2, 3), (4, 5), 6)
    assert not failing.overall
    assert not failing.axiom_5.passed
    # the residual is the worst eigenvalue gap of ad applied to the frame
    s, c = math.sin(0.1), math.cos(0.1)
    predicted = max(
        abs(c / 2 + math.sqrt(3) / 2 * s - 0.5),
        abs(c / 2 - math.sqrt(3) / 2 * s - 0.5),
        abs(c - 1.0),
    )
    assert failing.axiom_5.residual == pytest.approx(predicted, abs=1e-12)
    for chk in (failing.axiom_1, failing.axiom_2, failing.axiom_3, failing.axiom_4):
        assert chk.passed


def test_damek_ricci_failure_margin_past_onset():
    # the degeneracy loss is not marginal anywhere on [0.1, pi/2]
    for alpha in np.linspace(0.1, math.pi / 2, 12):
        report = build_hypersurface_algebra(alpha).damek_ricci_check(
            (0, 1, 2, 3), (4, 5), 6
        )
        assert not report.axiom_5.passed
        assert report.axiom_5.residual >= 0.05
