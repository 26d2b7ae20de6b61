"""Acceptance battery: every headline result of the model, at full scale.

Each test prints one PASS/FAIL line so a verbose run doubles as a report.
All sampling is seeded; nothing here depends on luck.
"""

import math

import numpy as np

from solvgeom.engine import MetricLieAlgebra
from solvgeom.hypersurface import (
    AMBIENT_BASIS,
    HypersurfaceModel,
    TangentVector,
    _gram_schmidt,
    ambient_algebra,
    ambient_curvature,
    build_hypersurface_algebra,
    foliation_residual_many,
    gauss_sectional,
    mean_curvature,
    nonpositivity_scan,
    random_unit_tangents,
    reference_plane,
    reference_plane_curvature,
    ricci_closed_many,
    ricci_extremes,
    ricci_gauss_many,
    ricci_polynomial,
    shape_spectrum,
    volume_distortion,
    zero_curvature_search,
)

GRID = np.linspace(0.0, math.pi / 2.0, 100)


def report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {label}  ({detail})")
    assert ok, f"{label}: {detail}"


def test_c01_mean_curvature_closed_form():
    devs = [
        abs(mean_curvature(HypersurfaceModel.from_angle(a)) + 4.0 * math.sin(a))
        for a in GRID
    ]
    at_zero = abs(mean_curvature(HypersurfaceModel.from_angle(0.0)))
    ok = max(devs) <= 1e-12 and at_zero <= 1e-14
    report(
        "mean curvature = -4 sin(alpha), minimal at 0",
        ok,
        f"max dev {max(devs):.2e}, |M(0)| = {at_zero:.2e}",
    )


def test_c02_cheeger_closed_form():
    devs = [
        abs(build_hypersurface_algebra(a).cheeger() - 4.0 * math.cos(a)) for a in GRID
    ]
    edge = build_hypersurface_algebra(GRID[-1]).cheeger()
    ok = max(devs) <= 1e-12 and edge <= 1e-12
    report(
        "Cheeger constant = 4 cos(alpha), vanishing at pi/2",
        ok,
        f"max dev {max(devs):.2e}, value at pi/2 = {edge:.2e}",
    )


def test_c03_ricci_closed_form_bulk():
    rng = np.random.default_rng(0)
    worst_closed = worst_poly = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(0.0, math.pi / 2.0))
        model = HypersurfaceModel.from_angle(alpha)
        vecs = random_unit_tangents(rng, 100)
        gauss = ricci_gauss_many(model, vecs)
        worst_closed = max(
            worst_closed, float(np.max(np.abs(gauss - ricci_closed_many(alpha, vecs))))
        )
        worst_poly = max(
            worst_poly,
            max(
                abs(g - ricci_polynomial(alpha, TangentVector.from_coeffs(v)))
                for g, v in zip(gauss, vecs)
            ),
        )
    ok = worst_closed <= 1e-10 and worst_poly <= 1e-10
    report(
        "Ricci closed form and polynomial match Gauss pipeline on 10^4 samples",
        ok,
        f"closed dev {worst_closed:.2e}, polynomial dev {worst_poly:.2e}",
    )


def test_c04_ricci_regime_boundary():
    third = math.pi / 3.0
    below = ricci_extremes(third - 0.01)[1]
    at = ricci_extremes(third)[1]
    above = ricci_extremes(third + 0.01)[1]
    lo, hi = third - 0.01, third + 0.01
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ricci_extremes(mid)[1] < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    ok = below < 0.0 and abs(at) <= 1e-9 and above > 0.0 and abs(root - third) <= 1e-6
    report(
        "max Ricci changes sign exactly at alpha = pi/3",
        ok,
        f"below {below:.2e}, at {at:.2e}, above {above:.2e}, root offset {root - third:.2e}",
    )


def test_c05_einstein_only_at_zero():
    flat, const = build_hypersurface_algebra(0.0).einstein_check(1e-8)
    ok = flat and abs(const + 3.0) <= 1e-10
    spreads = []
    for alpha in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        alg = build_hypersurface_algebra(alpha)
        is_flat, _ = alg.einstein_check(1e-8)
        ev = np.linalg.eigvalsh(alg.ricci_matrix())
        spreads.append(float(ev[-1] - ev[0]))
        ok = ok and not is_flat and spreads[-1] > 0.1
    report(
        "Einstein (constant -3) exactly at alpha = 0",
        ok,
        f"constant {const:.12f}, spreads {['%.3f' % s for s in spreads]}",
    )


def test_c06_positive_plane_curvature():
    x1, x2 = reference_plane()
    devs = []
    positives = True
    for alpha in np.linspace(0.0, math.pi / 2.0, 20):
        model = HypersurfaceModel.from_angle(alpha)
        k = gauss_sectional(model, x1, x2)
        devs.append(abs(k - reference_plane_curvature(alpha)))
        if alpha > 0.0:
            positives = positives and k > 0.0
    zero_val = abs(reference_plane_curvature(0.0))
    ok = max(devs) <= 1e-10 and positives and zero_val <= 1e-14
    report(
        "distinguished plane has K = (4 sqrt3/9) sin cos + sin^2/9 > 0",
        ok,
        f"max dev {max(devs):.2e}, K(0) = {zero_val:.2e}",
    )


def test_c07_nonpositive_at_zero_with_flat_plane():
    scan = nonpositivity_scan(0.0, samples=100000, seed=0)
    val, _ = zero_curvature_search(0.0, seed=0)
    ok = scan.max_curvature <= 1e-10 and val <= 1e-6
    report(
        "alpha = 0: no positive plane in 10^5 samples, flat plane found",
        ok,
        f"max K {scan.max_curvature:.2e}, min |K| {val:.2e}",
    )


def test_c08_damek_ricci_axioms():
    passing = build_hypersurface_algebra(0.0).damek_ricci_check((0, 1, 2, 3), (4, 5), 6)
    residuals = [
        passing.axiom_1.residual, passing.axiom_2.residual,
        passing.axiom_3.residual, passing.axiom_4.residual,
        passing.axiom_5.residual,
    ]
    ok = passing.overall and max(residuals) <= 1e-10
    fails = []
    for alpha in (0.1, 0.5, 1.0, math.pi / 2):
        rep = build_hypersurface_algebra(alpha).damek_ricci_check(
            (0, 1, 2, 3), (4, 5), 6
        )
        fails.append(not rep.axiom_5.passed and not rep.overall)
    ok = ok and all(fails)
    report(
        "Damek-Ricci axioms hold at 0, axiom 5 fails for alpha >= 0.1",
        ok,
        f"max residual at 0: {max(residuals):.2e}",
    )


def test_c09_heber_vector():
    expected = np.zeros(8)
    expected[6] = 4.0
    dev = float(np.max(np.abs(ambient_algebra().trace_form_vector() - expected)))
    report("ambient trace-form vector is 4 H0", dev <= 1e-12, f"dev {dev:.2e}")


def test_c10_pipeline_equivalence():
    rng = np.random.default_rng(1)
    worst_sec = worst_ric = 0.0
    for alpha in np.linspace(0.0, math.pi / 2.0, 20):
        model = HypersurfaceModel.from_angle(alpha)
        alg = build_hypersurface_algebra(alpha)
        u, v = _gram_schmidt(*rng.standard_normal((2, 50, 7)))
        for a, b in zip(u, v):
            ks = gauss_sectional(
                model, TangentVector.from_coeffs(a), TangentVector.from_coeffs(b)
            )
            worst_sec = max(worst_sec, abs(ks - alg.sectional(a, b)))
        for w in rng.standard_normal((50, 7)):
            worst_ric = max(
                worst_ric,
                abs(ricci_gauss_many(model, w) - alg.ricci(w)),
            )
    amb = ambient_algebra()
    worst_amb = 0.0
    for _ in range(1000):
        x, y = rng.standard_normal((2, 8))
        mx = np.einsum("k,kab->ab", x, AMBIENT_BASIS)
        my = np.einsum("k,kab->ab", y, AMBIENT_BASIS)
        worst_amb = max(
            worst_amb, abs(amb.curvature_inner(x, y, y, x) - ambient_curvature(mx, my))
        )
    ok = worst_sec <= 1e-9 and worst_ric <= 1e-9 and worst_amb <= 1e-9
    report(
        "Koszul, Gauss and ambient-bracket pipelines agree on 10^3 inputs each",
        ok,
        f"sectional {worst_sec:.2e}, ricci {worst_ric:.2e}, ambient {worst_amb:.2e}",
    )


def test_c11_foliation_identity_and_volume():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        alpha = float(rng.uniform(0.0, math.pi / 2.0))
        coords = rng.standard_normal(8)
        xyz = coords[:6].view(complex)
        worst = max(worst, foliation_residual_many(alpha, [xyz], coords[6], float(coords[7]))[0])
    preserved = all(volume_distortion(0.0, s) == 1.0 for s in np.linspace(-3, 3, 20))
    ok = worst <= 1e-10 and preserved
    report(
        "leaf conjugation matrix identity on 10^3 flows, volume preserved at 0",
        ok,
        f"max residual {worst:.2e}",
    )


def test_c12_horosphere_range():
    third = math.pi / 3.0
    ok = True
    for alpha in GRID:
        top = shape_spectrum(HypersurfaceModel.from_angle(alpha))[-1]
        nonpositive = top <= 1e-12
        ok = ok and (nonpositive == (alpha >= third - 1e-9))
    just_below = shape_spectrum(HypersurfaceModel.from_angle(third - 0.01))[-1]
    ok = ok and just_below > 1e-12
    report(
        "shape operator nonpositive precisely for alpha >= pi/3",
        ok,
        f"largest eigenvalue at pi/3 - 0.01: {just_below:.4f}",
    )


def test_c13_planes_of_both_signs():
    # span{E12, H} and span{iE12, H} have K = -sin^2(alpha + pi/6) <= -1/4 in
    # both pipelines, and the reference plane has K > 0 for every alpha > 0
    h = TangentVector(t=1.0)
    x1, x2 = reference_plane()
    worst = 0.0
    negatives = positives = True
    for alpha in np.linspace(0.0, math.pi / 2.0, 101):
        model = HypersurfaceModel.from_angle(alpha)
        alg = build_hypersurface_algebra(alpha)
        want = -math.sin(alpha + math.pi / 6.0) ** 2
        for x in (TangentVector(a=1.0), TangentVector(a=1j)):
            for k in (gauss_sectional(model, x, h), alg.sectional(x.coeffs(), h.coeffs())):
                worst = max(worst, abs(k - want))
                negatives = negatives and k <= -0.25
        if alpha > 0.0:
            positives = positives and gauss_sectional(model, x1, x2) > 0.0
    ok = worst <= 1e-12 and negatives and positives
    report(
        "every alpha > 0 has planes of both signs: K(E12, H) = -sin^2(alpha + pi/6)",
        ok,
        f"max dev {worst:.2e}",
    )


def _covariant_curvature(alg):
    # (nabla_a R)_ijk^l of left-invariant fields, from Gamma and R of the algebra
    gam, r = alg._connection, alg._riemann
    return (np.einsum("ijkm,aml->aijkl", r, gam) - np.einsum("aim,mjkl->aijkl", gam, r)
            - np.einsum("ajm,imkl->aijkl", gam, r) - np.einsum("akm,ijml->aijkl", gam, r))


def test_c14_leaf_is_not_symmetric():
    # the ambient symmetric space has nabla R = 0; the alpha = 0 Damek-Ricci
    # leaf does not, and no leaf of the family does
    ambient = float(np.max(np.abs(_covariant_curvature(ambient_algebra()))))
    norms = [float(np.linalg.norm(_covariant_curvature(build_hypersurface_algebra(a))))
             for a in np.linspace(0.0, math.pi / 2.0, 101)]
    at_zero = abs(norms[0] - 6.0 * math.sqrt(2.0))
    ok = ambient <= 1e-14 and at_zero <= 1e-13 and min(norms) >= 8.0
    report(
        "ambient curvature is parallel; the leaves' is not, |nabla R| = 6 sqrt2 at 0",
        ok,
        f"ambient max {ambient:.2e}, |nabla R(0)| - 6 sqrt2 = {at_zero:.2e}, min {min(norms):.3f}",
    )
