from fractions import Fraction

import numpy as np
import pytest

from conjscope import pair as pm
from conjscope import scalar
from conjscope.errors import RegularityViolation

from conftest import random_sode


def bracket(pair, A_exprs, B_exprs, x):
    """Lie bracket [A, B](x) = (DB)(x) A(x) - (DA)(x) B(x), Jacobians by AD;
    a reference for the tests below."""
    env = pair.bindings(np.asarray(x, dtype=float))
    a_val, Ja = pm._jacobian(tuple(scalar.parse(e) for e in A_exprs), pair.coords, env)
    b_val, Jb = pm._jacobian(tuple(scalar.parse(e) for e in B_exprs), pair.coords, env)
    return Jb @ a_val - Ja @ b_val


def test_lift_nonautonomous_scalar():
    model = pm.SODEModel(m=1, F=("-x1",))
    pr = pm.lift_sode(model)
    assert pr.coords == ("t", "x1", "y1")
    x = [0.0, 0.3, 0.7]
    assert np.allclose(pr.X_at(x), [1.0, 0.7, -0.3])
    env = pr.bindings(x)
    col = [scalar.evaluate(e, env) for e in pr.vframe[0]]
    assert col == [0.0, 0.0, 1.0]


def test_lift_autonomous_scalar():
    model = pm.SODEModel(m=1, F=("-x1",), autonomous=True)
    pr = pm.lift_sode(model)
    assert pr.coords == ("x1", "y1")
    assert np.allclose(pr.X_at([0.3, 0.7]), [0.7, -0.3])


def test_lift_skew_coupled_pair():
    model = pm.SODEModel(m=2, F=("-x1 - eps*x2", "-x2 + eps*x1"),
                         autonomous=True, params={"eps": 0.25})
    pr = pm.lift_sode(model)
    assert pr.coords == ("x1", "x2", "y1", "y2")
    x = [0.5, -1.0, 2.0, 0.1]
    assert np.allclose(pr.X_at(x), [2.0, 0.1, -0.5 + 0.25, 1.0 + 0.125])


def test_bracket_coordinate_fields():
    # [d/da, a d/db] = d/db on the plane
    pr = pm.GenericPair(coords=("a", "b"), X=("1", "0"), vframe=(("0", "1"),))
    out = bracket(pr, ["1", "0"], ["0", "a"], [0.37, -1.2])
    assert np.allclose(out, [0.0, 1.0])


def test_bracket_total_derivative_with_vertical():
    model = pm.SODEModel(m=1, F=("-x1",), autonomous=True)
    pr = pm.lift_sode(model)
    out = bracket(pr, [e.pretty() for e in pr.X], ["0", "1"], [0.4, 0.9])
    assert np.allclose(out, [-1.0, 0.0])


def test_nested_bracket_harmonic():
    model = pm.SODEModel(m=1, F=("-x1",), autonomous=True)
    pr = pm.lift_sode(model)
    data = pm.extract_H(pr, [0.3, 0.7])
    assert np.allclose(data.XXV[:, 0], [0.0, -1.0])
    assert np.allclose(data.H0, [[-1.0]])
    assert np.allclose(data.H1, [[0.0]])
    K = pm.curvature_frame(pr, [0.3, 0.7])
    assert np.allclose(K, [[1.0]])


def test_extract_H_damped():
    gamma = 0.35
    model = pm.SODEModel(m=1, F=(f"-x1 - {2*gamma}*y1",), autonomous=True)
    pr = pm.lift_sode(model)
    data = pm.extract_H(pr, [1.1, -0.4])
    assert abs(data.H1[0, 0] - 2 * gamma) < 1e-12
    assert data.residual < 1e-10


def test_extract_H_degenerate_frame_raises():
    # frame column equal to X itself: [X, X] = 0, so [V | XV] loses rank
    pr = pm.GenericPair(coords=("a", "b"), X=("b", "-a"), vframe=(("b", "-a"),))
    with pytest.raises(RegularityViolation):
        pm.extract_H(pr, [0.6, 0.2])


def test_lstsq_one_svd_matches_numpy():
    rng = np.random.default_rng(3)
    for shape in ((6, 4), (5, 4), (4, 4)):
        D = rng.standard_normal(shape)
        B = rng.standard_normal((shape[0], 2))
        S, cond, residual = pm._lstsq(D, B)
        ref = np.linalg.lstsq(D, B, rcond=None)[0]
        assert np.allclose(S, ref, rtol=1e-12, atol=1e-12)
        s = np.linalg.svd(D, compute_uv=False)
        assert abs(cond - s[0] / s[-1]) <= 1e-12 * cond
        assert abs(residual - np.linalg.norm(D @ ref - B) / np.linalg.norm(B)) <= 1e-12
    # a singular D (a zero column, as [X, X] = 0 gives): infinite condition
    # number, lstsq's minimum-norm solution and a finite residual
    D = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    B = np.array([[1.0], [0.0], [1.0]])
    S, cond, residual = pm._lstsq(D, B)
    assert cond == float("inf")
    assert np.allclose(S, np.linalg.lstsq(D, B, rcond=None)[0], atol=1e-14)
    assert 0.0 < residual < 1.0


def test_curvature_formula_direct():
    model = pm.SODEModel(m=1, F=("-4*x1",), autonomous=True)
    pr = pm.lift_sode(model)
    K = pm.curvature_frame(pr, [0.2, 0.1])
    assert np.allclose(K, [[4.0]])


def test_curvature_damped_oscillator():
    gamma = 0.25
    model = pm.SODEModel(m=1, F=(f"-x1 - {2*gamma}*y1",), autonomous=True)
    K = pm.sode_curvature(model, 0.0, [0.7], [0.2])
    assert abs(K[0, 0] - (1 - gamma**2)) < 1e-12


def test_curvature_skew_coupled():
    eps = 0.3
    model = pm.SODEModel(m=2, F=("-x1 - eps*x2", "-x2 + eps*x1"),
                         autonomous=True, params={"eps": eps})
    for point in ([0.3, -0.2, 1.0, 0.4], [2.0, 1.0, -0.5, 0.2]):
        K = pm.sode_curvature(model, 0.0, point[:2], point[2:])
        assert np.allclose(K, [[1.0, eps], [-eps, 1.0]], atol=1e-12)


def test_sode_curvature_single_harmonic():
    model = pm.SODEModel(m=1, F=("-omega^2*x1",), autonomous=True, params={"omega": 3.0})
    K = pm.sode_curvature(model, 0.0, [0.4], [0.1])
    assert np.allclose(K, [[9.0]])


def test_split_and_project_harmonic():
    model = pm.SODEModel(m=1, F=("-x1",), autonomous=True)
    pr = pm.lift_sode(model)
    sp = pm.split_and_project(pr, [0.3, 0.7])
    assert np.allclose(sp["horizontal_frame"][:, 0], [-1.0, 0.0])
    assert np.allclose(sp["A"], [[1.0]])
    assert np.allclose(-sp["B"] @ sp["A"], [[1.0]], atol=1e-10)


def test_projector_algebra():
    model = pm.SODEModel(m=2, F=("-x1 + 0.2*y2", "-x2 - 0.1*y1*y1"), autonomous=True)
    pr = pm.lift_sode(model)
    sp = pm.split_and_project(pr, [0.4, -0.2, 0.3, 0.6])
    pi_V, pi_H = sp["pi_V"], sp["pi_H"]
    assert np.allclose(pi_V + pi_H, np.eye(4), atol=1e-12)
    assert np.allclose(pi_V @ pi_H, np.zeros((4, 4)), atol=1e-12)
    assert np.allclose(pi_V @ pi_V, pi_V, atol=1e-12)


def test_minus_BA_equals_K_on_random_linear_systems():
    # linear forces give constant H1, so the flow derivative is exact
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        names = [f"x{i+1}" for i in range(m)] + [f"y{i+1}" for i in range(m)]
        F = []
        for i in range(m):
            terms = [f"{rng.uniform(-1, 1):.4f}*{n}" for n in names]
            F.append(" + ".join(terms) + f" - {rng.uniform(0.5, 1.5):.4f}*x{i+1}")
        model = pm.SODEModel(m=m, F=tuple(F), autonomous=True)
        pr = pm.lift_sode(model)
        x = rng.uniform(-0.5, 0.5, size=2 * m)
        sp = pm.split_and_project(pr, x)
        K = pm.curvature_at(pr, x)
        assert np.max(np.abs(-sp["B"] @ sp["A"] - K)) < 1e-8


def test_frame_covariance_constant_G():
    rng = np.random.default_rng(5)
    model = pm.SODEModel(m=2, F=("-x1 - 0.3*y2 + 0.2*x2*y1", "-1.3*x2 + 0.15*y1*y1"),
                         autonomous=True)
    pr = pm.lift_sode(model)
    x = np.array([0.4, -0.2, 0.6, 0.3])
    K = pm.curvature_at(pr, x)
    for _ in range(5):
        G = rng.normal(size=(2, 2)) + 2.5 * np.eye(2)
        cols = []
        for j in range(2):
            col = [scalar.linear_combination([pr.vframe[0][i], pr.vframe[1][i]], G[:, j])
                   for i in range(4)]
            cols.append(tuple(col))
        pr_tw = pm.GenericPair(coords=pr.coords, X=pr.X, vframe=tuple(cols))
        K_tw = pm.curvature_frame(pr_tw, x)
        expected = np.linalg.inv(G) @ K @ G
        assert np.max(np.abs(K_tw - expected)) < 1e-8
        eig_a = np.sort(np.linalg.eigvals(K_tw))
        eig_b = np.sort(np.linalg.eigvals(K))
        assert np.max(np.abs(eig_a - eig_b)) < 1e-8


def test_reconstruction_residual_small(random_systems):
    for model, x0 in random_systems[:8]:
        pr = pm.lift_sode(model)
        x = np.concatenate([[0.0], x0]) if not model.autonomous else np.asarray(x0)
        data = pm.extract_H(pr, x)
        scale = np.linalg.norm(data.XXV)
        recon = data.V @ data.H0 + data.XV @ data.H1
        assert np.linalg.norm(recon - data.XXV) <= 1e-8 * max(scale, 1.0)


def test_sode_vs_generic_curvature_on_random_systems():
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        model = random_sode(rng, m, autonomous=True)
        pr = pm.lift_sode(model)
        pr_gen = pm.GenericPair(coords=pr.coords, X=pr.X, vframe=pr.vframe)
        x = rng.uniform(-0.4, 0.4, size=2 * m)
        K_exact = pm.curvature_at(pr, x)
        K_fd = pm.curvature_frame(pr_gen, x)
        assert np.max(np.abs(K_exact - K_fd)) < 1e-6


def test_check_regularity_sode_lift_passes():
    model = pm.SODEModel(m=2, F=("-x1", "-2*x2"), autonomous=True)
    pr = pm.lift_sode(model)
    rep = pm.check_regularity(pr, [[0.3, 0.1, -0.2, 0.5], [1.0, 1.0, 1.0, 1.0]])
    assert rep.all_ok


def test_check_regularity_zero_field_fails_R1():
    pr = pm.GenericPair(coords=("a", "b"), X=("0", "0"), vframe=(("0", "1"),))
    rep = pm.check_regularity(pr, [[0.5, 0.5]])
    assert not rep.all_ok
    assert not rep.points[0].r1_ok


def test_weak_invariance_diagnostic():
    # perturbing the lifted clock component breaks strict invariance of the
    # bracket span, but in ambient dimension 2m+1 the span extended by X is
    # the whole space, so the point is flagged as weakly invariant only
    pr = pm.GenericPair(
        coords=("t", "x1", "y1"),
        X=("1 + 0.1*y1^2", "y1", "-x1"),
        vframe=(("0", "0", "1"),))
    rep = pm.check_regularity(pr, [[0.0, 0.4, 0.7]])
    pt = rep.points[0]
    assert not pt.inv_ok
    assert pt.weak_invariance_only
    assert pt.r1_ok and pt.r2_ok
    assert not rep.all_ok


def test_dancing_conditioning_blows_up_near_singular_set():
    from conjscope import catalog
    model, _ = catalog.build("dancing", {"F": "sin(x1)"})
    pr = pm.lift_sode(model)
    conds = []
    for margin in (1.0, 0.1, 1e-3, 1e-5):
        x = [1.2, 0.0, margin, 0.3]      # y1 - x2 = margin
        data = pm.extract_H(pr, x, raise_on_violation=False)
        conds.append(data.cond_D)
    assert conds[-1] > 1e4 * conds[0]
    assert conds == sorted(conds)


def _exact_residual(D, H0, H1, B):
    """|D [H0; H1] - B|^2 (Frobenius) of the floats given, in exact rational
    arithmetic, so that no rounding of the check itself enters."""
    S = np.vstack([H0, H1])
    return sum((sum(Fraction(D[i, k]) * Fraction(S[k, j]) for k in range(D.shape[1]))
                - Fraction(B[i, j])) ** 2
               for i in range(D.shape[0]) for j in range(B.shape[1]))


@pytest.mark.parametrize("name", ["dancing", "mechanical", "perturbed_pair", "sphere_spray",
                                  "harmonic"])
def test_structure_at_matches_the_bracket_relation(name):
    # one force jet (H1 = -dF/dy, H0 = dF/dx - X(dF/dy)) solves the bracket
    # relation of the same lift read as a generic pair, whose structure_at
    # (one QR solve) agrees with extract_H's SVD to rounding; the exact
    # residual it leaves in the relation is no larger than the SVD's, or
    # than eps |XXV| where both are rounding (one dancing point reads
    # 3.6e-17 against 3.4e-17, relative)
    from conjscope import catalog
    model, _ = catalog.build(name)
    pr = pm.lift_sode(model)
    gen = pm.GenericPair(coords=pr.coords, X=pr.X, vframe=pr.vframe, params=pr.params)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = catalog.ENTRIES[name].default_x0 + rng.uniform(-0.05, 0.05, size=pr.n)
        data = pm.extract_H(gen, x)
        X_gen, H0_gen, H1_gen = pm.structure_at(gen, x)
        assert np.array_equal(X_gen, data.X)
        D = np.hstack([data.V, data.XV])
        for H, ref in ((H0_gen, data.H0), (H1_gen, data.H1)):
            assert np.max(np.abs(H - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))
        floor = Fraction(np.finfo(float).eps * np.linalg.norm(data.XXV)) ** 2
        assert _exact_residual(D, H0_gen, H1_gen, data.XXV) <= \
            max(_exact_residual(D, data.H0, data.H1, data.XXV), floor)
        for H, ref in zip(pm.structure_at(pr, x)[1:], (data.H0, data.H1)):
            assert np.max(np.abs(H - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def _dancing_generic():
    from conjscope import catalog
    model, _ = catalog.build("dancing", {"F": "sin(x1)"})
    pr = pm.lift_sode(model)
    return pm.GenericPair(coords=pr.coords, X=pr.X, vframe=pr.vframe, params=pr.params)


def _raised(fn, pair, x):
    with pytest.raises(RegularityViolation) as err:
        fn(pair, x)
    return err.value


_DANCING_SINGULAR = [1.2, 0.1, 0.1 + 3.0e-3, 0.3]
_DANCING_REGULAR = [1.2, 0.1, 0.1 + 0.5, 0.3]


@pytest.mark.parametrize("pair, x, cond, figure", [
    # near the singular set y1 = x2 of the dancing pair: cond[V | XV] > 1e8
    (_dancing_generic(), _DANCING_SINGULAR, "R2", None),
    # the weakly invariant pair of test_weak_invariance_diagnostic: the
    # iterated bracket leaves span[V | XV] (n = 3 > 2m)
    (pm.GenericPair(coords=("t", "x1", "y1"), X=("1 + 0.1*y1^2", "y1", "-x1"),
                    vframe=(("0", "0", "1"),)), [0.0, 0.4, 0.7], "I", None),
    # V = X: [X, X] = 0 exactly, so [V | XV] is exactly singular
    (pm.GenericPair(coords=("a", "b"), X=("b + 0.1*a^2", "-a"),
                    vframe=(("b + 0.1*a^2", "-a"),)), [0.3, 0.7], "R2", float("inf")),
])
def test_structure_at_raises_what_extract_H_raises(pair, x, cond, figure):
    # a point that fails the QR screen is decided by extract_H's SVD, so the
    # violation, its figure and its point are extract_H's own
    ref = _raised(pm.extract_H, pair, x)
    err = _raised(pm.structure_at, pair, x)
    assert err.cond == ref.cond == cond
    assert err.residual == ref.residual
    assert figure is None or err.residual == figure
    assert np.array_equal(err.point, ref.point)


def test_structure_at_on_a_stack_raises_its_first_violation():
    gen = _dancing_generic()
    ref = _raised(pm.extract_H, gen, _DANCING_SINGULAR)
    stack = np.array([_DANCING_REGULAR, _DANCING_SINGULAR, _DANCING_REGULAR]).T
    err = _raised(pm.structure_at, gen, stack)
    assert (err.cond, err.residual) == (ref.cond, ref.residual)
    assert np.array_equal(err.point, ref.point)


def test_structure_at_passes_the_dancing_pair_away_from_its_singular_set():
    gen = _dancing_generic()
    data = pm.extract_H(gen, _DANCING_REGULAR)
    _, H0, H1 = pm.structure_at(gen, _DANCING_REGULAR)
    for H, ref in ((H0, data.H0), (H1, data.H1)):
        assert np.max(np.abs(H - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (5, 4), (7, 6)])
def test_screened_solve_matches_numpy(shape):
    rng = np.random.default_rng(11)
    n, k = shape
    D = rng.standard_normal(shape) + 3.0 * np.eye(n, k)
    S_true = rng.standard_normal((k, k // 2 or 1))
    # a relative residual of about 1e-9, below the screen's cut, when n > k
    B = D @ S_true + 1e-9 * rng.standard_normal((n, S_true.shape[1]))
    S = pm._screened_solve(D, B)
    ref = np.linalg.lstsq(D, B, rcond=None)[0]
    assert np.allclose(S, ref, rtol=1e-12, atol=1e-12)
    if n > k:
        # a residual past INVARIANCE_TOL / 10 fails the screen
        assert pm._screened_solve(D, B + 1e-6 * np.linalg.norm(B) * rng.standard_normal(B.shape)) \
            is None
    # an exactly singular D, and one with cond_2 = COND_LIMIT / 2, which the
    # SVD passes but the screen leaves to it (cond_1 >= cond_2 / k)
    singular = D.copy()
    singular[:, -1] = 0.0
    assert pm._screened_solve(singular, B) is None
    U, _, Vt = np.linalg.svd(D, full_matrices=False)
    s = np.geomspace(1.0, 2.0 / pm.COND_LIMIT, k)
    assert pm._screened_solve((U * s) @ Vt, B) is None
    assert pm._screened_solve(np.where(D > 1.0, np.nan, D), B) is None
    # a wide D (fewer rows than columns) is left to the SVD too
    assert pm._screened_solve(D[:, :1].T, B[:1]) is None


def test_curvature_on_a_stack_raises_the_first_pointwise_violation():
    # near the singular set y1 = x2 of the dancing pair read as a generic
    # pair, cond[V | XV] passes 1e8: at margin 3.2e-3 only x - hX does, at
    # 3.0e-3 x itself does; the stack must raise what evaluating the points
    # one at a time raises first, i.e. the x - hX of the second point
    from conjscope import catalog
    model, _ = catalog.build("dancing", {"F": "sin(x1)"})
    pr = pm.lift_sode(model)
    gen = pm.GenericPair(coords=pr.coords, X=pr.X, vframe=pr.vframe, params=pr.params)
    stack = np.array([[1.2, 0.1, 0.1 + d, 0.3] for d in (0.5, 3.2e-3, 3.0e-3)]).T
    first = None
    for x in stack.T:
        try:
            pm.curvature_at(gen, x)
        except RegularityViolation as err:
            first = err
            break
    assert first is not None and not np.array_equal(first.point, stack[:, 1])
    with pytest.raises(RegularityViolation) as err:
        pm.curvature_at(gen, stack)
    assert (err.value.cond, err.value.residual) == (first.cond, first.residual)
    assert np.array_equal(err.value.point, first.point)
