from fractions import Fraction

import numpy as np
import pytest

from conjscope import pair as pm
from conjscope import scalar
from conjscope.errors import DomainError, RegularityViolation

from conftest import linear_combination, random_sode, rhs_structure, split_and_project


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
    sp = split_and_project(pr, [0.3, 0.7])
    assert np.allclose(sp["horizontal_frame"][:, 0], [-1.0, 0.0])
    assert np.allclose(sp["A"], [[1.0]])
    assert np.allclose(-sp["B"] @ sp["A"], [[1.0]], atol=1e-10)


def test_projector_algebra():
    model = pm.SODEModel(m=2, F=("-x1 + 0.2*y2", "-x2 - 0.1*y1*y1"), autonomous=True)
    pr = pm.lift_sode(model)
    sp = split_and_project(pr, [0.4, -0.2, 0.3, 0.6])
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
        sp = split_and_project(pr, x)
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
            col = [linear_combination([pr.vframe[0][i], pr.vframe[1][i]], G[:, j])
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
        K_gen = pm.curvature_frame(pr_gen, x)
        assert np.max(np.abs(K_exact - K_gen)) <= 3e-13 * np.max(np.abs(K_exact))


def test_check_regularity_sode_lift_passes():
    model = pm.SODEModel(m=2, F=("-x1", "-2*x2"), autonomous=True)
    pr = pm.lift_sode(model)
    rep = pm.check_regularity(pr, [[0.3, 0.1, -0.2, 0.5], [1.0, 1.0, 1.0, 1.0]])
    assert rep.all_ok


def test_check_regularity_zero_field_fails_R1():
    pr = pm.GenericPair(coords=("a", "b"), X=("0", "0"), vframe=(("0", "1"),))
    rep = pm.check_regularity(pr, [[0.5, 0.5]])
    assert not rep.all_ok
    assert not rep.r1_ok[0]


def test_weak_invariance_diagnostic():
    # perturbing the lifted clock component breaks strict invariance of the
    # bracket span, but in ambient dimension 2m+1 the span extended by X is
    # the whole space, so the point is flagged as weakly invariant only
    pr = pm.GenericPair(
        coords=("t", "x1", "y1"),
        X=("1 + 0.1*y1^2", "y1", "-x1"),
        vframe=(("0", "0", "1"),))
    rep = pm.check_regularity(pr, [[0.0, 0.4, 0.7]])
    assert not rep.inv_ok[0]
    assert rep.weak_invariance_only[0]
    assert rep.r1_ok[0] and rep.r2_ok[0]
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
    # relation of the same lift read as a generic pair, whose joint
    # right-hand side (one QR solve) agrees with extract_H's SVD to
    # rounding; the exact residual it leaves in the relation is no larger
    # than the SVD's, or than eps |XXV| where both are rounding (one dancing
    # point reads 3.6e-17 against 3.4e-17, relative)
    from conjscope import catalog
    model, _ = catalog.build(name)
    pr = pm.lift_sode(model)
    gen = pm.GenericPair(coords=pr.coords, X=pr.X, vframe=pr.vframe, params=pr.params)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = catalog.ENTRIES[name].default_x0 + rng.uniform(-0.05, 0.05, size=pr.n)
        data = pm.extract_H(gen, x)
        X_gen, H0_gen, H1_gen = rhs_structure(gen, x)
        assert np.array_equal(X_gen, data.X)
        D = np.hstack([data.V, data.XV])
        for H, ref in ((H0_gen, data.H0), (H1_gen, data.H1)):
            assert np.max(np.abs(H - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))
        floor = Fraction(np.finfo(float).eps * np.linalg.norm(data.XXV)) ** 2
        assert _exact_residual(D, H0_gen, H1_gen, data.XXV) <= \
            max(_exact_residual(D, data.H0, data.H1, data.XXV), floor)
        _, t, xs, ys = pm._sode_point(pr, x)
        _, dFdx, dFdy, X_dFdy = pm._force_jet(model, t, xs, ys)
        for H, ref in zip((dFdx - X_dFdy, -dFdy), (data.H0, data.H1)):
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
    # joint right-hand side raises extract_H's own violation, figure and point
    ref = _raised(pm.extract_H, pair, x)
    err = _raised(rhs_structure, pair, x)
    assert err.cond == ref.cond == cond
    assert err.residual == ref.residual
    assert figure is None or err.residual == figure
    assert np.array_equal(err.point, ref.point)


def test_structure_at_passes_the_dancing_pair_away_from_its_singular_set():
    gen = _dancing_generic()
    data = pm.extract_H(gen, _DANCING_REGULAR)
    _, H0, H1 = rhs_structure(gen, _DANCING_REGULAR)
    for H, ref in ((H0, data.H0), (H1, data.H1)):
        assert np.max(np.abs(H - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))


def test_a_rotation_of_two_zeros_is_the_identity():
    # V1 = (a, b, 1, 0) has the Givens solve rotate its a and b rows against
    # each other; at a = b = 0 that rotation is the identity, so the joint
    # kernel solves the point itself, as the SVD does
    pair = pm.GenericPair(coords=("a", "b", "c", "d"), X=("c", "d", "-a", "-b"),
                          vframe=(("a", "b", "1", "0"), ("0", "0", "0", "1")))
    x = [0.0, 0.0, 0.5, 0.3]
    w = x + [0.0] * 8 + [1.0, 0.0, 0.0, 1.0]
    out = scalar.run_field(pair.joint_kernel, w, pair.params)       # no raise
    assert out[-1] == 0.0                                           # the screen passes
    assert np.array_equal(out[:-1], pm.joint_rhs(pair)(np.array(w)))
    data = pm.extract_H(pair, x)
    _, H0, H1 = rhs_structure(pair, x)
    for H, ref in ((H0, data.H0), (H1, data.H1)):
        assert np.max(np.abs(H - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))


def _solve_algebra(gen, jet, n, k, p):
    """The emitted least-squares solve of D S = B, with D (n x k) and B
    (n x p) read from the state, row-major, then its screen's verdict."""
    w = [gen.state(i) for i in range(n * (k + p))]
    S, _, _, verdict, _ = pm._least_squares(
        gen, [w[i * k:(i + 1) * k] for i in range(n)],
        [w[n * k + i * p:n * k + (i + 1) * p] for i in range(n)])
    return [v for row in S for v in row] + [verdict]


def _emitted_solve(D, B):
    """S of the emitted solve, or None where its screen fails or it raises
    (a tiny rotation or a zero pivot): the points that the joint kernel's
    reader leaves to extract_H to decide."""
    (n, k), p = D.shape, B.shape[1]
    kernel = scalar.field_kernel((), (), None, (), _solve_algebra, n, k, p)
    try:
        out = scalar.run_field(kernel, [*D.ravel().tolist(), *B.ravel().tolist()], {})
    except DomainError:
        return None
    return None if out[-1] else out[:-1].reshape(k, p)


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (5, 4), (7, 6)])
def test_screened_solve_matches_numpy(shape):
    rng = np.random.default_rng(11)
    n, k = shape
    D = rng.standard_normal(shape) + 3.0 * np.eye(n, k)
    S_true = rng.standard_normal((k, k // 2 or 1))
    # a relative residual of about 1e-9, below the screen's cut, when n > k
    B = D @ S_true + 1e-9 * rng.standard_normal((n, S_true.shape[1]))
    S = _emitted_solve(D, B)
    ref = np.linalg.lstsq(D, B, rcond=None)[0]
    assert np.allclose(S, ref, rtol=1e-12, atol=1e-12)
    if n > 2:
        # two entries of a column that are both 0.0 rotate by the identity
        zeros = D.copy()
        zeros[:2, 0] = 0.0
        B_zeros = zeros @ S_true
        assert np.allclose(_emitted_solve(zeros, B_zeros),
                           np.linalg.lstsq(zeros, B_zeros, rcond=None)[0], rtol=1e-12, atol=1e-12)
    if n > k:
        # a residual past INVARIANCE_TOL / 10 fails the screen
        assert _emitted_solve(D, B + 1e-6 * np.linalg.norm(B) * rng.standard_normal(B.shape)) \
            is None
    # an exactly singular D, and one with cond_2 = COND_LIMIT / 2, which the
    # SVD passes but the screen leaves to it (|R|_F |R^-1|_F >= cond_2)
    singular = D.copy()
    singular[:, -1] = 0.0
    assert _emitted_solve(singular, B) is None
    U, _, Vt = np.linalg.svd(D, full_matrices=False)
    s = np.geomspace(1.0, 2.0 / pm.COND_LIMIT, k)
    assert _emitted_solve((U * s) @ Vt, B) is None
    assert _emitted_solve(np.where(D > 1.0, np.nan, D), B) is None
    # a wide D (fewer rows than columns) is left to the SVD too
    assert _emitted_solve(D[:, :1].T, B[:1]) is None


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


# -- field kernels against the numpy algebra they replace ---------------------

def _dot(A, B):
    """A @ B (stacks broadcast) summed in index order, as the field kernels
    sum; BLAS may sum in another order, or fuse multiply and add."""
    out = A[..., :, :1] * B[..., :1, :]
    for k in range(1, A.shape[-1]):
        out = out + A[..., :, k:k + 1] * B[..., k:k + 1, :]
    return out


def _bracket_reference(pair, x):
    """X, D = [V | XV] and XXV at x from one evaluation of X and one seeded
    jet of the stacked fields along X(x), bracketed in numpy."""
    n, m = pair.n, pair.m
    env = pair.bindings(x)
    X = scalar.evaluate(pair.X, env)
    val, _, J, Hu = scalar.second_partials(pair.stacked, env, dict(zip(pair.coords, X)),
                                           pair.coords)
    J_X, J_V = J[:n], J[n:].reshape(m, n, n)
    Hu_X, Hu_V = Hu[:n], Hu[n:].reshape(m, n, n)
    V = val[n:].reshape(m, n)                   # rows V_j
    col = X[:, None]
    JV_x = _dot(J_V, col)[..., 0]
    XV = JV_x - _dot(V, J_X.T)
    JX_x = _dot(J_X, col)[:, 0]
    XXV = (_dot(Hu_V, col)[..., 0] + _dot(J_V, JX_x[:, None])[..., 0] - _dot(V, Hu_X.T)
           - _dot(JV_x, J_X.T) - _dot(XV, J_X.T))
    return X, np.concatenate([V.T, XV.T], axis=1), XXV.T


def _force_reference(model, x):
    """X, H0 and H1 of a lifted point from one evaluation and one seeded
    jet of the force along X = (1, y, F)."""
    m = model.m
    t, xs = (None, x) if model.autonomous else (x[0], x[1:])
    env = model.force_bindings(t, xs[:m], xs[m:])
    F = scalar.evaluate(model.F, env)
    u = {**{f"x{k+1}": xs[m + k] for k in range(m)}, **{f"y{k+1}": F[k] for k in range(m)}}
    if not model.autonomous:
        u["t"] = 1.0
    names = [f"x{k+1}" for k in range(m)] + [f"y{k+1}" for k in range(m)]
    _, _, J, Hu = scalar.second_partials(model.F, env, u, names)
    X = np.concatenate(([] if model.autonomous else [1.0]) + [xs[m:], F])
    return X, J[:, :m] - Hu[:, m:], -J[:, m:]


def _trajectory_points(pair, x0, T, count=20):
    from conjscope import ode
    return ode.integrate(pair.field_callable(), x0, T).at(np.linspace(0.0, T, count)).T


def _as_generic(pair):
    return pm.GenericPair(coords=pair.coords, X=pair.X, vframe=pair.vframe, params=pair.params)


def _check_generic_parity(pair, x0, T):
    # the joint kernel passes its screen at every point, and joint_rhs is
    # its one call: bitwise the products of the X, H0 and H1 it solves
    # (read at G = 0, a = 0, b = I); those leave an exact residual in the
    # bracket relation no larger than the SVD's, or than eps |XXV|
    rhs = pm.joint_rhs(pair)
    rng = np.random.default_rng(5)
    stacked = []
    for x in _trajectory_points(pair, x0, T):
        X, D, XXV = _bracket_reference(pair, x)
        w = np.concatenate([x, rng.standard_normal(3 * pair.m ** 2)])
        *out, verdict = scalar.run_field(pair.joint_kernel, w.tolist(), pair.params)
        assert verdict == 0.0                                       # the screen passes
        got = rhs_structure(pair, x)
        assert np.array_equal(got[0], X)
        assert np.array_equal(rhs(w), out) and np.array_equal(out, _joint_reference(*got, w))
        data = pm.extract_H(pair, x)
        floor = Fraction(np.finfo(float).eps * np.linalg.norm(XXV)) ** 2
        assert _exact_residual(D, got[1], got[2], XXV) <= \
            max(_exact_residual(D, data.H0, data.H1, XXV), floor)
        stacked.append((x, X, D, XXV))
    # the stack form of the bracket kernel: brackets_at on all points at once
    xs = np.array([s[0] for s in stacked]).T
    X, V, XV, XXV = pm.brackets_at(pair, xs)
    assert np.array_equal(X, [s[1] for s in stacked])
    assert np.array_equal(np.concatenate([V, XV], axis=-1), [s[2] for s in stacked])
    assert np.array_equal(XXV, [s[3] for s in stacked])


def _joint_reference(X, H0, H1, w):
    """w' of the joint solve, products summed in index order."""
    m = len(H0)
    G, a, b = w[len(X):].reshape(3, m, m)
    return np.concatenate([X, _dot(-0.5 * H1, G).ravel(), _dot(-H0, b).ravel(),
                           (-a - _dot(H1, b)).ravel()])


@pytest.mark.parametrize("name", ["dancing", "mechanical", "perturbed_pair", "sphere_spray",
                                  "harmonic"])
def test_field_kernels_match_the_numpy_algebra_on_the_catalog(name):
    # the force kernel (lifted) and the bracket kernel (the same lift as a
    # generic pair) give, bitwise, what the numpy algebra of the same jets
    # gives; the lift's joint right-hand side is the generic pair's, bitwise,
    # and its folded solve is the force jet's closed form to rounding (within
    # 5.6e-17 of the largest entry on dancing, bitwise on harmonic,
    # perturbed_pair and mechanical)
    from conjscope import catalog
    entry = catalog.ENTRIES[name]
    model, _ = entry.build()
    pr = pm.lift_sode(model)
    x0 = pm.full_x0(model, pr, entry.default_x0)
    rhs, generic_rhs = pm.joint_rhs(pr), pm.joint_rhs(_as_generic(pr))
    rng = np.random.default_rng(5)
    points = _trajectory_points(pr, x0, entry.default_T)
    for x in points:
        ref = _force_reference(model, x)
        _, t, xs, ys = pm._sode_point(pr, x)
        F, dFdx, dFdy, X_dFdy = pm._force_jet(model, t, xs, ys)
        assert np.array_equal(F, ref[0][-model.m:])
        assert np.array_equal(dFdx - X_dFdy, ref[1]) and np.array_equal(-dFdy, ref[2])
        w = np.concatenate([x, rng.standard_normal(3 * model.m ** 2)])
        got, closed = rhs(w), _joint_reference(*ref, w)
        assert np.array_equal(got, generic_rhs(w))
        assert np.max(np.abs(got - closed)) <= 1e-15 * max(1.0, np.max(np.abs(closed)))
    # the stack form of the force kernel, which sode_curvature reads
    _, t, xs, ys = pm._sode_point(pr, points.T)
    _, dFdx, dFdy, X_dFdy = pm._force_jet(model, t, xs, ys)
    for x, H0, H1 in zip(points, dFdx - X_dFdy, -dFdy):
        _, H0_ref, H1_ref = _force_reference(model, x)
        assert np.array_equal(H0, H0_ref) and np.array_equal(H1, H1_ref)
    _check_generic_parity(_as_generic(pr), x0, entry.default_T)


def _config_pair(name):
    """The pair, x0 and T of a generic-pair config under configs/."""
    from pathlib import Path
    from conjscope import cli
    cfg = cli.load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.ini")
    pair, _, _, _ = cli.build_system(cfg["system"], cfg["params"])
    return pair, [float(v) for v in cfg["analysis"]["x0"].split(",")], float(cfg["analysis"]["t"])


def test_bracket_kernel_matches_the_numpy_algebra_on_the_nonholonomic_config():
    _check_generic_parity(*_config_pair("nonholonomic"))


def test_bracket_kernel_matches_the_numpy_algebra_on_random_systems():
    from conftest import screened_random_sodes
    systems = screened_random_sodes(seed=77, count=8)
    kinds = {(model.m, model.autonomous) for model, _ in systems}
    assert {m for m, _ in kinds} == {1, 2, 3} and {a for _, a in kinds} == {True, False}
    for model, x0 in systems:
        pr = pm.lift_sode(model)
        _check_generic_parity(_as_generic(pr), pm.full_x0(model, pr, x0), 2.0)


def test_every_rotation_folds_on_a_lifted_system():
    # a second-order system read as a generic pair has the constant frame
    # pattern [V | XV] = [[0, -I], [I, -dF/dy]] (after an all-zero t row when
    # nonautonomous), so every Givens rotation of its joint kernel's solve
    # is skipped or is a signed row swap, and the kernel takes no sqrt; the
    # nonholonomic pair, whose frame varies, keeps its rotations
    from conftest import screened_random_sodes
    from conjscope import catalog
    lifts = [pm.lift_sode(catalog.build(name)[0]) for name in catalog.ENTRIES]
    lifts += [pm.lift_sode(model) for model, _ in screened_random_sodes(seed=77, count=8)]
    lifts += [pm.lift_sode(pm.SODEModel(m=1, F=("-x1 - 0.1*t*y1",))),
              _config_pair("lifted_pair")[0]]
    assert {(pr.m, pr.n % 2) for pr in lifts} == {(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)}
    for pr in lifts:
        assert "_sqrt(" not in _as_generic(pr).joint_kernel._sources["_scalar"]
    assert "_sqrt(" in _config_pair("nonholonomic")[0].joint_kernel._sources["_scalar"]


def test_a_lifted_system_takes_no_sqrt_in_its_curvature_kernel():
    # the curvature kernel carries the joint kernel's folded solve and its
    # tangent; on a lift the trailing rows of Q^T XXV are statically zero,
    # so there is no least-squares term and no residual to take a sqrt of
    from conftest import screened_random_sodes
    from conjscope import catalog
    lifts = [pm.lift_sode(catalog.build(name)[0]) for name in catalog.ENTRIES]
    lifts += [pm.lift_sode(model) for model, _ in screened_random_sodes(seed=77, count=8)]
    lifts += [pm.lift_sode(pm.SODEModel(m=1, F=("-x1 - 0.1*t*y1",))),
              _config_pair("lifted_pair")[0]]
    assert {(pr.m, pr.n % 2) for pr in lifts} == {(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)}
    for pr in lifts:
        assert "_sqrt(" not in _as_generic(pr).curvature_kernel._sources["_scalar"]
    assert "_sqrt(" in _config_pair("nonholonomic")[0].curvature_kernel._sources["_scalar"]


def test_field_kernels_raise_what_evaluate_raises():
    from conjscope.errors import DomainError, UnboundVariable
    model = pm.SODEModel(m=1, F=("-x1 + 0.1*log(x1)*y1",), autonomous=True)
    pr = pm.lift_sode(model)
    x = np.array([-0.5, 0.3])
    with pytest.raises(DomainError) as ref:
        scalar.evaluate(model.F, model.force_bindings(0.0, x[:1], x[1:]))
    generic = _as_generic(pr)
    w = np.concatenate([x, [1.0, 1.0, 0.0]])
    calls = [lambda: rhs_structure(pr, x), lambda: pm.joint_rhs(pr)(w),
             lambda: pm.curvature_at(pr, np.array([[0.5, -0.5, 0.7], [0.3, 0.3, 0.3]])),
             lambda: rhs_structure(generic, x), lambda: pm.joint_rhs(generic)(w),
             lambda: pm.brackets_at(generic, np.array([[0.5, -0.5, 0.7], [0.3, 0.3, 0.3]]))]
    for call in calls:
        with pytest.raises(DomainError) as err:
            call()
        assert (err.value.where, str(err.value)) == (ref.value.where, str(ref.value))
    unbound = pm.GenericPair(coords=("q", "p"), X=("p", "-k*q"), vframe=(("0", "1"),))
    with pytest.raises(UnboundVariable):
        rhs_structure(unbound, [0.1, 0.2])
    with pytest.raises(UnboundVariable):
        pm.brackets_at(unbound, np.array([[0.1, 0.2], [0.2, 0.1]]))


@pytest.mark.parametrize("generic", [False, True])
def test_a_second_analysis_of_a_pair_compiles_nothing(monkeypatch, generic):
    # the kernels live in scalar's kernel table, which every later request
    # of the same expressions reads (a rebuilt lift and a rebuilt
    # semi-Hamiltonian model of the 2-form alike), so only the first
    # analysis compiles them
    from conjscope import analysis, catalog
    model, sigma = catalog.build("perturbed_pair", {"eps": 0.05})
    assert sigma is not None
    pair = _as_generic(pm.lift_sode(model)) if generic else model
    keys = []
    compile_kernel = scalar._compile
    monkeypatch.setattr(scalar, "_compile",
                        lambda progs, key: keys.append(key) or compile_kernel(progs, key))
    x0 = [0.2, -0.1, 1.0, 0.4]
    analysis.analyze(pair, x0=x0, T=4.0, sigma=sigma)
    assert keys
    keys.clear()
    analysis.analyze(pair, x0=x0, T=4.0, sigma=sigma)
    assert keys == []


# -- exact X(H1) ----------------------------------------------------------------

CATALOG_DEFAULTS = ["dancing", "mechanical", "perturbed_pair", "sphere_spray", "harmonic"]


def _generic_and_closed_form(model, x0, T):
    """Curvature of the lift read as a generic pair and its closed form, at
    40 points of the trajectory, both as one stack; and the generic one
    point by point."""
    pr = pm.lift_sode(model)
    points = _trajectory_points(pr, pm.full_x0(model, pr, x0), T, count=40)
    generic = _as_generic(pr)
    return (pm.curvature_at(generic, points.T), pm.curvature_at(pr, points.T),
            [pm.curvature_at(generic, x) for x in points])


@pytest.mark.parametrize("name", CATALOG_DEFAULTS)
def test_generic_curvature_matches_the_closed_form_on_the_catalog_defaults(name):
    from conjscope import catalog
    entry = catalog.ENTRIES[name]
    model, _ = entry.build()
    generic, closed, pointwise = _generic_and_closed_form(model, entry.default_x0,
                                                          entry.default_T)
    assert np.max(np.abs(generic - closed)) <= 1e-12 * np.max(np.abs(closed))
    assert np.array_equal(pointwise, generic)


def test_generic_curvature_matches_the_closed_form_on_a_nonautonomous_lift():
    # t is a coordinate, so n = 2m + 1 and H comes from a least-squares solve
    from conjscope import catalog
    model, _ = catalog.build("dancing", {"F": "0.3*sin(t) - x1"})
    assert not model.autonomous
    generic, closed, pointwise = _generic_and_closed_form(model, (0.0, -2.0, 0.5, 0.1), 6.0)
    assert np.max(np.abs(generic - closed)) <= 1e-12 * np.max(np.abs(closed))
    assert np.array_equal(pointwise, generic)


def _H1_central_difference(pair, x, h=1e-3):
    """Sixth-order central difference of extract_H's H1 along X(x)."""
    u = pair.X_at(x)
    H1 = lambda k: pm.extract_H(pair, x + k * h * u).H1
    return (-H1(-3) + 9 * H1(-2) - 45 * H1(-1) + 45 * H1(1) - 9 * H1(2) + H1(3)) / (60 * h)


def test_exact_XH1_keeps_the_least_squares_term():
    # a nonautonomous lift pushed forward by (t, x, y) -> (t + 0.3 x^2, x, y),
    # so that span[V | XV] turns along X, with X tilted by 1e-6 y^2 x in its
    # first component: [X, [X, V]] leaves the span by a residual of 2e-7,
    # within INVARIANCE_TOL, and the least-squares part of X(H1), about
    # 3e-8 here, is what a solve of the square part alone would miss
    pr = pm.GenericPair(coords=("s", "x", "y"),
                        X=("1 + 0.6*x*y + 1e-6*y*y*x", "y",
                           "-x - 0.3*y*y + 0.2*sin(s - 0.3*x*x)*y"),
                        vframe=(("0", "0", "1"),))
    points = np.array([[0.3, 0.4, -0.2], [1.1, -0.5, 0.6], [-0.7, 0.2, 0.9]])
    data, XH1 = pm.flow_derivative_H1(pr, points.T)
    assert np.all(data.residual > 1e-8) and np.all(data.residual < pm.INVARIANCE_TOL)
    for k, x in enumerate(points):
        assert np.max(np.abs(XH1[k] - _H1_central_difference(pr, x))) <= 1e-11
        one, XH1_one = pm.flow_derivative_H1(pr, x)
        assert np.array_equal(XH1_one, XH1[k]) and np.array_equal(one.H1, data.H1[k])


def _svd_flow_derivative(pair, xs):
    """(data, X(H1)) at a stack from the bracket kernel's tangent kernel and
    the SVD (``pm._lstsq``), with extract_H's diagnostics: the reference for
    the curvature kernel.  The tangent of the solve is the normal equations
    differentiated, dS = D^+ (dB - dD S) + (D^T D)^-1 dD^T (B - D S), from
    the same SVD and with the same cutoff; its second term, the
    least-squares part, vanishes for a square D."""
    n, m = pair.n, pair.m
    size = n + 3 * n * m
    kernel = pm._pair_kernel(pair, pm._bracket_algebra, tangent=True)
    flat = pm._outputs(pair, kernel, np.concatenate([xs, pair.X_at(xs).T]))
    X, D, XXV = pm._split(flat[:, :size], n, m)
    _, dD, dXXV = pm._split(flat[:, size:], n, m)
    S, cond_D, residual = pm._lstsq(D, XXV)
    U, s, Vt = np.linalg.svd(D, full_matrices=False)
    kept = np.where(s > np.finfo(float).eps * max(D.shape[-2:]) * s[..., :1], s, np.inf)
    inner = (pm._T(U) @ (dXXV - dD @ S)) / kept[..., None]
    if n > 2 * m:
        inner = inner - (Vt @ (pm._T(dD) @ (D @ S - XXV))) / (kept * kept)[..., None]
    dS = pm._T(Vt) @ inner
    return pm.PointFrameData(xs.T, X, D[..., :m], D[..., m:], XXV, S[:, :m], S[:, m:], cond_D,
                             residual), dS[:, m:]


def _assert_close_to_the_svd(data, XH1, ref, ref_XH1, tol=1e-13):
    """H0, H1 and X(H1) within tol of the SVD's, relative to the largest
    entry of the three at each point."""
    scale = np.max(np.abs(np.concatenate([ref.H0, ref.H1, ref_XH1], axis=1)), axis=(1, 2))
    for got, want in ((data.H0, ref.H0), (data.H1, ref.H1), (XH1, ref_XH1)):
        assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= tol * scale)


def _frobenius_bound(D):
    """|R|_F |R^-1|_F of the R factor of each D of a stack; the norms do not
    depend on the signs of R's rows."""
    R = np.linalg.qr(D, mode="r")
    return np.linalg.norm(R, axis=(-2, -1)) * np.linalg.norm(np.linalg.inv(R), axis=(-2, -1))


def _screen_verdicts(pair, points):
    """The screen's verdict of the curvature kernel at each point of a stack,
    true where it fails."""
    flat = scalar.run_field(pair.curvature_kernel,
                            list(np.concatenate([points, pair.X_at(points).T])),
                            pair.params, points.shape[1])
    return flat[:, -1] != 0.0


@pytest.mark.parametrize("which", ["dancing", "nonholonomic"])
def test_flow_derivative_H1_reads_the_curvature_kernel(which):
    # one curvature-kernel call per block: the brackets are extract_H's
    # bits, H0, H1 and X(H1) the SVD's to rounding, and the diagnostics are
    # the screen's own figures: the bound |R|_F |R^-1|_F, between cond_2(D)
    # and k cond_1(R), and the relative residual (0 here: [V | XV] is
    # square on both pairs)
    from conjscope import catalog
    if which == "dancing":
        pair = _as_generic(pm.lift_sode(catalog.build("dancing")[0]))
        x0, T = catalog.ENTRIES["dancing"].default_x0, 2.0
    else:
        pair, x0, T = _config_pair("nonholonomic")
    points = _trajectory_points(pair, x0, T).T
    assert not _screen_verdicts(pair, points).any()             # the screen passes
    data, XH1 = pm.flow_derivative_H1(pair, points)
    ref = pm.extract_H(pair, points)
    for name in ("point", "X", "V", "XV", "XXV"):
        assert np.array_equal(getattr(data, name), getattr(ref, name)), name
    svd, svd_XH1 = _svd_flow_derivative(pair, points)
    assert np.array_equal(svd.H1, ref.H1) and np.array_equal(svd.cond_D, ref.cond_D)
    _assert_close_to_the_svd(data, XH1, svd, svd_XH1)
    D = np.concatenate([ref.V, ref.XV], axis=-1)
    bound = _frobenius_bound(D)
    assert np.all(np.abs(data.cond_D - bound) <= 1e-12 * bound)
    R = np.linalg.qr(D, mode="r")
    assert np.all(ref.cond_D * (1 - 1e-12) <= data.cond_D)
    assert np.all(data.cond_D <= D.shape[-1] * np.linalg.cond(R, 1) * (1 + 1e-12))
    assert np.all(data.residual == 0.0)


def test_the_kernel_path_keeps_the_least_squares_term():
    # the pair of test_exact_XH1_keeps_the_least_squares_term tilted by
    # 1e-7: a residual of 1.6e-8 to 4.7e-8 passes the screen's cap of
    # INVARIANCE_TOL / 10, so the kernel's tangent of the solve, least-squares
    # term included, gives X(H1)
    pr = pm.GenericPair(coords=("s", "x", "y"),
                        X=("1 + 0.6*x*y + 1e-7*y*y*x", "y",
                           "-x - 0.3*y*y + 0.2*sin(s - 0.3*x*x)*y"),
                        vframe=(("0", "0", "1"),))
    points = np.array([[0.3, 0.4, -0.2], [1.1, -0.5, 0.6], [-0.7, 0.2, 0.9]]).T
    assert not _screen_verdicts(pr, points).any()               # the screen passes
    data, XH1 = pm.flow_derivative_H1(pr, points)
    svd, svd_XH1 = _svd_flow_derivative(pr, points)
    assert np.all(data.residual > 1e-8) and np.all(data.residual < 0.1 * pm.INVARIANCE_TOL)
    assert np.all(np.abs(data.residual - svd.residual) <= 1e-6 * svd.residual)
    _assert_close_to_the_svd(data, XH1, svd, svd_XH1)
    for k, x in enumerate(points.T):
        assert np.max(np.abs(XH1[k] - _H1_central_difference(pr, x))) <= 1e-11


def _counting_extract_H(monkeypatch):
    """The stacks that pm.extract_H is called on, from now on."""
    calls, extract_H = [], pm.extract_H
    monkeypatch.setattr(pm, "extract_H", lambda pair, x, **kw: calls.append(np.array(x))
                        or extract_H(pair, x, **kw))
    return calls


def test_only_the_points_that_fail_the_screen_go_to_extract_H(monkeypatch):
    # x'' = -x - 5000 x^2 x' as a generic pair: |R|_F^2 |R^-1|_F^2 of
    # [V | XV] = [[0, -1], [1, 5000 x^2]] is (2 + (5000 x^2)^2)^2, within the
    # screen's cap at x = 0.3 and past it at x = 1.0, where the SVD still
    # passes (cond_2 2.5e7); a block spanning both keeps the kernel's
    # outputs, and extract_H is called once, on the points that fail
    pr = pm.GenericPair(coords=("x", "y"), X=("y", "-x - 5000*x^2*y"), vframe=(("0", "1"),))
    assert 2.4e7 < pm.extract_H(pr, [1.0, 0.2]).cond_D < pm.COND_LIMIT
    block = np.array([np.linspace(0.3, 1.0, pm.BLOCK), np.full(pm.BLOCK, 0.2)])
    fails = _screen_verdicts(pr, block)
    assert not fails[0] and fails[-1] and fails.sum() == 19
    calls = _counting_extract_H(monkeypatch)
    data, XH1 = pm.flow_derivative_H1(pr, block)
    assert len(calls) == 1 and np.array_equal(calls[0], block[:, fails])
    ref, ref_XH1 = _svd_flow_derivative(pr, block)
    assert np.max(np.abs(XH1 - ref_XH1)) <= 1e-12 * np.max(np.abs(ref_XH1))
    for name in ("point", "X", "V", "XV", "XXV"):
        assert np.array_equal(getattr(data, name), getattr(ref, name)), name
    # every block of the screened random systems passes: no SVD is taken
    from conftest import screened_random_sodes
    monkeypatch.undo()
    blocks = []
    for model, x0 in screened_random_sodes(seed=77, count=8):
        lift = pm.lift_sode(model)
        pair = _as_generic(lift)
        blocks.append((pair, _trajectory_points(pair, pm.full_x0(model, lift, x0), 2.0).T))
    calls = _counting_extract_H(monkeypatch)
    for pair, points in blocks:
        pm.flow_derivative_H1(pair, points)
    assert calls == []


def test_flow_derivative_H1_raises_the_first_violation_in_stack_order():
    # det[V | XV] = a - 1: singular at a = 1, in the second and third points
    pr = pm.GenericPair(coords=("a", "b"), X=("1", "0"), vframe=(("1", "0.5*(a - 1)^2"),))
    points = np.array([[0.5, 1.0, 1.0, 2.0], [0.1, 0.2, 0.3, 0.4]])
    errors = []
    for call in (pm.extract_H, pm.flow_derivative_H1):
        with pytest.raises(RegularityViolation) as err:
            call(pr, points)
        errors.append((err.value.cond, err.value.residual, list(err.value.point), str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] == "R2" and errors[0][2] == [1.0, 0.2]
