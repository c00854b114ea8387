"""Ridge, epsilon-SVR, and predictor metrics against independent oracles."""

import numpy as np
import pytest

from subnetsearch.errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    SingularSystem,
    UndefinedCorrelation,
    ZeroDenominator,
)
from subnetsearch.predict import (
    RidgeModel,
    SvrModel,
    fit_ridge,
    fit_svr,
    kendall_tau,
    mape,
    predict,
    ridge_system,
    run_prediction_trials,
)


def ridge_oracle(X, y, lam):
    """Independent dense solve: augmented system with an appended intercept
    column, penalty matrix diag(lam, ..., lam, 0)."""
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    P = lam * np.eye(d + 1)
    P[d, d] = 0.0
    coeffs = np.linalg.inv(Xa.T @ Xa + P) @ (Xa.T @ y)
    return coeffs[:d], coeffs[d]


def svr_kkt_violation(X, y, model, boundary_tol=1e-9):
    """Largest epsilon-KKT violation over all training points."""
    n = X.shape[0]
    beta = np.zeros(n)
    for idx, coef in zip(model.support_indices, model.dual_coeffs):
        beta[idx] = coef
    r = predict(model, X) - y
    eps, C = model.epsilon, model.C
    worst = 0.0
    for i in range(n):
        b = beta[i]
        if abs(b) <= boundary_tol:
            v = abs(r[i]) - eps
        elif b >= C - boundary_tol:
            v = r[i] + eps
        elif b > 0:
            v = abs(r[i] + eps)
        elif b <= -C + boundary_tol:
            v = eps - r[i]
        else:
            v = abs(r[i] - eps)
        worst = max(worst, v)
    return worst


def tau_pair_count_oracle(a, b):
    """O(n^2) concordant/discordant counting, tau-b tie correction."""
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da, db = a[i] - a[j], b[i] - b[j]
            if da == 0 and db == 0:
                ties_a += 1
                ties_b += 1
            elif da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif (da > 0) == (db > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) / 2
    denom = np.sqrt((n0 - ties_a) * (n0 - ties_b))
    return (concordant - discordant) / denom


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------


def test_ridge_exact_interpolation_at_zero_lambda():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 6))
    w_true = rng.normal(size=6)
    y = X @ w_true + 3.5
    model = fit_ridge(X, y, lam=0.0)
    assert np.allclose(model.weights, w_true, atol=1e-8)
    assert model.bias == pytest.approx(3.5, abs=1e-8)


def test_ridge_huge_lambda_shrinks_weights_to_zero():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    y = X @ rng.normal(size=4) + 1.0
    model = fit_ridge(X, y, lam=1e9)
    assert np.all(np.abs(model.weights) < 1e-6)
    assert model.bias == pytest.approx(y.mean(), rel=1e-6)


def test_ridge_matches_normal_equation_oracle():
    rng = np.random.default_rng(2)
    for trial in range(50):
        n, d = 20, 5
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        lam = 0.1
        model = fit_ridge(X, y, lam)
        w_ref, b_ref = ridge_oracle(X, y, lam)
        assert np.allclose(model.weights, w_ref, rtol=1e-6, atol=1e-10)
        assert model.bias == pytest.approx(b_ref, rel=1e-6, abs=1e-10)


def test_ridge_singular_at_zero_lambda():
    X = np.ones((10, 3))  # rank-1, collinear with the intercept
    y = np.arange(10.0)
    with pytest.raises(SingularSystem):
        fit_ridge(X, y, lam=0.0)
    fit_ridge(X, y, lam=0.5)  # regularized solve is fine


def test_ridge_local_optimality_against_perturbations():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 6))
    y = rng.normal(size=50)
    lam = 0.7
    model = fit_ridge(X, y, lam)

    def loss(w, b):
        resid = y - X @ w - b
        return resid @ resid + lam * (w @ w)

    base = loss(model.weights, model.bias)
    for _ in range(100):
        dw = rng.normal(size=6) * 0.05
        db = rng.normal() * 0.05
        assert loss(model.weights + dw, model.bias + db) >= base - 1e-9


def test_ridge_fits_sharing_one_system_equal_separate_fits_bit_for_bit():
    # one-hot rows like the concurrent tactic's, two objectives on one X
    rng = np.random.default_rng(7)
    X = np.eye(3)[rng.integers(0, 3, size=(250, 45))].reshape(250, -1)
    system = ridge_system(X, 1.0)
    for y in (rng.normal(size=250), rng.uniform(0.5, 9.0, size=250)):
        shared, alone = fit_ridge(X, y, 1.0, system), fit_ridge(X, y, 1.0)
        assert shared.weights.tobytes() == alone.weights.tobytes()
        assert shared.bias == alone.bias
    with pytest.raises(DimensionMismatch):
        fit_ridge(X, np.ones(249), 1.0, system)


# ---------------------------------------------------------------------------
# SVR
# ---------------------------------------------------------------------------


def test_svr_constant_targets_inside_tube():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 3))
    y = np.full(20, 2.5)
    model = fit_svr(X, y, C=1.0, epsilon=0.1)
    assert model.support_vectors.shape[0] == 0
    assert np.allclose(predict(model, X), 2.5)


def test_svr_satisfies_kkt_conditions():
    rng = np.random.default_rng(6)
    for trial in range(5):
        X = rng.uniform(-1, 1, size=(40, 3))
        y = np.sin(X[:, 0] * 2) + 0.5 * X[:, 1] + rng.normal(0, 0.05, 40)
        model = fit_svr(X, y, C=2.0, epsilon=0.05)
        assert model.converged
        assert svr_kkt_violation(X, y, model) <= 1e-3 + 1e-9


def svr_dual_objective(model, X, y):
    """W(beta) = y.beta - eps |beta|_1 - beta.K.beta / 2 of the model's dual
    coefficients beta = alpha - alpha*, with K beta read back through
    `predict`. It equals the solver's dual objective because the pairwise
    optimizer never makes alpha_i and alpha*_i both positive when eps > 0,
    and the eps term vanishes when eps = 0."""
    beta = np.zeros(len(y))
    beta[list(model.support_indices)] = model.dual_coeffs
    k_beta = predict(model, X) - model.bias
    return float(y @ beta - model.epsilon * np.abs(beta).sum() - 0.5 * beta @ k_beta)


def dual_objective_after(X, y, iterations, **kw):
    """The dual objective after each number of SMO iterations: a fit cut at
    `max_iter=k` (its model taken from the ConvergenceFailure when it stops
    early) holds the iterate after k pair updates."""
    out = []
    for k in iterations:
        try:
            model = fit_svr(X, y, max_iter=k, **kw)
        except ConvergenceFailure as exc:
            model = exc.model
        out.append(svr_dual_objective(model, X, y))
    return out


def assert_non_decreasing(values):
    assert len(values) > 1
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_svr_dual_objective_non_decreasing():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(50, 3))
    y = X[:, 0] ** 2 - X[:, 1]
    kw = dict(C=5.0, epsilon=0.02)
    n_iter = fit_svr(X, y, **kw).n_iter
    checked = [*range(1, 31), *range(40, n_iter, 40), n_iter]
    assert_non_decreasing(dual_objective_after(X, y, checked, **kw))


@pytest.mark.parametrize("epsilon", [0.02, 0.0])
def test_svr_dual_objective_non_decreasing_at_every_iteration(epsilon):
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(15, 3))
    y = X[:, 0] ** 2 - X[:, 1]
    kw = dict(C=5.0, epsilon=epsilon)
    n_iter = fit_svr(X, y, **kw).n_iter
    assert_non_decreasing(dual_objective_after(X, y, range(1, n_iter + 1), **kw))


def test_svr_box_constraints_respected():
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, size=(30, 2))
    y = 3 * X[:, 0] + rng.normal(0, 0.5, 30)
    C = 0.7
    model = fit_svr(X, y, C=C, epsilon=0.01)
    assert np.all(np.abs(model.dual_coeffs) <= C + 1e-12)
    assert np.any(np.abs(model.dual_coeffs) == C)  # the box binds


def test_svr_convergence_failure_carries_best_iterate():
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, size=(40, 3))
    y = np.sin(3 * X[:, 0]) + rng.normal(0, 0.1, 40)
    with pytest.raises(ConvergenceFailure) as excinfo:
        fit_svr(X, y, C=10.0, epsilon=0.001, max_iter=3)
    model = excinfo.value.model
    assert isinstance(model, SvrModel)
    assert not model.converged
    assert model.n_iter == 3


def test_svr_needs_two_samples():
    with pytest.raises(ConfigError):
        fit_svr(np.zeros((1, 2)), np.zeros(1))


# ---------------------------------------------------------------------------
# predict dispatch
# ---------------------------------------------------------------------------


def test_predict_ridge_constant_model():
    model = RidgeModel(weights=np.zeros(3), bias=4.2)
    out = predict(model, np.random.default_rng(0).normal(size=(5, 3)))
    assert np.allclose(out, 4.2)


def test_predict_matches_hand_computed_kernel_expansion():
    sv = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    coef = np.array([0.3, -0.2, 0.7])
    gamma = 0.5
    model = SvrModel(
        support_vectors=sv,
        dual_coeffs=coef,
        bias=-0.1,
        gamma=gamma,
        C=1.0,
        epsilon=0.1,
        feature_dim=2,
    )
    x = np.array([0.5, 0.5])
    expected = (
        sum(
            c * np.exp(-gamma * np.sum((x - s) ** 2))
            for c, s in zip(coef, sv)
        )
        - 0.1
    )
    assert predict(model, x[None, :])[0] == pytest.approx(expected)


def test_predict_dimension_mismatch():
    model = RidgeModel(weights=np.zeros(3), bias=0.0)
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_mape_examples():
    assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(10.0)


def test_mape_zero_actual():
    with pytest.raises(ZeroDenominator):
        mape([0.0, 1.0], [1.0, 1.0])


def test_mape_matches_elementwise_brute_force():
    rng = np.random.default_rng(10)
    a = rng.uniform(1, 10, 100)
    p = rng.uniform(1, 10, 100)
    brute = sum(abs(x - q) / abs(x) for x, q in zip(a, p)) / len(a) * 100
    assert mape(a, p) == pytest.approx(brute)


def test_kendall_monotone_extremes():
    a = np.arange(20.0)
    assert kendall_tau(a, a * 3 + 1) == pytest.approx(1.0)
    assert kendall_tau(a, -a) == pytest.approx(-1.0)


def test_kendall_constant_vector_undefined():
    with pytest.raises(UndefinedCorrelation):
        kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_kendall_matches_pair_count_oracle():
    rng = np.random.default_rng(11)
    for trial in range(50):
        a = rng.integers(0, 10, 50).astype(float)  # ties likely
        b = rng.integers(0, 10, 50).astype(float)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        assert kendall_tau(a, b) == pytest.approx(tau_pair_count_oracle(a, b))


def test_kendall_symmetric_and_monotone_invariant():
    rng = np.random.default_rng(12)
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a))
    assert kendall_tau(np.exp(a), b) == pytest.approx(kendall_tau(a, b))


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


def test_run_prediction_trials_protocol():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(400, 5))
    y = X @ rng.normal(size=5) + rng.normal(0, 0.01, 400)
    results = run_prediction_trials(
        X,
        y,
        lambda Xt, yt: fit_ridge(Xt, yt, lam=0.01),
        train_sizes=[50, 100, 200],
        test_size=150,
        trials=3,
        seed=0,
    )
    assert len(results) == 9
    sizes = {r.train_size for r in results}
    assert sizes == {50, 100, 200}
    assert all(r.mape >= 0 and -1 <= r.kendall <= 1 for r in results)


def test_run_prediction_trials_needs_enough_samples():
    with pytest.raises(ConfigError):
        run_prediction_trials(
            np.zeros((10, 2)), np.zeros(10), None, [8], test_size=5, trials=1
        )


# 300 and 513 values take two blocks of 256 rows of pairs, the second of 43
# rows and of a full 256
@pytest.mark.parametrize("n", [2, 50, 300, 513])
def test_kendall_tau_b_matches_scipy(n):
    from scipy.stats import kendalltau

    rng = np.random.default_rng(n)
    cases = [
        (rng.normal(size=n), rng.normal(size=n)),
        (rng.integers(0, 4, n).astype(float), rng.integers(0, 3, n).astype(float)),
        (rng.integers(0, 3, n).astype(float), rng.normal(size=n)),
        (np.repeat([1.0, 2.0], n // 2), np.arange(n // 2 * 2, dtype=float)),
    ]
    for a, b in cases:
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        expected = kendalltau(a, b, variant="b").statistic
        assert abs(kendall_tau(a, b) - expected) <= 1e-12
