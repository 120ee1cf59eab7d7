import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etcons.errors import ConfigError, NotDetectableError, NotStabilizableError
from etcons.linalg import (
    SystemModel,
    _Expm,
    care_residual,
    design_gains,
    feedback_gains,
    is_hurwitz,
    matrix_exponential,
    max_eig_sym,
    observer_gain,
    solve_care,
)

A_TRIPLE = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
B_TRIPLE = np.array([[0.0], [0.0], [1.0]])

# closed form for the triple integrator: entries built from 1 + sqrt(2)
_S = 1.0 + math.sqrt(2.0)
P_TRIPLE = np.array([[_S, _S, 1.0], [_S, 2 * _S, _S], [1.0, _S, _S]])


def random_stabilizable(rng, n, p):
    """Random (A, B) rejected until controllable (hence stabilizable)."""
    while True:
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, p))
        ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
        if np.linalg.matrix_rank(ctrb) == n:
            return a, b


class TestSolveCare:
    def test_triple_integrator_published_values(self):
        p = solve_care(A_TRIPLE, B_TRIPLE)
        assert np.allclose(np.round(p, 4), np.round(P_TRIPLE, 4), atol=2e-4)
        assert np.allclose(p, P_TRIPLE, atol=1e-9)

    def test_residual_tolerance(self):
        p = solve_care(A_TRIPLE, B_TRIPLE)
        assert care_residual(p, A_TRIPLE, B_TRIPLE) <= 1e-8 * np.linalg.norm(p, "fro")

    def test_scalar_neutral(self):
        # -P^2 + 1 = 0, P > 0
        assert solve_care([[0.0]], [[1.0]])[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_scalar_stable(self):
        # P^2 + 2P - 1 = 0 -> P = sqrt(2) - 1
        p = solve_care([[-1.0]], [[1.0]])[0, 0]
        assert p == pytest.approx(math.sqrt(2) - 1, abs=1e-10)

    def test_not_stabilizable_names_eigenvalue(self):
        a = np.diag([1.0, -2.0])
        b = np.array([[0.0], [1.0]])  # unstable mode 1 is uncontrollable
        with pytest.raises(NotStabilizableError, match="1"):
            solve_care(a, b)

    def test_closed_loop_hurwitz_on_random_systems(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            p_in = int(rng.integers(1, 3))
            a, b = random_stabilizable(rng, n, p_in)
            p = solve_care(a, b)
            assert np.allclose(p, p.T)
            assert np.linalg.eigvalsh(p).min() > 0
            assert is_hurwitz(a - b @ b.T @ p)
            assert care_residual(p, a, b) <= 1e-8 * max(1.0, np.linalg.norm(p, "fro"))

    def test_repeated_closed_loop_pole(self):
        # a controllable pair whose closed loop has a double pole at -a:
        # there the Hamiltonian's eigenvectors are parallel, and P from an
        # eigenvector basis failed the admission checks
        a = 2.9100769855162363
        A, B = np.array([[0.0, a], [0.0, a]]), np.array([[0.0], [a]])
        p = solve_care(A, B)
        assert np.allclose(np.linalg.eigvals(A - B @ B.T @ p), [-a, -a])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            solve_care(np.eye(2), np.ones((3, 1)))


class TestFeedbackGains:
    def test_triple_integrator_published_values(self):
        k, gamma = feedback_gains(P_TRIPLE, B_TRIPLE)
        assert np.allclose(np.round(k, 4), [[-1.0, -2.4142, -2.4142]], atol=2e-4)
        expected_gamma = np.array([
            [1.0, 2.4142, 2.4142],
            [2.4142, 5.8284, 5.8284],
            [2.4142, 5.8284, 5.8284],
        ])
        assert np.allclose(np.round(gamma, 4), expected_gamma, atol=2e-4)

    def test_identity_p(self):
        k, gamma = feedback_gains(np.eye(3), B_TRIPLE)
        assert np.array_equal(k, [[0.0, 0.0, -1.0]])
        e3 = np.array([[0.0], [0.0], [1.0]])
        assert np.array_equal(gamma, e3 @ e3.T)

    def test_gamma_equals_ktk_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = rng.normal(size=(3, 3))
            p = p + p.T
            b = rng.normal(size=(3, 2))
            k, gamma = feedback_gains(p, b)
            assert np.array_equal(gamma, k.T @ k)
            assert np.array_equal(gamma, gamma.T)

    def test_gamma_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        _, gamma = feedback_gains(P_TRIPLE, B_TRIPLE)
        for _ in range(20):
            x = rng.normal(size=3)
            assert x @ gamma @ x >= 0


class TestObserverGain:
    def test_scalar(self):
        f = observer_gain([[0.0]], [[1.0]])
        assert f[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_decoupled_diagonal(self):
        f = observer_gain(-np.eye(2), np.eye(2))
        assert np.allclose(f, -(math.sqrt(2) - 1) * np.eye(2), atol=1e-9)

    def test_triple_integrator_position_output(self):
        c = np.array([[1.0, 0.0, 0.0]])
        f = observer_gain(A_TRIPLE, c)
        eigs = np.linalg.eigvals(A_TRIPLE + f @ c)
        assert eigs.real.max() < 0

    def test_not_detectable(self):
        with pytest.raises(NotDetectableError):
            observer_gain(A_TRIPLE, np.zeros((1, 3)))


class TestDesignGains:
    def test_state_only(self):
        g = design_gains(SystemModel(A=A_TRIPLE, B=B_TRIPLE))
        assert g.F is None
        assert np.allclose(g.P, P_TRIPLE, atol=1e-9)

    def test_observer(self):
        g = design_gains(SystemModel(A=A_TRIPLE, B=B_TRIPLE, C=[[1, 0, 0]]),
                         observer=True)
        assert g.F is not None
        assert is_hurwitz(A_TRIPLE + g.F @ np.array([[1.0, 0, 0]]))


class TestMatrixExponential:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        assert np.array_equal(matrix_exponential(a, 0.0), np.eye(4))

    def test_nilpotent_closed_form(self):
        # Taylor series terminates: I + A t + A^2 t^2/2
        for t in (0.3, 1.0, 2.5):
            expected = np.array([[1, t, t * t / 2], [0, 1, t], [0, 0, 1.0]])
            assert np.allclose(matrix_exponential(A_TRIPLE, t), expected,
                               rtol=1e-12, atol=1e-12)

    def test_diagonal_closed_form(self):
        out = matrix_exponential(np.diag([-1.0, -2.0]), 1.0)
        assert np.allclose(out, np.diag([math.exp(-1), math.exp(-2)]), rtol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            a = a - (np.abs(np.linalg.eigvals(a).real).max() + 0.5) * np.eye(3)
            s, t = rng.uniform(0, 5, size=2)
            lhs = matrix_exponential(a, s + t)
            rhs = matrix_exponential(a, s) @ matrix_exponential(a, t)
            assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-8)

    def test_inverse_property(self):
        # each factor errs by a few eps of its own norm, so the product's
        # gap from I is bounded relative to cond = ||e^{At}|| ||e^{-At}||
        # (1-norms): measured at most 2.6 u cond over these draws, where
        # cond runs from 4.0 to 2.0e8 (the second draw; the others <= 1.3e3)
        rng, u = np.random.default_rng(9), 2.0 ** -53
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            t = rng.uniform(0, 5)
            fwd, back = matrix_exponential(a, t), matrix_exponential(a, -t)
            cond = np.abs(fwd).sum(axis=0).max() * np.abs(back).sum(axis=0).max()
            assert np.abs(fwd @ back - np.eye(3)).sum(axis=0).max() <= 8 * u * cond

    # max over 200 times up to the horizon of the 1-norm relative error
    # against [[cos t, sin t], [-sin t, cos t]], measured: 29 eps up to
    # t = 30 (the shipped horizon, at which the acceptance suite calls
    # predicted_consensus_value) and 188 eps up to t = 200; scaling and
    # squaring makes it grow about linearly in t. scipy's expm reaches
    # 859 eps at t = 30.
    @pytest.mark.parametrize("horizon, bound", [(30.0, 64), (200.0, 512)])
    def test_long_rotation_closed_form(self, horizon, bound):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        eps = np.finfo(float).eps
        for t in np.linspace(horizon / 200, horizon, 200):
            c, s = math.cos(t), math.sin(t)
            ref = np.array([[c, s], [-s, c]])
            err = np.abs(matrix_exponential(a, t) - ref).sum(axis=0).max()
            assert err <= bound * eps * np.abs(ref).sum(axis=0).max(), t

    def test_is_the_taylor_evaluator(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 3))
        for t in (0.0, 1e-3, 0.7, 12.0):
            assert np.array_equal(matrix_exponential(a, t), _Expm(a).at(t))
        out = matrix_exponential(np.zeros((2, 2)), 1.0)
        assert out.flags.writeable and np.array_equal(out, np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix_exponential([[np.nan]], 1.0)
        with pytest.raises(ValueError):
            matrix_exponential(np.eye(2), np.inf)


class TestEigenHelpers:
    def test_hurwitz_cases(self):
        assert is_hurwitz(-np.eye(3))
        assert not is_hurwitz([[0.0, 1.0], [0.0, 0.0]])  # eigenvalues at 0

    def test_lambda_max_of_riccati_solution(self):
        # power-iteration oracle agrees with the symmetric eigensolver
        x = np.ones(3)
        for _ in range(20000):
            y = P_TRIPLE @ x
            x = y / np.linalg.norm(y)
        oracle = x @ P_TRIPLE @ x
        assert max_eig_sym(P_TRIPLE) == pytest.approx(oracle, rel=1e-9)
        assert max_eig_sym(P_TRIPLE) == pytest.approx(7.6079884163, abs=1e-6)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            max_eig_sym([[0.0, 1.0], [0.0, 0.0]])


class TestSystemModel:
    def test_defaults_full_observation(self):
        m = SystemModel(A=A_TRIPLE, B=B_TRIPLE)
        assert np.array_equal(m.C, np.eye(3))
        assert (m.n, m.p, m.q) == (3, 1, 3)

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            SystemModel(A=[[0, 1]], B=[[1]])
        with pytest.raises(ConfigError):
            SystemModel(A=A_TRIPLE, B=[[1], [0]])
        with pytest.raises(ConfigError):
            SystemModel(A=A_TRIPLE, B=B_TRIPLE, C=[[1, 0]])


# -- scipy as the oracle of the numpy kernels --------------------------------

def _matrices(rows, cols, entries):
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda v: np.array(v, dtype=float).reshape(rows, cols))


@st.composite
def _pairs(draw):
    n = draw(st.integers(1, 4))
    entries = st.floats(-3.0, 3.0)
    return draw(_matrices(n, n, entries)), draw(_matrices(n, draw(st.integers(1, n)), entries))


# scipy warns on the draws where it loses accuracy, which the tests skip
@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::scipy.linalg.LinAlgWarning")
class TestScipyOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pair=_pairs())
    def test_solve_care_agrees_with_scipy(self, pair):
        a, b = pair
        try:
            ref = scipy.linalg.solve_continuous_are(a, b, np.eye(len(a)), np.eye(b.shape[1]))
        except (np.linalg.LinAlgError, ValueError):
            ref = None
        # stabilizable pairs away from the edge, where scipy's P is accurate
        # enough to be the oracle: both solvers' errors grow with ||P|| as a
        # pair nears an uncontrollable unstable mode, and scipy's residual
        # reaches 2e-9 on some pairs that are not near one
        assume(ref is not None and np.isfinite(ref).all() and np.linalg.norm(ref) <= 1e3
               and care_residual(ref, a, b) <= 1e-12 * max(1.0, np.linalg.norm(ref))
               and is_hurwitz(a - b @ b.T @ ref))
        p = solve_care(a, b)
        assert np.linalg.norm(p - ref) <= 1e-10 * np.linalg.norm(ref)
        assert care_residual(p, a, b) <= 1e-8 * max(1.0, np.linalg.norm(p, "fro"))
