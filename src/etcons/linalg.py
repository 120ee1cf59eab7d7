"""Numerical kernels: Riccati solver, gain construction, matrix exponential
and the lifted generator of the flow between broadcasts.

All of it is numpy. The Riccati solution comes from the matrix sign
function and is admitted only after residual, definiteness and stability
checks. e^{As} has one evaluator, ``_Expm``, a truncated Taylor series
that the engine, the analysis layer and ``matrix_exponential`` share, with
one degree rule (``_Expm.degree``, from the 1-norms of A's powers, after
Al-Mohy and Higham) and one Horner loop (``horner``).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotDetectableError, NotStabilizableError, _check_number


def _as_matrix(m, key: str) -> np.ndarray:
    """A matrix of entries held to ``_check_number``, as floats; a vector is one row."""
    try:
        arr = np.atleast_2d(np.asarray(m, dtype=object))
    except ValueError:  # rows that numpy cannot stack
        arr = None
    if arr is None or arr.ndim != 2:
        raise ConfigError(f"expected a matrix, got {m!r}", key)
    return np.array([_check_number(v, key) for v in arr.flat]).reshape(arr.shape)


@dataclass(frozen=True)
class SystemModel:
    """Identical agent dynamics xdot = A x + B u, y = C x.

    ``C`` defaults to the identity (full state measurement). Errors name
    a matrix by its config key, ``model.<name>``.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray | None = None

    def __post_init__(self):
        a = _as_matrix(self.A, "model.A")
        if a.shape[0] != a.shape[1]:
            raise ConfigError(f"must be square, got {a.shape}", "model.A")
        b = _as_matrix(self.B, "model.B")
        if b.shape[0] != a.shape[0]:
            raise ConfigError(f"has {b.shape[0]} rows, expected {a.shape[0]}", "model.B")
        c = np.eye(a.shape[0]) if self.C is None else _as_matrix(self.C, "model.C")
        if c.shape[1] != a.shape[0]:
            raise ConfigError(f"has {c.shape[1]} columns, expected {a.shape[0]}", "model.C")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class GainSet:
    """Protocol gain matrices: Riccati solution P, feedback K, weight Gamma,
    and the observer injection F when output feedback is used."""

    P: np.ndarray
    K: np.ndarray
    Gamma: np.ndarray
    F: np.ndarray | None = None


def care_residual(P: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius norm of P A + A' P - P B B' P + I."""
    r = P @ A + A.T @ P - P @ B @ B.T @ P + np.eye(A.shape[0])
    return float(np.linalg.norm(r, "fro"))


def _unstable_uncontrollable_eig(A: np.ndarray, B: np.ndarray) -> complex | None:
    """PBH scan: an eigenvalue with Re >= 0 where rank [lam I - A, B] < n."""
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if lam.real >= -1e-10:
            pencil = np.hstack([lam * np.eye(n) - A, B.astype(complex)])
            if np.linalg.matrix_rank(pencil, tol=1e-9 * max(1.0, abs(lam))) < n:
                return complex(lam)
    return None


def solve_care(A, B) -> np.ndarray:
    """Stabilizing solution of P A + A' P - P B B' P + I = 0.

    [I; P] spans the stable invariant subspace of H = [[A, -B B'], [-I, -A']]
    (Laub 1979), the null space of sign(H) + I (Byers 1987), which unlike an
    eigenvector basis holds at repeated poles; two Newton-Kleinman steps
    (Kleinman 1968) polish P. It is admitted only if it is symmetric
    positive definite, A - B B' P is Hurwitz and the residual is at most
    1e-8 relative to ||P||_F; else ``NotStabilizableError``, naming the PBH
    eigenvalue when there is one.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or B.shape[0] != n:
        raise ConfigError(f"dimension mismatch: A {A.shape}, B {B.shape}")

    def fail() -> NotStabilizableError:
        lam = _unstable_uncontrollable_eig(A, B)
        detail = f" (uncontrollable unstable eigenvalue {lam:.6g})" if lam is not None else ""
        return NotStabilizableError(f"(A, B) is not stabilizable{detail}")

    G, eye = B @ B.T, np.eye(n)
    Z = np.block([[A, -G], [-eye, -A.T]])
    # without convergence (an eigenvalue of H on the imaginary axis) no P
    # passes the checks below, so overflow and NaN pass silently
    with np.errstate(all="ignore"):
        try:
            for _ in range(100):  # Newton's determinant-scaled iteration
                c = np.exp(-np.linalg.slogdet(Z)[1] / (2 * n))
                Z, prev = (c * Z + np.linalg.inv(Z) / c) / 2, Z
                if np.linalg.norm(Z - prev, 1) <= 1e-10 * np.linalg.norm(Z, 1):
                    break
            p = np.linalg.lstsq(np.vstack([Z[:n, n:], Z[n:, n:] + eye]),
                                -np.vstack([Z[:n, :n] + eye, Z[n:, :n]]), rcond=None)[0]
            for _ in range(2):  # Newton-Kleinman: (A - G P)' X + X (A - G P) = -(I + P G P)
                p = (p + p.T) / 2
                closed = (A - G @ p).T
                p = np.linalg.solve(np.kron(closed, eye) + np.kron(eye, closed),
                                    -(eye + p @ G @ p).ravel()).reshape(n, n)
        except np.linalg.LinAlgError:
            raise fail() from None
    p = (p + p.T) / 2
    if not np.isfinite(p).all():
        raise fail()
    if care_residual(p, A, B) > 1e-8 * max(1.0, np.linalg.norm(p, "fro")):
        raise fail()
    if np.linalg.eigvalsh(p)[0] <= 0:
        raise fail()
    if not is_hurwitz(A - B @ B.T @ p):
        raise fail()
    return p


def feedback_gains(P, B) -> tuple[np.ndarray, np.ndarray]:
    """Feedback matrices K = -B'P and Gamma = P B B' P.

    Gamma is assembled as K'K, which equals P B B' P and is symmetric
    positive semidefinite by construction.
    """
    P = _as_matrix(P, "P")
    B = _as_matrix(B, "B")
    if P.shape[0] != P.shape[1] or B.shape[0] != P.shape[0]:
        raise ConfigError(f"dimension mismatch: P {P.shape}, B {B.shape}")
    k = -B.T @ P
    return k, k.T @ k


def observer_gain(A, C) -> np.ndarray:
    """Output-injection gain F = -Pt C' from the dual Riccati equation
    Pt A' + A Pt - Pt C' C Pt + I = 0, making A + F C Hurwitz."""
    A = _as_matrix(A, "A")
    C = _as_matrix(C, "C")
    try:
        pt = solve_care(A.T, C.T)
    except NotStabilizableError:
        lam = _unstable_uncontrollable_eig(A.T, C.T)
        detail = f" (unobservable unstable eigenvalue {lam:.6g})" if lam is not None else ""
        raise NotDetectableError(f"(A, C) is not detectable{detail}") from None
    f = -pt @ C.T
    if not is_hurwitz(A + f @ C):
        raise NotDetectableError("(A, C) is not detectable")
    return f


def design_gains(model: SystemModel, observer: bool = False) -> GainSet:
    """Full gain construction: Riccati solve, K and Gamma, plus F for
    observer-based runs."""
    p = solve_care(model.A, model.B)
    k, gamma = feedback_gains(p, model.B)
    f = observer_gain(model.A, model.C) if observer else None
    return GainSet(P=p, K=k, Gamma=gamma, F=f)


def _taylor_radius(k: int) -> float:
    """Largest theta with theta^{k+1}/(k+1)! e^{theta} <= u e^{-theta}."""
    log_u = math.log(2.0 ** -53)

    def excess(th: float) -> float:
        return (k + 1) * math.log(th) - math.lgamma(k + 2) + 2 * th - log_u

    lo, hi = 1e-300, 64.0
    for _ in range(100):
        mid = math.sqrt(lo * hi) if hi > 4 * lo else 0.5 * (lo + hi)
        if excess(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


#: _TAYLOR_THETA[k] bounds theta = alpha(k) |s| for a degree-k truncation
#: of e^{As}, alpha(k) <= ||A||_1 from the norms of A's powers (``_Expm``)
_MAX_DEGREE = 16
_TAYLOR_THETA = [_taylor_radius(k) for k in range(_MAX_DEGREE + 1)]


class _Expm:
    """e^{A s} from a truncated Taylor series, numpy only.

    P_k = A^k / k! is computed once, stacked (K + 1, D, D). With d_k =
    ||A^k||_1^{1/k}, read off P, and alpha(K) the least max(d_p, d_{p+1})
    over p with p (p - 1) <= K + 1, the series cut at degree K leaves at
    most theta^{K+1}/(K+1)! e^{theta}, theta = alpha(K) |s| (Al-Mohy and
    Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009, Thm 4.2), and the
    spectral radius of A is at most alpha(K), so ||e^{As}|| >= e^{-theta}.
    The radius of degree K is ``_TAYLOR_THETA[K]`` / alpha(K), which holds
    the remainder to unit roundoff u relative to e^{As}; alpha does not
    grow with K, so the radii do not shrink, and K = ``degree(s)`` is the
    least degree whose radius holds |s|, at which ``horner`` sums. The
    d_k of higher k see what ||A||_1 does not: on a cascade lift whose
    Gamma reaches 12,508 they fall from 55,640 at k = 1 to 125 at k = 4,
    and a width of 1e-3 takes degree 11 with no squaring. When A^k is
    exactly zero the series is exact at degree k - 1, whose radius, and
    every later one, is infinite (the triple integrator stops at K = 2).
    Widths past the cap's radius are scaled by 2^-j and squared j times.
    """

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=float)
        terms = [np.eye(A.shape[0])]
        for k in range(1, _MAX_DEGREE + 1):
            term = (terms[-1] @ A) / k
            if not term.any():
                break
            terms.append(term)
        self._P = np.stack(terms)
        self._P.setflags(write=False)
        # the series is exact from degree len(P) - 1 on if the loop stopped early
        exact = len(terms) - 1 if len(terms) <= _MAX_DEGREE else _MAX_DEGREE + 1
        norms = np.abs(self._P[1:6]).sum(axis=1).max(axis=1)
        d = [0.0] + [(math.factorial(k) * v) ** (1 / k) for k, v in enumerate(norms, 1)]
        d += [0.0] * (6 - len(d))  # d_k = 0 where A^k = 0
        # p (p - 1) <= _MAX_DEGREE + 1 holds up to p = 4
        self._radius = [math.inf if k >= exact else th / min(
            max(d[p], d[p + 1]) for p in range(1, 5) if p * (p - 1) <= k + 1)
            for k, th in enumerate(_TAYLOR_THETA)]

    def degree(self, s: float) -> int:
        """The Taylor degree K that width s needs; _MAX_DEGREE + 1 past the cap."""
        return bisect.bisect_left(self._radius, abs(s))

    def at(self, s: float) -> np.ndarray:
        """e^{A s}."""
        squarings = 0
        if self.degree(s) > _MAX_DEGREE:
            # smallest j with |s| 2^-j within the degree-cap radius
            squarings = math.frexp(abs(s) / self._radius[-1])[1]
            s = math.ldexp(s, -squarings)
        out = horner(self._P, s, self.degree(s))
        for _ in range(squarings):
            out = out @ out
        return out


def horner(coef: np.ndarray, s: float, k: int) -> np.ndarray:
    """sum_{j <= k} coef[j] s^j by Horner's recurrence (coef[0] itself at k = 0)."""
    out = coef[k]
    for j in range(k - 1, -1, -1):
        out = out * s + coef[j]
    return out


def symmetric_powers(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flow of the degree-k monomials of d when d' = A d: their index
    tuples a <= b <= ... (r, k); the generator (r, r) of m(d) =
    (d_a d_b ...) over those tuples, A ⊕ ... ⊕ A restricted to symmetric
    tensors (C(n + k - 1, k) of them instead of n^k); and U (n^k, r), with
    d⊗...⊗d = U m(d)."""
    n = A.shape[0]
    mono = np.array(list(itertools.combinations_with_replacement(range(n), k))).reshape(-1, k)
    full = np.array(list(itertools.product(range(n), repeat=k))).reshape(-1, k)
    # U spreads the monomials over the tensor, S reads them off it
    U = (np.sort(full, axis=1)[:, None] == mono[None]).all(axis=2).astype(float)
    S = U.T * (np.sort(full, axis=1) == full).all(axis=1)
    ksum = sum(np.kron(np.kron(np.eye(n ** j), A), np.eye(n ** (k - 1 - j))) for j in range(k))
    return mono, S @ ksum @ U, U


def cascade_lift(L, BK, A, Gamma, lams, Ed, W) -> np.ndarray:
    """The generator (column form) of the adaptive cascade between
    broadcasts, after Van Loan (IEEE TAC 23(3), 1978): one block-diagonal
    matrix, so that one matrix exponential gives every closed-form readout,
    with a group per leakage rate lam = kappa varrho in ``lams``. m2 and m3
    are the quadratic and cubic monomials of d (``symmetric_powers``).

    * Agent [v, (w, p) per group, r]: v' = L v + BK sum w + Ed r,
      w' = (A - lam I) w + G p and r' = W r, where w = sum ±c_e d_e and
      p = sum ±kappa_e m3(d_e) over the agent's edges of the group,
      G p = sum ±kappa_e (d_e' Gamma d_e) d_e, and r holds the disturbance
      states.
    * Edge [c/kappa, m2(d)], per group: (c/kappa)' = -lam c/kappa + d' Gamma d.
    * Estimate: z' = A z.
    """
    nv, n, nd = L.shape[0], A.shape[0], W.shape[0]
    (_, A2, U2), (_, A3, U3) = symmetric_powers(A, 2), symmetric_powers(A, 3)
    G3, q2 = np.kron(Gamma.reshape(1, -1), np.eye(n)) @ U3, Gamma.ravel() @ U2
    k, m = n + len(A3), 1 + len(A2)  # the sizes of a (w, p) group and of an edge group
    a = nv + len(lams) * k + nd
    out = np.zeros((a + len(lams) * m + n,) * 2)
    out[:nv, :nv], out[:nv, a - nd:a], out[a - nd:a, a - nd:a] = L, Ed, W
    for g, lam in enumerate(lams):
        w, e = nv + g * k, a + g * m  # the group's w and its edge group's c/kappa
        out[:nv, w:w + n], out[w:w + n, w:w + n] = BK, A - lam * np.eye(n)
        out[w:w + n, w + n:w + k], out[w + n:w + k, w + n:w + k] = G3, A3
        out[e, e], out[e, e + 1:e + m], out[e + 1:e + m, e + 1:e + m] = -lam, q2, A2
    out[-n:, -n:] = A
    return out


def matrix_exponential(A, t: float = 1.0) -> np.ndarray:
    """e^{A t} from the truncated Taylor evaluator ``_Expm``, as a fresh
    writable array."""
    A = np.asarray(A, dtype=float)
    if not np.isfinite(t):
        raise ValueError(f"non-finite time {t!r}")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    return _Expm(A).at(float(t)).copy()


def is_hurwitz(M) -> bool:
    """True when every eigenvalue has strictly negative real part."""
    M = np.asarray(M, dtype=float)
    return bool(np.linalg.eigvals(M).real.max() < 0)


def _check_symmetric(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    scale = max(1.0, np.abs(M).max())
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    return M


def max_eig_sym(M) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(_check_symmetric(M))[-1])
