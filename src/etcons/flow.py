"""The closed-form flow of the cascade Z -> c -> v between broadcasts.

It is the linear flow of a lift (``linalg.cascade_lift``) per leakage rate
lambda = kappa varrho. An agent's lift row is [v, (w, p) per group, r]:
w = sum ±c_e d_e and p = sum ±kappa_e m3(d_e) over its edges of the group,
r its disturbance states. The readout at a width s is the polynomial in s
of the readout of the Taylor terms ``_Expm._P``, built once per run to the
degree a width of dt needs; Horner's recurrence at ``_Expm.at``'s degree
gives one lift's readout ``_Expm.at``'s bits.
"""

from __future__ import annotations

import bisect

import numpy as np

from .linalg import _TAYLOR_THETA, _Expm, cascade_lift, symmetric_powers


class CascadeFlow:
    """The lifts of one run (L the agent stack's generator, BK its input
    through the coupling) and ``grid``, the readout at offsets k dt <= steps dt."""

    def __init__(self, L, BK, A, Gamma, Ed, W, lams, dt: float, steps: int):
        self.lams = np.array(sorted(lams) or [0.0])
        self.lifts = [_Expm(cascade_lift(L, BK, A, Gamma, lam, Ed, W).T) for lam in self.lams]
        self.mono2, self.mono3 = (symmetric_powers(A, k)[0] for k in (2, 3))
        self._nv, self._n, self._nd = L.shape[0], A.shape[0], W.shape[0]
        self.grid = [x.copy() for x in self.tables(dt * np.arange(steps + 1))]  # no view pins F
        self._norm = max(e._norm for e in self.lifts)
        deg = min(bisect.bisect_left(_TAYLOR_THETA, self._norm * dt),
                  max(len(e._P) for e in self.lifts) - 1)
        zero = np.zeros_like(self.lifts[0]._P[0])  # past a lift's exact degree
        self._terms = self._read([np.stack((e._P + [zero] * deg)[:deg + 1]) for e in self.lifts])
        self._coef = np.hstack([x.reshape(deg + 1, -1) for x in self._terms])
        self._coef.setflags(write=False)  # a readout of degree 0 is a view of it
        ends = np.cumsum([0] + [x[0].size for x in self._terms])
        self._parts = [(a, b, (1,) + x.shape[1:]) for a, b, x in zip(ends, ends[1:], self._terms)]

    def use(self, kernel):
        """Take the current graph's kernel, each edge's leakage group and the
        group masks (G, M)."""
        self.kernel = kernel
        self.g = np.searchsorted(self.lams, kernel.kappa * kernel.varrho)
        self.in_group = (self.g == np.arange(len(self.lams))[:, None]).astype(float)

    def cubes(self, dq):
        """p of every agent per group (N, G, r3), from the edge work."""
        k, m3 = self.kernel, dq[0][:, self.mono3].prod(axis=-1)
        return k.coupling(m3, self.in_group * k.kappa).transpose(1, 0, 2)

    def lift(self, v, dq, c, P, r):
        """The lift rows (N, D) of v, dq, c, P and the disturbance states r,
        and m2(d) per edge."""
        d = dq[0]
        w = self.kernel.coupling(d, self.in_group * c).transpose(1, 0, 2)
        X = np.hstack([v, np.concatenate([w, P], axis=2).reshape(len(v), -1), r])
        return X, d[:, self.mono2].prod(axis=-1)

    def tables(self, widths):
        """The readout at each width s: the rows that map a lift row to v(s)
        (s, D, nv), e^{-lambda s} and the weight integrals of m2(d) per
        group, (s, G) and (s, G, r2), (e^{As})^T, and the flow of the cubic
        moments p (s, r3, r3)."""
        return self._read([np.stack([e.at(s) for s in widths]) for e in self.lifts])

    def readout(self, s: float):
        """``tables([s])``, off the Taylor terms unless s needs a higher degree."""
        out = self._horner(self._coef, s)
        if out is None:
            return self.tables([s])
        return [out[a:b].reshape(shape) for a, b, shape in self._parts]

    def _horner(self, coef, s: float):
        """coef (K + 1, L) at s to ``_Expm.at``'s degree; None past K."""
        k = bisect.bisect_left(_TAYLOR_THETA, self._norm * s)
        if k >= len(coef):
            return None
        out = coef[k]
        for j in range(k - 1, -1, -1):
            out = out * s + coef[j]
        return out

    def _read(self, F):
        """The readout tables of stacked matrices F (s, D, D), one per lift."""
        nv, n = self._nv, self._n
        m = nv + n + len(self.mono3)
        a = m + self._nd
        RV = np.concatenate([F[0][:, :nv, :nv]] + [f[:, nv:m, :nv] for f in F]
                            + [F[0][:, m:a, :nv]], axis=1)
        C = np.stack([f[:, a:-n, a] for f in F], axis=1)
        return RV, C[..., 0], C[..., 1:], F[0][:, -n:, -n:], F[0][:, nv + n:m, nv + n:m]

    def __call__(self, lifted, Z, c, tab, steps=None, star=None):
        """v, Z and c at the offsets of ``tab`` from a ``lift``, Z and c, on
        ``star`` alone when given (``ProtocolKernel.star``); ``steps`` jump
        the disturbance states at the offsets after the first."""
        kern, n, g = self.kernel, self._n, self.g
        (X, dd), (RV, decay, R, ET, _) = lifted, tab
        if star is not None:
            kern, nodes, edges = star
            X, dd, Z, c, g = X[nodes], dd[edges], Z[nodes], c[edges], g[edges]
        V = X @ RV
        if steps is not None:
            lag = np.maximum(np.arange(1, len(V) + 1)[:, None] - np.arange(1, len(V)), 0)
            V += np.einsum("jna,kjab->knb", steps, self.grid[0][:, -n:][lag])
        c = decay[:, g] * c + kern.kappa * (R @ dd.T)[:, g, np.arange(g.size)]  # by group
        return V, Z @ ET, c

    def star_triggers(self, lifted, Z, c, star):
        """f(s, t), the trigger values of ``star``'s nodes at width s and
        instant t, off one polynomial: the star's flow of the Taylor terms."""
        kern, n, rows = star[0], self._n, star[1].size * self._n

        def flat(tab):
            V, Zs, cs = self(lifted, Z, c, tab, star=star)
            return np.hstack([V[..., -n:].reshape(len(V), -1), Zs.reshape(len(V), -1), cs])

        coef = flat(self._terms)

        def f(s: float, t: float):
            out = self._horner(coef, s)
            out = flat(self.tables([s]))[0] if out is None else out
            live, Zs = out[:rows].reshape(-1, n), out[rows:2 * rows].reshape(-1, n)
            return kern.trigger_values(live, Zs, kern.edge_terms(Zs), out[2 * rows:], t)

        return f
