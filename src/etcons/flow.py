"""The closed-form flow of the cascade Z -> c -> v between broadcasts.

It is the linear flow of one lift (``linalg.cascade_lift``), with a group
per leakage rate lambda = kappa varrho. An agent's lift row is
[v, (w, p) per group, r]: w = sum ±c_e d_e and p = sum ±kappa_e m3(d_e)
over its edges of the group, r its disturbance states. A reset forms the (w, p)
columns from the edge work (``moments``); the agent block of the lift's
exponential then carries the whole row, and the other readouts are slices
of the same exponential. The readout at a width s is the polynomial in s
of the readout of the Taylor terms ``_Expm._P``, built once per run to the
degree a width of dt needs; Horner's recurrence at ``_Expm.at``'s degree
gives ``_Expm.at``'s bits."""

from __future__ import annotations

import bisect

import numpy as np

from .linalg import _Expm, cascade_lift, symmetric_powers


class CascadeFlow:
    """The lift of one run (L the agent stack's generator, BK its input
    through the coupling) and ``grid``, the readout at offsets k dt <= steps dt."""

    def __init__(self, L, BK, A, Gamma, Ed, W, lams, dt: float, steps: int):
        self.lams = np.array(sorted(lams) or [0.0])
        self.expm = _Expm(cascade_lift(L, BK, A, Gamma, self.lams, Ed, W).T)
        self.mono2, self.mono3 = (symmetric_powers(A, k)[0] for k in (2, 3))
        nv, n, nd, G = L.shape[0], A.shape[0], W.shape[0], len(self.lams)
        a = nv + G * (n + len(self.mono3)) + nd
        # the agent row [v, (w, p) per group, r], of which v ends with the live stack
        self.nv, self._n, self.live = nv, n, slice(nv - n, nv)
        self.wp, self.r = slice(nv, a - nd), slice(a - nd, a)
        # each group's decay and weight integrals, [c/kappa, m2] to c/kappa
        first = a + (1 + len(self.mono2)) * np.arange(G)[:, None]
        self._edges = (first + np.arange(1 + len(self.mono2)), first)
        self.grid = [x.copy() for x in self.tables(dt * np.arange(steps + 1))]  # no view pins F
        P = self.expm._P
        deg = min(bisect.bisect_left(self.expm._theta, self.expm._norm * dt), len(P) - 1)
        self._taylor = np.stack(P[:deg + 1])
        self._taylor.setflags(write=False)  # a readout of degree 0 is a view of it

    def use(self, kernel):
        """Take the current graph's kernel, each edge's leakage group and the
        group masks (G, M)."""
        self.kernel = kernel
        self.g = np.searchsorted(self.lams, kernel.kappa * kernel.varrho)
        self.in_group = (self.g == np.arange(len(self.lams))[:, None]).astype(float)

    def moments(self, dq, c):
        """The (w, p) columns of every agent's lift row (N, G (n + r3)),
        formed from the edge work and the weights."""
        k, d = self.kernel, dq[0]
        per_edge = np.hstack([c[:, None] * d, k.kappa[:, None] * d[:, self.mono3].prod(axis=-1)])
        return k.coupling(per_edge, self.in_group).transpose(1, 0, 2).reshape(k.n_agents, -1)

    def tables(self, widths):
        """The readout at each width s: the agent block of the lift's
        exponential (s, a, a), which maps a lift row to the row at s,
        e^{-lambda s} and the weight integrals of m2(d) per group, (s, G)
        and (s, G, r2), and (e^{As})^T."""
        return self._read(np.stack([self.expm.at(s) for s in widths]))

    def readout(self, s: float):
        """``tables([s])``, off the Taylor terms unless s needs a higher degree."""
        out = self._horner(self._taylor, s)
        return self.tables([s]) if out is None else self._read(out[None])

    def _horner(self, coef, s: float):
        """coef (K + 1, ...) at s to ``_Expm.at``'s degree; None past K."""
        k = bisect.bisect_left(self.expm._theta, self.expm._norm * s)
        if k >= len(coef):
            return None
        out = coef[k]
        for j in range(k - 1, -1, -1):
            out = out * s + coef[j]
        return out

    def _read(self, F):
        """The readout tables of stacked matrices F (s, D, D)."""
        a, n = self.r.stop, self._n
        C = F[:, self._edges[0], self._edges[1]]
        return F[:, :a, :a], C[..., 0], C[..., 1:], F[:, -n:, -n:]

    def __call__(self, X, Z, d, c, tab, steps=None, star=None):
        """The lift rows, Z and c at the offsets of ``tab`` from lift rows X,
        Z, its disagreements d and c, on ``star`` alone when given
        (``ProtocolKernel.star``); ``steps`` jump the disturbance states at
        the offsets after the first (into v: a pass sets the r columns anew)."""
        kern, g, (F, decay, R, ET) = self.kernel, self.g, tab
        if star is not None:
            kern, nodes, edges = star
            X, d, Z, c, g = X[nodes], d[edges], Z[nodes], c[edges], g[edges]
        dd = d[:, self.mono2].prod(axis=-1)  # m2(d) per edge
        V = X @ F
        if steps is not None:
            lag = np.maximum(np.arange(1, len(V) + 1)[:, None] - np.arange(1, len(V)), 0)
            V[..., :self.nv] += np.einsum("jna,kjab->knb", steps,
                                          self.grid[0][:, self.r, :self.nv][lag])
        c = decay[:, g] * c + kern.kappa * (R @ dd.T)[:, g, np.arange(g.size)]  # by group
        return V, Z @ ET, c

    def star_triggers(self, X, Z, d, c, star):
        """f(s, t), the trigger values of ``star``'s nodes at width s and
        instant t, off one polynomial: the star's flow of the Taylor terms."""
        kern, n, rows = star[0], self._n, star[1].size * self._n

        def flat(tab):
            V, Zs, cs = self(X, Z, d, c, tab, star=star)
            return np.hstack([V[..., self.live].reshape(len(V), -1), Zs.reshape(len(V), -1), cs])

        coef = flat(self._read(self._taylor))

        def f(s: float, t: float):
            out = self._horner(coef, s)
            out = flat(self.tables([s]))[0] if out is None else out
            live, Zs = out[:rows].reshape(-1, n), out[rows:2 * rows].reshape(-1, n)
            return kern.trigger_values(live, Zs, kern.edge_terms(Zs), out[2 * rows:], t)

        return f
