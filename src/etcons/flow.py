"""The closed-form flow of the cascade Z -> c -> v between broadcasts.

It is the linear flow of one lift (``linalg.cascade_lift``), with a group
per leakage rate lambda = kappa varrho. An agent's lift row is
[v, (w, p) per group, r]: w = sum ±c_e d_e and p = sum ±kappa_e m3(d_e)
over its edges of the group, r its disturbance states (r' = W r). A reset
forms the (w, p) columns from the edge work (``moments``); the agent block
of the lift's exponential then carries the whole row, and the other
readouts are slices of the same exponential. ``tables`` reads a width off
``_Expm.at``; a star's flow is the polynomial in the width of its flow of
the Taylor terms ``_Expm._P`` to the degree a width of dt needs, which
``linalg.horner`` sums at ``_Expm.degree``, the degree ``_Expm.at`` takes."""

from __future__ import annotations

import numpy as np

from .linalg import _Expm, cascade_lift, horner, symmetric_powers


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
        self._taylor = P[:min(self.expm.degree(dt), len(P) - 1) + 1]

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

    def _read(self, F):
        """The readout tables of stacked matrices F (s, D, D)."""
        a, n = self.r.stop, self._n
        C = F[:, self._edges[0], self._edges[1]]
        return F[:, :a, :a], C[..., 0], C[..., 1:], F[:, -n:, -n:]

    def __call__(self, X, Z, d, c, tab, star=None):
        """The lift rows, Z and c at the offsets of ``tab`` from lift rows X, Z,
        its disagreements d and c, on ``star`` (``ProtocolKernel.star``) alone if given."""
        kern, g, (F, decay, R, ET) = self.kernel, self.g, tab
        if star is not None:
            kern, nodes, edges = star
            X, d, Z, c, g = X[nodes], d[edges], Z[nodes], c[edges], g[edges]
        dd = d[:, self.mono2].prod(axis=-1)  # m2(d) per edge
        c = decay[:, g] * c + kern.kappa * (R @ dd.T)[:, g, np.arange(g.size)]  # by group
        return X @ F, Z @ ET, c

    def star_triggers(self, X, Z, d, c, star):
        """f(s, t), the trigger values of ``star``'s nodes at width s and
        instant t, off one polynomial: the star's flow of the Taylor terms."""
        kern, n, rows = star[0], self._n, star[1].size * self._n

        def flat(tab):
            V, Zs, cs = self(X, Z, d, c, tab, star=star)
            return np.hstack([V[..., self.live].reshape(len(V), -1), Zs.reshape(len(V), -1), cs])

        coef = flat(self._read(self._taylor))

        def f(s: float, t: float):
            k = self.expm.degree(s)
            out = horner(coef, s, k) if k < len(coef) else flat(self.tables([s]))[0]
            live, Zs = out[:rows].reshape(-1, n), out[rows:2 * rows].reshape(-1, n)
            return kern.trigger_values(live, Zs, kern.edge_terms(Zs), out[2 * rows:], t)

        return f
