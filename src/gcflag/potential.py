"""Landau-Ginzburg potential functions of Gelfand-Cetlin fibers.

The potential attached to a polytope has one Laurent term per facet:
in the variables y_k = e^{x_k} T^{u_k} and Q_j = T^{lambda_{n_j}} the
facet with normal v and offset tau contributes prod_k y_k^{v_k} times
prod_j Q_j^{-c_j}, where tau = sum_j c_j lambda_{n_j}.  Critical points
are found at a fixed numeric Novikov parameter T in (0, 1) by damped
Newton iteration in logarithmic coordinates from a deterministic grid
of starts; valuations are estimated by tracking each branch to small T
and fitting the slope of log|y_k| against log T.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial

import numpy as np

from .polytopes import frac_str, lattice_points


@dataclass(frozen=True)
class LaurentPotential:
    flag: object
    lam: tuple
    coords: tuple
    terms: tuple  # (v: int tuple, tau_blocks: int tuple, tau: Fraction)
    poly: object = field(repr=False)  # the GCPolytope whose facets give the terms

    @property
    def N(self):
        return len(self.coords)

    def q_labels(self):
        """Subscripts for the Q symbols: first index of each lambda block."""
        d = self.flag.dims
        return [d[l - 1] + 1 for l in range(1, self.flag.r + 2)]

    def render(self):
        """Textual Laurent form, e.g. "Q1/y1 + y1/Q2 + ..."."""
        labels = self.q_labels()
        parts = []
        for v, cb, _ in self.terms:
            num, den = [], []
            for k, e in enumerate(v):
                if e > 0:
                    num.append(_pow("y%d" % (k + 1), e))
                elif e < 0:
                    den.append(_pow("y%d" % (k + 1), -e))
            for l, c in enumerate(cb):
                if c < 0:
                    num.append(_pow("Q%d" % labels[l], -c))
                elif c > 0:
                    den.append(_pow("Q%d" % labels[l], c))
            topn = "*".join(num) if num else "1"
            if den:
                parts.append(topn + "/" + "*".join(den))
            else:
                parts.append(topn)
        return " + ".join(parts)

    # numeric evaluation at fixed T, in log coordinates s = log y; the term
    # exponents and offsets are built once, as read-only float arrays

    @cached_property
    def _vm(self):
        vm = np.array([v for v, _, _ in self.terms], dtype=float)
        vm.flags.writeable = False
        return vm

    @cached_property
    def _taus(self):
        taus = np.array([float(t) for _, _, t in self.terms])
        taus.flags.writeable = False
        return taus

    def exponents(self, s, logT):
        return self._vm @ s - self._taus * logT

    def terms_at(self, s, logT):
        return np.exp(self.exponents(s, logT))

    def value(self, s, logT):
        return self.terms_at(s, logT).sum()

    def gradient(self, s, logT):
        """y d/dy derivatives, i.e. d/ds."""
        return self._vm.T @ self.terms_at(s, logT)

    def hessian(self, s, logT):
        vm = self._vm
        e = self.terms_at(s, logT)
        return (vm * e[:, None]).T @ vm


def _pow(sym, e):
    return sym if e == 1 else "%s^%d" % (sym, e)


def build_potential(poly):
    """One Laurent term per irredundant facet of the polytope."""
    terms = tuple(
        (f.v, f.tau_blocks, f.tau) for f in poly.facets
    )
    return LaurentPotential(
        flag=poly.flag, lam=poly.lam, coords=poly.coords, terms=terms, poly=poly
    )


@dataclass
class CriticalPoint:
    y: np.ndarray  # complex, at the fixed T
    T: float
    residual: float
    hessian_det: complex
    nondegenerate: bool
    valuation: np.ndarray = None
    valuation_residual: float = None


# ---------------------------------------------------------------------------
# Newton solving


def _newton(pot, s, logT, maxit=80, tol=1e-12):
    s = np.asarray(s, dtype=complex).copy()
    for _ in range(maxit):
        e = pot.terms_at(s, logT)
        scale = np.abs(e).sum()
        g = pot._vm.T @ e
        res = np.abs(g).max()
        if res <= tol * scale:
            return s, res / scale
        h = pot.hessian(s, logT)
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            return None
        # dampen: never move more than ~2 units in log space at once
        norm = np.abs(step).max()
        if norm > 2.0:
            step = step * (2.0 / norm)
        s = s - step
    return None


def _start_grid(pot, T, seed=0, max_starts=4000):
    """Deterministic starts: magnitudes T^u over polytope points, sixth-root
    phases.  Subsampled reproducibly when the full grid is too large."""
    pts = [tuple(float(x) for x in p) for p in lattice_points(pot.poly)]
    center = tuple(
        float(sum(c) / len(pts)) for c in zip(*pts)
    )
    mags = [center] + pts
    N = pot.N
    logT = np.log(T)
    phases = [2j * np.pi * k / 6 for k in range(6)]
    rng = np.random.default_rng(seed)
    starts = []
    for u in mags:
        base = np.array(u) * logT
        n_phase_combos = 6 ** N
        if len(mags) * min(n_phase_combos, 6 * N) > max_starts:
            combos = [
                tuple(rng.integers(0, 6, N)) for _ in range(max(1, max_starts // len(mags)))
            ]
        elif n_phase_combos <= 64:
            combos = [
                tuple((k // 6**j) % 6 for j in range(N)) for k in range(n_phase_combos)
            ]
        else:
            combos = [tuple(rng.integers(0, 6, N)) for _ in range(6 * N)]
        for c in combos:
            starts.append(base + np.array([phases[j] for j in c]))
    return starts[:max_starts]


def critical_points(pot, T, seed=0, dedup=1e-8):
    """All isolated critical points found by multi-start Newton at fixed T."""
    if not 0 < T < 1:
        raise ValueError("T must lie in (0, 1)")
    logT = np.log(T)
    # magnitude box: genuine critical points have valuations in the
    # polytope, so log|y_k| stays within the coordinate range of the
    # polytope; Newton runaways along collapse loci (where subsets of
    # terms cancel and the residual test passes relative to a huge term
    # scale) drift outside it
    verts = np.array(
        [[float(c) for c in v] for v, _ in pot.poly.vertices()], dtype=float
    )
    umin = verts.min(axis=0)
    umax = verts.max(axis=0)
    slack = 0.5 * abs(logT) + 1.0
    lo = umax * logT - slack  # logT < 0 flips the range
    hi = umin * logT + slack
    sols = []
    for s0 in _start_grid(pot, T, seed=seed):
        out = _newton(pot, s0, logT)
        if out is None:
            continue
        s, res = out
        if (s.real < lo).any() or (s.real > hi).any():
            continue
        # drift check: at a genuine isolated point the Newton step is at
        # rounding level; in a flat valley it stays order one
        e = pot.terms_at(s, logT)
        h = pot.hessian(s, logT)
        try:
            step = np.linalg.solve(h, pot._vm.T @ e)
        except np.linalg.LinAlgError:
            continue
        if np.abs(step).max() > 1e-6:
            continue
        y = np.exp(s)
        if any(
            np.abs(y - y2).max() <= dedup * max(1e-300, np.abs(y2).max())
            for y2, _, _ in sols
        ):
            continue
        sols.append((y, s, res))
    points = []
    for y, s, res in sols:
        h = pot.hessian(s, logT)
        dh = np.linalg.det(h)
        scale = np.abs(pot.terms_at(s, logT)).sum()
        points.append(
            CriticalPoint(
                y=y,
                T=T,
                residual=res,
                hessian_det=dh,
                nondegenerate=bool(abs(dh) > 1e-8 * scale**pot.N),
            )
        )
    points.sort(key=lambda p: tuple(np.round(np.abs(p.y), 6)) + tuple(np.round(np.angle(p.y), 6)))
    return points


def hessian_nondegenerate(pot, T, y):
    """Determinant test of the logarithmic Hessian at a critical point."""
    y = np.asarray(y, dtype=complex)
    logT = np.log(T)
    s = np.log(y)
    e = pot.terms_at(s, logT)
    scale = np.abs(e).sum()
    g = pot._vm.T @ e
    if np.abs(g).max() > 1e-8 * scale:
        raise ValueError("input is not a critical point")
    dh = np.linalg.det(pot.hessian(s, logT))
    return bool(abs(dh) > 1e-8 * scale**pot.N), dh


def critical_valuation(pot, point, eps=(1e-2, 1e-3, 1e-4)):
    """Estimate v(y_k) by continuation of the branch to small T.

    Tracks the critical point from its defining T down through the given
    epsilon ladder and fits log|y_k| against log T; the fit residual is
    stored on the point.  Returns the valuation vector.
    """
    s = np.log(point.y)
    T = point.T
    samples = []
    for target in sorted(eps, reverse=True):
        # geometric continuation path
        steps = max(3, int(np.ceil(8 * abs(np.log(target) - np.log(T)))))
        for logT in np.linspace(np.log(T), np.log(target), steps + 1)[1:]:
            out = _newton(pot, s, logT, tol=1e-11)
            if out is None:
                raise RuntimeError("continuation lost the branch")
            s, _ = out
        samples.append((np.log(target), np.log(np.abs(np.exp(s)))))
        T = target
    xs = np.array([a for a, _ in samples])
    ys = np.array([b for _, b in samples])
    A = np.vstack([xs, np.ones_like(xs)]).T
    fit, res, _, _ = np.linalg.lstsq(A, ys, rcond=None)
    val = fit[0]
    resid = float(np.sqrt(res.sum())) if res.size else 0.0
    point.valuation = val
    point.valuation_residual = resid
    return val


def positive_real_minimum(pot, T):
    """Global minimum over the positive orthant (convex in log coordinates)."""
    logT = np.log(T)
    center = np.array(
        [float(x) for x in pot.poly.interior_point()], dtype=float
    )
    s = center * logT
    for _ in range(200):
        e = pot.terms_at(s, logT)
        g = pot._vm.T @ e
        if np.abs(g).max() <= 1e-13 * e.sum():
            break
        h = pot.hessian(s, logT)
        step = np.linalg.solve(h, g)
        f0 = e.sum()
        t = 1.0
        while t > 1e-12 and pot.value(s - t * step, logT) > f0:
            t /= 2
        s = s - t * step
    e = pot.terms_at(s, logT)
    g = pot._vm.T @ e
    h = pot.hessian(s, logT)
    dh = np.linalg.det(h)
    cp = CriticalPoint(
        y=np.exp(s).astype(complex),
        T=T,
        residual=float(np.abs(g).max() / e.sum()),
        hessian_det=dh,
        nondegenerate=bool(abs(dh) > 1e-8 * e.sum() ** pot.N),
    )
    critical_valuation(pot, cp)
    return cp


def cohomology_rank(flag):
    """n! / (k_1! ... k_{r+1}!), the rank of the cohomology of the flag."""
    rank = factorial(flag.n)
    for k in flag.block_sizes:
        rank //= factorial(k)
    return rank


def count_vs_cohomology(pot, T, seed=0):
    pts = critical_points(pot, T, seed=seed)
    return len(pts), cohomology_rank(pot.flag)


def potential_report(pot, points):
    """JSON-ready report with the spec'd field layout."""
    return {
        "terms": [
            {"v": list(v), "tau": frac_str(t)} for v, _, t in pot.terms
        ],
        "critical": [
            {
                "y_re": [float(x) for x in p.y.real],
                "y_im": [float(x) for x in p.y.imag],
                "valuation": None
                if p.valuation is None
                else [float(x) for x in p.valuation],
                "nondegenerate": p.nondegenerate,
            }
            for p in points
        ],
    }
