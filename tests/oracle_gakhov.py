"""Independent scalar-complex solver used as a cross-check.

This is a from-scratch implementation of the classical closed-form solution
of the scalar Riemann problem  F+ = a F- + b  on a smooth closed curve in
the complex plane, written directly against numpy arrays:

    kappa  = winding of a about 0,
    Y0(w)  = exp( (1/2 pi i) int ln(u^(-kappa) a(u)) / (u - w) du ),
    Y+     = Y0 inside,   Y- = w^(-kappa) Y0 outside,
    phi    = b / Y+,
    F+-    = Y+- (phi~ + P),   P a polynomial of degree <= kappa,

with the moment conditions  int phi(u) u^(s-1) du = 0, s = 1..-kappa, when
kappa < 0.  Unlike the package solver, boundary values on the curve are
computed by principal-value quadrature with singularity subtraction and the
half-jump identity, so the two implementations share no numerical machinery
for limits.  Inputs are uniform-parameter samples of the curve w(t) and its
parameter derivative w'(t).
"""

from __future__ import annotations

import numpy as np


def winding_index(a_vals: np.ndarray) -> int:
    steps = np.angle(np.roll(a_vals, -1) / a_vals)
    return int(np.rint(steps.sum() / (2.0 * np.pi)))


def continuous_log(nodes: np.ndarray, a_vals: np.ndarray, kappa: int) -> np.ndarray:
    red = a_vals * nodes ** (-kappa)
    steps = np.angle(np.roll(red, -1) / red)
    theta = np.angle(red[0]) + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    return np.log(np.abs(red)) + 1j * theta


def _fft_derivative(f: np.ndarray) -> np.ndarray:
    n = len(f)
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return np.fft.ifft(np.fft.fft(f) * (2j * np.pi * k))


class GakhovOracle:
    def __init__(self, nodes: np.ndarray, dnodes: np.ndarray,
                 a_vals: np.ndarray, b_vals: np.ndarray,
                 poly: tuple = ()):
        self.nodes = np.asarray(nodes, dtype=complex)
        self.dnodes = np.asarray(dnodes, dtype=complex)
        self.n = len(self.nodes)
        self.a = np.asarray(a_vals, dtype=complex)
        self.b = np.asarray(b_vals, dtype=complex)
        self.poly = tuple(complex(c) for c in poly)
        self.kappa = winding_index(self.a)
        self.w = continuous_log(self.nodes, self.a, self.kappa)
        self.w_plus = self._pv_plus(self.w)
        self.y_plus = np.exp(self.w_plus)
        self.y_minus = self.nodes ** (-self.kappa) * np.exp(self.w_plus - self.w)
        self.phi = self.b / self.y_plus
        self.moments = [
            np.sum(self.phi * self.nodes ** (s - 1) * self.dnodes) / self.n
            for s in range(1, -self.kappa + 1)
        ]

    def _cauchy(self, dens: np.ndarray, w) -> np.ndarray:
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        ker = dens[None, :] * self.dnodes[None, :] / (self.nodes[None, :] - w[:, None])
        return ker.sum(axis=1) / (self.n * 2j * np.pi)

    def _pv_plus(self, dens: np.ndarray) -> np.ndarray:
        """Interior boundary values of the Cauchy integral of ``dens``.

        The subtracted sum is the integral of (dens - dens_j) / (u - u_j),
        which equals the principal value minus dens_j / 2; the interior
        limit is the principal value plus dens_j / 2, so the whole density
        is added back."""
        dens_dt = _fft_derivative(dens)
        out = np.empty(self.n, dtype=complex)
        for j in range(self.n):
            diff = dens - dens[j]
            ker = np.empty(self.n, dtype=complex)
            mask = np.arange(self.n) != j
            ker[mask] = diff[mask] * self.dnodes[mask] / (self.nodes[mask] - self.nodes[j])
            ker[j] = dens_dt[j]
            out[j] = ker.sum() / (self.n * 2j * np.pi) + dens[j]
        return out

    def solvable(self, tol: float = 1e-6) -> bool:
        return all(abs(m) <= tol for m in self.moments)

    def _poly_at(self, w: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.atleast_1d(np.asarray(w, dtype=complex)))
        for c in reversed(self.poly):
            out = out * w + c
        return out

    def y0(self, w) -> np.ndarray:
        return np.exp(self._cauchy(self.w, w))

    def f_plus(self, w) -> np.ndarray:
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        return self.y0(w) * (self._cauchy(self.phi, w) + self._poly_at(w))

    def f_minus(self, w) -> np.ndarray:
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        return w ** (-self.kappa) * self.y0(w) \
            * (self._cauchy(self.phi, w) + self._poly_at(w))

    def jump_plus(self, dens):
        """Interior limits of the plain Cauchy integral of a density."""
        return self._pv_plus(np.asarray(dens, dtype=complex))

    def jump_minus(self, dens):
        d = np.asarray(dens, dtype=complex)
        return self._pv_plus(d) - d

    def boundary_sides(self) -> tuple:
        """(F+, F-) at the nodes: Y+- (phi~+- + P), with phi~- = phi~+ - phi."""
        p = self._poly_at(self.nodes)
        phi_plus = self._pv_plus(self.phi)
        return (self.y_plus * (phi_plus + p),
                self.y_minus * (phi_plus - self.phi + p))


def circle_samples(basis_a1: complex, basis_a2: complex, n: int,
                   center=(0.0, 0.0), radius: float = 1.0):
    """Uniform samples of the complex trace of a circle and its parameter
    derivative, computed from first principles (no package code)."""
    t = np.arange(n) / n
    x = center[0] + radius * np.cos(2 * np.pi * t)
    y = center[1] + radius * np.sin(2 * np.pi * t)
    dx = -2 * np.pi * radius * np.sin(2 * np.pi * t)
    dy = 2 * np.pi * radius * np.cos(2 * np.pi * t)
    nodes = x * basis_a1 + y * basis_a2
    dnodes = dx * basis_a1 + dy * basis_a2
    return nodes, dnodes
