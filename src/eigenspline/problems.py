"""Built-in manufactured problems for the Poisson studies.

``sin2pi``  -u'' = f with u = sin(2 pi x); all even derivatives of u vanish
            at the endpoints, so every space kind converges at full order
            without correction.
``ex73``    u = 1 - (15/16) x - (x+1)^{-4}; u(0) = u(1) = 0 but u'' does not
            vanish at the boundary (u''(0) = -20), which triggers the
            order cap of the constrained subspaces and exercises the
            correction.
``ex75``    2D, u = x1 (1 - cos(2 pi x1)) (1 - e^{x2}) (1 - e^{1-x2}):
            separable with closed-form mixed derivatives of every order;
            f = -(g'' w + g w'') is supplied as its two separable factors.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .exceptions import ConfigError
from .poisson import ManufacturedProblem1D, ManufacturedProblem2D

TWO_PI = 2.0 * np.pi


def preset_sin2pi() -> ManufacturedProblem1D:
    def f_deriv(k, x):
        return TWO_PI ** (k + 2) * np.sin(TWO_PI * np.asarray(x, float)
                                          + 0.5 * np.pi * k)

    return ManufacturedProblem1D(
        name="sin2pi",
        f=lambda x: TWO_PI ** 2 * np.sin(TWO_PI * np.asarray(x, float)),
        f_deriv=f_deriv,
        u=lambda x: np.sin(TWO_PI * np.asarray(x, float)),
        u_d1=lambda x: TWO_PI * np.cos(TWO_PI * np.asarray(x, float)),
    )


def preset_ex73() -> ManufacturedProblem1D:
    def f_deriv(k, x):
        x = np.asarray(x, dtype=float)
        coef = 20.0 * (-1.0) ** k * factorial(5 + k) / 120.0
        return coef * (x + 1.0) ** (-6 - k)

    return ManufacturedProblem1D(
        name="ex73",
        f=lambda x: 20.0 * (np.asarray(x, float) + 1.0) ** -6,
        f_deriv=f_deriv,
        u=lambda x: 1.0 - 0.9375 * np.asarray(x, float)
        - (np.asarray(x, float) + 1.0) ** -4,
        u_d1=lambda x: -0.9375 + 4.0 * (np.asarray(x, float) + 1.0) ** -5,
    )


def _g_deriv(k, x):
    # d^k/dx^k of x (1 - cos(2 pi x))
    x = np.asarray(x, dtype=float)

    def c(j):
        if j == 0:
            return 1.0 - np.cos(TWO_PI * x)
        return -TWO_PI ** j * np.cos(TWO_PI * x + 0.5 * np.pi * j)

    if k == 0:
        return x * c(0)
    return x * c(k) + k * c(k - 1)


def _w_deriv(k, x):
    # d^k/dx^k of (1 - e^x)(1 - e^{1-x})
    x = np.asarray(x, dtype=float)
    if k == 0:
        return (1.0 - np.exp(x)) * (1.0 - np.exp(1.0 - x))
    return -np.exp(x) - (-1.0) ** k * np.exp(1.0 - x)


def preset_ex75() -> ManufacturedProblem2D:
    def u_mixed(a1, a2, x1, x2):
        return _g_deriv(a1, x1) * _w_deriv(a2, x2)

    def f_mixed(a1, a2, x1, x2):
        return -(_g_deriv(a1 + 2, x1) * _w_deriv(a2, x2)
                 + _g_deriv(a1, x1) * _w_deriv(a2 + 2, x2))

    return ManufacturedProblem2D(
        name="ex75",
        f=lambda x1, x2: f_mixed(0, 0, x1, x2),
        u=lambda x1, x2: u_mixed(0, 0, x1, x2),
        u_x1=lambda x1, x2: u_mixed(1, 0, x1, x2),
        u_x2=lambda x1, x2: u_mixed(0, 1, x1, x2),
        u_mixed=u_mixed,
        factors=[(lambda x: -_g_deriv(2, x), lambda x: _w_deriv(0, x)),
                 (lambda x: -_g_deriv(0, x), lambda x: _w_deriv(2, x))],
    )


PRESETS = {
    "sin2pi": preset_sin2pi,
    "ex73": preset_ex73,
    "ex75": preset_ex75,
}


def get_preset(name):
    """Instantiate a named preset ('custom' problems are built directly
    as ManufacturedProblem objects through the library API)."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]()
