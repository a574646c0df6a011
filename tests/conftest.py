"""Shared fixtures."""

import numpy as np
import pytest

from landau_bgcs import measure


def panel_grid(points: int, width: float = 2.0, max_degree: int = 0,
               cutoff: float | None = None, n_angular: int = 256,
               far_width: float | None = None):
    """A fresh QuadratureGrid on build_grid's panel layout, but with `points`
    Gauss-Legendre nodes per panel and near-origin scale `width`: graded
    panels up to width / 4, then [width / 4, 2 width], then uniform panels
    `far_width` wide (by default `width`; build_grid's is
    measure._FAR_PANEL_WIDTH) to the cutoff (by default the one build_grid
    picks for max_degree)."""
    if cutoff is None:
        cutoff = measure._required_cutoff(max_degree)
    far_width = width if far_width is None else far_width
    edges = np.concatenate(([0.0], width * 4.0 ** np.arange(-8.0, 0.0),
                            np.arange(2.0 * width, cutoff, far_width),
                            [cutoff]))
    lo, hi = edges[:-1, None], edges[1:, None]
    x, w = np.polynomial.legendre.leggauss(points)
    return measure.QuadratureGrid(
        nodes=(0.5 * (hi + lo) + 0.5 * (hi - lo) * x).ravel(),
        weights=(0.5 * (hi - lo) * w).ravel(), cutoff=float(cutoff),
        n_angular=n_angular, max_degree=max_degree)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the scaled ln I and ln K array kernels, as measure calls them,
    from an empty grid memo, so grids that earlier tests warmed do not hide
    the profiles a test builds."""
    measure._shared_grid.cache_clear()
    calls = {"i": 0, "k": 0}

    def counted(kind, kernel):
        def call(m, x):
            calls[kind] += 1
            return kernel(m, x)
        return call
    monkeypatch.setattr(measure, "_ln_bessel_i_scaled",
                        counted("i", measure._ln_bessel_i_scaled))
    monkeypatch.setattr(measure, "_ln_bessel_k_scaled",
                        counted("k", measure._ln_bessel_k_scaled))
    return calls
