"""Shared fixtures."""

import pytest

from landau_bgcs import measure, thermo


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the scaled ln I and ln K array kernels, as measure calls them,
    from an empty thermal-grid memo, so grids that earlier tests warmed do not
    hide the profiles a test builds."""
    thermo._grid_at_cutoff.cache_clear()
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
