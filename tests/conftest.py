"""Shared fixtures."""

import pytest

from landau_bgcs import measure


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the scaled ln I and ln K array kernels, as measure calls them."""
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
