"""Registry and selection-precedence semantics of repro.kernels."""

import pytest

from repro.kernels import (
    DEFAULT_KERNEL,
    KERNEL_ENV,
    Kernel,
    get_kernel,
    kernel_for_header,
    kernel_name,
    list_kernels,
    register_kernel,
    resolve_kernel,
)


class TestRegistry:
    def test_builtins_registered(self):
        names = list_kernels()
        assert "python" in names
        assert "numpy" in names

    def test_resolve_returns_singleton(self):
        assert resolve_kernel("numpy") is resolve_kernel("numpy")

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            resolve_kernel("no-such-kernel")

    def test_reregister_same_factory_is_idempotent(self):
        from repro.kernels.numpy_impl import NumpyKernel

        register_kernel("numpy", NumpyKernel)  # no-op, must not raise

    def test_reregister_different_factory_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel("numpy", object)

    def test_kernel_name_of_registered_instance(self):
        assert kernel_name(resolve_kernel("python")) == "python"

    def test_kernel_name_of_unregistered_is_none(self):
        class Custom(Kernel):
            name = "custom-unregistered"

        assert kernel_name(Custom()) is None


class TestGetKernel:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert get_kernel(None).name == DEFAULT_KERNEL == "numpy"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "python")
        assert get_kernel(None).name == "python"

    def test_explicit_name_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "python")
        assert get_kernel("numpy").name == "numpy"

    def test_instance_passes_through(self):
        instance = resolve_kernel("python")
        assert get_kernel(instance) is instance

    def test_unknown_explicit_name_raises(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        with pytest.raises(KeyError):
            get_kernel("no-such-kernel")

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            get_kernel(42)


class TestKernelForHeader:
    """Load-time resolution: override > env > header name > default."""

    def test_header_name_adopted(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert kernel_for_header("python").name == "python"

    def test_override_beats_header(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert kernel_for_header("python", "numpy").name == "numpy"

    def test_env_beats_header(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        assert kernel_for_header("python").name == "numpy"

    def test_unknown_header_name_falls_back(self, monkeypatch):
        """A snapshot built with an unavailable backend (numba on a box
        without it) must still load — backends are bit-identical."""
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert kernel_for_header("not-on-this-box").name == DEFAULT_KERNEL

    def test_retired_numba_header_name_falls_back(self, monkeypatch):
        """Old headers can name the numba backend this code no longer
        carries; it is an unknown name like any other."""
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert "numba" not in list_kernels()
        assert kernel_for_header("numba").name == DEFAULT_KERNEL

    def test_missing_header_name_falls_back(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert kernel_for_header(None).name == DEFAULT_KERNEL

    def test_unknown_override_still_raises(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        with pytest.raises(KeyError):
            kernel_for_header("python", "no-such-kernel")
