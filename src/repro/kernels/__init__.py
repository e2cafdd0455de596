"""Pluggable hot-path kernels: band hashing, probing, candidate merge.

Every LSH query in this repo bottoms out in three loops (see
:mod:`repro.kernels.base`); this package routes them through selectable
backends registered by name, mirroring the partitioner registry:

========  ===========================================================
name      implementation
========  ===========================================================
python    pure-Python reference loops (always available, bit-exact
          ground truth for the property suite)
numpy     batch-vectorised FNV hashing, binary-search / open-addressing
          hash-table probe, columnar merge — the default
========  ===========================================================

Selection precedence (first match wins):

1. an explicit ``kernel=`` argument (a name or a :class:`Kernel`
   instance) on ``MinHashLSH`` / ``PrefixForest`` / ``LSHEnsemble`` /
   ``load_ensemble`` / the CLI ``--kernel``;
2. the ``REPRO_KERNEL`` environment variable;
3. the kernel name recorded in a snapshot header being loaded (this is
   how :class:`~repro.parallel.procpool.ProcPool` workers adopt the
   parent's choice — the name travels in the v2 header);
4. the ``numpy`` default.

All backends are bit-identical by contract, so the precedence order can
affect speed only, never results.
"""

from __future__ import annotations

import os

from repro.kernels.base import Kernel, ProbeIndex, SortedHashes
from repro.kernels.numpy_impl import NumpyKernel, fnv1a_lanes
from repro.kernels.packing import (BBIT_CHOICES, band_dtype, lanes_from_bytes,
                                   pack_block, pack_row, validate_bbit)
from repro.kernels.python_impl import PythonKernel

__all__ = ["Kernel", "ProbeIndex", "SortedHashes", "fnv1a_lanes",
           "register_kernel",
           "resolve_kernel", "kernel_name", "list_kernels", "get_kernel",
           "kernel_for_header", "KERNEL_ENV", "DEFAULT_KERNEL",
           "BBIT_CHOICES", "band_dtype", "validate_bbit", "pack_row",
           "pack_block", "lanes_from_bytes"]

#: Environment override consulted when no explicit kernel is given.
KERNEL_ENV = "REPRO_KERNEL"

DEFAULT_KERNEL = "numpy"

_KERNELS: dict[str, type] = {}
_INSTANCES: dict[str, Kernel] = {}


def register_kernel(name: str, factory) -> None:
    """Register ``factory`` (zero-argument, returning a :class:`Kernel`)
    under ``name``.

    Re-registering a name with a different factory raises — snapshot
    headers reference kernels by name, so names must stay unambiguous
    within a process (same contract as the partitioner registry).
    """
    existing = _KERNELS.get(name)
    if existing is not None and existing is not factory:
        raise ValueError("kernel name %r is already registered" % name)
    _KERNELS[name] = factory


def resolve_kernel(name: str) -> Kernel:
    """The (shared) kernel instance registered under ``name``.

    Instances are per-name singletons: kernels hold no index state (the
    only mutable member is thread-local scratch), so one instance safely
    serves every index in the process.
    """
    kernel = _INSTANCES.get(name)
    if kernel is None:
        try:
            factory = _KERNELS[name]
        except KeyError:
            raise KeyError(
                "unknown kernel %r; registered kernels: %s"
                % (name, sorted(_KERNELS))) from None
        kernel = _INSTANCES[name] = factory()
    return kernel


def kernel_name(kernel) -> str | None:
    """The registered name of ``kernel``, or None when unregistered."""
    name = getattr(kernel, "name", None)
    return name if name in _KERNELS else None


def list_kernels() -> list[str]:
    """Names of all registered kernel backends, sorted."""
    return sorted(_KERNELS)


def get_kernel(spec: "str | Kernel | None" = None) -> Kernel:
    """Resolve ``spec`` through the selection precedence.

    ``spec`` may be a registered name, a :class:`Kernel` instance
    (passed through), or None — in which case ``REPRO_KERNEL`` is
    consulted and then the ``numpy`` default.  Unknown names raise
    (explicit choices must not silently degrade).
    """
    if spec is None:
        spec = os.environ.get(KERNEL_ENV) or DEFAULT_KERNEL
    if isinstance(spec, str):
        return resolve_kernel(spec)
    if isinstance(spec, Kernel):
        return spec
    raise TypeError("kernel must be a name or Kernel instance, got %r"
                    % type(spec).__name__)


def kernel_for_header(name: str | None,
                      override: "str | Kernel | None" = None) -> Kernel:
    """The kernel a *loaded* index should run with.

    ``override`` (the ``kernel=`` load argument) wins, then the
    ``REPRO_KERNEL`` environment, then the header-recorded ``name``
    (how pool workers adopt the parent's choice), then the default.
    Unlike :func:`get_kernel`, an unknown or unregistered header name
    falls back to the default instead of raising: backends are
    bit-identical, so a snapshot built with an unavailable kernel (old
    headers can name the retired ``numba`` backend) must still load and
    answer correctly.
    """
    if override is not None:
        return get_kernel(override)
    if os.environ.get(KERNEL_ENV):
        return get_kernel(None)
    if name:
        try:
            return resolve_kernel(name)
        except KeyError:
            pass
    return get_kernel(None)


register_kernel("python", PythonKernel)
register_kernel("numpy", NumpyKernel)
