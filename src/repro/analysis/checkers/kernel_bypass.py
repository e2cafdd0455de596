"""RL006 — hot-loop calls must route through the kernel registry.

PR 8 moved the three query hot loops (band hashing, sorted-prefix
probing, candidate merging) behind :mod:`repro.kernels` so backends can
be swapped without touching callers, and so the bit-identical contract
is enforced in exactly one place.  A caller that hashes with
``fnv1a_lanes`` directly, or binary-searches a probe array with
``np.searchsorted`` / ``bisect`` in the probe-path packages, silently
pins itself to one backend: the ``--kernel`` flag, the ``REPRO_KERNEL``
environment variable, and the snapshot-header adoption all stop
applying to that code path, and a future compiled backend cannot
accelerate it.

Inside ``repro/`` (excluding ``repro/kernels/`` itself, which *is* the
registry) this rule flags:

* any call to ``fnv1a_lanes`` — resolved through import aliases, so a
  re-export through another module is caught too; use
  ``kernel.band_hash`` instead;
* ``searchsorted`` / ``bisect.bisect*`` calls inside the probe-path
  packages (``repro/lsh/``, ``repro/forest/``) — use ``kernel.probe``.
  Other packages keep ``searchsorted`` for legitimate non-probe uses
  (partition routing, CDF sampling).
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import (
    Checker,
    ScopeVisitor,
    dotted,
    import_aliases,
    resolve_dotted,
)

__all__ = ["KernelBypassChecker"]

RULE = "RL006"

#: Canonical origins of the band-hash primitive (every public alias).
FNV1A_ORIGINS = frozenset({
    "repro.kernels.fnv1a_lanes",
    "repro.kernels.numpy_impl.fnv1a_lanes",
})

#: Packages whose binary searches are, by construction, probe loops.
PROBE_PATHS = ("repro/lsh/", "repro/forest/")

BISECT_CALLS = frozenset({
    "bisect.bisect", "bisect.bisect_left", "bisect.bisect_right",
})


class _Visitor(ScopeVisitor):

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self._modules: dict[str, str] = {}
        self._names: dict[str, str] = {}
        self._probe_path = any(fragment in ctx.path
                               for fragment in PROBE_PATHS)

    def visit_Module(self, node: ast.Module) -> None:
        self._modules, self._names = import_aliases(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        path = resolve_dotted(dotted(node.func), self._modules,
                              self._names)
        if path is not None:
            self._check_path(node, path)
        self.generic_visit(node)

    def _check_path(self, node: ast.Call, path: str) -> None:
        if path in FNV1A_ORIGINS or path.endswith(".fnv1a_lanes") \
                or path == "fnv1a_lanes":
            self.report(
                node, RULE,
                "direct fnv1a_lanes call bypasses the kernel registry; "
                "route band hashing through kernel.band_hash so "
                "--kernel/REPRO_KERNEL selection applies")
            return
        if self._probe_path:
            if path in BISECT_CALLS or path.endswith(".searchsorted") \
                    or path == "numpy.searchsorted":
                self.report(
                    node, RULE,
                    "direct %s probe loop in a probe-path package "
                    "bypasses the kernel registry; use kernel.probe"
                    % path.rpartition(".")[2])


class KernelBypassChecker(Checker):
    rule_id = RULE
    title = "hot loops route through the kernel registry"
    scope = ("repro/",)
    visitor_class = _Visitor

    def applies_to(self, path: str) -> bool:
        if "repro/kernels/" in path:
            return False  # the registry's own implementations
        return super().applies_to(path)
