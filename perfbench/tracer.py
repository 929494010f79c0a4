"""Span tracing of hecke_sphere's layers from outside the package.

Each traced function is replaced by a wrapper in every ``hecke_sphere``
module namespace that holds it, so calls through module globals, through
``from .x import y`` bindings and through ``cli``'s lazy imports all reach
the wrapper.  A span records (name, start, end, parent); a layer's self time
is its span durations minus those of its direct child spans.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np

# The layer boundaries that are traced, by module.  Inner kernels whose cost
# belongs to their caller's layer stay untraced on purpose:
# ``left_mul_monomial_matrix`` is part of ``shell_monomial_matrix``,
# ``joint_eigenspaces`` is part of ``decompose`` and ``basis_coeff_matrix``
# is part of ``basis_values`` (or of ``hecke_matrix_float``).
LAYERS = {
    "quat": ("enumerate_shell", "m1_profile"),
    "poly": ("harmonic_basis", "basis_values"),
    "zonal": ("chebyshev_U_vec",),
    "hecke": ("shell_monomial_matrix", "hecke_matrix", "hecke_matrix_float",
              "selfadjoint_check", "hecke_relations_check", "decompose"),
    "theta": ("theta_coefficient", "spectral_coefficient",
              "modularity_check", "petersson_estimate"),
    "gon": ("shell_class_count", "dyadic_class_count", "a_of_x",
            "successive_minima", "lattice_point_count", "minkowski_sandwich",
            "product_bound_check"),
    "moments": ("moment_sweep", "pretrace_residual"),
    "cli": ("main",),
}

#: lru caches whose misses each build one r3 representation-count table
R3_TABLES = ("_r3_counts", "_r3_odd_counts")


def r4(N: int) -> int:
    """Jacobi's count of integral quaternions of norm N: 8 * sum of d | N, 4 !| d."""
    return 8 * sum(d for d in range(1, N + 1) if N % d == 0 and d % 4)


def _counters(name, args, kwargs, result, miss):
    """Work counts recorded at a layer boundary, from arguments and result."""
    if name == "hecke.shell_monomial_matrix" and miss:
        return {"shell_elements": r4(args[1]),
                "object_dtype": int(result.dtype == object)}
    if name == "hecke.decompose":
        requested = args[3] if len(args) > 3 else kwargs.get("seed", 0)
        return {"retries": result.seed - requested}
    if name == "poly.basis_values":
        hb, pts = args
        return {"bytes_computed": math.comb(hb.n + 3, 3) * len(pts) * 8}
    if name == "theta.theta_coefficient":
        return {"exact": int(result.value is not None)}
    if name == "theta.modularity_check":
        return {"K": result.K}
    if name == "zonal.chebyshev_U_vec":
        return {"args": int(np.size(args[1]))}
    if name == "quat.enumerate_shell" and miss:
        return {"points": len(result)}
    return {}


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.calls = {}
        self.misses = {}  # only for functions behind an lru_cache
        self.counts = {}

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; re-raises what it raises."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        info = getattr(fn, "cache_info", None)
        calls, misses, counts = self.calls, self.misses, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = info().misses if info else 0
            result = self.span(name, fn, *args, **kwargs)
            miss = info is None or info().misses > before
            calls[name] = calls.get(name, 0) + 1
            if info:
                misses[name] = misses.get(name, 0) + miss
            for key, v in _counters(name, args, kwargs, result, miss).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + v
            return result

        return wrapper

    def install(self):
        """Replace every traced function in every hecke_sphere namespace."""
        mods = {k: m for k, m in sys.modules.items()
                if k == "hecke_sphere" or k.startswith("hecke_sphere.")}
        for mod, names in LAYERS.items():
            module = mods[f"hecke_sphere.{mod}"]
            for fname in names:
                orig = getattr(module, fname)
                wrapped = self._wrap(f"{mod}.{fname}", orig)
                for m in mods.values():
                    for attr, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, attr, wrapped)

    def layer_stats(self) -> dict:
        """Per-layer statistics named ``<module>.<function>.<stat>``.

        ``cli.other.self_s`` is the self time of the step spans (``cli.main``
        or a library step), i.e. time in the steps outside every traced
        layer, so the self times sum to the summed step durations.
        """
        own = [t1 - t0 for _, t0, t1, _ in self.spans]
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                own[parent] -= t1 - t0
        stats = {"cli.other.self_s": 0.0}
        for (name, _, _, parent), s in zip(self.spans, own):
            key = "cli.other.self_s" if parent < 0 else f"{name}.self_s"
            stats[key] = stats.get(key, 0.0) + s
        for name, n in self.calls.items():
            stats[f"{name}.calls"] = n
            if name in self.misses:
                stats[f"{name}.hit_ratio"] = 1.0 - self.misses[name] / n
        stats.update(self.counts)
        exact = stats.pop("theta.theta_coefficient.exact", None)
        if exact is not None:
            stats["theta.theta_coefficient.exact_ratio"] = (
                exact / stats["theta.theta_coefficient.calls"])
        quat = sys.modules["hecke_sphere.quat"]
        stats["quat.r3_tables.builds"] = sum(
            getattr(quat, t).cache_info().misses for t in R3_TABLES)
        return stats
