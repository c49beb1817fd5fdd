"""Spans around the calls into slitbound's layers, recorded from the
benchmark's side.

Each traced function is replaced in every slitbound module namespace that
holds it, because ``cli`` and ``diffraction`` import names directly and look
them up in their own globals.  A span records its duration and the time its
traced children took, so self time = duration - children.  Spans stay in
memory until ``Tracer.summary`` is called.
"""

from __future__ import annotations

import functools
import os
import sys
import time

from oracle import LAMBDA_TOL

# module -> public functions traced.  Helpers called per CSV cell (reports.fmt)
# or per quadrature panel (special.sine_integral) are left out: a span there
# would cost more than the work it measures.
TRACED = {
    "core": ["min_uncertainty_coefficients", "momentum_moments",
             "eval_momentum_wavefunction", "eval_position_wavefunction",
             "verify_constraints", "build_report"],
    "special": ["eval_lanczos_momentum_density", "eval_lanczos_position", "lanczos_gamma"],
    "concentration": ["lp_lambda0"],
    "reanalysis": ["reanalyze_products"],
    "diffraction": ["synthesize_frame", "normalize_frame", "gamma_trace", "theory_trace"],
    "reports": ["write_csv", "write_report", "read_frame_csv"],
    "cli": ["main"],
}


def _points(args, kwargs, result):
    """k-points handed to eval_lanczos_momentum_density."""
    k = args[0] if args else kwargs.get("k")
    return int(getattr(k, "size", 1))


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _bad_lambda0(result) -> bool:
    return not -LAMBDA_TOL <= result.lambda0 <= 1.0 + LAMBDA_TOL


# per-call quantities recorded next to the span: name -> (metric, function)
QUANTITIES = {
    "special.eval_lanczos_momentum_density": ("points", _points),
    "reports.write_csv": ("bytes", _bytes_written),
}
# results that count as failed calls although nothing was raised
BAD_RESULT = {"concentration.lp_lambda0": _bad_lambda0}


class Tracer:
    """Installs and removes the wrappers and keeps the per-call records."""

    def __init__(self):
        self.records: dict[str, list[float]] = {}   # name -> self times (s)
        self.failed: dict[str, int] = {}
        self.quantities: dict[str, int] = {}
        self._stack: list[float] = []               # children time per open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        quantity = QUANTITIES.get(name)
        bad_result = BAD_RESULT.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = bad_result is not None and bad_result(result)
                return result
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.records.setdefault(name, []).append(elapsed - children)
                if failed:
                    self.failed[name] = self.failed.get(name, 0) + 1
                if quantity is not None and not failed:
                    key = f"{name}.{quantity[0]}"
                    self.quantities[key] = (self.quantities.get(key, 0)
                                            + quantity[1](args, kwargs, result))
        return traced

    def install(self) -> None:
        if self._saved:
            return
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "slitbound" or n.startswith("slitbound."))]
        for short, names in TRACED.items():
            home = sys.modules.get(f"slitbound.{short}")
            if home is None:
                continue
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._saved.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def summary(self) -> dict:
        return {"self_s": self.records, "failed": self.failed,
                "quantities": self.quantities}


def merge(into: dict, part: dict) -> None:
    """Add one summary's records and counts into another."""
    for name, times in part["self_s"].items():
        into["self_s"].setdefault(name, []).extend(times)
    for key in ("failed", "quantities"):
        for name, count in part[key].items():
            into[key][name] = into[key].get(name, 0) + count


def empty() -> dict:
    return {"self_s": {}, "failed": {}, "quantities": {}}
