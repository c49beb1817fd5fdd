"""Seeded inputs for the three workloads.

Every workload is made of rounds with a fixed make-up, so a run that stops
after whole rounds always attempts the same mix of operations, and the
operations that fail (only the fixed lambda0 fault inputs below) are always
the same share of those attempted.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# lambda0-scan: per round 8 direct lp_lambda0 calls and 8 reanalyze_products
# calls.  Seven of each draw xi log-uniformly, one per stratum.  Direct calls
# cover 1e-2..200, where grid-400 Nystrom is within 1e-13 of the truth.
# reanalyze_products stops at xi = 8: from xi ~ 10 up lambda0 rounds to
# 1 + 3e-14 and the verdict raises, on some seeds and not on others.
LP_RANGE = (1e-2, 200.0)
REANALYZE_RANGE = (1e-2, 8.0)
SEEDED_PER_KIND = 7
# The eighth call of each kind is a fixed, seed-independent xi in 300..1000,
# where grid-400 Nystrom returns lambda0 between 2 and 4: a known fault that
# fails on every run until the solver is replaced.
FAULT_RANGE = (300.0, 1000.0)


def _log_strata(rng, lo, hi, count):
    edges = np.linspace(math.log(lo), math.log(hi), count + 1)
    return np.exp(rng.uniform(edges[:-1], edges[1:]))


def _fault_xi(index: int, offset: float) -> float:
    frac = (index * GOLDEN + offset) % 1.0
    lo, hi = FAULT_RANGE
    return lo * (hi / lo) ** frac


class LambdaRounds:
    """Rounds of ('lp' | 'reanalyze', xi); xi distinct by more than 1e-6 within
    a run, so slitbound's global lambda0 cache never answers."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.index = 0
        self.seen: set[int] = set()

    def _fresh(self, lo, hi):
        while True:
            values = _log_strata(self.rng, lo, hi, SEEDED_PER_KIND)
            keys = [int(v * 1e6) for v in values]
            if not any(k + d in self.seen for k in keys for d in (-1, 0, 1)):
                self.seen.update(keys)
                return [float(v) for v in values]

    def next(self) -> list[tuple[str, float]]:
        lp = self._fresh(*LP_RANGE) + [_fault_xi(self.index, 0.0)]
        re = self._fresh(*REANALYZE_RANGE) + [_fault_xi(self.index, 0.5)]
        self.rng.shuffle(lp)
        self.rng.shuffle(re)
        self.index += 1
        return [op for pair in zip(lp, re) for op in (("lp", pair[0]), ("reanalyze", pair[1]))]


# frame-pipeline: four frames per round, one per noise class, with pixel
# counts from four strata of 1024..2048 in a seeded order.  The band is narrow
# on purpose: frame cost grows with the pixel count, and over a wide band
# op_p50_ms rests on the few frames near the middle size (its run-to-run
# spread was 0.26 over 512..3648).  Within the strata the counts do not come
# from the seed but from a golden-ratio sequence over the rounds, so every
# run of the same length frames the same pixel counts: with seeded counts the
# median of a 40-frame run moved by 0.10 from seed to seed.  Pixel pitches are
# whole multiples of 0.5 um, as on real line CCDs; see CHANGES.md for what
# estimate does with other pitches.
NOISE_CLASSES = [(False, False), (False, True), (True, False), (True, True)]  # (noisy, quantize)
PIXEL_RANGE = (1024, 2048)


class FrameRounds:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        self.index = 0

    def next(self) -> list[dict]:
        rng = self.rng
        lo, hi = PIXEL_RANGE
        width = (hi - lo) / len(NOISE_CLASSES)
        frac = (self.index * GOLDEN) % 1.0
        self.index += 1
        strata = rng.permutation(len(NOISE_CLASSES))
        frames = []
        for (noisy, quantize), stratum in zip(NOISE_CLASSES, strata):
            half = int(lo + width * (stratum + frac)) // 2
            frames.append({
                "slit_width_text": f"{math.exp(rng.uniform(math.log(300), math.log(700))):.3f}um",
                "wavelength_text": f"{rng.uniform(450, 700):.2f}nm",
                "focal_length_text": f"{rng.uniform(100, 250):.2f}mm",
                "pixel_size_text": f"{0.5 * rng.integers(10, 29):.1f}um",
                "pixels": int(2 * half),
                "noise_sigma": float(f"{math.exp(rng.uniform(math.log(1e-4), math.log(3e-3))):.3e}")
                if noisy else 0.0,
                "quantize": quantize,
                "noise_seed": int(rng.integers(0, 2**31)),
            })
        return frames


def frame_argv(spec: dict, out: str) -> tuple[list[str], list[str]]:
    """simulate and estimate arguments for one frame written under ``out``."""
    geometry = ["--slit-width", spec["slit_width_text"],
                "--wavelength", spec["wavelength_text"],
                "--focal-length", spec["focal_length_text"]]
    simulate = ["simulate", *geometry, "--pixels", str(spec["pixels"]),
                "--pixel-size", spec["pixel_size_text"],
                "--noise-sigma", repr(spec["noise_sigma"]),
                "--seed", str(spec["noise_seed"]), "--out", out]
    if spec["quantize"]:
        simulate.append("--quantize")
    estimate = ["estimate", f"{out}/frame.csv", *geometry, "--out", out]
    return simulate, estimate


_UNITS = {"um": 1e-6, "nm": 1e-9, "mm": 1e-3}


def length(text: str) -> float:
    return float(text[:-2]) * _UNITS[text[-2:]]


def frame_spec_meters(spec: dict) -> dict:
    """The generated frame inputs in meters, for the output checks."""
    return {
        "slit_width": length(spec["slit_width_text"]),
        "wavelength": length(spec["wavelength_text"]),
        "focal_length": length(spec["focal_length_text"]),
        "pixels": spec["pixels"],
        "noise_sigma": spec["noise_sigma"],
        "quantize": spec["quantize"],
    }


# cli-session: the six README commands, estimate reading the frame simulate
# just wrote.  The seed only orders the five units of a round.
README_SIMULATE = {
    "slit_width_text": "477um", "wavelength_text": "632.82nm", "focal_length_text": "150mm",
    "pixel_size_text": "8um", "pixels": 3648, "noise_sigma": 1e-3, "quantize": False,
}
LPBOUND_XI = ["0.179", "0.392", "0.433", "1.0"]
REANALYZE_A = ["1.128", "2.464", "2.723"]


def cli_round(rng, out: str) -> list[tuple[str, list[str]]]:
    units = [
        [("minstate", ["minstate", "--slit-width", "477um", "--nmax", "4096", "--out", out])],
        [("lanczos", ["lanczos", "--slit-width", "477um", "--out", out])],
        [("lpbound", ["lpbound", "--xi", *LPBOUND_XI, "--out", out])],
        [("reanalyze", ["reanalyze", "--a", *REANALYZE_A, "--out", out])],
        [("simulate", ["simulate", "--noise-sigma", "1e-3", "--seed", "7", "--out", out]),
         ("estimate", ["estimate", f"{out}/frame.csv", "--out", out])],
    ]
    return [cmd for i in rng.permutation(len(units)) for cmd in units[i]]
