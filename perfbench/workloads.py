"""The three benchmark workloads: seeded inputs, one request, output checks.

Each workload turns ``--seed`` into an endless, deterministic stream of
request parameters, so a run of any length sees the same inputs for the same
seed. The package only ever receives the generated inputs: config files for
``design-sweep``, argument lists for ``spectrum`` and ``grating``.

Draws are stratified within small blocks (one draw per equal slice of each
range, in shuffled order), so every run covers the input ranges evenly and
per-run medians do not hinge on a few lucky draws.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from pathlib import Path

from qpmdesign import cli, pipeline, qpm
from qpmdesign.dispersion import WaveguideGeometry
from qpmdesign.qpm import InteractionSpec

import checks

# The reference interaction of the README: 519 -> 780 + 1551 nm, 25 degC, 1 cm.
SPEC_ARGS = dict(lambda_p_nm=519.0, lambda_s_nm=780.0, lambda_i_nm=1551.0,
                 temperature_c=25.0, length_mm=10.0)

# design-sweep. Every one of 40 seeded probes in the guided band exited 0
# (13 mode solves each); every one of 40 in the cutoff band exited 2 with
# NoGuidedMode (4 solves each), so exit 2 is the correct answer there.
GUIDED_BAND_UM = (7.0, 14.0)
CUTOFF_BAND_UM = (3.0, 5.5)
SWEEP_BLOCK = 8
CUTOFF_PER_BLOCK = 2

# spectrum. 201 samples over at most +-10 nm keep the spacing at or below
# 0.1 nm, so the 0.29 nm oe peak spans at least three samples.
SPECTRUM_BAND_UM = (7.0, 13.0)
HALF_RANGE_NM = (4.0, 10.0)
SPECTRUM_SAMPLES = 201
FILTER_MAX_NM = 0.1
SPECTRUM_BLOCK = 8

# grating. K1, K2 within +-1 % of the d = w = 10 um design; the device holds
# a whole number of modulation periods, 10-50 mm long. K1 and K2 share one
# seeded scale factor, which keeps K0/Kp at the reference 8.879. Independent
# draws move K0/Kp across low-order rationals (71/8 = 8.875 is close), where
# another harmonic of the square-wave product lands on K1 or K2 and |c|
# departs from 4/pi^2 by up to 1 %, past the check's 1e-3.
REFERENCE_PERIODS_UM = (4.579, 3.652)
K_SCALE = 0.01
LENGTH_MM = (10.0, 50.0)
SCAN_POINTS_PER_PEAK = 16  # the peak itself plus 15 seeded offsets
SCAN_HALF_WIDTH_LOBES = 4.0  # scan half-width in units of 2 pi / L
GRATING_BLOCK = 8


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one from each of n equal slices, in random order."""
    slots = list(range(n))
    rng.shuffle(slots)
    return [(slot + rng.random()) / n for slot in slots]


def _scale(u: float, band: tuple[float, float]) -> float:
    lo, hi = band
    return lo + (hi - lo) * u


def _blocks(name: str, seed: int):
    """One independent generator per block of requests."""
    block = 0
    while True:
        yield random.Random(f"{name}/{seed}/{block}")
        block += 1


class DesignSweep:
    """In-process ``qpmdesign design --config <file> --out <dir>`` per geometry."""

    name = "design-sweep"

    def __init__(self, workdir: Path, material):
        self.config_path = workdir / "request.json"
        self.out_dir = workdir / "out"
        self.checks_run = Counter()

    def inputs(self, seed: int):
        for depth, width, *_ in checks.DESIGN_TABLE:
            yield {"class": "table", "depth_um": depth, "width_um": width}
        for rng in _blocks(self.name, seed):
            classes = ["cutoff"] * CUTOFF_PER_BLOCK
            classes += ["guided"] * (SWEEP_BLOCK - CUTOFF_PER_BLOCK)
            rng.shuffle(classes)
            draws = {}
            for cls in ("guided", "cutoff"):
                n = classes.count(cls)
                draws[cls] = list(zip(_stratified(rng, n), _stratified(rng, n)))
            for cls in classes:
                ud, uw = draws[cls].pop()
                band = GUIDED_BAND_UM if cls == "guided" else CUTOFF_BAND_UM
                yield {"class": cls, "depth_um": _scale(ud, band),
                       "width_um": _scale(uw, band)}

    def warmup_input(self) -> dict:
        return {"class": "guided", "depth_um": 10.0, "width_um": 10.0}

    def prepare(self, params: dict) -> list[str]:
        doc = dict(SPEC_ARGS, depth_um=params["depth_um"], width_um=params["width_um"])
        self.config_path.write_text(json.dumps(doc))
        (self.out_dir / "design.json").unlink(missing_ok=True)
        return ["design", "--config", str(self.config_path), "--out", str(self.out_dir)]

    def run(self, argv: list[str]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, err.getvalue()

    def check(self, params: dict, outcome) -> list[str]:
        rc, stderr = outcome
        path = self.out_dir / "design.json"
        doc = json.loads(path.read_text()) if path.exists() else None
        if params["class"] == "cutoff":
            self.checks_run["design-cutoff"] += 1
            return checks.design_cutoff(rc, stderr, doc)
        self.checks_run["design-guided"] += 1
        problems = checks.design_guided(rc, doc)
        if params["class"] == "table" and doc is not None:
            self.checks_run["design-table"] += 1
            problems += checks.design_table_row(params["depth_um"], params["width_um"], doc)
        return problems

    def items(self, params: dict) -> int:
        return 1


class Spectrum:
    """``design_point`` -> ``DesignResult.spectra`` -> ``filtered_gamma``."""

    name = "spectrum"

    def __init__(self, workdir: Path, material):
        self.material = material
        self.spec = InteractionSpec(**SPEC_ARGS)
        self.checks_run = Counter()

    def inputs(self, seed: int):
        for rng in _blocks(self.name, seed):
            depths = _stratified(rng, SPECTRUM_BLOCK)
            widths = _stratified(rng, SPECTRUM_BLOCK)
            ranges = _stratified(rng, SPECTRUM_BLOCK)
            for ud, uw, ur in zip(depths, widths, ranges):
                yield {"class": "spectrum",
                       "depth_um": _scale(ud, SPECTRUM_BAND_UM),
                       "width_um": _scale(uw, SPECTRUM_BAND_UM),
                       "half_range_nm": _scale(ur, HALF_RANGE_NM),
                       "samples": SPECTRUM_SAMPLES,
                       "filter_nm": FILTER_MAX_NM * (1.0 - rng.random())}

    def warmup_input(self) -> dict:
        # Small, so set-up time is not mostly solver time; a zero-width
        # filter returns the unfiltered gamma.
        return {"class": "spectrum", "depth_um": 10.0, "width_um": 10.0,
                "half_range_nm": HALF_RANGE_NM[0], "samples": 9, "filter_nm": 0.0}

    def prepare(self, params: dict) -> dict:
        return params

    def run(self, params: dict):
        geom = WaveguideGeometry(width_w=params["width_um"], depth_h=params["depth_um"])
        result = pipeline.design_point(self.spec, geom, self.material)
        grid, _, _, fwhm_oe, fwhm_eo = result.spectra(params["half_range_nm"],
                                                      params["samples"])
        filtered = result.filtered_gamma(params["filter_nm"])
        return result.gamma, fwhm_oe, fwhm_eo, filtered, len(grid)

    def check(self, params: dict, outcome) -> list[str]:
        gamma, fwhm_oe, fwhm_eo, filtered, n = outcome
        self.checks_run["spectrum"] += 1
        problems = checks.spectrum(gamma, fwhm_oe, fwhm_eo, filtered)
        if n != params["samples"]:
            problems.append(f"{n} spectral samples, asked for {params['samples']}")
        return problems

    def items(self, params: dict) -> int:
        return params["samples"]


def _grating_request(rng: random.Random, u_length: float) -> dict:
    scale = 1.0 + rng.uniform(-K_SCALE, K_SCALE)
    k1, k2 = (2.0 * math.pi / period * scale for period in REFERENCE_PERIODS_UM)
    modulation_um = 4.0 * math.pi / abs(k1 - k2)
    lo = math.ceil(LENGTH_MM[0] * 1e3 / modulation_um)
    hi = math.floor(LENGTH_MM[1] * 1e3 / modulation_um)
    periods = lo + int(u_length * (hi - lo + 1))
    length_um = periods * modulation_um
    lobe = 2.0 * math.pi / length_um
    scan = []
    for k in (k1, k2):
        offsets = sorted(rng.uniform(-1.0, 1.0) for _ in range(SCAN_POINTS_PER_PEAK - 1))
        scan += [k] + [k + SCAN_HALF_WIDTH_LOBES * lobe * x for x in offsets]
    return {"class": "grating", "K1": k1, "K2": k2,
            "length_mm": length_um * 1e-3, "K_scan": scan}


class Grating:
    """``synthesize_pattern`` for seeded (K1, K2, L), then a Fourier K-scan."""

    name = "grating"

    def __init__(self, workdir: Path, material):
        self.checks_run = Counter()

    def inputs(self, seed: int):
        for rng in _blocks(self.name, seed):
            for u in _stratified(rng, GRATING_BLOCK):
                yield _grating_request(rng, u)

    def warmup_input(self) -> dict:
        return _grating_request(random.Random("grating/warm-up"), 0.0)

    def prepare(self, params: dict) -> dict:
        return params

    def run(self, params: dict):
        design = qpm.periods_from_frequencies(params["K1"], params["K2"])
        pattern = qpm.synthesize_pattern(design, params["length_mm"])
        return [abs(qpm.fourier_component(pattern, k)) for k in params["K_scan"]]

    def check(self, params: dict, outcome) -> list[str]:
        self.checks_run["grating"] += 1
        return checks.grating(outcome[0], outcome[SCAN_POINTS_PER_PEAK])

    def items(self, params: dict) -> int:
        return len(params["K_scan"])


WORKLOADS = {w.name: w for w in (DesignSweep, Spectrum, Grating)}
