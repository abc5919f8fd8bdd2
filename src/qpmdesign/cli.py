"""Command-line front end.

Subcommands: design | sweep | spectrum | grating. Exit codes: 0 success,
2 for an ``errors.Infeasible`` design, 1 for any other toolkit error (an
unwritable ``--out`` too). CSV output uses 6 significant digits, except the
poling pattern, whose positions round-trip; JSON carries full precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import DesignConfig, load_config
from .errors import ConfigError, Infeasible, QpmDesignError
from .pipeline import Material, design_point
from .qpm import export_pattern_csv, fourier_component, synthesize_pattern

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PHYSICS = 2

# Fewer samples than this above half maximum and a spectrum's FWHM, found
# by linear interpolation between samples, is flagged as under-resolved.
MIN_SAMPLES_ABOVE_HALF = 5
# Most wavelength samples a spectrum may have, a bound on runtime and output
# size; peak memory grows by about 0.32 KB per sample (30 MiB at 10^5). A
# larger count is refused before any solve.
MAX_SPECTRUM_SAMPLES = 10**5


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError: exit 1 in one line, not 2 with usage."""

    def error(self, message):
        raise ConfigError(message)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        # some Python versions read "--samples=--" as an empty list of values
        for name in (key for key, value in vars(namespace).items() if value == []):
            self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return namespace, extras


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpmdesign",
        description="Design dual-period QPM photon-pair sources in "
                    "Ti-indiffused LiNbO3 waveguides.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON config file (default: built-in design point)")
        p.add_argument("--out", help="output directory (default: stdout/cwd)")
        p.add_argument("--temperature", type=float, metavar="degC",
                       help="override operating temperature")
        p.add_argument("--length-mm", type=float, metavar="L",
                       help="override interaction length")
        p.add_argument("--dump-config", action="store_true",
                       help="print the effective config JSON and exit")
        return p

    command("design", cmd_design, "evaluate a single design point")
    command("sweep", cmd_sweep, "sweep geometries, one CSV row per design")
    p_spec = command("spectrum", cmd_spectrum, "sample the two emission spectra")
    p_spec.add_argument("--half-range-nm", type=float, default=10.0,
                        help="scan half-range around the design signal "
                             "wavelength (positive; must cover both FWHMs)")
    p_spec.add_argument("--samples", type=int, default=2001,
                        help=f"number of wavelength samples (3 to {MAX_SPECTRUM_SAMPLES})")
    command("grating", cmd_grating, "synthesize the poling pattern")
    return parser


def _emit(text: str, out_dir: str | None, filename: str, before=()) -> None:
    """``text`` to stdout, or to ``filename`` in ``out_dir`` after the
    (filename, write(path)) pairs of ``before``; an OSError is a ConfigError."""
    if out_dir is None:
        sys.stdout.write(text)
        return
    out = Path(out_dir)
    writers = [*before, (filename, lambda path: path.write_text(text))]
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, write in writers:
            write(out / name)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc}") from exc
    print(f"wrote {' and '.join(str(out / name) for name, _ in writers)}")


def cmd_design(cfg: DesignConfig, material: Material, args) -> int:
    result = design_point(cfg.interaction(), cfg.single_geometry(), material)
    doc = result.to_dict()
    doc["geometry"] = {"width_um": cfg.width_um, "depth_um": cfg.depth_um}
    doc["units"] = {"wavelength": "nm", "geometry": "um", "period": "um",
                    "temperature": "degC", "length": "mm"}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out, "design.json")
    return EXIT_OK


def cmd_sweep(cfg: DesignConfig, material: Material, args) -> int:
    spec = cfg.interaction()
    lines = [
        "# geometry in um, periods in um, temperature "
        f"{cfg.temperature_c} degC, length {cfg.length_mm} mm",
        "depth_um,width_um,gamma,Lambda1_um,Lambda2_um,status",
    ]
    for geom in cfg.sweep_geometries():
        prefix = f"{_fmt(geom.depth_h)},{_fmt(geom.width_w)}"
        try:
            result = design_point(spec, geom, material)
        except Infeasible as exc:
            lines.append(f"{prefix},,,,{type(exc).__name__}")
            continue
        lines.append(
            f"{prefix},{_fmt(result.gamma)},{_fmt(result.design.Lambda1)},"
            f"{_fmt(result.design.Lambda2)},ok"
        )
    _emit("\n".join(lines) + "\n", args.out, "sweep.csv")
    return EXIT_OK


def cmd_spectrum(cfg: DesignConfig, material: Material, args) -> int:
    if args.samples > MAX_SPECTRUM_SAMPLES:
        raise ConfigError(f"--samples must be between 3 and {MAX_SPECTRUM_SAMPLES}, "
                          f"got {args.samples}")
    spec = cfg.interaction()
    spec.signal_grid(args.half_range_nm, args.samples)  # a bad window exits before any solve
    result = design_point(spec, cfg.single_geometry(), material)
    grid, i_oe, i_eo, f_oe, f_eo = result.spectra(args.half_range_nm, args.samples)
    above = {"oe": int(np.count_nonzero(i_oe >= 0.5)),
             "eo": int(np.count_nonzero(i_eo >= 0.5))}
    for name, bandwidth in (("oe", result.bandwidth_oe_nm), ("eo", result.bandwidth_eo_nm)):
        if above[name] < MIN_SAMPLES_ABOVE_HALF:
            # spacing 2 H / (n - 1) at most FWHM / (MIN + 1) keeps MIN samples
            # above half maximum. The FWHM is 0.886x the first-order
            # bandwidth; the sampled one of an under-resolved peak is about
            # the spacing itself.
            enough = math.ceil(2.0 * args.half_range_nm * (MIN_SAMPLES_ABOVE_HALF + 1)
                               / (0.886 * bandwidth)) + 1
            advice = (f"use --samples {enough} or more" if enough <= MAX_SPECTRUM_SAMPLES
                      else "narrow --half-range-nm")
            print(f"warning: the {name} peak is under-resolved (samples above "
                  f"half maximum: {above[name]}, want {MIN_SAMPLES_ABOVE_HALF}); "
                  f"{advice}", file=sys.stderr)
    lines = [
        "# wavelengths in nm, intensities normalized to peak 1",
        f"# FWHM_oe_nm = {_fmt(f_oe)}",
        f"# FWHM_eo_nm = {_fmt(f_eo)}",
        f"# samples_above_half_oe = {above['oe']}",
        f"# samples_above_half_eo = {above['eo']}",
        f"# bandwidth_approx_oe_nm = {_fmt(result.bandwidth_oe_nm)}",
        f"# bandwidth_approx_eo_nm = {_fmt(result.bandwidth_eo_nm)}",
        "lambda_s_nm,intensity_oe,intensity_eo",
    ]
    for lam, a, b in zip(grid, i_oe, i_eo):
        lines.append(f"{_fmt(lam)},{_fmt(a)},{_fmt(b)}")
    _emit("\n".join(lines) + "\n", args.out, "spectrum.csv")
    return EXIT_OK


def cmd_grating(cfg: DesignConfig, material: Material, args) -> int:
    result = design_point(cfg.interaction(), cfg.single_geometry(), material)
    design = result.design
    pattern = synthesize_pattern(design, cfg.length_mm)
    c1 = fourier_component(pattern, design.K1)
    c2 = fourier_component(pattern, design.K2)
    ideal = 4.0 / 3.141592653589793**2
    check = {
        "Lambda0_um": design.Lambda0,
        "Lambdap_um": design.Lambdap,
        "Lambda1_um": design.Lambda1,
        "Lambda2_um": design.Lambda2,
        "length_mm": cfg.length_mm,
        "abs_c_K1": abs(c1),
        "abs_c_K2": abs(c2),
        "ideal_first_order": ideal,
        "abs_c_K1_rel_dev": abs(c1) / ideal - 1.0,
        "abs_c_K2_rel_dev": abs(c2) / ideal - 1.0,
        "n_domain_boundaries": len(pattern.domain_boundaries),
    }
    _emit(json.dumps(check, indent=2, sort_keys=True) + "\n", args.out, "fourier_check.json",
          [("poling_pattern.csv", lambda path: export_pattern_csv(pattern, path))])
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {key: value for key, value in (("temperature_c", args.temperature),
                                                   ("length_mm", args.length_mm))
                     if value is not None}
        cfg = load_config(args.config, **overrides)
        material = cfg.material()  # before --dump-config, so a bad table exits 1
        if args.dump_config:
            sys.stdout.write(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
            return EXIT_OK
        return args.handler(cfg, material, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Infeasible as exc:
        print(f"infeasible design: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except QpmDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
