"""The batched mode solve against the scalar reference paths.

``solve_mode`` over arrays against element-wise scalar ``solve_mode``;
its Newton refinement and its existence verdict against a grid peak search
refined by Nelder-Mead; ``design_point`` against five scalar solves;
``DesignResult.spectra`` and ``filtered_gamma`` against a loop of scalar
solves per sample; the number of solves and the memory a spectrum
request takes; and the caller check on every field the solver returns.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpmdesign import (NoGuidedMode, TrialField, WaveguideGeometry, modesolver, neff_closed_form,
                       pipeline, solve_mode, spdc)
from qpmdesign.dispersion import IndexIncrementTable, SellmeierSet
from qpmdesign.pipeline import ModeContext, design_point

from conftest import DESIGN_TABLE
from oracles import (reference_design_point, reference_filtered_gamma, reference_mode,
                     reference_spectra)

# signal and idler bands (nm) of the differential tests
BANDS = {"signal": (770.0, 790.0), "idler": (1530.0, 1575.0)}
WIDE_BANDS = {"signal": (770.0, 790.0), "idler": (1530.0, 1600.0)}


@settings(max_examples=60, deadline=None)
@given(depth=st.floats(3.0, 14.0), width=st.floats(3.0, 14.0),
       points=st.lists(st.tuples(st.sampled_from(sorted(WIDE_BANDS.values())),
                                 st.floats(0.0, 1.0)), min_size=1, max_size=8),
       pol=st.sampled_from(["ordinary", "extraordinary"]))
# Newton from (1, 1) settles at neither 1530 nm nor 1600 nm: the array solve
# must name 1530 nm, the first failing point
@example(depth=8.25, width=3.0, points=[((1530.0, 1600.0), 0.0), ((1530.0, 1600.0), 1.0)],
         pol="ordinary")
def test_array_solve_matches_scalar_solves(material, depth, width, points, pol):
    """An array solve is the element-wise scalar solves, and raises
    NoGuidedMode, naming the first such wavelength, exactly when one does."""
    lams = np.array([lo + (hi - lo) * u for (lo, hi), u in points])
    ctx = ModeContext(material, WaveguideGeometry(width, depth))
    scalars = []
    for lam in lams:
        try:
            scalars.append(ctx.solve(pol, float(lam)))
        except NoGuidedMode:
            scalars.append(None)
    if None in scalars:
        first = float(lams[scalars.index(None)])
        with pytest.raises(NoGuidedMode, match=re.escape(f" at {first} nm ")):
            ctx.solve(pol, lams)
        return
    batch = ctx.solve(pol, lams)
    for k, one in enumerate(scalars):
        assert abs(batch.n_eff[k] - one.n_eff) <= 1e-13
        assert abs(batch.field.alpha_y[k] - one.field.alpha_y) <= 1e-9
        assert abs(batch.field.alpha_z[k] - one.field.alpha_z) <= 1e-9
        assert batch.guided[k] == one.guided


@settings(max_examples=40, deadline=None)
@given(depth=st.floats(7.0, 14.0), width=st.floats(7.0, 14.0),
       lam=st.one_of(*(st.floats(lo, hi) for lo, hi in BANDS.values())),
       pol=st.sampled_from(["ordinary", "extraordinary"]))
# quasi-guided modes of a 3.31 x 9.8 um guide, where unsafeguarded Newton
# from the oracle's grid seed runs into the saddle at alpha = 0 or onto the
# mirror maximum at negative alphas
@example(depth=9.8, width=3.31, lam=1681.0, pol="ordinary")
@example(depth=9.8, width=3.31, lam=1690.0, pol="ordinary")
@example(depth=9.8, width=3.31, lam=1655.0, pol="extraordinary")
@example(depth=9.8, width=3.31, lam=1675.0, pol="extraordinary")
@example(depth=9.8, width=3.31, lam=1698.0, pol="extraordinary")
def test_newton_matches_nelder_mead(material, depth, width, lam, pol):
    ctx = ModeContext(material, WaveguideGeometry(width, depth))
    mode = ctx.solve(pol, lam)
    ref = reference_mode(ctx, pol, lam)
    assert ref is not None, "no peak on the oracle's grids"
    n_eff, alpha_y, alpha_z, guided = ref
    assert abs(mode.n_eff - n_eff) <= 1e-12
    assert abs(mode.field.alpha_y - alpha_y) <= 1e-5
    assert abs(mode.field.alpha_z - alpha_z) <= 1e-5
    assert mode.guided == guided


@pytest.mark.parametrize("width, depth, pol, lam", [
    (6.0, 6.5, "extraordinary", 1570.0),
    (10.0, 10.0, "ordinary", 1551.0),
    (10.0, 10.0, "ordinary", 780.0),
])
def test_newton_accepts_only_local_maxima(material, width, depth, pol, lam):
    """From seeds spread over the alpha plane, among them seeds near saddles
    of the closed form, only maxima may be accepted."""
    n_b = material.sellmeier.index(pol, lam, 25.0)
    dn = material.increments.increment(pol, lam)
    seeds = np.linspace(0.05, 12.0, 40)
    ay0, az0 = (a.ravel() for a in np.meshgrid(seeds, seeds, indexing="ij"))
    ay, az, accepted = modesolver._newton(width, depth, n_b, dn, lam, ay0, az0)
    assert accepted.any()
    ay, az = ay[accepted], az[accepted]

    def f(dy, dz):
        return modesolver.neff_closed_form(ay + dy, az + dz, width, depth, n_b, dn, lam)

    peak = f(0.0, 0.0)
    eps = 1e-4
    for dy, dz in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]:
        assert np.all(f(eps * dy, eps * dz) < peak)


@pytest.mark.parametrize("width, depth, lam", [
    (8.25, 3.0, 1600.0),  # rejected: the halving cap shortens every step
    (10.0, 10.0, 1551.0),
])
def test_newton_one_point_chunk_is_that_point_of_a_larger_chunk(material, width, depth, lam):
    """A point refined alone in a one-point chunk returns the bits it gets
    as element 2 of a five-point chunk."""
    lams = np.array([780.0, lam - 20.0, lam, lam + 20.0, 1700.0])
    n_b = material.sellmeier.index("ordinary", lams, 25.0)
    dn = material.increments.increment("ordinary", lams)
    ones = np.ones(5)
    chunk = modesolver._newton(width, depth, n_b, dn, lams, ones, ones)
    alone = modesolver._newton(width, depth, n_b[2:3], dn[2:3], lams[2:3], ones[:1], ones[:1])
    for one, many in zip(alone, chunk):
        assert one.shape == (1,)
        assert one.tobytes() == many[2:3].tobytes()


def test_solver_output_passes_the_caller_check(table_results, monkeypatch):
    """Every field the solver returns has its alphas above ALPHA_CUT and
    builds as a caller's TrialField: the five design modes of the four
    table rows, the four arms of ``amplitudes_at`` over 201 samples and a
    3,000-point warm ``solve_mode``. So solver output may skip the check."""
    fields = []

    def check(mode):
        f = mode.field
        assert np.all(f.alpha_y > modesolver.ALPHA_CUT)
        assert np.all(f.alpha_z > modesolver.ALPHA_CUT)
        TrialField(f.alpha_y, f.alpha_z, f.width_w, f.depth_h)
        fields.append(f)

    def solve_many(ctx, requests, starts=None):
        modes = original(ctx, requests, starts)
        for mode in modes:
            check(mode)
        return modes

    original = ModeContext.solve_many
    monkeypatch.setattr(ModeContext, "solve_many", solve_many)
    for result in table_results.values():
        for mode in result.modes.values():
            check(mode)
        result.amplitudes_at(result.spec.signal_grid(8.0, 201))
    assert len(fields) == 4 * (5 + 4)
    ie = table_results[(10.0, 10.0)].modes["ie"]
    lams = np.random.default_rng(7).uniform(1450.0, 1700.0, 3000)
    ctx = table_results[(10.0, 10.0)].context
    n_b, dn = ctx.indices("extraordinary", lams)
    check(solve_mode(ctx.geometry, n_b, dn, lams, "extraordinary",
                     ie.field.alpha_y, ie.field.alpha_z))
    assert fields[-1].alpha_y.shape == (3000,)


def test_first_failing_point_over_all_stages(material):
    """NoGuidedMode names the first failing point in array order, whatever
    the stage it fails in: a point past cutoff before one without an index
    increment is named with its own reason."""
    geom = WaveguideGeometry(4.5, 4.0)
    n_b = material.sellmeier.index("ordinary", 1551.0, 25.0)
    with pytest.raises(NoGuidedMode, match=re.escape(
            "no interior maximum of n_eff^2 at 1551.0 nm (w=4.5 um, h=4.0 um, dn=0.0025)")):
        solve_mode(geom, n_b, [0.0025, 0.0], [1551.0, 1552.0])
    with pytest.raises(NoGuidedMode, match=re.escape("no index increment at 1552.0 nm ")):
        solve_mode(geom, n_b, [0.0, 0.0025], [1552.0, 1551.0])


@settings(max_examples=60, deadline=None)
@given(depth=st.floats(3.0, 14.0), width=st.floats(3.0, 14.0))
@example(depth=4.0, width=4.5)  # the ordinary idler is past cutoff
@example(depth=6.5, width=6.0)
# bandwidth_oe moved by 1.9e-11 relative while settled points kept stepping
# until the slowest point of the batch settled
@example(depth=7.36722261056995, width=5.794803774482596)
def test_design_point_matches_five_scalar_solves(spec, material, depth, width):
    """One solve of the five modes gives the figures of five scalar solves,
    and raises the first failing mode's NoGuidedMode exactly when they do."""
    geom = WaveguideGeometry(width, depth)
    try:
        ref = reference_design_point(spec, geom, material)
    except NoGuidedMode as exc:
        with pytest.raises(NoGuidedMode) as raised:
            design_point(spec, geom, material)
        assert str(raised.value) == str(exc)
        return
    result = design_point(spec, geom, material)
    g = result.design
    got = {"gamma": result.gamma, "Lambda1": g.Lambda1, "Lambda2": g.Lambda2,
           "Lambda0": g.Lambda0, "Lambdap": g.Lambdap,
           "bandwidth_oe_nm": result.bandwidth_oe_nm,
           "bandwidth_eo_nm": result.bandwidth_eo_nm}
    for name, value in ref.items():
        assert got[name] == pytest.approx(value, rel=1e-12, abs=0.0), name


def test_solve_over_several_chunks_matches_per_arm_solves(reference_result):
    """A solve of the four signal and idler arms that spans two Newton
    chunks, one arm split between them, equals the solves of one arm at a
    time, each within one chunk."""
    n = 2047
    assert n < modesolver.NEWTON_CHUNK < 4 * n
    lam_s = np.linspace(770.0, 790.0, n)
    lam_i = reference_result.spec.idler_for(lam_s)
    requests = [("ordinary", lam_s), ("extraordinary", lam_s),
                ("ordinary", lam_i), ("extraordinary", lam_i)]
    ctx = reference_result.context
    for (pol, lams), mode in zip(requests, ctx.solve_many(requests)):
        one = ctx.solve(pol, lams)
        assert mode.polarization == one.polarization == pol
        np.testing.assert_array_equal(mode.wavelength_nm, lams)
        assert np.max(np.abs(mode.n_eff - one.n_eff)) <= 1e-13
        np.testing.assert_array_equal(mode.guided, one.guided)


def test_scalar_amplitudes_are_one_element_of_the_batch(reference_result):
    lams = np.array([779.5, 780.0, 780.7])
    batch = reference_result.amplitudes_at(lams)
    for k, lam in enumerate(lams):
        one = reference_result.amplitudes_at(float(lam))
        assert isinstance(one.C_oe_rel, complex) and isinstance(one.delta_k_eo, float)
        for name, value in vars(one).items():
            assert value == getattr(batch, name)[k]


def same_bits(scalar, batch, kind):
    """``scalar`` is a numpy scalar of type ``kind`` with the bits of
    ``batch[0]``."""
    assert type(scalar) is kind
    assert scalar.tobytes() == batch[0].tobytes()


@pytest.mark.parametrize("depth, width", [row[:2] for row in DESIGN_TABLE])
def test_scalar_calls_are_element_0_of_the_batch(table_results, depth, width):
    """A scalar request gives numpy scalars with the bits of element 0 of
    the same call on a one-element array of wavelengths."""
    result = table_results[(depth, width)]
    spec, ctx = result.spec, result.context
    material, geom = ctx.material, ctx.geometry
    f64 = np.float64
    for lam in (spec.lambda_p_nm, spec.lambda_s_nm, spec.lambda_i_nm):
        one = np.array([lam])
        same_bits(material.sellmeier.index("o", lam, 25.0),
                  material.sellmeier.index("o", one, 25.0), f64)
        same_bits(material.increments.increment("e", lam),
                  material.increments.increment("e", one), f64)
        same_bits(neff_closed_form(1.3, 0.8, geom.width_w, geom.depth_h, 2.2, 0.003, lam),
                  neff_closed_form(1.3, 0.8, geom.width_w, geom.depth_h, 2.2, 0.003, one),
                  f64)
        n_b, dn = ctx.indices("ordinary", lam)
        for scalar, batch in ((solve_mode(geom, n_b, dn, lam), solve_mode(geom, [n_b], [dn], one)),
                              (ctx.solve("e", lam), ctx.solve("e", one))):
            for name in ("wavelength_nm", "n_eff", "n_bulk", "delta_n"):
                same_bits(getattr(scalar, name), getattr(batch, name), f64)
            same_bits(scalar.field.alpha_y, batch.field.alpha_y, f64)
            same_bits(scalar.field.alpha_z, batch.field.alpha_z, f64)
            same_bits(scalar.guided, batch.guided, np.bool_)
    lam_s = spec.lambda_s_nm
    same_bits(spec.idler_for(lam_s), spec.idler_for(np.array([lam_s])), f64)
    # at the design wavelength a scalar request is the design point itself
    amps, batch = result.amplitudes_at(lam_s), result.amplitudes_at(np.array([lam_s]))
    for name, value in vars(amps).items():
        kind = np.complex128 if name.startswith("C_") else f64
        same_bits(value, np.array([getattr(result.amplitudes, name)]), kind)
        same_bits(value, getattr(batch, name), kind)


def test_spectra_match_per_sample_reference(reference_result):
    grid, i_oe, i_eo, f_oe, f_eo = reference_result.spectra(10.0, 2001)
    ref_grid, ref_oe, ref_eo, ref_f_oe, ref_f_eo = reference_spectra(
        reference_result, 10.0, 2001)
    np.testing.assert_array_equal(grid, ref_grid)
    assert np.max(np.abs(i_oe - ref_oe)) <= 1e-9
    assert np.max(np.abs(i_eo - ref_eo)) <= 1e-9
    assert f_oe == pytest.approx(ref_f_oe, rel=1e-9, abs=0.0)
    assert f_eo == pytest.approx(ref_f_eo, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("depth, width", [row[:2] for row in DESIGN_TABLE])
def test_filtered_gamma_matches_per_sample_reference(table_results, depth, width):
    result = table_results[(depth, width)]
    assert result.filtered_gamma(0.1) == pytest.approx(
        reference_filtered_gamma(result, 0.1), rel=1e-6, abs=0.0)


def test_spectrum_request_solve_count(spec, material, monkeypatch):
    """A design point solves its five modes in one call (the group indices
    re-solve none); spectra and filtered gamma each solve their four modes
    at every sample in one call, and a zero-width filter solves none."""
    sizes = []
    solve_mode = pipeline.solve_mode

    def counted(*args, **kwargs):
        sizes.append(np.size(args[3]))
        return solve_mode(*args, **kwargs)

    monkeypatch.setattr(pipeline, "solve_mode", counted)
    result = design_point(spec, WaveguideGeometry(10.0, 10.0), material)
    # zero width: the unfiltered gamma, bit for bit, without a solve
    assert result.filtered_gamma(0.0).hex() == result.gamma.hex()
    result.spectra(10.0, 2001)
    result.filtered_gamma(0.1)
    assert sizes == [5, 4 * 2001, 4 * spdc.FILTER_SAMPLES]


def test_material_lookup_count(spec, material, monkeypatch):
    """A design point looks up each polarization once for its five modes
    and each of its four group indices' two stencil wavelengths in one call:
    6 Sellmeier and 6 increment calls. Spectra and filtered gamma add one of
    each per polarization, so a spectrum request makes 10 Sellmeier calls."""
    calls = {"index": 0, "increment": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(SellmeierSet, "index")
    counted(IndexIncrementTable, "increment")
    result = design_point(spec, WaveguideGeometry(10.0, 10.0), material)
    assert calls == {"index": 6, "increment": 6}
    result.spectra(10.0, 201)
    result.filtered_gamma(0.1)
    assert calls == {"index": 10, "increment": 10}


def test_spectrum_requests_start_from_the_design_modes(spec, material, monkeypatch):
    """Spectra and filtered gamma start every mode from its design-point
    mode, not from (1, 1): at d = w = 10 um, spectra(10, 2001), two Newton
    chunks, takes 4 + 4 Newton steps and filtered_gamma(0.1) takes 3,
    against 6 + 4 and 6 from (1, 1)."""
    result = design_point(spec, WaveguideGeometry(10.0, 10.0), material)
    steps = [0]
    ascent_direction = modesolver._ascent_direction

    def counted(*args):
        steps[0] += 1
        return ascent_direction(*args)

    monkeypatch.setattr(modesolver, "_ascent_direction", counted)
    result.spectra(10.0, 2001)
    assert steps[0] == 8
    result.filtered_gamma(0.1)
    assert steps[0] == 8 + 3


@settings(max_examples=60, deadline=None)
@given(depth=st.floats(3.0, 14.0), width=st.floats(3.0, 14.0),
       lams=st.lists(st.one_of(st.floats(740.0, 820.0), st.floats(1450.0, 1700.0)),
                     min_size=1, max_size=8),
       pol=st.sampled_from(["ordinary", "extraordinary"]))
# between the cold fold of the 6.5 x 6 um row's extraordinary idler, about
# 1591.95238 nm, and the warm one, about 1591.95249 nm
@example(depth=6.5, width=6.0, lams=[1591.95243, 1591.9, 1592.0, 780.0], pol="extraordinary")
def test_warm_start_matches_cold_start(material, depth, width, lams, pol):
    """A solve started from the mode at 780 nm (signal band) or 1551 nm
    (idler band) accepts where the solve from (1, 1) does, except within
    1e-3 nm of a fold of the cold solve (the resolution of ``_fold``), and
    gives its n_eff within 1e-13 and its alphas within 1e-9."""
    ctx = ModeContext(material, WaveguideGeometry(width, depth))
    for lam in lams:
        design_lam = 780.0 if lam < 1000.0 else 1551.0
        if not _accepts(ctx, pol, design_lam):
            continue
        start = ctx.solve(pol, design_lam).field
        n_b, dn = ctx.indices(pol, lam)
        try:
            warm = solve_mode(ctx.geometry, n_b, dn, lam,
                              alpha_y0=start.alpha_y, alpha_z0=start.alpha_z)
        except NoGuidedMode:
            warm = None
        try:
            cold = solve_mode(ctx.geometry, n_b, dn, lam)
        except NoGuidedMode:
            cold = None
        if (warm is None) != (cold is None):
            assert _accepts(ctx, pol, lam - 1e-3) != _accepts(ctx, pol, lam + 1e-3), lam
            continue
        if warm is not None:
            assert abs(warm.n_eff - cold.n_eff) <= 1e-13
            assert abs(warm.field.alpha_y - cold.field.alpha_y) <= 1e-9
            assert abs(warm.field.alpha_z - cold.field.alpha_z) <= 1e-9
            assert warm.guided == cold.guided


def test_spectra_peak_memory(reference_result):
    """A spectrum traces about 0.3 KB per sample at its peak: no per-sample
    table, and each Newton chunk's n_eff is finished within the chunk."""
    for n_samples, bound_mib in ((20001, 16), (10**5, 36)):
        tracemalloc.start()
        try:
            reference_result.spectra(10.0, n_samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, n_samples


def test_solve_many_requests_share_one_shape(reference_result, monkeypatch):
    """Requests are the rows of one stacked solve: wavelengths of different
    shapes raise ValueError before any index lookup or solve."""
    ctx = reference_result.context

    def no_call(*args, **kwargs):
        raise AssertionError("called before the shapes were checked")

    monkeypatch.setattr(pipeline, "solve_mode", no_call)
    monkeypatch.setattr(ctx, "indices", no_call)
    for lams in ([780.0, 781.0], [[780.0, 781.0]], [780.0]):
        with pytest.raises(ValueError):
            ctx.solve_many([("ordinary", 780.0), ("extraordinary", np.array(lams))])


def test_spectra_at_cutoff_still_raise(table_results):
    """The +-10 nm scan's first idler, 1592.151394422311 nm (signal 770 nm),
    lies only about 0.2 nm past the extraordinary fold of the 6.5 x 6 um
    row, where Newton from (1, 1) stops settling: 1591.9 nm is accepted,
    1592.0 nm raises."""
    ctx = table_results[(6.5, 6.0)].context
    assert not ctx.solve("extraordinary", 1591.9).guided
    with pytest.raises(NoGuidedMode):
        ctx.solve("extraordinary", 1592.0)
    with pytest.raises(NoGuidedMode, match=re.escape(" at 1592.151394422311 nm ")):
        table_results[(6.5, 6.0)].spectra()


def test_batch_raises_where_solve_mode_finds_no_mode(table_results):
    """Existence is Newton's acceptance from (1, 1). At 1585 nm, where the
    former seed grids showed no peak, the extraordinary idler of the
    6.5 x 6 um row is a shallow, quasi-guided maximum (n_eff - n_b about
    -8.9e-5); past the fold, at 1593 nm, a scalar and a batch solve raise
    and the batch names that point."""
    ctx = table_results[(6.5, 6.0)].context
    mode = ctx.solve("extraordinary", 1585.0)
    assert not mode.guided
    assert -1e-4 < mode.n_eff - mode.n_bulk < -8e-5
    with pytest.raises(NoGuidedMode):
        ctx.solve("extraordinary", 1593.0)
    with pytest.raises(NoGuidedMode, match=re.escape(" at 1593.0 nm ")):
        ctx.solve("extraordinary", [1570.0, 1593.0])


def _accepts(ctx, pol, lam):
    try:
        ctx.solve(pol, lam)
    except NoGuidedMode:
        return False
    return True


def _fold(ctx, pol, lo=500.0, hi=2000.0):
    """The wavelength (to 1e-3 nm) where ``solve_mode`` stops accepting."""
    assert _accepts(ctx, pol, lo) and not _accepts(ctx, pol, hi)
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _accepts(ctx, pol, mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("seed", range(16))
def test_existence_matches_grid_oracle_near_the_fold(material, seed):
    """Near the fold of a seeded geometry, every point where the oracle's
    grids show a peak is accepted with the oracle's n_eff; a point accepted
    without a grid peak is quasi-guided; and an array solve raises, naming
    the first point a scalar solve rejects, exactly when one does."""
    rng = np.random.default_rng(seed)
    depth, width = rng.uniform(3.0, 8.0, 2)
    pol = ("ordinary", "extraordinary")[rng.integers(2)]
    ctx = ModeContext(material, WaveguideGeometry(width, depth))
    lams = _fold(ctx, pol) + rng.uniform(-40.0, 5.0, 8)
    first_failing = None
    for lam in map(float, lams):
        ref = reference_mode(ctx, pol, lam)
        try:
            mode = ctx.solve(pol, lam)
        except NoGuidedMode:
            assert ref is None, f"the oracle's grids find a mode at {lam} nm"
            first_failing = first_failing or lam
            continue
        if ref is None:
            assert not mode.guided
        else:
            assert abs(mode.n_eff - ref[0]) <= 1e-13
            assert mode.guided == ref[3]
    if first_failing is None:
        ctx.solve(pol, lams)
    else:
        with pytest.raises(NoGuidedMode, match=re.escape(f" at {first_failing} nm ")):
            ctx.solve(pol, lams)
