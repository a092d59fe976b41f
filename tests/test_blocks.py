"""Column blocks change no bit, and bound the temporaries.

analyze, frame_ode_residual, construct_offset and verify_offset run their
per-sample arithmetic in column blocks of surface.BLOCK samples.  Each
result is compared, at the block seams, with a full-array reference of
the same formulas kept in this file: every analysis field as raw bytes,
the frame-ODE maxima, the constructed offset and every OffsetReport row
as float.hex.  At n = BLOCK + 1 the last block is one sample wide and
lies wholly inside the END_TRIM end; at n = BLOCK + 1 to BLOCK + 3 it is
narrower than the 2-column halo from which a second derivative without an
oracle is formed (surface._grid_derivative), and BLOCK + 2 is an even n.
tracemalloc bounds what an analysis holds and what the frame-ODE check and
verify_offset allocate, in units of one (3, n) field.  The indicatrix speed
is guarded per block, before the block's striction arithmetic divides by it.
"""

import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from ruledgeom import catalog
from ruledgeom.dual import DualScalar, cross3, dot3, dual_div, norm3
from ruledgeom.errors import DegenerateIndicatrix
from ruledgeom.offsets import (THETA_BAND, OffsetSpec, construct_offset,
                               offset_angle, predicted_invariants,
                               verify_offset)
from ruledgeom.surface import (BLOCK, END_TRIM, SurfaceSpec, _blocks,
                               _eval_curve, _grid_of, analyze,
                               frame_ode_residual, sampled_surface,
                               simpson_integrator, spline_surface)

NS = (5, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, BLOCK + 3,
      2 * BLOCK + 1)
U_MAX = 2.5 / np.sin(np.pi / 4)
OFFSETS = {
    "theorem": OffsetSpec.theorem(2.8, 0.7),
    "constant": OffsetSpec.constant(0.5, 1.0),
    # theta = 3.5 - s leaves the band (0, pi) at s = 0.36, inside the
    # first block for n = BLOCK - 1 ... 2 BLOCK + 1
    "theta_band": OffsetSpec.theorem(3.5, 0.7),
}
FIELDS = ("u", "s", "s_star", "sigma", "c", "e", "t", "g", "e_star",
          "t_star", "g_star", "Delta", "delta", "gamma", "gamma_dual",
          "e_u", "e_uu", "c_u")
MOMENTS = ("e_star", "t_star", "g_star")
DERIVATIVES = ("e_u", "e_uu", "c_u")


def whole(a, name):
    """The field `name` of the analysis a on the whole grid: stored, a
    moment of its dual frame, or a derivative."""
    if name in MOMENTS:
        return a.dual_frame()[MOMENTS.index(name)].dual
    if name in DERIVATIVES:
        return a.derivative(name)
    return getattr(a, name)


# -- full-array references -------------------------------------------------

def ref_fd1(y, h):
    d = np.empty_like(y)
    d[:, 1:-1] = (y[:, 2:] - y[:, :-2]) / (2.0 * h)
    d[:, 0] = (-3.0 * y[:, 0] + 4.0 * y[:, 1] - y[:, 2]) / (2.0 * h)
    d[:, -1] = (3.0 * y[:, -1] - 4.0 * y[:, -2] + y[:, -3]) / (2.0 * h)
    return d


def ref_analyze(spec) -> dict:
    u, h = _grid_of(spec)
    e = _eval_curve(spec.director, u)
    e_u = (_eval_curve(spec.director_d1, u) if spec.director_d1 is not None
           else ref_fd1(e, h))
    e_uu = (_eval_curve(spec.director_d2, u) if spec.director_d2 is not None
            else ref_fd1(e_u, h))
    sigma = norm3(e_u)
    p = _eval_curve(spec.base, u)
    p_u = (_eval_curve(spec.base_d1, u) if spec.base_d1 is not None
           else ref_fd1(p, h))
    sig2 = sigma * sigma
    sig3 = sig2 * sigma
    pu_eu = dot3(p_u, e_u)
    lam = -pu_eu / sig2
    c = p + lam * e
    if spec.has_analytic_frame:
        p_uu = _eval_curve(spec.base_d2, u)
        sig_u = dot3(e_u, e_uu) / sigma
        lam_u = (-(dot3(p_uu, e_u) + dot3(p_u, e_uu)) / sig2
                 + 2.0 * pu_eu * sig_u / sig3)
        c_u = p_u + lam_u * e + lam * e_u
    else:
        c_u = ref_fd1(c, h)
    t = e_u / sigma
    g = cross3(e, t)
    c_s = c_u / sigma
    delta = dot3(c_s, e)
    Delta = dot3(c_s, g)
    gamma = dot3(cross3(e, e_u), e_uu) / sig3
    integrate = simpson_integrator(u)
    return dict(u=u, s=integrate(sigma), s_star=integrate(Delta * sigma),
                sigma=sigma, c=c, e=e, t=t, g=g, e_star=cross3(c, e),
                t_star=cross3(c, t), g_star=cross3(c, g), Delta=Delta,
                delta=delta, gamma=gamma, gamma_dual=delta - gamma * Delta,
                e_u=e_u, e_uu=e_uu, c_u=c_u)


def ref_frame_ode(a) -> tuple:
    sl = slice(END_TRIM, a.n - END_TRIM)
    h = float(a.u[1] - a.u[0])
    e_u, e_uu, c_u, e_star, t_star, g_star = (
        whole(a, name) for name in DERIVATIVES + MOMENTS)
    if a.c_u is not None:   # held exactly when every oracle is given
        sig_u = dot3(e_u, e_uu) / a.sigma
        t_u = e_uu / a.sigma - e_u * (sig_u / (a.sigma ** 2))
        g_u = cross3(e_u, a.t) + cross3(a.e, t_u)
    else:
        t_u, g_u = ref_fd1(a.t, h), ref_fd1(a.g, h)
    res_t = norm3(t_u / a.sigma - (a.gamma * a.g - a.e))
    res_g = norm3(g_u / a.sigma + a.gamma * a.t)
    inv_speed = dual_div(DualScalar(1.0, 0.0),
                         DualScalar(a.sigma, a.sigma * a.Delta))

    def d_dsbar_dual(vec_u, vec):
        moment_u = cross3(c_u, vec) + cross3(a.c, vec_u)
        return inv_speed.real * moment_u + inv_speed.dual * vec_u

    rhs_t = (a.gamma * g_star + a.gamma_dual * a.g) - e_star
    gbar_t = a.gamma * t_star + a.gamma_dual * a.t
    dres = (norm3(d_dsbar_dual(e_u, a.e) - t_star),
            norm3(d_dsbar_dual(t_u, a.t) - rhs_t),
            norm3(d_dsbar_dual(g_u, a.g) + gbar_t))
    ortho = np.max([np.max(np.abs(x)) for x in (
        dot3(a.e, a.t), dot3(a.t, a.g), dot3(a.e, a.g),
        norm3(a.e) - 1.0, norm3(a.t) - 1.0, norm3(a.g) - 1.0)])
    return (float(np.max([np.max(r[sl]) for r in (res_t, res_g)])),
            float(np.max([np.max(r[sl]) for r in dres])), float(ortho))


def ref_construct(a, spec) -> dict:
    if spec.mode == "theorem_consistent":
        th = offset_angle(a, spec.c, spec.c_star)
    else:
        th = DualScalar(np.full(a.n, spec.theta),
                        np.full(a.n, spec.theta_star))
    cos, sin = np.cos(th.real), np.sin(th.real)
    cos_bar = DualScalar(cos, -th.dual * sin)
    sin_bar = DualScalar(sin, th.dual * cos)
    e_t, t_t, _ = a.dual_frame()
    ruling = cos_bar * e_t + sin_bar * t_t
    e1 = ruling.real / norm3(ruling.real)
    c1 = a.c + th.dual * a.g
    return dict(theta_bar=th, cos_bar=cos_bar, sin_bar=sin_bar, e1=e1, c1=c1,
                transport=float(np.max(norm3(ruling.dual - cross3(c1, e1)))))


def ref_comparison(a, off, built) -> dict:
    """The Mannheim residuals, the rows and n_valid of verify_offset, from
    the base analysis, the offset's analysis and the reference offset."""
    th, cos_bar, sin_bar = (built[k] for k in ("theta_bar", "cos_bar",
                                               "sin_bar"))
    pred = predicted_invariants(a, th, cos_bar, sin_bar)
    n = a.n
    interior = np.zeros(n, dtype=bool)
    interior[END_TRIM:n - END_TRIM] = True
    in_band = (th.real > THETA_BAND) & (th.real < np.pi - THETA_BAND)
    base_ok = interior & in_band

    def max_at(arr, mask):
        return float(np.max(np.abs(arr[mask]))) if np.any(mask) else None

    rows = []

    def add(name, predicted, recomputed):
        mask = base_ok & np.isfinite(predicted)
        rows.append((name, bits(max_at(predicted - recomputed, mask)),
                     int(np.sum(mask))))

    speed_ratio = off.sigma / a.sigma
    add("ds1/ds", pred.dsbar1_dsbar.real, speed_ratio)
    add("dsbar1/dsbar (dual part)", pred.dsbar1_dsbar.dual,
        speed_ratio * (off.Delta - a.Delta))
    add("gamma1", pred.gamma1, off.gamma)
    add("Delta1", pred.Delta1, off.Delta)
    add("delta1", pred.delta1, off.delta)
    inv = off.invariants()
    add("R1 (real)", pred.R1.real, inv.R.real)
    add("R1 (dual)", pred.R1.dual, inv.R.dual)
    add("rho1 (angle)", pred.rho1.real, inv.rho.real)
    add("rho1 (distance)", pred.rho1.dual, inv.rho.dual)
    e1_t, _, g1_t = off.dual_frame()
    d0_pred = cos_bar * e1_t + sin_bar * g1_t
    d0_rec = inv.cos_rho * e1_t + inv.R * g1_t
    add("d0_1 (real)", norm3(d0_pred.real - d0_rec.real), np.zeros(n))
    add("d0_1 (dual)", norm3(d0_pred.dual - d0_rec.dual), np.zeros(n))
    return dict(mann_real=bits(max_at(norm3(a.g - off.t), interior)),
                mann_dual=bits(max_at(norm3(whole(a, "g_star")
                                            - whole(off, "t_star")),
                                      interior)),
                rows=rows, n_valid=int(np.sum(base_ok)))


# -- fixtures ---------------------------------------------------------------

def bits(x):
    return None if x is None else float(x).hex()


def on_grid(spec, u_max, n):
    return dataclasses.replace(spec, grid=np.linspace(0.0, u_max, n))


def cone(n):
    """The README cone with its oracles, on an n-sample grid (any n); its
    striction curve is the apex, so c and c_u vanish."""
    return on_grid(catalog.cone(np.pi / 4, (0.0, U_MAX), 5), U_MAX, n)


def small_circle(n):
    """A small circle with its oracles: a striction curve that moves."""
    u_max = 2.5 / np.sin(np.pi / 6)
    return on_grid(catalog.small_circle(np.pi / 6, 1.0, (0.0, u_max), 5),
                   u_max, n)


def sampled(n):
    """The small circle from its samples: grid differences, no oracles."""
    a = analyze(small_circle(n))
    return sampled_surface(a.u, a.e.T, a.c.T)


BASES = {"cone": cone, "small_circle": small_circle, "sampled": sampled}


@functools.lru_cache(maxsize=None)
def spec_of(base, n):
    return BASES[base](n)


def assert_same_bytes(a, ref: dict):
    for name in FIELDS:
        assert whole(a, name).tobytes() == ref[name].tobytes(), name


# -- tests ------------------------------------------------------------------

def test_block_partition():
    assert [(s.start, s.stop) for s in _blocks(2 * BLOCK + 1)] == [
        (0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, 2 * BLOCK + 1)]
    assert list(_blocks(5)) == [slice(0, 5)]
    n = BLOCK + 1
    last = list(_blocks(n))[-1]
    assert (last.start, last.stop) == (BLOCK, n) and BLOCK >= n - END_TRIM


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("base", BASES)
def test_analysis_and_frame_ode_equal_the_full_array_formulas(base, n):
    spec = spec_of(base, n)
    a = analyze(spec)
    assert_same_bytes(a, ref_analyze(spec))
    res = frame_ode_residual(a)
    assert tuple(map(bits, (res.real_max, res.dual_max,
                            res.orthonormality_max))) == tuple(
        map(bits, ref_frame_ode(a)))


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("base", BASES)
def test_offset_report_equals_the_full_array_formulas(base, n, offset):
    a = analyze(spec_of(base, n))
    spec = OFFSETS[offset]
    built = ref_construct(a, spec)
    con = construct_offset(a, spec)
    assert con.e1.tobytes() == built["e1"].tobytes()
    assert con.c1.tobytes() == built["c1"].tobytes()
    assert bits(con.transport_residual) == bits(built["transport"])

    rep = verify_offset(a, spec)
    assert_same_bytes(rep.offset_analysis, ref_analyze(
        spline_surface(a.u, built["e1"], built["c1"], "reference")))
    ref = ref_comparison(a, rep.offset_analysis, built)
    assert [(r.name, bits(r.deviation), r.n_compared)
            for r in rep.rows] == ref["rows"]
    assert bits(rep.mannheim_residual_real) == ref["mann_real"]
    assert bits(rep.mannheim_residual_dual) == ref["mann_dual"]
    assert rep.n_valid == ref["n_valid"]
    if offset == "theta_band" and n > 5:
        # the band ends inside a block: some samples in, some out
        assert 0 < rep.n_valid < n - 2 * END_TRIM


def test_nan_in_one_block_reads_nan():
    a = analyze(spec_of("cone", 2 * BLOCK + 1))
    e_uu = np.array(a.derivative("e_uu"))
    e_uu[:, BLOCK + 100] = np.nan
    a = dataclasses.replace(a, e_uu=e_uu)
    res = frame_ode_residual(a)
    assert np.isnan(res.real_max) and np.isnan(res.dual_max)
    assert bits(res.orthonormality_max) == bits(ref_frame_ode(a)[2])


# -- the speed guard, per block of the striction pass ------------------------

GUARD_N = 2 * BLOCK + 1


def stalling(oracle):
    """A circle director on u in [0, 1] that halts for u in [0.6, 0.65]
    (samples 9831 to 10649 of GUARD_N, all in the second block), over the
    line base (u, 0, 0), so <p', e'> / sigma^2 there would divide a
    nonzero by zero; with its speed oracle or from grid differences."""
    def angle(u):
        return np.minimum(u, 0.6) + np.maximum(u - 0.65, 0.0)

    def director(u):
        a = angle(u)
        return np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=-1)

    def director_d1(u):
        a, moving = angle(u), (u < 0.6) | (u > 0.65)
        return np.stack([-np.sin(a), np.cos(a), np.zeros_like(a)],
                        axis=-1) * moving[:, None]

    def base(u):
        return np.stack([u, np.zeros_like(u), np.zeros_like(u)], axis=-1)

    return SurfaceSpec(director=director, base=base, param_range=(0.0, 1.0),
                       sample_count=GUARD_N,
                       director_d1=director_d1 if oracle else None)


@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "sampled"])
def test_a_speed_that_vanishes_in_the_second_block_degenerates(oracle):
    # the guard reads each block's speed before its striction arithmetic
    # divides by it: no divide-by-zero warning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateIndicatrix,
                           match="^indicatrix speed falls to 0.000e[+]00: "):
            analyze(stalling(oracle))


def test_an_infinite_speed_in_the_second_block_names_its_cause():
    spec = spec_of("cone", GUARD_N)
    d1 = spec.director_d1

    def poisoned(u):
        out = np.array(d1(u), dtype=float)
        out[BLOCK + 100, 0] = np.inf
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^surface oracles returned "
                                             "non-finite samples$"):
            analyze(dataclasses.replace(spec, director_d1=poisoned))


def test_a_failing_base_is_reported_before_a_degenerate_director():
    # every oracle runs before the speed guard
    spec = dataclasses.replace(stalling(True),
                               base=lambda u: np.zeros((len(u), 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^curve callables must be "
                                             "vectorized, .* got shape"):
            analyze(spec)


def test_frame_ode_temporaries_stay_below_one_vector_field():
    # the full-array formulas peak at about ten (3, n) arrays
    n = 4 * BLOCK + 1
    a = analyze(catalog.cone(np.pi / 4, (0.0, 3.0), n))
    tracemalloc.start()
    try:
        frame_ode_residual(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.e.nbytes


# -- memory held and allocated, at n = 4 BLOCK + 1 --------------------------

MEMORY_N = 4 * BLOCK + 1


def traced(fn) -> tuple:
    """fn()'s result, and the traced memory held after it and at its peak,
    from a tracemalloc started just before it."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_a_sampled_analysis_holds_fewer_than_8_vector_fields():
    # u, s, s*, sigma, c, e, t, g and the four invariants: 6.3 fields; it
    # forms its moments and grid differences when they are read
    spec = sampled(MEMORY_N)
    a, held, _ = traced(lambda: analyze(spec))
    assert held < 8 * a.e.nbytes


def test_an_oracle_analysis_holds_fewer_than_11_vector_fields():
    # the sampled fields, e_u, e_uu, c_u and the oracles' cached cos and
    # sin of the grid: 10.3 fields
    spec = small_circle(MEMORY_N)
    a, held, _ = traced(lambda: analyze(spec))
    assert held < 11 * a.e.nbytes


def test_verify_offset_peaks_below_20_vector_fields():
    a = analyze(small_circle(MEMORY_N))
    _, _, peak = traced(lambda: verify_offset(a, OFFSETS["theorem"]))
    assert peak < 20 * a.e.nbytes


# -- where each row peaks ----------------------------------------------------

def ref_row_values(a, off, built) -> dict:
    """Each OffsetReport row's |predicted - recomputed| on the whole grid
    and the mask of the samples it compares (ref_comparison's rows)."""
    th, cos_bar, sin_bar = (built[k] for k in ("theta_bar", "cos_bar",
                                               "sin_bar"))
    pred = predicted_invariants(a, th, cos_bar, sin_bar)
    inv = off.invariants()
    base_ok = np.zeros(a.n, dtype=bool)
    base_ok[END_TRIM:a.n - END_TRIM] = True
    base_ok &= (th.real > THETA_BAND) & (th.real < np.pi - THETA_BAND)
    speed_ratio = off.sigma / a.sigma
    e1_t, _, g1_t = off.dual_frame()
    d0_pred = cos_bar * e1_t + sin_bar * g1_t
    d0_rec = inv.cos_rho * e1_t + inv.R * g1_t
    pairs = {
        "ds1/ds": (pred.dsbar1_dsbar.real, speed_ratio),
        "dsbar1/dsbar (dual part)": (pred.dsbar1_dsbar.dual,
                                     speed_ratio * (off.Delta - a.Delta)),
        "gamma1": (pred.gamma1, off.gamma),
        "Delta1": (pred.Delta1, off.Delta),
        "delta1": (pred.delta1, off.delta),
        "R1 (real)": (pred.R1.real, inv.R.real),
        "R1 (dual)": (pred.R1.dual, inv.R.dual),
        "rho1 (angle)": (pred.rho1.real, inv.rho.real),
        "rho1 (distance)": (pred.rho1.dual, inv.rho.dual),
        "d0_1 (real)": (norm3(d0_pred.real - d0_rec.real), 0.0),
        "d0_1 (dual)": (norm3(d0_pred.dual - d0_rec.dual), 0.0)}
    return {name: (np.abs(p - r), base_ok & np.isfinite(p))
            for name, (p, r) in pairs.items()}


# the README cone's theorem offset at n = 2001, and the block seams
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("n", (2001, BLOCK - 1, BLOCK + 1, BLOCK + 2,
                               BLOCK + 3, 2 * BLOCK + 1))
@pytest.mark.parametrize("base", BASES)
def test_each_row_records_where_it_peaks(base, n, offset):
    a = analyze(spec_of(base, n))
    spec = OFFSETS[offset]
    rep = verify_offset(a, spec)
    ref = ref_row_values(a, rep.offset_analysis, ref_construct(a, spec))
    assert [row.name for row in rep.rows] == list(ref)
    for row in rep.rows:
        values, mask = ref[row.name]
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            assert (row.deviation, row.n_compared, row.worst) == (None, 0,
                                                                  None)
            continue
        assert row.worst == idx[np.argmax(values[idx])], row.name
        assert END_TRIM <= row.worst < n - END_TRIM
        assert bits(row.deviation) == bits(values[row.worst])
