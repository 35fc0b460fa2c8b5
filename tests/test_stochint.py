import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalltime.cli import list_catalog
from smalltime.matcore import DomainError, SymMatrix
from smalltime.paths import (BrownianBundle, TimeGrid, geometric_grid,
                             refine_bisect, sample_bundle, uniform_grid)
from smalltime.stochint import (INTEGRAND_CATALOG, IntegrandSpec, VectorSpec,
                                catalog_integrand, closed_form_constant,
                                closed_form_trace, drift_integral,
                                integrate_double, integrate_double_martingale,
                                unit_bound_names)

from contract_host import host_difference


def _hand_bundle():
    """Single path W = (0, 1, 0) on times (0, 0.5, 1)."""
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]), kind="uniform")
    return BrownianBundle(dim=1, grid=grid, paths=np.array([[[0.0, 1.0, 0.0]]]),
                          seed=0)


def test_zero_integrand_gives_zero():
    b = sample_bundle(2, uniform_grid(1.0, 16), 5, seed=1)
    tr = integrate_double(b, catalog_integrand("zero", 2))
    assert np.all(tr.outer == 0.0) and np.all(tr.inner == 0.0)
    assert np.all(tr.qv_inner == 0.0) and np.all(tr.qv_outer == 0.0)


def test_hand_computed_two_step_path():
    tr = integrate_double(_hand_bundle(), IntegrandSpec.constant([[1.0]]))
    assert np.allclose(tr.inner[0, :, 0], [0.0, 1.0, 0.0])
    assert np.allclose(tr.outer[0], [0.0, 0.0, -1.0])
    # bracket bookkeeping: qv_inner = t, qv_outer = sum |Y|^2 dt
    assert np.allclose(tr.qv_inner[0, :, 0], [0.0, 0.5, 1.0])
    assert np.allclose(tr.qv_outer[0], [0.0, 0.0, 0.5])


def test_traces_start_at_zero():
    b = sample_bundle(1, uniform_grid(1.0, 8), 3, seed=2)
    tr = integrate_double(b, IntegrandSpec.constant([[0.7]]))
    assert np.all(tr.outer[:, 0] == 0.0) and np.all(tr.inner[:, 0] == 0.0)
    assert np.all(np.diff(tr.qv_outer, axis=1) >= 0.0)
    assert np.all(np.diff(tr.qv_inner[:, :, 0], axis=1) >= 0.0)


# ---------------------------------------------------------------- closed form

def test_closed_form_substitution():
    grid = TimeGrid(np.array([0.5]))
    w = np.array([[[1.0], [-1.0]]])
    b = BrownianBundle(dim=2, grid=grid, paths=w, seed=0)
    v = closed_form_constant(b, np.diag([1.0, 2.0]))
    assert v[0, 0] == pytest.approx((1.0 + 2.0 - 1.5) / 2.0)


def test_closed_form_zero_matrix():
    b = sample_bundle(2, uniform_grid(1.0, 4), 3, seed=3)
    assert np.all(closed_form_constant(b, np.zeros((2, 2))) == 0.0)


def test_closed_form_scalar_case():
    # one-dimensional constant integrand: V(t) = (W(t)^2 - t) / 2
    b = sample_bundle(1, uniform_grid(1.0, 4), 6, seed=4)
    v = closed_form_constant(b, [[1.0]])
    w = b.paths[:, 0, :]
    assert np.allclose(v, 0.5 * (w * w - b.grid.points[None, :]))


def test_closed_form_requires_symmetry():
    b = sample_bundle(2, uniform_grid(1.0, 2), 2, seed=5)
    with pytest.raises(ValueError):
        closed_form_constant(b, [[0.0, 1.0], [0.0, 0.0]])


def test_closed_form_trace_matches_closed_form():
    b = sample_bundle(2, geometric_grid(1e-3, 0.5, 12), 4, seed=6)
    beta = SymMatrix(np.array([[1.0, 0.5], [0.5, -0.5]]))
    tr = closed_form_trace(b, beta)
    assert np.allclose(tr.outer, closed_form_constant(b, beta))
    assert np.allclose(tr.inner, np.einsum("ij,pjn->pni", beta.entries, b.paths))


# --------------------------------------------------------------- convergence

def test_discrete_vs_closed_form_rms_halves_on_refinement():
    # RMS error of the left-point sums shrinks like sqrt(dt): refining the
    # same paths by 4x in steps should halve it, twice over
    beta = np.array([[2.0, 1.0], [1.0, -1.0]])
    spec = IntegrandSpec.constant(beta)
    b0 = sample_bundle(2, uniform_grid(1.0, 64), 1000, seed=99)
    b1 = refine_bisect(refine_bisect(b0))
    b2 = refine_bisect(refine_bisect(b1))
    rms = []
    for b in (b0, b1, b2):
        tr = integrate_double(b, spec)
        err = tr.final_outer() - closed_form_constant(b, beta)[:, -1]
        rms.append(math.sqrt(float(np.mean(err * err))))
    for coarse, fine in zip(rms, rms[1:]):
        assert coarse / fine == pytest.approx(2.0, rel=0.25)


def test_rms_magnitude_matches_theory():
    # Var(V_disc - V) = Tr[beta^2] T^2 / (2 n) for constant symmetric beta
    beta = np.array([[2.0, 1.0], [1.0, -1.0]])
    n = 256
    b = sample_bundle(2, uniform_grid(1.0, n), 4000, seed=41)
    tr = integrate_double(b, IntegrandSpec.constant(beta))
    err = tr.final_outer() - closed_form_constant(b, beta)[:, -1]
    predicted = math.sqrt(np.trace(beta @ beta) / (2.0 * n))
    assert math.sqrt(np.mean(err ** 2)) == pytest.approx(predicted, rel=0.15)


# ----------------------------------------------------------------- invariants

def test_linearity_of_discrete_sums():
    b = sample_bundle(2, uniform_grid(1.0, 32), 50, seed=7)
    m1 = np.array([[1.0, 0.2], [0.4, -0.3]])
    m2 = np.array([[0.5, -1.0], [0.1, 0.8]])
    t1 = integrate_double(b, IntegrandSpec.constant(m1))
    t2 = integrate_double(b, IntegrandSpec.constant(m2))
    t12 = integrate_double(b, IntegrandSpec.constant(m1 + m2))
    assert np.allclose(t12.outer, t1.outer + t2.outer, atol=1e-12)


def test_sign_flip_antisymmetry_exact():
    b = sample_bundle(2, uniform_grid(1.0, 32), 20, seed=8)
    m = np.array([[1.0, 0.2], [0.4, -0.3]])
    plus = integrate_double(b, IntegrandSpec.constant(m))
    minus = integrate_double(b, IntegrandSpec.constant(-m))
    # IEEE negation is exact, so the flip holds bit for bit
    assert np.array_equal(minus.outer, -plus.outer)
    assert np.array_equal(minus.inner, -plus.inner)


def test_ito_isometry_at_desk_scale():
    m = np.array([[0.6, 0.3], [0.1, -0.5]])
    b = sample_bundle(2, uniform_grid(1.0, 100), 20_000, seed=9)
    tr = integrate_double(b, IntegrandSpec.constant(m))
    v_t = tr.final_outer()
    var = float(np.var(v_t, ddof=1))
    qv_mean = float(np.mean(tr.qv_outer[:, -1]))
    se = var * math.sqrt(2.0 / v_t.size) + qv_mean * math.sqrt(2.0 / v_t.size)
    assert abs(var - qv_mean) < 5.0 * se


# ------------------------------------------------------- martingale variant

def test_martingale_constant_identity_m():
    b = sample_bundle(1, uniform_grid(1.0, 32), 10, seed=10)
    spec_b = IntegrandSpec.constant([[1.0]])
    dec = integrate_double_martingale(b, spec_b, IntegrandSpec.constant([[1.0]]))
    assert np.array_equal(dec.r1, np.zeros_like(dec.r1))
    assert np.array_equal(dec.r2, np.zeros_like(dec.r2))
    plain = integrate_double(b, spec_b)
    assert np.array_equal(dec.x, plain.outer)


def test_martingale_scaling_two_i():
    b = sample_bundle(1, uniform_grid(1.0, 32), 10, seed=11)
    spec_b = IntegrandSpec.constant([[1.0]])
    dec = integrate_double_martingale(b, spec_b, IntegrandSpec.constant([[2.0]]))
    plain = integrate_double(b, spec_b)
    # powers of two keep the bilinear scaling exact in floating point
    assert np.array_equal(dec.x, 4.0 * plain.outer)


def test_martingale_decomposition_reconstructs():
    b = sample_bundle(2, geometric_grid(1e-2, 0.5, 20), 200, seed=12)
    spec_b = catalog_integrand("tanh_w", 2)
    spec_m = catalog_integrand("linear_time", 2)
    dec = integrate_double_martingale(b, spec_b, spec_m)
    assert dec.recon_error < 1e-10


def _shifted_tanh_w(dim):
    """A path functional m = (1 + tanh W_1) I, with m(0) = I."""
    return IntegrandSpec(kind="path", dim=dim, name="shifted_tanh_w",
                         scale=lambda t, w: 1.0 + np.tanh(w[:, 0]))


@pytest.mark.parametrize("m_kind", ["constant", "time", "path"])
@pytest.mark.parametrize("b_name", ["identity", "rotation", "linear_time", "example36"])
def test_martingale_c_piece_is_the_double_integral_of_c(b_name, m_kind):
    """The c piece of the decomposition is the plain double integral V^c of
    c(t) = m(0)^T b(t) m(0), b's factor times m(0)^T M m(0), bit for bit."""
    d = 2
    bundle = sample_bundle(d, uniform_grid(0.05, 40), 50, seed=14)
    b = catalog_integrand(b_name, d)
    m = {"constant": catalog_integrand("rotation", d),
         "time": catalog_integrand("linear_time", d),
         "path": _shifted_tanh_w(d)}[m_kind]
    m0 = m.eval(0.0, np.zeros((1, d)))
    m0 = m0[0] if m0.ndim == 3 else m0
    mb = np.eye(d) if b.matrix is None else b.matrix
    c = IntegrandSpec(kind=b.kind, dim=d, name="c", matrix=m0.T @ mb @ m0,
                      scale=b.scale, t_max=b.t_max)
    c_piece = integrate_double_martingale(bundle, b, m).c_piece
    assert c_piece.tobytes() == integrate_double(bundle, c, keep="outer").outer.tobytes()


def test_martingale_residuals_vanish_at_small_times():
    # R_i(t)/t -> 0: compare windowed maxima of |R_i|/t at the small end
    # of a deep geometric grid against the large end
    b = sample_bundle(1, geometric_grid(1e-2, 0.5, 40), 2000, seed=13)
    dec = integrate_double_martingale(b, IntegrandSpec.constant([[1.0]]),
                                      catalog_integrand("linear_time", 1))
    t = dec.times
    for resid in (dec.r1, dec.r2):
        stat = np.abs(resid) / t[None, :]
        low = np.median(stat[:, :10].max(axis=1))
        high = np.median(stat[:, -10:].max(axis=1))
        assert low < 0.5 * high


# -------------------------------------------------------------- drift variant

def test_drift_integral_zero():
    b = sample_bundle(1, uniform_grid(1.0, 16), 4, seed=14)
    tr = drift_integral(b, VectorSpec.constant([0.0]),
                        IntegrandSpec.constant([[1.0]]), eps=0.5)
    assert np.all(tr.x == 0.0) and np.all(tr.scaled == 0.0)


def test_drift_integral_variance_t_cubed_over_three():
    # X(t) = int r dW has variance t^3/3
    b = sample_bundle(1, uniform_grid(1.0, 400), 100_000, seed=15)
    tr = drift_integral(b, VectorSpec.constant([1.0]),
                        IntegrandSpec.constant([[1.0]]), eps=0.5)
    var = float(np.var(tr.x[:, -1], ddof=1))
    se = (1.0 / 3.0) * math.sqrt(2.0 / tr.x.shape[0])
    assert abs(var - 1.0 / 3.0) < 5.0 * se


def test_drift_integral_scaled_statistic_shrinks():
    b = sample_bundle(1, geometric_grid(1e-4, 0.5, 60), 2000, seed=16)
    tr = drift_integral(b, VectorSpec.constant([1.0]),
                        IntegrandSpec.constant([[1.0]]), eps=0.5)
    stat = np.abs(tr.scaled)
    low = np.median(stat[:, :10].max(axis=1))
    high = np.median(stat[:, -10:].max(axis=1))
    assert low < 0.5 * high


def test_drift_integral_eps_validation():
    b = sample_bundle(1, uniform_grid(1.0, 4), 2, seed=17)
    with pytest.raises(ValueError):
        drift_integral(b, VectorSpec.constant([1.0]),
                       IntegrandSpec.constant([[1.0]]), eps=1.5)


# -------------------------------------------------------------------- catalog

def test_example36_integrand_domain():
    spec = catalog_integrand("example36", 1)
    # logloglog collapses to 1 at t = e^{-e^e}
    t_collapse = math.exp(-math.exp(math.e))
    assert spec.eval(t_collapse, None)[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert spec.eval(0.0, None)[0, 0] == 0.0
    with pytest.raises(DomainError):
        spec.eval(math.exp(-math.e), None)


def test_time_function_domain_error_propagates():
    grid = geometric_grid(0.06, 0.5, 3)  # crosses above e^-e? no: check eval at top
    b = sample_bundle(1, geometric_grid(0.06, 0.5, 3), 2, seed=18)
    # 0.06 < e^-e ~ 0.0659, fine; a grid reaching beyond the window fails
    integrate_double(b, catalog_integrand("example36", 1))
    bad = sample_bundle(1, geometric_grid(0.5, 0.5, 3), 2, seed=18)
    with pytest.raises(DomainError):
        integrate_double(bad, catalog_integrand("example36", 1))


def test_path_functionals_are_bounded():
    b = sample_bundle(2, uniform_grid(1.0, 64), 100, seed=19)
    for name in ("tanh_w", "clamp_w"):
        spec = catalog_integrand(name, 2)
        assert spec.bound <= 1.0
        tr = integrate_double(b, spec)
        assert np.all(np.isfinite(tr.outer))


def test_unit_bound_catalog_contents():
    names = unit_bound_names(2)
    assert "identity" in names and "zero" in names and "sign_flip" in names
    assert "rotation" in names and "tanh_w" in names and "clamp_w" in names
    assert "example36" not in names and "linear_time" not in names
    assert "rotation" not in unit_bound_names(1)


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog_integrand("not_there", 1)


# SHA-256 of every catalog spec's fields and of b as eval gives it: at
# times below e^-e, and for a path functional on rows holding 0, +-0.5
# and +-2
_PIN_TIMES = (0.0, 1e-300, 1e-30, 1e-3, 0.05)
_PIN_W = np.array([0.0, 0.5, -0.5, 2.0, -2.0])
_CATALOG_PINS = {
    ("clamp_w", 1):
        "c2db0f79512283b3c600bcbfd9994014fb9562113b88c4f8ebd617532ae44e50",
    ("clamp_w", 2):
        "b637fcf2b21aa0af39eaeabaaebf0ef942e89af5c8b370a15ff3aa4df0134da5",
    ("clamp_w", 3):
        "16e7344c186fa4710e541bee0b6f5bcf0017d36174ad1ae5b2da68c079b46754",
    ("example36", 1):
        "b3bff476d372c9d6ca7f121c52a39715cbee8f9ea309ebc3d75598c79b776f63",
    ("example36", 2):
        "5f486470f3de21bc0a60d170f0499e9e9ba848edbc3a88f7442344edbc433794",
    ("example36", 3):
        "f3894c0ae1e217a4cbb649c82691914999f87351ebcb6f95e99ec927b61d6abd",
    ("identity", 1):
        "43b44f5745f516044dc15a512324c7119df312033e5b343d1f61ea8e9f173945",
    ("identity", 2):
        "15e0697d30b5c2dbf2e214e3b2bf8a20df6b90631db03954d535ddc5a0b1d02f",
    ("identity", 3):
        "493ce4671b206bac56a693e212c5620679170315b694201fc98fc573c6fc3127",
    ("linear_time", 1):
        "c661a9b94053b9d0e6a9039d519a4eaf1f10c545ca10234f3ebcc8955b123193",
    ("linear_time", 2):
        "94370838087e2baaf72fb4e0eca7680e37d3ad1e916aebb99915d29e98bf7f64",
    ("linear_time", 3):
        "9f740937f6567ab2f4520bc140fde1da5ea7a2e32e3228942b43bb0dcb42dd1f",
    ("rotation", 2):
        "762e8342614e3dc213c067363778a4722733fd10547e4ecbf9048b9dd32383ce",
    ("rotation", 3):
        "5f08f05206b37c3f047a10d491d8c06d5ebc29aa7d0d8799facd52fc6a2d144b",
    ("scaled_identity", 1):
        "f0d102e98faabc468f663ee014da9345872ff0e678da592ff9fb8c99b28beaa2",
    ("scaled_identity", 2):
        "126e8596c3dd8c5cf7bd26f007f7747a5d3285ef618f84f4d50367263bbd2478",
    ("scaled_identity", 3):
        "822e353d948c789d3fc01430f956c89c36515f077c54042013f8730e634dfd8c",
    ("sign_flip", 1):
        "2be17775139475a9e5d2a26071e66c48c0680f8a9ccbeedcf2d4fe99ed9bdaf2",
    ("sign_flip", 2):
        "961d7baf6fcd95b3d31117e69c54692be355b0d36b6f355501405488fdae2e94",
    ("sign_flip", 3):
        "dc683d3a92f74b77809c9d0a1f27c49a6c64422a9142908e7b6845a00f887b0a",
    ("tanh_w", 1):
        "bcdc2cab089bf1bc5519ee6d3f9c5e8da8a396515db12341a279a8f1d889dc07",
    ("tanh_w", 2):
        "11f6b93c0b044a0808c4e4916b17cac49401fe8160f3a0254247a53adaf2a357",
    ("tanh_w", 3):
        "1505f1a7697a623c2eaedd46150be1c4a739257424988c6672a067c2f3cdcb05",
    ("zero", 1):
        "7b7320aa4c3eb7443bbcacea87b9ccc987fc9950e508927c0dc1c2fb57622f1f",
    ("zero", 2):
        "21945e0cbdf1dd19ab73647381588dac9d6d1b51eecfa3aa3461dfc9fdc50052",
    ("zero", 3):
        "d29f502d8b92b63cfbdcd83c24ab1fd4d89e3a5f49301e205bc6f60fe5dae2e5",
}
_LIST_CATALOG_PIN = "aab83d730b8c4c44a6f81719c0001dc82a2f2fc628334b50fadda8a47b38320f"


def _spec_digest(name, d):
    spec = catalog_integrand(name, d)
    h = hashlib.sha256(repr((spec.kind, spec.dim, spec.name, spec.bound,
                             spec.t_max)).encode())
    if spec.kind == "path":
        w = np.stack([np.roll(_PIN_W, k) for k in range(d)], axis=1)
        values = [spec.eval(0.25, w)]
    else:
        values = [spec.eval(t, None) for t in _PIN_TIMES]
    for v in values:
        h.update(repr((v.shape, v.dtype.str)).encode())
        h.update(v.tobytes())
    return h.hexdigest()


def test_catalog_specs_keep_their_bits():
    assert set(_CATALOG_PINS) == {(n, d) for n in INTEGRAND_CATALOG for d in (1, 2, 3)
                                  if not (n == "rotation" and d < 2)}
    for (name, d), digest in _CATALOG_PINS.items():
        assert _spec_digest(name, d) == digest, (name, d, host_difference())
    assert hashlib.sha256(list_catalog().encode()).hexdigest() == _LIST_CATALOG_PIN, \
        host_difference()


# ------------------------------------------------------------ keep= modes

@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["identity", "rotation", "linear_time", "example36",
                             "tanh_w", "clamp_w"]),
       geometric=st.booleans(), d=st.integers(1, 3), paths=st.integers(1, 30),
       steps=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1))
def test_keep_modes_match_the_trace_bit_for_bit(name, geometric, d, paths, steps,
                                                 seed):
    # uniform grids hold the origin, geometric grids start above it
    d = max(d, 2) if name == "rotation" else d
    grid = geometric_grid(1e-2, 0.5, steps) if geometric else uniform_grid(0.05, steps)
    b = sample_bundle(d, grid, paths, seed=seed)
    spec = catalog_integrand(name, d)
    full = integrate_double(b, spec)
    outer = integrate_double(b, spec, keep="outer")
    last = integrate_double(b, spec, keep="last")
    assert np.array_equal(outer.outer, full.outer)
    assert np.array_equal(outer.times, full.times)
    assert np.array_equal(last.outer, full.outer[:, -1:])
    assert np.array_equal(last.final_outer(), full.final_outer())
    assert np.array_equal(last.outer_sup, full.outer.max(axis=1))
    assert np.array_equal(last.times, full.times[-1:])
    for tr in (outer, last):
        assert tr.inner.shape == (paths, 0, d) and tr.qv_inner.shape == (paths, 0, d)
        assert tr.qv_outer.shape == (paths, 0) and tr.dim == d


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["rotation", "linear_time", "tanh_w"]),
       d=st.integers(2, 3), paths=st.integers(2, 20), cut=st.integers(1, 19),
       seed=st.integers(0, 2 ** 32 - 1))
def test_integration_is_the_same_whatever_the_chunking(name, d, paths, cut, seed):
    cut = min(cut, paths - 1)
    grid = uniform_grid(0.05, 12)
    spec = catalog_integrand(name, d)
    whole = integrate_double(sample_bundle(d, grid, paths, seed=seed), spec)
    parts = [integrate_double(sample_bundle(d, grid, n, seed=seed, first_path=f), spec)
             for f, n in ((0, cut), (cut, paths - cut))]
    for field_name in ("inner", "outer", "qv_inner", "qv_outer"):
        joined = np.concatenate([getattr(tr, field_name) for tr in parts])
        assert np.array_equal(joined, getattr(whole, field_name)), field_name


def test_keep_mode_is_validated():
    b = sample_bundle(1, uniform_grid(1.0, 4), 3, seed=21)
    with pytest.raises(ValueError, match="keep"):
        integrate_double(b, catalog_integrand("identity", 1), keep="sup")
