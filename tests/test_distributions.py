import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mg1tail import (
    ExponentialIntegrated,
    Lattice,
    ParetoIntegratedTail,
    QueueModel,
    ServiceMoments,
    UnsupportedModelError,
    load_lattice_file,
    parse_model,
    sample_x,
    tail_prob,
)


def test_pareto_tail_is_one_below_scale():
    d = ParetoIntegratedTail(alpha=3.5)
    assert tail_prob(d, 0.0) == 1.0
    assert tail_prob(d, 0.999) == 1.0
    assert tail_prob(d, 1.0) == 1.0


def test_pareto_tail_power_law():
    d = ParetoIntegratedTail(alpha=3.5)
    assert math.isclose(tail_prob(d, 2.0), 2.0 ** -2.5, rel_tol=1e-15)
    assert math.isclose(tail_prob(d, 10.0), 10.0 ** -2.5, rel_tol=1e-15)


def test_exponential_tail():
    d = ExponentialIntegrated(rate=2.0)
    assert math.isclose(tail_prob(d, 1.5), math.exp(-3.0), rel_tol=1e-15)
    assert tail_prob(d, 0.0) == 1.0


def test_tail_rejects_negative_x():
    with pytest.raises(ValueError):
        tail_prob(ParetoIntegratedTail(alpha=3.5), -0.1)


def test_lattice_tail_and_atoms():
    lat = Lattice(h=0.5, mass=[0.0, 0.25, 0.5, 0.25])
    # support 0, 0.5, 1.0, 1.5
    assert tail_prob(lat, 0.0) == 1.0
    assert tail_prob(lat, 0.5) == 0.75
    assert tail_prob(lat, 0.6) == 0.75
    assert tail_prob(lat, 1.0) == 0.25
    assert tail_prob(lat, 1.5) == 0.0
    assert tail_prob(lat, 99.0) == 0.0
    assert lat.atom_prob(1.0) == 0.5
    assert lat.atom_prob(1.25) == 0.0
    assert lat.atom_prob(7.0) == 0.0


def test_lattice_atoms_at_non_finite_and_scalar_points():
    lat = Lattice(h=0.5, mass=[0.0, 0.25, 0.5, 0.25])
    with pytest.raises(ValueError):
        lat.atom_prob(math.nan)
    # P(X = +-inf) = 0
    assert lat.atom_prob(math.inf) == 0.0
    assert lat.atom_prob(-math.inf) == 0.0
    for v in (-1.0, 0.0, 0.5, 0.75, 1.0, 1.5, 2.0, math.inf, -math.inf):
        assert lat.atom(v) == lat.atom(np.array([v]))[0]


def test_lattice_suffix_matches_mass():
    lat = Lattice(h=1.0, mass=[0.1, 0.2, 0.3, 0.4])
    for j in range(4):
        assert math.isclose(lat.suffix[j], sum(lat.mass[j:]), rel_tol=1e-14)
    assert lat.suffix[-1] == 0.0


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(h=0.0, mass=[1.0])
    with pytest.raises(ValueError):
        Lattice(h=1.0, mass=[0.6, -0.1, 0.5])
    with pytest.raises(ValueError):
        Lattice(h=1.0, mass=[0.5, 0.4])  # sums to 0.9
    with pytest.raises(ValueError, match="spacing must be positive and finite"):
        Lattice(h=math.inf, mass=[0.5, 0.5])


def test_means():
    assert math.isclose(ParetoIntegratedTail(alpha=3.5).mean(), 5.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(ExponentialIntegrated(rate=4.0).mean(), 0.25, rel_tol=1e-15)
    lat = Lattice(h=0.5, mass=[0.0, 0.5, 0.0, 0.5])
    assert math.isclose(lat.mean(), 0.5 * 0.5 + 0.5 * 1.5, rel_tol=1e-15)


def test_variances():
    # E X^2 - (E X)^2 with E X^2 = (a-1)/(a-3)
    assert math.isclose(ParetoIntegratedTail(alpha=3.5).variance(), 20.0 / 9.0, rel_tol=1e-12)
    assert ParetoIntegratedTail(alpha=3.0).variance() == math.inf
    assert ParetoIntegratedTail(alpha=2.2).variance() == math.inf
    assert math.isclose(ExponentialIntegrated(rate=2.0).variance(), 0.25, rel_tol=1e-15)


def test_sample_x_quantiles():
    d = ParetoIntegratedTail(alpha=3.5)
    u = 1.0 - 2.0 ** -2.5
    assert math.isclose(sample_x(d, u), 2.0, rel_tol=1e-12)
    e = ExponentialIntegrated(rate=1.0)
    assert math.isclose(sample_x(e, 0.5), math.log(2.0), rel_tol=1e-12)
    lat = Lattice(h=1.0, mass=[0.0, 0.5, 0.5])
    assert sample_x(lat, 0.25) == 1.0
    assert sample_x(lat, 0.75) == 2.0
    with pytest.raises(ValueError):
        sample_x(d, 0.0)
    with pytest.raises(ValueError):
        sample_x(d, 1.0)


def test_sample_tail_consistency():
    # P(X > quantile(u)) == 1 - u for continuous models
    d = ParetoIntegratedTail(alpha=2.7)
    for u in (0.3, 0.9, 0.999):
        assert math.isclose(tail_prob(d, sample_x(d, u)), 1.0 - u, rel_tol=1e-10)


def test_service_moments_exponential_only():
    mom = ExponentialIntegrated(rate=1.0).service_moments()
    assert (mom.ev1, mom.ev2, mom.ev3) == (1.0, 2.0, 6.0)
    mom = ExponentialIntegrated(rate=2.0).service_moments()
    assert math.isclose(mom.ev2, 0.5, rel_tol=1e-15)
    with pytest.raises(UnsupportedModelError):
        ParetoIntegratedTail(alpha=3.5).service_moments()


def test_tail_index():
    assert ParetoIntegratedTail(alpha=3.5).tail_index() == 2.5
    with pytest.raises(UnsupportedModelError):
        ExponentialIntegrated(rate=1.0).tail_index()
    with pytest.raises(UnsupportedModelError):
        Lattice(h=1.0, mass=[0.5, 0.5]).tail_index()


def test_parameter_validation():
    with pytest.raises(ValueError):
        ParetoIntegratedTail(alpha=2.0)
    with pytest.raises(ValueError):
        ExponentialIntegrated(rate=0.0)
    with pytest.raises(ValueError):
        QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=1.0)
    with pytest.raises(ValueError):
        QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.0)


def test_parse_model():
    d = parse_model("pareto-it:alpha=3.5")
    assert isinstance(d, ParetoIntegratedTail) and d.alpha == 3.5
    e = parse_model("exp:rate=0.25")
    assert isinstance(e, ExponentialIntegrated) and e.rate == 0.25
    for bad in ("pareto-it", "pareto-it:beta=3", "exp:rate=", "gauss:mu=0", ""):
        with pytest.raises(ValueError):
            parse_model(bad)


@pytest.mark.parametrize("text, message", [
    ("pareto-it:alpha", "malformed model parameter 'alpha' in 'pareto-it:alpha'"),
    ("gauss:mu=0", "unknown model kind 'gauss' in 'gauss:mu=0'"),
    ("pareto-it:beta=3", "pareto-it needs alpha=..., got 'pareto-it:beta=3'"),
    ("exp:scale=2", "exp needs rate=..., got 'exp:scale=2'"),
    ("lattice:path=a.txt", "lattice needs file=PATH, got 'lattice:path=a.txt'"),
    # a malformed parameter is reported before an unknown kind, and an
    # unknown kind before a missing parameter
    ("gauss:mu", "malformed model parameter 'mu' in 'gauss:mu'"),
    ("gauss", "unknown model kind 'gauss' in 'gauss'"),
    ("", "unknown model kind '' in ''"),
    ("pareto-it:alpha=x", "could not convert string to float: 'x'"),
    # each kind takes its one parameter once, checked after the cases above
    ("pareto-it:alpha=3.5,rate=9",
     "unknown model parameter 'rate' in 'pareto-it:alpha=3.5,rate=9'"),
    ("exp:scale=2,rate=1", "unknown model parameter 'scale' in 'exp:scale=2,rate=1'"),
    ("exp:rate=1,rate=2", "repeated model parameter 'rate' in 'exp:rate=1,rate=2'"),
    ("pareto-it:alpha=3.5,alpha=2.5",
     "repeated model parameter 'alpha' in 'pareto-it:alpha=3.5,alpha=2.5'"),
    ("gauss:mu=0,mu=1", "unknown model kind 'gauss' in 'gauss:mu=0,mu=1'"),
    ("exp:scale=2,scale=3", "exp needs rate=..., got 'exp:scale=2,scale=3'"),
])
def test_parse_model_error_messages(text, message):
    with pytest.raises(ValueError) as info:
        parse_model(text)
    assert str(info.value) == message


def test_load_lattice_file(tmp_path):
    p = tmp_path / "lat.txt"
    p.write_text("# two-point service distribution\n1.0 0.5\n2.0 0.5\n")
    lat = load_lattice_file(str(p))
    assert lat.h == 1.0
    assert tail_prob(lat, 1.5) == 0.5
    q = parse_model(f"lattice:file={p}")
    assert isinstance(q, Lattice) and q == lat


def test_load_lattice_file_infers_spacing(tmp_path):
    p = tmp_path / "lat.txt"
    p.write_text("0.5 0.25\n1.5 0.25\n3.0 0.5\n")
    lat = load_lattice_file(str(p))
    assert lat.h == 0.5
    assert lat.atom_prob(3.0) == 0.5
    assert lat.atom_prob(1.0) == 0.0


def test_load_lattice_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0 0.5 extra\n")
    with pytest.raises(ValueError):
        load_lattice_file(str(p))
    p.write_text("1.0 0.4\n2.0 0.4\n")
    with pytest.raises(ValueError):
        load_lattice_file(str(p))
    p.write_text("")
    with pytest.raises(ValueError):
        load_lattice_file(str(p))


def test_nan_masses_and_points_rejected(tmp_path):
    for mass in ([math.nan, 1.0], [0.5, 0.5, math.nan], [math.nan]):
        with pytest.raises(ValueError, match="mass entries must be nonnegative"):
            Lattice(h=1.0, mass=mass)
    p = tmp_path / "lat.txt"
    p.write_text("1.0 nan\n2.0 1.0\n")
    with pytest.raises(ValueError, match="masses sum to nan, expected 1"):
        load_lattice_file(str(p))
    p.write_text("nan 0.5\n1.0 0.5\n")
    with pytest.raises(ValueError, match="support points must be nonnegative"):
        load_lattice_file(str(p))


def test_lattice_equality_and_hash():
    a = Lattice(h=1.0, mass=[0.5, 0.5])
    b = Lattice(h=1.0, mass=[0.5, 0.5])
    c = Lattice(h=0.5, mass=[0.5, 0.5])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_lattice_mass_is_immutable():
    lat = Lattice(h=1.0, mass=[0.5, 0.5])
    with pytest.raises(ValueError):
        lat.mass[0] = 0.9
    assert isinstance(lat.support, np.ndarray)


# Reference: the scalar formulas as module functions that dispatch on the
# model type, kept verbatim so the model methods can be checked against them
# bit for bit.

def ref_tail_prob(model, x) -> float:
    """P(X > x) for the integrated-tail variable."""
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if isinstance(model, ParetoIntegratedTail):
        if x < 1.0:
            return 1.0
        return x ** (-(model.alpha - 1.0))
    if isinstance(model, ExponentialIntegrated):
        return math.exp(-model.rate * x)
    # lattice: mass strictly above x
    idx = int(np.searchsorted(model.support, x, side="right"))
    return float(model.suffix[idx])


def ref_atom_prob(model, v: float) -> float:
    """P(X = v); zero for the atomless variants."""
    if not isinstance(model, Lattice):
        return 0.0
    j = int(round(v / model.h))
    if 0 <= j < model.mass.size and model.support[j] == v:
        return float(model.mass[j])
    return 0.0


def ref_mean_integrated(model) -> float:
    if isinstance(model, ParetoIntegratedTail):
        a = model.alpha
        return (a - 1.0) / (a - 2.0)
    if isinstance(model, ExponentialIntegrated):
        return 1.0 / model.rate
    return float(np.sum(model.support * model.mass))


def ref_variance_integrated(model) -> float:
    """Var(X); math.inf marks the infinite-variance regime (2 < alpha <= 3)."""
    if isinstance(model, ParetoIntegratedTail):
        a = model.alpha
        if a <= 3.0:
            return math.inf
        ex2 = (a - 1.0) / (a - 3.0)
        m = (a - 1.0) / (a - 2.0)
        return ex2 - m * m
    if isinstance(model, ExponentialIntegrated):
        return 1.0 / (model.rate * model.rate)
    m = ref_mean_integrated(model)
    return float(np.sum((model.support - m) ** 2 * model.mass))


def ref_sample_x(model, u: float) -> float:
    """The u-quantile of X; u near 1 probes the right tail."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0,1), got {u}")
    if isinstance(model, ParetoIntegratedTail):
        return (1.0 - u) ** (-1.0 / (model.alpha - 1.0))
    if isinstance(model, ExponentialIntegrated):
        return -math.log1p(-u) / model.rate
    idx = int(np.searchsorted(model.cum, u, side="right"))
    idx = min(idx, model.mass.size - 1)
    return float(model.support[idx])


def ref_service_moments(model) -> ServiceMoments:
    """Moments of the service time V itself (only identified for the
    exponential variant: V ~ Exp(rate))."""
    if isinstance(model, ExponentialIntegrated):
        r = model.rate
        return ServiceMoments(ev1=1.0 / r, ev2=2.0 / r**2, ev3=6.0 / r**3)
    raise UnsupportedModelError(
        "service-time moments are only identified for the exponential variant"
    )


def ref_tail_index(model) -> float:
    """The power alpha-1 governing the integrated tail; errors otherwise."""
    if isinstance(model, ParetoIntegratedTail):
        return model.alpha - 1.0
    raise UnsupportedModelError("model has no regularly varying tail index")


def _outcome(fn, *args):
    """(type, value) of the result, or the error raised, so that == checks
    the value, the type and the message."""
    try:
        v = fn(*args)
    except (UnsupportedModelError, ValueError) as e:
        return type(e), str(e)
    return type(v), v


def _lattice(h, weights):
    w = np.array(weights)
    return Lattice(h=h, mass=w / w.sum())


lattices = st.builds(
    _lattice,
    h=st.floats(0.01, 5.0),
    weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(
        lambda w: sum(w) > 0),
)
scalar_models = st.one_of(
    st.one_of(st.floats(2.0, 12.0, exclude_min=True),
              st.sampled_from([2.5, 3.0, 3.5, 5.0])).map(ParetoIntegratedTail),
    st.floats(0.01, 100.0).map(ExponentialIntegrated),
    lattices,
)


@settings(max_examples=200, deadline=None)
@given(
    model=scalar_models,
    xs=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20),
    us=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=20),
    vs=st.lists(st.floats(-10.0, 1e6), min_size=1, max_size=20),
)
# 2.1/0.7 rounds to just below 3, so the atom index must be rounded, not cut
@example(model=Lattice(h=0.7, mass=[0.25] * 4), xs=[0.0], us=[0.5], vs=[0.0])
def test_scalar_methods_equal_type_dispatch_reference(model, xs, us, vs):
    # every lattice point, where the tail steps and the atoms sit
    grid = list(model.support) if isinstance(model, Lattice) else []
    xs, vs = grid + xs, grid + vs
    assert _outcome(model.mean) == _outcome(ref_mean_integrated, model)
    assert _outcome(model.variance) == _outcome(ref_variance_integrated, model)
    assert _outcome(model.service_moments) == _outcome(ref_service_moments, model)
    assert _outcome(model.tail_index) == _outcome(ref_tail_index, model)
    for x in xs:
        want = _outcome(ref_tail_prob, model, x)
        assert _outcome(model.tail_prob, x) == want
        assert _outcome(tail_prob, model, x) == want
    for u in us:
        want = _outcome(ref_sample_x, model, u)
        assert _outcome(model.sample_x, u) == want
        assert _outcome(sample_x, model, u) == want
    for v in vs:
        assert _outcome(model.atom_prob, v) == _outcome(ref_atom_prob, model, v)


@settings(max_examples=200, deadline=None)
@given(model=scalar_models, ts=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=20))
@example(model=ParetoIntegratedTail(2.5), ts=[0.0, 1.0, 1e300])
@example(model=ExponentialIntegrated(0.01), ts=[0.0, 1e300])
# no mass at 0, and masses that sum to 1 + 2^-52 in floating point
@example(model=_lattice(1.0, [0.0, 0.01, 0.02, 0.3]), ts=[0.0])
def test_vector_tail_is_a_probability(model, ts):
    # the kernels multiply a count N = 0 by the tail unmasked: N * tail is
    # +0.0 only where the tail is finite
    grid = list(model.support) if isinstance(model, Lattice) else []
    p = model.tail(np.array(grid + ts))
    assert np.all((p >= 0.0) & (p <= 1.0)), p


def test_lattice_tail_clipped_at_one():
    # the masses, added from the top, sum to 1 + 2^-52, which tail and cum do not show
    lat = _lattice(1.0, [0.0, 0.01, 0.02, 0.3])
    assert np.cumsum(lat.mass[::-1])[-1].hex() == "0x1.0000000000001p+0"
    assert lat.tail_prob(0.0).hex() == "0x1.0000000000000p+0"
    assert lat.cum[0] == 0.0 and np.all(lat.cum >= 0.0)
    assert lat.cum[-1] == 1.0
