"""Closed-form kernel families on spheres, with parameter validation.

Every family is standardized to psi(0) = 1 and evaluated as a function of
the great circle distance theta in [0, pi] (radians).  Families defined on
Euclidean distances (those with an analytic phi') read the same closed form
as their profile phi(t), t >= 0, which enables the chordal substitution
t = 2 sin(theta / 2) (``yadrenko``) and the derivative-based convexity
criteria.

Specs outside the parameter domains (``_DOMAINS``) are refused; specs
outside the validity ranges, which guarantee (strict) positive
definiteness, still evaluate, so that the coefficient machinery can
expose them as invalid.  Each family's expression, parameter rule and
defaults are listed by ``list_families()`` and by ``spherekernels list``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, ParameterError, UnknownFamilyError
from .special import _check_count, bessel_k

__all__ = [
    "KernelSpec",
    "ValidityVerdict",
    "FAMILY_NAMES",
    "as_psi",
    "breakpoints",
    "euclid_derivative",
    "evaluate",
    "evaluate_euclidean",
    "fractal_index_theoretical",
    "kernel",
    "list_families",
    "parse_kernel",
    "validate_params",
    "yadrenko",
]

_MATERN_T_FLOOR = 1e-14  # below this, psi is 1 to double precision
_MATERN_T_ZERO = 1e3  # K_nu is exactly 0 from here on; t^nu stays finite for nu <= 100
_MATERN_NU_MAX = 20.0  # K_nu(_MATERN_T_FLOOR) is 6.4e302 at nu = 20 and overflows from about 20.1

# Each parameter's domain, the same in every family (c a scale; alpha, nu and
# tau shapes; delta a ratio).  NaN fails.  A subnormal shape would overflow
# Gamma(nu) in matern, or round dagum's alpha/tau to 0 and make psi(0) = 0.
# Only matern has nu; it is not positive definite on any sphere past 1/2.
_TINY = np.finfo(float).tiny
_POSITIVE = ("(0, inf), not subnormal", lambda v: _TINY <= v < math.inf)
_DOMAINS = {"c": _POSITIVE, "alpha": _POSITIVE, "tau": _POSITIVE}
_DOMAINS["nu"] = ("(0, 20], not subnormal", lambda v: _TINY <= v <= _MATERN_NU_MAX)
_DOMAINS["delta"] = ("[0, 1)", lambda v: 0 <= v < 1)


def _num(v: float) -> str:
    """v with ``:g`` where that reads back as the same float, else its ``repr``."""
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family name plus its named parameters.

    Construction checks that the family exists, that exactly the family's
    parameters are present and that each lies in its domain.  It does NOT
    check validity ranges; see ``validate_params``.
    """

    family: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        name, fam = _family(self.family)
        clean: dict[str, float] = {}
        for k, value in _lowered(dict(self.params).items()).items():
            if k not in fam.defaults:
                raise ParameterError(f"{name} takes parameters {tuple(fam.defaults)}, got {k!r}")
            v = float(value)
            domain, inside = _DOMAINS[k]
            if not inside(v):
                raise ParameterError(f"{name}: parameter {k}={value!r} must lie in {domain}")
            clean[k] = v
        missing = [p for p in fam.defaults if p not in clean]
        if missing:
            raise ParameterError(f"{name}: missing parameters {missing}")
        object.__setattr__(self, "family", name)
        object.__setattr__(self, "params", dict(clean))

    def __str__(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={_num(v)}" for k, v in sorted(self.params.items()))
        return f"{self.family}:{inner}"


@dataclass(frozen=True)
class ValidityVerdict:
    """Whether a parameter set is guaranteed positive definite on S^d."""

    valid: bool
    strict: bool
    rule: str
    reason: str


@dataclass(frozen=True)
class _Family:
    defaults: dict[str, float]  # its keys are the parameter names, in order
    expression: str
    rule: str
    psi: Callable[[dict, np.ndarray], np.ndarray]
    # returns (max_valid_dim, strict, reason); max dim 0 marks invalid params
    classify: Callable[[dict], tuple[float, bool, str]]
    dphi: Callable[[dict, np.ndarray], np.ndarray] | None = None
    dnphi: Callable[[dict, np.ndarray, int], np.ndarray] | None = None
    fractal: Callable[[dict], float] | None = None
    breaks: Callable[[dict], tuple[float, ...]] = lambda p: ()
    # largest order whose classical derivative exists everywhere on (0, inf)
    smooth_order: Callable[[dict], float] = lambda p: math.inf


# --- closed forms (theta-argument) -----------------------------------------

def _psi_powered_exponential(p, th):
    with np.errstate(over="ignore"):  # (th/c)^alpha = inf at a tiny c gives the limit psi = 0
        return np.exp(-((th / p["c"]) ** p["alpha"]))


def _psi_matern(p, th):
    t = np.asarray(th / p["c"])  # a new array, 0-d too, that the steps below may overwrite
    nu = p["nu"]
    big = t >= _MATERN_T_FLOOR
    tb = t if big.all() else t[big]  # with no value below the floor, work on t itself
    np.minimum(tb, _MATERN_T_ZERO, out=tb)  # psi is exactly 0 from there on
    k = bessel_k(nu, tb)
    tb **= nu
    tb *= 2.0 ** (1.0 - nu) / math.gamma(nu)
    tb *= k
    if tb is t:
        return t
    out = np.ones_like(t)
    out[big] = tb
    return out


def _psi_generalized_cauchy(p, th):
    with np.errstate(over="ignore"):  # as in powered_exponential: inf gives psi = 0
        return (1.0 + (th / p["c"]) ** p["alpha"]) ** (-p["tau"] / p["alpha"])


def _psi_dagum(p, th):
    with np.errstate(over="ignore"):  # v/(1+v) is exactly 1 from v = 2^54 on, and inf/inf is NaN
        v = np.minimum((th / p["c"]) ** p["tau"], 2.0**60)
    return 1.0 - (v / (1.0 + v)) ** (p["alpha"] / p["tau"])


def _psi_multiquadric(p, th):
    q = (1.0 - p["delta"]) ** 2  # 1 + d^2 - 2d cos(th) = q + 4d sin^2(th/2), exact at th = 0
    return (q / (q + 4.0 * p["delta"] * np.sin(th / 2.0) ** 2)) ** p["tau"]


def _psi_sine_power(p, th):
    return 1.0 - np.sin(th / 2.0) ** p["alpha"]


# Compact profiles and first derivatives clip their argument at the support's edge
# (u = th/c at 1; Gaspari-Cohn's t at 1, and at 1/2 in its inner piece): values inside
# are unchanged, 0 past the edge is exact, and no power of u overflows at a tiny c.

def _psi_spherical(p, th):
    u = np.minimum(th / p["c"], 1.0)
    return (1.0 + 0.5 * u) * (1.0 - u) ** 2


def _psi_askey(p, th):
    return (1.0 - np.minimum(th / p["c"], 1.0)) ** p["tau"]


def _psi_wendland_c2(p, th):
    u, tau = np.minimum(th / p["c"], 1.0), p["tau"]
    return (1.0 + tau * u) * (1.0 - u) ** tau


def _psi_wendland_c4(p, th):
    u, tau = np.minimum(th / p["c"], 1.0), p["tau"]
    return (1.0 + tau * u + (tau * tau - 1.0) / 3.0 * u * u) * (1.0 - u) ** tau


def _gc_profile(t: np.ndarray) -> np.ndarray:
    """Gaspari-Cohn fifth-order piecewise rational profile with support [0, 1]."""
    lo, hi = np.minimum(t, 0.5), np.clip(t, 0.5, 1.0)
    inner = 1.0 - (20.0 / 3.0) * lo**2 + 5.0 * lo**3 + 8.0 * lo**4 - 8.0 * lo**5
    outer = (8.0 * hi**2 + 8.0 * hi - 1.0) * (1.0 - hi) ** 4 / (3.0 * hi)
    return np.where(t <= 0.5, inner, outer)


def _gc_profile_derivative(t: np.ndarray) -> np.ndarray:
    lo, hi = np.minimum(t, 0.5), np.clip(t, 0.5, 1.0)
    inner = -(40.0 / 3.0) * lo + 15.0 * lo**2 + 32.0 * lo**3 - 40.0 * lo**4
    outer = (
        (8.0 + hi**-2) * (1.0 - hi) ** 4
        - 4.0 * (8.0 * hi**2 + 8.0 * hi - 1.0) * (1.0 - hi) ** 3 / hi
    ) / 3.0
    return np.where(t <= 0.5, inner, outer)


def _psi_gaspari_cohn(p, th):
    return _gc_profile(th / p["c"])


def _psi_cosine(p, th):
    return np.cos(th)


# --- Euclidean profiles and first derivatives -------------------------------

def _dphi_powered_exponential(p, t):
    c, a = p["c"], p["alpha"]
    u = t / c
    return -(a / c) * u ** (a - 1.0) * np.exp(-(u**a))


def _dphi_matern(p, t):
    c, nu = p["c"], p["nu"]
    u = np.maximum(t / c, _MATERN_T_FLOOR)
    # d/du [u^nu K_nu(u)] = -u^nu K_{nu-1}(u); K_{-m} = K_m
    return -(2.0 ** (1.0 - nu) / math.gamma(nu) / c) * u**nu * bessel_k(abs(nu - 1.0), u)


def _dphi_generalized_cauchy(p, t):
    c, a, tau = p["c"], p["alpha"], p["tau"]
    u = t / c
    return -(tau / c) * u ** (a - 1.0) * (1.0 + u**a) ** (-tau / a - 1.0)


def _dphi_dagum(p, t):
    c, a, tau = p["c"], p["alpha"], p["tau"]
    u = t / c
    v = u**tau
    return -(a / c) * u ** (tau - 1.0) * (v / (1.0 + v)) ** (a / tau - 1.0) / (1.0 + v) ** 2


def _dphi_spherical(p, t):
    c = p["c"]
    u = t / c
    return np.where(u < 1.0, -(3.0 / (2.0 * c)) * (1.0 - u * u), 0.0)


def _dphi_wendland_c2(p, t):
    c, tau = p["c"], p["tau"]
    u = t / c
    return -(tau * (tau + 1.0) / c) * u * (1.0 - np.minimum(u, 1.0)) ** (tau - 1.0)


def _dphi_wendland_c4(p, t):
    c, tau = p["c"], p["tau"]
    u = t / c
    return (
        -((tau + 1.0) * (tau + 2.0) / (3.0 * c))
        * u
        * (1.0 + (tau - 1.0) * u)
        * (1.0 - np.minimum(u, 1.0)) ** (tau - 1.0)
    )


def _dphi_gaspari_cohn(p, t):
    c = p["c"]
    return _gc_profile_derivative(t / c) / c


def _dnphi_askey(p, t, order):
    c, tau = p["c"], p["tau"]
    coeff = 1.0
    for j in range(order):
        coeff *= tau - j
    u = np.asarray(t, dtype=float) / c
    out = np.zeros_like(u)
    # 0 at and past the edge by a mask, not a clip: at order >= tau the clipped
    # (1 - u)^(tau - order) would read 0^0 = 1, or 0 to a negative power, there
    inside = u < 1.0
    out[inside] = (-1.0 / c) ** order * coeff * (1.0 - u[inside]) ** (tau - order)
    return out


# --- validity classification -------------------------------------------------

def _completely_monotone(name: str, bound: float):
    """Rule of a profile that is completely monotone for ``name`` in (0, bound]:
    strict on every sphere there, and not positive definite on any sphere past it."""
    span = f"(0,{Fraction(bound)}]"

    def classify(p):
        if p[name] <= bound:
            return math.inf, True, f"{name} in {span} gives a completely monotone profile"
        return 0.0, False, f"{name}={_num(p[name])} outside {span}: not positive definite on any sphere"

    return classify


def _support_condition(min_tau: float = 0.0, c_max: float = math.inf):
    """Rule of an R^3 profile under the support condition: strict with great circle
    distance for d <= 3 when tau >= min_tau and c <= c_max (pi or inf), else not
    guaranteed.  c is checked first."""
    scale = "c in (0,pi]" if c_max < math.inf else "c > 0"
    shape = f"tau >= {min_tau:g} and " if min_tau else ""

    def classify(p):
        if p["c"] > c_max:
            return 0.0, False, "support scale must lie in (0, pi]"
        if p.get("tau", math.inf) < min_tau:
            return 0.0, False, f"requires tau >= {min_tau:g}"
        return 3.0, True, f"{shape}{scale}: valid with great circle distance for d <= 3"

    return classify


def _classify_dagum(p):
    if p["tau"] <= 1 and p["alpha"] < p["tau"]:
        return math.inf, True, "tau in (0,1] and alpha in (0,tau) give a completely monotone profile"
    return 0.0, False, "requires tau in (0,1] and alpha in (0,tau)"


def _classify_multiquadric(p):
    if p["delta"] == 0:
        return math.inf, False, "delta = 0 gives the constant 1: positive definite, not strictly"
    return math.inf, True, "power series in cos(theta) with strictly positive coefficients"


def _classify_sine_power(p):
    a = p["alpha"]
    if a < 2:
        return math.inf, True, "alpha in (0,2): strictly positive expansion coefficients"
    if a == 2:
        return math.inf, False, "alpha = 2 equals (1+cos theta)/2: positive definite, not strictly"
    return 0.0, False, f"alpha={_num(a)} outside (0,2]: not positive definite on any sphere"


def _classify_cosine(p):
    return math.inf, False, "single-frequency extremal member: positive definite, not strictly"


def _truncation_smoothness(p):
    # (1 - t/c)^tau edge: the order-k derivative exists at c only for k < tau
    return math.ceil(p["tau"]) - 1


def _breaks_support(p):
    return (p["c"],)


def _breaks_gaspari_cohn(p):
    return (p["c"] / 2.0, p["c"])


_FAMILIES: dict[str, _Family] = {
    "powered_exponential": _Family(
        defaults={"c": 1.0, "alpha": 1.0},
        expression="exp(-(theta/c)^alpha)",
        rule="c > 0; alpha in (0,1]; all dimensions, strict",
        psi=_psi_powered_exponential,
        dphi=_dphi_powered_exponential,
        fractal=lambda p: p["alpha"],
        classify=_completely_monotone("alpha", 1.0),
    ),
    "matern": _Family(
        defaults={"c": 1.0, "nu": 0.5},
        expression="2^(1-nu)/Gamma(nu) (theta/c)^nu K_nu(theta/c)",
        rule="c > 0; nu in (0,1/2]; all dimensions, strict",
        psi=_psi_matern,
        dphi=_dphi_matern,
        fractal=lambda p: min(2.0 * p["nu"], 2.0),
        classify=_completely_monotone("nu", 0.5),
    ),
    "generalized_cauchy": _Family(
        defaults={"c": 1.0, "alpha": 1.0, "tau": 2.0},
        expression="(1+(theta/c)^alpha)^(-tau/alpha)",
        rule="c > 0; tau > 0; alpha in (0,1]; all dimensions, strict",
        psi=_psi_generalized_cauchy,
        dphi=_dphi_generalized_cauchy,
        fractal=lambda p: p["alpha"],
        classify=_completely_monotone("alpha", 1.0),
    ),
    "dagum": _Family(
        defaults={"c": 1.0, "tau": 1.0, "alpha": 0.5},
        expression="1-((theta/c)^tau/(1+(theta/c)^tau))^(alpha/tau)",
        rule="c > 0; tau in (0,1]; alpha in (0,tau); all dimensions, strict",
        psi=_psi_dagum,
        dphi=_dphi_dagum,
        fractal=lambda p: p["alpha"],
        classify=_classify_dagum,
    ),
    "multiquadric": _Family(
        defaults={"tau": 1.0, "delta": 0.5},
        expression="(1-delta)^(2 tau)/(1+delta^2-2 delta cos theta)^tau",
        rule="tau > 0; delta in (0,1) strict; delta = 0 (constant 1) non-strict; all dimensions",
        psi=_psi_multiquadric,
        classify=_classify_multiquadric,
    ),
    "sine_power": _Family(
        defaults={"alpha": 1.0},
        expression="1 - sin(theta/2)^alpha",
        rule="alpha in (0,2) strict; alpha = 2 valid non-strict; all dimensions",
        psi=_psi_sine_power,
        fractal=lambda p: p["alpha"],
        classify=_classify_sine_power,
    ),
    "spherical": _Family(
        defaults={"c": math.pi / 2},
        expression="(1+theta/(2c)) (1-theta/c)_+^2",
        rule="c > 0; dimensions d <= 3, strict",
        psi=_psi_spherical,
        dphi=_dphi_spherical,
        fractal=lambda p: 1.0,
        classify=_support_condition(),
        breaks=_breaks_support,
        smooth_order=lambda p: 1.0,
    ),
    "askey": _Family(
        defaults={"c": math.pi / 2, "tau": 2.0},
        expression="(1-theta/c)_+^tau",
        rule="c > 0; tau >= 2; dimensions d <= 3, strict",
        psi=_psi_askey,
        dnphi=_dnphi_askey,
        fractal=lambda p: 1.0,
        classify=_support_condition(min_tau=2.0),
        breaks=_breaks_support,
        smooth_order=_truncation_smoothness,
    ),
    "wendland_c2": _Family(
        defaults={"c": math.pi / 2, "tau": 4.0},
        expression="(1+tau theta/c) (1-theta/c)_+^tau",
        rule="c in (0,pi]; tau >= 4; dimensions d <= 3, strict",
        psi=_psi_wendland_c2,
        dphi=_dphi_wendland_c2,
        fractal=lambda p: 2.0,
        classify=_support_condition(min_tau=4.0, c_max=math.pi),
        breaks=_breaks_support,
        smooth_order=_truncation_smoothness,
    ),
    "wendland_c4": _Family(
        defaults={"c": math.pi / 2, "tau": 6.0},
        expression="(1+tau u+(tau^2-1)/3 u^2) (1-u)_+^tau, u=theta/c",
        rule="c in (0,pi]; tau >= 6; dimensions d <= 3, strict",
        psi=_psi_wendland_c4,
        dphi=_dphi_wendland_c4,
        fractal=lambda p: 2.0,
        classify=_support_condition(min_tau=6.0, c_max=math.pi),
        breaks=_breaks_support,
        smooth_order=_truncation_smoothness,
    ),
    "gaspari_cohn": _Family(
        defaults={"c": math.pi / 2},
        expression="fifth-order piecewise rational, support [0, c]",
        rule="c in (0,pi]; dimensions d <= 3, strict",
        psi=_psi_gaspari_cohn,
        dphi=_dphi_gaspari_cohn,
        classify=_support_condition(c_max=math.pi),
        breaks=_breaks_gaspari_cohn,
        smooth_order=lambda p: 3.0,
    ),
    "cosine": _Family(
        defaults={},
        expression="cos(theta)",
        rule="no parameters; all dimensions, non-strict",
        psi=_psi_cosine,
        classify=_classify_cosine,
    ),
}

FAMILY_NAMES: tuple[str, ...] = tuple(_FAMILIES)


def _family(family) -> tuple[str, _Family]:
    """The lower-cased family name and its record; UnknownFamilyError otherwise."""
    name = str(family).lower()
    if name not in _FAMILIES:
        raise UnknownFamilyError(
            f"unknown kernel family {family!r}; known: {', '.join(FAMILY_NAMES)}"
        )
    return name, _FAMILIES[name]


def _lowered(items) -> dict:
    """(name, value) pairs as a dict keyed by the lower-cased name.

    The one duplicate check of kernel parameters: a name that comes twice
    after lower-casing raises ParameterError instead of keeping the last value.
    """
    out = {}
    for key, value in items:
        k = str(key).lower()
        if k in out:
            raise ParameterError(f"kernel parameter {k!r} is given more than once")
        out[k] = value
    return out


def kernel(family: str, /, **params: float) -> KernelSpec:
    """Build a KernelSpec, filling unspecified parameters from family defaults."""
    name, fam = _family(family)
    return KernelSpec(name, {**fam.defaults, **_lowered(params.items())})


def parse_kernel(text: str) -> KernelSpec:
    """Parse ``family:key=value,key=value`` (case-insensitive, radians)."""
    body = text.strip().lower()
    if not body:
        raise ParameterError("empty kernel specification")
    name, _, rest = body.partition(":")
    params: list[tuple[str, float]] = []
    if rest:
        for item in rest.split(","):
            if not item.strip():
                continue
            key, sep, value = item.partition("=")
            if not sep:
                raise ParameterError(f"malformed kernel parameter {item!r} (expected key=value)")
            try:
                params.append((key.strip(), float(value)))
            except ValueError as exc:
                raise ParameterError(f"non-numeric kernel parameter {item!r}") from exc
    return kernel(name, **_lowered(params))


def validate_params(spec: KernelSpec, d) -> ValidityVerdict:
    """Verdict on whether ``spec`` is guaranteed positive definite on S^d.

    ``d`` is a positive integer or ``math.inf``.  Validity is monotone:
    valid on S^d implies valid on every lower-dimensional sphere.
    """
    if not isinstance(spec, KernelSpec):
        raise DomainError(f"kernel must be a KernelSpec, got {type(spec)!r}")
    if d != math.inf:
        d = _check_count("sphere dimension", d, 1)
    fam = _FAMILIES[spec.family]
    max_d, strict, reason = fam.classify(spec.params)
    valid = d <= max_d
    if 0 < max_d < d:
        reason = f"guaranteed only for d <= {int(max_d)}, requested d={d}"
    return ValidityVerdict(valid, valid and strict, fam.rule, reason)


def _check_theta(theta) -> np.ndarray:
    """The angle gate: theta in [0, pi] within 1e-12, clipped; NaN fails.

    One min/max pass decides; a NaN fails both comparisons.  The array is
    copied and clipped only when a value lies in the 1e-12 slack, so the
    result may be the caller's own array: no psi and no caller of this gate
    writes into it.
    """
    arr = np.asarray(theta, dtype=float)
    if arr.size == 0:
        return arr
    lo, hi = arr.min(), arr.max()
    if not (lo >= -1e-12 and hi <= math.pi + 1e-12):
        raise DomainError("great circle distance must lie in [0, pi]")
    if lo < 0.0 or hi > math.pi:
        return np.clip(arr, 0.0, math.pi)
    return arr


def _check_distance(t) -> np.ndarray:
    """The distance gate: finite t >= 0; NaN fails."""
    arr = np.asarray(t, dtype=float)
    if not (np.all(arr >= 0) and np.all(arr < math.inf)):
        raise DomainError("Euclidean distance must be finite and >= 0")
    return arr


def evaluate(spec: KernelSpec, theta):
    """Evaluate psi(theta) for theta in [0, pi]; psi(0) = 1 exactly.

    Validity is not required: specs outside the validity ranges evaluate
    too.  Unlike ``as_psi``, this path has no finiteness gate.
    """
    arr = _check_theta(theta)
    out = _FAMILIES[spec.family].psi(spec.params, arr)
    return float(out) if arr.ndim == 0 else out


def evaluate_euclidean(spec: KernelSpec, t):
    """Evaluate the Euclidean-argument profile phi(t), t >= 0.

    Defined only for families that are restrictions of kernels on R^3
    (or on every Euclidean space); raises DomainError otherwise.
    """
    phi, _, _ = _as_profile(spec)
    arr = _check_distance(t)
    out = phi(arr)
    return float(out) if arr.ndim == 0 else out


def euclid_derivative(spec: KernelSpec, t, order: int = 1):
    """Derivative phi^(order)(t) of the Euclidean profile at t > 0, order in {1, 2, 3}.

    The first derivative is analytic for every Euclidean family; higher
    orders fall back to differences of the analytic first derivative
    (step 1e-3 * max(1, t), forward at and below t = 1e-3) unless the family
    supplies them; for orders that do not exist classically everywhere on
    (0, inf) see ``max_derivative_order``.  t = 0 is outside the domain for
    every family, since rough profiles have no derivative there.
    """
    _, derivative, _ = _as_profile(spec)
    order = _check_count("derivative order", order, 1)
    if order > 3:
        raise DomainError(f"derivative order must be 1, 2 or 3, got {order}")
    arr = _check_distance(t)
    if not np.all(arr > 0):
        raise DomainError("the profile derivative is taken at t > 0")
    out = derivative(arr, order)
    return float(out) if arr.ndim == 0 else out


def _as_profile(kern, dphi=None):
    """The one profile coercion: (phi, derivative, exact) of a KernelSpec, or of a
    callable phi(t) with its first derivative ``dphi``.

    ``derivative(t, order)`` is phi^(order)(t), order in {1, 2, 3}; ``exact`` marks
    closed forms of orders 2 and 3 (a family's ``dnphi``), not differences of phi'.
    A callable pair passes ``_elementwise``; anything else, or a spec without a
    Euclidean profile, raises DomainError.
    """
    if isinstance(kern, KernelSpec):
        fam, p = _FAMILIES[kern.family], kern.params
        phi = lambda t: fam.psi(p, t)
        if fam.dnphi is not None:
            return phi, (lambda t, order: fam.dnphi(p, t, order)), True
        if fam.dphi is None:
            raise DomainError(f"{kern.family} has no Euclidean-argument profile")
        d1 = lambda t: fam.dphi(p, t)
    elif callable(kern) and callable(dphi):
        phi, d1 = _elementwise(kern, "phi", "t"), _elementwise(dphi, "dphi", "t")
    else:
        raise DomainError(
            "kernel must be a KernelSpec, or a callable profile phi(t) with its "
            "first derivative passed as dphi="
        )
    return phi, (lambda t, order: _derivative_from_first(d1, t, order)), False


def _derivative_from_first(d1: Callable[[np.ndarray], np.ndarray], t: np.ndarray, order: int):
    """phi^(order)(t) from the first derivative d1, order in {1, 2, 3}.

    Order 1 is d1 itself.  Higher orders are differences of d1 with step
    h = 1e-3 * max(1, t): central where t > h, one-sided forward at and below
    t = 1e-3, so that t - h never reaches 0, the edge of the domain.
    """
    if order == 1:
        return d1(t)
    flat = np.atleast_1d(np.asarray(t, dtype=float))
    h = 1e-3 * np.maximum(1.0, flat)
    out = np.empty_like(flat)
    ctr = flat > h
    fwd = ~ctr
    tc, hc = flat[ctr], h[ctr]
    tf, hf = flat[fwd], h[fwd]
    if order == 2:
        out[ctr] = (d1(tc + hc) - d1(tc - hc)) / (2.0 * hc)
        out[fwd] = (-3.0 * d1(tf) + 4.0 * d1(tf + hf) - d1(tf + 2 * hf)) / (2.0 * hf)
    else:
        out[ctr] = (d1(tc + hc) - 2.0 * d1(tc) + d1(tc - hc)) / (hc * hc)
        out[fwd] = (d1(tf) - 2.0 * d1(tf + hf) + d1(tf + 2 * hf)) / (hf * hf)
    return out.reshape(np.shape(t))


def yadrenko(spec: KernelSpec, theta):
    """Evaluate phi(2 sin(theta/2)): the chordal-distance substitution.

    It is ``evaluate_euclidean`` at the chord 2 sin(theta/2), after the
    angle gate.  Maps a kernel on R^3 to a kernel on S^2 (and lower
    spheres); the result never drops below about -0.2127 for any valid
    profile on R^3.
    """
    return evaluate_euclidean(spec, 2.0 * np.sin(_check_theta(theta) / 2.0))


def fractal_index_theoretical(spec: KernelSpec) -> float | None:
    """Tabulated fractal index in (0, 2], or None where not defined."""
    fam = _FAMILIES[spec.family]
    if fam.fractal is None:
        return None
    return float(fam.fractal(spec.params))


def max_derivative_order(spec: KernelSpec) -> float:
    """Largest order whose classical derivative exists everywhere on (0, inf).

    Compactly supported profiles lose differentiability at the support
    edge: order k exists for (1 - t/c)_+^tau only when k < tau.
    """
    return _FAMILIES[spec.family].smooth_order(spec.params)


def breakpoints(spec: KernelSpec) -> tuple[float, ...]:
    """Interior smoothness breakpoints of psi on (0, pi), sorted."""
    pts = _FAMILIES[spec.family].breaks(spec.params)
    return tuple(sorted(t for t in pts if 0.0 < t < math.pi))


def as_psi(kern) -> tuple[Callable[[np.ndarray], np.ndarray], tuple[float, ...]]:
    """Coerce a KernelSpec or a callable psi(theta) to (psi, breakpoints).

    The returned psi passes the finiteness gate ``_finite_psi``, and a
    callable's values the shape gate ``_elementwise``.  A callable carries
    no breakpoints.  Anything else raises DomainError.
    """
    if isinstance(kern, KernelSpec):
        raw, breaks = (lambda th: evaluate(kern, th)), breakpoints(kern)
    elif callable(kern):
        raw, breaks = _elementwise(kern, "psi", "theta"), ()
    else:
        raise DomainError(f"kernel must be a KernelSpec or a callable, got {type(kern)!r}")
    return (lambda th: _finite_psi(raw, th)), breaks


def _elementwise(f, quantity: str, arg: str) -> Callable[[np.ndarray], np.ndarray]:
    """The shape gate of a user callable: x -> f(x) as floats of x's shape.

    A scalar value is broadcast to x's shape; any other shape, or a complex
    value, raises DomainError naming the function as ``quantity`` and its
    argument as ``arg`` (and both shapes).
    """
    def call(x):
        vals = f(x)
        if np.iscomplexobj(vals):
            raise DomainError(f"{quantity} returned complex values for {arg}; it must be real")
        vals = np.asarray(vals, dtype=float)
        if vals.shape == np.shape(x):
            return vals
        if vals.ndim == 0:
            return np.full(np.shape(x), vals)
        raise DomainError(f"{quantity} returned shape {vals.shape} for {arg} of shape {np.shape(x)}")

    return call


def _finite_psi(psi, theta: np.ndarray, quantity: str = "psi", arg: str = "theta") -> np.ndarray:
    """psi(theta), or a DomainError naming the first argument where it is not finite.

    The one finiteness gate, of ``as_psi`` and of the Polya convexity checks:
    NaN or inf fails here rather than reach an eigensolver, a factorization or a verdict.
    A caller that gates another function names it in ``quantity`` and its
    argument in ``arg``; the message prints both numbers as plain floats.
    """
    vals = psi(theta)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        at, value = float(theta[bad][0]), float(vals[bad][0])
        raise DomainError(f"{quantity} is not finite at {arg} = {at!r}: {value!r}")
    return vals


def list_families() -> list[dict]:
    """One row per family: name, expression, parameter rule, class info."""
    rows = []
    for name, fam in _FAMILIES.items():
        spec = kernel(name)
        max_d, strict, _ = fam.classify(spec.params)
        fr = fractal_index_theoretical(spec)
        rows.append(
            {
                "family": name,
                "expression": fam.expression,
                "parameter_rule": fam.rule,
                "defaults": ",".join(f"{k}={v:g}" for k, v in sorted(spec.params.items())) or "-",
                "max_dimension": "inf" if max_d == math.inf else str(int(max_d)),
                "strict": strict,
                "fractal_index": "-" if fr is None else f"{fr:g}",
            }
        )
    return rows
