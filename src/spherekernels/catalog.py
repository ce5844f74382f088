"""Closed-form kernel families on spheres, with parameter validation.

Every family is standardized to psi(0) = 1 and evaluated as a function of
the great circle distance theta in [0, pi] (radians).  Families defined on
Euclidean distances (those with an analytic phi') read the same closed form
as their profile phi(t), t >= 0, which enables the chordal substitution
t = 2 sin(theta / 2) (``yadrenko``) and the derivative-based convexity
criteria.

Parameter ranges recorded here are the ones that guarantee (strict)
positive definiteness; out-of-range specs still evaluate, so that the
coefficient machinery can expose them as invalid.

Families
--------
powered_exponential  exp(-(theta/c)^alpha)                     c>0, alpha in (0,1]     all d
matern               2^(1-nu)/Gamma(nu) (theta/c)^nu K_nu(...)  c>0, nu in (0,1/2]      all d
generalized_cauchy   (1+(theta/c)^alpha)^(-tau/alpha)          c>0, tau>0, alpha<=1    all d
dagum                1-((theta/c)/(1+theta/c))^alpha           c>0, tau<=1, alpha<tau  all d
multiquadric         (1-delta)^(2 tau)/(1+delta^2-2 delta cos theta)^tau               all d
sine_power           1 - sin(theta/2)^alpha                    alpha in (0,2)          all d
spherical            (1+theta/(2c)) (1-theta/c)_+^2            c>0                     d<=3
askey                (1-theta/c)_+^tau                         c>0, tau>=2             d<=3
wendland_c2          (1+tau theta/c) (1-theta/c)_+^tau         c in (0,pi], tau>=4     d<=3
wendland_c4          (1+tau u+(tau^2-1)/3 u^2) (1-u)_+^tau     c in (0,pi], tau>=6     d<=3
gaspari_cohn         piecewise quintic, support c              c in (0,pi]             d<=3
cosine               cos(theta)                                -                       all d (non-strict)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family name plus its named parameters.

    Construction checks that the family exists, that exactly the family's
    parameters are present and that all values are finite.  It does NOT
    check validity ranges; see ``validate_params``.
    """

    family: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        name = str(self.family).lower()
        if name not in _FAMILIES:
            raise UnknownFamilyError(
                f"unknown kernel family {self.family!r}; known: {', '.join(FAMILY_NAMES)}"
            )
        fam = _FAMILIES[name]
        clean: dict[str, float] = {}
        for key, value in dict(self.params).items():
            k = str(key).lower()
            if k not in fam.param_names:
                raise ParameterError(f"{name} takes parameters {fam.param_names}, got {key!r}")
            v = float(value)
            if not math.isfinite(v):
                raise ParameterError(f"{name}: parameter {k}={value!r} is not finite")
            clean[k] = v
        missing = [p for p in fam.param_names if p not in clean]
        if missing:
            raise ParameterError(f"{name}: missing parameters {missing}")
        object.__setattr__(self, "family", name)
        object.__setattr__(self, "params", dict(clean))

    def __str__(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
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
    param_names: tuple[str, ...]
    defaults: dict[str, float]
    expression: str
    rule: str
    psi: Callable[[dict, np.ndarray], np.ndarray]
    dphi: Callable[[dict, np.ndarray], np.ndarray] | None = None
    dnphi: Callable[[dict, np.ndarray, int], np.ndarray] | None = None
    fractal: Callable[[dict], float] | None = None
    # returns (max_valid_dim, strict, reason); max dim 0 marks invalid params
    classify: Callable[[dict], tuple[float, bool, str]] = None  # type: ignore[assignment]
    breaks: Callable[[dict], tuple[float, ...]] = lambda p: ()
    # largest order whose classical derivative exists everywhere on (0, inf)
    smooth_order: Callable[[dict], float] = lambda p: math.inf


def _pos(t: np.ndarray) -> np.ndarray:
    return np.maximum(t, 0.0)


# --- closed forms (theta-argument) -----------------------------------------

def _psi_powered_exponential(p, th):
    return np.exp(-((th / p["c"]) ** p["alpha"]))


def _psi_matern(p, th):
    t = th / p["c"]
    nu = p["nu"]
    out = np.ones_like(t)
    big = t >= _MATERN_T_FLOOR
    tb = t[big]
    out[big] = (2.0 ** (1.0 - nu) / math.gamma(nu)) * tb**nu * bessel_k(nu, tb)
    return out


def _psi_generalized_cauchy(p, th):
    return (1.0 + (th / p["c"]) ** p["alpha"]) ** (-p["tau"] / p["alpha"])


def _psi_dagum(p, th):
    u = th / p["c"]
    return 1.0 - (u / (1.0 + u)) ** p["alpha"]


def _psi_multiquadric(p, th):
    d, tau = p["delta"], p["tau"]
    return (1.0 - d) ** (2.0 * tau) / (1.0 + d * d - 2.0 * d * np.cos(th)) ** tau


def _psi_sine_power(p, th):
    return 1.0 - np.sin(th / 2.0) ** p["alpha"]


def _psi_spherical(p, th):
    u = th / p["c"]
    return (1.0 + 0.5 * u) * _pos(1.0 - u) ** 2


def _psi_askey(p, th):
    return _pos(1.0 - th / p["c"]) ** p["tau"]


def _psi_wendland_c2(p, th):
    u, tau = th / p["c"], p["tau"]
    return (1.0 + tau * u) * _pos(1.0 - u) ** tau


def _psi_wendland_c4(p, th):
    u, tau = th / p["c"], p["tau"]
    return (1.0 + tau * u + (tau * tau - 1.0) / 3.0 * u * u) * _pos(1.0 - u) ** tau


def _gc_profile(t: np.ndarray) -> np.ndarray:
    """Gaspari-Cohn fifth-order piecewise rational profile with support [0, 1]."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    lo = t <= 0.5
    hi = (t > 0.5) & (t < 1.0)
    tl = t[lo]
    out[lo] = 1.0 - (20.0 / 3.0) * tl**2 + 5.0 * tl**3 + 8.0 * tl**4 - 8.0 * tl**5
    th_ = t[hi]
    out[hi] = (8.0 * th_**2 + 8.0 * th_ - 1.0) * (1.0 - th_) ** 4 / (3.0 * th_)
    return out


def _gc_profile_derivative(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    lo = t <= 0.5
    hi = (t > 0.5) & (t < 1.0)
    tl = t[lo]
    out[lo] = -(40.0 / 3.0) * tl + 15.0 * tl**2 + 32.0 * tl**3 - 40.0 * tl**4
    th_ = t[hi]
    out[hi] = (
        (8.0 + th_**-2) * (1.0 - th_) ** 4
        - 4.0 * (8.0 * th_**2 + 8.0 * th_ - 1.0) * (1.0 - th_) ** 3 / th_
    ) / 3.0
    return out


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
    c, a = p["c"], p["alpha"]
    u = t / c
    return -(a / c) * (u / (1.0 + u)) ** (a - 1.0) / (1.0 + u) ** 2


def _dphi_spherical(p, t):
    c = p["c"]
    u = t / c
    return np.where(u < 1.0, -(3.0 / (2.0 * c)) * (1.0 - u * u), 0.0)


def _dphi_askey(p, t):
    c, tau = p["c"], p["tau"]
    return -(tau / c) * _pos(1.0 - t / c) ** (tau - 1.0)


def _dphi_wendland_c2(p, t):
    c, tau = p["c"], p["tau"]
    u = t / c
    return -(tau * (tau + 1.0) / c) * u * _pos(1.0 - u) ** (tau - 1.0)


def _dphi_wendland_c4(p, t):
    c, tau = p["c"], p["tau"]
    u = t / c
    return (
        -((tau + 1.0) * (tau + 2.0) / (3.0 * c))
        * u
        * (1.0 + (tau - 1.0) * u)
        * _pos(1.0 - u) ** (tau - 1.0)
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
    inside = u < 1.0  # classical piecewise derivative; 0 at and beyond the edge
    out[inside] = (-1.0 / c) ** order * coeff * (1.0 - u[inside]) ** (tau - order)
    return out


# --- validity classification -------------------------------------------------

def _classify_powered_exponential(p):
    if p["c"] <= 0:
        return 0.0, False, f"scale c must be positive, got c={p['c']:g}"
    if 0 < p["alpha"] <= 1:
        return math.inf, True, "alpha in (0,1] gives a completely monotone profile"
    return 0.0, False, f"alpha={p['alpha']:g} outside (0,1]: not positive definite on any sphere"


def _classify_matern(p):
    if p["c"] <= 0 or p["nu"] <= 0:
        return 0.0, False, "requires c > 0 and nu > 0"
    if p["nu"] <= 0.5:
        return math.inf, True, "nu in (0,1/2] gives a completely monotone profile"
    return 0.0, False, f"nu={p['nu']:g} > 1/2: not positive definite on any sphere"


def _classify_generalized_cauchy(p):
    if p["c"] <= 0 or p["tau"] <= 0:
        return 0.0, False, "requires c > 0 and tau > 0"
    if 0 < p["alpha"] <= 1:
        return math.inf, True, "alpha in (0,1] gives a completely monotone profile"
    return 0.0, False, f"alpha={p['alpha']:g} outside (0,1]: not positive definite on any sphere"


def _classify_dagum(p):
    if p["c"] <= 0:
        return 0.0, False, "requires c > 0"
    if 0 < p["tau"] <= 1 and 0 < p["alpha"] < p["tau"]:
        return math.inf, True, "tau in (0,1] and alpha in (0,tau) give a completely monotone profile"
    return 0.0, False, "requires tau in (0,1] and alpha in (0,tau)"


def _classify_multiquadric(p):
    if p["tau"] > 0 and 0 < p["delta"] < 1:
        return math.inf, True, "power series in cos(theta) with strictly positive coefficients"
    return 0.0, False, "requires tau > 0 and delta in (0,1)"


def _classify_sine_power(p):
    a = p["alpha"]
    if 0 < a < 2:
        return math.inf, True, "alpha in (0,2): strictly positive expansion coefficients"
    if a == 2:
        return math.inf, False, "alpha = 2 equals (1+cos theta)/2: positive definite, not strictly"
    return 0.0, False, f"alpha={a:g} outside (0,2]: not positive definite on any sphere"


def _classify_spherical(p):
    if p["c"] > 0:
        return 3.0, True, "valid with great circle distance for every support c > 0, d <= 3"
    return 0.0, False, "requires c > 0"


def _classify_askey(p):
    if p["c"] > 0 and p["tau"] >= 2:
        return 3.0, True, "tau >= 2 valid with great circle distance for every c > 0, d <= 3"
    return 0.0, False, "requires c > 0 and tau >= 2"


def _classify_wendland(min_tau):
    def classify(p):
        if not 0 < p["c"] <= math.pi:
            return 0.0, False, "support scale must lie in (0, pi]"
        if p["tau"] >= min_tau:
            return 3.0, True, f"tau >= {min_tau} and c in (0,pi]: valid for d <= 3"
        return 0.0, False, f"requires tau >= {min_tau}"

    return classify


def _classify_gaspari_cohn(p):
    if 0 < p["c"] <= math.pi:
        return 3.0, True, "compactly supported profile valid with great circle distance, d <= 3"
    return 0.0, False, "support scale must lie in (0, pi]"


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
        param_names=("c", "alpha"),
        defaults={"c": 1.0, "alpha": 1.0},
        expression="exp(-(theta/c)^alpha)",
        rule="c > 0; alpha in (0,1]; all dimensions, strict",
        psi=_psi_powered_exponential,
        dphi=_dphi_powered_exponential,
        fractal=lambda p: p["alpha"],
        classify=_classify_powered_exponential,
    ),
    "matern": _Family(
        param_names=("c", "nu"),
        defaults={"c": 1.0, "nu": 0.5},
        expression="2^(1-nu)/Gamma(nu) (theta/c)^nu K_nu(theta/c)",
        rule="c > 0; nu in (0,1/2]; all dimensions, strict",
        psi=_psi_matern,
        dphi=_dphi_matern,
        fractal=lambda p: min(2.0 * p["nu"], 2.0),
        classify=_classify_matern,
    ),
    "generalized_cauchy": _Family(
        param_names=("c", "alpha", "tau"),
        defaults={"c": 1.0, "alpha": 1.0, "tau": 2.0},
        expression="(1+(theta/c)^alpha)^(-tau/alpha)",
        rule="c > 0; tau > 0; alpha in (0,1]; all dimensions, strict",
        psi=_psi_generalized_cauchy,
        dphi=_dphi_generalized_cauchy,
        fractal=lambda p: p["alpha"],
        classify=_classify_generalized_cauchy,
    ),
    "dagum": _Family(
        param_names=("c", "tau", "alpha"),
        defaults={"c": 1.0, "tau": 1.0, "alpha": 0.5},
        expression="1-((theta/c)^tau/(1+theta/c)^tau)^(alpha/tau)",
        rule="c > 0; tau in (0,1]; alpha in (0,tau); all dimensions, strict",
        psi=_psi_dagum,
        dphi=_dphi_dagum,
        fractal=lambda p: p["alpha"],
        classify=_classify_dagum,
    ),
    "multiquadric": _Family(
        param_names=("tau", "delta"),
        defaults={"tau": 1.0, "delta": 0.5},
        expression="(1-delta)^(2 tau)/(1+delta^2-2 delta cos theta)^tau",
        rule="tau > 0; delta in (0,1); all dimensions, strict",
        psi=_psi_multiquadric,
        classify=_classify_multiquadric,
    ),
    "sine_power": _Family(
        param_names=("alpha",),
        defaults={"alpha": 1.0},
        expression="1 - sin(theta/2)^alpha",
        rule="alpha in (0,2) strict; alpha = 2 valid non-strict; all dimensions",
        psi=_psi_sine_power,
        fractal=lambda p: p["alpha"],
        classify=_classify_sine_power,
    ),
    "spherical": _Family(
        param_names=("c",),
        defaults={"c": math.pi / 2},
        expression="(1+theta/(2c)) (1-theta/c)_+^2",
        rule="c > 0; dimensions d <= 3, strict",
        psi=_psi_spherical,
        dphi=_dphi_spherical,
        fractal=lambda p: 1.0,
        classify=_classify_spherical,
        breaks=_breaks_support,
        smooth_order=lambda p: 1.0,
    ),
    "askey": _Family(
        param_names=("c", "tau"),
        defaults={"c": math.pi / 2, "tau": 2.0},
        expression="(1-theta/c)_+^tau",
        rule="c > 0; tau >= 2; dimensions d <= 3, strict",
        psi=_psi_askey,
        dphi=_dphi_askey,
        dnphi=_dnphi_askey,
        fractal=lambda p: 1.0,
        classify=_classify_askey,
        breaks=_breaks_support,
        smooth_order=_truncation_smoothness,
    ),
    "wendland_c2": _Family(
        param_names=("c", "tau"),
        defaults={"c": math.pi / 2, "tau": 4.0},
        expression="(1+tau theta/c) (1-theta/c)_+^tau",
        rule="c in (0,pi]; tau >= 4; dimensions d <= 3, strict",
        psi=_psi_wendland_c2,
        dphi=_dphi_wendland_c2,
        fractal=lambda p: 2.0,
        classify=_classify_wendland(4.0),
        breaks=_breaks_support,
        smooth_order=_truncation_smoothness,
    ),
    "wendland_c4": _Family(
        param_names=("c", "tau"),
        defaults={"c": math.pi / 2, "tau": 6.0},
        expression="(1+tau u+(tau^2-1)/3 u^2) (1-u)_+^tau, u=theta/c",
        rule="c in (0,pi]; tau >= 6; dimensions d <= 3, strict",
        psi=_psi_wendland_c4,
        dphi=_dphi_wendland_c4,
        fractal=lambda p: 2.0,
        classify=_classify_wendland(6.0),
        breaks=_breaks_support,
        smooth_order=_truncation_smoothness,
    ),
    "gaspari_cohn": _Family(
        param_names=("c",),
        defaults={"c": math.pi / 2},
        expression="fifth-order piecewise rational, support [0, c]",
        rule="c in (0,pi]; dimensions d <= 3, strict",
        psi=_psi_gaspari_cohn,
        dphi=_dphi_gaspari_cohn,
        classify=_classify_gaspari_cohn,
        breaks=_breaks_gaspari_cohn,
        smooth_order=lambda p: 3.0,
    ),
    "cosine": _Family(
        param_names=(),
        defaults={},
        expression="cos(theta)",
        rule="no parameters; all dimensions, non-strict",
        psi=_psi_cosine,
        classify=_classify_cosine,
    ),
}

FAMILY_NAMES: tuple[str, ...] = tuple(_FAMILIES)


def kernel(family: str, **params: float) -> KernelSpec:
    """Build a KernelSpec, filling unspecified parameters from family defaults."""
    name = str(family).lower()
    if name not in _FAMILIES:
        raise UnknownFamilyError(
            f"unknown kernel family {family!r}; known: {', '.join(FAMILY_NAMES)}"
        )
    merged = dict(_FAMILIES[name].defaults)
    merged.update({str(k).lower(): v for k, v in params.items()})
    return KernelSpec(name, merged)


def parse_kernel(text: str) -> KernelSpec:
    """Parse ``family:key=value,key=value`` (case-insensitive, radians)."""
    body = text.strip().lower()
    if not body:
        raise ParameterError("empty kernel specification")
    name, _, rest = body.partition(":")
    params: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            if not item.strip():
                continue
            key, sep, value = item.partition("=")
            if not sep:
                raise ParameterError(f"malformed kernel parameter {item!r} (expected key=value)")
            try:
                params[key.strip()] = float(value)
            except ValueError as exc:
                raise ParameterError(f"non-numeric kernel parameter {item!r}") from exc
    return kernel(name, **params)


def validate_params(spec: KernelSpec, d) -> ValidityVerdict:
    """Verdict on whether ``spec`` is guaranteed positive definite on S^d.

    ``d`` is a positive integer or ``math.inf``.  Validity is monotone:
    valid on S^d implies valid on every lower-dimensional sphere.
    """
    if d != math.inf:
        d = _check_count("sphere dimension", d, 1)
    fam = _FAMILIES[spec.family]
    max_d, strict, reason = fam.classify(spec.params)
    valid = d <= max_d
    if valid:
        return ValidityVerdict(True, strict, fam.rule, reason)
    if max_d == 0.0:
        return ValidityVerdict(False, False, fam.rule, reason)
    return ValidityVerdict(
        False, False, fam.rule, f"guaranteed only for d <= {int(max_d)}, requested d={d}"
    )


def _check_theta(theta) -> np.ndarray:
    """The angle gate: theta in [0, pi] within 1e-12, clipped; NaN fails."""
    arr = np.asarray(theta, dtype=float)
    if not (np.all(arr >= -1e-12) and np.all(arr <= math.pi + 1e-12)):
        raise DomainError("great circle distance must lie in [0, pi]")
    return np.clip(arr, 0.0, math.pi)


def _check_distance(t) -> np.ndarray:
    """The distance gate: finite t >= 0; NaN fails."""
    arr = np.asarray(t, dtype=float)
    if not (np.all(arr >= 0) and np.all(arr < math.inf)):
        raise DomainError("Euclidean distance must be finite and >= 0")
    return arr


def evaluate(spec: KernelSpec, theta):
    """Evaluate psi(theta) for theta in [0, pi]; psi(0) = 1 exactly.

    Validity is not required: out-of-range parameter sets evaluate too.
    """
    arr = _check_theta(theta)
    out = _FAMILIES[spec.family].psi(spec.params, arr)
    return float(out) if arr.ndim == 0 else out


def evaluate_euclidean(spec: KernelSpec, t):
    """Evaluate the Euclidean-argument profile phi(t), t >= 0.

    Defined only for families that are restrictions of kernels on R^3
    (or on every Euclidean space); raises DomainError otherwise.
    """
    fam = _FAMILIES[spec.family]
    if fam.dphi is None:
        raise DomainError(f"{spec.family} has no Euclidean-argument profile")
    arr = _check_distance(t)
    out = fam.psi(spec.params, arr)
    return float(out) if arr.ndim == 0 else out


def euclid_derivative(spec: KernelSpec, t, order: int = 1):
    """Derivative phi^(order)(t) of the Euclidean profile at t > 0, order in {1, 2, 3}.

    The first derivative is analytic for every Euclidean family; higher
    orders fall back to differences of the analytic first derivative
    (step 1e-3 * max(1, t), forward near 0) unless the family supplies them;
    for orders that do not exist classically everywhere on (0, inf) see
    ``max_derivative_order``.  t = 0 is outside the domain for every
    family, since rough profiles have no derivative there.
    """
    fam = _FAMILIES[spec.family]
    if fam.dphi is None:
        raise DomainError(f"{spec.family} has no Euclidean-argument derivative")
    order = _check_count("derivative order", order, 1)
    if order > 3:
        raise DomainError(f"derivative order must be 1, 2 or 3, got {order}")
    arr = _check_distance(t)
    if not np.all(arr > 0):
        raise DomainError("the profile derivative is taken at t > 0")
    if fam.dnphi is not None:
        out = fam.dnphi(spec.params, arr, order)
    else:
        out = _derivative_from_first(lambda x: fam.dphi(spec.params, x), arr, order)
    return float(out) if arr.ndim == 0 else out


def _derivative_from_first(d1: Callable[[np.ndarray], np.ndarray], t: np.ndarray, order: int):
    """phi^(order)(t) from the first derivative d1, order in {1, 2, 3}.

    Order 1 is d1 itself.  Higher orders are differences of d1 with step
    h = 1e-3 * max(1, t): central where t >= h, one-sided forward below,
    so that t - h never leaves the domain.
    """
    if order == 1:
        return d1(t)
    flat = np.atleast_1d(np.asarray(t, dtype=float))
    h = 1e-3 * np.maximum(1.0, flat)
    out = np.empty_like(flat)
    ctr = flat >= h
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

    Maps a kernel on R^3 to a kernel on S^2 (and lower spheres); the
    result never drops below about -0.2127 for any valid profile on R^3.
    """
    fam = _FAMILIES[spec.family]
    if fam.dphi is None:
        raise DomainError(f"{spec.family} has no Euclidean-argument profile")
    arr = _check_theta(theta)
    out = fam.psi(spec.params, 2.0 * np.sin(arr / 2.0))
    return float(out) if arr.ndim == 0 else out


def fractal_index_theoretical(spec: KernelSpec) -> float | None:
    """Tabulated fractal index in (0, 2], or None where not defined."""
    fam = _FAMILIES[spec.family]
    if fam.fractal is None:
        return None
    return float(fam.fractal(spec.params))


def has_analytic_derivatives(spec: KernelSpec) -> bool:
    """True when the family supplies every derivative order analytically."""
    return _FAMILIES[spec.family].dnphi is not None


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

    A callable carries no breakpoints.  Anything else raises DomainError.
    """
    if isinstance(kern, KernelSpec):
        return (lambda th: evaluate(kern, th)), breakpoints(kern)
    if callable(kern):
        return (lambda th: np.asarray(kern(th), dtype=float)), ()
    raise DomainError(f"kernel must be a KernelSpec or a callable, got {type(kern)!r}")


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
