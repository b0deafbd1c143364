"""Labor aggregation, production, expenditure, and capital accumulation.

Production F, lockdown productivity phi and congestion D take scalars or
arrays alike, elementwise.  F and D take powers with ``np.float_power``,
which rounds as Python's ``**`` does (``np.power`` may not), so an array
call equals the scalar calls entry by entry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import _nonnegative


# ----------------------------------------------------------------------
# production function variants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProduction:
    """Y = a_k * K + a_l * L."""

    a_k: float
    a_l: float

    def __post_init__(self):
        for name in ("a_k", "a_l"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"linear production coefficient {name} must be >= 0")

    def __call__(self, K, L):
        return self.a_k * K + self.a_l * L


@dataclass(frozen=True)
class CESProduction:
    """Y = scale * (omega K^s + (1 - omega) L^s)^(1/s) with s < 1, s != 0,
    and the marginal product of capital capped at ``mpk_cap``.

    The cap is applied as the concave envelope min(F, F(0, L) + mpk_cap * K),
    which keeps the function concave and increasing and makes it globally
    Lipschitz in K with constant mpk_cap, uniformly in L.  For s < 0 the raw
    marginal product is already bounded by scale * omega^(1/s) and the cap
    may be omitted; for s in (0, 1) it blows up at K = 0, so a finite cap is
    required.
    """

    scale: float
    omega: float
    substitution: float
    mpk_cap: float | None = None

    def __post_init__(self):
        if not self.scale > 0:
            raise ConfigurationError("CES scale must be > 0")
        if not 0.0 < self.omega < 1.0:
            raise ConfigurationError("CES omega must be in (0, 1)")
        if not (self.substitution < 1.0 and self.substitution != 0.0):
            raise ConfigurationError("CES substitution exponent must be < 1 and nonzero")
        if self.mpk_cap is None and self.substitution > 0.0:
            raise ConfigurationError(
                "CES needs a finite mpk_cap when substitution is in (0, 1), to be "
                "Lipschitz in capital")
        if self.mpk_cap is not None and not self.mpk_cap > 0:
            raise ConfigurationError("mpk_cap must be > 0")

    def _raw(self, K, L):
        s = self.substitution
        with np.errstate(divide="ignore", over="ignore"):
            inner = self.omega * np.float_power(K, s) + (1.0 - self.omega) * np.float_power(L, s)
            power = np.float_power(inner, 1.0 / s)
        # a power that overflows or divides by zero (s < 0 with K or L at or near 0,
        # where Python's ** raised): F takes its limit 0
        return self.scale * np.where(np.isinf(power), 0.0, power)

    def _at_zero_capital(self, L):
        s = self.substitution
        return 0.0 if s < 0.0 else self.scale * (1.0 - self.omega) ** (1.0 / s) * L

    def __call__(self, K, L):
        K = np.maximum(K, 0.0)
        L = np.maximum(L, 0.0)
        raw = self._raw(K, L)
        if self.mpk_cap is None:
            return raw
        return np.minimum(raw, self._at_zero_capital(L) + self.mpk_cap * K)


@dataclass(frozen=True)
class CobbDouglasProduction:
    """Y = scale * K^omega * L^(1 - omega); not globally Lipschitz in K."""

    scale: float
    omega: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ConfigurationError("Cobb-Douglas scale must be > 0")
        if not 0.0 < self.omega < 1.0:
            raise ConfigurationError("Cobb-Douglas omega must be in (0, 1)")
        warnings.warn(
            "Cobb-Douglas production is not globally Lipschitz in K; "
            "the capital equation loses its global well-posedness guarantee",
            UserWarning,
            stacklevel=2,
        )

    def __call__(self, K, L):
        return (self.scale * np.float_power(np.maximum(K, 0.0), self.omega)
                * np.float_power(np.maximum(L, 0.0), 1.0 - self.omega))


# ----------------------------------------------------------------------
# lockdown productivity and testing congestion
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLockdown:
    """phi(theta) = theta^q, q > 0; increasing with phi(1) = 1."""

    q: float

    def __post_init__(self):
        if not self.q > 0:
            raise ConfigurationError("lockdown productivity exponent q must be > 0")

    def __call__(self, theta):
        return np.power(theta, self.q)


@dataclass(frozen=True)
class AffineLockdown:
    """phi(theta) = (1 - ell) + ell * theta, ell in [0, 1]."""

    ell: float

    def __post_init__(self):
        if not 0.0 <= self.ell <= 1.0:
            raise ConfigurationError("lockdown productivity slope ell must be in [0, 1]")

    def __call__(self, theta):
        return (1.0 - self.ell) + self.ell * np.asarray(theta, dtype=np.float64)


@dataclass(frozen=True)
class LinearCongestion:
    """D(x) = d1 * x."""

    d1: float

    def __post_init__(self):
        if not self.d1 >= 0:
            raise ConfigurationError("congestion slope d1 must be >= 0")

    def __call__(self, x):
        return self.d1 * x


@dataclass(frozen=True)
class ConcavePowerCongestion:
    """D(x) = d1 * x^p with p in (0, 1]; positive and concave on x >= 0."""

    d1: float
    p: float

    def __post_init__(self):
        if not self.d1 >= 0:
            raise ConfigurationError("congestion slope d1 must be >= 0")
        if not 0.0 < self.p <= 1.0:
            raise ConfigurationError("congestion exponent p must be in (0, 1]")

    def __call__(self, x):
        return self.d1 * np.float_power(np.maximum(x, 0.0), self.p)


@dataclass(frozen=True, eq=False)
class EconParams:
    """Age productivity and testing cost profiles (one value per age cell), and
    functional-form choices.

    ``cost_complement`` switches the testing expenditure argument from the
    transmission-retention level eta (as printed in the model) to 1 - eta.
    """

    alpha: np.ndarray
    e: np.ndarray
    delta: float
    F: object
    phi: object
    D: object
    cost_complement: bool = False

    def __post_init__(self):
        if not self.delta > 0:
            raise ConfigurationError(f"depreciation delta must be > 0, got {self.delta}")
        if np.ndim(self.alpha) != 1:
            raise ConfigurationError("alpha must be a 1-d age profile")
        for name in ("alpha", "e"):
            object.__setattr__(self, name, _nonnegative(getattr(self, name),
                                                        np.shape(self.alpha), name))


# ----------------------------------------------------------------------
# aggregates
# ----------------------------------------------------------------------

# The aggregates take the state x = (s, i, r) as a (3, n_age) array or a
# triple of arrays, so the trajectory kernel and the Hamiltonian share them.
# They sum along the last axis: a (L, n_age) stack of control slices gives
# one aggregate per row, each equal to that slice's, and a node stack of
# states (each component shaped to broadcast against the rows) one per node.

def labor_supply(x, theta_t: np.ndarray, econ: EconParams, da: float, phi=None):
    """Efficiency-unit labor of the working compartments, L = int (s+r) alpha phi(theta);
    ``phi``, when given, is phi(theta) already made."""
    s, _, r = x
    if phi is None:
        phi = econ.phi(theta_t)
    return da * np.add.reduce((s + r) * econ.alpha * phi, -1)


def consumption_total(x, c_t: np.ndarray, da: float, n=None):
    """Aggregate consumption C = int c (s + i + r) da; ``n``, when given, is s + i + r
    already made."""
    if n is None:
        s, i, r = x
        n = s + i + r
    return da * np.add.reduce(c_t * n, -1)


def testing_cost(x, eta_t: np.ndarray, econ: EconParams, da: float):
    """Congestion-priced testing expenditure D(int level * i * e da)."""
    level = (1.0 - eta_t) if econ.cost_complement else eta_t
    return econ.D(da * np.add.reduce(level * x[1] * econ.e, -1))


def capital_step(K, Y, C, d_cost, econ: EconParams, dt: float):
    """One explicit Euler step of the capital accumulation law, given the output Y = F(K, L).

    Elementwise over a batch; the stepping kernel checks the result per row.
    """
    return K + dt * (Y - C - econ.delta * K - d_cost)
