"""Age/time discretization and contact kernels.

Everything downstream shares this substrate: a uniform cell-centered age
mesh and a time mesh locked to the same spacing (so aging is an exact index
shift).  Age profiles are plain arrays sampled at the cell centers, and
every age integral is the midpoint rule da * sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def _as_readonly(values, shape, what):
    """A frozen float64 array of ``values``, checked for ``shape`` and finiteness.

    A frozen array that owns its data is checked in place, anything else copied.
    """
    frozen = (isinstance(values, np.ndarray) and values.flags.owndata
              and not values.flags.writeable)
    arr = np.asarray(values, dtype=np.float64) if frozen else np.array(values, dtype=np.float64)
    if arr.shape != shape:
        raise ConfigurationError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{what}: values must be finite")
    arr.flags.writeable = False
    return arr


def _nonnegative(values, shape, what):
    """:func:`_as_readonly`, and every value must be >= 0."""
    arr = _as_readonly(values, shape, what)
    if np.any(arr < 0):
        raise ConfigurationError(f"{what} must be nonnegative")
    return arr


@dataclass(frozen=True)
class AgeGrid:
    """Uniform cell-centered mesh on [0, a_max] with n_age cells.

    Nodes are the cell centers a_j = (j + 1/2) * da.  Sampling at cell
    centers keeps weighted integrands away from a = 0 and a = a_max where
    the survival weights degenerate.
    """

    a_max: float
    n_age: int

    def __post_init__(self):
        if not self.a_max > 0.0:
            raise ConfigurationError(f"a_max must be > 0, got {self.a_max}")
        if int(self.n_age) != self.n_age or self.n_age < 8:
            raise ConfigurationError(f"n_age must be an integer >= 8, got {self.n_age}")

    @property
    def da(self) -> float:
        return self.a_max / self.n_age

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n_age) + 0.5) * self.da


@dataclass(frozen=True)
class TimeGrid:
    """Time mesh t_k = t0 + k * dt for k = 0..n_steps.

    The simulation requires dt equal to the companion age grid's da
    (cohort alignment); build with :meth:`aligned` to guarantee it.
    """

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 0:
            raise ConfigurationError(f"n_steps must be an integer >= 0, got {self.n_steps}")

    @classmethod
    def aligned(cls, age_grid: AgeGrid, t0: float = 0.0, n_steps: int = 0) -> "TimeGrid":
        return cls(t0=t0, dt=age_grid.da, n_steps=n_steps)

    @property
    def t_end(self) -> float:
        return self.t0 + self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class RankOneKernel:
    """Contact kernel m0 * g(a) * g(tau) kept as factors: ``m @ x`` is O(n_age), no table.

    ``m @ x`` applies the kernel along the last axis, so a (L, n_age) stack
    gives one product per row.  Dense kernels are plain arrays with the same
    ``shape``; ``epi.force_of_infection`` applies them to stacks row by row.
    Every rate m0 * g(a) * g(tau) must be >= 0: m0 >= 0 and g of one sign.
    """

    m0: float
    g: np.ndarray

    def __post_init__(self):
        g = _as_readonly(self.g, np.shape(self.g), "contact kernel profile")
        if g.ndim != 1 or not np.isfinite(self.m0):
            raise ConfigurationError("rank-one kernel needs a finite m0 and a 1-d profile")
        if self.m0 < 0:
            raise ConfigurationError(f"contact rates must be nonnegative: m0 >= 0, got {self.m0}")
        if np.any(g < 0) and np.any(g > 0):
            raise ConfigurationError("contact rates must be nonnegative: g must be of one sign")
        object.__setattr__(self, "g", g)

    @property
    def shape(self) -> tuple:
        return (self.g.size, self.g.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # one dot per row, not a gemv over the stack: each row rounds as it would alone
        return (self.m0 * (x[..., None, :] @ self.g[:, None])[..., 0]) * self.g


def separable_kernel(grid: AgeGrid, m0: float, shape_values: np.ndarray) -> RankOneKernel:
    """Kernel m(a, tau) = m0 * g(a) * g(tau) with g sampled at the nodes."""
    if np.shape(shape_values) != (grid.n_age,):
        raise ConfigurationError("separable kernel shape profile must have one value per cell")
    return RankOneKernel(float(m0), shape_values)


def table_kernel(grid: AgeGrid, values) -> np.ndarray:
    """Dense kernel table as a frozen (n_age, n_age) array of finite rates >= 0."""
    return _nonnegative(values, (grid.n_age, grid.n_age), "contact kernel table")


def block_layout(n_time_blocks: int, n_age_blocks: int, time_grid: TimeGrid,
                 age_grid: AgeGrid):
    """Where the blocks sit on the grids: each time node's time block, and the age
    cells per age block.  Blocks must divide both meshes evenly; the terminal
    time node reuses the last time block."""
    ntb, nab = n_time_blocks, n_age_blocks
    n_steps, n_age = time_grid.n_steps, age_grid.n_age
    if n_age % nab != 0:
        raise ConfigurationError(f"{nab} age blocks do not divide n_age = {n_age}")
    if n_steps % ntb != 0:
        raise ConfigurationError(f"{ntb} time blocks do not divide n_steps = {n_steps}")
    return np.append(np.repeat(np.arange(ntb), n_steps // ntb), ntb - 1), n_age // nab


def expand_blocks(block_values: np.ndarray, time_grid: TimeGrid, age_grid: AgeGrid) -> np.ndarray:
    """Expand (..., n_time_blocks, n_age_blocks) values to a (..., n_steps + 1, n_age) surface.

    Leading axes are kept, so the (3, ...) c, theta, eta blocks of a policy
    expand in one call.  The blocks sit as :func:`block_layout` places them.
    The surface is one C-ordered allocation, taken from the blocks repeated
    along the age axis.
    """
    bv = np.asarray(block_values, dtype=np.float64)
    nodes, width = block_layout(*bv.shape[-2:], time_grid, age_grid)
    return np.repeat(bv, width, axis=-1).take(nodes, axis=-2)  # unlike [..., nodes, :], C-ordered
