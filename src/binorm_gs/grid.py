"""Periodic spectral grids and sampled fields.

All functionals in this package are evaluated on a uniform periodic box
[-L/2, L/2)^dim with the origin on a node.  Derivatives are spectral:
the Laplacian is diagonal in the discrete Fourier basis with symbol
-|k|^2, wavenumbers k in (2*pi/L) * {-n/2, ..., n/2 - 1} per axis.
Integrals are plain node sums scaled by the cell volume h^dim, which is
spectrally accurate for smooth periodic integrands.

Every Fourier transform of the package is taken here, by _HalfSpectrum: the
real-FFT half-spectrum layout with its bin weights, Parseval's scale and
|k|^2, for a stack of fields (one for laplacian and grad_norm_sq).
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "State",
    "make_grid",
    "integrate",
    "inner",
    "norm_sq",
    "laplacian",
    "grad_norm_sq",
    "translate",
    "radial_profile",
    "write_field_csv",
    "read_field_csv",
]

DIMS = (1, 2)  # the spatial dimensions a grid, and so a problem, may have


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, one of DIMS.
    n : int
        Nodes per axis; a power of two, at least 8.
    length : float
        Box edge length L.

    Attributes
    ----------
    h : float
        Node spacing L / n.
    axes : tuple of ndarray
        Node coordinates per axis, x_i = -L/2 + i h (origin on node n/2).
    k2 : ndarray
        |k|^2 on the full grid, FFT layout; the package reads its half
        (_HalfSpectrum), and the full array is for bench/make_references.py.
    shape : tuple of int
        Array shape of a field on this grid.
    """

    dim: int
    n: int
    length: float

    def __post_init__(self) -> None:
        if self.dim not in DIMS:
            raise ValueError(f"dim must be one of {DIMS}, got {self.dim}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (0 < self.length < np.inf):
            raise ValueError(f"box length must be positive and finite, got {self.length}")
        h = self.length / self.n
        axes = (-0.5 * self.length + h * np.arange(self.n),) * self.dim
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=h)
        k2 = sum(k * k for k in np.meshgrid(*[k1] * self.dim, indexing="ij"))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "k2", k2)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays broadcast to the full grid shape."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def radius(self) -> np.ndarray:
        """Distance of each node from the origin node."""
        return np.sqrt(_squared_distance(self, (0.0,) * self.dim))


def _squared_distance(grid: Grid, center: Sequence[float]) -> np.ndarray:
    """Squared distance of each node from center, one coordinate per axis."""
    return sum((x - c) ** 2 for x, c in zip(grid.meshes(), center))


@dataclass(frozen=True, eq=False)
class Field:
    """Real scalar field sampled on a grid.

    Values are node-ordered lexicographically (C order) and stored as
    float64.  An array that is not real raises ValueError: the energy sees
    only |u| and |grad u|, and |grad |u|| <= |grad u| pointwise, so every
    infimum is attained by a real state.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isrealobj(v):
            raise ValueError(f"field values must be real, got dtype {v.dtype}")
        object.__setattr__(self, "values", v.astype(np.float64, copy=False))


@dataclass(frozen=True, eq=False)
class State:
    """Two-component state (u1, u2) on a shared grid."""

    u1: Field
    u2: Field

    def __post_init__(self) -> None:
        if self.u1.grid != self.u2.grid:
            raise ValueError("components must share one grid")

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    def masses(self) -> tuple[float, float]:
        """Squared L2 norms of the two components."""
        return norm_sq(self.u1), norm_sq(self.u2)


def make_grid(dim: int, n: int, length: float) -> Grid:
    """Validated grid constructor; see Grid for the node layout."""
    return Grid(dim=dim, n=n, length=length)


def integrate(field: Field | np.ndarray, grid: Grid | None = None) -> float:
    """Integral of a real field or array over the box: cell volume times the
    node sum.

    Raises
    ------
    ValueError
        If any sample is non-finite (the sum would silently poison
        every downstream energy).
    """
    if isinstance(field, Field):
        grid = field.grid
        values = field.values
    else:
        if grid is None:
            raise ValueError("grid required when integrating a bare array")
        values = field
    total = float(values.sum())
    if not np.isfinite(total):
        raise ValueError("integrate: non-finite samples")
    return grid.cell_volume * total


def inner(f: Field, g: Field) -> float:
    """L2 pairing <f, g> = integral of f * g."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return integrate(f.values * g.values, f.grid)


def norm_sq(f: Field) -> float:
    """Squared L2 norm."""
    return integrate(f.values**2, f.grid)


def laplacian(f: Field) -> Field:
    """Spectral Laplacian, diagonal multiplier -|k|^2 on the half spectrum."""
    half = _HalfSpectrum(f.grid)
    return Field(f.grid, half.laplacian(half.forward(f.values[None]))[0])


def grad_norm_sq(f: Field) -> float:
    """Squared H1 seminorm, integral of |grad f|^2, via Parseval on the half spectrum."""
    half = _HalfSpectrum(f.grid)
    return 2.0 * half.kinetic(half.forward(f.values[None]))[0]


class _HalfSpectrum:
    """The real-FFT half-spectrum layout of a grid, for stacks of fields with
    a leading row axis, one row per state.

    Spectra keep the first n // 2 + 1 bins of the last axis.  Each bin but
    its first and last also stands for its mirror image, so full-spectrum
    sums weigh it twice, and Parseval's scale h^dim / n^dim makes such a sum
    an integral.  Reductions are taken row by row into Python floats, so
    each row gets the arithmetic of a stack of one.  Per-grid arrays have a
    leading axis of length 1, so that one row meets arrays of its own shape.
    """

    def __init__(self, grid: Grid) -> None:
        self.shape, self.axes = grid.shape, tuple(range(1, grid.dim + 1))
        self.cell = grid.cell_volume
        self._scale = self.cell / grid.n**grid.dim
        self.k2 = grid.k2[None, ..., : grid.n // 2 + 1].copy()  # |k|^2
        self._weights = np.full(self.k2.shape, 2.0)
        self._weights[..., [0, -1]] = 1.0
        self._weighted_k2 = self._weights * self.k2

    @functools.cached_property
    def _complex(self) -> tuple[np.ndarray, np.ndarray]:
        """Complex k2 and weights, built on first use (only the flow's): they save
        a cast per product, to the same bits, 2.8% of an n = 4096 soliton solve."""
        return self.k2.astype(complex), self._weights.astype(complex)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(x, s=self.shape, axes=self.axes)

    def inverse(self, x_hat: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(x_hat, s=self.shape, axes=self.axes)

    def total(self, x: np.ndarray) -> list[float]:
        """Row sums of a stack of fields."""
        return np.add.reduce(x, axis=self.axes).tolist()

    def laplacian(self, x_hat: np.ndarray) -> np.ndarray:
        """Laplacians of the fields with half spectra x_hat."""
        return self.inverse(-self.k2 * x_hat)

    def gradient(self, x_hat: np.ndarray, force: np.ndarray) -> np.ndarray:
        """Half spectra of -lap x + force, for x's half spectra and a real force."""
        return self._complex[0] * x_hat + self.forward(force)

    def kinetic(self, x_hat: np.ndarray) -> list[float]:
        """Per row 1/2 int |grad x|^2 of the fields with half spectra x_hat."""
        scale = 0.5 * self._scale
        return [scale * s for s in self.total(self._weighted_k2 * np.abs(x_hat) ** 2)]

    def dot(self, a_hat: np.ndarray, b_hat: np.ndarray) -> list[float]:
        """Per row the L2 product <a, b> of the fields with half spectra a_hat, b_hat."""
        return [self._scale * x for x in _rowdot(a_hat, self._complex[1] * b_hat)]

    def dots(self, a_hat: list, b_hat: list) -> list[float]:
        """Per row the sum of dot over paired stacks: a product of several components."""
        out = [0] * len(a_hat[0])
        for a, b in zip(a_hat, b_hat):
            for m, x in enumerate(self.dot(a, b)):
                out[m] += x
        return out

    def ratio(self, mult: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> list[float]:
        """Per row <a, M b> / <a, M c> of half spectra, M the real multiplier
        mult; Parseval's scale cancels and is not applied."""
        wm = (self._weights * mult).astype(complex)
        return [x / y for x, y in zip(_rowdot(a, wm * b), _rowdot(a, wm * c))]


def _rowdot(a: np.ndarray, b: np.ndarray) -> list[float]:
    """Re np.vdot(a[j], b[j]) for every row j of two stacks; np.vecdot makes
    the same BLAS call for each row as np.vdot."""
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    return [z.real for z in np.vecdot(a, b).tolist()]


def translate(f: Field, cells: int | Sequence[int]) -> Field:
    """Translate a field by whole cells along each axis (periodic).

    A positive shift moves the sample pattern toward larger coordinates,
    so translate(f, m) samples x -> f(x - m h); an integer m shifts along
    the first axis only.
    """
    g = f.grid
    if isinstance(cells, (int, np.integer)):
        shift = (int(cells),) + (0,) * (g.dim - 1)
    else:
        shift = tuple(int(c) for c in cells)
        if len(shift) != g.dim:
            raise ValueError(f"expected {g.dim} shift components, got {len(shift)}")
    return Field(g, np.roll(f.values, shift, axis=tuple(range(g.dim))))


def radial_profile(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """Shell maxima of |f| against distance from the origin node.

    Nodes are binned by rounding r / h; bin centers are multiples of h.
    Returns (radii, maxima) for the nonempty bins with radius <= L/2,
    radii strictly increasing from 0.
    """
    g = f.grid
    r = g.radius().ravel()
    mag = np.abs(f.values).ravel()
    idx = np.rint(r / g.h).astype(int)
    nbins = idx.max() + 1
    maxima = np.zeros(nbins)
    np.maximum.at(maxima, idx, mag)
    counts = np.bincount(idx, minlength=nbins)
    radii = g.h * np.arange(nbins)
    keep = (counts > 0) & (radii <= 0.5 * g.length)
    return radii[keep], maxima[keep]


def write_field_csv(f: Field, path: str) -> None:
    """Dump a field to CSV: header line '# dim,n,L', rows 'index,value,0.0'.

    Floats are written with repr so the dump round-trips bit-exactly.  The
    constant last column keeps the format of dumps from before fields were
    real only.
    """
    rows = [f"{i},{v!r},0.0\n" for i, v in enumerate(np.ravel(f.values).tolist())]
    with open(path, "w", newline="") as fh:
        fh.write(f"# {f.grid.dim},{f.grid.n},{f.grid.length!r}\n")
        fh.write("".join(rows))


def read_field_csv(path: str) -> Field:
    """Load a field written by write_field_csv.

    Every node must appear exactly once.  A malformed or unsupported
    header, or a row that does not have three fields, does not parse, has
    a nonzero last column, or carries an index outside [0, n**dim) or one
    already seen, raises ValueError naming its line (and index).
    """
    with open(path, newline="") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError(f"{path}, line 1: missing '# dim,n,L' header line")
        try:
            dim_s, n_s, length_s = header[1:].strip().split(",")
            grid = make_grid(int(dim_s), int(n_s), float(length_s))
        except ValueError as exc:
            raise ValueError(f"{path}, line 1: malformed header {header!r}: {exc}") from None
        size = grid.n**grid.dim
        values = np.empty(size)
        seen = np.zeros(size, dtype=bool)
        for line, row in enumerate(csv.reader(fh), start=2):
            if not row:
                continue
            where = f"{path}, line {line}"
            if len(row) != 3:
                raise ValueError(
                    f"{where}: expected 3 fields 'index,value,0.0', got {len(row)}"
                )
            try:
                i, value, last = int(row[0]), float(row[1]), float(row[2])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if last != 0.0:
                raise ValueError(f"{where}: last column is {row[2]}, not 0: fields are real")
            if not 0 <= i < size:
                raise ValueError(f"{where}: index {i} outside [0, {size})")
            if seen[i]:
                raise ValueError(f"{where}: index {i} repeats an earlier row")
            seen[i] = True
            values[i] = value
    if not seen.all():
        raise ValueError(
            f"{path}: expected {size} rows, found {int(seen.sum())}; "
            f"index {int(np.argmin(seen))} is missing"
        )
    return Field(grid, values.reshape(grid.shape))
