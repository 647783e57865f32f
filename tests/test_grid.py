"""Spectral grid primitives: calculus identities and exact bookkeeping."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binorm_gs.grid import (
    Field,
    _HalfSpectrum,
    grad_norm_sq,
    inner,
    integrate,
    laplacian,
    make_grid,
    norm_sq,
    radial_profile,
    read_field_csv,
    translate,
    write_field_csv,
)


def test_make_grid_bookkeeping():
    g = make_grid(1, 8, 4.0)
    assert g.h == 0.5
    assert g.shape == (8,)
    assert g.cell_volume == 0.5
    assert g.axes[0][0] == -2.0
    assert g.axes[0][-1] == 1.5
    # the origin is a node (needed by potentials and radial profiles)
    assert 0.0 in g.axes[0]


def test_make_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_grid(1, 24, 4.0)  # not a power of two
    with pytest.raises(ValueError):
        make_grid(3, 8, 4.0)
    with pytest.raises(ValueError):
        make_grid(1, 8, -1.0)
    with pytest.raises(ValueError, match="finite, got inf"):
        make_grid(1, 16, math.inf)


def test_plane_wave_is_laplacian_eigenfunction(grid_1d):
    k = 2.0 * np.pi * 7 / grid_1d.length
    f = Field(grid_1d, np.cos(k * grid_1d.axes[0]))
    lap = laplacian(f)
    # sampling roundoff leaks into high modes and gets multiplied by |k|^2
    # there, so normalize the error by the largest spectral multiplier
    err = np.max(np.abs(lap.values - (-(k**2)) * f.values)) / np.max(grid_1d.k2)
    assert err < 1e-13


def test_constant_has_zero_laplacian(grid_1d):
    f = Field(grid_1d, np.full(grid_1d.shape, 3.7))
    assert np.max(np.abs(laplacian(f).values)) < 1e-12


def test_gaussian_laplacian_matches_closed_form():
    g = make_grid(1, 2048, 40.0)
    x = g.axes[0]
    f = Field(g, np.exp(-(x**2)))
    expected = (4.0 * x**2 - 2.0) * np.exp(-(x**2))
    assert np.max(np.abs(laplacian(f).values - expected)) < 1e-8


def test_laplacian_is_symmetric(grid_small, rng):
    f = Field(grid_small, rng.standard_normal(grid_small.shape))
    g = Field(grid_small, rng.standard_normal(grid_small.shape))
    lhs = inner(laplacian(f), g)
    rhs = inner(f, laplacian(g))
    assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-12


def test_grad_norm_matches_plane_wave(grid_1d):
    # Parseval: |grad cos(kx)|^2 integrates to k^2 L / 2
    k = 2.0 * np.pi * 5 / grid_1d.length
    f = Field(grid_1d, np.cos(k * grid_1d.axes[0]))
    expected = 0.5 * k**2 * grid_1d.length
    assert abs(grad_norm_sq(f) - expected) / expected < 1e-12


def test_grad_norm_matches_quadrature_of_derivative(grid_1d):
    x = grid_1d.axes[0]
    f = Field(grid_1d, np.exp(-(x**2) / 4.0))
    df = -x / 2.0 * np.exp(-(x**2) / 4.0)
    expected = float(integrate(df**2, grid_1d))
    assert abs(grad_norm_sq(f) - expected) / expected < 1e-12


def test_integrate_constant_gives_box_volume():
    g1 = make_grid(1, 64, 8.0)
    assert integrate(np.ones(g1.shape), g1) == pytest.approx(8.0, abs=0.0)
    g2 = make_grid(2, 32, 8.0)
    assert integrate(np.ones(g2.shape), g2) == pytest.approx(64.0, abs=0.0)


def test_integrate_gaussian(grid_1d):
    f = np.exp(-grid_1d.axes[0] ** 2)
    assert abs(integrate(f, grid_1d) - math.sqrt(math.pi)) < 1e-10


def test_integrate_odd_function_vanishes(grid_1d):
    x = grid_1d.axes[0]
    f = x * np.exp(-(x**2))
    assert abs(integrate(f, grid_1d)) < 1e-12


def test_integrate_rejects_non_finite(grid_small):
    bad = np.ones(grid_small.shape)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        integrate(bad, grid_small)


def test_inner_is_symmetric(grid_small, rng):
    f = Field(grid_small, rng.standard_normal(grid_small.shape) + 1.0)
    g = Field(grid_small, rng.standard_normal(grid_small.shape))
    assert isinstance(inner(f, g), float)
    assert inner(f, g) == inner(g, f)
    assert norm_sq(f) == inner(f, f)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
def test_half_spectrum_layout_matches_the_full_spectrum(dim, n):
    g = make_grid(dim, n, 8.0)
    layout = _HalfSpectrum(g)
    half = n // 2 + 1
    assert np.array_equal(layout.k2[0], g.k2[..., :half])
    f = Field(g, np.random.default_rng(dim).standard_normal(g.shape))
    full, part = np.fft.fftn(f.values), np.fft.rfftn(f.values)
    stack = layout.forward(f.values[None])
    # a stack of one row transforms as the field itself, to the bit
    assert stack.tobytes() == part.tobytes()
    assert layout.inverse(stack)[0] == pytest.approx(f.values, abs=1e-13)
    assert layout._weights[0].shape == part.shape
    # the weighted half sums of |u^|^2 and k^2 |u^|^2 are the full sums
    scale = g.cell_volume / n**dim
    for full_mult, got in ((1.0, layout.dot(stack, stack)[0]),
                           (g.k2, 2.0 * layout.kinetic(stack)[0])):
        want = scale * float(np.sum(full_mult * np.abs(full) ** 2))
        assert got == pytest.approx(want, rel=1e-13)
    # the Laplacian is -k^2 on the half spectrum as on the full one
    lap_full = np.real(np.fft.ifftn(-g.k2 * full))
    assert layout.laplacian(stack)[0] == pytest.approx(lap_full, abs=1e-10)
    # with M = 1, ratio(M, a, b, a) is <a, b> / <a, a>
    other = layout.forward(np.cos(f.values)[None])
    want = layout.dot(stack, other)[0] / layout.dot(stack, stack)[0]
    assert layout.ratio(np.ones(layout.k2.shape), stack, other, stack)[0] == pytest.approx(
        want, rel=1e-13
    )
    # an integer shift moves along the first axis only
    moved = translate(f, 3)
    assert np.array_equal(moved.values, translate(f, (3,) + (0,) * (dim - 1)).values)


def test_the_package_transforms_only_in_grid():
    # the half-spectrum layout lives in one module: no other one uses np.fft
    src = Path(__file__).resolve().parents[1] / "src" / "binorm_gs"
    fft = re.compile(r"\b(?:np|numpy)\.fft\b|\bfrom numpy import\b.*\bfft\b")
    users = sorted(p.name for p in src.glob("*.py") if fft.search(p.read_text()))
    assert users == ["grid.py"]


def test_translate_identity_and_inverse(grid_small, rng):
    f = Field(grid_small, rng.standard_normal(grid_small.shape))
    assert np.array_equal(translate(f, 0).values, f.values)
    assert np.array_equal(translate(translate(f, 17), -17).values, f.values)


def test_translate_moves_pattern_forward():
    g = make_grid(1, 16, 16.0)
    vals = np.zeros(16)
    vals[3] = 1.0
    moved = translate(Field(g, vals), 5)
    assert moved.values[8] == 1.0
    assert moved.values.sum() == 1.0


@settings(max_examples=25, deadline=None)
@given(
    cells=st.integers(min_value=-300, max_value=300),
    q=st.floats(min_value=0.5, max_value=6.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_translate_preserves_power_integrals(cells, q, seed):
    # translation permutes samples, so node sums agree to rounding
    g = make_grid(1, 256, 32.0)
    rng = np.random.default_rng(seed)
    f = Field(g, rng.standard_normal(g.shape))
    before = float(integrate(np.abs(f.values) ** q, g))
    after = float(integrate(np.abs(translate(f, cells).values) ** q, g))
    assert after == pytest.approx(before, rel=1e-13)


def test_radial_profile_of_exponential(grid_1d):
    f = Field(grid_1d, np.exp(-np.abs(grid_1d.axes[0])))
    radii, maxima = radial_profile(f)
    assert radii[0] == 0.0
    assert np.all(np.diff(radii) > 0)
    sel = (radii > 1.0) & (radii < 20.0)
    err = np.max(np.abs(maxima[sel] - np.exp(-radii[sel])))
    assert err < 1e-6


def test_radial_profile_constant_field(grid_small):
    f = Field(grid_small, np.full(grid_small.shape, 2.5))
    _, maxima = radial_profile(f)
    assert np.all(maxima == 2.5)


def test_radial_profile_origin_spike(grid_small):
    vals = np.zeros(grid_small.shape)
    vals[grid_small.n // 2] = 1.0  # the origin node
    _, maxima = radial_profile(Field(grid_small, vals))
    assert maxima[0] == 1.0
    assert np.all(maxima[1:] == 0.0)


def test_radial_profile_2d_shells(grid_2d_small):
    r = grid_2d_small.radius()
    f = Field(grid_2d_small, np.exp(-r))
    radii, maxima = radial_profile(f)
    assert radii[-1] <= 0.5 * grid_2d_small.length
    sel = (radii > 0.5) & (radii < 6.0)
    # shell maxima of a radial function sit within one cell of e^{-r}
    assert np.max(np.abs(np.log(maxima[sel]) + radii[sel])) < grid_2d_small.h * 1.5


def test_field_csv_round_trip_bit_exact(tmp_path, grid_small, rng):
    f = Field(grid_small, rng.standard_normal(grid_small.shape))
    path = tmp_path / "field.csv"
    write_field_csv(f, str(path))
    back = read_field_csv(str(path))
    assert back.grid == grid_small
    assert np.array_equal(back.values, f.values)


def test_field_csv_real_round_trip(tmp_path):
    g = make_grid(2, 16, 4.0)
    f = Field(g, np.arange(256, dtype=float).reshape(16, 16) / 7.0)
    path = tmp_path / "field2d.csv"
    write_field_csv(f, str(path))
    back = read_field_csv(str(path))
    assert np.array_equal(back.values, f.values)


def test_read_field_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("0,1.0,0.0\n")
    with pytest.raises(ValueError, match="line 1: missing"):
        read_field_csv(str(path))


@pytest.mark.parametrize(
    "header, message",
    [
        ("# 1,8", "malformed header"),
        ("# 1,eight,4.0", "malformed header"),
        ("# 1,8,4.0,0", "malformed header"),
        ("# 3,8,4.0", r"malformed header .*: dim must be one of \(1, 2\), got 3"),
        ("# 1,6,4.0", "malformed header .*: n must be a power of two >= 8, got 6"),
    ],
    ids=["# 1,8", "# 1,eight,4.0", "# 1,8,4.0,0", "# 3,8,4.0", "# 1,6,4.0"],
)
def test_read_field_csv_rejects_malformed_header(tmp_path, header, message):
    path = tmp_path / "junk.csv"
    path.write_text(header + "\n0,1.0,0.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 1: {message}"):
        read_field_csv(str(path))


def test_field_csv_text_format(tmp_path):
    g = make_grid(1, 8, 4.0)
    real = np.array([0.0, -0.0, 5e-324, 0.1, 1.0 / 3.0, -2.5, 1e300, 123456789.0])
    path = tmp_path / "real.csv"
    write_field_csv(Field(g, real), str(path))
    assert path.read_text() == (
        "# 1,8,4.0\n"
        "0,0.0,0.0\n"
        "1,-0.0,0.0\n"
        "2,5e-324,0.0\n"
        "3,0.1,0.0\n"
        "4,0.3333333333333333,0.0\n"
        "5,-2.5,0.0\n"
        "6,1e+300,0.0\n"
        "7,123456789.0,0.0\n"
    )


def _csv_rows(rows):
    return "# 1,8,4.0\n" + "".join(f"{r}\n" for r in rows)


@pytest.mark.parametrize(
    "rows,message",
    [
        # node 5 missing, node 2 listed twice: the row count still matches
        (
            [f"{i},1.0,0.0" for i in (0, 1, 2, 3, 4, 2, 6, 7)],
            r"line 7: index 2 repeats",
        ),
        # -1 would wrap to the last node
        (
            [f"{i},1.0,0.0" for i in (0, 1, 2, 3, 4, 5, 6, -1)],
            r"line 9: index -1 outside \[0, 8\)",
        ),
        (
            [f"{i},1.0,0.0" for i in (0, 1, 2, 3, 4, 5, 6, 8)],
            r"line 9: index 8 outside \[0, 8\)",
        ),
        (
            [f"{i},1.0,0.0" for i in range(8)][:3] + ["3,1.0"],
            r"line 5: expected 3 fields",
        ),
        (
            [f"{i},1.0,0.0" for i in range(8)] + ["8,1.0,0.0,0.0"],
            r"line 10: expected 3 fields",
        ),
        (
            [f"{i},1.0,0.0" for i in range(7)] + ["7,one,0.0"],
            r"line 9: could not convert",
        ),
        # a field is real, so every row's last column is zero
        (
            [f"{i},1.0,0.0" for i in range(5)] + ["5,1.0,-1e-07", "6,1.0,0.0", "7,1.0,0.0"],
            r"line 7: last column is -1e-07, not 0",
        ),
        (
            [f"{i},1.0,0.0" for i in range(8) if i != 5],
            r"found 7; index 5 is missing",
        ),
    ],
    ids=[
        "repeat", "negative", "past-end", "short-row", "long-row", "non-numeric",
        "nonzero-last-column", "missing",
    ],
)
def test_read_field_csv_rejects_bad_rows(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text(_csv_rows(rows))
    with pytest.raises(ValueError, match=message):
        read_field_csv(str(path))


def test_field_rejects_wrong_shape(grid_small):
    with pytest.raises(ValueError):
        Field(grid_small, np.zeros(grid_small.n + 1))


def test_field_stores_real_values_as_float64(grid_small):
    ones = np.ones(grid_small.shape)
    assert Field(grid_small, ones).values is ones
    assert Field(grid_small, ones.astype(np.float32)).values.dtype == np.float64
    assert Field(grid_small, ones.astype(int)).values.dtype == np.float64
