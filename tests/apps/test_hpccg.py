"""HPCCG's flat-offset operator and in-place CG step against the textbook
3-D slice form."""

import numpy as np
import pytest

from repro.apps.hpccg import HPCCG


def reference_matvec(self: HPCCG, u: np.ndarray) -> np.ndarray:
    """The 27-point 3-D slice operator the flat one replaces, verbatim."""
    nx, ny, nz = self.shape
    padded = np.zeros((nx + 2, ny + 2, nz + 2), dtype=np.float64)
    padded[1:-1, 1:-1, 1:-1] = u
    acc = np.zeros_like(u)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                acc += padded[1 + dx : nx + 1 + dx,
                              1 + dy : ny + 1 + dy,
                              1 + dz : nz + 1 + dz]
    return 27.0 * u - acc


def reference_advance(self: HPCCG) -> None:
    """The out-of-place CG step, verbatim."""
    ap = reference_matvec(self, self.p)
    denom = float((self.p * ap).sum())
    if denom == 0.0 or self.rho == 0.0:
        return  # converged to machine precision; iterate as identity
    alpha = self.rho / denom
    self.x += alpha * self.p
    self.r -= alpha * ap
    rho_new = float((self.r * self.r).sum())
    beta = rho_new / self.rho
    self.p = self.r + beta * self.p
    self.rho = rho_new


STATE = ("x", "r", "p", "b")
SIZES = [
    (16, 0.02, (272, 17, 17)),   # the perfbench ckpt_bulk cell
    (5, 5e-4, (25, 5, 5)),       # odd sizes
    (3, 1.35e-3, (21, 7, 7)),
]


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


@pytest.mark.parametrize("nodes, scale, shape", SIZES)
def test_flat_matvec_is_bitwise_the_3d_expression(nodes, scale, shape):
    app = HPCCG(nodes, scale=scale, seed=9)
    assert app.shape == shape
    u = np.random.default_rng(4).uniform(-1.0, 1.0, size=shape)
    # Signed zeros: the zero-started accumulator keeps the sum's sign rules,
    # which show where a cell and all 26 neighbours are -0.0.
    u.reshape(-1)[::7] = -0.0
    u.reshape(-1)[3::11] = 0.0
    u[1:4, 1:4, 1:4] = -0.0
    assert np.array_equal(bits(app.matvec(u)), bits(reference_matvec(app, u)))


@pytest.mark.parametrize("nodes, scale, shape", SIZES)
def test_cg_step_is_bitwise_the_out_of_place_step(nodes, scale, shape):
    app = HPCCG(nodes, scale=scale, seed=9)
    ref = HPCCG(nodes, scale=scale, seed=9)
    assert app.shape == shape
    arrays = {name: getattr(app, name) for name in STATE}
    for _ in range(8):
        app.advance()
        reference_advance(ref)
        assert app.rho == ref.rho
        for name in STATE:
            assert np.array_equal(bits(getattr(app, name)),
                                  bits(getattr(ref, name))), name
    # The CG vectors are updated in place.
    for name in STATE:
        assert getattr(app, name) is arrays[name]
