"""LULESH's flat-offset kernel against the textbook 3-D slice form."""

import numpy as np
import pytest

from repro.apps.lulesh import LULESH

_GAMMA = 1.4
_DT = 0.02
_RELAX = 0.05


def reference_advance(self: LULESH) -> None:
    """The per-axis 3-D slice step the flat kernel replaces, verbatim."""
    p = self.pressure
    grad = np.zeros_like(self.velocity)
    # Central-difference pressure gradient along each axis (one-sided at
    # the walls), per component.
    for axis in range(3):
        g = np.zeros(self.shape, dtype=np.float64)
        src = p
        sl_fwd = [slice(None)] * 3
        sl_bwd = [slice(None)] * 3
        sl_mid = [slice(None)] * 3
        sl_fwd[axis] = slice(2, None)
        sl_bwd[axis] = slice(None, -2)
        sl_mid[axis] = slice(1, -1)
        g[tuple(sl_mid)] = 0.5 * (src[tuple(sl_fwd)] - src[tuple(sl_bwd)])
        grad[..., axis] = g
    self.velocity -= _DT * grad / self.mass[..., None]
    self.velocity *= 0.999  # numerical damping (hourglass control stand-in)

    div = np.zeros(self.shape, dtype=np.float64)
    for axis in range(3):
        v = self.velocity[..., axis]
        g = np.zeros(self.shape, dtype=np.float64)
        sl_fwd = [slice(None)] * 3
        sl_bwd = [slice(None)] * 3
        sl_mid = [slice(None)] * 3
        sl_fwd[axis] = slice(2, None)
        sl_bwd[axis] = slice(None, -2)
        sl_mid[axis] = slice(1, -1)
        g[tuple(sl_mid)] = 0.5 * (v[tuple(sl_fwd)] - v[tuple(sl_bwd)])
        div += g
    self.volume = np.ascontiguousarray(
        np.clip(self.volume * (1.0 + _DT * div) + _RELAX * _DT * (1.0 - self.volume),
                0.2, 5.0)
    )
    work = self.pressure * div * _DT
    self.energy = np.ascontiguousarray(np.clip(self.energy - work, 1e-6, None))
    self.pressure = np.ascontiguousarray(
        (_GAMMA - 1.0) * self.energy / self.volume)


STATE = ("energy", "pressure", "volume", "mass", "velocity")


@pytest.mark.parametrize("nodes, scale, shape", [
    (16, 0.02, (288, 17, 17)),   # the perfbench ckpt_bulk cell
    (5, 5e-4, (25, 5, 5)),       # odd sizes
    (3, 1.35e-3, (21, 7, 7)),
])
def test_flat_kernel_is_bitwise_the_3d_expression(nodes, scale, shape):
    app = LULESH(nodes, scale=scale, seed=5)
    ref = LULESH(nodes, scale=scale, seed=5)
    assert app.shape == shape
    arrays = {name: getattr(app, name) for name in STATE}
    for _ in range(8):
        app.advance()
        reference_advance(ref)
        for name in STATE:
            got, want = getattr(app, name), getattr(ref, name)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
    # The step updates every field in place.
    for name in STATE:
        assert getattr(app, name) is arrays[name]
        assert arrays[name].flags.c_contiguous
