"""3D-torus topology with dimension-ordered routing and link-load accounting.

The evaluation machine of the paper is *Intrepid*, an IBM Blue Gene/P whose
nodes are connected in a 3D torus.  The inter-replica checkpoint exchange is a
bulk-synchronous pattern (every node sends its checkpoint to its buddy at the
same time), so the transfer time is governed by the most heavily loaded link
(§4.2, Fig. 6).  This module computes exact per-link byte loads for a batch of
messages under the torus's dimension-ordered (X then Y then Z) shortest-path
routing, fully vectorized over messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigurationError

_DIM_NAMES = ("X", "Y", "Z")


@dataclass
class LinkLoads:
    """Per-link byte loads of a message batch on a :class:`Torus3D`.

    ``pos[d][x, y, z]`` is the number of bytes crossing the link that leaves
    node ``(x, y, z)`` in the positive direction of dimension ``d``;
    ``neg[d]`` likewise for the negative direction.
    """

    dims: tuple[int, int, int]
    pos: list[np.ndarray]
    neg: list[np.ndarray]

    @classmethod
    def zeros(cls, dims: tuple[int, int, int]) -> "LinkLoads":
        return cls(
            dims=dims,
            pos=[np.zeros(dims, dtype=np.int64) for _ in range(3)],
            neg=[np.zeros(dims, dtype=np.int64) for _ in range(3)],
        )

    def max_load(self) -> int:
        """Bytes on the most congested link — the transfer bottleneck."""
        peak = 0
        for d in range(3):
            if self.pos[d].size:
                peak = max(peak, int(self.pos[d].max()), int(self.neg[d].max()))
        return peak

    def total_bytes_hops(self) -> int:
        """Sum of bytes×hops over all links (total network work)."""
        return int(sum(a.sum() for a in self.pos) + sum(a.sum() for a in self.neg))

    def nonzero_links(self) -> int:
        return int(sum(np.count_nonzero(a) for a in self.pos + self.neg))

    def add(self, other: "LinkLoads") -> "LinkLoads":
        if self.dims != other.dims:
            raise ConfigurationError("cannot add loads of different tori")
        for d in range(3):
            self.pos[d] += other.pos[d]
            self.neg[d] += other.neg[d]
        return self

    def plane_loads(self, dim: int = 2) -> np.ndarray:
        """Aggregate per-position loads along one dimension (for Fig. 6-style
        inspection): returns an array of length ``dims[dim]`` with the maximum
        link load at each position along that axis."""
        out = np.zeros(self.dims[dim], dtype=np.int64)
        axes = tuple(a for a in range(3) if a != dim)
        for arr in (self.pos[dim], self.neg[dim]):
            out = np.maximum(out, arr.max(axis=axes))
        return out


class Torus3D:
    """A 3D torus of ``X * Y * Z`` nodes with bidirectional links."""

    def __init__(self, dims: tuple[int, int, int]):
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ConfigurationError(f"invalid torus dims {dims}")
        self.dims = dims

    @property
    def nnodes(self) -> int:
        x, y, z = self.dims
        return x * y * z

    def __repr__(self) -> str:
        return f"Torus3D{self.dims}"

    # -- coordinate <-> rank (TXYZ order: X fastest, Z slowest) -----------------
    def rank_to_coord(self, ranks: np.ndarray) -> np.ndarray:
        """Default BG/P-style TXYZ ordering: rank increases fastest along X and
        slowest along Z (§4.2: "ranks increase slowest along Z dimension")."""
        ranks = np.asarray(ranks, dtype=np.int64)
        x_dim, y_dim, _ = self.dims
        x = ranks % x_dim
        y = (ranks // x_dim) % y_dim
        z = ranks // (x_dim * y_dim)
        return np.stack([x, y, z], axis=-1)

    def coord_to_rank(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64)
        x_dim, y_dim, _ = self.dims
        return coords[..., 0] + x_dim * (coords[..., 1] + y_dim * coords[..., 2])

    # -- routing -----------------------------------------------------------------
    def hop_distance(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Shortest-path hop counts between coordinate arrays (per message)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        total = np.zeros(src.shape[:-1], dtype=np.int64)
        for d in range(3):
            size = self.dims[d]
            fwd = (dst[..., d] - src[..., d]) % size
            total += np.minimum(fwd, size - fwd)
        return total

    def route_loads(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray | int,
        *,
        dim_order: tuple[int, int, int] = (0, 1, 2),
    ) -> LinkLoads:
        """Accumulate per-link byte loads for a batch of messages.

        Messages are routed dimension-ordered — by default X, then Y, then Z,
        the BG/P convention; ``dim_order`` selects a different permutation —
        taking the shorter way around each ring; ties break toward the
        positive direction, which matches deterministic torus routing.

        Parameters
        ----------
        src, dst:
            Integer coordinate arrays of shape ``(n, 3)``.
        nbytes:
            Message sizes — scalar or array of shape ``(n,)``.
        dim_order:
            Permutation of (0, 1, 2) giving the dimension traversal order.
        """
        if sorted(dim_order) != [0, 1, 2]:
            raise ConfigurationError(
                f"dim_order must be a permutation of (0, 1, 2), got {dim_order}"
            )
        src = np.asarray(src, dtype=np.int64).reshape(-1, 3).copy()
        dst = np.asarray(dst, dtype=np.int64).reshape(-1, 3)
        n = src.shape[0]
        sizes = np.broadcast_to(np.asarray(nbytes, dtype=np.int64), (n,)).copy()
        loads = LinkLoads.zeros(self.dims)

        cur = src
        for d in dim_order:
            ring = self.dims[d]
            fwd = (dst[:, d] - cur[:, d]) % ring
            bwd = (cur[:, d] - dst[:, d]) % ring
            go_fwd = fwd <= bwd  # tie -> positive direction
            hops = np.where(go_fwd, fwd, bwd)
            max_hops = int(hops.max()) if n else 0
            for h in range(max_hops):
                active = hops > h
                if not active.any():
                    break
                for direction, dir_mask in (("+", go_fwd), ("-", ~go_fwd)):
                    m = active & dir_mask
                    if not m.any():
                        continue
                    pos_along = cur[m, d]
                    if direction == "+":
                        # h-th hop departs (p + h) and uses its positive link.
                        link_at = (pos_along + h) % ring
                        target = loads.pos[d]
                    else:
                        # h-th hop departs (p - h) and uses its negative link
                        # (the link from node (p - h) to node (p - h - 1)).
                        link_at = (pos_along - h) % ring
                        target = loads.neg[d]
                    idx = [None, None, None]
                    for a in range(3):
                        idx[a] = link_at if a == d else cur[m, a]
                    np.add.at(target, tuple(idx), sizes[m])
            # After finishing dimension d, every message sits at dst[:, d].
            cur[:, d] = dst[:, d]
        return loads
