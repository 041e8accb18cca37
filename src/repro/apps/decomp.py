"""Cartesian domain decompositions for halo-exchange workloads.

Trace (the flow submodel of MetaTrace) "applies a three-dimensional domain
decomposition with nearest-neighbor communication" — this helper maps
communicator ranks onto a 3-D process grid and enumerates the neighbors for
the per-dimension halo exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

Coord = Tuple[int, int, int]


@dataclass(frozen=True)
class CartesianDecomposition:
    """A non-periodic 3-D process grid.

    Parameters
    ----------
    dims:
        Grid extents ``(nx, ny, nz)``; their product must equal the number
        of participating ranks.
    coord_of_rank:
        Optional explicit rank → coordinate mapping.  The default is
        x-major order; MetaTrace's Experiment-1 configuration uses an
        explicit interleaved mapping so that metahost boundaries cut
        through the x dimension.
    """

    dims: Coord
    coords: Tuple[Coord, ...]

    @classmethod
    def build(
        cls,
        dims: Coord,
        coord_of_rank: Optional[Sequence[Coord]] = None,
    ) -> "CartesianDecomposition":
        nx, ny, nz = dims
        if nx <= 0 or ny <= 0 or nz <= 0:
            raise ConfigurationError(f"grid dims must be positive: {dims}")
        size = nx * ny * nz
        if coord_of_rank is None:
            coord_of_rank = [
                (x, y, z)
                for x in range(nx)
                for y in range(ny)
                for z in range(nz)
            ]
        coords = tuple(tuple(c) for c in coord_of_rank)  # type: ignore[arg-type]
        if len(coords) != size:
            raise ConfigurationError(
                f"{len(coords)} coordinates for a {size}-cell grid"
            )
        if len(set(coords)) != size:
            raise ConfigurationError("duplicate coordinates in decomposition")
        for x, y, z in coords:
            if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
                raise ConfigurationError(f"coordinate {(x, y, z)} outside {dims}")
        return cls(dims=dims, coords=coords)

    @property
    def size(self) -> int:
        return len(self.coords)

    def coord(self, rank: int) -> Coord:
        if not 0 <= rank < len(self.coords):
            raise ConfigurationError(f"rank {rank} outside decomposition")
        return self.coords[rank]

    def neighbors(self, rank: int) -> List[Tuple[int, int, int]]:
        """``(dimension, direction, neighbor_rank)`` for all existing neighbors.

        Ordered by dimension then direction (+1 before −1), which fixes the
        halo-exchange schedule.
        """
        x, y, z = self.coord(rank)
        out: List[Tuple[int, int, int]] = []
        index: Dict[Coord, int] = {c: r for r, c in enumerate(self.coords)}
        for dim in range(3):
            for direction in (+1, -1):
                nbr = [x, y, z]
                nbr[dim] += direction
                candidate = (nbr[0], nbr[1], nbr[2])
                other = index.get(candidate)
                if other is not None:
                    out.append((dim, direction, other))
        return out
