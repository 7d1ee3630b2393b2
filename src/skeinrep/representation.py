"""Immutable container for a finite-dimensional representation.

A representation assigns one square matrix to every generator of its surface
vocabulary; puncture generators always map to their scalar times the
identity, and that scalar is also stored separately.  T_N of each frozen
loop image is computed once and kept (:meth:`Representation.chebyshev`), and
so are each frozen image's rows in the matrix kernel's working format
(:meth:`Representation.rows`) and the largest entry magnitude
(:meth:`Representation.largest_entry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrices
from .chebyshev import chebyshev_eval
from .scalars import RootSystem
from .surfaces import Surface


@dataclass(frozen=True)
class Representation:
    surface: Surface
    rs: RootSystem
    dim: int
    matrices: dict
    puncture_scalars: dict
    provenance: dict = field(default_factory=dict)
    # name -> T_N of its frozen image, name -> the image's kernel rows, and
    # the largest entry magnitude once taken; none compared, repr'd nor
    # serialized, and empty again in a dataclasses.replace copy
    _chebyshev: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _largest: list = field(default_factory=list, init=False, repr=False, compare=False)

    def matrix(self, name: str):
        try:
            return self.matrices[name]
        except KeyError:
            raise KeyError(f"generator {name!r} not in {self.surface.tag} representation") from None

    def chebyshev(self, name: str):
        """T_N of the image of ``name``, through ``chebyshev_eval`` once per frozen image.

        Images are frozen by :func:`assemble` and ``rep_from_json``, so a
        kept T_N cannot go stale; it is kept frozen as well.  A writeable
        image is evaluated on every call.
        """
        tn = self._chebyshev.get(name)
        if tn is None:
            mat = self.matrix(name)
            tn = chebyshev_eval(self.rs.N, mat)
            if not mat.flags.writeable:
                self._chebyshev[name] = matrices.freeze(tn)
        return tn

    def rows(self, name: str):
        """The image of ``name`` unpacked by :func:`matrices.kernel`, once per frozen image.

        The kernel only reads the rows it is given, so kept rows are shared
        by every product and residual taken of the image.  A writeable
        image is unpacked on every call.
        """
        rows = self._rows.get(name)
        if rows is None:
            mat = self.matrix(name)
            rows = matrices.kernel(self.rs).unpack(mat)
            if not mat.flags.writeable:
                self._rows[name] = rows
        return rows

    def largest_entry(self) -> float:
        """Largest double-precision magnitude of an entry of any generator image.

        Taken once when every image is frozen, as :meth:`chebyshev` keeps T_N.
        """
        if self._largest:
            return self._largest[0]
        mats = [self.matrix(g) for g in self.surface.generators]
        largest = max(float(np.abs(matrices.to_complex128(m)).max()) for m in mats)
        if not any(m.flags.writeable for m in mats):
            self._largest.append(largest)
        return largest


def assemble(surface, rs, dim, x_matrices, puncture_scalars, provenance=None):
    """Build a Representation, adding scalar identity matrices for punctures."""
    mats = {}
    for name, m in x_matrices.items():
        mats[name] = matrices.freeze(m)
    for name in surface.punctures:
        mats[name] = matrices.freeze(matrices.scalar_matrix(puncture_scalars[name], dim))
    return Representation(surface, rs, dim, mats, dict(puncture_scalars), provenance or {})
