"""Immutable container for a finite-dimensional representation.

A representation assigns one square matrix to every generator of its surface
vocabulary; puncture generators always map to their scalar times the
identity, and that scalar is also stored separately.  T_N of each loop
image (:meth:`Representation.chebyshev`), each image's rows in the matrix
kernel's working format (:meth:`Representation.rows`) and the largest entry
magnitude (:meth:`Representation.largest_entry`) are computed once and kept
in one memo while the images they are read off are frozen.  The memo also
holds, under ``"words"``, the generator words :func:`expressions.evaluate`
forms, in kernel format and keyed by their (name, exponent) factors; they
are kept only while every image of the rep is frozen.
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
    # values read off the images, kept while those images are frozen; not
    # compared, repr'd nor serialized, and empty again in a dataclasses.replace copy
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def matrix(self, name: str):
        try:
            return self.matrices[name]
        except KeyError:
            raise KeyError(f"generator {name!r} not in {self.surface.tag} representation") from None

    def _kept(self, key, mats, compute):
        """``compute()``, kept under ``key`` when every image in ``mats`` is frozen.

        Images are frozen by :func:`assemble` and ``rep_from_json``, so a kept
        value cannot go stale; one read off a writeable image is computed on
        every call.
        """
        if key in self._memo:
            return self._memo[key]
        value = compute()
        if not any(m.flags.writeable for m in mats):
            self._memo[key] = value
        return value

    def chebyshev(self, name: str):
        """T_N of the image of ``name``, frozen, through ``chebyshev_eval`` once per frozen image."""
        mat = self.matrix(name)
        return self._kept(("chebyshev", name), [mat],
                          lambda: matrices.freeze(chebyshev_eval(self.rs.N, mat)))

    def rows(self, name: str):
        """The image of ``name`` unpacked by :func:`matrices.kernel`, once per frozen image.

        The kernel only reads the rows it is given, so kept rows are shared
        by every product and residual taken of the image.
        """
        mat = self.matrix(name)
        return self._kept(("rows", name), [mat], lambda: matrices.kernel(self.rs).unpack(mat))

    def largest_entry(self) -> float:
        """Largest double-precision magnitude of an entry of any generator image."""
        mats = [self.matrix(g) for g in self.surface.generators]
        return self._kept("largest", mats, lambda: max(
            float(np.abs(matrices.to_complex128(m)).max()) for m in mats))


def assemble(surface, rs, dim, x_matrices, puncture_scalars, provenance=None):
    """Build a Representation, adding scalar identity matrices for punctures."""
    mats = {}
    for name, m in x_matrices.items():
        mats[name] = matrices.freeze(m)
    for name in surface.punctures:
        mats[name] = matrices.freeze(matrices.scalar_matrix(puncture_scalars[name], dim))
    return Representation(surface, rs, dim, mats, dict(puncture_scalars), provenance or {})
