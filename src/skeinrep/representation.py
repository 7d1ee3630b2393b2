"""Immutable container for a finite-dimensional representation.

A representation assigns one square matrix to every generator of its surface
vocabulary; puncture generators always map to their scalar times the
identity, and that scalar is also stored separately.  Each image's
:class:`matrices.Image` (:meth:`Representation.image`: its rows in the
matrix kernel's working format and their exact-zero pattern), T_N of each
loop image (:meth:`Representation.chebyshev_image`, run from those rows and
kept as rows too; :meth:`Representation.chebyshev`, the frozen array;
:meth:`Representation.chebyshev_mean`, its diagonal mean) and the largest
entry magnitude (:meth:`Representation.largest_entry`, the kernel's
``worst`` of the images' rows) are computed once and kept in one memo.  The
image is the one source of what is structural about a generator image:
products, residuals, T_N, the puncture shortcuts, the X3 spectrum test, the
ladder walk and the commutant's support graph all read it, so no image is
unpacked or rescanned twice.  The memo also holds, under ``"words"``, the
generator words :func:`expressions.evaluate` forms, in kernel format and
keyed by their (name, exponent) factors.  A representation holds only
frozen images (a writeable one, or a view, is copied and the copy frozen),
so nothing kept can go stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import matrices
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
    # values read off the frozen images; not compared, repr'd nor serialized,
    # and empty again in a dataclasses.replace copy
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a writeable image, or a view of another array that may be, is kept as
        # a frozen copy, so the caller's array stays the caller's
        object.__setattr__(self, "matrices", {
            name: matrices.freeze(m.copy()) if m.flags.writeable or m.base is not None else m
            for name, m in self.matrices.items()})

    def matrix(self, name: str):
        try:
            return self.matrices[name]
        except KeyError:
            raise KeyError(f"generator {name!r} not in {self.surface.tag} representation") from None

    def _kept(self, key, compute):
        """``compute()``, kept under ``key`` after the first call."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def chebyshev_image(self, name: str):
        """T_N of the image of ``name`` as kernel rows with their pattern (:class:`matrices.Image`), once per rep.

        The recurrence (:func:`matrices.chebyshev_rows`) starts from the kept
        rows of :meth:`image`, so nothing is unpacked.  On the bigfloat kernel
        it runs on one block grid with guard bits below the working precision
        and rounds each part of T_N once, at the end; an exact zero stays
        None, so T_N of a diagonal X3 is diagonal.
        """
        def compute():
            k = matrices.kernel(self.rs)
            rows = matrices.chebyshev_rows(self.rs.N, self.rs, self.image(name).rows)
            return matrices.Image(rows, k.support(rows))
        return self._kept(("chebyshev image", name), compute)

    def chebyshev(self, name: str):
        """T_N of the image of ``name``, frozen, once per rep: the rows of :meth:`chebyshev_image` wrapped."""
        return self._kept(("chebyshev", name), lambda: matrices.freeze(
            matrices.kernel(self.rs).wrap(self.chebyshev_image(name).rows)))

    def chebyshev_mean(self, name: str):
        """The diagonal mean of :meth:`chebyshev` (:func:`matrices.diagonal_mean`), once per rep.

        ``verify_relations`` measures T_N's deviation from it and
        ``extract_invariants`` reads it as the trace scalar.
        """
        return self._kept(("chebyshev mean", name), lambda: matrices.diagonal_mean(self.chebyshev(name), self.rs))

    def image(self, name: str):
        """The kernel rows of ``name`` with their pattern (:class:`matrices.Image`), once per rep.

        The kernel only reads the rows it is given, so kept rows are shared
        by every product and residual taken of the image.
        """
        def compute():
            k = matrices.kernel(self.rs)
            rows = k.unpack(self.matrix(name))
            return matrices.Image(rows, k.support(rows))
        return self._kept(("image", name), compute)

    def largest_entry(self) -> float:
        """Float magnitude of the largest entry of any generator image, by the kernel's ``worst``."""
        return self._kept("largest", lambda: matrices.kernel(self.rs).worst(
            [row for g in self.surface.generators for row in self.image(g).rows])[1])


def assemble(surface, rs, dim, x_matrices, puncture_scalars, provenance=None):
    """Build a Representation, adding scalar identity matrices for punctures."""
    mats = dict(x_matrices)
    for name in surface.punctures:
        mats[name] = matrices.scalar_matrix(puncture_scalars[name], dim)
    return Representation(surface, rs, dim, mats, dict(puncture_scalars), provenance or {})
