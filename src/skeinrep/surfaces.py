"""Surface tags, their generator vocabularies and their presentations.

Each supported surface fixes the presentation generators an expression or a
representation may use: three loop generators X1, X2, X3 where present, and
one central generator per puncture.

The presentation is written here once (Bullock-Przytycki).  A surface with
loop generators has a weight w, 1 on the tori and 2 on the four-puncture
sphere, and three q-commutation relations

    A^w l r - A^-w r l = (A^2w - A^-2w) out + (A^w - A^-w) q

for (l, r, out, q) = (X1, X2, X3, q3), (X2, X3, X1, q1) and (X3, X1, X2, q2)
(:data:`RELATIONS`).  The central terms q are sums of puncture pairs,

    q1 = P0 P1 + P2 P3,  q2 = P0 P2 + P1 P3,  q3 = P0 P3 + P1 P2,

on the four-puncture sphere (:data:`PUNCTURE_PAIRS`) and absent on the tori.
The rewrite rules, the relation defects, the puncture element and the
sphere's puncture sums derive from this table.
"""

from __future__ import annotations

from dataclasses import dataclass

# (l, r, out, i): A^w l r - A^-w r l = (A^2w - A^-2w) out + (A^w - A^-w) q_{i+1}
RELATIONS = (("X1", "X2", "X3", 2), ("X2", "X3", "X1", 0), ("X3", "X1", "X2", 1))

# the puncture index pairs of q1, q2 and q3 on the four-puncture sphere
PUNCTURE_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


@dataclass(frozen=True)
class Surface:
    kind: str
    x_generators: tuple
    punctures: tuple
    weight: int = 0  # w of the relations; 0 where there are none
    puncture_pairs: tuple = ()  # the pairs of q1, q2, q3; () where q is absent

    @property
    def generators(self):
        return self.x_generators + self.punctures

    @property
    def relations(self):
        """(l, r, out, pairs) of each relation, pairs those of its q (or ())."""
        if not self.weight:
            return ()
        return tuple((l, r, out, self.puncture_pairs[i] if self.puncture_pairs else ())
                     for l, r, out, i in RELATIONS)

    @property
    def tag(self) -> str:
        if self.kind == "sphereK":
            return f"Sphere{len(self.punctures)}"
        return {"torus1": "Torus1", "torus0": "Torus0", "sphere4": "Sphere4"}[self.kind]

    def __str__(self):
        return self.tag


TORUS1 = Surface("torus1", ("X1", "X2", "X3"), ("P",), 1)
TORUS0 = Surface("torus0", ("X1", "X2", "X3"), (), 1)
SPHERE4 = Surface("sphere4", ("X1", "X2", "X3"), ("P0", "P1", "P2", "P3"), 2, PUNCTURE_PAIRS)


def sphere_k(k: int) -> Surface:
    """Sphere with k <= 3 punctures; its algebra is generated by the punctures."""
    if not 0 <= k <= 3:
        raise ValueError("small sphere supports at most 3 punctures")
    return Surface("sphereK", (), tuple(f"P{i}" for i in range(1, k + 1)))


def surface_from_tag(tag: str) -> Surface:
    t = tag.strip().lower() if isinstance(tag, str) else ""
    if t == "torus1":
        return TORUS1
    if t == "torus0":
        return TORUS0
    if t == "sphere4":
        return SPHERE4
    if t.startswith("sphere") and t[6:].isdigit():
        return sphere_k(int(t[6:]))
    raise ValueError(f"unknown surface tag {tag!r}")
