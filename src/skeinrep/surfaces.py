"""Surface tags and their generator vocabularies.

Each supported surface fixes the presentation generators an expression or a
representation may use: three loop generators X1, X2, X3 where present, and
one central generator per puncture.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Surface:
    kind: str
    x_generators: tuple
    punctures: tuple

    @property
    def generators(self):
        return self.x_generators + self.punctures

    @property
    def tag(self) -> str:
        if self.kind == "sphereK":
            return f"Sphere{len(self.punctures)}"
        return {"torus1": "Torus1", "torus0": "Torus0", "sphere4": "Sphere4"}[self.kind]

    def __str__(self):
        return self.tag


TORUS1 = Surface("torus1", ("X1", "X2", "X3"), ("P",))
TORUS0 = Surface("torus0", ("X1", "X2", "X3"), ())
SPHERE4 = Surface("sphere4", ("X1", "X2", "X3"), ("P0", "P1", "P2", "P3"))


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
