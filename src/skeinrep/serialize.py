"""Canonical JSON encodings for scalars, representations and reports.

Exact scalars serialize as coefficient vectors of "num/den" strings;
bigfloat scalars as decimal strings with enough digits to round-trip the
binary value exactly.  Reading refuses a scalar, representation or root
system that is not a JSON object, a coefficient that is not a number, a
zero denominator and a bigfloat part that is not a string with
``ValueError``, and "nan", "inf" and "-inf" with ``NonFiniteScalar``.  A
representation's errors name the generator or puncture and the position of
the entry; its root system's "N" and "precision_bits" must be integers, its
top-level "N" the same int, its "dim" a positive integer and its
"provenance", when present, an object.
Serialization is canonical: equal values produce byte-identical text.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
from mpmath.libmp import from_str, to_str

from .representation import Representation
from .scalars import RND, BigComplex, CyclotomicNumber, RootSystem, from_pair, make_root_system
from .surfaces import surface_from_tag


def _decimal_digits(prec_bits: int) -> int:
    # ceil(bits * log10(2)) plus guard digits guarantees exact round-trip
    return int(prec_bits * 0.30103) + 8


def _mpf_to_str(x, prec_bits):
    return to_str(x._mpf_, _decimal_digits(prec_bits), strip_zeros=True)


def scalar_to_json(s):
    if isinstance(s, CyclotomicNumber):
        return {"coeffs": [f"{c.numerator}/{c.denominator}" for c in s.coeffs]}
    return {
        "re": _mpf_to_str(s.re, s.prec_bits),
        "im": _mpf_to_str(s.im, s.prec_bits),
        "prec_bits": s.prec_bits,
    }


def _json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object, else a ValueError that names ``what``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def scalar_from_json(rs: RootSystem, obj):
    if "coeffs" in _json_object(obj, "a scalar"):
        if rs.backend != "exact":
            raise ValueError("coefficient-vector scalar needs an exact root system")
        try:
            coeffs = tuple(Fraction(c) for c in obj["coeffs"])
        except (TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"bad exact coefficients {obj['coeffs']!r}: {exc}") from None
        if len(coeffs) != rs.degree:
            raise ValueError(f"expected {rs.degree} coefficients, got {len(coeffs)}")
        return CyclotomicNumber(rs, coeffs)
    if rs.backend != "bigfloat":
        raise ValueError("decimal scalar needs a bigfloat root system")
    parts = obj["re"], obj["im"]
    if not all(isinstance(part, str) for part in parts):
        raise ValueError(f"bigfloat parts must be decimal strings, got {parts[0]!r} and {parts[1]!r}")
    prec = rs.precision_bits
    return from_pair(rs, tuple(from_str(part, prec, RND) for part in parts))


def to_jsonable(value):
    """Recursive conversion of report-like structures to JSON-basic types."""
    if isinstance(value, (CyclotomicNumber, BigComplex)):
        return scalar_to_json(value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return [[scalar_to_json(value[i, j]) for j in range(value.shape[1])]
                for i in range(value.shape[0])]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def root_system_to_json(rs: RootSystem):
    out = {"N": rs.N, "backend": rs.backend}
    if rs.backend == "bigfloat":
        out["precision_bits"] = rs.precision_bits
    return out


def root_system_from_json(obj) -> RootSystem:
    return make_root_system(obj["N"], obj["backend"], obj.get("precision_bits"))


def rep_to_json(rep: Representation):
    return {
        "surface": rep.surface.tag,
        "N": rep.rs.N,
        "root_system": root_system_to_json(rep.rs),
        "dim": rep.dim,
        "generators": {name: to_jsonable(mat) for name, mat in rep.matrices.items()},
        "punctures": {name: scalar_to_json(s) for name, s in rep.puncture_scalars.items()},
        "provenance": to_jsonable(rep.provenance),
    }


def _scalar_at(rs: RootSystem, obj, where: str):
    """:func:`scalar_from_json`, with a ValueError that names where the entry sits."""
    try:
        return scalar_from_json(rs, obj)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def rep_from_json(obj) -> Representation:
    """Read :func:`rep_to_json` output; a ValueError names a missing key, a bad shape or a bad entry."""
    _json_object(obj, "a representation")
    try:
        rs = root_system_from_json(_json_object(obj["root_system"], "root_system"))
        if type(obj["N"]) is not int or obj["N"] != rs.N:
            raise ValueError(f"N = {obj['N']!r} is not the root system's N = {rs.N}")
        surface = surface_from_tag(obj["surface"])
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        for field, names in (("generators", surface.generators), ("punctures", surface.punctures)):
            if sorted(_json_object(obj[field], field)) != sorted(names):
                raise ValueError(f"{field} {sorted(obj[field])} are not the {surface.tag} "
                                 f"names {sorted(names)}")
        mats = {}
        for name, rows in obj["generators"].items():
            if (not isinstance(rows, list) or len(rows) != dim
                    or any(not isinstance(row, list) or len(row) != dim for row in rows)):
                raise ValueError(f"generator {name} is not a {dim} x {dim} matrix")
            mat = np.empty((dim, dim), dtype=object)
            for i in range(dim):
                for j in range(dim):
                    mat[i, j] = _scalar_at(rs, rows[i][j], f"generator {name} entry [{i}][{j}]")
            mats[name] = mat
        punctures = {name: _scalar_at(rs, s, f"puncture {name}") for name, s in obj["punctures"].items()}
    except KeyError as exc:
        raise ValueError(f"representation JSON is missing the key {exc}") from None
    return Representation(surface, rs, dim, mats, punctures,
                          _json_object(obj.get("provenance", {}), "provenance"))


def dumps_canonical(obj) -> str:
    """Stable key order, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
