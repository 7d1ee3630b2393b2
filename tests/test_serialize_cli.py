import json
import random
from fractions import Fraction

import pytest

from skeinrep import cli, matrices
from skeinrep.cli import main
from skeinrep.scalars import CyclotomicNumber, make_root_system
from skeinrep.serialize import (dumps_canonical, read_json, rep_from_json, rep_to_json,
                                scalar_from_json, scalar_to_json)
from skeinrep.torus import build_torus_rep, torus_params_exact, torus_params_from_shadow
from skeinrep.uniqueness import sample_torus_shadow


# ---------------------------------------------------------------------------
# scalar and representation JSON
# ---------------------------------------------------------------------------

def test_exact_scalar_roundtrip():
    rs = make_root_system(5)
    rng = random.Random(1)
    for _ in range(10):
        s = CyclotomicNumber(rs, tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                                       for _ in range(rs.degree)))
        assert scalar_from_json(rs, scalar_to_json(s)) == s


def test_bigfloat_scalar_roundtrip_bitwise():
    rs = make_root_system(3, "bigfloat", 256)
    rng = random.Random(2)
    for _ in range(10):
        s = rs.A ** rng.randint(1, 5) * rs.scalar(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        back = scalar_from_json(rs, scalar_to_json(s))
        assert back.re == s.re and back.im == s.im


def test_serialize_is_canonical():
    rs = make_root_system(3, "bigfloat", 128)
    x = rs.scalar(complex(0.5, -1.25))
    assert dumps_canonical(scalar_to_json(x)) == dumps_canonical(scalar_to_json(x))
    # parse-then-serialize is the identity on serialized text
    text = dumps_canonical(scalar_to_json(x))
    again = dumps_canonical(scalar_to_json(scalar_from_json(rs, json.loads(text))))
    assert text == again


def test_rep_roundtrip_bigfloat():
    rs = make_root_system(3, "bigfloat", 192)
    rng = random.Random(3)
    inv = sample_torus_shadow(rs, rng)
    rep = build_torus_rep(torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"]))
    back = rep_from_json(rep_to_json(rep))
    assert back.surface == rep.surface
    assert back.dim == rep.dim
    for g in rep.matrices:
        defect = back.matrix(g) - rep.matrix(g)
        assert matrices.is_zero_matrix(defect)


def test_rep_roundtrip_exact():
    rs = make_root_system(3)
    rep = build_torus_rep(torus_params_exact(rs.A + 1, rs.A - 2, rs.scalar(Fraction(3, 2))))
    back = rep_from_json(rep_to_json(rep))
    for g in rep.matrices:
        assert matrices.is_zero_matrix(back.matrix(g) - rep.matrix(g))
    assert back.puncture_scalars == rep.puncture_scalars


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

TORUS_FLAGS = ["--N", "3", "--precision", "192",
               "--t1", "1.1 + 0.3 i", "--t2", "0.8 - 0.2 i", "--t3", "2.5 + 0.9 i"]


def _build_rep_file(tmp_path, name="rep.json"):
    # pick p consistent with the shadow via the library, then drive the CLI
    from skeinrep.chebyshev import solve_chebyshev
    from skeinrep.expressions import parse_scalar
    from skeinrep.torus import puncture_chebyshev_value

    rs = make_root_system(3, "bigfloat", 192)
    t1 = parse_scalar("1.1 + 0.3 i", rs)
    t2 = parse_scalar("0.8 - 0.2 i", rs)
    t3 = parse_scalar("2.5 + 0.9 i", rs)
    p = solve_chebyshev(puncture_chebyshev_value(t1, t2, t3)).values[0]
    out = tmp_path / name
    status = main(["build-torus", *TORUS_FLAGS, "--p", _scalar_flag(p), "--out", str(out)])
    return status, out


def test_cli_build_verify_invariants(tmp_path):
    status, out = _build_rep_file(tmp_path)
    assert status == 0
    payload = read_json(out)
    assert payload["surface"] == "Torus1"
    assert payload["verification"]["passed"] is True

    # verification passes (the stored file has no verification side effects)
    report_file = tmp_path / "verify.json"
    assert main(["verify", str(out), "--out", str(report_file)]) == 0
    report = read_json(report_file)
    assert report["passed"] is True and report["commutant_dim"] == 1

    inv_file = tmp_path / "inv.json"
    assert main(["invariants", str(out), "--out", str(inv_file)]) == 0
    shadow = read_json(inv_file)
    assert shadow["compatibility_ok"] is True


def test_cli_isomorphic_self(tmp_path, capsys):
    status, out = _build_rep_file(tmp_path)
    assert status == 0
    assert main(["isomorphic", str(out), str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["isomorphic"] is True


def _scalar_flag(s):
    from skeinrep.serialize import _mpf_to_str

    re_s = _mpf_to_str(s.re, s.prec_bits)
    im_s = _mpf_to_str(s.im, s.prec_bits)
    if im_s.startswith("-"):
        return f"{re_s} - {im_s[1:]} i"
    return f"{re_s} + {im_s} i"


def test_cli_build_closed_torus(tmp_path):
    from skeinrep.scalars import approx_eq, solve_quadratic
    from skeinrep.torus import cycle_scalar

    rs = make_root_system(3, "bigfloat", 192)
    rng = random.Random(6)
    while True:
        a1 = rs.scalar(complex(rng.uniform(0.7, 1.5), rng.uniform(-0.5, 0.5)))
        a2 = rs.scalar(complex(rng.uniform(0.7, 1.5), rng.uniform(-0.5, 0.5)))
        t1, t2 = a1 + a1 ** -1, a2 + a2 ** -1
        two = rs.scalar(2)
        ok = [t for t in solve_quadratic(rs.one, t1 * t2, t1 * t1 + t2 * t2 - 4)
              if not (approx_eq(t, two) or approx_eq(t, -two))
              and not cycle_scalar(t1, t2, t).is_zero()]
        if ok:
            t3 = ok[0]
            break
    out = tmp_path / "closed.json"
    status = main(["build-closed-torus", "--N", "3", "--precision", "192",
                   "--t1", _scalar_flag(t1), "--t2", _scalar_flag(t2),
                   "--t3", _scalar_flag(t3), "--out", str(out)])
    assert status == 0
    payload = read_json(out)
    assert payload["surface"] == "Torus0"
    assert payload["verification"]["passed"] is True


def test_cli_build_sphere(tmp_path):
    from skeinrep.uniqueness import sample_sphere_invariants

    rs = make_root_system(3, "bigfloat", 192)
    inv = sample_sphere_invariants(rs, random.Random(8))
    out = tmp_path / "sphere.json"
    args = ["build-sphere", "--N", "3", "--precision", "192", "--out", str(out)]
    for key in ("p0", "p1", "p2", "p3", "t1", "t2", "t3"):
        args += [f"--{key}", _scalar_flag(inv[key])]
    assert main(args) == 0
    payload = read_json(out)
    assert payload["surface"] == "Sphere4"
    assert payload["verification"]["passed"] is True
    # round-trip through the stored file
    rep = rep_from_json(payload)
    assert rep.dim == 3


def test_cli_rejects_degenerate(tmp_path, capsys):
    status = main(["build-torus", "--N", "3", "--t1", "1", "--t2", "1", "--t3", "2",
                   "--p", "0", "--out", str(tmp_path / "x.json")])
    assert status == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("args,position", [
    (["normalize", "--surface", "torus1", "--expr", "X1 + 1/0"], 5),
    (["build-torus", "--t1", "1/0", "--t2", "1", "--t3", "3", "--p", "1"], 0),
], ids=["normalize", "build-torus"])
def test_cli_refuses_a_zero_denominator(args, position, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(f"(at position {position})")


def test_cli_normalize(capsys):
    status = main(["normalize", "--surface", "torus1", "--N", "3",
                   "--expr", "A X1 X2 - A^-1 X2 X1"])
    assert status == 0
    out = capsys.readouterr().out
    assert "X3" in out


def test_cli_normalize_bigfloat_prints_bare_coefficients(capsys):
    status = main(["normalize", "--surface", "torus1", "--N", "3", "--backend", "bigfloat",
                   "--expr", "X2 X1"])
    assert status == 0
    out = capsys.readouterr().out
    assert "(1.5 - 0.866025403784j) X3" in out
    assert "((" not in out


def test_cli_normalize_json(tmp_path):
    out = tmp_path / "nf.json"
    status = main(["normalize", "--surface", "sphere4", "--N", "5",
                   "--expr", "P0 P3 + P1 P2", "--out", str(out)])
    assert status == 0
    payload = read_json(out)
    assert len(payload["terms"]) == 2


def test_cli_experiment_deterministic(tmp_path):
    out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
    args = ["experiment", "--surface", "torus1", "--N", "3", "--samples", "2",
            "--seed", "9", "--precision", "192"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert read_json(out1)["passed"] is True


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_cli_experiment_refuses_no_samples(tmp_path, capsys, samples):
    # zero records used to print "experiment PASS"
    out = tmp_path / "e.json"
    status = main(["experiment", "--surface", "torus1", "--samples", samples, "--out", str(out)])
    assert status == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: samples must be at least 1, got {samples}\n"
    assert captured.out == "" and not out.exists()


def test_cli_build_is_byte_deterministic(tmp_path):
    s1, out1 = _build_rep_file(tmp_path, "a.json")
    s2, out2 = _build_rep_file(tmp_path, "b.json")
    assert s1 == s2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_fails_on_tampered_rep(tmp_path):
    status, out = _build_rep_file(tmp_path)
    assert status == 0
    payload = read_json(out)
    payload["generators"]["X1"][0][1]["re"] = "99.0"
    from skeinrep.serialize import write_json

    tampered = tmp_path / "tampered.json"
    write_json(tampered, payload)
    assert main(["verify", str(tampered)]) == 1


@pytest.mark.parametrize("edit,message", [
    (lambda rep: rep.pop("dim"), "missing the key 'dim'"),
    (lambda rep: rep["generators"]["X1"].pop(), "generator X1 is not a 3 x 3 matrix"),
    (lambda rep: rep["generators"].pop("X2"),
     "generators ['P', 'X1', 'X3'] are not the Torus1 names"),
    (lambda rep: rep.update(punctures={}), "punctures [] are not the Torus1 names ['P']"),
    (lambda rep: rep["generators"]["X3"][1][1].pop("im"), "missing the key 'im'"),
    (lambda rep: rep["punctures"]["P"].update(im="nan"), "is not finite"),
    (lambda rep: rep["generators"]["X1"][0][1].update(re="nan"), "is not finite"),
    (lambda rep: rep["generators"]["X2"][1][2].update(im="inf"), "is not finite"),
    (lambda rep: rep["generators"]["X3"][2][2].update(re="-inf"), "is not finite"),
    (lambda rep: rep["generators"]["X1"][0][1].update(re=1.5), "must be decimal strings, got 1.5"),
    (lambda rep: rep["punctures"]["P"].update(im=None), "must be decimal strings"),
], ids=["no-dim", "short-matrix", "no-X2", "no-punctures", "no-im",
        "nan-puncture", "nan-X1", "inf-X2", "minus-inf-X3", "number-X1", "null-puncture"])
def test_cli_verify_reports_malformed_rep(tmp_path, capsys, edit, message):
    from skeinrep.serialize import write_json

    status, out = _build_rep_file(tmp_path)
    assert status == 0
    payload = read_json(out)
    edit(payload)
    broken = tmp_path / "broken.json"
    write_json(broken, payload)
    capsys.readouterr()
    assert main(["verify", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.fixture(scope="module")
def torus_rep_file(tmp_path_factory):
    status, out = _build_rep_file(tmp_path_factory.mktemp("rep"))
    assert status == 0
    return out


@pytest.mark.parametrize("edit,message", [
    (lambda rep: rep["generators"]["X1"][0].__setitem__(0, 5),
     "generator X1 entry [0][0]: a scalar must be a JSON object, got 5"),
    (lambda rep: rep["generators"]["X2"][2].__setitem__(1, "0.5"),
     "generator X2 entry [2][1]: a scalar must be a JSON object, got '0.5'"),
    (lambda rep: rep["generators"].update(X1=7), "generator X1 is not a 3 x 3 matrix"),
    (lambda rep: rep["generators"]["X3"].__setitem__(1, 4), "generator X3 is not a 3 x 3 matrix"),
    (lambda rep: rep["punctures"].update(P=[1, 0]), "puncture P: a scalar must be a JSON object, got [1, 0]"),
    (lambda rep: rep.update(generators=7), "generators must be a JSON object, got 7"),
    (lambda rep: rep.update(root_system=7), "root_system must be a JSON object, got 7"),
    (lambda rep: rep.update(surface=5), "unknown surface tag 5"),
    (lambda rep: rep.update(N=4), "N = 4 is not the root system's N = 3"),
    (lambda rep: rep.pop("N"), "missing the key 'N'"),
], ids=["int-entry", "string-entry", "int-generator", "int-row", "list-puncture", "int-generators",
        "int-root-system", "int-surface", "even-N", "no-N"])
@pytest.mark.parametrize("command", ["verify", "invariants", "isomorphic"])
def test_cli_refuses_malformed_rep_entries(tmp_path, capsys, torus_rep_file, command, edit, message):
    # a malformed entry or a top-level N that is not the root system's ends in "error: ...", not a traceback
    from skeinrep.serialize import write_json

    payload = read_json(torus_rep_file)
    edit(payload)
    broken = tmp_path / "broken.json"
    write_json(broken, payload)
    argv = [command, str(broken)] if command != "isomorphic" else [command, str(torus_rep_file), str(broken)]
    _assert_refused(capsys, argv, message)


@pytest.mark.parametrize("edit,message", [
    (lambda rep: rep.update(dim="3"), "dim must be a positive integer, got '3'"),
    (lambda rep: rep.update(dim=0), "dim must be a positive integer, got 0"),
    (lambda rep: rep.update(provenance=5), "provenance must be a JSON object, got 5"),
    (lambda rep: rep["root_system"].update(precision_bits="256"),
     "precision_bits must be an integer, got '256'"),
    (lambda rep: rep["root_system"].update(precision_bits=100.5),
     "precision_bits must be an integer, got 100.5"),
    (lambda rep: rep.update(N=3.0, root_system=dict(rep["root_system"], N=3.0)),
     "N must be an integer, got 3.0"),
    (lambda rep: rep.update(N=3.0), "N = 3.0 is not the root system's N = 3"),
], ids=["string-dim", "zero-dim", "int-provenance", "string-precision", "float-precision",
        "float-N", "float-top-level-N"])
def test_cli_verify_refuses_bad_dim_and_provenance(tmp_path, capsys, torus_rep_file, edit, message):
    from skeinrep.serialize import write_json

    payload = read_json(torus_rep_file)
    edit(payload)
    broken = tmp_path / "broken.json"
    write_json(broken, payload)
    _assert_refused(capsys, ["verify", str(broken)], message)


def _n1_torus_payload():
    from skeinrep.chebyshev import solve_chebyshev
    from skeinrep.torus import puncture_chebyshev_value

    rs = make_root_system(1, "bigfloat", 192)
    t1, t2, t3 = (rs.scalar(z) for z in (complex(1.1, 0.3), complex(0.8, -0.2), complex(2.5, 0.9)))
    p = solve_chebyshev(puncture_chebyshev_value(t1, t2, t3)).values[0]
    payload = rep_to_json(build_torus_rep(torus_params_from_shadow(t1, t2, t3, p)))
    assert payload["dim"] == payload["N"] == payload["root_system"]["N"] == 1
    return payload


def test_cli_verify_refuses_boolean_dim(tmp_path, capsys):
    # on an N = 1 file, true == 1 passed every shape check and ended in a TypeError traceback
    from skeinrep.serialize import write_json

    payload = _n1_torus_payload()
    payload["dim"] = True
    broken = tmp_path / "broken.json"
    write_json(broken, payload)
    _assert_refused(capsys, ["verify", str(broken)], "dim must be a positive integer, got True")


def test_cli_verify_refuses_boolean_n(tmp_path, capsys):
    # on an N = 1 file, true == 1 was accepted as RootSystem(N=True)
    from skeinrep.serialize import write_json

    payload = _n1_torus_payload()
    payload["N"] = payload["root_system"]["N"] = True
    broken = tmp_path / "broken.json"
    write_json(broken, payload)
    _assert_refused(capsys, ["verify", str(broken)], "N must be an integer, got True")


@pytest.mark.parametrize("command", ["verify", "invariants", "isomorphic"])
def test_cli_refuses_rep_file_that_is_not_an_object(tmp_path, capsys, torus_rep_file, command):
    from skeinrep.serialize import write_json

    broken = tmp_path / "broken.json"
    write_json(broken, [read_json(torus_rep_file)])
    argv = [command, str(broken)] if command != "isomorphic" else [command, str(torus_rep_file), str(broken)]
    _assert_refused(capsys, argv, "a representation must be a JSON object, got [{")


@pytest.mark.parametrize("coeff,message", [(None, "bad exact coefficients [None,"),
                                           ("1/0", "bad exact coefficients ['1/0',")])
def test_cli_verify_reports_malformed_exact_coefficient(tmp_path, capsys, coeff, message):
    from skeinrep.serialize import write_json

    rs = make_root_system(3)
    rep = build_torus_rep(torus_params_exact(rs.A + 1, rs.A - 2, rs.scalar(Fraction(3, 2))))
    payload = rep_to_json(rep)
    payload["generators"]["X1"][0][1]["coeffs"][0] = coeff
    broken = tmp_path / "broken.json"
    write_json(broken, payload)
    capsys.readouterr()
    assert main(["verify", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _edited_rep_file(tmp_path, path, name, entry, part, text):
    from skeinrep.serialize import write_json

    payload = read_json(path)
    payload["generators"][entry[0]][entry[1]][entry[2]][part] = text
    edited = tmp_path / name
    write_json(edited, payload)
    return edited


def _assert_refused(capsys, argv, message):
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert not captured.out


def test_cli_isomorphic_refuses_non_finite_entry(tmp_path, capsys):
    status, out = _build_rep_file(tmp_path)
    assert status == 0
    nan_rep = _edited_rep_file(tmp_path, out, "nan.json", ("X1", 0, 1), "re", "nan")
    _assert_refused(capsys, ["isomorphic", str(out), str(nan_rep)], "is not finite")


@pytest.mark.parametrize("edit", ["off-diagonal", "last-bit"])
def test_cli_isomorphic_measures_edited_puncture_image(tmp_path, capsys, edit):
    # the exact-zero defect of a scalar puncture pair is decided from the images
    # the file holds, not from its puncture scalars, which this edit leaves alone
    from mpmath import mp
    from mpmath.libmp import from_man_exp

    from skeinrep.serialize import _mpf_to_str, write_json
    from skeinrep.sphere import build_sphere_rep
    from skeinrep.uniqueness import intertwiner_residuals, sample_sphere_invariants

    rs = make_root_system(3, "bigfloat", 256)
    inv = sample_sphere_invariants(rs, random.Random(0))
    rep = build_sphere_rep(*(inv[k] for k in ("p0", "p1", "p2", "p3", "t1", "t2", "t3")))
    out, edited = tmp_path / "sphere.json", tmp_path / "edited.json"
    write_json(out, rep_to_json(rep))
    payload = read_json(out)
    if edit == "off-diagonal":
        payload["generators"]["P0"][0][1]["re"] = "1e-30"
    else:  # one unit in the last of the 256 bits
        sign, man, exp, bc = rep.matrix("P0")[1, 1].re._mpf_
        shift = rs.precision_bits - bc
        bumped = from_man_exp(((-man if sign else man) << shift) + 1, exp - shift)
        payload["generators"]["P0"][1][1]["re"] = _mpf_to_str(mp.make_mpf(bumped), 256)
    write_json(edited, payload)
    back = rep_from_json(payload)
    assert back.puncture_scalars == rep.puncture_scalars
    residual = intertwiner_residuals(matrices.identity(rs, 3), rep, back)["P0"]
    assert residual > 0.0

    capsys.readouterr()
    status = main(["isomorphic", str(out), str(edited)])
    result = json.loads(capsys.readouterr().out)
    if edit == "off-diagonal":
        # 1e-30 is far above the gate of 2^-128 times the largest entry
        assert status == 1 and result == {"isomorphic": False}
    else:
        assert status == 0 and result["isomorphic"] is True
        assert 0.0 < result["residuals"]["P0"] < 1e-70


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("command", ["verify", "isomorphic", "invariants"])
def test_cli_refuses_non_finite_tolerance(tmp_path, capsys, command, tol):
    # with --tol inf every residual would pass, so a tampered rep would verify
    status, out = _build_rep_file(tmp_path)
    assert status == 0
    tampered = _edited_rep_file(tmp_path, out, "tampered.json", ("X2", 1, 2), "re", "7.5")
    files = [str(out), str(tampered)] if command == "isomorphic" else [str(tampered)]
    _assert_refused(capsys, [command, *files, "--tol", tol], "rel_eps must be finite and nonnegative")


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["build-torus", "--N", "3"])  # missing required flags
    assert exc.value.code == 2


def test_cli_builds_its_parser_once(capsys, monkeypatch):
    # main reuses one parser, and a parse leaves no option set for the next
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or real())
    cli._parser.cache_clear()
    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["build-torus", "--N", "3"])
        assert exc.value.code == 2
        usage = capsys.readouterr().err
        assert main(["normalize", "--surface", "torus1", "--N", "3", "--expr", "X9"]) == 1
        errs.append((usage, capsys.readouterr().err))
    assert errs[0] == errs[1] and errs[0][1].startswith("error: unknown generator")
    verify = ["verify", "rep.json"]
    assert cli._parser().parse_args([*verify, "--tol", "1e-9"]).tol == 1e-9
    assert cli._parser().parse_args(verify).tol is None
    assert len(built) == 1
    assert real() is not real()


@pytest.mark.parametrize("argv", [
    ["build-torus", "--backend", "exact", "--t1", "3", "--t2", "1/2", "--t3", "5", "--p", "1"],
    ["build-sphere", "--backend", "exact", *[f for k in ("p0", "p1", "p2", "p3", "t1", "t2", "t3")
                                             for f in (f"--{k}", "1")]],
    ["normalize", "--surface", "torus1", "--expr", "X2 X1", "--tol", "1e-9"],
])
def test_cli_rejects_removed_options(argv):
    # every build is bigfloat-only, and normalize has no tolerance to set
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_unknown_generator_message(capsys):
    status = main(["normalize", "--surface", "torus1", "--N", "3", "--expr", "X9"])
    assert status == 1
    assert "unknown generator" in capsys.readouterr().err
