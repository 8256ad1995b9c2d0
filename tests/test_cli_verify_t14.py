"""verify-t14 on isotropic rank-2 S: U is checked, any other square
discriminant is out of scope (exit 3), like `fm`.  A definite unimodular S
is alone in its genus only below rank 16: E8(-1) is checked, E8(-1) + E8(-1)
shares its genus with D16+(-1) and is out of scope."""

import json

from k3fm import direct_sum, e8_lattice, hyperbolic_plane, rescale
from k3fm.cli import main


def _write(tmp_path, name, gram):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"gram": gram}))
    return str(path)


def test_isotropic_non_unimodular_s_exits_3(tmp_path, capsys):
    s = _write(tmp_path, "s", [[0, 2], [2, 0]])
    t = _write(tmp_path, "t", [[0, -2], [-2, 0]])
    assert main(["verify-t14", "--s", s, "--t", t]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "k3fm: unsupported: rank-2 S with square discriminant D = 4 is isotropic but "
        "not U; its genus needs isotropic class enumeration (out of scope)\n"
    )


def test_hyperbolic_plane_still_exits_0(tmp_path, capsys):
    s = _write(tmp_path, "s", [[0, 1], [1, 0]])
    t = _write(tmp_path, "t", [[0, -1], [-1, 0]])
    assert main(["verify-t14", "--s", s, "--t", t]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total: orbits=1 cosets=1 equal=True"


def test_isotropic_pair_still_glues(tmp_path, capsys):
    s = _write(tmp_path, "s", [[0, 2], [2, 0]])
    t = _write(tmp_path, "t", [[0, -2], [-2, 0]])
    assert main(["glue", "--s", s, "--t", t]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "anti-isometries: 2"


def _gram(lat):
    return [list(r) for r in lat.gram]


def test_rank_16_definite_unimodular_s_exits_3(tmp_path, capsys):
    e8_neg = rescale(e8_lattice(), -1)
    u = hyperbolic_plane()
    s = _write(tmp_path, "s", _gram(direct_sum(e8_neg, e8_neg)))
    t = _write(tmp_path, "t", _gram(direct_sum(direct_sum(u, u), u)))
    assert main(["verify-t14", "--s", s, "--t", t]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "k3fm: unsupported: definite unimodular S of rank 16 is not alone in its genus; "
        "its genus needs definite class enumeration (out of scope)\n"
    )


def test_e8_is_alone_in_its_genus(tmp_path, capsys):
    e8_neg = rescale(e8_lattice(), -1)
    u = hyperbolic_plane()
    s = _write(tmp_path, "s", _gram(e8_neg))
    t = _write(tmp_path, "t", _gram(direct_sum(u, u)))
    assert main(["verify-t14", "--s", s, "--t", t]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        f"S_1 gram {_gram(e8_neg)}: orbits=1 cosets=1 equal=True\n"
        "total: orbits=1 cosets=1 equal=True\n"
    )
