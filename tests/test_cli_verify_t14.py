"""verify-t14 on isotropic rank-2 S: U is checked, any other square
discriminant is out of scope (exit 3), like `fm`."""

import json

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
