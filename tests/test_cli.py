import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from k3fm import NeronSeveriSpec, fm_number, make_lattice
from k3fm.cli import build_parser, main
from k3fm.errors import CapExceededError

TABLE_EXPECTED = (
    (229, 3, 2), (257, 3, 2), (401, 5, 3), (577, 7, 4), (733, 3, 2),
    (761, 3, 2), (1009, 7, 4), (1093, 5, 3), (1129, 9, 5), (1229, 3, 2),
    (1297, 11, 6), (1373, 3, 2), (1429, 5, 3), (1489, 3, 2),
)


@pytest.fixture
def lattice_file(tmp_path):
    counter = [0]

    def write(gram):
        counter[0] += 1
        path = tmp_path / f"lattice{counter[0]}.json"
        path.write_text(json.dumps({"gram": gram}))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_discform(capsys, lattice_file):
    code, out, _ = run(capsys, ["discform", lattice_file([[2, 1], [1, -2]])])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "invariant factors: 5"
    assert lines[1].startswith("q(g1) = ")


def test_discform_unimodular(capsys, lattice_file):
    code, out, _ = run(capsys, ["discform", lattice_file([[0, 1], [1, 0]])])
    assert code == 0
    assert "trivial" in out


def test_fm_rank1(capsys):
    code, out, _ = run(capsys, ["fm", "--rank1", "6"])
    assert code == 0
    assert out.splitlines()[0] == "fm=2"


def test_fm_lattice(capsys, lattice_file):
    code, out, _ = run(capsys, ["fm", "--lattice", lattice_file([[2, 1], [1, -2]])])
    assert code == 0
    assert out.splitlines()[0] == "fm=1"
    assert "method: rank2" in out


def test_fm_rank1_lattice_file(capsys, lattice_file):
    code, out, _ = run(capsys, ["fm", "--lattice", lattice_file([[12]])])
    assert code == 0
    assert out.splitlines()[0] == "fm=2"
    assert "method: rank1" in out


def test_fm_nikulin_lattice(capsys, lattice_file):
    gram = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
    code, out, _ = run(capsys, ["fm", "--lattice", lattice_file(gram)])
    assert code == 0
    assert out.splitlines()[0] == "fm=1"
    assert "method: nikulin" in out


def test_classnum(capsys):
    code, out, _ = run(capsys, ["classnum", "1297"])
    assert code == 0
    assert out == "h=11\n"


def test_classnum_non_fundamental(capsys):
    code, out, _ = run(capsys, ["classnum", "20"])
    assert code == 0
    assert out == "h=2 (form class number)\n"


def test_genus(capsys):
    code, out, _ = run(capsys, ["genus", "205"])
    assert code == 0
    assert "h=2" in out.splitlines()[0] or "h=" in out.splitlines()[0]
    assert sum(1 for line in out.splitlines() if line.startswith("genus ")) == 2
    assert any(line.startswith("ambiguous classes:") for line in out.splitlines())


def test_table_csv(capsys):
    code, out, _ = run(capsys, ["table", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,h,fm"
    rows = tuple(tuple(int(x) for x in line.split(",")) for line in lines[1:])
    assert rows == TABLE_EXPECTED


def test_table_byte_stable(capsys):
    _, first, _ = run(capsys, ["table", "--format", "csv"])
    _, second, _ = run(capsys, ["table", "--format", "csv"])
    assert first == second


def test_table_list(capsys):
    code, out, _ = run(capsys, ["table", "--list", "229,401", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1:] == ["229,3,2", "401,5,3"]


def test_scan(capsys):
    code, out, _ = run(capsys, ["scan", "--max", "300"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "scan up to 300"
    ones = lines[1].split(":", 1)[1].split()
    assert "5" in ones and "229" not in ones
    assert "229:2" in lines[2]


def test_glue_cli(capsys, lattice_file):
    s = lattice_file([[-2]])
    t = lattice_file([[2]])
    code, out, _ = run(capsys, ["glue", "--s", s, "--t", t, "--list"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "anti-isometries: 1"
    assert "gram [[0, 1], [1, 2]]" in lines[1]
    assert "index=2" in lines[1]


def test_verify_t14_cli(capsys, lattice_file):
    s = lattice_file([[2, 1], [1, -2]])
    t = lattice_file([[-2, -1], [-1, 2]])
    code, out, _ = run(capsys, ["verify-t14", "--s", s, "--t", t])
    assert code == 0
    assert "equal=True" in out.splitlines()[-1]


def test_verify_t14_cli_definite_pair(capsys, lattice_file):
    s = lattice_file([[-2, 1], [1, -2]])
    t = lattice_file([[2, -1], [-1, 2]])
    code, out, _ = run(capsys, ["verify-t14", "--s", s, "--t", t])
    assert code == 0
    assert "equal=True" in out.splitlines()[-1]


def test_discform_odd_lattice(capsys, lattice_file):
    code, _, err = run(capsys, ["discform", lattice_file([[1, 0], [0, -1]])])
    assert code == 2
    assert "even lattice required" in err


def test_exit_code_parse_error(capsys, lattice_file, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"gram": [[2, 1], [1, 2], [0, 0]]}))
    code, out, err = run(capsys, ["discform", str(path)])
    assert code == 2
    assert out == ""
    assert err.strip() == "k3fm: gram must be square"


def test_exit_code_unsupported(capsys, lattice_file):
    gram = [[2, 0, 0], [0, -2, 0], [0, 0, -2]]
    code, _, err = run(capsys, ["fm", "--lattice", lattice_file(gram)])
    assert code == 3
    assert "out of scope" in err


# A_S = Z/5 + Z/25: its 5-part is not cyclic, so it is searched and capped
NON_CYCLIC = [[10, 5], [5, -10]]


def test_exit_code_cap(capsys, lattice_file, monkeypatch):
    monkeypatch.setenv("K3FM_CAP", "100")
    code, _, err = run(capsys, ["fm", "--lattice", lattice_file(NON_CYCLIC)])
    assert code == 4
    assert "finite group too large" in err


def test_cap_message_names_the_sizes_and_the_variable(capsys, lattice_file, monkeypatch):
    path = lattice_file(NON_CYCLIC)
    monkeypatch.setenv("K3FM_CAP", "124")
    code, out, err = run(capsys, ["fm", "--lattice", path])
    assert (code, out) == (4, "")
    assert err == (
        "k3fm: finite group too large: |A| = 125; its p-part for p = 5 has |A_5| = 125, "
        "which exceeds the cap 124 (raise it with K3FM_CAP)\n"
    )
    monkeypatch.setenv("K3FM_CAP", "125")
    code, out, _ = run(capsys, ["fm", "--lattice", path])
    assert (code, out.splitlines()[0]) == (0, "fm=1")


def test_the_library_honours_k3fm_cap(monkeypatch):
    monkeypatch.delenv("K3FM_CAP", raising=False)
    # |A_S| = 10009, a prime: cyclic, counted in closed form under any cap
    assert fm_number(NeronSeveriSpec(make_lattice([[2, 1], [1, -5004]]))).total == 1
    monkeypatch.setenv("K3FM_CAP", "100")
    with pytest.raises(CapExceededError) as info:
        fm_number(NeronSeveriSpec(make_lattice(NON_CYCLIC)))
    assert str(info.value) == (
        "finite group too large: |A| = 125; its p-part for p = 5 has "
        "|A_5| = 125, which exceeds the cap 100 (raise it with K3FM_CAP)"
    )


@pytest.mark.parametrize(
    "value, message",
    [("abc", "K3FM_CAP must be an integer, got 'abc'"), ("0", "K3FM_CAP must be positive")],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["fm", "--rank1", "6"],
        ["table", "--list", "5"],
        ["scan", "--max", "5"],
        ["glue"],
        ["verify-t14"],
    ],
)
def test_a_malformed_cap_exits_2_from_a_search(
    capsys, lattice_file, monkeypatch, argv, value, message
):
    if argv[0] in ("glue", "verify-t14"):
        argv = [*argv, "--s", lattice_file([[-6]]), "--t", lattice_file([[6]])]
    monkeypatch.setenv("K3FM_CAP", value)
    assert run(capsys, argv) == (2, "", f"k3fm: {message}\n")


def test_a_malformed_cap_is_not_read_without_a_search(capsys, lattice_file, monkeypatch):
    monkeypatch.setenv("K3FM_CAP", "abc")
    code, out, _ = run(capsys, ["fm", "--lattice", lattice_file([[0, 1], [1, 0]])])
    assert (code, out.splitlines()[0]) == (0, "fm=1")


@pytest.mark.parametrize("s, t", [(-6, 10), (-20002, 20004)])
def test_unequal_discriminant_groups_are_not_capped(capsys, lattice_file, monkeypatch, s, t):
    monkeypatch.delenv("K3FM_CAP", raising=False)
    files = ["--s", lattice_file([[s]]), "--t", lattice_file([[t]])]
    assert run(capsys, ["glue", *files]) == (0, "anti-isometries: 0\n", "")
    assert run(capsys, ["verify-t14", *files]) == (
        2,
        "",
        "k3fm: no gluing exists: discriminant forms of S and T are not anti-isometric\n",
    )


@pytest.mark.parametrize("argv", [["classnum", "9"], ["classnum", "1"], ["genus", "16"]])
def test_square_discriminant_is_unsupported_not_invalid(capsys, argv):
    code, out, err = run(capsys, argv)
    d = argv[1]
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        f"k3fm: unsupported: square discriminant D = {d} is isotropic; "
        "its class enumeration is out of scope"
    ]


def test_exit_code_bad_rank1(capsys):
    code, _, err = run(capsys, ["fm", "--rank1", "0"])
    assert code == 2
    assert err.startswith("k3fm:")


def test_exit_code_bad_table_list(capsys):
    code, _, err = run(capsys, ["table", "--list", "15"])
    assert code == 2
    assert "primes" in err


def test_exit_code_scan_bound(capsys):
    code, _, err = run(capsys, ["scan", "--max", "4"])
    assert code == 2


def test_verify_t14_needs_action_for_large_order(capsys, lattice_file):
    s = lattice_file([[2, 1], [1, -2]])
    t = lattice_file([[-2, -1], [-1, 2]])
    code, _, err = run(capsys, ["verify-t14", "--s", s, "--t", t, "--g-order", "4"])
    assert code == 3
    assert "explicit Hodge action required" in err


def test_fm_with_action_file(capsys, lattice_file, tmp_path):
    action = tmp_path / "action.json"
    # negation on the discriminant form of the negated lattice (q = -8/5 = 2/5)
    action.write_text(
        json.dumps({"orders": [5], "q": ["2/5"], "images": [[4]]})
    )
    code, out, _ = run(
        capsys,
        [
            "fm",
            "--lattice",
            lattice_file([[2, 1], [1, -2]]),
            "--hodge-order",
            "2",
            "--hodge-action",
            str(action),
        ],
    )
    assert code == 0
    assert out.splitlines()[0] == "fm=1"


def test_exit_code_internal_check(capsys, lattice_file, monkeypatch):
    from k3fm import gluing

    def broken_glue(s, t, phi):
        raise RuntimeError("glued lattice is not unimodular")

    monkeypatch.setattr(gluing, "glue", broken_glue)
    s = lattice_file([[2, 1], [1, -2]])
    t = lattice_file([[-2, -1], [-1, 2]])
    code, _, err = run(capsys, ["glue", "--s", s, "--t", t])
    assert code == 5
    assert err.splitlines() == ["k3fm: internal check failed: glued lattice is not unimodular"]


SRC = str(Path(__file__).resolve().parent.parent / "src")

# (argv, K3FM_CAP or None, exit code): parse errors, a library error, a cap
# error and successes, in one order, so that each call sees the parser the
# calls before it used; "NON_CYCLIC" stands for a file holding that lattice
REUSE_SEQUENCE = (
    (["fm"], None, 2),
    (["fm", "--rank1", "0"], None, 2),
    (["fm", "--lattice", "NON_CYCLIC"], "100", 4),
    (["fm", "--rank1", "6"], None, 0),
    (["fm", "--rank1", "6"], None, 0),
    (["table", "--list", "229", "--format", "csv"], None, 0),
    (["genus", "205"], None, 0),
)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code


def test_reused_parser_matches_a_fresh_process(capsys, lattice_file, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    monkeypatch.delenv("K3FM_CAP", raising=False)
    path = lattice_file(NON_CYCLIC)
    for argv, cap, expected in REUSE_SEQUENCE:
        argv = [path if arg == "NON_CYCLIC" else arg for arg in argv]
        with monkeypatch.context() as patch:
            if cap is not None:
                patch.setenv("K3FM_CAP", cap)
            code = _exit_code(argv)
            out, err = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "k3fm", *argv],
                env=dict(os.environ, PYTHONPATH=SRC),
                capture_output=True,
                text=True,
            )
        assert code == expected, argv
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser() is build_parser()


def test_main_reads_sys_argv_at_each_call(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["k3fm", "fm", "--rank1", "6"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("fm=2\n")
    monkeypatch.setattr(sys, "argv", ["k3fm", "classnum", "229"])
    assert main() == 0
    assert capsys.readouterr().out == "h=3\n"


@pytest.mark.parametrize("argv", [["table"], ["scan", "--max", "1500"]])
def test_a_closed_stdout_exits_141_in_silence(argv, monkeypatch):
    monkeypatch.delenv("K3FM_CAP", raising=False)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the run starts
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "k3fm", *argv],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")
