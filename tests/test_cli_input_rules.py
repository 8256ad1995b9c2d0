"""Input rules shared by the CLI verbs: a Hodge group order of 0 is refused
by `verify-t14` as by `fm`, and action files read integers by the same rule
as lattice files (JSON integers or decimal strings, no boolean, no float)."""

import json

import pytest

from k3fm.cli import main
from k3fm.errors import LatticeParseError
from k3fm.lattice import (
    diagonal_lattice,
    direct_sum,
    discriminant_data,
    e8_lattice,
    hyperbolic_plane,
    json_integer,
    lattice_from_obj,
    make_lattice,
    rescale,
)

ORDER_MESSAGE = "k3fm: Hodge group order must be a positive even integer\n"


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "gram_s",
    [[[-60]], [[2, 1], [1, -2]]],
)
def test_verify_t14_g_order_zero_exits_2_like_fm(tmp_path, capsys, gram_s):
    s = write(tmp_path, "s.json", {"gram": gram_s})
    t = write(tmp_path, "t.json", {"gram": [[-x for x in row] for row in gram_s]})
    code, out, err = run(capsys, ["verify-t14", "--s", s, "--t", t, "--g-order", "0"])
    assert (code, out, err) == (2, "", ORDER_MESSAGE)


def test_fm_hodge_order_zero_exits_2(tmp_path, capsys):
    s = write(tmp_path, "s.json", {"gram": [[2, 1], [1, -2]]})
    code, out, err = run(capsys, ["fm", "--lattice", s, "--hodge-order", "0"])
    assert (code, out, err) == (2, "", ORDER_MESSAGE)


def test_verify_t14_without_g_order_is_generic(tmp_path, capsys):
    s = write(tmp_path, "s.json", {"gram": [[-60]]})
    t = write(tmp_path, "t.json", {"gram": [[60]]})
    code, out, _ = run(capsys, ["verify-t14", "--s", s, "--t", t])
    assert code == 0
    assert out.splitlines()[-1] == "total: orbits=4 cosets=4 equal=True"


def run_action(tmp_path, capsys, action):
    s = write(tmp_path, "s.json", {"gram": [[2, 1], [1, -2]]})
    path = write(tmp_path, "action.json", action)
    return run(capsys, ["fm", "--lattice", s, "--hodge-order", "2", "--hodge-action", path])


@pytest.mark.parametrize(
    "action, message",
    [
        ({"orders": [5.9], "q": ["2/5"], "images": [[4]]}, "orders must be integers"),
        ({"orders": [5], "q": ["2/5"], "images": [[4.2]]}, "images must be integers"),
        ({"orders": [5], "q": ["2/5"], "images": [[4.0]]}, "images must be integers"),
        ({"orders": [5], "q": ["2/5"], "images": [[True]]}, "images must be integers"),
        ({"orders": [True], "q": ["2/5"], "images": [[4]]}, "orders must be integers"),
        ({"orders": ["5x"], "q": ["2/5"], "images": [[4]]}, "orders must be integers"),
        # a short row of b or a q list shorter than the orders once ended in a traceback
        (
            {"orders": [2, 2], "q": [0, 0], "b": [[0], [0, 0]], "images": [[1, 0], [0, 1]]},
            "generator data lengths disagree",
        ),
        ({"orders": [5], "q": [], "images": [[4]]}, "generator data lengths disagree"),
    ],
)
def test_bad_action_file_exits_2(tmp_path, capsys, action, message):
    code, out, err = run_action(tmp_path, capsys, action)
    assert (code, out, err) == (2, "", f"k3fm: bad action file: {message}\n")


def test_action_file_accepts_decimal_strings(tmp_path, capsys):
    code, out, _ = run_action(tmp_path, capsys, {"orders": ["5"], "q": ["2/5"], "images": [["4"]]})
    assert code == 0
    assert out.splitlines()[0] == "fm=1"


def test_json_integer_rule():
    assert json_integer(7, "x") == 7
    assert json_integer(" -12 ", "x") == -12
    assert json_integer("+3", "x") == 3
    assert json_integer(10**30, "x") == 10**30
    for bad in (True, False, 1.0, 2.5, None, "", "1.0", "1e3", "0x10", [1]):
        with pytest.raises(LatticeParseError, match="^x must be integers$"):
            json_integer(bad, "x")


@pytest.mark.parametrize("entry", [True, 1.0, 2.5, None, "1.5", "abc"])
def test_lattice_file_message_unchanged(entry):
    with pytest.raises(LatticeParseError, match="^gram entries must be integers$"):
        lattice_from_obj({"gram": [[entry, 1], [1, -2]]})


def test_discriminant_generators_are_derived_from_columns():
    data = discriminant_data(make_lattice([[2, 1, 0], [1, -4, 0], [0, 0, 6]]))
    assert "generators" not in type(data).__dataclass_fields__
    assert len(data.generators) == data.form.ngens == 2
    for gen, col, d in zip(data.generators, data.columns, data.form.orders):
        assert tuple(x * d for x in gen) == col


NEGATION_ON_Z5 = {"orders": [5], "q": ["2/5"], "images": [[4]]}
PICARD_ONE_MESSAGE = "k3fm: Picard number 1 forces a Hodge group of order 2 (phi(2I) | 21)\n"


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], (0, "fm=2\nmethod: rank1\n  gram [[12]]: 2\n", "")),
        (["--hodge-order", "2"], (0, "fm=2\nmethod: rank1\n  gram [[12]]: 2\n", "")),
        (["--hodge-order", "4"], (2, "", PICARD_ONE_MESSAGE)),
        (["--hodge-order", "3"], (2, "", ORDER_MESSAGE)),
        (["--hodge-order", "0"], (2, "", ORDER_MESSAGE)),
        (["--hodge-action", "ACTION"], (0, "fm=2\nmethod: rank1\n  gram [[12]]: 2\n", "")),
        (["--hodge-order", "4", "--hodge-action", "ACTION"], (2, "", PICARD_ONE_MESSAGE)),
        (["--hodge-action", "MISSING"], None),
    ],
)
def test_rank1_takes_the_hodge_flags_like_the_lattice_it_names(tmp_path, capsys, flags, expected):
    action = write(tmp_path, "action.json", NEGATION_ON_Z5)
    missing = str(tmp_path / "missing.json")
    flags = [{"ACTION": action, "MISSING": missing}.get(f, f) for f in flags]
    lattice = write(tmp_path, "ns.json", {"gram": [[12]]})
    by_rank1 = run(capsys, ["fm", "--rank1", "6", *flags])
    assert by_rank1 == run(capsys, ["fm", "--lattice", lattice, *flags])
    if expected is None:
        assert by_rank1[0] == 2 and by_rank1[2].startswith("k3fm: cannot read action file")
    else:
        assert by_rank1 == expected


def test_rank1_zero_message_unchanged(capsys):
    assert run(capsys, ["fm", "--rank1", "0"]) == (2, "", "k3fm: n must be a positive integer\n")


U_PLUS_MINUS_2 = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
RHO_3_COUNT = "fm=1\nmethod: nikulin\n  gram [[0, 1, 0], [1, 0, 0], [0, 0, -2]]: 1\n"


@pytest.mark.parametrize(
    "gram, order, expected",
    [
        ([[2, 1], [1, -2]], "14", (2, "", "k3fm: Hodge group order violates phi(2I) | 20\n")),
        (U_PLUS_MINUS_2, "2", (0, RHO_3_COUNT, "")),
        (U_PLUS_MINUS_2, "4", (2, "", "k3fm: Hodge group order violates phi(2I) | 19\n")),
        (U_PLUS_MINUS_2, "6", (2, "", "k3fm: Hodge group order violates phi(2I) | 19\n")),
        (U_PLUS_MINUS_2, "66", (2, "", "k3fm: Hodge group order violates phi(2I) | 19\n")),
    ],
)
def test_hodge_order_rule_at_every_picard_number(tmp_path, capsys, gram, order, expected):
    # rank T = 22 - rho; at rho = 3 it is 19, and only phi(2) = 1 divides it
    ns = write(tmp_path, "ns.json", {"gram": gram})
    assert run(capsys, ["fm", "--lattice", ns, "--hodge-order", order]) == expected


@pytest.mark.parametrize("rank", [20, 21, 22])
def test_picard_number_is_at_most_20(tmp_path, capsys, rank):
    e8m = rescale(e8_lattice(), -1)
    lat = direct_sum(hyperbolic_plane(), e8m, e8m, diagonal_lattice(*[-2] * (rank - 18)))
    ns = write(tmp_path, "ns.json", {"gram": [list(row) for row in lat.gram]})
    code, out, err = run(capsys, ["fm", "--lattice", ns])
    if rank == 20:
        assert (code, out.splitlines()[0], err) == (0, "fm=1", "")
    else:
        message = "k3fm: Neron-Severi lattice of a projective K3 has rank at most 20\n"
        assert (code, out, err) == (2, "", message)


def test_table_empty_prime_list_exits_2(capsys):
    # an empty --list is a bad list, not a request for the default table
    assert run(capsys, ["table", "--list", ""]) == (2, "", "k3fm: bad prime list: ''\n")
