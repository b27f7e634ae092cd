import json
import math
import os
import tracemalloc
from collections import Counter

import pytest

from twohilb import cli
from twohilb.cli import build_parser, main
from twohilb.groups import cyclic_group, symmetric_group
from twohilb.tangles import EvalContext, evaluate, parse


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_irreps_text(capsys):
    code, out, _ = run_cli(capsys, "irreps", "--group", "S3")
    assert code == 0
    assert "1a" in out and "2a" in out


def test_fusion_table_s3(capsys):
    code, out, _ = run_cli(capsys, "fusion", "--group", "S3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 9
    std_row = next(r for r in rows if r["left"] == "2a" and r["right"] == "2a")
    assert std_row["decomposition"] == "1a + 1b + 2a"


def test_tangle_eval_dimension(capsys):
    code, out, _ = run_cli(capsys, "tangle", "eval", "coev ; coev*",
                           "--group", "S3", "--object", "std")
    assert code == 0
    assert out.strip() == "2.000000"


def test_tangle_eval_open_expression(capsys):
    code, out, _ = run_cli(capsys, "tangle", "eval", "coev",
                           "--group", "S3", "--object", "std", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dst"] == "+-"
    assert not payload["closed"]
    # the rows are encoded one at a time, byte for byte as the whole payload
    # of nested [re, im] lists would be
    for argv in (["coev", "--group", "S3", "--object", "std"],
                 ["(coev | id+) ; (id+ | B-+)", "--group", "Q8", "--super",
                  "--object", "2a"],
                 ["id+ | ev*", "--group", "S4", "--object", "3a", "--scale", "1.7"]):
        args = build_parser().parse_args(["tangle", "eval", *argv, "--format", "json"])
        cat = cli._category(args)
        ctx = EvalContext.make(cat, cli._resolve_irrep(cat, args.object), scale=args.scale)
        expr = parse(args.expr)
        matrix = evaluate(expr, ctx).matrix
        old = {"expr": args.expr, "closed": False, "src": expr.src, "dst": expr.dst,
               "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in matrix]}
        code, out, _ = run_cli(capsys, "tangle", "eval", *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(old) + "\n"


def test_open_tangle_json_memory():
    """A 243 x 243 matrix (0.9 MB) as nested Python lists of [re, im]
    pairs would take about 12 MB of Python allocations."""
    tracemalloc.start()
    try:
        main(["tangle", "eval", " | ".join(["id+"] * 5), "--group", "S4",
              "--object", "3a", "--format", "json", "--out", os.devnull])
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 4.0, f"peak {peak_mb:.1f} MB"


def test_tangle_moves_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "tangle", "moves",
                           "--group", "Q8", "--object", "std", "--dim", "3")
    assert code == 0
    assert "framed-r1" in out
    code, out, err = run_cli(capsys, "tangle", "moves", "--group", "S3",
                             "--object", "std", "--scale", "2.0",
                             "--format", "json")
    assert code == 1
    report = json.loads(out)
    failed = json.loads(err)
    assert "framed-r1" in failed["failed_moves"]
    by_id = {m["id"]: m for m in report["moves"]}
    assert by_id["framed-r1"]["deviation"] == pytest.approx(3.0, abs=1e-6)
    assert by_id["zigzag-plus"]["passed"]


def test_report_q8(capsys):
    code, out, _ = run_cli(capsys, "report", "--group", "Q8", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    two_dim = next(r for r in rows if r["label"] == "2a")
    assert two_dim["self_dual_sign"] == -1
    assert two_dim["self_dual"] == "quaternionic"


def test_report_supergroup(capsys):
    code, out, _ = run_cli(capsys, "report", "--group", "Q8", "--super",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    two_dim = next(r for r in rows if r["label"] == "2a")
    assert two_dim["parity"] == "odd"
    assert two_dim["balancing_phase"].startswith("-1.0")


def test_fourier_z4(capsys):
    code, out, _ = run_cli(capsys, "fourier", "--group", "Z4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    fiber_rows = [r for r in rows if not r["irrep"].startswith("(")]
    assert len(fiber_rows) == 4
    for k, row in enumerate(fiber_rows):
        fibers = [int(v) for v in row["fibers"].split()]
        assert fibers[k] == 1 and sum(fibers) == 1


def test_fourier_superhilb(capsys):
    code, out, err = run_cli(capsys, "fourier", "--group", "SuperHilb", "--format", "json")
    assert code == 0, err
    rows = {r["irrep"]: r["fibers"] for r in json.loads(out)}
    assert float(rows["(structure-map defect)"]) < 1e-12


def test_fourier_rejects_nonabelian(capsys):
    code, _, err = run_cli(capsys, "fourier", "--group", "S3")
    assert code == 2
    assert "error" in err


def test_tannaka_z2xz2(capsys):
    code, out, _ = run_cli(capsys, "tannaka", "--group", "Z2xZ2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4 and payload["cyclic"] is False


def test_tannaka_s3(capsys):
    code, out, _ = run_cli(capsys, "tannaka", "--group", "S3")
    assert code == 0
    assert "order 6 (non-cyclic)" in out
    code, out, _ = run_cli(capsys, "tannaka", "--group", "Q8", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"group": "Q8", "order": 8, "cyclic": False,
                               "element_orders": [1, 2, 4, 4, 4, 4, 4, 4]}


def assert_input_error(code, err):
    """Exit 2 with one ``error:`` line: main returned instead of raising."""
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unknown_group_is_input_error(capsys):
    code, _, err = run_cli(capsys, "irreps", "--group", "Nope")
    assert_input_error(code, err)
    assert "unknown group" in err


def nested(levels: int) -> str:
    """``levels`` composites, each nested in the parentheses of the last."""
    return "(id+ ; " * levels + "id+" + ")" * levels


def test_deep_nesting_is_input_error(capsys):
    code, out, _ = run_cli(capsys, "tangle", "eval", nested(50),
                           "--group", "S3", "--object", "std")
    assert code == 0 and out == "+ -> + (2x2 matrix)\n"
    code, _, err = run_cli(capsys, "tangle", "eval", nested(2000),
                           "--group", "S3", "--object", "std")
    assert_input_error(code, err)
    assert "nested deeper than" in err


def test_oversized_tangle_is_input_error(capsys):
    code, _, err = run_cli(capsys, "tangle", "eval", " | ".join(["id+"] * 14),
                           "--group", "S4", "--object", "3a")
    assert_input_error(code, err)
    assert "MB limit" in err


def test_unknown_object_is_input_error(capsys):
    code, _, err = run_cli(capsys, "tangle", "eval", "id+",
                           "--group", "Z4", "--object", "std")
    assert_input_error(code, err)
    assert "unknown object" in err


@pytest.mark.parametrize("text", [
    '{"name": "Z2", "table": [[0, 1], [1',     # not JSON
    '[[0, 1], [1, 0]]',                        # not an object
    '{"name": "Z2"}',                          # no table
    '{"table": [[0, 1], [1]]}',                # ragged table
    '{"table": 5}',                            # a scalar, not a table
    '{"table": [["e", "a"], ["a", "e"]]}',     # non-integer entries
    '{"table": [[0, 1], [1, 0]], "central_involution": "z"}',
    '{"name": "Z2", "table": [[0, 1], [1, 0]], "element_names": ["e"]}',
    '{"table": [[0.5, 1], [1, 0]]}',            # truncated to Z2 by int()
    '{"table": [[0, 1], [1, 0]], "central_involution": 1.5}',
    '{"table": [[0, 1], [1, 0]], "central_involution": true}',
    '{"table": [[0, 1], [1, 0]], "order": 2.9}',  # truncated to 2 by int()
    '{"table": [[0, 1], [1, 0]], "order": "2"}',
    '{"table": [[0]], "order": true}',               # int(True) is the order 1
])
def test_malformed_group_json_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "irreps", "--group", str(path))
    assert_input_error(code, err)


def test_irreps_past_26_labels(tmp_path, capsys):
    path = tmp_path / "Z27.json"
    path.write_text(json.dumps(cyclic_group(27).to_json()))
    code, out, _ = run_cli(capsys, "irreps", "--group", str(path), "--format", "json")
    assert code == 0
    labels = [r["label"] for r in json.loads(out)]
    assert len(set(labels)) == 27
    assert labels[25:] == ["1z", "1aa"]


def test_irreps_json_prints_no_rounding_noise(tmp_path, capsys):
    # S5's zero characters come out of eigh as noise near 1e-16, whose digits
    # depend on the BLAS threads; the printed table is rounded
    path = tmp_path / "S5.json"
    path.write_text(json.dumps(symmetric_group(5).to_json()))
    code, out, _ = run_cli(capsys, "irreps", "--group", str(path), "--format", "json")
    assert code == 0
    parts = [x for row in json.loads(out) for pair in row["character"] for x in pair]
    assert len(parts) == 2 * 7 * 120
    assert not [x for x in parts if 0 < abs(x) < 1e-12]
    assert all(math.copysign(1.0, x) > 0 for x in parts if x == 0)


def test_fourier_z27(tmp_path, capsys):
    """Random objects of degree at most 4 among 27 irreducibles of degree 1."""
    path = tmp_path / "Z27.json"
    path.write_text(json.dumps(cyclic_group(27).to_json()))
    code, out, err = run_cli(capsys, "fourier", "--group", str(path), "--format", "json")
    assert code == 0, err
    rows = {r["irrep"]: r["fibers"] for r in json.loads(out)}
    assert float(rows["(structure-map defect)"]) < 1e-9


SUBCOMMANDS = {
    "irreps": ["irreps", "--group", "Z2"],
    "fusion": ["fusion", "--group", "Z2"],
    "report": ["report", "--group", "Z2"],
    "tangle": ["tangle", "eval", "coev ; coev*", "--group", "Z2", "--object", "triv"],
    "fourier": ["fourier", "--group", "Z2"],
    "tannaka": ["tannaka", "--group", "Z2"],
    "suite": ["suite"],
}


@pytest.mark.parametrize("bad", [["--seed", "x"], ["--tol", "x"], ["--format", "xml"],
                                 ["--no-such-option"], ["--tol", "nan"], ["--tol", "-1"]])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_invalid_argument_exits_2(capsys, command, bad):
    with pytest.raises(SystemExit) as exc:
        main(SUBCOMMANDS[command] + bad)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["irreps", "--group", "Z4", "--super", "x"],
    ["tangle", "moves", "--group", "S3", "--object", "2a", "--scale", "nan"],
    ["tangle", "moves", "--group", "S3", "--object", "2a", "--scale", "inf"],
    ["tangle", "moves", "--group", "S3", "--object", "2a", "--scale", "0"],
    ["irreps", "--group", "S3", "--out", "{dir}"],
])
def test_invalid_option_value_exits_2(tmp_path, capsys, argv):
    argv = [a.format(dir=tmp_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # rejected by the parser
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_only_the_commands_that_read_tol_accept_it(capsys, command):
    """``tangle`` and ``fourier`` read ``--tol``; elsewhere it is an unknown
    option, not one that silently changes nothing."""
    argv = SUBCOMMANDS[command] + ["--tol", "1e-3"]
    if command in ("tangle", "fourier"):
        assert run_cli(capsys, *argv)[0] == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_only_the_commands_that_print_rows_accept_csv(capsys, command):
    """``tangle``, ``tannaka`` and ``suite`` print no rows; csv is an invalid
    choice there, not one that silently prints text."""
    argv = SUBCOMMANDS[command] + ["--format", "csv"]
    if command in ("irreps", "fusion", "report", "fourier"):
        assert run_cli(capsys, *argv)[0] == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(set(SUBCOMMANDS) - {"suite"}))
def test_invalid_group_exits_2(capsys, command):
    argv = [a if a != "Z2" else "Nope" for a in SUBCOMMANDS[command]]
    code, _, err = run_cli(capsys, *argv)
    assert_input_error(code, err)


def test_options_do_not_leak_between_calls(tmp_path, capsys):
    first = run_cli(capsys, "fourier", "--group", "Z4")
    path = tmp_path / "fourier.json"
    code, out, _ = run_cli(capsys, "fourier", "--group", "Z4", "--seed", "5",
                           "--format", "json", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())
    assert run_cli(capsys, "fourier", "--group", "Z4") == first
    assert build_parser() is build_parser()


def test_csv_output(capsys):
    code, out, _ = run_cli(capsys, "report", "--group", "Z3", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert "label" in header and "dim" in header


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "irreps", "--group", "Z2", "--format", "json",
                         "--out", str(path))
    assert code == 0
    rows = json.loads(path.read_text())
    assert {r["label"] for r in rows} == {"1a", "1b"}


def test_catalog_env_dir(tmp_path, capsys, monkeypatch):
    path = tmp_path / "MyZ2.json"
    path.write_text('{"name": "MyZ2", "order": 2, "table": [[0, 1], [1, 0]]}')
    monkeypatch.setenv("TWOHILB_CATALOG", str(tmp_path))
    code, out, _ = run_cli(capsys, "irreps", "--group", "MyZ2")
    assert code == 0
    assert "1b" in out


def test_irreps_csv_characters(capsys):
    code, out, _ = run_cli(capsys, "irreps", "--group", "Z2", "--format", "csv")
    assert code == 0
    assert "character" in out.splitlines()[0]
    assert "-1,0" in out or "-1,-0" in out


@pytest.fixture
def fresh_catalog(monkeypatch):
    """An empty store of catalog groups, and a count of the splits of the
    regular representation by group name."""
    from twohilb import groups, reps
    monkeypatch.setattr(groups, "_BUILT", {})
    splits, split = Counter(), reps._compute_irreps

    def counted(group, z_index, *args, **kwargs):
        splits[group.name] += 1
        return split(group, z_index, *args, **kwargs)
    monkeypatch.setattr(reps, "_compute_irreps", counted)
    return splits


def test_catalog_group_is_split_once_per_process(capsys, fresh_catalog):
    assert run_cli(capsys, "irreps", "--group", "S4")[0] == 0
    assert run_cli(capsys, "fusion", "--group", "S4")[0] == 0
    assert fresh_catalog == {"S4": 1}


def test_tannaka_splits_the_dual_once(capsys, fresh_catalog):
    first = run_cli(capsys, "tannaka", "--group", "Z12")
    assert first[0] == 0
    assert run_cli(capsys, "tannaka", "--group", "Z12") == first
    assert fresh_catalog == {"Z12": 1}


def test_memo_of_shared_groups_stays_bounded(capsys, fresh_catalog):
    """A second round of the same commands adds nothing to what the catalog
    groups keep, and splits nothing again."""
    from twohilb import groups

    def round_of_commands():
        for name in ("S3", "Z12", "SuperHilb"):
            for command in (["irreps"], ["fusion"], ["tannaka"], ["report"],
                            ["tangle", "eval", "coev ; coev*", "--object", "1a"]):
                assert run_cli(capsys, *command, "--group", name)[0] == 0
        kept = {}
        for name, g in groups._BUILT.items():
            memo = vars(getattr(g, "group", g))
            kept[name] = {key: sorted(value) if isinstance(value, dict) else None
                          for key, value in memo.items()}
        return kept
    kept = round_of_commands()
    assert "irreps" in kept["S3"]["_rep[z=None]"]
    splits = dict(fresh_catalog)
    assert round_of_commands() == kept
    assert fresh_catalog == splits
