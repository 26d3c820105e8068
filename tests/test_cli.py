import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecohom import catalog, cli, cochain, exact_linalg, invariants, lie_core
from liecohom.cli import _build_parser, main
from liecohom.cochain import (
    CochainSpace,
    CohomologyResult,
    cohomology,
    differential,
    is_cocycle,
)
from liecohom.exact_linalg import SparseMatrix, Subspace
from liecohom.invariants import InvariantSetup, _levi_grading
from liecohom.lie_core import LieAlgebra
from liecohom.representations import adjoint_rep, trivial_rep

from oracles import dense_bracket


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_info_catalog(capsys):
    code, data, _ = run_json(capsys, "info", "schrodinger:3")
    assert code == 0
    assert data["payload"]["dim"] == 10
    assert data["payload"]["center_dim"] == 1
    assert data["payload"]["valid"] is True
    code, data, _ = run_json(capsys, "info", "abelian:4")
    assert code == 0
    assert data["payload"]["dim"] == 4
    assert data["payload"]["center_dim"] == 4


def test_info_file_validates_once(capsys, tmp_path, monkeypatch):
    # parsing the file checks Jacobi; info itself does not check it again
    path = tmp_path / "sch2.json"
    path.write_text(catalog.serialize(catalog.schrodinger(2)))
    calls = []
    validate = LieAlgebra.validate

    def counted(g):
        calls.append(g.name)
        return validate(g)

    monkeypatch.setattr(LieAlgebra, "validate", counted)
    code, data, _ = run_json(capsys, "info", f"file:{path}")
    assert code == 0
    assert data["payload"]["valid"] is True
    assert data["payload"]["center_dim"] == 1
    assert calls == ["schrodinger:2"]


def test_info_bad_file_exits_2(capsys, tmp_path):
    g = catalog.sl2()
    data = g.to_json_dict()
    data["brackets"][1]["result"] = [[0, "-1"]]  # [e,h] = -e breaks Jacobi
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "info", f"file:{path}")
    assert code == 2
    assert "Jacobi" in err and "triple" in err


def test_unknown_spec_exits_2(capsys):
    code, _, err = run(capsys, "info", "nosuch:3")
    assert code == 2
    assert "unknown algebra spec" in err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "sl2"])  # missing required --coeff
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 1
    code, _, err = run(capsys, "verify-paper", "--n-max", "1")
    assert code == 1
    code, _, err = run(
        capsys, "invariant-cohomology", "--ambient", "sl2", "--coeff", "adjoint"
    )
    assert code == 1
    assert "canonical split" in err
    for argv in (
        ("cohomology", "sl2", "--coeff", "trivial", "--degree", "-1"),
        ("invariant-cohomology", "--ambient", "schrodinger:2", "--coeff",
         "adjoint", "--degree", "-1"),
        ("hs-check", "--ambient", "schrodinger:2", "--degree", "-1"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error: --degree"), argv
    for flag in ("--rank-trials", "--extension-trials"):
        code, _, err = run(capsys, "selftest", flag, "-1")
        assert code == 1, flag
        assert err.startswith(f"error: {flag}") and "must be nonnegative" in err


def test_cohomology_examples(capsys):
    code, data, _ = run_json(
        capsys, "cohomology", "schrodinger:2", "--coeff", "trivial", "--degree", "2"
    )
    assert code == 0
    assert data["payload"]["dim_cohomology"] == 2
    code, data, _ = run_json(
        capsys, "cohomology", "sl2", "--coeff", "adjoint", "--degree", "1"
    )
    assert code == 0
    assert data["payload"]["dim_cohomology"] == 0


def test_cohomology_representatives_parse_back(capsys):
    code, data, _ = run_json(
        capsys,
        "cohomology",
        "schrodinger:2",
        "--coeff",
        "adjoint",
        "--degree",
        "2",
        "--representatives",
    )
    assert code == 0
    reps = data["payload"]["representatives"]
    assert len(reps) == 1
    g = catalog.schrodinger(2)
    adj = adjoint_rep(g)
    space = CochainSpace(g, adj, 2)
    vec = space.parse(reps[0])
    assert is_cocycle(g, adj, 2, vec)


def test_derivations_example(capsys):
    code, data, _ = run_json(capsys, "derivations", "schrodinger:3")
    assert code == 0
    assert data["payload"] == {"total": 13, "inner": 9, "outer": 4}


def test_invariant_cohomology_example(capsys):
    code, data, _ = run_json(
        capsys,
        "invariant-cohomology",
        "--ambient",
        "schrodinger:2",
        "--levi",
        "sl2",
        "--radical",
        "heisenberg",
        "--coeff",
        "adjoint",
        "--degree",
        "2",
    )
    assert code == 0
    payload = data["payload"]
    assert payload["dim_cohomology"] == 1
    assert payload["dim_cocycles"] == 4
    assert payload["dim_coboundaries"] == 3
    assert payload["consistent"] is True
    # an empty levi part: every cochain is invariant, and the payload is
    # that of cohomology on the whole algebra
    code, data, _ = run_json(
        capsys, "invariant-cohomology", "--ambient", "schrodinger:2", "--levi",
        "indices:", "--radical", "indices:0,1,2,3,4,5,6,7", "--coeff", "adjoint",
        "--degree", "2", "--representatives")
    assert code == 0
    _, ref, _ = run_json(capsys, "cohomology", "schrodinger:2", "--coeff", "adjoint",
                         "--degree", "2", "--representatives")
    assert {k: data["payload"][k] for k in ref["payload"]} == ref["payload"]
    assert data["payload"]["consistent"] is True


def test_hs_check_example(capsys):
    code, data, _ = run_json(
        capsys, "hs-check", "--ambient", "schrodinger-quotient:3", "--degree", "2"
    )
    assert code == 0
    payload = data["payload"]
    assert payload["direct"] == 0
    assert payload["factorized"] == 0
    assert payload["agree"] is True
    # an empty levi part: both sides are dim H^2(sch_2, sch_2)
    code, data, _ = run_json(
        capsys, "hs-check", "--ambient", "schrodinger:2", "--levi", "indices:",
        "--radical", "indices:0,1,2,3,4,5,6,7", "--degree", "2")
    assert code == 0
    assert data["payload"]["direct"] == data["payload"]["factorized"] == 1


def test_extend_round_trip(capsys):
    code, data, _ = run_json(capsys, "extend", "heisenberg:1", "--index", "0")
    assert code == 0
    payload = data["payload"]
    assert payload["extension_dim"] == 4
    assert payload["valid"] is True
    rebuilt = catalog.parse_algebra(json.dumps(payload["algebra"]))
    assert rebuilt.dim == 4
    assert rebuilt.validate() is None


def test_extend_without_classes_exits_1(capsys):
    code, _, err = run(capsys, "extend", "sl2")
    assert code == 1
    assert "vanishes" in err


def test_extend_cocycle_file(capsys, tmp_path):
    from liecohom.representations import trivial_rep

    g = catalog.schrodinger(2)
    space = CochainSpace(g, trivial_rep(g, 1), 2)
    # phi(e, x1) = 1 is not a cocycle, so the extension must be refused
    path = tmp_path / "phi.json"
    path.write_text(space.serialize(space.vector_of({((0, 3), 0): 1})))
    code, _, err = run(
        capsys, "extend", "schrodinger:2", "--cocycle-file", str(path)
    )
    assert code == 2
    assert "not a Lie algebra" in err


def test_extend_central_dims_below_1_exits_1(capsys, tmp_path):
    path = tmp_path / "phi.json"
    path.write_text("[]")
    for dims in ("0", "-2"):
        code, _, err = run(capsys, "extend", "sl2", "--central-dims", dims)
        assert code == 1
        assert err == "error: --central-dims must be at least 1\n"
        code, _, err = run(
            capsys, "extend", "sl2", "--central-dims", dims,
            "--cocycle-file", str(path),
        )
        assert code == 1
        assert err == "error: --central-dims must be at least 1\n"


def test_bad_algebra_files_exit_2(capsys, tmp_path):
    zero_den = catalog.sl2().to_json_dict()
    zero_den["brackets"][0]["result"] = [[2, "1/0"]]
    string_basis = {"basis": "ab", "brackets": []}
    path = tmp_path / "bad.json"
    float_coeff = catalog.sl2().to_json_dict()
    float_coeff["brackets"][0]["result"] = [[2, 0.1]]
    float_pair = {"basis": ["a", "b", "c"],
                  "brackets": [{"left": 0.9, "right": 1.7, "result": [[2.2, "1"]]}]}
    bool_left = {"basis": ["a", "b", "c"],
                 "brackets": [{"left": False, "right": 1, "result": [[2, "1"]]}]}
    float_target = {"basis": ["a", "b", "c"],
                    "brackets": [{"left": 0, "right": 1, "result": [[2.0, "1"]]}]}
    int_name = dict(catalog.heisenberg(1).to_json_dict(), name=5)
    huge_exponent = catalog.sl2().to_json_dict()
    huge_exponent["brackets"][0]["result"] = [[2, "1e30000000"]]
    cases = [(json.dumps(data), words) for data, words in (
        (zero_den, "1/0"), (string_basis, "basis"), (float_coeff, "0.1"),
        (float_pair, "0.9"), (bool_left, "False"), (float_target, "2.0"),
        (int_name, "name must be a string"),
        (huge_exponent, "exponent too large"))]
    cases.append(("[" * 3000 + "]" * 3000, "nested too deeply"))
    for text, words in cases:
        path.write_text(text)
        code, _, err = run(capsys, "info", f"file:{path}")
        assert code == 2
        assert err.startswith("error:") and words in err
    # a name that is not a string is refused before a split is looked up by it
    path.write_text(json.dumps(int_name))
    for command in ("hs-check", "invariant-cohomology"):
        code, _, err = run(capsys, command, "--ambient", f"file:{path}",
                           "--coeff", "trivial")
        assert code == 2, command
        assert err.startswith("error:") and "name must be a string" in err


def test_bad_cocycle_files_exit_2(capsys, tmp_path):
    path = tmp_path / "phi.json"
    for text, words in (
        ('[[[0, 1], 0, "1/0"]]', "1/0"),
        ("5", "malformed cochain"),
        ("[[[0, 1], 0, null]]", "malformed cochain"),
        ("[[[0, 1], 0]]", "unpack"),
        ("[[[0, 1], 0, 0.5]]", "0.5"),
        ('[[[0, 1.0], 0, "1"]]', "1.0"),
        ('[[[0, 1], 0.0, "1"]]', "0.0"),
        ('[[[false, 1], 0, "1"]]', "False"),
        ('[[[0, 1], true, "1"]]', "True"),
        ('[["01", 0, "1"]]', "not a list of indices"),
        ('[[[0, 1], 0, "1e30000000"]]', "exponent too large"),
        ("[" * 3000 + "]" * 3000, "nested too deeply"),
    ):
        path.write_text(text)
        code, _, err = run(
            capsys, "extend", "heisenberg:1", "--cocycle-file", str(path)
        )
        assert code == 2, text
        assert err.startswith("error:") and words in err, text


def test_levi_not_a_subalgebra_exits_2(capsys):
    # [x1, y1] = z leaves the span of x1, y1 in heisenberg:1
    for command in ("invariant-cohomology", "hs-check"):
        code, _, err = run(
            capsys, command, "--ambient", "heisenberg:1", "--levi", "indices:0,1",
            "--radical", "indices:2", "--coeff", "trivial",
        )
        assert code == 2, command
        assert err.startswith("error:") and "leaves the span" in err, command


def test_file_names_do_not_choose_the_split(capsys, tmp_path):
    # a file may carry any name: sch_2 with its basis reordered and an
    # abelian algebra, both named as catalog entries, have no default split
    g = catalog.schrodinger(2)
    order = [g.labels.index(x) for x in ("x1", "y1", "z", "e", "f", "h", "x2", "y2")]
    at = {old: new for new, old in enumerate(order)}
    structure = {}
    for (i, j), comps in g.structure.items():
        sign = 1 if at[i] < at[j] else -1
        structure[tuple(sorted((at[i], at[j])))] = {
            at[k]: sign * c for k, c in comps.items()}
    moved = LieAlgebra([g.labels[i] for i in order], structure, name="schrodinger:2")
    assert moved.validate() is None
    flat = LieAlgebra(catalog.abelian(6).labels, {}, name="schrodinger:1")
    path = tmp_path / "g.json"
    for h in (moved, flat):
        path.write_text(catalog.serialize(h))
        for command in ("hs-check", "invariant-cohomology"):
            code, _, err = run(capsys, command, "--ambient", f"file:{path}",
                               "--coeff", "adjoint", "--degree", "2")
            assert code == 1, (h.name, command)
            assert "no canonical split" in err, (h.name, command)


@st.composite
def split_invocations(draw):
    spec, dim = draw(st.sampled_from(
        (("heisenberg:1", 3), ("sl2", 3), ("schrodinger:1", 6), ("abelian:2", 2))
    ))
    # each basis index goes to levi, radical, both or neither, so that
    # partitions come up often; extra indices may repeat or fall outside
    owners = [draw(st.sampled_from("LLLRRRBN")) for _ in range(dim)]
    parts = []
    for side in "LR":
        indices = [i for i, o in enumerate(owners) if o in (side, "B")]
        indices += draw(st.lists(st.integers(-1, dim), max_size=2))
        parts.append("indices:" + ",".join(map(str, draw(st.permutations(indices)))))
    return [
        draw(st.sampled_from(("invariant-cohomology", "hs-check"))),
        "--ambient", spec, "--levi", parts[0], "--radical", parts[1],
        "--coeff", draw(st.sampled_from(("trivial", "adjoint"))),
        "--degree", str(draw(st.integers(0, 2))),
    ]


@settings(max_examples=100)
@given(split_invocations())
def test_any_split_selection_ends_in_an_exit_code(argv):
    # overlapping, incomplete and out-of-range splits are errors, never tracebacks
    assert main(argv) in (0, 1, 2, 3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _or_any(strategy):
    return strategy | JSON_VALUES


@st.composite
def algebra_files(draw):
    """Algebra JSON with at most 4 basis labels, every field sometimes
    replaced by an arbitrary JSON value."""
    index = _or_any(st.integers(-1, 4))
    coeff = _or_any(st.integers(-2, 2) | st.sampled_from(("1", "-1/2", "1/0", "x")))
    bracket = st.fixed_dictionaries({}, optional={
        "left": index,
        "right": index,
        "result": _or_any(st.lists(st.lists(index | coeff, min_size=2, max_size=2),
                                   max_size=3)),
    })
    data = draw(_or_any(st.fixed_dictionaries({}, optional={
        "basis": _or_any(st.lists(_or_any(st.sampled_from("xyzw")), max_size=4)),
        "name": _or_any(st.sampled_from(("", "sl2", "heisenberg:1", "schrodinger:1"))),
        "brackets": _or_any(st.lists(_or_any(bracket), max_size=4)),
    })))
    return json.dumps(data)


@settings(max_examples=150, deadline=None)
@given(algebra_files())
def test_any_algebra_file_ends_in_an_exit_code(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    for argv in (("info", f"file:{path}"),
                 ("hs-check", "--ambient", f"file:{path}"),
                 ("invariant-cohomology", "--ambient", f"file:{path}",
                  "--coeff", "trivial")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert code in (0, 1, 2, 3), (argv, text)
        assert "Traceback" not in err.getvalue(), (argv, text)


@st.composite
def cochain_files(draw):
    """Cochain JSON for the 2-cochains of heisenberg:1 (basis indices 0..2,
    one module coordinate), every field sometimes replaced by an arbitrary
    JSON value."""
    index = _or_any(st.integers(-1, 3))
    coeff = _or_any(st.integers(-2, 2)
                    | st.sampled_from(("1", "-1/2", "1/0", "x", "2e3", "1e999")))
    term = _or_any(st.tuples(_or_any(st.lists(index, max_size=3)), index, coeff).map(list)
                   | st.lists(index | coeff, max_size=4))
    return json.dumps(draw(_or_any(st.lists(term, max_size=4))))


@settings(max_examples=150, deadline=None)
@given(cochain_files())
def test_any_cochain_file_ends_in_an_exit_code(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz-cochain.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["extend", "heisenberg:1", "--cocycle-file", str(path)])
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in err.getvalue(), text


ONE_RUN_EACH = {
    "info": ("sl2",),
    "cohomology": ("sl2", "--coeff", "trivial"),
    "derivations": ("sl2",),
    "invariant-cohomology": ("--ambient", "schrodinger:1", "--coeff", "trivial"),
    "extend": ("heisenberg:1",),
    "hs-check": ("--ambient", "schrodinger:1"),
    "verify-paper": ("--n-max", "2"),
    "selftest": ("--rank-trials", "2", "--extension-trials", "2"),
}


def test_every_command_reports_in_one_envelope(capsys):
    (commands,) = [a.choices for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(ONE_RUN_EACH) == set(commands)
    for command, argv in ONE_RUN_EACH.items():
        code, data, _ = run_json(capsys, command, *argv)
        assert code == 0, command
        assert set(data) == {"command", "algebra", "payload", "elapsed"}, command
        assert data["command"] == command


def test_one_parser_serves_every_main_call(capsys):
    assert _build_parser() is _build_parser()
    argv = ("cohomology", "schrodinger:2", "--coeff", "adjoint", "--degree", "2",
            "--representatives", "--format", "json")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "sl2"])  # missing required --coeff
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: liecohom cohomology")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "verify-paper" in capsys.readouterr().out
    code, again, _ = run(capsys, *argv)
    assert code == 0
    elapsed = re.compile(r'"elapsed": "[0-9.]+s"')
    assert elapsed.subn("", again) == elapsed.subn("", first)


def test_errors_print_one_line_and_no_report(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    phi = tmp_path / "phi.json"
    phi.write_text('[[[0, 3], 0, "1"]]')  # phi(e, x1) = 1 on sch_2, not a cocycle
    for argv, expected in (
        (("verify-paper", "--n-max", "1"), 1),
        (("extend", "sl2"), 1),
        (("info", "nosuch:3"), 2),
        (("info", f"file:{bad}"), 2),
        (("extend", "heisenberg:1", "--cocycle-file", str(tmp_path / "none")), 2),
        (("extend", "schrodinger:2", "--cocycle-file", str(phi)), 2),
    ):
        for fmt in ("table", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert code == expected, argv
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_table_and_json_payloads_agree(capsys):
    code, table, _ = run(
        capsys, "cohomology", "schrodinger:2", "--coeff", "trivial", "--degree", "2"
    )
    assert code == 0
    code, data, _ = run_json(
        capsys, "cohomology", "schrodinger:2", "--coeff", "trivial", "--degree", "2"
    )
    for key in ("dim_cochain", "dim_cocycles", "dim_coboundaries", "dim_cohomology"):
        assert f"{key}: {data['payload'][key]}" in table


def test_output_is_deterministic(capsys):
    def snap():
        code, out, _ = run(
            capsys, "verify-paper", "--n-max", "2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        del data["elapsed"]
        return data

    assert snap() == snap()


def test_verify_paper_rows(capsys):
    code, data, _ = run_json(capsys, "verify-paper", "--n-max", "3")
    assert code == 0
    payload = data["payload"]
    assert payload["oracle_consistent"] is True
    assert (payload["pass"], payload["fail"], payload["discrepancy"]) == (23, 3, 1)
    assert len(payload["rows"]) == 27
    rows = {r["claim"]: r for r in payload["rows"]}
    assert len(rows) == 27  # claim labels are unique
    disc = rows["dim H^2(sch_2, sch_2)"]
    assert disc["status"] == "DISCREPANCY"
    assert "proposition" in disc["stated"] and "abstract" in disc["stated"]
    assert disc["computed"] == "1"
    assert "supports 1" in disc["note"]
    assert rows["dim H^2(sch_2, triv)"]["status"] == "PASS"
    assert rows["dim H^2(g_2, g_2)"]["status"] == "FAIL"
    assert rows["dim Z^2(a, g_2)^sl2"]["status"] == "FAIL"
    assert rows["dim B^2(a, g_2)^sl2"]["status"] == "PASS"
    assert rows["g_2 distinguished 2-cocycle"]["status"] == "FAIL"
    assert rows["sch_2 distinguished 2-cocycle"]["status"] == "PASS"
    for q in ("Z", "B"):
        row = rows[f"dim {q}^2(h_3, sch_3)^sl2"]
        assert (row["stated"], row["computed"], row["status"]) == ("6", "6", "PASS")
    h2 = rows["dim H^2(sch_3, sch_3)"]
    assert (h2["stated"], h2["computed"], h2["status"]) == ("0", "0", "PASS")
    assert h2["note"] == "factorized dim 0, agree=True"
    assert all(r["oracle_ok"] for r in payload["rows"])


def test_verify_paper_certifies_every_rank(capsys, monkeypatch):
    # the oracle ranks stay right when every certificate fails, because
    # rank_dense decides then; only its call count shows the failure
    called = []
    dense = exact_linalg.rank_dense
    monkeypatch.setattr(exact_linalg, "rank_dense", lambda m: called.append(m) or dense(m))
    code, _, _ = run(capsys, "verify-paper", "--n-max", "4")
    assert code == 0
    assert called == []


def test_verify_paper_builds_each_leibniz_system_once(capsys, monkeypatch):
    # derivation_space solves the system; its oracle, the rank of the
    # adjoint d_1, builds none. Counted under both module names, so that a
    # copy imported into cli is counted too
    built = []
    leibniz = lie_core._leibniz_system

    def counted(g):
        built.append(g.name)
        return leibniz(g)

    monkeypatch.setattr(lie_core, "_leibniz_system", counted)
    monkeypatch.setattr(cli, "_leibniz_system", counted, raising=False)
    code, _, _ = run(capsys, "verify-paper", "--n-max", "3")
    assert code == 0
    assert built == ["schrodinger:2", "schrodinger:3"]


def test_wrong_derivation_count_trips_its_oracle(capsys, monkeypatch):
    derivation_space = cli.derivation_space

    class OffByOne:
        def __init__(self, g):
            self.dim = derivation_space(g).dim + 1

    monkeypatch.setattr(cli, "derivation_space", OffByOne)
    code, data, _ = run_json(capsys, "verify-paper", "--n-max", "2")
    assert code == 3
    payload = data["payload"]
    assert payload["oracle_consistent"] is False
    bad = [r for r in payload["rows"] if not r["oracle_ok"]]
    assert [r["claim"] for r in bad] == ["dim Der(sch_2)"]
    assert bad[0]["note"] == "INTERNAL: oracle got 9, sparse path 10"


def test_wrong_sparse_rank_trips_its_oracle(capsys, monkeypatch):
    # the oracles take no rank from SparseMatrix.rank, so one sparse rank
    # off by one on d_2(sch_2, adjoint) must show in its row and the exit code
    sch2 = catalog.schrodinger(2)
    d2 = differential(sch2, adjoint_rep(sch2), 2)
    sparse_rank = SparseMatrix.rank

    def off_by_one(m):
        r = sparse_rank(m)
        return r + 1 if (m.rows, m.cols) == (d2.rows, d2.cols) and m == d2 else r

    monkeypatch.setattr(SparseMatrix, "rank", off_by_one)
    code, data, _ = run_json(capsys, "verify-paper", "--n-max", "2")
    assert code == 3
    payload = data["payload"]
    assert payload["oracle_consistent"] is False
    bad = [r for r in payload["rows"] if not r["oracle_ok"]]
    assert [r["claim"] for r in bad] == ["dim H^2(sch_2, sch_2)"]
    assert bad[0]["computed"] == "0"
    assert "INTERNAL: oracle got 1, sparse path 0" in bad[0]["note"]


def test_wrong_invariant_coboundaries_trip_their_oracle(capsys, monkeypatch):
    # the B oracle is b_0 - b_w of the sl2 characters and reads nothing of
    # the sparse invariant path, so one coboundary too many must show on every
    # B row
    invariant_cohomology = cli.invariant_cohomology

    def one_too_many(setup, n):
        res = invariant_cohomology(setup, n)
        return CohomologyResult(res.degree, res.dim_cochain, res.dim_cocycles,
                                res.dim_coboundaries + 1, res.dim_cohomology,
                                res.compute_representatives)

    monkeypatch.setattr(cli, "invariant_cohomology", one_too_many)
    code, data, _ = run_json(capsys, "verify-paper", "--n-max", "2")
    assert code == 3
    payload = data["payload"]
    assert payload["oracle_consistent"] is False
    bad = [(r["claim"], r["note"]) for r in payload["rows"] if not r["oracle_ok"]]
    assert bad == [
        ("dim B^2(h_2, triv)^sl2", "INTERNAL: oracle got 1, sparse path 2"),
        ("dim B^2(h_2, sch_2)^sl2", "INTERNAL: oracle got 3, sparse path 4"),
        ("dim B^2(a, g_2)^sl2", "INTERNAL: oracle got 0, sparse path 1"),
    ]


def test_dropped_invariant_vector_trips_its_oracle(capsys, monkeypatch):
    # without the first vector of every Inv basis the Z and B numbers that
    # it carries fall; the Z and B oracles count weights and take no
    # invariant basis, so each such row must show it (g_2's one
    # invariant 2-cochain is neither a cocycle nor a coboundary)
    invariant_subspace = invariants.invariant_subspace

    def drop_first(setup, n):
        inv = invariant_subspace(setup, n)
        return Subspace(inv.ambient_dim, inv.rows[1:], inv.pivots[1:])

    monkeypatch.setattr(invariants, "invariant_subspace", drop_first)
    code, data, _ = run_json(capsys, "verify-paper", "--n-max", "2")
    assert code == 3
    payload = data["payload"]
    assert payload["oracle_consistent"] is False
    bad = [(r["claim"], r["note"]) for r in payload["rows"] if not r["oracle_ok"]]
    assert bad == [
        ("dim Z^2(h_2, triv)^sl2", "INTERNAL: oracle got 3, sparse path 2"),
        ("dim B^2(h_2, triv)^sl2", "INTERNAL: oracle got 1, sparse path 0"),
        ("dim Z^2(h_2, sch_2)^sl2", "INTERNAL: oracle got 4, sparse path 3"),
    ]


def test_wrong_weight_count_trips_the_character_oracle(capsys, monkeypatch):
    # the Z and B oracles count the cochains of each weight; one n-cochain
    # too many of weight 0 raises every oracle Z by one and leaves B alone
    counts = invariants._cochain_counts

    def one_too_many(k, grading, v=0):
        got = counts(k, grading, v)
        return got[:-1] + [got[-1] + 1] if v == 0 else got

    monkeypatch.setattr(invariants, "_cochain_counts", one_too_many)
    code, data, _ = run_json(capsys, "verify-paper", "--n-max", "2")
    assert code == 3
    payload = data["payload"]
    assert payload["oracle_consistent"] is False
    bad = [(r["claim"], r["note"]) for r in payload["rows"] if not r["oracle_ok"]]
    assert bad == [
        ("dim Z^2(h_2, triv)^sl2", "INTERNAL: oracle got 4, sparse path 3"),
        ("dim Z^2(h_2, sch_2)^sl2", "INTERNAL: oracle got 5, sparse path 4"),
        ("dim Z^2(a, g_2)^sl2", "INTERNAL: oracle got 1, sparse path 0"),
    ]


def test_verify_paper_payload_pinned(capsys):
    # the claim table, every row, note and count, byte for byte; elapsed
    # is outside the payload
    code, data, _ = run_json(capsys, "verify-paper", "--n-max", "4")
    assert code == 0
    digest = hashlib.sha256(json.dumps(data["payload"], sort_keys=True).encode()).hexdigest()
    assert digest == "a173bcc5516d58daccde8e63020f51f851460e0f8883f388dcb8143151e572cc"


def _skew_sch2(tmp_path):
    """sch_2 on the levi basis (e+f, e-f, h+e), in which no levi basis
    element acts diagonally, and the path of its algebra file."""
    g = catalog.schrodinger(2)
    basis = [[1, 1, 0], [1, -1, 0], [1, 0, 1]]
    basis = [row + [0] * 5 for row in basis] + [
        [0] * 3 + [int(i == j) for j in range(5)] for i in range(5)]

    def coords(v):
        # v = a e + b f + c h + ... in the new basis
        a, b, c = v[:3]
        return [(a + b - c) / 2, (a - b - c) / 2, c, *v[3:]]

    structure = {}
    for i, j in combinations(range(g.dim), 2):
        comps = {k: x for k, x in enumerate(coords(dense_bracket(g, basis[i], basis[j])))
                 if x}
        if comps:
            structure[i, j] = comps
    skew = LieAlgebra(["e+f", "e-f", "h+e", *g.labels[3:]], structure, name="sch_2-skew")
    assert skew.validate() is None
    path = tmp_path / "skew.json"
    path.write_text(catalog.serialize(skew), encoding="utf-8")
    return skew, path


def test_levi_without_a_diagonal_element(capsys, tmp_path):
    # no levi basis element acts diagonally, so every levi weight is 0 and
    # nothing is dropped
    g = catalog.schrodinger(2)
    skew, path = _skew_sch2(tmp_path)
    for algebra, x in ((skew, None), (g, 2)):
        setup = InvariantSetup(algebra, (0, 1, 2), range(3, 8), adjoint_rep(algebra))
        assert _levi_grading(setup)[0] == x
    for coeff in ("trivial", "adjoint"):
        for p in range(4):
            code, data, _ = run_json(
                capsys, "invariant-cohomology", "--ambient", f"file:{path}",
                "--levi", "indices:0,1,2", "--radical", "indices:3,4,5,6,7",
                "--coeff", coeff, "--degree", str(p))
            assert code == 0
            _, ref, _ = run_json(capsys, "invariant-cohomology", "--ambient", "schrodinger:2",
                                 "--coeff", coeff, "--degree", str(p))
            assert data["payload"] == ref["payload"], (coeff, p)


def test_hs_check_off_sl2_triples(capsys, tmp_path):
    # levi parts that are not sl2 triples keep invariant_cohomology in the
    # factorized sum: sch_2 on a levi basis without a diagonal element gives
    # the values of its canonical split, and a solvable triple (x, a, b),
    # [x, a] = a, [x, b] = -b, [x, u] = -u, gives its own, where the sl2
    # character formulas would give dim Inv^1 = -1 with trivial coefficients
    skew, path = _skew_sch2(tmp_path)
    solvable = LieAlgebra(["x", "a", "b", "u"],
                          {(0, 1): {1: 1}, (0, 2): {2: -1}, (0, 3): {3: -1}})
    assert solvable.validate() is None
    solvable_path = tmp_path / "solvable.json"
    solvable_path.write_text(catalog.serialize(solvable), encoding="utf-8")
    for algebra, radical in ((skew, range(3, 8)), (solvable, (3,))):
        for module in (trivial_rep(algebra, 1), adjoint_rep(algebra)):
            setup = InvariantSetup(algebra, (0, 1, 2), radical, module)
            assert invariants.character_dims(setup, 1, SparseMatrix.rank) is None
    # (direct, factorized, agree) in degrees 0..4
    solvable_expected = {
        "trivial": [(1, 1, True), (1, 1, True), (2, 1, False), (2, 1, False), (0, 0, True)],
        "adjoint": [(0, 0, True), (4, 1, False), (4, 1, False), (0, 1, False), (0, 1, False)],
    }
    for coeff in ("trivial", "adjoint"):
        for p in range(5):
            code, data, _ = run_json(
                capsys, "hs-check", "--ambient", f"file:{path}", "--levi", "indices:0,1,2",
                "--radical", "indices:3,4,5,6,7", "--coeff", coeff, "--degree", str(p))
            _, ref, _ = run_json(capsys, "hs-check", "--ambient", "schrodinger:2",
                                 "--coeff", coeff, "--degree", str(p))
            assert code == 0 and data["payload"] == ref["payload"], (coeff, p)
            code, data, _ = run_json(
                capsys, "hs-check", "--ambient", f"file:{solvable_path}", "--levi",
                "indices:0,1,2", "--radical", "indices:3", "--coeff", coeff,
                "--degree", str(p))
            got = tuple(data["payload"][k] for k in ("direct", "factorized", "agree"))
            assert code == 0 and got == solvable_expected[coeff][p], (coeff, p)


def test_permuted_invariant_outputs_pinned(capsys, tmp_path):
    # the permuted sch_4 of the benchmark's adjoint-reps workload at seed 1,
    # its split given by indices: every payload with representatives, byte
    # for byte
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path, data = workloads._write_algebra(tmp_path, 4, 1, "adjoint-reps")
    perm = workloads.basis_permutation(12, 1, "adjoint-reps:4")
    levi, radical = sorted(perm[:3]), sorted(perm[3:])
    g = LieAlgebra.from_json_dict(data)
    assert _levi_grading(InvariantSetup(g, levi, radical, adjoint_rep(g)))[0] == perm[2]
    outputs = []
    for coeff in ("trivial", "adjoint"):
        for p in range(4):
            outputs.append(run_json(
                capsys, "invariant-cohomology", "--ambient", path,
                "--levi", "indices:" + ",".join(map(str, levi)),
                "--radical", "indices:" + ",".join(map(str, radical)),
                "--coeff", coeff, "--degree", str(p), "--representatives")[:2])
    outputs = [[code, data["payload"]] for code, data in outputs]
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    assert digest == "daff44fa54fbc1ffcea1a7ca3c0e97b4822a99b6b5243ded04821773bbe441b0"


def test_cli_imports_only_what_runs():
    # dataclasses (with inspect, ast, dis, tokenize), typing and random cost
    # set-up time and resident memory in every process that imports the CLI;
    # -S keeps site's own imports out of the check
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("dataclasses", "typing", "inspect", "random")
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import liecohom.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"],
        env={"PYTHONPATH": str(src)}, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_selftest(capsys):
    code, data, _ = run_json(
        capsys,
        "selftest",
        "--seed",
        "3",
        "--rank-trials",
        "10",
        "--extension-trials",
        "12",
    )
    assert code == 0
    payload = data["payload"]
    assert payload["ok"] is True
    assert payload["rank_failures"] == 0
    assert payload["extension_failures"] == 0
    assert payload["weight_zero_failures"] == 0


def test_selftest_catches_a_wrong_acyclic_count(capsys, monkeypatch):
    acyclic_rank = cochain._acyclic_rank
    monkeypatch.setattr(cochain, "_acyclic_rank",
                        lambda *args: acyclic_rank(*args) + 1)
    code, data, _ = run_json(capsys, "selftest", "--rank-trials", "0",
                             "--extension-trials", "0")
    assert code == 3
    assert data["payload"]["ok"] is False
    assert data["payload"]["weight_zero_failures"] > 0


def test_adjoint_reps_pinned(capsys):
    # sha256 of the representatives of H^3(sch_4, sch_4), as the benchmark's
    # adjoint-reps workload pins them at seed 0 (the identity basis)
    code, data, _ = run_json(capsys, "cohomology", "schrodinger:4", "--coeff",
                             "adjoint", "--degree", "3", "--representatives")
    assert code == 0
    reps = json.dumps(data["payload"]["representatives"])
    assert hashlib.sha256(reps.encode()).hexdigest() == (
        "c60232e33ab65838f1bc3d50827b1aff8c59c297df91504e46a1f87a5c5ddb99")


def test_only_dimensions_come_from_weight_zero_blocks(capsys, monkeypatch):
    g = catalog.schrodinger(4)
    adj = adjoint_rep(g)
    assert cohomology(g, adj, 3).dim_cohomology == 49
    assert 3 not in adj._dcache and 2 not in adj._dcache
    # each cohomology call of the CLI: were d_p and d_{p-1} built before it?
    full = []
    real = cli.cohomology

    def spy(g, M, p):
        full.append(all(k in M._dcache for k in range(max(p - 1, 0), p + 1)))
        return real(g, M, p)

    monkeypatch.setattr(cli, "cohomology", spy)
    for argv, expected in (
        # the H rows evaluate their oracle first: one elimination per matrix,
        # and a wrong sparse rank of d_p still shows against the oracle
        (("verify-paper", "--n-max", "2"), [True] * 9),
        (("cohomology", "schrodinger:2", "--coeff", "adjoint", "--degree", "2",
          "--representatives"), [True]),
        (("extend", "schrodinger:2"), [True]),
        (("cohomology", "schrodinger:2", "--coeff", "adjoint", "--degree", "2"),
         [False]),
    ):
        full.clear()
        code, _, _ = run_json(capsys, *argv)
        assert code == 0 and full == expected, argv
