import json
import os
import subprocess
import sys
import time

import pytest

from pgroups import cli, errors, fileformat
from pgroups.cli import main
from pgroups.errors import FormatError
from pgroups.fileformat import (
    canonical_json,
    catalog_document,
    load_document,
    load_path,
    loads,
)
from pgroups.verify import SUITES

HEISENBERG_DOC = {
    "format": "pgroup-v1",
    "prime": 3,
    "kind": "pc",
    "ngens": 3,
    "powers": {},
    "conjugates": {"2,1": [[2, 1], [3, 1]]},
}


# -- document parsing ----------------------------------------------------------


def test_load_pc_document():
    (G,) = load_document(HEISENBERG_DOC)
    assert G.order == 27 and G.exponent() == 3


def test_omitted_relations_default():
    doc = {"format": "pgroup-v1", "prime": 3, "kind": "pc", "ngens": 2}
    (G,) = load_document(doc)
    assert G.order == 9 and G.is_abelian()


def test_load_abelian_and_unitriangular():
    (A,) = load_document(
        {"format": "pgroup-v1", "prime": 3, "kind": "abelian", "exps": [2, 2]}
    )
    assert A.order == 81
    (U,) = load_document(
        {"format": "pgroup-v1", "prime": 3, "kind": "unitriangular", "n": 3, "m": 1}
    )
    assert U.order == 27


def test_load_semidirect():
    doc = {
        "format": "pgroup-v1",
        "prime": 3,
        "kind": "semidirect",
        "m": {"exps": [1, 1, 1]},
        "alpha": [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        "t": 2,
    }
    (G,) = load_document(doc)
    assert G.order == 3**5  # the powerful-class-p example group


def test_load_catalog_kind():
    doc = {
        "format": "pgroup-v1",
        "prime": 3,
        "kind": "catalog",
        "name": "heisenberg",
        "params": {"p": 3},
    }
    (G,) = load_document(doc)
    assert G.order == 27
    multi = load_document(
        {"format": "pgroup-v1", "prime": 3, "kind": "catalog", "name": "order27_all", "params": {}}
    )
    assert len(multi) == 5


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(format="pgroup-v2"),
        lambda d: d.update(kind="permutation"),
        lambda d: d.update(extra=1),
        lambda d: d.pop("prime"),
        lambda d: d.update(prime="three"),
        lambda d: d.update(conjugates={"21": [[2, 1]]}),
        lambda d: d.update(conjugates={"2,1": [[2, 1, 7]]}),
    ],
)
def test_malformed_documents_rejected(mutate):
    doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in HEISENBERG_DOC.items()}
    mutate(doc)
    with pytest.raises(FormatError):
        load_document(doc)


PC_HEAD = '"format": "pgroup-v1", "prime": 3, "kind": "pc", "ngens": 2'


@pytest.mark.parametrize(
    "relations",
    [
        '"powers": {"1": [[2, 1]], "01": []}',
        '"powers": {"01": [], "1": [[2, 1]]}',
        '"powers": {" 1": [[2, 1]]}',
        '"powers": {"+1": [[2, 1]]}',
        '"powers": {"0_1": [[2, 1]]}',
        '"powers": {"1_0": []}',
        '"powers": {"1": [[2, 1]], "1": []}',
        '"conjugates": {"2,1": [[2, 1]], "2, 1": [[2, 1]]}',
        '"conjugates": {"2,01": [[2, 1]]}',
        '"powers": {}, "prime": 5',
    ],
    ids=["zero-padded-last", "zero-padded-first", "space", "plus", "underscore",
         "underscore-range", "repeated-key", "conjugate-space", "conjugate-zero-padded",
         "repeated-field"],
)
def test_ambiguous_relation_keys_are_malformed_input(relations, tmp_path, capsys):
    # each document spells one key twice, or a key that int() reads but
    # that is not its canonical spelling, so what it means would depend on
    # the keys' order or on int()'s leniency
    path = tmp_path / "pc.json"
    path.write_text("{" + PC_HEAD + ", " + relations + "}")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_loads_rejects_bad_json():
    with pytest.raises(FormatError):
        loads("{not json")
    with pytest.raises(FormatError):
        loads('["not", "an", "object"]')


def test_catalog_document_roundtrip(tmp_path):
    doc = catalog_document("mann_nonpf", {"p": 3})
    path = tmp_path / "g.json"
    path.write_text(canonical_json(doc))
    (G,) = load_path(str(path))
    assert G.order == 3**5


def test_prime_mismatch_rejected():
    doc = {
        "format": "pgroup-v1",
        "prime": 5,
        "kind": "catalog",
        "name": "heisenberg",
        "params": {"p": 3},
    }
    with pytest.raises(FormatError):
        load_document(doc)


def test_catalog_name_as_a_param_is_malformed_input(tmp_path, capsys):
    path = tmp_path / "name_param.json"
    path.write_text(json.dumps({"format": "pgroup-v1", "prime": 3, "kind": "catalog",
                                "name": "abelian", "params": {"exps": [1], "name": 1}}))
    assert main(["analyze", str(path)]) == 2
    assert "does not take parameters" in capsys.readouterr().err


def test_internal_type_error_is_not_malformed_input(monkeypatch):
    # a bug in a builder surfaces as itself, never as a FormatError
    def broken(*args, **kwargs):
        raise TypeError("bug in a builder")

    monkeypatch.setattr(fileformat, "build_abelian", broken)
    with pytest.raises(TypeError, match="bug in a builder"):
        load_document({"format": "pgroup-v1", "prime": 3, "kind": "abelian", "exps": [1]})


# -- CLI -----------------------------------------------------------------------


def test_cli_analyze_catalog_json(capsys):
    assert main(["analyze", "--catalog", "heisenberg", "--prime", "3", "--json"]) == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["powerful_class"] == 2
    assert rep["eta_series_orders"] == [[3, 0], [3, 1], [3, 3]]
    assert rep["pf"]["status"] is True
    # canonical round trip is byte-identical
    assert canonical_json(rep) == out


def test_cli_analyze_mann(capsys):
    assert main(["analyze", "--catalog", "mann_nonpf", "--prime", "3", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["powerful_class"] == 3
    assert rep["pf"]["status"] is False
    assert rep["power_surjective"]["1"] is False


def test_cli_analyze_text_output(capsys):
    assert main(["analyze", "--catalog", "modular", "--prime", "3"]) == 0
    out = capsys.readouterr().out
    assert "powerful class  1" in out
    assert "(powerful)" in out


def test_cli_analyze_skip_section(capsys):
    assert main(["analyze", "--catalog", "heisenberg", "--skip", "pf", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pf"] is None


def test_cli_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{broken")
    assert main(["analyze", str(bad)]) == 2
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    assert main(["analyze", "--catalog", "nope"]) == 2
    assert main(["analyze"]) == 2
    strparam = tmp_path / "strparam.json"
    strparam.write_text(json.dumps({"format": "pgroup-v1", "prime": 3, "kind": "catalog",
                                    "name": "mainline_coclass1", "params": {"k": "3"}}))
    assert main(["analyze", str(strparam)]) == 2
    for params in ["xy", ["pk"]]:
        notdict = tmp_path / "notdict.json"
        notdict.write_text(json.dumps({"format": "pgroup-v1", "prime": 3, "kind": "catalog",
                                       "name": "heisenberg", "params": params}))
        capsys.readouterr()
        assert main(["analyze", str(notdict)]) == 2
        assert "params must be an object" in capsys.readouterr().err
    zero_exp = tmp_path / "zero_exp.json"
    zero_exp.write_text(json.dumps({"format": "pgroup-v1", "prime": 3, "kind": "abelian",
                                    "exps": [0]}))
    assert main(["analyze", str(zero_exp)]) == 2
    small_n = tmp_path / "small_n.json"
    small_n.write_text(json.dumps({"format": "pgroup-v1", "prime": 3, "kind": "unitriangular",
                                   "n": 1, "m": 1}))
    assert main(["analyze", str(small_n)]) == 2
    assert main(["analyze", "--catalog", "unitriangular", "--param", "n=abc"]) == 2
    self_ref = tmp_path / "self_ref.json"
    self_ref.write_text(json.dumps({"format": "pgroup-v1", "prime": 3, "kind": "pc", "ngens": 2,
                                    "powers": {"1": [[1, 1]]}, "conjugates": {}}))
    assert main(["analyze", str(self_ref)]) == 2
    inconsistent = tmp_path / "inconsistent.json"
    inconsistent.write_text(json.dumps({"format": "pgroup-v1", "prime": 3, "kind": "pc", "ngens": 2,
                                        "powers": {"1": [[2, 1]]}, "conjugates": {"2,1": [[2, 2]]}}))
    assert main(["analyze", str(inconsistent)]) == 2
    assert "overlap" in capsys.readouterr().err
    for alpha, why in [([[1, 0], [1, 0]], "not bijective"), ([[2, 0], [0, 1]], "not the identity")]:
        semidirect = tmp_path / "semidirect.json"
        semidirect.write_text(json.dumps({"format": "pgroup-v1", "prime": 3, "kind": "semidirect",
                                          "m": {"exps": [1, 1]}, "alpha": alpha, "t": 1}))
        assert main(["analyze", str(semidirect)]) == 2
        assert why in capsys.readouterr().err


# CLI exit code of every library error: 2 malformed input, 3 budget, 1 otherwise.
EXIT_CODES = {
    "PGroupError": 1,
    "NotOddPrime": 2,
    "InvalidWord": 2,
    "InconsistentPresentation": 2,
    "SizeLimitExceeded": 1,
    "NotAutomorphism": 1,
    "OrderMismatch": 1,
    "NotAbelian": 1,
    "NotNormal": 1,
    "BudgetExceeded": 3,
    "UnknownName": 2,
    "ParamOutOfRange": 2,
    "FormatError": 2,
    "NotAnEtaSeries": 1,
    "InvariantViolation": 1,
    "NoValidS": 1,
    "ValidationFailed": 1,
    "TheoremViolated": 1,
}


def test_cli_exit_code_of_every_error_class(monkeypatch, capsys):
    classes = {
        name: obj
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.PGroupError)
    }
    assert sorted(classes) == sorted(EXIT_CODES), "classify every new error class here"
    for name, cls in classes.items():
        def fail(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "_load_groups", fail)
        assert main(["analyze", "--catalog", "heisenberg"]) == EXIT_CODES[name], name


# each passes every other input check; its order p^e exceeds the element cap
_OVER_CAP = {
    "abelian-exps": {"kind": "abelian", "exps": [100_000_000]},
    "semidirect-t": {"kind": "semidirect", "m": {"exps": [1]}, "alpha": [[1]], "t": 100_000_000},
    "pc-ngens": {"kind": "pc", "ngens": 100_000_000},
    "unitriangular-n": {"kind": "unitriangular", "n": 100_000, "m": 1},
    "mainline-k": ["--catalog", "mainline_coclass1", "--param", "k=100000000"],
    "unitriangular-m": ["--catalog", "unitriangular", "--param", "n=3", "--param", "m=100000000"],
    "heisenberg-p": ["--catalog", "heisenberg", "--prime", "1000000000000000003"],
    "mann-p": ["--catalog", "mann_nonpf", "--prime", "10007"],
}


@pytest.mark.parametrize("source", list(_OVER_CAP.values()), ids=list(_OVER_CAP))
def test_cli_rejects_an_order_over_the_cap_before_building(source, tmp_path, capsys):
    # the order is checked from p and e, so a huge p^e is never computed
    # and nothing is built
    if isinstance(source, dict):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"format": "pgroup-v1", "prime": 3, **source}))
        source = [str(path)]
    start = time.perf_counter()
    code = main(["analyze", *source])
    elapsed = time.perf_counter() - start
    assert code == EXIT_CODES["SizeLimitExceeded"]
    assert "SizeLimitExceeded" in capsys.readouterr().err
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "source, named",
    [
        (_OVER_CAP["mainline-k"], "mainline_coclass1|k=100000000|p=3 would have order 3^100000001"),
        (_OVER_CAP["mann-p"], "mann_nonpf|p=10007 would have order 10007^10009"),
    ],
    ids=["mainline-k", "mann-p"],
)
def test_cli_size_error_names_the_requested_group(source, named, capsys):
    # the cap is checked on the requested instance before its builder runs,
    # so the message gives its order, not that of a group built on the way
    assert main(["analyze", *source]) == EXIT_CODES["SizeLimitExceeded"]
    assert named in capsys.readouterr().err


# every command that enumerates a lattice enumerates the input group first,
# within --budget, so exceeding it is exit 3 and never a FAIL line
_C9 = ["--catalog", "abelian", "--prime", "3", "--param", "exps=1,1"]


@pytest.mark.parametrize(
    "argv",
    [["analyze", *_C9], ["series", *_C9, "--type", "eta"]]
    + [["verify", suite, "--max-order", "27"] for suite in SUITES],
    ids=["analyze", "series-eta"] + [f"verify-{suite}" for suite in SUITES],
)
def test_cli_analyze_budget_exceeded(argv, capsys):
    assert main(argv + ["--budget", "2"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", *_C9, "--max-order", "27"],
        ["catalog", "list", "--budget", "3"],
        ["catalog", "get", "heisenberg", "--seed", "5"],
        ["verify", "omega", "--extended", "--max-order", "27"],
    ],
    ids=[
        "analyze-max-order",
        "catalog-list-budget",
        "catalog-get-seed",
        "verify-extended-max-order",
    ],
)
def test_cli_rejects_flags_a_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--catalog", "heisenberg", "--budget", "0"],
        ["analyze", "--catalog", "heisenberg", "--budget", "-5"],
        ["verify", "omega", "--max-order", "-1"],
        ["verify", "omega", "--max-order", "0"],
    ],
    ids=["budget-0", "budget-negative", "max-order-negative", "max-order-0"],
)
def test_cli_rejects_non_positive_limits(argv, capsys):
    # out of range is malformed input (exit 2), never exit 3 or "0/0 passed"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_cli_analyze_scalar_int_list_param(capsys):
    # a scalar for a list parameter is a one-element list: C_27
    assert main(["analyze", "--catalog", "abelian", "--param", "exps=3", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["group"]["order"] == [3, 3]  # 3^3 = 27


def test_cli_series(capsys):
    assert main(["series", "--catalog", "heisenberg", "--prime", "3",
                 "--type", "lower-central", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [t["order"] for t in out["terms"]] == [[3, 3], [3, 1], [3, 0]]

    assert main(["series", "--catalog", "modular", "--prime", "3", "--type", "eta"]) == 0
    text = capsys.readouterr().out
    assert "term 0: order 3^0" in text
    assert "term 1: order 3^3" in text


def test_cli_series_eta_potent_nopwc(capsys):
    assert main(["series", "--catalog", "potent_nopwc", "--prime", "5",
                 "--type", "eta", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [t["order"] for t in out["terms"]] == [
        [5, 0], [5, 1], [5, 2], [5, 3], [5, 5]
    ]


@pytest.mark.parametrize("kind", ["eta", "upper-central", "lower-central"])
def test_cli_series_witnesses_generate_their_terms(kind, groups, tmp_path, capsys):
    from pgroups import catalog as cat
    from pgroups.eta_series import upper_eta_series
    from pgroups.subgroups import closure, lower_central_series, upper_central_series

    for name, params in cat.suite_instances(729):
        path = tmp_path / "g.json"
        path.write_text(canonical_json(catalog_document(name, dict(params))))
        assert main(["series", str(path), "--type", kind, "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)["terms"]
        G = groups(name, **params)
        if kind == "eta":
            terms = upper_eta_series(G).series.terms
        elif kind == "upper-central":
            terms = upper_central_series(G).terms
        else:
            terms = lower_central_series(G).terms
        assert len(printed) == len(terms)
        for entry, term in zip(printed, terms):
            assert closure(G, entry["witnesses"]).bits == term.bits, name


def test_cli_analyze_family_emits_report_per_group(capsys):
    assert main(["analyze", "--catalog", "order27_all", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert isinstance(reports, list) and len(reports) == 5
    assert sorted(r["exponent"][1] for r in reports) == [1, 1, 2, 2, 3]


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "heisenberg" in out and "mainline_coclass1" in out


def test_cli_catalog_get_roundtrip(tmp_path, capsys):
    target = tmp_path / "w.json"
    assert main(["catalog", "get", "wreath", "--prime", "3", "-o", str(target)]) == 0
    (G,) = load_path(str(target))
    assert G.order == 81
    assert main(["catalog", "get", "nope"]) == 2


def test_cli_catalog_get_with_params(tmp_path):
    target = tmp_path / "a.json"
    assert main(
        ["catalog", "get", "abelian", "--prime", "3", "--param", "exps=2,1", "-o", str(target)]
    ) == 0
    (G,) = load_path(str(target))
    assert G.order == 27 and G.exponent() == 9
    assert main(["catalog", "get", "abelian", "--prime", "3", "--param", "exps"]) == 2


# analyze rejects each, so catalog get must refuse it too, with the same
# exit code and before it writes anything
_GET_REJECTED = {
    "heisenberg-p4": (["heisenberg", "--prime", "4"], "NotOddPrime"),
    "mainline-k0": (["mainline_coclass1", "--param", "k=0"], "ParamOutOfRange"),
    "potent-p3": (["potent_nopwc", "--prime", "3"], "ParamOutOfRange"),
    "order27-p5": (["order27_all", "--prime", "5"], "ParamOutOfRange"),
    "abelian-exps0": (["abelian", "--param", "exps=0"], "ParamOutOfRange"),
    "mainline-k-over-cap": (["mainline_coclass1", "--param", "k=100000000"], "SizeLimitExceeded"),
}


@pytest.mark.parametrize("args, error", list(_GET_REJECTED.values()), ids=list(_GET_REJECTED))
def test_cli_catalog_get_rejects_what_analyze_rejects(args, error, tmp_path, capsys):
    target = tmp_path / "g.json"
    assert main(["catalog", "get", *args, "-o", str(target)]) == EXIT_CODES[error]
    assert not target.exists()
    assert main(["analyze", "--catalog", *args]) == EXIT_CODES[error]
    if error == "SizeLimitExceeded":
        err = capsys.readouterr().err
        assert "SizeLimitExceeded" in err and "mainline_coclass1|k=100000000|p=3" in err


@pytest.mark.parametrize("command", [["analyze", "--json", "--catalog"], ["catalog", "get"]])
def test_cli_prime_must_agree_with_param_p(command, capsys):
    abelian = [*command, "abelian", "--param", "exps=1"]
    assert main([*abelian, "--prime", "3", "--param", "p=5"]) == 2
    assert "--prime 3 contradicts --param p=5" in capsys.readouterr().err
    assert main([*abelian, "--prime", "5", "--param", "p=5"]) == 0
    assert '"prime":5' in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, key",
    [
        (["analyze", "--catalog", "heisenberg", "--param", "p=3", "--param", "p=5"], "p"),
        (["analyze", "--catalog", "heisenberg", "--param", "p=3", "--param", "p=3"], "p"),
        (["catalog", "get", "abelian", "--prime", "3",
          "--param", "exps=1", "--param", "exps=2"], "exps"),
    ],
    ids=["analyze-p-differs", "analyze-p-agrees", "catalog-get-exps"],
)
def test_cli_repeated_param_key_is_malformed_input(argv, key, capsys):
    # a repeated key is refused whether or not its values agree, never
    # silently read as its last value
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"--param {key} given twice" in captured.err
    assert captured.out == ""


def test_cli_catalog_get_unwritable_output_is_malformed_input(tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "x.json"
    assert main(["catalog", "get", "heisenberg", "--prime", "3", "-o", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_main_does_not_rebuild_the_parser(monkeypatch, capsys):
    # the parser is built once, at import; main only parses
    def refuse():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["analyze", "--catalog", "heisenberg", "--prime", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["group"]["order"] == [3, 3]
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--catalog", "heisenberg", "--budget", "0"])
    assert exc.value.code == 2


def test_cli_repeated_in_process_calls_match_fresh_processes(tmp_path, capsys):
    # one parser serves every call: a call's exit code and stdout bytes are
    # those of a fresh process, whatever calls came before it in this one
    group = tmp_path / "h.json"
    group.write_text(canonical_json(catalog_document("heisenberg", {"p": 3})))
    sequence = [
        ["catalog", "get", "abelian", "--prime", "3", "--param", "exps=2,1"],
        ["catalog", "get", "heisenberg", "--prime", "3"],
        ["analyze", str(group), "--skip", "pf", "--json"],
        ["analyze", str(group), "--json"],
        ["analyze", str(group), "--budget", "0"],
        ["analyze", str(group), "--json"],
        ["series", str(group), "--type", "lower-central", "--json"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out.encode("utf-8")
        fresh = subprocess.run(
            [sys.executable, "-m", "pgroups.cli", *argv], env=env, capture_output=True
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


def test_cli_verify_small(capsys):
    code = main(["verify", "omega", "--max-order", "81", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["passed"] is True
    assert all(r["suite"] == "omega" for r in out["results"])
    assert any("Omega_i" in r["anchor"] for r in out["results"])


def test_cli_verify_text(capsys):
    code = main(["verify", "catalog-regression", "--max-order", "27"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_cli_verify_json_is_deterministic(capsys):
    assert main(["verify", "eta-lemmas", "--max-order", "27", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "eta-lemmas", "--max-order", "27", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["passed"] is True


def test_cli_verify_has_no_seed():
    # no property samples, so there is no seed to give
    with pytest.raises(SystemExit) as exc:
        main(["verify", "eta-lemmas", "--seed", "7"])
    assert exc.value.code == 2


def test_cli_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])


def test_analyze_trivial_group_has_integer_report():
    from pgroups import build_abelian, analyze_group, quotient, whole_subgroup

    C3 = build_abelian(3, [1])
    one, _ = quotient(C3, whole_subgroup(C3))
    rep = analyze_group(one)
    assert rep["group"]["order"] == [3, 0]
    assert rep["nilpotency_class"] == 0 and rep["coclass"] == 0
    assert rep["powerful_class"] == 0
    assert rep["omega"]["rows"] == []
    assert rep["uniserial"]["applicable"] is False
    text = canonical_json(rep)
    assert "." not in text.replace('"', "")  # integers only, no floats anywhere


@pytest.mark.parametrize(
    "name, params",
    [
        ("heisenberg", {"p": 3}),
        ("mann_nonpf", {"p": 3}),
        ("unitriangular", {"n": 3, "p": 3, "m": 2}),
    ],
)
def test_bare_copies_analyze_like_the_built_group(name, params):
    # a FiniteGroup built from a bare mul has no backend: its tables come
    # from products, and its report is the built group's byte for byte
    from pgroups import FiniteGroup, analyze_group
    from pgroups.catalog import catalog_build

    G = catalog_build(name, **params)
    bare = FiniteGroup(G.p, G.order, G.mul, G.generators, label=G.label)
    assert canonical_json(analyze_group(bare)) == canonical_json(analyze_group(G))


def test_canonical_json_round_trips_itself():
    doc = catalog_document("unitriangular", {"n": 3, "p": 3, "m": 2})
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text
