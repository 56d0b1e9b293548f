"""End-to-end checks of the command-line frontend, run in process."""

import json
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from cfpow import cli, search
from cfpow.cfrac import expand, period_matrix_trace
from cfpow.quadfield import make_quadnum

GOLDEN = ["--alpha", "1,1,2,5"]
ROOT2 = ["--alpha", "0,1,1,2"]
MIXED = ["--alpha", "6,-1,17,2"]  # (6 - sqrt(2))/17 = [0; 3, 1, 2, 2, ...]

SCHEMAS = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in (resources.files("cfpow") / "schemas").iterdir()
    if path.name.endswith(".json")
}


def run(capsys, argv):
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


def run_doc(capsys, argv, schema=None):
    rc, out = run(capsys, argv)
    lines = out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    if schema is not None:
        jsonschema.validate(doc, SCHEMAS[schema])
    return rc, doc


def test_schema_directory_is_complete():
    assert sorted(SCHEMAS) == [
        "bounds_report.schema.json",
        "cf_binet.schema.json",
        "cf_convergents.schema.json",
        "cf_expand.schema.json",
        "error.schema.json",
        "rep_ostrowski.schema.json",
        "rep_radix.schema.json",
        "rep_zeckendorf.schema.json",
        "search_solution.schema.json",
        "verify.schema.json",
    ]


def test_expand_golden(capsys):
    rc, doc = run_doc(capsys, GOLDEN + ["cf", "expand"], "cf_expand.schema.json")
    assert rc == 0
    assert doc == {"a0": 1, "period": [1], "preperiod": []}


def test_expand_root2(capsys):
    rc, doc = run_doc(capsys, ROOT2 + ["cf", "expand"], "cf_expand.schema.json")
    assert rc == 0
    assert doc == {"a0": 1, "period": [2], "preperiod": []}


def test_expand_preperiodic(capsys):
    rc, doc = run_doc(capsys, MIXED + ["cf", "expand"], "cf_expand.schema.json")
    assert rc == 0
    assert doc == {"a0": 0, "period": [2], "preperiod": [3, 1]}


def test_convergents_are_fibonacci_for_golden(capsys):
    rc, doc = run_doc(
        capsys, GOLDEN + ["cf", "convergents", "--n", "11"], "cf_convergents.schema.json"
    )
    assert rc == 0
    assert doc == {"q": ["1", "1", "2", "3", "5", "8", "13", "21", "34", "55", "89", "144"]}


def test_convergents_rejects_negative_n(capsys):
    rc, doc = run_doc(capsys, GOLDEN + ["cf", "convergents", "--n", "-1"], "error.schema.json")
    assert rc == 3
    assert doc["error"] == "invalid-input"


def test_binet_document(capsys):
    rc, doc = run_doc(capsys, ROOT2 + ["cf", "binet"], "cf_binet.schema.json")
    assert rc == 0
    assert sorted(doc) == sorted(
        ["t_alpha", "s", "r", "disc", "delta", "theta1", "theta2", "c1", "c2", "c3", "c4", "N0"]
    )
    assert doc["t_alpha"] == "2"
    assert doc["disc"] == "8"
    assert doc["delta"] == "2"
    assert doc["s"] == 1 and doc["r"] == 1 and doc["N0"] == 0
    # c1 = 1 + (3/4)*sqrt(2), recorded as exact quadratic coordinates
    assert doc["c1"] == [{"D": 2, "a_num": "1", "a_den": "1", "b_num": "3", "b_den": "4"}]


def test_ostrowski_digits(capsys):
    rc, doc = run_doc(
        capsys, MIXED + ["rep", "ostrowski", "--value", "6"], "rep_ostrowski.schema.json"
    )
    assert rc == 0
    assert doc == {"digits": [2, 0, 1]}


def test_zeckendorf_indices(capsys):
    rc, doc = run_doc(
        capsys, ["rep", "zeckendorf", "--value", "100"], "rep_zeckendorf.schema.json"
    )
    assert rc == 0
    assert doc == {"indices": [11, 6, 4]}


def test_zeckendorf_rejects_zero(capsys):
    rc, doc = run_doc(capsys, ["rep", "zeckendorf", "--value", "0"], "error.schema.json")
    assert rc == 3
    assert doc["error"] == "invalid-input"


def test_radix_digits(capsys):
    rc, doc = run_doc(
        capsys, ["rep", "radix", "--value", "2024", "--b", "10"], "rep_radix.schema.json"
    )
    assert rc == 0
    assert doc == {"base": 10, "digits": [2, 2, 4], "positions": [3, 1, 0]}


def test_bounds_y_report(capsys):
    rc, doc = run_doc(
        capsys, ROOT2 + ["bounds", "y", "--K", "2", "--y", "2"], "bounds_report.schema.json"
    )
    assert rc == 0
    assert doc["case"] == "main"
    assert sorted(doc["per_k"]) == ["1", "2"]
    integer_part = doc["n1_bound"].split(".")[0]
    assert len(integer_part) == 33
    assert integer_part.startswith("399303")
    assert doc["applicability"] == {"field_not_Q_sqrt5": True, "petho_preconditions_ok": True}


@pytest.mark.parametrize(
    "argv", [["cf", "binet"], ["bounds", "y", "--K", "2", "--y", "2"]], ids=["binet", "bounds-y"]
)
def test_field_too_large_to_factor_is_served(capsys, argv):
    """sqrt(1008017)/7: the growth root is built in Q(alpha), never factored."""
    rc, _ = run(capsys, ["--alpha", "0,1,7,1008017"] + argv)
    assert rc == 0


def test_bounds_ham_rejects_golden_field(capsys):
    rc, doc = run_doc(
        capsys, GOLDEN + ["bounds", "ham", "--K", "2", "--l", "2"], "error.schema.json"
    )
    assert rc == 2
    assert doc == {
        "error": "inapplicable",
        "detail": "Fibonacci-expansion pipeline needs the growth field to differ from Q(sqrt(5))",
    }


def test_rational_alpha_is_reported(capsys):
    rc, doc = run_doc(capsys, ["--alpha", "1,0,1,5", "cf", "expand"], "error.schema.json")
    assert rc == 3
    assert doc["error"] == "nonquadratic"


@pytest.mark.parametrize(
    "alpha",
    ["1,1,2", "a,b,c,d", "1,1,0,5", "1,1,2,0"],
)
def test_malformed_alpha(capsys, alpha):
    rc, doc = run_doc(capsys, ["--alpha", alpha, "cf", "expand"], "error.schema.json")
    assert rc == 3
    assert doc["error"] == "invalid-input"


def test_missing_alpha(capsys):
    rc, doc = run_doc(capsys, ["cf", "expand"], "error.schema.json")
    assert rc == 3
    assert doc["error"] == "invalid-input"


def test_search_emits_json_lines(capsys):
    rc, out = run(capsys, ROOT2 + ["search", "--K", "2", "--N-max", "8", "--a-max", "3"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    jsonschema.validate(doc, SCHEMAS["search_solution.schema.json"])
    assert doc == {"N": [1, 1], "a": 2, "value": "4", "y": "2"}


def test_search_zeckendorf_filter(capsys):
    base = GOLDEN + ["search", "--K", "2", "--N-max", "12", "--a-max", "3"]
    rc, out = run(capsys, base)
    assert rc == 0
    assert len(out.splitlines()) == 10
    rc, out = run(capsys, base + ["--filter-zeckendorf", "1"])
    assert rc == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 6
    # single Fibonacci summand: y in {2, 3}
    assert {doc["y"] for doc in docs} == {"2", "3"}


def test_search_filters_are_mutually_exclusive(capsys):
    rc, doc = run_doc(
        capsys,
        GOLDEN
        + [
            "search", "--K", "2", "--N-max", "8", "--a-max", "2",
            "--filter-zeckendorf", "1", "--filter-radix", "1,10",
        ],
        "error.schema.json",
    )
    assert rc == 3
    assert doc["error"] == "invalid-input"


def test_search_radix_filter_parse_error(capsys):
    rc, doc = run_doc(
        capsys,
        GOLDEN + ["search", "--K", "2", "--N-max", "8", "--a-max", "2", "--filter-radix", "2"],
        "error.schema.json",
    )
    assert rc == 3
    assert doc["error"] == "invalid-input"


def test_verify_roundtrip(capsys, tmp_path):
    rc, sols = run(capsys, ROOT2 + ["search", "--K", "2", "--N-max", "8", "--a-max", "3"])
    assert rc == 0
    rc, report = run(capsys, ROOT2 + ["bounds", "y", "--K", "2", "--y", "2"])
    assert rc == 0
    sols_path = tmp_path / "solutions.jsonl"
    report_path = tmp_path / "report.json"
    sols_path.write_text(sols, encoding="utf-8")
    report_path.write_text(report, encoding="utf-8")
    rc, doc = run_doc(
        capsys,
        ROOT2 + ["verify", "--solutions", str(sols_path), "--report", str(report_path)],
        "verify.schema.json",
    )
    assert rc == 0
    assert doc == {"checked": 1, "verified": True}


def test_verify_rejects_malformed_inputs(capsys, tmp_path):
    good_sols = tmp_path / "solutions.jsonl"
    good_sols.write_text('{"y":"2","a":2,"N":[1,1],"value":"4"}\n', encoding="utf-8")
    bad_report = tmp_path / "report.json"
    bad_report.write_text('{"n1_bound":"10"}', encoding="utf-8")
    rc, doc = run_doc(
        capsys,
        ROOT2 + ["verify", "--solutions", str(good_sols), "--report", str(bad_report)],
        "error.schema.json",
    )
    assert rc == 3 and doc["error"] == "invalid-input"

    bad_sols = tmp_path / "junk.jsonl"
    bad_sols.write_text("not json\n", encoding="utf-8")
    good_report = tmp_path / "ok.json"
    rc, report = run(capsys, ROOT2 + ["bounds", "y", "--K", "2", "--y", "2"])
    good_report.write_text(report, encoding="utf-8")
    rc, doc = run_doc(
        capsys,
        ROOT2 + ["verify", "--solutions", str(bad_sols), "--report", str(good_report)],
        "error.schema.json",
    )
    assert rc == 3 and doc["error"] == "invalid-input"


def test_precision_flag_and_env_agree(capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_PRECISION, raising=False)
    _, default = run(capsys, ROOT2 + ["cf", "binet"])
    _, via_flag = run(capsys, ROOT2 + ["--precision-bits", "64", "cf", "binet"])
    monkeypatch.setenv(cli.ENV_PRECISION, "64")
    _, via_env = run(capsys, ROOT2 + ["cf", "binet"])
    assert via_flag == via_env
    assert via_flag != default  # enclosures actually follow the requested width


def test_precision_rejects_bad_values(capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_PRECISION, raising=False)
    rc, doc = run_doc(capsys, ROOT2 + ["--precision-bits", "16", "cf", "binet"], "error.schema.json")
    assert rc == 3 and doc["error"] == "invalid-input"
    monkeypatch.setenv(cli.ENV_PRECISION, "hello")
    rc, doc = run_doc(capsys, ROOT2 + ["cf", "binet"], "error.schema.json")
    assert rc == 3 and doc["error"] == "invalid-input"


def test_output_is_byte_deterministic(capsys):
    argvs = [
        ROOT2 + ["cf", "binet"],
        ROOT2 + ["bounds", "y", "--K", "2", "--y", "2"],
        GOLDEN + ["search", "--K", "2", "--N-max", "12", "--a-max", "3"],
    ]
    for argv in argvs:
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "cfpow.cli", "--alpha", "1,1,2,5", "cf", "expand"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"a0": 1, "period": [1], "preperiod": []}


def test_report_over_the_int_str_digit_cap_prints_and_verifies(capsys, tmp_path):
    # the K=4, l=5 walk bound has endpoints of over 6000 decimal digits,
    # beyond the interpreter's default int <-> str conversion cap
    rc, report = run(capsys, ROOT2 + ["bounds", "ham", "--K", "4", "--l", "5"])
    assert rc == 0
    lines = report.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    jsonschema.validate(doc, SCHEMAS["bounds_report.schema.json"])
    assert len(doc["n1_bound"]) > 4300
    rc, sols = run(capsys, ROOT2 + ["search", "--K", "4", "--N-max", "10", "--a-max", "6", "--threads", "1"])
    assert rc == 0 and sols
    sols_path = tmp_path / "solutions.jsonl"
    report_path = tmp_path / "report.json"
    sols_path.write_text(sols, encoding="utf-8")
    report_path.write_text(report, encoding="utf-8")
    rc, doc = run_doc(
        capsys,
        ROOT2 + ["verify", "--solutions", str(sols_path), "--report", str(report_path)],
        "verify.schema.json",
    )
    assert rc == 0
    assert doc == {"checked": len(sols.splitlines()), "verified": True}


def test_search_runs_serially_by_default(capsys, monkeypatch):
    argv = ROOT2 + ["search", "--K", "3", "--N-max", "14", "--a-max", "4"]
    rc, pooled = run(capsys, argv + ["--threads", "2"])
    assert rc == 0 and pooled

    def no_pool(*args, **kwargs):
        raise AssertionError("the default search must not start a process pool")

    monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
    rc, serial = run(capsys, argv)
    assert rc == 0
    assert serial == pooled


def _verify_with_report(capsys, tmp_path, doc):
    sols_path = tmp_path / "solutions.jsonl"
    sols_path.write_text('{"y":"2","a":2,"N":[1,1],"value":"4"}\n', encoding="utf-8")
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ROOT2 + ["verify", "--solutions", str(sols_path), "--report", str(report_path)]
    return run_doc(capsys, argv, "error.schema.json")


@pytest.mark.parametrize(
    "change",
    [
        {"case": "maybe"},
        {"ledger": {"c10": {"lo": "7", "hi": "7"}}},
        {"ledger": {"C12": {"lo": "0.5", "hi": "0.5"}}},
    ],
    ids=["unknown-case", "c10-floor", "C12-floor"],
)
def test_verify_rejects_reports_no_pipeline_can_produce(capsys, tmp_path, change):
    rc, report = run(capsys, ROOT2 + ["bounds", "y", "--K", "2", "--y", "2"])
    assert rc == 0
    doc = json.loads(report)
    for key, value in change.items():
        doc[key] = dict(doc[key], **value) if isinstance(value, dict) else value
    rc, err = _verify_with_report(capsys, tmp_path, doc)
    assert rc == 3 and err["error"] == "invalid-input"


@pytest.mark.parametrize(
    "solution",
    [
        '{"y":"2","a":2,"N":[0],"value":"4"}',
        '{"y":"2","a":2,"N":[1,1],"value":"4"}',
        '{"y":"2","a":2,"N":[1.5,1],"value":"4"}',
    ],
    ids=["wrong-sum", "more-than-K", "float-index"],
)
def test_verify_rejects_what_is_not_a_solution(capsys, tmp_path, solution):
    rc, report = run(capsys, ROOT2 + ["bounds", "y", "--K", "1", "--y", "2"])
    assert rc == 0
    sols_path = tmp_path / "solutions.jsonl"
    sols_path.write_text(solution + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    report_path.write_text(report, encoding="utf-8")
    argv = ROOT2 + ["verify", "--solutions", str(sols_path), "--report", str(report_path)]
    rc, doc = run_doc(capsys, argv, "error.schema.json")
    assert rc == 3 and doc["error"] == "invalid-input"


@pytest.mark.parametrize("flag", [["--threads", "0"], ["--budget", "-1"]], ids=["threads-0", "budget-negative"])
def test_search_rejects_bad_threads_and_budget(capsys, flag):
    argv = ROOT2 + ["search", "--K", "2", "--N-max", "8", "--a-max", "3"] + flag
    rc, doc = run_doc(capsys, argv, "error.schema.json")
    assert rc == 3 and doc["error"] == "invalid-input"


def _int(text):
    return int(Decimal(text))  # int(str) is capped at 4300 digits


def test_cf_binet_prints_past_the_int_str_digit_cap(capsys):
    # (3 + 2 sqrt(981451))/5 has period 4424 and a 4512-digit disc
    rc, doc = run_doc(capsys, ["--alpha", "3,2,5,981451", "cf", "binet"], "cf_binet.schema.json")
    assert rc == 0
    t = period_matrix_trace(expand(make_quadnum(Fraction(3, 5), Fraction(2, 5), 981451)))
    assert doc["s"] == 4424 and len(doc["disc"]) > 4300
    assert _int(doc["t_alpha"]) == t and _int(doc["disc"]) == t * t - 4


def test_cf_convergents_print_past_the_int_str_digit_cap(capsys):
    # sqrt(1000001) = [1000; 2000, 2000, ...]: q_1400 has over 4600 digits
    argv = ["--alpha", "0,1,1,1000001", "cf", "convergents", "--n", "1400"]
    rc, doc = run_doc(capsys, argv, "cf_convergents.schema.json")
    assert rc == 0
    assert len(doc["q"][-1]) > 4300
    assert [_int(q) for q in doc["q"]] == expand(make_quadnum(0, 1, 1000001)).denominators(1400)


@pytest.mark.parametrize(
    "solution",
    [
        '{"y":2.9,"a":2,"N":[1,1],"value":"4"}',
        '{"y":"2","a":2.7,"N":[1,1],"value":"4"}',
        '{"y":true,"a":2,"N":[1,1],"value":"4"}',
        '{"y":"2","a":"2.0","N":[1,1],"value":"4"}',
        '{"y":"2","a":2,"N":[1,1],"value":4.0}',
        '{"y":"2","a":2,"N":[1,1],"value":"0x4"}',
        '{"y":"3","a":1000000000,"N":[1,1],"value":"4"}',
    ],
    ids=["float-y", "float-a", "bool-y", "decimal-string-a", "float-value", "hex-string-value", "huge-exponent"],
)
def test_verify_rejects_fields_that_are_not_integers(capsys, tmp_path, solution):
    """Checked against a K = 2 report that {"y":2,"a":2,"N":[1,1],"value":4} satisfies;
    a huge exponent is refused before y**a is computed."""
    rc, report = run(capsys, ROOT2 + ["bounds", "y", "--K", "2", "--y", "2"])
    assert rc == 0
    sols_path = tmp_path / "solutions.jsonl"
    sols_path.write_text(solution + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    report_path.write_text(report, encoding="utf-8")
    argv = ROOT2 + ["verify", "--solutions", str(sols_path), "--report", str(report_path)]
    start = time.perf_counter()
    rc, doc = run_doc(capsys, argv, "error.schema.json")
    assert time.perf_counter() - start < 1.0
    assert rc == 3 and doc["error"] == "invalid-input"
