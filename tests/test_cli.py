import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from chaincomm import cli
from chaincomm.cli import main
from chaincomm.complexes import PointwiseWitness
from chaincomm.fields import PRIMALITY_BOUND, RATIONALS as Q

from helpers import mat


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SINGLE_DEGREE_TRACE_ONE = {
    "format_version": "1",
    "field": {"kind": "Q"},
    "lo": 0,
    "hi": 0,
    "dims": [1],
    "differentials": [],
    "endomorphism": [[["1"]]],
}


def test_analyze_fixture(capsys, tmp_path):
    import pathlib

    fixture = pathlib.Path(__file__).parent / "fixtures" / "f2_window.json"
    code, out, _ = run_cli(capsys, "analyze", str(fixture))
    assert code == 0
    payload = json.loads(out)
    assert payload["quasi_bounded"] is True
    # identity on 2-dimensional F_2 spaces is degreewise traceless, but the
    # window ends carry 1-dimensional cohomology where the trace is 1
    assert payload["conditions"] == {
        "theorem1": True,
        "theorem2": False,
        "theorem3": False,
        "theorem4": True,
    }
    assert payload["degree_traces"] == {"0": 0, "1": 0, "2": 0, "3": 0}
    assert payload["cohomology_traces"] == {"0": 1, "1": 0, "2": 0, "3": 1}
    assert payload["verdicts"]["theorem2"]["construction_available"] is True


def test_witness_trace_obstruction_exit_2(capsys, tmp_path):
    path = write_json(tmp_path, "inst.json", SINGLE_DEGREE_TRACE_ONE)
    code, out, _ = run_cli(capsys, "witness", path, "--theorem", "1")
    assert code == 2
    payload = json.loads(out)
    assert payload["obstruction"]["error"] == "TraceObstruction"
    assert payload["obstruction"]["degree"] == 0


def test_witness_stretch_obstruction_exit_2(capsys, tmp_path):
    doc = {
        "format_version": "1",
        "field": {"kind": "Q"},
        "lo": 0,
        "hi": 1,
        "dims": [1, 1],
        "differentials": [[["0"]]],
        "endomorphism": [[["1"]], [["1"]]],
    }
    path = write_json(tmp_path, "inst.json", doc)
    code, out, _ = run_cli(capsys, "witness", path, "--theorem", "4")
    assert code == 2
    assert json.loads(out)["obstruction"]["error"] == "StretchObstruction"


def test_witness_finite_field_limitation_exit_3(capsys, tmp_path):
    # theorem 2 over F_2: seed 0 has a block that only exhaustive search
    # factors, seed 1 exhausts Lemma A's shift scan, seed 2 builds
    outcomes = {0: "FieldTooSmall", 1: "SelectionExhausted", 2: None}
    for seed, limitation in outcomes.items():
        args = ("--seed", str(seed), "--field", "Fp:2", "--max-dim", "3", "--length", "3", "--ensure", "t2")
        code, document, _ = run_cli(capsys, "random", *args)
        assert code == 0
        path = tmp_path / f"seed{seed}.json"
        path.write_text(document, encoding="utf-8")
        code, out, _ = run_cli(capsys, "witness", str(path), "--theorem", "2")
        if limitation is not None:
            assert code == 3
            assert json.loads(out)["limitation"]["error"] == limitation
            continue
        assert code == 0
        path.write_text(out, encoding="utf-8")
        assert run_cli(capsys, "verify", str(path))[0] == 0


def _two_dim_document(endomorphism, witnesses=None):
    doc = {"format_version": "1", "field": {"kind": "Q"}, "lo": 0, "hi": 0, "dims": [2], "differentials": []}
    doc["endomorphism"] = endomorphism
    if witnesses is not None:
        doc["witnesses"] = witnesses
    return doc


def test_values_too_long_to_print_are_reported_by_size(capsys, tmp_path):
    # each entry has 2200 digits; their sum, the trace, has a 4399-digit denominator
    p1, p2 = 10**2199 + 7, 10**2199 + 9
    path = write_json(tmp_path, "inst.json", _two_dim_document([[[f"1/{p1}", "0"], ["0", f"1/{p2}"]]]))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    assert json.loads(out)["degree_traces"]["0"] == "<too long to print: 7306-bit numerator, 14610-bit denominator>"
    for theorem in ("1", "2", "3", "4"):
        code, out, _ = run_cli(capsys, "witness", path, "--theorem", theorem)
        assert code == 2, theorem
        assert json.loads(out)["obstruction"]["value"].startswith("<too long to print: "), theorem


def test_verify_reports_a_violation_too_long_to_print(capsys, tmp_path):
    x, y = 10**2500 + 1, 10**2500 + 3
    pair = [[[str(x), "0"], ["0", "0"]], [["0", str(y)], ["0", "0"]]]  # [a, b] = x y e_01
    zero = [[["0", "0"], ["0", "0"]]]
    path = write_json(tmp_path, "inst.json", _two_dim_document(zero, [{"type": "pointwise", "pairs": [pair]}]))
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 1
    [violation] = json.loads(out)["witnesses"][0]["violations"]
    assert (violation["location"], violation["entry"], violation["right"]) == ("degree 0", [0, 1], "0")
    assert violation["left"] == f"<too long to print: {(x * y).bit_length()}-bit numerator, 1-bit denominator>"


def test_witness_refuses_a_certificate_its_parser_would_reject(capsys, tmp_path, monkeypatch):
    def builder(phi):
        big = mat(Q, [[10**4000, 0], [0, 0]])  # 4001 digits
        return PointwiseWitness(phi.complex, {0: (big, big)})

    monkeypatch.setitem(cli._WITNESS_BUILDERS, 1, builder)
    path = write_json(tmp_path, "inst.json", _two_dim_document([[["0", "0"], ["0", "0"]]]))
    code, out, _ = run_cli(capsys, "witness", path, "--theorem", "1")
    assert code == 3
    assert json.loads(out)["limitation"]["error"] == "ValueTooLong"


def test_counterexample_example2(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "example2")
    assert code == 0
    payload = json.loads(out)
    assert payload["q_pair_trials"] == 16
    assert payload["q_pair_successes"] == 0
    assert payload["matches_expected"] is True
    assert len(payload["boundary_commutant"]) == 6
    assert len(payload["admissible_pairs"]) == 2


def test_random_is_deterministic_and_byte_identical(capsys):
    args = ("random", "--seed", "7", "--field", "Q", "--max-dim", "3", "--length", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    different = run_cli(capsys, "random", "--seed", "8", "--field", "Q", "--max-dim", "3", "--length", "3")
    assert different[1] != out1


def test_random_pipeline_witness_verify(capsys, tmp_path):
    for theorem, ensure in ((1, "t1"), (2, "t2"), (3, "t3"), (4, "t4")):
        code, out, _ = run_cli(
            capsys,
            "random",
            "--seed",
            "21",
            "--field",
            "Q",
            "--max-dim",
            "3",
            "--length",
            "3",
            "--ensure",
            ensure,
        )
        assert code == 0
        instance = write_json(tmp_path, f"instance{theorem}.json", json.loads(out))
        code, out, _ = run_cli(capsys, "witness", instance, "--theorem", str(theorem))
        assert code == 0, out
        witnessed = write_json(tmp_path, f"witnessed{theorem}.json", json.loads(out))
        code, out, _ = run_cli(capsys, "verify", witnessed)
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_random_over_prime_field(capsys):
    code, out, _ = run_cli(capsys, "random", "--seed", "3", "--field", "Fp:5", "--max-dim", "2", "--length", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["field"] == {"kind": "Fp", "p": 5}


def test_verify_without_witnesses_fails(capsys, tmp_path):
    path = write_json(tmp_path, "inst.json", SINGLE_DEGREE_TRACE_ONE)
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_verify_rejects_tampered_witness(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "random", "--seed", "5", "--field", "Q", "--max-dim", "3", "--length", "3", "--ensure", "t1"
    )
    instance = write_json(tmp_path, "inst.json", json.loads(out))
    code, out, _ = run_cli(capsys, "witness", instance, "--theorem", "1")
    assert code == 0
    payload = json.loads(out)
    # zero out every pair: [0, 0] = 0 != phi unless phi is zero
    for pair in payload["witnesses"][0]["pairs"]:
        for matrix in pair:
            for row in matrix:
                for j in range(len(row)):
                    row[j] = "0"
    # seed 5 yields a nonzero endomorphism, so the zeroed pairs cannot verify
    assert any(cell != "0" for m in payload["endomorphism"] for row in m for cell in row)
    tampered = write_json(tmp_path, "tampered.json", payload)
    code, out, _ = run_cli(capsys, "verify", tampered)
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_usage_errors_exit_64(capsys, tmp_path):
    assert run_cli(capsys, "nonsense")[0] == 64
    assert run_cli(capsys, "witness")[0] == 64
    assert run_cli(capsys, "random", "--seed", "1", "--field", "Fp:4")[0] == 64
    assert run_cli(capsys, "random", "--seed", "1", "--field", "C")[0] == 64
    assert run_cli(capsys, "random", "--seed", "1", "--field", f"Fp:{PRIMALITY_BOUND}")[0] == 64
    assert run_cli(capsys, "analyze", str(tmp_path / "missing.json"))[0] == 64
    for argv in (("--field", "Fp:abc"), ("--length", "0"), ("--max-dim", "-1")):
        code, out, err = run_cli(capsys, "random", "--seed", "1", *argv)
        assert (code, out) == (64, "")
        assert "usage error" in err


def test_random_refuses_instances_too_large_to_parse(capsys):
    # dims may total at most jsonio.MAX_TOTAL_DIMENSION = 10000
    for max_dim, length in (("0", "10001"), ("20000", "1"), ("101", "100")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "random", "--seed", "1", "--max-dim", max_dim, "--length", length)
        assert (code, out) == (64, "")
        assert "usage error" in err
        assert time.perf_counter() - start < 1.0


def test_schema_violations_exit_65(capsys, tmp_path):
    path = write_json(tmp_path, "bad.json", {"format_version": "1"})
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 65
    assert "schema_violations" in json.loads(out)

    not_json = tmp_path / "broken.json"
    not_json.write_text("{", encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(not_json))
    assert code == 65

    missing_endo = dict(SINGLE_DEGREE_TRACE_ONE)
    missing_endo.pop("endomorphism")
    path = write_json(tmp_path, "noendo.json", missing_endo)
    code, out, _ = run_cli(capsys, "witness", path, "--theorem", "1")
    assert code == 65


def test_oversized_numbers_exit_65_with_a_diagnostic(capsys, tmp_path):
    payload = json.loads((FIXTURES / "q_exact.json").read_text(encoding="utf-8"))
    payload["differentials"][0][0][0] = "1" * 5000
    code, out, err = run_cli(capsys, "analyze", write_json(tmp_path, "long_rational.json", payload))
    assert code == 65
    assert [v["code"] for v in json.loads(out)["schema_violations"]] == ["rational_too_large"]
    assert "schema error" in err and "Traceback" not in err

    # a JSON integer too long for the interpreter to convert
    too_long = tmp_path / "long_integer.json"
    too_long.write_text('{"format_version": "1", "lo": ' + "1" * 5000 + "}", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(too_long))
    assert code == 65
    assert [v["code"] for v in json.loads(out)["schema_violations"]] == ["invalid_json"]


@pytest.mark.parametrize("command", [["analyze"], ["witness", "--theorem", "1"], ["verify"]])
def test_deeply_nested_json_exits_65(capsys, tmp_path, command):
    for name, text in (("arrays.json", "[" * 200_000), ("objects.json", '{"a":' * 200_000)):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert code == 65
        assert [v["code"] for v in json.loads(out)["schema_violations"]] == ["invalid_json"]
        assert "Traceback" not in err


def test_analyze_with_a_61_bit_modulus_is_prompt(capsys, tmp_path):
    payload = json.loads((FIXTURES / "f2_window.json").read_text(encoding="utf-8"))
    payload["field"] = {"kind": "Fp", "p": 2**61 - 1}
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", write_json(tmp_path, "m61.json", payload))
    assert code == 0
    assert time.perf_counter() - start < 5
    assert json.loads(out)["conditions"]["theorem1"] is False  # identity on F_p^2 has trace 2


def test_module_entry_point_runs():
    env = {"PYTHONPATH": "src", "PATH": "/usr/local/bin:/usr/bin:/bin"}
    # a run that asked for no bytecode must not leave .pyc in the tree
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    result = subprocess.run(
        [sys.executable, "-m", "chaincomm", "counterexample", "example2"],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(__import__("pathlib").Path(__file__).parent.parent),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["matches_expected"] is True
