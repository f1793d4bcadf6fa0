"""The contract: the command line's outputs, formats and exit codes, and the
package's public names."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import hermdens
from hermdens import relations
from hermdens.cli import build_parser, run
from hermdens.hironaka import HironakaEngine
from hermdens.partitions import parse_partition
from hermdens.qalgebra import RatFunc, ZERO, lau_iadd_scaled

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_alpha_text(capsys):
    code, out, _ = _capture(capsys, ["alpha", "4,0", "4,2"])
    assert code == 0
    assert out.strip() == "q^6+2q^5+q^4"


def test_normalized_trace(capsys):
    code, out, _ = _capture(capsys, ["normalized", "3,0,0", "8,3,2", "--trace"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q^6+q^5+q^4"
    steps = [l for l in lines if l.startswith("step ")]
    assert 1 <= len(steps) <= 10
    assert "C2.19.7" in steps[0]


def test_normalized_trace_support_zero(capsys):
    # xi_2 = 3 > lam_2 = 2: one support step, where the last parts alone lead
    # through a four-step chain to the same 0
    code, out, _ = _capture(capsys, ["normalized", "3,3,0", "4,2,2", "--trace"])
    assert code == 0
    assert out.splitlines() == ["0", "step 1: support-zero A_3,3,0(A_4,2,2) = 0"]


def test_engines_agree_bytewise(capsys):
    cases = [("3,0,0", "8,3,2"), ("6,0", "8,6"), ("2,0,0", "3,3,2"), ("1,0", "1,1")]
    for xi, lam in cases:
        _, out_r, _ = _capture(capsys, ["normalized", xi, lam, "--engine", "reduce"])
        _, out_d, _ = _capture(capsys, ["normalized", xi, lam, "--engine", "direct"])
        assert out_r == out_d, (xi, lam)


def test_trace_requires_reduce_engine(capsys):
    code, _, err = _capture(capsys, ["normalized", "1,0", "2,1", "--engine", "direct", "--trace"])
    assert code == 2 and "trace" in err


def test_json_roundtrip(capsys):
    from hermdens.qalgebra import RatFunc, Q
    code, out, _ = _capture(capsys, ["--format", "json", "normalized", "6,0", "8,6"])
    assert code == 0
    blob = json.loads(out)
    assert RatFunc.from_json(blob["value"]) == Q ** 5 * (Q - 1)
    assert blob["value_str"] == "q^6-q^5"


def test_q_eval(capsys):
    code, out, _ = _capture(capsys, ["alpha", "0", "0", "--q-eval", "3"])
    assert code == 0
    assert "4/3" in out


def test_self_command(capsys):
    code, out, _ = _capture(capsys, ["self", "2,1"])
    assert code == 0
    assert out.strip() == "q^5+2q^4+q^3"


def test_derivative_command(capsys):
    code, out, _ = _capture(capsys, ["derivative", "4,1,0,0"])
    assert code == 0
    assert out.strip() == "2q+3"


def test_derivative_rejects_even_weight(capsys):
    code, out, err = _capture(capsys, ["derivative", "2,1,1,0"])
    assert code == 2
    assert out == "" and "odd weight" in err


def test_intersect_command(capsys):
    code, out, _ = _capture(capsys, ["intersect", "1,1", "--q-eval", "3"])
    assert code == 0
    assert out.splitlines()[0] == "-q+1"
    assert "-2" in out


def test_verify_theorem_ok(capsys):
    code, out, _ = _capture(capsys, ["verify", "theorem", "--n", "2", "--s", "1",
                                     "--lambda-max", "2"])
    assert code == 0
    assert "9/9 relations verified" in out


def test_verify_theorem_negative_control_fails(capsys):
    code, out, _ = _capture(capsys, ["verify", "theorem", "--n", "2", "--s", "1",
                                     "--xi", "1,0", "--lambda-min", "0", "--lambda-max", "1"])
    assert code == 1
    assert "RESIDUAL" in out


def test_verify_corollary_sampled(capsys):
    code, out, _ = _capture(capsys, ["verify", "corollary", "--n", "2", "--b-max", "2"])
    assert code == 0
    assert "identities verified" in out


def test_verify_corollary_rejects_small_placeholder(capsys):
    # a "*" slot stands for parts >= 3; filling it with 2 is a usage error
    code, out, err = _capture(capsys, ["verify", "corollary", "--n", "2", "--params", "2"])
    assert code == 2
    assert out == "" and "'*' slot" in err


def test_small_params_are_refused_when_parsed(capsys):
    # the '*' slot rule is checked by the option's type, so the usage error
    # names --params and the text given, before any case is built
    for params in ("2", "3,2", "0"):
        code, out, err = _capture(capsys, ["verify", "corollary", "--n", "2", "--params", params])
        assert code == 2 and out == "", params
        assert "argument --params" in err and repr(params) in err, params
        assert "part >= 3" in err and err.startswith("usage:"), params


def test_oracle_refuses_a_huge_prime_at_once():
    # the budget gate refuses p^2 enumerations, after a primality test whose
    # cost grows with log p, not with sqrt(p)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    argv = [sys.executable, "-m", "hermdens", "oracle", "0", "0",
            "--p", "1000000000000000003", "--d", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 3 and "exceeds budget" in proc.stderr
    start = time.perf_counter()
    assert run(argv[3:]) == 3
    assert time.perf_counter() - start < 1.0


def test_labels_and_params_take_ascii_digits_only(capsys):
    # '1_0,2' is no longer read as (10, 2): the usage error names the text
    for text in ("1_0,2", "\u0661,0", "+2,1"):
        code, out, err = _capture(capsys, ["alpha", text, "2,1"])
        assert code == 2 and out == "", text
        assert "argument xi" in err and repr(text) in err, text
    for params in ("", "3_0", "4,+5"):
        code, out, err = _capture(capsys, ["verify", "corollary", "--n", "2", "--params", params])
        assert code == 2 and out == "", params
        assert "argument --params" in err and repr(params) in err, params
    code, out, _ = _capture(capsys, ["verify", "corollary", "--n", "2", "--params", " 4 ",
                                     "--b-max", "1"])
    assert code == 0 and out.endswith("identities verified\n")


def test_verify_corollary_ignores_repeated_params(capsys):
    # a value given twice fills the placeholders once, not once per copy
    argv = ["verify", "corollary", "--n", "2", "--b-max", "2", "--params"]
    once = _capture(capsys, argv + ["3"])
    twice = _capture(capsys, argv + ["3,3"])
    assert once[0] == twice[0] == 0
    assert once[1] == twice[1]
    assert once[1].endswith("12/12 identities verified\n")


def test_verify_corollary_mismatch_prints_lhs_minus_rhs(capsys, monkeypatch):
    # one rule coefficient off by 2/q: the sweep exits 1, only that rule
    # mismatches, and each MISMATCH line is lhs - rhs summed as RatFuncs
    rules = {rule.rule_id: rule for rule in relations.REWRITE_RULES[2]}
    for rule in rules.values():     # derived first, so no rule is derived from the bad one
        relations._derived_rhs(rule.pattern)
    bad = rules["C2.17.1"]
    (coeff, tail), *rest = relations._RHS[bad.pattern]
    monkeypatch.setitem(relations._RHS, bad.pattern,
                        ((lau_iadd_scaled(dict(coeff), {-1: 2}), tail), *rest))
    code, out, _ = _capture(capsys, ["verify", "corollary", "--n", "2"])
    assert code == 1
    line = re.compile(r"(\S+) xi=(\S+) B=(\S+): MISMATCH (.+)")
    mismatches = [line.fullmatch(l).groups() for l in out.splitlines() if "MISMATCH" in l]
    total = len(out.splitlines()) - 1
    assert len(mismatches) == 4
    assert out.endswith(f"{total - 4}/{total} identities verified\n")
    engine = HironakaEngine()
    for rule_id, xi, lam, text in mismatches:
        assert rule_id == bad.rule_id
        xi, lam = parse_partition(xi), parse_partition(lam)
        lhs = engine.normalized(xi, lam)
        rhs = sum((c * engine.normalized(p, lam) for c, p in bad.instantiate(())), start=ZERO)
        assert text == str(lhs - rhs), (xi, lam)


def test_verify_sweeps_build_no_ratfunc(capsys, monkeypatch):
    # from the relations' coefficients to each residual, both sweeps stay in
    # Laurent form: on cold rule and relation stores, no RatFunc is reduced
    monkeypatch.setattr(relations, "_RELATIONS", {})
    monkeypatch.setattr(relations, "_RHS", {})
    relations.d_coefficients.cache_clear()
    calls = []
    init = RatFunc.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", counted)
    for argv in (["verify", "theorem", "--n", "3", "--s", "2"],
                 ["verify", "corollary", "--n", "3"]):
        calls.clear()
        code, out, _ = _capture(capsys, argv)
        assert code == 0 and "verified" in out, argv
        assert len(calls) == 0, argv


def test_verify_identity_322(capsys):
    code, out, _ = _capture(capsys, ["verify", "identity-322", "--max", "3"])
    assert code == 0
    assert "3/3 identities verified" in out


def test_verify_theorem_empty_sweep_is_a_usage_error(capsys):
    for extra in (["--max-part", "0"], ["--sample", "0"]):
        code, out, err = _capture(capsys, ["verify", "theorem", "--n", "2", "--s", "1"] + extra)
        assert code == 2, extra
        assert out == "" and "select no relations" in err, extra


def test_verify_corollary_empty_sweep_is_a_usage_error(capsys):
    for extra in (["--b-max", "0"], ["--sample", "0"]):
        code, out, err = _capture(capsys, ["verify", "corollary", "--n", "2"] + extra)
        assert code == 2, extra
        assert out == "" and "select no identities" in err, extra


def test_verify_identity_322_empty_sweep_is_a_usage_error(capsys):
    code, out, err = _capture(capsys, ["verify", "identity-322", "--max", "1"])
    assert code == 2
    assert out == "" and "select no identities" in err


def test_verify_conjecture(capsys):
    code, out, _ = _capture(capsys, ["verify", "conjecture", "4,1,0,0"])
    assert code == 0
    assert "equal" in out


def test_verify_conjecture_rejects_even_weight(capsys):
    code, out, err = _capture(capsys, ["verify", "conjecture", "8,6,4,2"])
    assert code == 2
    assert out == "" and "odd weight" in err


def test_oracle_json(capsys):
    code, out, _ = _capture(capsys, ["oracle", "0", "0", "--p", "3", "--d", "1"])
    assert code == 0
    blob = json.loads(out)
    assert blob == {"count": "4", "denominator_exp": 1, "density": "4/3"}


def test_crosscheck(capsys):
    code, out, _ = _capture(capsys, ["crosscheck", "0", "0", "--p", "3", "--d", "2"])
    assert code == 0
    assert "4/3" in out and "match" in out


def test_exit_code_usage():
    assert run(["alpha", "4,0"]) == 2          # missing argument
    assert run(["alpha", "4,0", "1,2"]) == 2   # not a partition
    assert run(["alpha", "1", "1,1"]) == 2     # xi shorter than lambda


def _assert_rejects(capsys, argv, option):
    code, out, err = _capture(capsys, argv + option)
    assert code == 2
    assert out == "" and f"unrecognized arguments: {' '.join(option)}" in err


def test_oracle_rejects_workers(capsys):
    _assert_rejects(capsys, ["oracle", "0,0", "0,0", "--p", "3", "--d", "1"], ["--workers", "2"])


def test_crosscheck_rejects_workers(capsys):
    _assert_rejects(capsys, ["crosscheck", "0", "0", "--p", "3", "--d", "2"], ["--workers", "2"])


def test_recursion_limit_is_a_usage_error(capsys):
    # A_(0,0)(A_(k,k)) nests one rule-(d) rewrite per level, k of them: past
    # the recursion limit that is an input the evaluator refuses (exit 2),
    # not a failed check (exit 1), with or without the trace
    limit = sys.getrecursionlimit()
    k = 3 * limit
    for extra in ([], ["--trace"]):
        code, out, err = _capture(capsys, ["normalized", "0,0", f"{k},{k}"] + extra)
        assert (code, out) == (2, ""), extra
        assert err.splitlines() == [
            f"error: the computation nests deeper than the recursion limit ({limit})"], extra


def test_long_unit_chain_traces(capsys):
    # k P2.15 steps and one P2.14 step, a chain longer than the recursion limit
    k = 2 * sys.getrecursionlimit()
    code, out, _ = _capture(capsys, ["normalized", f"{k},{k}", f"{k},{k}", "--trace"])
    lines = out.splitlines()
    assert code == 0 and lines[0] == "1"
    assert len(lines) == k + 2
    assert lines[-1] == f"step {k + 1}: P2.14 A_0,0(A_0,0) -> (1) * [A_0(A_0) = 1]"


def test_exit_code_budget(capsys):
    code, _, err = _capture(capsys, ["oracle", "4,0", "4,2", "--p", "3", "--d", "5"])
    assert code == 3
    assert "budget" in err


def test_negative_budget_is_a_usage_error(capsys):
    # an invalid budget is not a budget refusal (exit 3); --budget 0 still is
    for command in ("oracle", "crosscheck"):
        argv = [command, "1,0", "1,0", "--p", "3", "--d", "2", "--budget"]
        code, out, err = _capture(capsys, argv + ["-1"])
        assert (code, out) == (2, "") and "budget must be >= 0" in err, command
        code, out, err = _capture(capsys, argv + ["0"])
        assert (code, out) == (3, "") and "exceeds budget 0" in err, command


def test_negative_lambda_min_is_rejected_before_any_row(capsys):
    code, out, err = _capture(capsys, ["verify", "theorem", "--n", "2", "--s", "1",
                                       "--lambda-min", "-1"])
    assert (code, out) == (2, "") and "lower bound -1" in err


def test_negative_sample_names_the_option(capsys):
    for argv in (["verify", "theorem", "--n", "2", "--s", "1"],
                 ["verify", "corollary", "--n", "2"]):
        code, out, err = _capture(capsys, argv + ["--sample", "-1"])
        assert (code, out) == (2, "") and "--sample must be >= 0, got -1" in err, argv


def test_exit_code_histogram_bytes(capsys):
    code, _, err = _capture(capsys, ["oracle", "1,1,0,0", "1,0,0", "--p", "3", "--d", "2",
                                     "--budget", str(3 ** 48)])
    assert code == 3
    assert "bytes" in err and "budget" in err


def test_truncation_options_are_usage_errors(capsys):
    for argv in (["derivative", "4,1,0,0"], ["intersect", "4,2"],
                 ["verify", "conjecture", "4,1,0,0"]):
        for option in (["--hard-cap", "5"], ["--zero-tail-window", "3"]):
            _assert_rejects(capsys, argv, option)
    # the derived density asks no engine
    for engine in ("reduce", "direct"):
        _assert_rejects(capsys, ["derivative", "4,1,0,0"], ["--engine", engine])


def _option_surface(parser, path=()):
    """Every argument of every (sub)command, in declaration order, keyed by
    the command path: a subcommand table as ``(dest, required, names)``, any
    other argument as ``(option strings, dest, default, choices, required,
    metavar)``."""
    rows = []
    surface = {" ".join(path): rows}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            rows.append((action.dest, action.required, tuple(action.choices)))
            for name, child in action.choices.items():
                surface.update(_option_surface(child, path + (name,)))
        else:
            rows.append((" ".join(action.option_strings), action.dest, action.default,
                         action.choices, action.required, action.metavar))
    return surface


def test_option_surface():
    # the options, defaults and choices each command accepts, including the
    # defaults no golden case sets; help text is left out, since it wraps with
    # the terminal and changes across Python versions
    xi, lam = ("", "xi", None, None, True, None), ("", "lam", None, None, True, "lambda")
    q_eval = ("--q-eval", "q_eval", None, None, False, "Q")
    engine = ("--engine", "engine", "reduce", ("reduce", "direct"), False, None)
    ring = [("--p", "p", None, None, True, None), ("--d", "d", None, None, True, None),
            ("--nonresidue", "nonresidue", None, None, False, None),
            ("--budget", "budget", 2 ** 36, None, False, None)]
    sample = [("--sample", "sample", None, None, False, None),
              ("--seed", "seed", 0, None, False, None)]
    expected = {
        "": [("--format", "format", "text", ("text", "json"), False, None),
             ("command", True, ("alpha", "normalized", "self", "derivative", "intersect",
                                "verify", "oracle", "crosscheck"))],
        "alpha": [xi, lam, q_eval],
        "normalized": [xi, lam, ("--trace", "trace", False, None, False, None), engine, q_eval],
        "self": [xi, q_eval],
        "derivative": [("", "b", None, None, True, "a,b,c,d"), q_eval],
        "intersect": [("", "b", None, None, True, "l,k"), engine, q_eval],
        "verify": [("verify_what", True, ("theorem", "corollary", "identity-322", "conjecture"))],
        "verify theorem": [("--n", "n", None, None, True, None),
                           ("--s", "s", None, None, True, None),
                           ("--xi", "xi", None, None, False, None),
                           ("--max-part", "max_part", 3, None, False, None),
                           ("--lambda-max", "lambda_max", 4, None, False, None),
                           ("--lambda-min", "lambda_min", 1, None, False, None), *sample],
        "verify corollary": [("--n", "n", None, (2, 3, 4), True, None),
                             ("--b-max", "b_max", 3, None, False, None),
                             ("--params", "params", "3,4", None, False, None), *sample],
        "verify identity-322": [("--max", "max", 5, None, False, None)],
        "verify conjecture": [("", "b", None, None, True, "a,b,c,d")],
        "oracle": [xi, lam, *ring],
        "crosscheck": [xi, lam, *ring],
    }
    # every parser has -h/--help first
    help_row = ("-h --help", "help", argparse.SUPPRESS, None, False, None)
    assert _option_surface(build_parser()) == {
        path: [help_row, *rows] for path, rows in expected.items()}


# The public names of ``hermdens``, as the ROADMAP's contract list records
# them; a change here is a contract decision, with its reason there.
PUBLIC_NAMES = {
    "BudgetExceededError", "GaloisRingParams", "GenericAlphaReducer", "HironakaEngine", "I_j",
    "IntPoly", "NotLaurentError", "NotTabulated", "PoleError", "Q", "RatFunc",
    "ReductionEngine", "ReductionTrace", "Relation", "alpha", "arith", "as_laurent",
    "check_partition", "conjecture_check", "conjugate", "conjugate_part",
    "count_representations", "d_coefficients", "density_oracle", "derivative_0000",
    "difference_identity_check", "evaluate_at", "format_partition", "gauss_binomial",
    "neg_q_power", "normalized", "parse_partition", "sankaran_intersection",
    "self_density_closed", "stabilization_check", "theorem_terms", "verify_relation",
    "xi_plus",
}


def test_public_names_are_the_contract_list():
    names = {name for name, value in vars(hermdens).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 38
    assert names == PUBLIC_NAMES


def test_module_entry_point():
    # the child sees this interpreter's path, so pytest's pythonpath setting
    # serves a checkout without PYTHONPATH
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-m", "hermdens", "alpha", "4,0", "4,2"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "q^6+2q^5+q^4"


def test_closed_stdout_ends_quietly_with_exit_141():
    # the reader is gone before the child writes: no traceback, and the
    # SIGPIPE code, not the exit 1 of a failed check
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    for args in (["alpha", "4,0", "4,2"],
                 ["verify", "theorem", "--n", "4", "--s", "1", "--lambda-max", "4"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "hermdens", *args], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, timeout=120, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, ""), args


def test_cli_golden(capsys):
    # the README examples and a few edge cases, in text and JSON, byte for byte,
    # with the one-line stderr of cli.run's errors where the file records it;
    # tests/data/make_cli_golden.py rewrites the file when the contract changes
    for case in json.loads(GOLDEN.read_text()):
        code, out, err = _capture(capsys, case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]
        if "stderr" in case:
            assert err == case["stderr"], case["argv"]
