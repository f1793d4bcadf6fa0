"""Command-line front end.

Every computation is exposed with exact symbolic output (descending
polynomial text by default, canonical JSON with --format json), optional
numeric evaluation at a rational q, reduction traces, batch verification
sweeps, and the counting oracle.  --format json leaves four commands as they
are: the sweeps ``verify theorem``, ``verify corollary`` and ``verify
identity-322`` print the same text lines in both formats, and ``oracle``
prints JSON in both.

Exit codes: 0 success / all verified, 1 verification failure (nonzero
residual or mismatch), 2 usage error or an input whose reduction nests past
the recursion limit, 3 budget failure, 141 stdout closed by its reader (a
shell's code for a tool that SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from fractions import Fraction

from . import geometry, hironaka, oracle, relations
from .oracle import BudgetExceededError, GaloisRingParams
from .partitions import (format_partition, lambda_ns_elements, parse_partition, parse_parts,
                         partitions_fixed_length)
from .qalgebra import PoleError, RatFunc, lau_dot, lau_iadd_scaled


def _partition(text):
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _values(text):
    """``--params``: the parts that fill '*' slots, checked by ``relations.fill_pattern``."""
    try:
        values = parse_parts(text)
        relations.fill_pattern(("*",) * len(values), values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad values {text!r}: {exc}")
    return values


def _rational(text):
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if val <= 0:
        raise argparse.ArgumentTypeError("q must be a positive rational")
    return val


def build_parser():
    top = argparse.ArgumentParser(
        prog="hermdens",
        description="Exact local densities of hermitian forms and their applications.")
    top.add_argument("--format", choices=("text", "json"), default="text")
    sub = top.add_subparsers(dest="command", required=True)

    def command(subparsers, name, handler, help, *labels):
        """Register a command once: ``run`` calls its ``handler``, and each label
        positional is written ``dest`` or ``dest:metavar``."""
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for label in labels:
            dest, _, metavar = label.partition(":")
            p.add_argument(dest, type=_partition, metavar=metavar or None)
        return p

    def add_value_opts(p, engine=False):
        if engine:
            p.add_argument("--engine", choices=("reduce", "direct"), default="reduce")
        p.add_argument("--q-eval", type=_rational, default=None, metavar="Q",
                       help="also evaluate the exact value at q = Q")

    add_value_opts(command(sub, "alpha", _cmd_alpha, "direct density alpha(A_xi, A_lambda)",
                           "xi", "lam:lambda"))
    p = command(sub, "normalized", _cmd_normalized, "normalized density A_xi(A_lambda)",
                "xi", "lam:lambda")
    p.add_argument("--trace", action="store_true", help="emit the reduction trace")
    add_value_opts(p, engine=True)
    add_value_opts(command(sub, "self", _cmd_self, "self-density alpha(A_xi, A_xi)", "xi"))
    add_value_opts(command(sub, "derivative", _cmd_derivative, "derived density of the rank-4 "
                           "unimodular class against a strictly dominant class of odd weight",
                           "b:a,b,c,d"))
    add_value_opts(command(sub, "intersect", _cmd_intersect,
                           "rank-2 special-cycle intersection number", "b:l,k"), engine=True)

    vsub = sub.add_parser("verify", help="batch verification suites").add_subparsers(
        dest="verify_what", required=True)

    v = command(vsub, "theorem", _verify_theorem, "vanishing-relation sweep")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--s", type=int, required=True)
    v.add_argument("--xi", type=_partition, default=None)
    v.add_argument("--max-part", type=int, default=3,
                   help="largest nonzero part of swept xi")
    v.add_argument("--lambda-max", type=int, default=4)
    v.add_argument("--lambda-min", type=int, default=1,
                   help="0 sweeps degenerate B as negative controls")
    v.add_argument("--sample", type=int, default=None,
                   help="randomly subsample this many cases")
    v.add_argument("--seed", type=int, default=0)

    v = command(vsub, "corollary", _verify_corollary, "normalized rewrite-rule sweep")
    v.add_argument("--n", type=int, choices=(2, 3, 4), required=True)
    v.add_argument("--b-max", type=int, default=3)
    v.add_argument("--params", type=_values, default="3,4",
                   help="values substituted for large-part placeholders")
    v.add_argument("--sample", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)

    v = command(vsub, "identity-322", _verify_identity, "intersection-difference identity sweep")
    v.add_argument("--max", type=int, default=5)

    command(vsub, "conjecture", _verify_conjecture, "rank-4 expansion check", "b:a,b,c,d")

    for name, handler, help in (
            ("oracle", _cmd_oracle, "counting oracle over the finite quotient ring"),
            ("crosscheck", _cmd_crosscheck, "symbolic density vs counting oracle at q = p")):
        p = command(sub, name, handler, help, "xi", "lam:lambda")
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--nonresidue", type=int, default=None)
        p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)

    return top


def _emit_value(args, value, extra=None):
    if args.format == "json":
        out = {"value": value.to_json(), "value_str": str(value)}
        if args.q_eval is not None:
            out["at_q"] = {"q": str(args.q_eval), "value": str(value.evaluate_at(args.q_eval))}
        if extra:
            out.update(extra)
        print(json.dumps(out))
    else:
        print(value)
        if args.q_eval is not None:
            print(f"at q={args.q_eval}: {value.evaluate_at(args.q_eval)}")
    return 0


def _cmd_alpha(args):
    return _emit_value(args, hironaka.alpha(args.xi, args.lam))


def _cmd_normalized(args):
    if args.engine == "direct":
        if args.trace:
            raise UsageError("--trace requires --engine reduce")
        return _emit_value(args, hironaka.normalized(args.xi, args.lam))
    engine = relations.ReductionEngine()
    if not args.trace:
        return _emit_value(args, engine.normalized_value(args.xi, args.lam))
    value, trace = engine.reduce_normalized(args.xi, args.lam)
    if args.format == "json":
        return _emit_value(args, value, {"trace": trace.to_json()})
    code = _emit_value(args, value)
    for i, step in enumerate(trace.steps, 1):
        head = (f"step {i}: {step.rule_id} "
                f"A_{format_partition(step.xi_before)}(A_{format_partition(step.lam_before)})")
        if step.children:
            parts = []
            for child in step.children:
                ref = f"A_{format_partition(child.xi)}(A_{format_partition(child.lam)})"
                if child.value is not None:
                    ref = f"[{ref} = {child.value}]"
                parts.append(f"({child.factor}) * {ref}")
            print(f"{head} -> " + " + ".join(parts))
        else:
            print(f"{head} = {step.value}")
    return code


def _cmd_self(args):
    return _emit_value(args, hironaka.alpha(args.xi, args.xi))


def _cmd_derivative(args):
    return _emit_value(args, geometry.derivative_0000(args.b))


def _cmd_intersect(args):
    engine = geometry.make_engine(args.engine)
    value, reports = geometry.sankaran_intersection_report(args.b, engine)
    extra = {"truncation": [r.to_json() for r in reports]} if args.format == "json" else None
    return _emit_value(args, value, extra)


def _sweep(cases, what, check):
    """Run a sweep: ``check(*case)`` gives ``(ok, line)`` for each case, and a
    ``k/n <what> verified`` line ends the output.  Exit 1 if any case fails;
    a sweep that selects no case is a usage error, not a pass."""
    if not cases:
        raise UsageError(f"the options select no {what} to verify")
    failures = 0
    for case in cases:
        ok, line = check(*case)
        print(line)
        failures += not ok
    print(f"{len(cases) - failures}/{len(cases)} {what} verified")
    return 1 if failures else 0


def _sampled(cases, args):
    """A seeded subsample of ``--sample`` cases, or every case."""
    if args.sample is None or args.sample >= len(cases):
        return cases
    if args.sample < 0:
        raise UsageError(f"--sample must be >= 0, got {args.sample}")
    return random.Random(args.seed).sample(cases, args.sample)


def _verify_theorem(args):
    if args.xi is not None:
        xis = [args.xi]
    else:
        xis = list(lambda_ns_elements(args.n, args.s, args.max_part))
    lams = list(partitions_fixed_length(args.n, args.lambda_min, args.lambda_max))
    engine = hironaka.HironakaEngine()

    def check(xi, lam):
        ok, residual = relations.verify_relation(relations.theorem_terms(args.n, args.s, xi),
                                                 lam, engine)
        status = "ok" if ok else f"RESIDUAL {residual}"
        return ok, f"xi={format_partition(xi)} lambda={format_partition(lam)}: {status}"

    return _sweep(_sampled([(xi, lam) for xi in xis for lam in lams], args), "relations", check)


def _verify_corollary(args):
    values = sorted(set(args.params), reverse=True)
    engine = hironaka.HironakaEngine()
    cases = []
    for rule in relations.REWRITE_RULES[args.n]:
        slots = sum(not isinstance(t, int) for t in rule.pattern)
        for fill in itertools.combinations_with_replacement(values, slots):
            cases.append((rule, fill, relations.fill_pattern(rule.pattern, fill)))
    lams = list(partitions_fixed_length(args.n, 1, args.b_max))

    def check(rule, fill, xi, lam):
        rhs = lau_dot((c, engine.laurent_value(p, lam)) for c, p in rule.instantiate_laurent(fill))
        residual = lau_iadd_scaled(dict(engine.laurent_value(xi, lam)), rhs, scale=-1)
        status = f"MISMATCH {RatFunc.from_laurent(residual)}" if residual else "ok"
        return not residual, (f"{rule.rule_id} xi={format_partition(xi)} "
                              f"B={format_partition(lam)}: {status}")

    pairs = [(rule, fill, xi, lam) for rule, fill, xi in cases for lam in lams]
    return _sweep(_sampled(pairs, args), "identities", check)


def _verify_identity(args):
    engine = geometry.make_engine("reduce")

    def check(*b):  # a case is the class B itself, (lead, second)
        ok, residual = geometry.difference_identity_check(b, engine=engine)
        return ok, f"B={format_partition(b)}: {'ok' if ok else f'RESIDUAL {residual}'}"

    return _sweep([(lead, second) for lead in range(2, args.max + 1)
                   for second in range(2, lead + 1)], "identities", check)


def _verify_conjecture(args):
    report = geometry.conjecture_check(args.b)
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        print(f"lhs = {report.lhs}")
        print(f"rhs = {report.rhs}")
        print("equal" if report.equal else f"MISMATCH {report.lhs - report.rhs}")
    return 0 if report.equal else 1


def _oracle_params(args):
    return GaloisRingParams(args.p, args.d, args.nonresidue)


def _cmd_oracle(args):
    params = _oracle_params(args)
    count = oracle.count_representations(args.xi, args.lam, params, budget=args.budget)
    m, n = len(args.xi), len(args.lam)
    exp = oracle.denominator_exponent(m, n, args.d)
    density = Fraction(count, args.p ** exp)
    print(json.dumps({"count": str(count), "denominator_exp": exp, "density": str(density)}))
    return 0


def _cmd_crosscheck(args):
    params = _oracle_params(args)
    if args.d <= max(args.lam):
        raise UsageError(f"need d > max part of lambda = {max(args.lam)}")
    symbolic = hironaka.alpha(args.xi, args.lam).evaluate_at(args.p)
    empirical = oracle.density_oracle(args.xi, args.lam, params, budget=args.budget)
    confirmed = None
    try:
        nxt = GaloisRingParams(args.p, args.d + 1, args.nonresidue)
        confirmed = oracle.density_oracle(args.xi, args.lam, nxt, budget=args.budget) == empirical
    except BudgetExceededError:
        confirmed = None
    ok = symbolic == empirical and confirmed is not False
    out = {
        "symbolic": str(symbolic),
        "oracle": str(empirical),
        "match": symbolic == empirical,
        "stabilization_confirmed": confirmed,
    }
    if args.format == "json":
        print(json.dumps(out))
    else:
        print(f"symbolic at q={args.p}: {symbolic}")
        print(f"oracle density:      {empirical}")
        if confirmed is None:
            print("stabilization at d+1 not confirmed (over budget)")
        print("match" if ok else "MISMATCH")
    return 0 if ok else 1


class UsageError(Exception):
    pass


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.handler(args)
    except (UsageError, ValueError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: the computation nests deeper than the recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # devnull stands in for the reader, so the final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
