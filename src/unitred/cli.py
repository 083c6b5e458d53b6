"""Command-line front end for the unit-reducibility toolkit.

Every command prints a short human-readable summary; --json switches the
output to the full certificate in canonical JSON (sorted keys, no spaces),
so identical inputs and seeds produce byte-identical bytes.

Exit codes: 0 success, 1 a verification check failed, 2 bad input,
3 an enumeration budget was exceeded or the degree is out of reach.  A
budget stop prints no certificate, --json or not: one stderr line gives the
node and result counts reached.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass

from .certify import classify, table1
from .errors import BudgetError, DegreeError, VerificationError
from .field import _poly_str, element_to_json_dict, make_field, parse_element
from .numtheory import is_canonical_conductor, require_divides
from .realfield import _real_witness_data, classify_real, make_real_field, verify_real_witness
from .serialize import dumps_canonical
from .svp import DEFAULT_NODE_CAP, shortest
from .traceform import gram
from .units import eta, is_reduced, mu_star
from .witness import _witness_data, delta_lower_bound, eq4_check, l75_scan, verify_witness

DEFAULT_SEED = 12345
COEFF_RANGE = 5  # random integral elements draw coefficients from [-5, 5]


@dataclass
class CommandResult:
    exit_code: int
    text: str = ""
    payload: object = None
    error: str = ""
    json_out: bool = False  # the eq4-failure path sets it itself


def _u64(s: str) -> int:
    v = int(s)
    if not 0 <= v < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return v


def _positive_int(s: str) -> int:
    v = int(s)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _range_pair(s: str) -> tuple[int, int]:
    parts = s.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("range must look like N1..N2")
    lo, hi = int(parts[0]), int(parts[1])
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError("range needs 1 <= N1 <= N2")
    return lo, hi


def _coeff_line(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def cmd_field(args) -> CommandResult:
    ctx = make_field(args.N)
    e = eta(args.N)
    payload = {
        "kind": "field",
        "conductor": ctx.conductor,
        "degree": ctx.degree,
        "discriminant_abs": str(ctx.discriminant_abs),
        "cyclotomic_poly": list(ctx.cyclo_poly),
        "eta": str(e.eta),
    }
    lines = [
        f"K_{ctx.conductor}: degree {ctx.degree} over Q",
        f"  |discriminant|: {ctx.discriminant_abs}",
        f"  minimal polynomial of zeta: {_poly_str(ctx.cyclo_poly, 'x')}",
        f"  eta: {e.eta} (prime {e.prime}, residue degree {e.residue_degree})",
    ]
    if ctx.conductor >= 3:
        rctx = make_real_field(ctx.conductor)
        payload["real_degree"] = rctx.degree
        payload["real_min_poly"] = list(rctx.min_poly)
        lines.append(
            f"  real subfield K_{ctx.conductor}+: degree {rctx.degree}, "
            f"theta = zeta + 1/zeta with minimal polynomial "
            f"{_poly_str(rctx.min_poly, 'x')}"
        )
    return CommandResult(0, text="\n".join(lines), payload=payload)


def cmd_table1(args) -> CommandResult:
    rows = table1()
    exact = ("eta", "hermite_pow", "disc_abs")  # the exact values go out as strings
    payload = {"kind": "table1", "rows": [r | {k: str(r[k]) for k in exact} for r in rows]}
    head = f"{'N':>3} {'deg':>4} {'eta':>4} {'gamma^n':>9} {'|disc|':>9} {'criterion':>10}"
    body = [
        f"{r['N']:>3} {r['degree']:>4} {r['eta']:>4} {str(r['hermite_pow']):>9} "
        f"{str(r['disc_abs']):>9} {r['relation']:>10}"
        for r in rows
    ]
    return CommandResult(0, text="\n".join([head] + body), payload=payload)


def cmd_classify(args) -> CommandResult:
    cert = classify(args.N)
    text = f"K_{args.N}: {cert.verdict}\n  {cert.reason}"
    return CommandResult(0, text=text, payload=cert.to_json_dict())


def cmd_real_classify(args) -> CommandResult:
    cert = classify_real(args.N)
    text = f"K_{args.N}+: {cert.verdict}\n  {cert.reason}"
    return CommandResult(0, text=text, payload=cert.to_json_dict())


def _parsed_element(args):
    ctx = make_field(args.N)
    return parse_element(ctx, args.element)


def cmd_shortest(args) -> CommandResult:
    a = _parsed_element(args)
    rep = shortest(gram(a), node_cap=args.budget)
    payload = {
        "kind": "shortest",
        "conductor": args.N,
        "element": element_to_json_dict(a),
        **rep.to_json_dict(),
    }
    first = rep.minima[0]
    lines = [
        f"mu(a) = {rep.mu} over K_{args.N}",
        f"  attained by {len(rep.minima)} vectors (up to sign); "
        f"first: {_coeff_line(first.coeffs)}",
        f"  exhaustive below {rep.exhaustive_bound}; nodes visited {rep.nodes}",
    ]
    return CommandResult(0, text="\n".join(lines), payload=payload)


def cmd_mustar(args) -> CommandResult:
    a = _parsed_element(args)
    rep = mu_star(a, node_cap=args.budget)
    payload = {"element": element_to_json_dict(a), **rep.to_json_dict()}
    trunc = " (list truncated)" if rep.attaining_truncated else ""
    lines = [
        f"mu*(a) = {rep.mu_star} over K_{args.N}  [trace {rep.trace}, mu {rep.mu}]",
        f"  attained by {rep.attaining_count} units (up to sign){trunc}; "
        f"nodes visited {rep.nodes}",
    ]
    return CommandResult(0, text="\n".join(lines), payload=payload)


def cmd_reduced(args) -> CommandResult:
    a = _parsed_element(args)
    cert = is_reduced(a, node_cap=args.budget)
    payload = {"element": element_to_json_dict(a), **cert.to_json_dict()}
    if cert.reduced:
        text = (
            f"a is reduced over K_{args.N}: no unit goes below Tr(a) = {cert.trace} "
            f"({len(cert.below_trace)} non-unit vectors do)"
        )
    else:
        w = cert.witness_unit
        text = (
            f"a is NOT reduced over K_{args.N}: unit {_coeff_line(w.coeffs)} "
            f"reaches {w.value} < Tr(a) = {cert.trace}"
        )
    return CommandResult(0, text=text, payload=payload)


def cmd_eta(args) -> CommandResult:
    cert = eta(args.N)
    text = (
        f"eta(K_{args.N}) = {cert.eta} "
        f"(prime {cert.prime}, residue degree {cert.residue_degree})"
    )
    return CommandResult(0, text=text, payload=cert.to_json_dict())


def _certified(args, verify, field: str, details) -> CommandResult:
    """Run a witness check under --budget: the VERIFIED header and
    details(cert)."""
    cert = verify(args.N, node_cap=args.budget)
    lines = [f"witness over {field}: VERIFIED", *details(cert)]
    return CommandResult(0, text="\n".join(lines), payload=cert.to_json_dict())


def _witness_lines(cert) -> list[str]:
    return [
        f"  trace {cert.trace_a}, mu {cert.mu_a}, ratio {cert.ratio} "
        f"(closed form {cert.closed_form})",
        f"  reduced: every vector below the trace is a non-unit "
        f"({len(cert.reduced_evidence)} of them); nodes visited {cert.nodes}",
    ]


def _real_witness_lines(cert) -> list[str]:
    agrees = "matches" if cert.closed_form_agrees else "DISAGREES with"
    return [
        f"  trace {cert.trace_a}, mu {cert.mu_exact}, mu* {cert.mu_star}, "
        f"exact ratio {cert.ratio_exact}",
        f"  certified bound mu*/Tr(a^-1) = {cert.bound} "
        f"{agrees} the quoted closed form {cert.quoted_form}",
        f"  reduced: {cert.reduced}; nodes visited {cert.nodes}",
    ]


def cmd_witness(args) -> CommandResult:
    if args.verify:
        return _certified(args, verify_witness, f"K_{args.N}", _witness_lines)
    a, _, _, ratio = _witness_data(args.N)
    trace = a.trace()
    payload = {
        "kind": "witness_element",
        "conductor": args.N,
        "coeffs": [str(c) for c in a.coeffs],
        "trace": str(trace),
        "closed_ratio": str(ratio),
    }
    shape = "((1+z)(1+1/z))^-1" if args.N % 2 == 0 else "((1-z)(1-1/z))^-1"
    lines = [
        f"witness over K_{args.N}: a = {shape}, trace {trace}",
        f"  coeffs: {_coeff_line(a.coeffs)}",
        f"  certified trace/mu ratio (closed form): {ratio}",
    ]
    return CommandResult(0, text="\n".join(lines), payload=payload)


def cmd_real_witness(args) -> CommandResult:
    if args.verify:
        return _certified(args, verify_real_witness, f"K_{args.N}+", _real_witness_lines)
    a = _real_witness_data(args.N)[0]
    trace = a.trace()
    payload = {
        "kind": "real_witness_element",
        "conductor": args.N,
        "element": a.to_json_dict(),
        "trace": str(trace),
    }
    shape = "(2+t)^-1" if args.N % 2 == 0 else "(2-t)^-1"
    lines = [
        f"witness over K_{args.N}+: a = {shape}, trace {trace}",
        f"  theta-basis coeffs: {_coeff_line(a.coeffs)}",
    ]
    return CommandResult(0, text="\n".join(lines), payload=payload)


def cmd_delta_bound(args) -> CommandResult:
    d = delta_lower_bound(args.N)
    text = f"delta(K_{args.N}) >= {d.bound}  [{d.provenance}]"
    return CommandResult(0, text=text, payload=d.to_json_dict())


def cmd_check_eq4(args) -> CommandResult:
    small, big = args.N, args.M
    require_divides(small, big)
    ctx_small = make_field(small)
    ctx_big = make_field(big)
    rng = random.Random(args.seed)
    payload = {
        "kind": "eq4_trials",
        "conductor_small": small,
        "conductor_big": big,
        "trials": args.trials,
        "seed": args.seed,
        "passed": True,
    }
    values = []  # each trial's lhs, equal to its rhs
    for trial in range(args.trials):
        a = ctx_small.element(
            [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(ctx_small.degree)]
        )
        y = ctx_big.element(
            [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(ctx_big.degree)]
        )
        rep = eq4_check(a, y)
        if not rep.passed:
            payload.update(passed=False, failed_at=trial, counterexample=rep.to_json_dict())
            return CommandResult(
                1,
                payload=payload,
                error=(
                    f"trace-lift identity FAILED at trial {trial} "
                    f"(K_{small} -> K_{big}, seed {args.seed})"
                ),
                json_out=True,
            )
        values.append(str(rep.lhs))
    payload["values"] = values
    text = (
        f"trace-lift identity: {args.trials}/{args.trials} random trials passed "
        f"(K_{small} -> K_{big}, seed {args.seed})"
    )
    return CommandResult(0, text=text, payload=payload)


def cmd_l75(args) -> CommandResult:
    box = args.box if args.box is not None else args.p
    rep = l75_scan(args.p, box)
    verdict = "PASS" if rep.passed else "FAIL"
    lines = [
        f"rounding inequality at p={args.p}, box {box}: {verdict}",
        f"  {rep.permutations} permutations x {rep.grid_points} grid points; "
        f"min margin {rep.min_margin} "
        f"(zero at m=0: {rep.zero_at_m_zero}, {rep.zero_margin_count} zeros total)",
        f"  smallest margin on the box wall: {rep.boundary_min_margin}",
    ]
    code = 0 if rep.passed else 1
    err = "" if rep.passed else f"rounding inequality violated at p={args.p}"
    return CommandResult(code, text="\n".join(lines), payload=rep.to_json_dict(), error=err)


def cmd_sweep(args) -> CommandResult:
    lo, hi = args.range
    lines = []
    for n in range(lo, hi + 1):
        if not is_canonical_conductor(n):
            continue
        lines.append(dumps_canonical(classify(n).to_json_dict()))
    return CommandResult(0, text="\n".join(lines))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="print the full certificate as canonical JSON"
    )
    budget = argparse.ArgumentParser(add_help=False)  # the enumerating commands
    budget.add_argument(
        "--budget",
        type=_positive_int,
        metavar="NODES",
        help=f"enumeration node cap (default {DEFAULT_NODE_CAP})",
    )

    parser = argparse.ArgumentParser(
        prog="unitred",
        description="exact unit-reducibility computations for cyclotomic fields",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(subs, name, func, help, *parents):
        """A subcommand on a conductor N, with --json and the given parents."""
        p = subs.add_parser(name, parents=[common, *parents], help=help)
        p.add_argument("N", type=int)
        p.set_defaults(func=func, usage_error=p.error)
        return p

    command(sub, "field", cmd_field, "summary of the field K_N")
    p = sub.add_parser(
        "table1",
        parents=[common],
        help="reference constants for the six smallest interesting conductors",
    )
    p.set_defaults(func=cmd_table1)
    command(sub, "classify", cmd_classify, "unit-reducibility verdict for K_N")

    real = sub.add_parser("real", help="commands for the maximal totally real subfield K_N+")
    real_sub = real.add_subparsers(dest="real_command", metavar="{classify,witness}")
    command(real_sub, "classify", cmd_real_classify, "verdict for K_N+")
    p = command(real_sub, "witness", cmd_real_witness, "half-degree witness at N = p^n", budget)
    p.add_argument("--verify", action="store_true", help="certify by exhaustive enumeration")

    for name, func, help in (
        ("shortest", cmd_shortest, "minimum of the trace form of a over K_N"),
        ("mustar", cmd_mustar, "minimum of the trace form of a over units"),
        ("reduced", cmd_reduced, "whether no unit beats u = 1 in the form of a"),
    ):
        p = command(sub, name, func, help, budget)
        p.add_argument("-a", "--element", required=True, metavar="C0,C1,...")

    command(sub, "eta", cmd_eta, "smallest prime-ideal norm in K_N")
    p = command(sub, "witness", cmd_witness, "reduction witness at N = p^n", budget)
    p.add_argument("--verify", action="store_true", help="certify by exhaustive enumeration")
    command(sub, "delta-bound", cmd_delta_bound, "lower bound for the reduction discrepancy")

    p = command(
        sub, "check-eq4", cmd_check_eq4, "randomized check of the trace-lifting identity K_N -> K_M"
    )
    p.add_argument("M", type=int)
    p.add_argument("--trials", type=_positive_int, default=25, metavar="T")
    p.add_argument(
        "--seed",
        type=_u64,
        default=DEFAULT_SEED,
        metavar="SEED",
        help=f"seed for randomized checks (default {DEFAULT_SEED})",
    )

    p = sub.add_parser(
        "l75", parents=[common], help="exhaustive scan of the rounding inequality for Q"
    )
    p.add_argument("p", type=int, choices=(3, 5, 7))
    p.add_argument("--box", type=_positive_int, metavar="R", help="box radius (default p)")
    p.set_defaults(func=cmd_l75)

    p = sub.add_parser("sweep", help="classify a range of conductors, one JSON line each")
    p.add_argument("range", type=_range_pair, metavar="N1..N2")
    p.set_defaults(func=cmd_sweep)

    return parser


def run(argv: list[str]) -> CommandResult:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", 0) is None:  # --budget not given
        args.budget = DEFAULT_NODE_CAP
    elif getattr(args, "verify", True) is False:  # a witness enumerates only then
        args.usage_error("--budget needs --verify")
    func = getattr(args, "func", None)
    if func is None:
        return CommandResult(2, error="missing command (try --help)")
    try:
        res = func(args)
    except BudgetError as exc:
        return CommandResult(
            3,
            error=(
                f"budget exceeded: {exc} "
                f"(nodes {exc.nodes}, results {exc.results}); raise --budget to retry"
            ),
        )
    except VerificationError as exc:
        return CommandResult(1, error=f"verification failed: {exc}")
    except DegreeError as exc:
        return CommandResult(3, error=str(exc))
    except (ValueError, ZeroDivisionError) as exc:  # the other library errors subclass ValueError
        return CommandResult(2, error=str(exc))
    res.json_out = res.json_out or getattr(args, "json", False)
    return res


def main(argv: list[str] | None = None) -> int:
    res = run(sys.argv[1:] if argv is None else argv)
    if res.error:
        print(res.error, file=sys.stderr)
    if res.payload is not None and res.json_out:
        print(dumps_canonical(res.payload))
    elif res.text:
        print(res.text)
    return res.exit_code


if __name__ == "__main__":
    sys.exit(main())
