"""Command-line front end.

Subcommands: exp | basis | oracle | table | centers | gamma | verify;
oracle is basis --strategy oracle.  Flags on every subcommand:
-p/--prime, --format (choices per subcommand), --out FILE; verify also
takes --seed N.  Everything runs in this one process.  Exit codes:
0 success, 1 failed verification property, 2 usage or desk-guard error
or an unwritable --out, 3 strategy precondition failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import atlas, basisfactory, fastexp, oracle
from .basisfactory import NotInGammaError
from .derivmod import BasisPair, Multiplicity, as_multiplicity
from .fpcore import GuardError, Prime

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_STRATEGY = 3


def _parse_ints(text: str, n: int = 3) -> tuple[int, ...]:
    """n comma-separated integers: --mu, --box (three) and --range (two)."""
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {('two', 'three')[n - 2]} comma-separated values, got {text!r}")
    return tuple(int(t) for t in parts)


def _parse_mu(text: str) -> Multiplicity:
    return as_multiplicity(_parse_ints(text))


def _field_json(field) -> dict:
    return {
        "degree": field.degree if field.degree is not None else 0,
        "dx": [[i, j, c] for i, j, c in field.f.terms()],
        "dy": [[i, j, c] for i, j, c in field.g.terms()],
    }


def _report_json(report: fastexp.ExponentReport) -> dict:
    return {
        "p": report.p,
        "mu": list(report.mu),
        "delta": report.delta,
        "exp": list(report.exponents),
        "tag": report.tag,
        "k": report.k,
        "center": list(report.center) if report.center is not None else None,
        "alpha": list(report.alpha) if report.alpha is not None else None,
        "beta": list(report.beta) if report.beta is not None else None,
    }


def _report_text(report: fastexp.ExponentReport) -> str:
    lines = [
        f"p: {report.p}",
        f"mu: {tuple(report.mu)}",
        f"delta: {report.delta}",
        f"exp: {report.exponents}",
        f"tag: {report.tag}",
        f"k: {report.k}",
    ]
    if report.center is not None:
        lines.append(f"center: {tuple(report.center)}")
        lines.append(f"radius: {report.radius}")
    return "\n".join(lines) + "\n"


def _basis_text(mu, pair: BasisPair, trace, strategy: str) -> str:
    lines = [
        f"mu: {tuple(mu)}",
        f"strategy: {strategy}",
        f"exp: {pair.exponents}",
        f"low:  {pair.low.to_text()}",
        f"high: {pair.high.to_text()}",
        f"trace: [{', '.join(str(t) for t in trace)}]",
        f"certified: {'true' if pair.certified else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def _basis_json(p, mu, pair: BasisPair, trace, strategy: str) -> dict:
    return {
        "p": p,
        "mu": list(mu),
        "strategy": strategy,
        "exp": list(pair.exponents),
        "trace": [str(t) for t in trace],
        "low": _field_json(pair.low),
        "high": _field_json(pair.high),
        "certified": pair.certified,
    }


def _common_flags(sp: argparse.ArgumentParser, run, formats=("text", "json")) -> None:
    sp.set_defaults(run=run)
    sp.add_argument("-p", "--prime", type=int, required=True)
    sp.add_argument("--format", choices=formats, default="text")
    sp.add_argument("--out", default=None)
    # accepted and ignored: the cli-mix benchmark workload passes --workers 1
    sp.add_argument("--workers", type=int, help=argparse.SUPPRESS)


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="triarr",
        description=(
            "Exponents and explicit bases of the logarithmic vector fields of "
            "the three-line multiarrangement x^m1 y^m2 (x+y)^m3 over F_p."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exp", help="exponent gap / pair / component for one mu")
    _common_flags(sp, _cmd_exp)
    sp.add_argument("--mu", required=True)

    sp = sub.add_parser("basis", help="certified basis for one mu")
    _common_flags(sp, _cmd_basis)
    sp.add_argument("--mu", required=True)
    sp.add_argument("--strategy", choices=("plan", "oracle", "psi"), default="plan")

    sp = sub.add_parser("oracle", help="same as basis --strategy oracle")
    _common_flags(sp, _cmd_basis)
    sp.add_argument("--mu", required=True)
    sp.set_defaults(strategy="oracle")

    sp = sub.add_parser("table", help="render a lattice atlas")
    _common_flags(sp, _cmd_table, formats=("text", "ascii", "csv", "json", "svg"))
    sp.add_argument("--mode", choices=atlas.MODES, default="m3")
    sp.add_argument("--m", type=int, default=None, help="third coordinate (mode m3)")
    sp.add_argument("--total", type=int, default=None, help="|mu| (mode sum)")
    sp.add_argument("--range", dest="range_", default="20,20", help="max mu1,mu2")
    sp.add_argument("--cell", choices=atlas.CELLS, default="delta")
    sp.add_argument("--mark-centers", action="store_true")

    sp = sub.add_parser("centers", help="enumerate component centers in a box")
    _common_flags(sp, _cmd_centers)
    sp.add_argument("-k", type=int, required=True, help="radius exponent (p^k)")
    sp.add_argument("--box", required=True)

    sp = sub.add_parser("gamma", help="binomial-basis region data at level m")
    _common_flags(sp, _cmd_gamma)
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("--mu", default=None, help="optionally test one mu triple")

    sp = sub.add_parser("verify", help="run verification suites")
    _common_flags(sp, _cmd_verify, formats=("text",))
    sp.add_argument("--box", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--suite", default="golden", help="comma-separated suite names")
    ap.commands = sub.choices  # name -> subcommand parser, for parse_command
    return ap


def parse_command(argv=None) -> argparse.Namespace:
    """build_parser().parse_args(argv), in one pass when argv[0] names a subcommand."""
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sp = ap.commands.get(argv[0]) if argv else None
    if sp is None:  # no command, -h, an unknown command or an option first
        return ap.parse_args(argv)
    args, extra = sp.parse_known_args(argv[1:])
    if extra:  # reported as parse_args reports them, under the top usage line
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


# Each handler returns the output: a string as is, anything else as JSON.
# Only verify also returns an exit code.  main has made args.prime a Prime.


def _cmd_exp(args):
    report = fastexp.fast_exponents(_parse_mu(args.mu), args.prime)
    return _report_json(report) if args.format == "json" else _report_text(report)


def _cmd_basis(args):
    p, mu = args.prime, _parse_mu(args.mu)
    trace = []
    if args.strategy == "plan":
        pair, trace = basisfactory.plan_basis(mu, p)
    elif args.strategy == "oracle":
        _, _, pair = oracle.oracle_exponents(mu, p)
    else:
        pair = basisfactory.psi_basis(mu, p)
    if args.format == "json":
        return _basis_json(p, mu, pair, trace, args.strategy)
    return _basis_text(mu, pair, trace, args.strategy)


def _cmd_table(args):
    flag, value = ("--m", args.m) if args.mode == "m3" else ("--total", args.total)
    if value is None:
        raise ValueError(f"mode {args.mode} requires {flag}")
    r1, r2 = _parse_ints(args.range_, 2)
    spec = atlas.AtlasSpec(
        p=args.prime,
        mode=args.mode,
        value=value,
        max_mu1=r1,
        max_mu2=r2,
        cell=args.cell,
        mark_centers=args.mark_centers,
    )
    grid = atlas.build_atlas(spec)
    render = {
        "csv": atlas.render_csv,
        "json": atlas.render_json_obj,
        "svg": atlas.render_svg,
    }.get(args.format, atlas.render_ascii)
    return render(grid)


def _cmd_centers(args):
    cs = fastexp.enumerate_centers(args.prime, args.k, _parse_mu(args.box))
    if args.format == "json":
        return {
            "p": int(args.prime),
            "k": cs.k,
            "radius": cs.radius,
            "box": list(cs.box),
            "centers": [list(z) for z in cs.centers],
        }
    lines = [f"centers of radius {cs.radius} within {tuple(cs.box)}:"]
    lines += [f"  {tuple(z)}" for z in cs.centers]
    return "\n".join(lines) + "\n"


def _cmd_gamma(args):
    gs = basisfactory.gamma_slice(args.m, args.prime)
    mu = member = None
    if args.mu is not None:
        mu = _parse_mu(args.mu)
        member = basisfactory.gamma_membership(mu, args.prime)
    if args.format == "json":
        obj = {
            "p": int(args.prime),
            "m": args.m,
            "g_set": gs.g_set,
            "s_set": gs.maximal_elements,  # triples encode as JSON arrays
            "b_set": gs.minimal_complement,
        }
        if mu is not None:
            obj["mu"] = list(mu)
            obj["member"] = member
        return obj
    lines = [
        f"m: {args.m}",
        f"g_set: {gs.g_set}",
        f"s_set: {[tuple(s) for s in gs.maximal_elements]}",
        f"b_set: {[tuple(b) for b in gs.minimal_complement]}",
    ]
    if mu is not None:
        lines.append(f"member({tuple(mu)}): {'true' if member else 'false'}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args):
    from . import verify  # only this command loads the suites

    names = [t.strip() for t in args.suite.split(",") if t.strip()]
    box = _parse_mu(args.box) if args.box else None
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    results = verify.run_suites(names, args.prime, box=box, seed=seed)
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append("all suites passed" if ok else "FAILURES detected")
    return "\n".join(lines) + "\n", EXIT_OK if ok else EXIT_PROPERTY


def main(argv=None) -> int:
    try:
        args = parse_command(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        args.prime = Prime(args.prime)  # every subcommand takes -p
        result = args.run(args)
    except NotInGammaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRATEGY
    except (GuardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    code = EXIT_OK
    if isinstance(result, tuple):
        result, code = result
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write(fh, result)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        _write(sys.stdout, result)
    return code


def _write(fh, result) -> None:
    """A string as is; anything else as indented JSON, streamed chunk by chunk."""
    if isinstance(result, str):
        fh.write(result)
    else:
        json.dump(result, fh, indent=2)
        fh.write("\n")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
