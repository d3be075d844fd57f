"""Command-line driver: validate fixtures, evaluate shapes, check
derivation scripts, and run the shipped demos.

Exit codes: 0 all checks passed, 1 a verification failed, 2 malformed
input (unknown commands, missing bindings, unparsable files, bound
fixtures that fail validation), 3 an internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .fincat import (FixtureError, load_fixture_file, validate_category,
                     validate_functor, validate_monoidal)
from .shapelang import (Env, EvalError, Report, ShapeSyntaxError, ShapeTypeError,
                        StructureMissing, boundary, objects_in, parse_shape_script,
                        sweep)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_MALFORMED = 2
EXIT_INTERNAL = 3


class InputError(Exception):
    pass


def _parse_bindings(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise InputError(f"binding {pair!r} is not SYM=PATH")
        sym, path = pair.split("=", 1)
        sym = sym.strip()
        if sym in out:
            raise InputError(f"category symbol {sym!r} is bound twice")
        try:
            cat, mon = load_fixture_file(path)
        except (OSError, FixtureError) as e:
            raise InputError(f"cannot load fixture {path!r}: {e}")
        rep = validate_category(cat)
        if rep.ok and mon is not None:
            rep = validate_monoidal(mon)
        _require(rep, f"fixture {path!r}")
        out[sym] = mon if mon is not None else cat
    return out


def _require(rep, what):
    if not rep.ok:
        raise InputError(f"{what} fails validation: {rep.violations[0]} "
                         f"({len(rep.violations)} violation(s))")


def _env(sig, bindings):
    """The oracle environment, once each declared functor is a functor."""
    env = Env(sig, bindings)
    for name, fn in env.functors.items():
        _require(validate_functor(fn), f"functor {name!r}")
    return env


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(str(e))


def _announce(count):
    """Tell a user at a terminal how many assignments the sweep checks."""
    if sys.stderr.isatty():
        print(f"coendcheck: {count} assignment{'' if count == 1 else 's'} to sweep",
              file=sys.stderr)


def _emit(report: Report, fmt):
    if fmt == "json":
        print(json.dumps(report.data(), indent=1, sort_keys=True))
    else:
        sys.stdout.write(report.text())


def cmd_validate(args):
    report = Report()
    try:
        cat, mon = load_fixture_file(args.fixture)
    except (OSError, FixtureError) as e:
        raise InputError(str(e))
    reps = [validate_category(cat)]
    if mon is not None and reps[0].ok:
        reps.append(validate_monoidal(mon))
    for rep in reps:
        report.line(str(rep))
        report.failures += map(str, rep.violations)
    _emit(report, args.format)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_eval(args):
    if not args.shape:
        raise InputError("eval needs --shape NAME")
    try:
        sig = parse_shape_script(_read(args.script))
    except ShapeSyntaxError as e:
        raise InputError(str(e))
    if args.shape not in sig.shapes:
        raise InputError(f"no shape named {args.shape!r}")
    term = sig.shapes[args.shape]
    bindings = _parse_bindings(args.bind)
    report = Report()
    try:
        bnd = boundary(term, sig)
        env = _env(sig, bindings)
        only = objects_in(term)
        for k, ev in enumerate(sweep(env, only)):
            desc = ev.env.describe_objs()
            if desc:
                report.line(f"assignment: {desc}")
            prof = ev.node(term)
            if k == 0:  # the inputs are valid: the others read the same bindings
                _announce(env.assignment_count(only))
            if bnd == ((), ()):
                fib = prof.fiber(0, 0)
                report.line(f"classes: {len(fib)}")
                for v in fib:
                    report.line(f"  {prof.render(v)}")
            else:
                src, tgt = prof.source, prof.target
                sizes = [(a, b, len(prof.fiber(a, b)))
                         for a in src.objects for b in prof.support(a)]
                for a, b, n in sizes:
                    report.line(f"  fiber ({src.obj_name(a)},{tgt.obj_name(b)}): {n}")
                report.line(f"classes: {sum(n for _, _, n in sizes)}")
    except (ShapeTypeError, EvalError, StructureMissing, FixtureError) as e:
        raise InputError(str(e))
    _emit(report, args.format)
    return EXIT_OK


def cmd_check(args):
    # the checking layer is loaded by the one command that checks
    from .rewrite import (RewriteError, check_derivation, load_derivation_script,
                          script_object_symbols)
    base = os.path.dirname(os.path.abspath(args.script))
    try:
        sig, script = load_derivation_script(
            _read(args.script), lambda ref: _read(os.path.join(base, ref)))
    except (ShapeSyntaxError, RewriteError) as e:
        raise InputError(str(e))
    bindings = _parse_bindings(args.bind)
    try:
        env = _env(sig, bindings)
        _announce(env.assignment_count(script_object_symbols(script, sig)))
        report = check_derivation(script, sig, env, fail_fast=args.fail_fast)
    except (EvalError, FixtureError, StructureMissing) as e:
        # the bindings lack a structure or named profunctor that a shape
        # needs; a step that needs one fails instead
        raise InputError(str(e))
    _emit(report, args.format)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_demo(args):
    from .demos import DEMOS, run_demo
    if args.name == "list":
        report = Report()
        for name, spec in sorted(DEMOS.items()):
            report.line(f"{name}: {spec['blurb']}")
        _emit(report, args.format)
        return EXIT_OK
    if args.name not in DEMOS:
        raise InputError(f"unknown demo {args.name!r}; known: {', '.join(sorted(DEMOS))}")
    report = run_demo(args.name, fail_fast=args.fail_fast)
    _emit(report, args.format)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


@functools.cache
def build_parser():
    """The command-line parser, built once per process.  Commands are
    looked up in main at each call, not bound here."""
    ap = argparse.ArgumentParser(
        prog="coendcheck",
        description="verify shape evaluations and rewrite derivations "
                    "against finite profunctor oracles")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="validate a category fixture file")
    p.add_argument("fixture")

    p = sub.add_parser("eval", help="evaluate a shape from a shape script")
    p.add_argument("script")
    p.add_argument("--shape", required=False)
    p.add_argument("--bind", action="append", metavar="SYM=PATH")

    p = sub.add_parser("check", help="check a derivation script")
    p.add_argument("script")
    p.add_argument("--bind", action="append", metavar="SYM=PATH")
    p.add_argument("--fail-fast", action="store_true")

    p = sub.add_parser("demo", help="run a shipped demo (or 'list')")
    p.add_argument("name")
    p.add_argument("--fail-fast", action="store_true")

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "command", None):
        ap.print_help()
        return EXIT_MALFORMED
    fn = {"validate": cmd_validate, "eval": cmd_eval, "check": cmd_check,
          "demo": cmd_demo}[args.command]
    try:
        return fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception as e:  # noqa: BLE001 - a crash must not read as a failed proof
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
