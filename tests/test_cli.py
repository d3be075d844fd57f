import argparse
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coendcheck
from coendcheck import cli, fincat, pointed, profunctor, rewrite, shapelang
from coendcheck.cli import main
from coendcheck.demos import demo_dir
from coendcheck.fixtures import (FIXTURE_NAMES, bad_fixture_names, bad_fixture_path,
                                 fixture_path)


def demo_path(name):
    return str(demo_dir() / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_good_fixture(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("z2"))
    assert code == 0
    assert "ok" in out


def test_validate_bad_fixture(capsys):
    code, out, _ = run(capsys, "validate", bad_fixture_path("bad-z2-identity"))
    assert code == 1
    assert "identity" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/fixture.json")
    assert code == 2


# the modules that only checking needs: evaluation and validation load none
CHECKING = {"coendcheck.rewrite", "coendcheck.pointed", "coendcheck.optics",
            "coendcheck.demos"}
# what a `dataclasses` record costs at import (inspect loads ast, dis and
# tokenize): no command loads either
RECORD_IMPORTS = {"dataclasses", "inspect"}


def _loaded_after(code):
    """The coendcheck modules, and those of RECORD_IMPORTS, that a fresh
    interpreter has loaded once it has run `code`, which must print
    nothing."""
    code += ("\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.startswith('coendcheck')"
             f" or m in {sorted(RECORD_IMPORTS)!r}))")
    src = str(Path(coendcheck.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def test_import_loads_no_submodule():
    assert _loaded_after("import coendcheck") == {"coendcheck"}


@pytest.mark.parametrize("argv", [
    ["eval", demo_path("lens.shapes"), "--shape", "lens-composite",
     "--bind", f"C={fixture_path('prod-l2-z2')}"],
    ["validate", fixture_path("z2")],
], ids=["eval", "validate"])
def test_eval_and_validate_load_no_checking_module(argv):
    loaded = _loaded_after("import contextlib, io\n"
                           "from coendcheck import cli\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           f"    assert cli.main({argv!r}) == 0\n")
    assert "coendcheck.cli" in loaded and not loaded & (CHECKING | RECORD_IMPORTS)


def test_demo_runs_load_no_module_after_the_demos_import():
    # a demo's verdict pays for no import: loading the demos module loads
    # every module a demo run reaches
    before = _loaded_after("import coendcheck.demos")
    after = _loaded_after("from coendcheck.demos import DEMOS, run_demo\n"
                          "for name in DEMOS:\n"
                          "    assert run_demo(name).ok, name\n")
    assert CHECKING <= before and after == before and not before & RECORD_IMPORTS


def test_every_public_name_is_its_modules_object(monkeypatch):
    # each name is read from its module at every access, never kept in the
    # package: a name rebound in its module (by a tracer) is read through
    namespace = {}
    exec("from coendcheck import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(coendcheck.__all__)
    # dir() lists them too, though none is bound in the package
    assert set(coendcheck.__all__) <= set(dir(coendcheck))
    for name, owner in coendcheck._OWNER.items():
        module = sys.modules[f"coendcheck.{owner}"]
        want = module if owner == name else getattr(module, name)
        assert namespace[name] is getattr(coendcheck, name) is want, name
    monkeypatch.setattr(rewrite, "check_derivation", lambda *args: None)
    assert coendcheck.check_derivation is rewrite.check_derivation
    with pytest.raises(AttributeError):
        coendcheck.no_such_name


def test_eval_feedback_z2_prints_two_classes(capsys):
    code, out, _ = run(capsys, "eval", demo_path("feedback.shapes"),
                       "--shape", "feedback", "--bind",
                       f"C={fixture_path('z2')}")
    assert code == 0
    assert "classes: 2" in out


def test_eval_sweeps_only_the_symbols_of_the_shape(capsys):
    # lens reads A, B, X and Y of the six object symbols of lens.shapes:
    # over meet-lattice-2 that is 16 assignments, each evaluated once
    code, out, _ = run(capsys, "eval", demo_path("lens.shapes"), "--shape", "lens",
                       "--bind", f"C={fixture_path('meet-lattice-2')}")
    heads = [line for line in out.splitlines() if line.startswith("assignment: ")]
    assert code == 0 and len(heads) == len(set(heads)) == 16
    assert heads[0] == "assignment: A=0 B=0 X=0 Y=0"


def test_eval_of_an_open_shape_lists_its_fibers(capsys):
    code, out, err = run(capsys, "eval", demo_path("adjunctions.shapes"), "--shape", "in-leg",
                         "--bind", f"C={fixture_path('meet-lattice-2')}",
                         "--bind", f"D={fixture_path('z2')}")
    assert (code, err) == (0, "")
    assert out == ("assignment: A=0\n  fiber (*,0): 1\n  fiber (*,1): 1\nclasses: 2\n"
                   "assignment: A=1\n  fiber (*,1): 1\nclasses: 1\n")


def test_eval_unknown_shape(capsys):
    code, _, err = run(capsys, "eval", demo_path("feedback.shapes"),
                       "--shape", "nope", "--bind", f"C={fixture_path('z2')}")
    assert code == 2


@pytest.mark.parametrize("argv, err", [
    (("eval", demo_path("feedback.shapes")), "error: eval needs --shape NAME\n"),
    (("eval", demo_path("feedback.shapes"), "--shape", "feedback", "--bind", "C"),
     "error: binding 'C' is not SYM=PATH\n"),
], ids=["no-shape", "bind-without-equals"])
def test_malformed_eval_arguments_exit_2_with_one_line(capsys, argv, err):
    code, out, got = run(capsys, *argv)
    _one_line_exit_2(code, out, got)
    assert got == err


def test_eval_missing_binding(capsys):
    code, _, err = run(capsys, "eval", demo_path("feedback.shapes"),
                       "--shape", "feedback")
    assert code == 2


def test_check_lens_reduction(capsys):
    code, out, _ = run(capsys, "check", demo_path("lens_reduction.deriv"),
                       "--bind", f"C={fixture_path('meet-lattice-2')}")
    assert code == 0
    assert out.count("assignment:") == 16
    assert "result: ok" in out


def test_check_backward_directed_rejected(capsys):
    code, out, _ = run(capsys, "check", demo_path("bad_backward.deriv"),
                       "--bind", f"C={fixture_path('z2')}")
    assert code == 1
    assert "step 1" in out and "directed" in out


def test_check_structure_missing(capsys):
    code, out, _ = run(capsys, "check", demo_path("bad_structure.deriv"),
                       "--bind", f"C={fixture_path('z2')}")
    assert code == 1
    assert "step 1" in out and "cartesian" in out


def test_check_of_a_shape_the_bindings_cannot_evaluate_exits_2(capsys, tmp_path):
    # the shape needs a monoidal structure the bound fixture lacks, or a
    # named profunctor check cannot bind: malformed input, as under eval
    data = json.loads(open(fixture_path("z2"), encoding="utf-8").read())
    del data["monoidal"]
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", demo_path("lens_apply.deriv"), "--bind", f"C={plain}")
    _one_line_exit_2(code, out, err)
    assert err == "error: category 'C' carries no monoidal structure\n"
    (tmp_path / "k.shapes").write_text(
        "(category C) (prof K (C) (C)) (shape k (seq (id C @w) (named K)))\n")
    script = tmp_path / "k.deriv"
    script.write_text("use k.shapes\nderive k\nstep R-YONEDA-L at 0\n")
    code, out, err = run(capsys, "check", str(script), "--bind", f"C={fixture_path('z2')}")
    _one_line_exit_2(code, out, err)
    assert err == "error: named profunctor 'K' is unbound\n"
    # a later step the binding cannot carry is not refused before the
    # sweep: the sweep evaluates the shape at step 1 and refuses the input
    script = _step_script(tmp_path, "lens.shapes", "lens",
                          "step R-YONEDA-L at 0 backward with {label := w}\n"
                          "  step R-CART-FORK at 2")
    code, out, err = run(capsys, "check", script, "--bind", f"C={plain}")
    _one_line_exit_2(code, out, err)
    assert err == "error: category 'C' carries no monoidal structure\n"
    # nor is a derivation refused before the sweep for a later step that
    # fails on the term alone: the bindings are checked against its shape
    # first, as the sweep's first evaluation would
    script = _step_script(tmp_path, "lens.shapes", "lens",
                          "step R-YONEDA-L at 0 backward with {label := w}\n"
                          "  step R-ETA-A at 9 with {A := A}")
    code, out, err = run(capsys, "check", script, "--bind", f"C={plain}")
    _one_line_exit_2(code, out, err)
    assert err == "error: category 'C' carries no monoidal structure\n"


def test_malformed_shape_script(capsys):
    code, _, err = run(capsys, "eval", demo_path("bad_syntax.shapes"),
                       "--shape", "broken", "--bind",
                       f"C={fixture_path('z2')}")
    assert code == 2


def test_demo_exit_codes_and_determinism(capsys):
    code1, out1, _ = run(capsys, "demo", "points")
    code2, out2, _ = run(capsys, "demo", "points")
    assert code1 == code2 == 0
    assert out1 == out2


def test_demo_list(capsys):
    from coendcheck.demos import DEMOS
    code, out, err = run(capsys, "demo", "list")
    assert (code, err) == (0, "")
    assert out == "".join(f"{name}: {spec['blurb']}\n" for name, spec in sorted(DEMOS.items()))
    assert len(out.splitlines()) == 11


def test_demo_unknown(capsys):
    code, out, err = run(capsys, "demo", "nope")
    _one_line_exit_2(code, out, err)
    assert err.startswith("error: unknown demo 'nope'; known: adjunctions, ")


def test_demo_internal_key_error_exits_3(capsys, monkeypatch):
    # only an unknown demo name is malformed input; a KeyError raised inside
    # the run is an internal error
    def crash(*args):
        raise KeyError("internal")
    monkeypatch.setattr(profunctor.CoendSet, "rep", crash)
    code, out, err = run(capsys, "demo", "points")
    assert (code, out, err) == (3, "", "internal error: KeyError: 'internal'\n")


def test_json_format(capsys):
    code, out, _ = run(capsys, "demo", "points", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["lines"]


def test_no_command_shows_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2


def test_fail_fast_stops_early(capsys):
    code, out, _ = run(capsys, "check", demo_path("bad_backward.deriv"),
                       "--bind", f"C={fixture_path('z2')}", "--fail-fast")
    assert code == 1


@pytest.mark.parametrize("argv", [("validate", fixture_path("z2")),
                                  ("eval", demo_path("lens.shapes"), "--shape", "lens")])
def test_fail_fast_is_an_option_of_check_and_demo_only(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--fail-fast"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --fail-fast" in capsys.readouterr().err
    assert run(capsys, "demo", "points", "--fail-fast")[0] == 0


def test_validate_non_object_fixture(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_check_malformed_obligation(capsys, tmp_path):
    (tmp_path / "leg.shapes").write_text("(category C) (object A C)\n"
                                         "(shape in-leg (inport A))\n")
    script = tmp_path / "leg.deriv"
    script.write_text("use leg.shapes\nderive in-leg\nobligation identity 1 x\n")
    code, out, err = run(capsys, "check", str(script),
                         "--bind", f"C={fixture_path('z2')}")
    assert code == 2
    assert out == ""
    assert err == "error: malformed obligation: 'obligation identity 1 x'\n"


def _one_line_exit_2(code, out, err):
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_functor_to_unknown_object_exits_2(capsys):
    binds = ["--bind", f"C={fixture_path('z2')}", "--bind", f"D={fixture_path('z2')}"]
    code, out, err = run(capsys, "check", demo_path("adjunctions.deriv"), *binds)
    _one_line_exit_2(code, out, err)
    assert "unknown object '0' in z2" in err
    code, out, err = run(capsys, "eval", demo_path("adjunctions.shapes"),
                         "--shape", "in-leg", *binds)
    _one_line_exit_2(code, out, err)


def test_object_pinned_to_unknown_fixture_object_exits_2(capsys, tmp_path):
    (tmp_path / "pin.shapes").write_text("(category C) (object A C 9)\n"
                                         "(shape in-leg (inport A))\n")
    (tmp_path / "pin.deriv").write_text("use pin.shapes\nderive in-leg\n")
    bind = ("--bind", f"C={fixture_path('z2')}")
    _one_line_exit_2(*run(capsys, "eval", str(tmp_path / "pin.shapes"),
                          "--shape", "in-leg", *bind))
    _one_line_exit_2(*run(capsys, "check", str(tmp_path / "pin.deriv"), *bind))


MALFORMED = {
    "hom-unknown-object": lambda d: d["homs"].update({"0->9": ["f"]}),
    "compose-pair": lambda d: d["compose"].append(["id_0", "id_0"]),
    "tensor-mor-pair": lambda d: d["monoidal"]["tensor_mor"].append(["id_0", "id_0"]),
    "pairing-pair": lambda d: d["monoidal"]["cartesian"]["pairing"].append(["id_0", "id_0"]),
    "no-proj1": lambda d: d["monoidal"]["cartesian"].pop("proj1"),
    "no-unit": lambda d: d["monoidal"].pop("unit"),
    "name-null": lambda d: d.update(name=None),
    "name-number": lambda d: d.update(name=42),
    "objects-number": lambda d: d.update(objects=5),
    "objects-nested": lambda d: d.update(objects=[["x"]]),
    "homs-array": lambda d: d.update(homs=[]),
    "identities-string": lambda d: d.update(identities="x"),
    "monoidal-array": lambda d: d.update(monoidal=[]),
    "unit-array": lambda d: d["monoidal"].update(unit=["x"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_fixture_exits_2(capsys, tmp_path, case):
    with open(fixture_path("meet-lattice-2"), encoding="utf-8") as fh:
        data = json.load(fh)
    MALFORMED[case](data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    _one_line_exit_2(*run(capsys, "validate", str(path)))
    _one_line_exit_2(*run(capsys, "check", demo_path("lens_apply.deriv"),
                          "--bind", f"C={path}"))


@pytest.mark.parametrize("cmd", [("check", "lens_reduction.deriv"),
                                 ("eval", "lens.shapes", "--shape", "lens")])
@pytest.mark.parametrize("name", bad_fixture_names())
def test_bad_bound_fixture_exits_2(capsys, name, cmd):
    # a fixture failing validation is refused before any sweep
    code, out, err = run(capsys, cmd[0], demo_path(cmd[1]), *cmd[2:],
                         "--bind", f"C={bad_fixture_path(name)}")
    _one_line_exit_2(code, out, err)
    assert "fails validation: [" in err and "violation(s))" in err


@pytest.mark.parametrize("cmd", [("check", "lens_reduction.deriv"),
                                 ("eval", "lens.shapes", "--shape", "lens")])
@pytest.mark.parametrize("binds, err", [
    ([("C", "z2"), ("C", "meet-lattice-2")], "error: category symbol 'C' is bound twice\n"),
    ([("C", "meet-lattice-2"), ("Q", "z2")], "error: unknown category symbol 'Q'\n"),
], ids=["bound-twice", "unknown-symbol"])
def test_each_bound_symbol_is_declared_and_bound_once(capsys, cmd, binds, err):
    argv = [a for sym, name in binds for a in ("--bind", f"{sym}={fixture_path(name)}")]
    assert run(capsys, cmd[0], demo_path(cmd[1]), *cmd[2:], *argv) == (2, "", err)


def test_main_builds_one_parser_for_independent_calls(capsys, monkeypatch):
    # the parser is built once per process; each call still parses its own
    # arguments (no --bind or --fail-fast carries over) and dispatches to
    # the command bound at call time
    cli.build_parser.cache_clear()
    built = []
    real_init = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    seen = []
    real_check = cli.cmd_check

    def cmd_check(args):
        seen.append((list(args.bind), args.fail_fast))
        return real_check(args)
    monkeypatch.setattr(cli, "cmd_check", cmd_check)
    script = demo_path("lens_reduction.deriv")
    meet, z2 = fixture_path("meet-lattice-2"), fixture_path("z2")
    calls = [("check", script, "--bind", f"C={meet}", "--fail-fast"),
             ("check", script, "--bind", f"C={z2}")]
    results = [run(capsys, *argv) for argv in calls]
    assert built.count("coendcheck") == 1
    assert seen == [([f"C={meet}"], True), ([f"C={z2}"], False)]
    assert [code for code, _, _ in results] == [0, 1]
    for argv, got in zip(calls, results):
        cli.build_parser.cache_clear()
        assert run(capsys, *argv) == got


def test_internal_error_exits_3(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "cmd_validate", crash)
    code, out, err = run(capsys, "validate", fixture_path("z2"))
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def _crash(*args, **kwargs):
    raise RuntimeError("injected")


def _crash_transports(monkeypatch):
    real = rewrite.apply_step

    def apply_step(*args, **kwargs):
        new_term, _, inv = real(*args, **kwargs)
        return new_term, _crash, inv
    monkeypatch.setattr(rewrite, "apply_step", apply_step)


@pytest.mark.parametrize("fault", [
    _crash_transports,
    lambda mp: mp.setattr(profunctor.CoendSet, "rep", _crash),
    lambda mp: mp.setattr(pointed, "_leaf_value", _crash),
], ids=["transport", "coend-rep", "leaf-value"])
@pytest.mark.parametrize("argv", [
    ("check", demo_path("points.deriv"), "--bind", f"C={fixture_path('z2')}"),
    ("demo", "points"),
], ids=["check", "demo"])
def test_internal_crash_is_not_a_failed_proof(capsys, monkeypatch, fault, argv):
    # a bug inside a transport, a coend quotient or the point builder must
    # reach the internal-error exit, not read as a failed step or point
    fault(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "internal error: RuntimeError: injected\n")


def _crash_prof_actions(monkeypatch):
    init = profunctor.ConcreteProf.__init__

    def crashing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.act = _crash
    monkeypatch.setattr(profunctor.ConcreteProf, "__init__", crashing_init)


@pytest.mark.parametrize("fault", [
    lambda mp: mp.setattr(fincat.FinCategory, "compose", _crash),
    _crash_prof_actions,
    lambda mp: mp.setattr(shapelang.Evaluator, "node", _crash),
], ids=["category-compose", "prof-act", "evaluator-node"])
@pytest.mark.parametrize("argv", [
    ("check", demo_path("lens_reduction.deriv")),
    ("eval", demo_path("lens.shapes"), "--shape", "lens"),
], ids=["check", "eval"])
def test_internal_crash_in_evaluation_exits_3(capsys, monkeypatch, fault, argv):
    # the fixture is loaded and validated before the fault goes in, so the
    # crash happens in the sweep, not in the binding
    bindings = cli._parse_bindings([f"C={fixture_path('meet-lattice-2')}"])
    monkeypatch.setattr(cli, "_parse_bindings", lambda pairs: bindings)
    fault(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "internal error: RuntimeError: injected\n")


def _step_script(tmp_path, shapes, shape, step):
    (tmp_path / shapes).write_text((demo_dir() / shapes).read_text(encoding="utf-8"))
    script = tmp_path / "step.deriv"
    script.write_text(f"use {shapes}\nderivation x from {shape}\n  {step}\nend\n")
    return str(script)


# lens.shapes declares C; adjunctions.shapes declares C and D
STEP_BIND = ("--bind", f"C={fixture_path('meet-lattice-2')}")
ADJ_BIND = STEP_BIND + ("--bind", f"D={fixture_path('z2')}")


@pytest.mark.parametrize("spec,code", [
    ("(mor 0 0)", 0), ("(mor 1 1)", 0), ("(mor 0 Q)", 1), ("(split 0 0 1)", 1)])
def test_cobox_point_names_a_source_object(capsys, tmp_path, spec, code):
    # a cobox's right object lies in F's source: a name there resolves, an
    # unknown name or a wrong count fails the point
    shapes = (demo_dir() / "adjunctions.shapes").read_text(encoding="utf-8")
    (tmp_path / "adjunctions.shapes").write_text(shapes + "(shape cobox-leg (cobox F @c))\n")
    script = tmp_path / "point.deriv"
    script.write_text("use adjunctions.shapes\nderivation d from in-leg\nend\n"
                      f"point p cobox-leg {{c := {spec}}}\n")
    got, out, err = run(capsys, "check", str(script), *ADJ_BIND)
    assert (got, err) == (code, "")
    assert ("FAIL point p: " in out) == (code == 1)


@pytest.mark.parametrize("shapes,shape,step,message", [
    ("adjunctions.shapes", "in-leg", "step R-ETA-A at 0 with {A := Q}",
     "R-ETA-A: object symbol 'Q' is unassigned"),
    ("adjunctions.shapes", "box-leg", "step R-FUNCTOR-ADJ-ETA at 0 with {F := G}",
     "R-FUNCTOR-ADJ-ETA: unknown functor symbol 'G'"),
    ("lens.shapes", "lens", "step R-INTERCHANGE at 2 with {span1 := abc}",
     "R-INTERCHANGE: instantiation span1 must be an integer"),
    ("lens.shapes", "lens", "step R-INTERCHANGE at 2 backward with {cut1 := x, cut2 := 0}",
     "R-INTERCHANGE: instantiation cut1 must be an integer"),
])
def test_bad_step_instantiation_fails_the_step(capsys, tmp_path, shapes, shape,
                                               step, message):
    # an instantiation naming an unknown symbol or a non-integer cut or
    # span is a failed step (exit 1), not an internal error (exit 3)
    code, out, err = run(capsys, "check", _step_script(tmp_path, shapes, shape, step),
                         *(ADJ_BIND if shapes == "adjunctions.shapes" else STEP_BIND))
    assert (code, err) == (1, "")
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails and all(line == f"FAIL step 1 {message}" for line in fails)
    assert out.endswith("result: FAILURE\n")


@pytest.mark.parametrize("step,message", [
    ("step R-INTERCHANGE at 2 with {span1 := abc}",
     "R-INTERCHANGE: instantiation span1 must be an integer"),
    ("step R-INTERCHANGE at 2 backward with {cut1 := x, cut2 := 0}",
     "R-INTERCHANGE: instantiation cut1 must be an integer"),
    ("step R-NOPE at 2", "R-NOPE: unknown rule 'R-NOPE'"),
    ("step R-EPS-A at 1 backward", "R-EPS-A: R-EPS-A is directed; backward use rejected"),
    ("step R-ETA-A at 0 with {A := Q}", "R-ETA-A: object symbol 'Q' is unassigned"),
    # lens.shapes declares U, but no shape of the script uses it, so no
    # assignment assigns it
    ("step R-ETA-A at 0 with {A := U}", "R-ETA-A: object symbol 'U' is unassigned"),
    ("step R-ETA-A at 0 with {A := (tensor U A)}", "R-ETA-A: object symbol 'U' is unassigned"),
    ("step R-PORT-FUSE at 0 backward with {A := Q, B := A}",
     "R-PORT-FUSE: object symbol 'Q' is unassigned"),
    ("step R-PORT-FUSE at 0 backward with {A := A, B := 0}",
     "R-PORT-FUSE: object symbol 0 is unassigned"),
    ("step R-FUNCTOR-ADJ-ETA at 0 with {F := G}",
     "R-FUNCTOR-ADJ-ETA: unknown functor symbol 'G'"),
    ("step R-FUNCTOR-FUSE at 0 backward with {F := F, G := G}",
     "R-FUNCTOR-FUSE: unknown functor symbol 'F'"),
    # planned without a gate: the term alone fails them
    ("step R-ETA-A at 9 with {A := A}", "R-ETA-A: slice 9..9 out of range"),
    ("step R-INTERCHANGE at 2 backward with {cut1 := 9, cut2 := 0}",
     "R-INTERCHANGE: cut 9 out of range"),
    ("step R-INTERCHANGE at 2 with {span1 := 0}",
     "R-INTERCHANGE: empty interchange column"),
    ("step R-INTERCHANGE at 2 backward with {cut1 := 0, cut2 := 0}",
     "R-INTERCHANGE: backward R-INTERCHANGE cut produces a bare identity column"),
    # the port's functor is read at each assignment, but that read is no
    # check: the boundary check after it is the term's alone
    ("step R-ETA-A at 1 with {A := A}",
     "R-ETA-A: at 1: boundary mismatch: ...<C> then <>..."),
])
def test_assignment_free_step_failure_is_reported_once(capsys, tmp_path, step,
                                                       message):
    # the step fails whatever the assignment, so it fails once, before the
    # sweep (meet-lattice-2 gives lens 16 assignments)
    code, out, err = run(capsys, "check", _step_script(tmp_path, "lens.shapes", "lens", step),
                         *STEP_BIND)
    assert (code, err) == (1, "")
    assert out == f" derivation x from lens:\nFAIL step 1 {message}\nresult: FAILURE\n"


def test_assignment_free_failure_leaves_the_other_derivations(capsys, tmp_path):
    (tmp_path / "lens.shapes").write_text((demo_dir() / "lens.shapes").read_text(encoding="utf-8"))
    script = tmp_path / "two.deriv"
    script.write_text("use lens.shapes\n"
                      "derivation bad from lens\n  step R-NOPE at 2\nend\n"
                      "derivation good from lens\n  step R-CART-FORK at 1\nend\n")
    code, out, _ = run(capsys, "check", str(script), *STEP_BIND)
    lines = out.splitlines()
    assert code == 1
    assert lines[:2] == [" derivation bad from lens:", "FAIL step 1 R-NOPE: unknown rule 'R-NOPE'"]
    assert [line for line in lines if line.startswith("FAIL")] == lines[1:2]
    assert out.count("assignment:") == 16
    assert out.count(" derivation good from lens:") == out.count("step 1 R-CART-FORK ok") == 16


@pytest.mark.parametrize("path", ["-2", "0.-1"])
def test_a_negative_path_exits_2(capsys, tmp_path, path):
    # a path is non-negative child indices: a negative one is refused when
    # the script is parsed, not read by Python's negative indexing
    script = _step_script(tmp_path, "lens.shapes", "lens", f"step R-ETA-TENSOR at {path}")
    code, out, err = run(capsys, "check", script, *STEP_BIND)
    _one_line_exit_2(code, out, err)
    assert err == f"error: bad path '{path}'\n"


def test_instantiation_of_two_forms_exits_2(capsys, tmp_path):
    script = _step_script(tmp_path, "adjunctions.shapes", "in-leg",
                          "step R-ETA-A at 0 with {A := (a)(b)}")
    code, out, err = run(capsys, "check", script, *ADJ_BIND)
    _one_line_exit_2(code, out, err)
    assert "instantiation '(a)(b)' is not one value" in err


def _directive_mutants(text):
    """Every single-token drop, adjacent swap and replacement by Q on each
    directive line of a derivation script (comments stripped)."""
    lines = [raw.split(";", 1)[0].strip() for raw in text.splitlines()]
    for n, line in enumerate(lines):
        toks = line.split()
        edits = [toks[:i] + toks[i + 1:] for i in range(len(toks))]
        edits += [toks[:i] + [toks[i + 1], toks[i]] + toks[i + 2:]
                  for i in range(len(toks) - 1)]
        edits += [toks[:i] + ["Q"] + toks[i + 1:] for i in range(len(toks))]
        for toks2 in edits:
            yield "\n".join(lines[:n] + [" ".join(toks2)] + lines[n + 1:])


def _sexpr_mutants(text):
    """Every single-token drop and replacement by Q in a shape script, a
    parenthesis being a token."""
    body = "\n".join(raw.split(";", 1)[0] for raw in text.splitlines())
    toks = re.findall(r'[()]|"[^"]*"|[^\s()]+', body)
    for i in range(len(toks)):
        yield " ".join(toks[:i] + toks[i + 1:])
        yield " ".join(toks[:i] + ["Q"] + toks[i + 1:])


def test_mutated_shipped_scripts_never_exit_3(capsys, tmp_path):
    # malformed input exits 2 and a failed check 1: no one-token mutation
    # of a shipped script reaches the internal-error exit (about 4,800 runs)
    z2 = fixture_path("z2")
    scripts = {p.name: p.read_text(encoding="utf-8") for p in demo_dir().iterdir()}
    runs = 0
    for name, text in sorted(scripts.items()):
        if name.endswith(".deriv"):
            use = re.search(r"^use (\S+)", text, re.M).group(1)
            (tmp_path / use).write_text(scripts[use])
            path, cats, mutants = tmp_path / "mutant.deriv", scripts[use], _directive_mutants(text)
            argv = ["check", str(path)]
        elif name.endswith(".shapes"):
            first = re.search(r"\(shape ([\w-]+)", text).group(1)
            path, cats, mutants = tmp_path / "mutant.shapes", text, _sexpr_mutants(text)
            argv = ["eval", str(path), "--shape", first]
        else:
            continue
        for c in sorted(set(re.findall(r"\(category (\w+)", cats))):
            argv += ["--bind", f"{c}={z2}"]
        for mutant in mutants:
            path.write_text(mutant)
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2) and "internal error" not in err, (name, mutant, err)
            runs += 1
    assert runs > 4000


FUNCTOR_LINES = ["(functor F C D (obj (0 x) (1 x)) (mor (id_0 0) (id_1 0) (0<1 1)))",
                 "(functor G D C (obj (x 0)) (mor (0 id_0) (1 id_0)))",
                 "(shape box (seq (id C @w) (box F)))",
                 "(shape fcomp (box (fcomp F G)))"]


def test_functor_inputs_never_exit_3(capsys, tmp_path):
    # each name of a functor or box line put in place of each of its tokens
    # (about 800 runs): a map that is not a functor, or an fcomp whose
    # functors do not compose, is malformed input (exit 2), never an
    # internal error
    head = (demo_dir() / "adjunctions.shapes").read_text(encoding="utf-8")
    path = tmp_path / "functors.shapes"
    codes, runs = set(), 0
    for n, line in enumerate(FUNCTOR_LINES):
        toks = re.findall(r"[()]|[^\s()]+", line)
        names = sorted(set(toks) - set("()"))
        for i, tok in enumerate(toks):
            for name in names if tok not in "()" else ():
                mutant = FUNCTOR_LINES[:n] + [" ".join(toks[:i] + [name] + toks[i + 1:])]
                path.write_text(head + "\n".join(mutant + FUNCTOR_LINES[n + 1:]) + "\n")
                for shape in ("box", "fcomp"):
                    code, _, err = run(capsys, "eval", str(path), "--shape", shape, *ADJ_BIND)
                    assert code in (0, 2) and "internal error" not in err, (mutant, err)
                    codes.add(code)
                    runs += 1
    assert codes == {0, 2} and runs > 700


@pytest.mark.parametrize("edit,shape,message", [
    # F sends an identity to a non-identity: its check failed one step
    (("(id_0 0)", "(id_0 1)"), "box-leg",
     "functor 'F' fails validation: [functoriality] identity at 0 not preserved"
     " (3 violation(s))"),
    # F's map misses a morphism: evaluation read the missing entry
    ((" (0<1 1)", ""), "box-leg",
     "functor 'F' fails validation: [malformed] morphism map missing at 0<1"
     " (1 violation(s))"),
    # F;G with F, G: C -> D does not compose
    (("(shape box-leg (box F))", "(functor G C D (obj (0 x) (1 x)) "
      "(mor (id_0 0) (id_1 0) (0<1 1)))\n(shape box-leg (box (fcomp F G)))"), "box-leg",
     "functor composition mismatch"),
], ids=["not-a-functor", "map-misses-a-morphism", "fcomp-does-not-compose"])
def test_bad_functor_exits_2(capsys, tmp_path, edit, shape, message):
    shapes = (demo_dir() / "adjunctions.shapes").read_text(encoding="utf-8")
    assert edit[0] in shapes
    (tmp_path / "adjunctions.shapes").write_text(shapes.replace(*edit))
    script = tmp_path / "adjunctions.deriv"
    script.write_text((demo_dir() / "adjunctions.deriv").read_text(encoding="utf-8"))
    for argv in (("check", str(script)),
                 ("eval", str(tmp_path / "adjunctions.shapes"), "--shape", shape)):
        code, out, err = run(capsys, *argv, *ADJ_BIND)
        _one_line_exit_2(code, out, err)
        assert err == f"error: {message}\n"


def test_instantiation_by_a_functor_composite_that_does_not_compose_exits_2(capsys, tmp_path):
    script = _step_script(tmp_path, "adjunctions.shapes", "box-leg",
                          "step R-FUNCTOR-ADJ-ETA at 0 with {F := (fcomp F F)}")
    code, out, err = run(capsys, "check", script, *ADJ_BIND)
    _one_line_exit_2(code, out, err)
    assert err == "error: functor composition mismatch\n"


def _json_mutants(data):
    """Every drop of one key or list element, and every replacement of one
    scalar by "Q" or by null, anywhere in parsed JSON data."""
    if isinstance(data, dict):
        for key in data:
            yield {k: v for k, v in data.items() if k != key}
        for key, val in data.items():
            for m in _json_mutants(val):
                yield {**data, key: m}
    elif isinstance(data, list):
        for i in range(len(data)):
            yield data[:i] + data[i + 1:]
        for i, val in enumerate(data):
            for m in _json_mutants(val):
                yield data[:i] + [m] + data[i + 1:]
    else:
        yield "Q"
        yield None


@pytest.mark.parametrize("name", ["z2", "meet-lattice-2"])
def test_mutated_fixtures_never_exit_3(capsys, tmp_path, name):
    # a fixture that loads and validates is checked, any other is malformed
    # input: no one-place mutation of a shipped fixture reaches exit 3
    with open(fixture_path(name), encoding="utf-8") as fh:
        data = json.load(fh)
    path = tmp_path / "mutant.json"
    runs = 0
    for mutant in _json_mutants(data):
        path.write_text(json.dumps(mutant))
        for argv in (("eval", demo_path("lens.shapes"), "--shape", "lens-composite"),
                     ("check", demo_path("lens_reduction.deriv"))):
            code, _, err = run(capsys, *argv, "--bind", f"C={path}")
            assert code in (0, 1, 2) and "internal error" not in err, (mutant, argv, err)
            runs += 1
    assert runs > 200


def _truncations(text, cuts=20):
    """`text` cut short at `cuts` evenly spaced points."""
    return [text[:len(text) * k // (cuts + 1)] for k in range(1, cuts + 1)]


def test_truncated_inputs_never_exit_3(capsys, tmp_path):
    # a shipped script or fixture cut short anywhere is malformed input (or,
    # where the cut leaves a complete prefix, a checkable one): never exit 3
    z2 = fixture_path("z2")
    scripts = {p.name: p.read_text(encoding="utf-8") for p in demo_dir().iterdir()}
    jobs = []  # (file to write, its truncations, argv lists to run on it)
    for name, text in sorted(scripts.items()):
        if name.endswith(".deriv"):
            use = re.search(r"^use (\S+)", text, re.M).group(1)
            (tmp_path / use).write_text(scripts[use])
            path, cats = tmp_path / "cut.deriv", scripts[use]
            argv = ["check", str(path)]
        elif name.endswith(".shapes"):
            first = re.search(r"\(shape ([\w-]+)", text).group(1)
            path, cats = tmp_path / "cut.shapes", text
            argv = ["eval", str(path), "--shape", first]
        else:
            continue
        for c in sorted(set(re.findall(r"\(category (\w+)", cats))):
            argv += ["--bind", f"{c}={z2}"]
        jobs.append((path, _truncations(text), [argv]))
    fixtures = [fixture_path(n) for n in FIXTURE_NAMES]
    fixtures += [bad_fixture_path(n) for n in bad_fixture_names()]
    path = tmp_path / "cut.json"
    for fx in fixtures:
        with open(fx, encoding="utf-8") as fh:
            text = fh.read()
        jobs.append((path, _truncations(text), [
            ["validate", str(path)],
            ["eval", demo_path("lens.shapes"), "--shape", "lens", "--bind", f"C={path}"]]))
    runs = 0
    for path, cuts, argvs in jobs:
        for cut in cuts:
            path.write_text(cut)
            for argv in argvs:
                code, _, err = run(capsys, *argv)
                assert code in (0, 1, 2) and "internal error" not in err, (argv, cut, err)
                runs += 1
    assert runs > 800


def _sections_dropped(data):
    """`data` without one of its top-level keys, or without one key of its
    monoidal block, in turn."""
    for key in data:
        yield {k: v for k, v in data.items() if k != key}
    for key in data.get("monoidal", {}):
        yield data | {"monoidal": {k: v for k, v in data["monoidal"].items() if k != key}}


def test_fixtures_missing_a_section_never_exit_3(capsys, tmp_path):
    # a fixture that parses but lacks a section is malformed input (or, for
    # an optional section, a checkable fixture): never exit 3
    fixtures = [fixture_path(n) for n in FIXTURE_NAMES]
    fixtures += [bad_fixture_path(n) for n in bad_fixture_names()]
    path = tmp_path / "short.json"
    runs = 0
    for fx in fixtures:
        with open(fx, encoding="utf-8") as fh:
            data = json.load(fh)
        for short in _sections_dropped(data):
            path.write_text(json.dumps(short))
            for argv in (["validate", str(path)],
                         ["eval", demo_path("lens.shapes"), "--shape", "lens",
                          "--bind", f"C={path}"]):
                code, _, err = run(capsys, *argv)
                assert code in (0, 1, 2) and "internal error" not in err, (argv, short, err)
                runs += 1
    assert runs > 200


@pytest.mark.parametrize("spec", ["(mor 1 x)", "1"])
def test_point_on_a_named_leaf_fails_the_point(capsys, tmp_path, spec):
    # a named profunctor's values lie in no category, so a morphism spec
    # for its leaf cannot resolve: the point fails, it is no crash
    (tmp_path / "k.shapes").write_text(
        "(category C) (prof K (C) (C)) (shape k (named K @v))\n")
    script = tmp_path / "k.deriv"
    script.write_text(f"use k.shapes\nderivation d from k\nend\npoint p k {{v := {spec}}}\n")
    code, out, err = run(capsys, "check", str(script), "--bind", f"C={fixture_path('z2')}")
    assert (code, err) == (1, "")
    assert "FAIL point p: cannot resolve morphism" in out


def test_a_point_the_bindings_refuse_fails_once_before_the_sweep(capsys):
    # points.deriv names z2's morphisms 0 and 1, which diamond lacks: each
    # of its 6 points and each of the 3 assert-equals that name them fails
    # once, before the first of the 256 assignments, and not at each
    code, out, err = run(capsys, "check", demo_path("points.deriv"),
                         "--bind", f"C={fixture_path('diamond')}")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL ")]
    assert len(fails) == len(set(fails)) == 9
    assert sum(f.startswith("FAIL point ") for f in fails) == 6
    assert lines[:9] == fails and lines[9].startswith("assignment: ")
    assert sum(line.startswith("assignment: ") for line in lines) == 256


def _points_script(tmp_path, body):
    """A derivation script next to a copy of points.shapes."""
    (tmp_path / "points.shapes").write_text(
        (demo_dir() / "points.shapes").read_text(encoding="utf-8"))
    (tmp_path / "s.deriv").write_text("use points.shapes\n" + body)
    return str(tmp_path / "s.deriv")


def test_script_failures_no_assignment_decides_are_reported_once(capsys, tmp_path):
    # an assert-equal via no derivation, an assert-equal naming an undeclared
    # point, a derivation of an unknown shape and an obligation out of range
    # each fail once, before the first of the 4 assignments of A and B
    script = _points_script(tmp_path, (
        "derivation d from counit-src\nend\n"
        "point pg hom-pair {w1 := id_0, w2 := id_0}\n"
        "assert-equal pg pg via nope\nassert-equal pg zz via -\n"
        "derivation e from nosuch\nend\n"
        "derive hom-pair\nobligation identity 1 2\n"))
    code, out, err = run(capsys, "check", script, "--bind", f"C={fixture_path('meet-lattice-2')}")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[:6] == [" derivation e from nosuch:", "FAIL unknown shape 'nosuch'",
                         " derivation main from hom-pair:", "FAIL obligation 1..2 out of range",
                         "FAIL assert-equal: unknown derivation 'nope'",
                         "FAIL assert-equal: unknown point pg or zz"]
    assert lines[6] == "assignment: A=0 B=0"
    assert sum(line.startswith("FAIL ") for line in lines) == 4
    assert sum(line.startswith("assignment: ") for line in lines) == 4
    code, out, _ = run(capsys, "check", script, "--bind", f"C={fixture_path('meet-lattice-2')}",
                       "--fail-fast")
    assert (code, out) == (1, "\n".join(lines[:2] + ["result: FAILURE\n"]))


def test_a_deformation_no_assignment_can_use_fails_once(capsys, tmp_path):
    # a deformation with a directed step, or from a refused derivation,
    # fails its assert-equal once, before the sweep; `dir` is refused too,
    # since R-EPS-A matches no window at 1 of counit-src whatever the
    # assignment
    script = _points_script(tmp_path, (
        "derivation dir from counit-src\n  step R-EPS-A at 1\nend\n"
        "derivation bad from nosuch\n  step R-YONEDA-L at 0\nend\n"
        "point p hom-second {w2 := id_0}\n"
        "assert-equal p p via dir\nassert-equal p p via bad\nassert-equal p p via -\n"))
    code, out, err = run(capsys, "check", script, "--bind", f"C={fixture_path('meet-lattice-2')}")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[:6] == [" derivation dir from counit-src:",
                         "FAIL step 1 R-EPS-A: R-EPS-A expects outport then inport",
                         " derivation bad from nosuch:", "FAIL unknown shape 'nosuch'",
                         "FAIL assert-equal p p: deformations must be invertible; "
                         "R-EPS-A is directed",
                         "FAIL assert-equal p p: derivation 'bad' is refused"]
    assert lines[6].startswith("assignment: ")
    assert lines.count("  assert-equal p p via - ok") == 4
    assert sum(line.startswith("FAIL ") for line in lines) == 4


def test_a_step_that_no_assignment_reaches_is_not_blamed(capsys, tmp_path):
    # step 1 resolves the ports of (tensor X X), which the plain category
    # cannot: it fails at both assignments, and step 2, which does not
    # match the shape, is never reached, so never blamed
    data = json.loads(open(fixture_path("meet-lattice-2"), encoding="utf-8").read())
    del data["monoidal"]
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(data))
    (tmp_path / "s.shapes").write_text(
        "(category C) (object X C) (shape s (seq (inport X) (outport X)))\n")
    script = tmp_path / "s.deriv"
    script.write_text("use s.shapes\nderive s\n"
                      "step R-ETA-A at 2 with {A := (tensor X X)}\nstep R-SYM at 0\n")
    code, out, err = run(capsys, "check", str(script), "--bind", f"C={plain}")
    assert (code, err) == (1, "")
    fail = "FAIL step 1 R-ETA-A: category 'C' carries no monoidal structure"
    assert out.splitlines() == [
        "assignment: X=0", " derivation main from s:", fail,
        "assignment: X=1", " derivation main from s:", fail, "result: FAILURE"]


def test_a_sweep_with_no_assignment(capsys, tmp_path):
    # a category with no objects validates, and lens's A and B then have no
    # assignment: check reports once what the terms alone decide, with the
    # port read of step 1 left to a transform that never runs, and eval
    # prints nothing
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"name": "empty", "objects": [], "homs": {},
                                 "compose": [], "identities": {}}))
    bind = ("--bind", f"C={empty}")
    assert run(capsys, "validate", str(empty))[0] == 0
    script = _step_script(tmp_path, "lens.shapes", "lens",
                          "step R-ETA-A at 0 with {A := A}\n  step R-SYM at 0")
    assert run(capsys, "check", script, *bind) == (
        1, " derivation x from lens:\nFAIL step 2 R-SYM: R-SYM does not match this site\n"
        "result: FAILURE\n", "")
    script = _step_script(tmp_path, "lens.shapes", "lens", "step R-ETA-A at 0 with {A := A}")
    assert run(capsys, "check", script, *bind) == (0, "result: ok\n", "")
    assert run(capsys, "eval", str(tmp_path / "lens.shapes"), "--shape", "lens", *bind) == (
        0, "", "")


@pytest.mark.parametrize("oracle, body, fail", [
    # hom-pair only reaches hom-second's shape through a deformation
    ("z2", "point pg hom-pair {w1 := 1, w2 := 1}\npoint pgf hom-second {w2 := 0}\n"
     "assert-equal pg pgf via -\n",
     "FAIL assert-equal pg pgf: deformation does not reach the target shape: "),
    # the two points lie at the fibers (0,0) and (1,1)
    ("meet-lattice-2", "point p hom-second {w2 := id_0}\npoint q hom-second {w2 := id_1}\n"
     "assert-equal p q via -\n", "FAIL assert-equal p q via -: points differ"),
], ids=["target-shape", "fibers-differ"])
def test_assert_equal_fails_in_the_sweep(capsys, tmp_path, oracle, body, fail):
    script = _points_script(tmp_path, "derivation d from hom-second\nend\n" + body)
    code, out, err = run(capsys, "check", script, "--bind", f"C={fixture_path(oracle)}")
    assert (code, err) == (1, "")
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(fails) == 1 and fails[0].startswith(fail)


def test_a_point_that_fails_at_some_assignments_fails_there(capsys, tmp_path):
    # 0<1 lies in the inport's fibers only at A=0: the point fails in the
    # sweep at A=1, where its assert-equal names a point that is not built
    script = _points_script(tmp_path, (
        "derivation d from hom-second\nend\n"
        "point r arrow-bi {p := 0<1}\nassert-equal r r via -\n"))
    code, out, err = run(capsys, "check", script, "--bind", f"C={fixture_path('meet-lattice-2')}")
    assert (code, err) == (1, "")
    blocks = out.split("assignment: ")[1:]
    assert [b.split("\n")[0] for b in blocks] == ["A=0 B=0", "A=0 B=1", "A=1 B=0", "A=1 B=1"]
    assert "  assert-equal r r via - ok" in blocks[1]
    for block in blocks[2:]:
        assert "FAIL point r: value for p is not in a fiber at *" in block
        assert "FAIL assert-equal r r: point r is not built" in block
        assert "unknown point" not in block


def test_object_symbols_in_a_point_wait_for_the_assignment(capsys, tmp_path):
    # (split 0 X Y) names the object symbols X and Y, which are no objects
    # of z2: the point is not refused, and at z2's one assignment it is the
    # point of (split 0 x x)
    for name in ("points.deriv", "points.shapes"):
        (tmp_path / name).write_text((demo_dir() / name).read_text(encoding="utf-8"))
    want = run(capsys, "check", str(tmp_path / "points.deriv"),
               "--bind", f"C={fixture_path('z2')}")
    text = (tmp_path / "points.deriv").read_text(encoding="utf-8")
    assert "(split 0 x x)" in text
    (tmp_path / "points.deriv").write_text(text.replace("(split 0 x x)", "(split 0 X Y)"))
    got = run(capsys, "check", str(tmp_path / "points.deriv"),
              "--bind", f"C={fixture_path('z2')}")
    assert got == want and want[0] == 0


@pytest.mark.parametrize("edit,code", [
    (("deriv", "point pg hom-pair", "point pg Q"), 1),
    (("deriv", "(split 0 x x)", "(split 0 x)"), 1),
    (("deriv", "{p := 1}", "{p := (mor 1)}"), 1),
    (("shapes", "(category C)", "(category)"), 2),
    (("shapes", "(outport (tensor B (unit C)) @q)", "((tensor B (unit C)) @q)"), 2),
    (("shapes", "(category C)", "(category C) (prof K CC ())"), 2),
], ids=["point-shape", "split-arity", "mor-arity", "category-arity", "term-head",
        "prof-wires"])
def test_malformed_point_or_shape_does_not_crash(capsys, tmp_path, edit, code):
    # an unknown point shape or a value spec of the wrong arity fails the
    # point; a malformed shape script is malformed input
    which, old, new = edit
    for name in ("points.deriv", "points.shapes"):
        text = (demo_dir() / name).read_text(encoding="utf-8")
        if name.endswith(which):
            assert old in text
            text = text.replace(old, new)
        (tmp_path / name).write_text(text)
    got, out, err = run(capsys, "check", str(tmp_path / "points.deriv"),
                        "--bind", f"C={fixture_path('z2')}")
    assert got == code and "internal error" not in err
    if code == 1:
        assert "FAIL point " in out
    else:
        assert out == "" and len(err.splitlines()) == 1


class _Terminal(io.StringIO):
    def isatty(self):
        return True


SWEEPS = [(("check", "lens_reduction.deriv"), "meet-lattice-2"),
          (("check", "points.deriv"), "z2"),
          (("eval", "lens.shapes", "--shape", "lens"), "meet-lattice-2"),
          (("eval", "lens.shapes", "--shape", "composite-reduced"), "z2")]


@pytest.mark.parametrize("cmd,oracle", SWEEPS, ids=[" ".join(c) for c, _ in SWEEPS])
def test_sweep_size_goes_to_a_terminal_only(capsys, monkeypatch, cmd, oracle):
    # stderr that is a terminal hears how many assignments the sweep
    # checks; stdout, and stderr that is not a terminal, do not change
    argv = (cmd[0], demo_path(cmd[1]), *cmd[2:], "--bind", f"C={fixture_path(oracle)}")
    code, out, err = run(capsys, *argv)
    assert err == ""
    terminal = _Terminal()
    monkeypatch.setattr(sys, "stderr", terminal)
    assert run(capsys, *argv)[:2] == (code, out)
    n = sum(line.startswith("assignment: ") for line in out.splitlines()) or 1
    assert terminal.getvalue() == f"coendcheck: {n} assignment{'s' * (n > 1)} to sweep\n"


@pytest.mark.parametrize("cmd", [("check", "lens_reduction.deriv"),
                                 ("eval", "lens.shapes", "--shape", "lens")])
def test_exit_2_on_a_terminal_is_still_one_line(capsys, monkeypatch, tmp_path, cmd):
    # a category without a monoidal structure fails the evaluation of the
    # first assignment, before the sweep size is told
    data = fincat.dump_fixture(fincat.load_fixture_file(fixture_path("meet-lattice-2"))[0])
    (tmp_path / "plain.json").write_text(json.dumps(data))
    terminal = _Terminal()
    monkeypatch.setattr(sys, "stderr", terminal)
    code, out, _ = run(capsys, cmd[0], demo_path(cmd[1]), *cmd[2:],
                       "--bind", f"C={tmp_path / 'plain.json'}")
    if cmd[0] == "eval":
        _one_line_exit_2(code, out, terminal.getvalue())
        assert "carries no monoidal structure" in terminal.getvalue()
    else:
        # check reports a missing structure as a failed step, after the
        # sweep size
        assert code == 1 and terminal.getvalue() == "coendcheck: 16 assignments to sweep\n"
