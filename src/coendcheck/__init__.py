"""coendcheck: a derivation checker for coend calculus over finite
profunctor oracles.

Shapes of open diagrams are typed terms, rewrite steps are catalogued
2-cells, and every step is verified against brute-force semantics that
computes coends concretely over finite categories.

The package loads each module on first use of one of its names, so that
evaluating a shape never loads the checking layer (rewrite, pointed,
optics, demos).
"""

import importlib

__version__ = "0.1.0"

# the public names of each module; a module listed under its own name is
# exported whole
_EXPORTS = {
    "fincat": ("FinCategory", "MonoidalStructure", "FinFunctor", "CartesianWitness",
               "ValidationReport", "FixtureError",
               "validate_category", "validate_monoidal", "validate_functor",
               "opposite", "product", "terminal_category", "from_lattice",
               "from_comm_monoid", "load_fixture", "load_fixture_file", "dump_fixture"),
    "profunctor": ("ConcreteProf", "CoendSet", "ProfunctorError", "ComposedProf",
                   "TensorProf", "coend", "hom_prof", "point", "tensor_functor",
                   "companion", "conjoint", "copy_prof", "merge_prof", "discard_prof",
                   "codiscard_prof", "swap_prof", "cup_prof", "cap_prof", "dual",
                   "validate_prof"),
    "shapelang": ("Wire", "Id", "Gen", "Seq", "Par", "Signature", "Env", "Evaluator",
                  "ShapeSyntaxError", "ShapeTypeError", "StructureMissing", "EvalError",
                  "parse_shape_script", "parse_term", "print_term", "boundary",
                  "eval_closed", "class_count", "seq", "par", "sweep", "Report"),
    "rewrite": ("RULES", "Step", "Derivation", "DerivationScript",
                "RewriteError", "MatchError", "DirectionError", "PathError",
                "apply_step", "check_derivation", "parse_derivation_script"),
    "pointed": ("OpenDiagram", "PointError", "embed", "forget", "lift", "lift_many",
                "compose_open", "equal_up_to"),
    "optics": ("optics",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    # resolved at every access, never stored here: a name rebound in its
    # module (by a tracer, say) is read through
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__})
