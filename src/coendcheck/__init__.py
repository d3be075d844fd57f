"""coendcheck: a derivation checker for coend calculus over finite
profunctor oracles.

Shapes of open diagrams are typed terms, rewrite steps are catalogued
2-cells, and every step is verified against brute-force semantics that
computes coends concretely over finite categories.
"""

__version__ = "0.1.0"

from .fincat import (FinCategory, MonoidalStructure, FinFunctor,
                     CartesianWitness, ValidationReport, FixtureError,
                     validate_category, validate_monoidal, validate_functor,
                     opposite, product, terminal_category,
                     from_lattice, from_comm_monoid, load_fixture,
                     load_fixture_file, dump_fixture)
from .profunctor import (ConcreteProf, CoendSet, ProfunctorError, ComposedProf,
                         TensorProf, coend, hom_prof, point, tensor_functor,
                         companion, conjoint, copy_prof, merge_prof,
                         discard_prof, codiscard_prof, swap_prof, cup_prof,
                         cap_prof, dual, validate_prof)
from .shapelang import (Wire, Id, Gen, Seq, Par, Signature, Env, Evaluator,
                        ShapeSyntaxError, ShapeTypeError, StructureMissing,
                        EvalError, parse_shape_script, parse_term, print_term,
                        boundary, eval_closed, class_count, norm, sweep)
from .rewrite import (RULES, Step, Derivation, DerivationScript, Report,
                      RewriteError, MatchError, DirectionError, PathError,
                      apply_step, check_derivation,
                      parse_derivation_script)
from .pointed import (OpenDiagram, PointError, embed, forget, lift,
                      lift_many, compose_open, equal_up_to)
from . import optics

__all__ = [
    "FinCategory", "MonoidalStructure", "FinFunctor", "CartesianWitness",
    "ValidationReport", "FixtureError",
    "validate_category", "validate_monoidal", "validate_functor",
    "opposite", "product", "terminal_category", "from_lattice",
    "from_comm_monoid", "load_fixture", "load_fixture_file", "dump_fixture",
    "ConcreteProf", "CoendSet", "ProfunctorError", "ComposedProf",
    "TensorProf", "coend", "hom_prof", "point", "tensor_functor", "companion",
    "conjoint", "copy_prof", "merge_prof", "discard_prof", "codiscard_prof",
    "swap_prof", "cup_prof", "cap_prof", "dual", "validate_prof",
    "Wire", "Id", "Gen", "Seq", "Par", "Signature", "Env", "Evaluator",
    "ShapeSyntaxError", "ShapeTypeError", "StructureMissing", "EvalError",
    "parse_shape_script", "parse_term", "print_term", "boundary",
    "eval_closed", "class_count", "norm", "sweep",
    "RULES", "Step", "Derivation", "DerivationScript", "Report",
    "RewriteError", "MatchError", "DirectionError", "PathError",
    "apply_step", "check_derivation",
    "parse_derivation_script",
    "OpenDiagram", "PointError", "embed", "forget", "lift", "lift_many",
    "compose_open", "equal_up_to",
    "optics", "__version__",
]
