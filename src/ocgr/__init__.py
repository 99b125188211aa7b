"""Goal recognition for STRIPS tasks via operator-counting LP heuristics."""

import logging

from .constraints import (ALL_FAMILIES, LinearConstraint, base_constraints,
                          dump_constraints, landmark_constraints,
                          net_change_constraints, posthoc_constraints)
from .errors import (CapExceeded, GoalUnreachable, GroundingError, OcgrError,
                     PddlParseError, SolverFailure, UnsupportedFeatureError)
from .grounding import GroundAction, PlanningTask, ground, relaxed_reachable
from .inputs import (Bundle, GoalHypotheses, ObservationSequence,
                     bundle_from_texts, load_bundle, parse_hypotheses,
                     parse_observations, parse_real_hyp)
from .lp import BACKENDS, LinearProgram, LpOutcome, solve_lp, solve_with
from .oracle import Plan, PlanCheck, optimal_cost, validate_plan
from .pddl import DomainDef, OperatorSchema, ProblemDef, parse_domain, parse_problem
from .recognition import (HypothesisScore, RecognitionReport, RecognizerConfig,
                          recognize, report_from_dict, report_to_dict,
                          score_hypothesis, uncertainty)

__version__ = "0.1.0"

# quiet unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())
