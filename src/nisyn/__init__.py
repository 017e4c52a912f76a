"""nisyn: state-feedback synthesis and certification for nonlinear
negative imaginary systems.

Given a plant in relative-degree <= 2 normal form, the toolkit decides
state-feedback equivalence to a nonlinear NI/OSNI system, constructs the
stabilizing feedback laws and storage functions, simulates the closed loop
(optionally interconnected with a nonlinear OSNI uncertainty) and certifies
the dissipation inequalities and convergence numerically.
"""

from .expr import (
    Expr, ExprError, ParseError, EvalError,
    parse_expr, evaluate, differentiate, fold_constants, to_string,
    compile_exprs,
)
from .lyapunov import (
    Classification, StabilityVerdict, classify_stability,
    lyapunov_certificate, sampled_positive_definite,
)
from .synthesis import (
    Dissipative, NormalFormPlant, SynthesisSpec, ClosedLoopSystem, GeneralForm,
    synthesize, storage_value, closed_loop_rhs, reduce_general_form,
    default_v2,
)
from .uncertainty import (
    OsniUncertainty, Interconnection, interconnection_rhs, composite_storage,
)
from .sim import (
    Trajectory, integrate, simulate, simulate_closed_loop, simulate_uncertainty,
    simulate_interconnection, check_dissipation, check_w_decrease,
    convergence_metrics, write_trajectory_csv,
    zero_signal, step_signal, multisine_signal, bandlimited_signal,
)
from .scenario import Scenario, ScenarioError, load_scenario, save_scenario

__version__ = "0.1.0"
