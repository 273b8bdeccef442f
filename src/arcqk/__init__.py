"""Matrix-free cubic regularization with a multishift Krylov kernel."""

from .arc import (ArcParams, ArcState, GridExhausted, AllShiftsIndefinite,
                  RatioEval, TraceRecord, acceptance_ratio,
                  advance_shift_on_failure, arcqk_minimize,
                  arcqk_minimize_gauss_newton, inner_tolerance,
                  select_step)
from .bench import (ProfileCurve, SOLVERS, performance_profile,
                    read_records_csv, read_records_json, run_matrix,
                    write_profile, write_records_csv, write_records_json)
from .problems import (Counters, DerivativeReport, LeastSquaresProblem,
                       SmoothProblem, check_derivatives, suite_problems)
from .records import BenchRecord
from .shifted_cg import (MultishiftSolution, MultishiftState, ShiftGrid,
                         multishift_cg)
from .shifted_cgls import CglsState, multishift_cgls
from .steihaug import TrParams, TrState, TruncatedCgResult, st_minimize, truncated_cg

__version__ = "0.1.0"
