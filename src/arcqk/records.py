"""Benchmark result records shared by all solvers."""

from dataclasses import MISSING, dataclass, fields

RECORD_SUCCESS = "success"
RECORD_EXCEPTION = "exception"
RECORD_TIME = "time_exceeded"
RECORD_OTHER = "other"

_STATE_TO_RECORD = {
    "first_order_stationary": RECORD_SUCCESS,
    "time_exceeded": RECORD_TIME,
}


def record_status(solver_status: str) -> str:
    """Map a solver's final status onto the coarse benchmark status."""
    return _STATE_TO_RECORD.get(solver_status, RECORD_OTHER)


@dataclass
class BenchRecord:
    """One benchmark row: final values, counters, time and coarse status.

    ``detail`` says why the run ended: the solver's own status (for example
    ``grid_exhausted`` or ``max_iter``, which ``status`` folds into
    ``other``) or, for a run that raised, the exception as
    ``Type: message``.

    ``neval_f``, ``neval_grad`` and ``neval_hvp`` count objective,
    gradient and Hessian-vector product calls.  A least-squares problem
    solved by ``arcqk_minimize`` (the Gauss-Newton path) fills them with
    its residual, J' and J product counts instead: ``neval_grad`` then
    counts every J' product of the CGLS solves (one per joint iteration)
    besides the gradients J'r, and ``neval_hvp`` counts the J products.
    ST runs the same problem through ``as_smooth``, whose ``neval_grad``
    counts gradients only and whose Gauss-Newton product J'(Jv) counts
    once as an HVP.  So ``neval_f`` and ``neval_hvp`` compare across the
    two solvers there, but ``neval_grad`` does not (linearls: ARC 9, ST 3).
    """

    name: str
    nvar: int
    f: float
    grad_norm: float
    iter: int
    neval_f: int
    neval_grad: int
    neval_hvp: int
    elapsed_seconds: float
    status: str
    detail: str = ""


BENCH_FIELDS = tuple(f.name for f in fields(BenchRecord))


def record_from_dict(row: dict) -> BenchRecord:
    """Record from a json or csv row, each field converted to the type that
    ``BenchRecord`` declares (this module evaluates its annotations, so
    ``f.type`` is the class itself).  An absent field that has a default
    takes it (rows written before ``detail`` existed lack it); any other
    absent field raises ``ValueError``."""
    given = [f for f in fields(BenchRecord) if row.get(f.name) is not None]
    missing = [f.name for f in fields(BenchRecord)
               if f not in given and f.default is MISSING]
    if missing:
        raise ValueError(f"record row lacks field(s): {', '.join(missing)}")
    return BenchRecord(**{f.name: f.type(row[f.name]) for f in given})
