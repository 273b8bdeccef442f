"""Benchmark result records shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass, fields

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
_FIELD_TYPES = {f.name: f.type for f in fields(BenchRecord)}
INT_FIELDS = ("nvar", "iter", "neval_f", "neval_grad", "neval_hvp")
FLOAT_FIELDS = ("f", "grad_norm", "elapsed_seconds")


def record_to_dict(rec: BenchRecord) -> dict:
    return {name: getattr(rec, name) for name in BENCH_FIELDS}


def record_from_dict(row: dict) -> BenchRecord:
    """Record from a json or csv row; rows written before ``detail`` existed
    lack it and read back with its default."""
    kwargs = {}
    for name in BENCH_FIELDS:
        if name == "detail" and name not in row:
            continue
        value = row[name]
        if name in INT_FIELDS:
            value = int(value)
        elif name in FLOAT_FIELDS:
            value = float(value)
        kwargs[name] = value
    return BenchRecord(**kwargs)
