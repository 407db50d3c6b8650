"""The database engine façade.

Ties the substrates together into something a downstream user can drive:
create tables, bulk load numpy arrays, run SQL, and switch individual columns
to adaptive segmentation or replication with one call — after which every
subsequent query is transparently rewritten by the segment optimizer, exactly
as the paper integrates self-organization "completely transparently for the
SQL front-end".
"""

from repro.engine.database import Database
from repro.engine.execution import ExecutionContext
from repro.engine.plan_cache import (
    PlanCache,
    PlanCacheStats,
    PreparedPlan,
    RangeTemplate,
    normalize_sql,
)
from repro.engine.profile import QueryProfile
from repro.engine.result import QueryRecord, QueryResult

__all__ = [
    "Database",
    "ExecutionContext",
    "PlanCache",
    "PlanCacheStats",
    "PreparedPlan",
    "QueryProfile",
    "QueryRecord",
    "QueryResult",
    "RangeTemplate",
    "normalize_sql",
]
