"""Allocation query service: budget/Pareto queries over stored curves."""

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.engine import QueryEngine, pareto_frontier
from repro.service.faults import (
    FaultInjector,
    get_injector,
    parse_faults,
    set_injector,
)
from repro.service.requests import validate_request

__all__ = [
    "FaultInjector",
    "QueryEngine",
    "ServiceClient",
    "ServiceClientError",
    "get_injector",
    "parse_faults",
    "pareto_frontier",
    "set_injector",
    "validate_request",
]
