"""DICE-2016R climate-economy simulation and bi-objective policy search.

The package couples a deterministic simulator of the DICE-2016R
climate-economy dynamics with an elitist NSGA-II engine that trades off
social welfare against peak atmospheric temperature deviation, plus an
experiment harness and a command-line front end.
"""

__version__ = "0.1.0"

from .errors import ConfigError, EngineError, ModelDomainError
from .params import ModelParams
from .model import (
    ObjectivePair,
    PolicyMatrix,
    evaluate_batch,
    evaluate_policy,
    simulate,
)
from .nsga2 import (
    EngineConfig,
    FrontArchive,
    crossover,
    crowding_distance,
    evolve,
    mutate,
    non_dominated_sort,
    tournament_select,
)
from .harness import (
    ReferencePoint,
    RunConfig,
    compare_reference,
    load_config,
    load_front,
    persist_report,
    run_experiment,
    select_representatives,
)

__all__ = [
    "ConfigError",
    "EngineConfig",
    "EngineError",
    "FrontArchive",
    "ModelDomainError",
    "ModelParams",
    "ObjectivePair",
    "PolicyMatrix",
    "ReferencePoint",
    "RunConfig",
    "compare_reference",
    "crossover",
    "crowding_distance",
    "evaluate_batch",
    "evaluate_policy",
    "evolve",
    "load_config",
    "load_front",
    "mutate",
    "non_dominated_sort",
    "persist_report",
    "run_experiment",
    "select_representatives",
    "simulate",
    "tournament_select",
]
