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
    CONSUMPTION_FLOOR,
    ObjectivePair,
    PolicyMatrix,
    SimState,
    StepDerived,
    Trajectory,
    evaluate_batch,
    evaluate_policy,
    initial_state,
    simulate,
    t_at_max,
    welfare,
)
from .nsga2 import (
    EngineConfig,
    FrontArchive,
    crossover,
    crowding_distance,
    dominates,
    evolve,
    initialize_population,
    mutate,
    non_dominated_sort,
    tournament_select,
)
from .harness import (
    ReferencePoint,
    RunConfig,
    RunReport,
    compare_reference,
    config_from_dict,
    load_config,
    load_front,
    persist_report,
    run_experiment,
    select_representatives,
)

__all__ = [
    "CONSUMPTION_FLOOR",
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
    "RunReport",
    "SimState",
    "StepDerived",
    "Trajectory",
    "compare_reference",
    "config_from_dict",
    "crossover",
    "crowding_distance",
    "dominates",
    "evaluate_batch",
    "evaluate_policy",
    "evolve",
    "initial_state",
    "initialize_population",
    "load_config",
    "load_front",
    "mutate",
    "non_dominated_sort",
    "persist_report",
    "run_experiment",
    "select_representatives",
    "simulate",
    "t_at_max",
    "tournament_select",
    "welfare",
]
