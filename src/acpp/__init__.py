"""Automatic construction of parallel solver portfolios.

Builds k-tuples of solver configurations from a parameter space and an
instance set, with phased configuration, dynamic instance transfer between
instance subsets, and the standard baseline constructors, plus the full
evaluation protocol (PAR metrics, validation selection, permutation tests).
"""

from .configurator import ConfiguratorSettings, configure
from .constructors import (
    CONSTRUCTORS,
    BudgetPlan,
    ConstructionResult,
    construct_clustering,
    construct_global,
    construct_parhydra,
    construct_pcit,
    construct_pcrs,
    kmeans,
    normalize_features,
    plan_budget,
    validate_and_select,
)
from .core import (
    Instance,
    InstanceGrouping,
    InstanceResult,
    Metric,
    Portfolio,
    RunRecord,
    RunStatus,
    Scenario,
    par_score,
    penalized_score,
    portfolio_runtime,
    split_random_even,
    subset_bounds,
)
from .evaluation import (
    PermutationOutcome,
    TestReport,
    compare_reports,
    permutation_test,
    test_portfolio,
)
from .perfmodel import ForestParams, PerformanceModel, fit_model
from .rundata import RunDataStore
from .runner import BudgetLedger, ExternalBackend, evaluate_portfolio, execute_run
from .scenario import ScenarioBundle, load_scenario
from .space import (
    Configuration,
    Parameter,
    ParameterSpace,
    compose_product_space,
    compose_selector_space,
    decode_product_config,
    default_config,
    encode_config,
    enumerate_configs,
    make_config,
    make_product_config,
    parse_config,
    parse_space,
    sample_config,
    serialize_config,
    serialize_space,
)
from .synthetic import (
    SyntheticBackend,
    SyntheticScenario,
    SyntheticScenarioSpec,
    generate_synthetic_scenario,
    write_scenario_files,
)
from .transfer import TransferReport, select_transfer_candidates, transfer_instances

__version__ = "0.1.0"
