"""Pathwise-optimal trade execution.

Adaptive liquidation schedules that react to the realized price path while
staying unbiased at the horizon, classical baselines (static, a-posteriori,
terminal-penalty, TWAP), price-path simulators with exact transition
sampling, pathwise calculus for rough price paths, calibration from
mid-price data and a Monte Carlo verification harness.
"""

from .airy import AiryPair, airy_pair
from .baselines import (
    aposteriori_optimal,
    challenger_plans,
    static_optimal,
    terminal_penalty_optimal,
    twap,
)
from .calibration import (
    MidPriceSeries,
    calibrate_ou_jump,
    detect_jumps,
    extract_target,
    fit_ou,
)
from .costs import (
    AuditReport,
    CostReport,
    LiquidationStats,
    audit_good_inequality,
    cost_J,
    cost_report,
    liquidation_stats,
    pathwise_f_weight,
    tubular_member,
)
from .errors import (
    ConfigError,
    CsvParseError,
    DomainError,
    EstimationError,
    GridMismatchError,
    PathexecError,
)
from .harness import (
    RunArtifact,
    ScenarioConfig,
    emit_plotdata,
    ingest_csv,
    load_config,
    run_scenario,
)
from .pathcalc import (
    SampledPath,
    TimeGrid,
    p_variation,
    resample,
    stieltjes_integral,
    young_integral,
)
from .pricemodels import (
    ArithmeticBrownian,
    BrownianBridge,
    DeterministicPrice,
    ExponentialMartingale,
    OuJumpDiffusion,
    expected_path,
    sample_path,
    two_point_marks,
    variance_path,
)
from .strategies import (
    Certificate,
    ExecutionPlan,
    MarketParams,
    alt_terminal_K,
    certificate_quadratic,
    good_exec_quadratic_closed,
    good_exec_quadratic_ivp,
    good_exec_time_closed,
    good_exec_time_ivp,
    good_exec_var_closed,
    good_exec_var_ivp,
    quadratic_with_terminal_constant,
)

__version__ = "0.1.0"
