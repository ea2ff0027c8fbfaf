"""Queue-driven trading engine with exact comparison oracles and
sample-path bound verifiers."""

from .analysis import (BoundConstants, BoundReport, compute_constants,
                       lyapunov, measure_memory_epsilon, sample_path_drift,
                       time_avg_profit, verify_queue_band,
                       verify_slot_optimality, verify_thm1_profit,
                       verify_thm2_profit, verify_thm3, verify_tslot_lemma)
from .config import ExperimentConfig, config_from_json, config_to_json, \
    load_config
from .errors import (CapacityError, ConfigError, LyaptradeError,
                     NumericalError, ParseError, StatisticalPowerError,
                     StructuralError)
from .market import (BudgetMode, CostFunction, Feasibility, MarketSpec,
                     StockSpec, TradeDecision, slot_profit, validate_decision)
from .money import cents_to_str, cents_to_units, to_cents
from .oracles import (LookaheadResult, PonlyPolicy, PonlySolution,
                      brute_force_slot_min, drift_rebalance,
                      enumerate_actions, lookahead_psi, solve_phi_opt)
from .prices import (MarkovPriceModel, PriceDistribution, PriceTrace,
                     load_trace, make_rng, save_trace, stationary_distribution)
from .trader import (SlotSolver, TraderParams, Trajectory, compute_theta,
                     placeholder_wrap, queue_band, run_backtest, run_profit,
                     scaled_windows_run, startup_cost)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
