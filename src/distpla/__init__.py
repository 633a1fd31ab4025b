"""Worst-case detection guarantees for distributed SIMO physical-layer
authentication: thresholds, power/position attack analysis, Monte-Carlo
oracles, and delay bounds."""

from .authenticator import (Authenticator, discriminant, make_authenticator,
                            pfa_of_threshold, threshold_for_pfa, whiten)
from .delay_bounds import (ArrivalModel, DelayBound, ServiceModel, ServiceOutage,
                           UnstableQueueError, delay_violation_bound,
                           service_outage, simulate_queue_delays, snr_outage,
                           stability_margin)
from .geometry import (ChannelStatistics, Region, RrhConfig, Scenario, SearchConfig,
                       TransmitterConfig, alice_statistics, channel_statistics,
                       eve_statistics, received_power, rice_means, steering_vector,
                       wavelength)
from .monte_carlo import (BLOCK_SIZE, McEstimate, WhitenedEvent, acceptance_event,
                          best_case_acceptance_event, estimate_probability)
from .numerics import NumericsError, chi2_cdf, chi2_quantile, chi2_tail
from .position_attack import (CandidatePosition, EmptyRegionError, LobeSets,
                              NoCandidatesError, PositionSearchError, SearchResult,
                              count_small_scale_optima, exhaustive_search, f_obj,
                              lobe_sets, truncated_search)
from .power_attack import (NO_ATTACK, IndefiniteForm, PowerStrategy,
                           SaddlepointError, build_indefinite_form, dncf_sf,
                           fixed_strategy_form,
                           mdp_fixed_strategy, mdp_fixed_strategy_sweep,
                           mdp_optimal_pma, mdp_optimal_pma_batch,
                           mdp_optimal_pma_sweep, mdp_single_array_closed_form,
                           optimal_power_strategy, saddlepoint_tail_probability,
                           statistical_power_strategy)
from .scenario_io import (ScenarioError, load_scenario, scenario_from_dict,
                          validate_scenario)

__version__ = "0.1.0"
