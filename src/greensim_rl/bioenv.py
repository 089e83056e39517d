"""Biomanufacturing purification environment.

Upstream, a fed-batch fermentation ODE produces a random harvest of target
protein and impurity (in mg).  Downstream, a finite-horizon MDP runs the
batch through chromatography steps: at step t the operator picks one of A
pooling windows, and the column retains random Beta-distributed fractions
of protein and impurity.  The episode ends at the quality-assessment state
t=3, where the batch either fails the purity requirement, meets the
protein demand, or sells short.

State vector: ``(protein mg, impurity mg, step index)``, step index stored
as a float.  Transitions happen from steps 1 and 2 only; step 3 is
terminal.

The module also plays the role of the "real world": a configured true
model ``omega_c`` generates the data that the posterior in
:mod:`greensim_rl.bayes` learns from.  The shipped default scenario is
synthetic -- calibrated so the harvest averages about 10 mg of each
species and so that later pooling windows trade protein retention against
impurity removal -- not a measurement of any real process.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import betaln

from .core import Environment, rollout_batch

if TYPE_CHECKING:
    from .bayes import FractionDataset
    from .core import Policy

__all__ = [
    "ChromatographyEnv",
    "IntegrationError",
    "InvalidStateError",
    "ModelParams",
    "RewardConfig",
    "Scenario",
    "ScenarioError",
    "UpstreamParams",
    "beta_log_pdf",
    "collect_real_data",
    "default_scenario",
    "integrate_upstream",
    "load_scenario",
    "reward",
    "sample_initial_state",
    "save_scenario",
    "transition",
    "transition_logpdf",
]

# Smallest admissible mass (mg); keeps transition fractions well-defined.
EPS_MASS = 1e-6

# Sampled removal fractions are forced into the open interval: float rounding
# of extreme Beta draws can otherwise yield exactly 0 or 1, which have zero
# density and would break every likelihood ratio involving the trajectory.
_FRACTION_EPS = 1e-12

# beta_shapes column layout per (step, action).
PSI_L, PSI_U, ETA_L, ETA_U = 0, 1, 2, 3


class IntegrationError(RuntimeError):
    """Upstream ODE state became non-finite."""


class InvalidStateError(ValueError):
    """Chromatography state violates a precondition (e.g. nonpositive mass)."""


class ScenarioError(ValueError):
    """Scenario file failed validation."""


def beta_log_pdf(x, a, b):
    """Log density of Beta(a, b) at x; -inf outside (0, 1).  Broadcasts."""
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    inside = (x > 0.0) & (x < 1.0)
    xs = np.where(inside, x, 0.5)  # dummy value, masked below
    logpdf = (a - 1.0) * np.log(xs) + (b - 1.0) * np.log1p(-xs) - betaln(a, b)
    result = np.where(inside, logpdf, -np.inf)
    return result if result.ndim else float(result)


# --- configuration types ----------------------------------------------------


@dataclass(frozen=True)
class UpstreamParams:
    """Fed-batch fermentation model constants.

    Biomass X (g/L) grows at rate mu = (q_s - q_m) * Y_em where the
    substrate uptake q_s = q_s_max * S / (S + 0.1) follows the substrate
    concentration S (g/L); feeding at rate F (L/h) dilutes X and supplies
    substrate at inlet concentration S_i.  Protein and impurity
    concentrations are nu1 * X and nu2 * X at harvest time.

    ``harvest_to_mg`` bridges the upstream g/L concentrations to the mg
    masses the purification MDP works in; the default is a scenario
    calibration, not a physical constant.
    """

    V: float = 1000.0               # medium volume (L)
    S_i_mean: float = 780.0         # inlet substrate concentration (g/L)
    S_i_sd: float = 40.0
    q_s_max: float = 0.57           # max substrate consumption (g/g/h)
    q_m: float = 0.013              # maintenance coefficient (g/g/h)
    Y_em: float = 0.3               # biomass yield coefficient
    nu1_mean: float = 0.11          # protein production rate
    nu1_sd: float = 0.01
    nu2_mean: float = 0.11          # impurity production rate
    nu2_sd: float = 0.01
    X0: float = 0.1                 # initial biomass (g/L); must be > 0 to ferment
    S0: float = 40.0                # initial substrate (g/L)
    F: float = 0.0                  # feed rate (L/h); 0 = pure batch
    duration: float = 1200.0        # fermentation time (h); 50 days
    dt: float = 0.02                # integrator step (h); resolves the substrate-depletion layer
    harvest_noise_sd: float = 5.0   # additive mass noise at harvest (mg)
    harvest_to_mg: float = 778.0    # g/L -> mg bridge (calibrated, see default_scenario)

    def __post_init__(self):
        if self.V <= 0 or self.dt <= 0 or self.duration <= 0 or self.q_s_max <= 0:
            raise ScenarioError("V, dt, duration and q_s_max must be positive")
        for name in ("S_i_sd", "nu1_sd", "nu2_sd", "harvest_noise_sd"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class ModelParams:
    """Beta shape table of the chromatography transition model.

    ``beta_shapes[t-1, a]`` holds ``(psi_l, psi_u, eta_l, eta_u)`` for step
    t and pooling window a: the impurity fraction retained is
    Beta(psi_l, psi_u) and the protein fraction retained is
    Beta(eta_l, eta_u).  Step 3 rows exist only for uniform indexing;
    no transition ever reads them.
    """

    beta_shapes: np.ndarray

    def __post_init__(self):
        shapes = np.asarray(self.beta_shapes, dtype=np.float64)
        if shapes.ndim != 3 or shapes.shape[2] != 4:
            raise ScenarioError(f"beta_shapes must have shape (steps, actions, 4), got {shapes.shape}")
        if not np.all(np.isfinite(shapes)) or np.any(shapes <= 0.0):
            raise ScenarioError("all Beta shapes must be finite and strictly positive")
        shapes.setflags(write=False)
        object.__setattr__(self, "beta_shapes", shapes)

    @property
    def n_actions(self) -> int:
        return self.beta_shapes.shape[1]


@dataclass(frozen=True)
class RewardConfig:
    """Cost and revenue constants of the purification economics."""

    c_f: float = 48.0       # failure cost ($) when purity misses r_d
    c_l: float = 6.0        # shortage cost ($/mg) below the protein demand
    price: float = 5.0      # revenue ($/mg)
    p_d: float = 8.0        # protein demand (mg)
    r_d: float = 0.85       # purity requirement
    op_cost: float = 8.0    # per-column operating cost ($)
    charge_terminal_op_cost: bool = False  # also charge op_cost at t=3

    def __post_init__(self):
        if not 0.0 < self.r_d < 1.0:
            raise ScenarioError("r_d must be in (0, 1)")
        for name in ("c_f", "c_l", "price", "p_d", "op_cost"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to simulate the environment, including the true model."""

    upstream: UpstreamParams
    true_model: ModelParams
    reward: RewardConfig
    p_bar: float = 30.0     # protein state bound (mg)
    i_bar: float = 30.0     # impurity state bound (mg)

    def __post_init__(self):
        if self.p_bar <= 0 or self.i_bar <= 0:
            raise ScenarioError("state bounds must be positive")


# --- upstream fermentation ---------------------------------------------------


def _ode_rhs(x, s, s_i, p: UpstreamParams):
    s_eff = np.maximum(s, 0.0)
    q_s = p.q_s_max * s_eff / (s_eff + 0.1)
    mu = (q_s - p.q_m) * p.Y_em
    dx = (-p.F / p.V + mu) * x
    ds = (p.F / p.V) * (s_i - s_eff) - q_s * x
    return dx, ds


def _integrate_biomass(p: UpstreamParams, s_i):
    """Final biomass X (g/L) after fixed-step RK4 over the fermentation.

    ``s_i`` may be a scalar or an array (one inlet concentration per batch);
    broadcasting integrates all batches in lockstep.
    """
    n_steps = max(1, int(round(p.duration / p.dt)))
    h = p.duration / n_steps
    s_i = np.asarray(s_i, dtype=np.float64)
    x = np.broadcast_to(np.float64(p.X0), s_i.shape).copy() if s_i.ndim else np.float64(p.X0)
    s = np.broadcast_to(np.float64(p.S0), s_i.shape).copy() if s_i.ndim else np.float64(p.S0)
    for _ in range(n_steps):
        k1x, k1s = _ode_rhs(x, s, s_i, p)
        k2x, k2s = _ode_rhs(x + 0.5 * h * k1x, s + 0.5 * h * k1s, s_i, p)
        k3x, k3s = _ode_rhs(x + 0.5 * h * k2x, s + 0.5 * h * k2s, s_i, p)
        k4x, k4s = _ode_rhs(x + h * k3x, s + h * k3s, s_i, p)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        s = np.maximum(s + (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s), 0.0)
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(s)):
        raise IntegrationError("upstream ODE state became non-finite; reduce dt")
    return x


@functools.lru_cache(maxsize=32)
def _batch_final_biomass(p: UpstreamParams) -> float:
    # With F = 0 the (X, S) path does not involve S_i at all, so one scalar
    # integration serves every harvest drawn from the scenario.
    return float(_integrate_biomass(p, p.S_i_mean))


def integrate_upstream(p: UpstreamParams, nu1: float, nu2: float, s_i: float):
    """Ferment and harvest: returns ``(protein mg, impurity mg)``.

    Integrates the biomass/substrate ODE from ``(X0, S0)`` over the
    configured duration and converts the end-point concentrations
    ``nu1 * X`` and ``nu2 * X`` to masses.
    """
    x_end = _integrate_biomass(p, float(s_i))
    return float(nu1 * x_end * p.harvest_to_mg), float(nu2 * x_end * p.harvest_to_mg)


def _harvest_masses(scn: Scenario, n: int, rng: np.random.Generator):
    """Vectorized noisy harvest: n draws of (p1, i1), clamped to the state box."""
    up = scn.upstream
    nu1 = rng.normal(up.nu1_mean, up.nu1_sd, size=n)
    nu2 = rng.normal(up.nu2_mean, up.nu2_sd, size=n)
    s_i = rng.normal(up.S_i_mean, up.S_i_sd, size=n)
    if up.F == 0.0:
        x_end = _batch_final_biomass(up)
    else:
        x_end = _integrate_biomass(up, s_i)
    p_u = nu1 * x_end * up.harvest_to_mg
    i_u = nu2 * x_end * up.harvest_to_mg
    p1 = p_u + rng.normal(0.0, up.harvest_noise_sd, size=n)
    i1 = i_u + rng.normal(0.0, up.harvest_noise_sd, size=n)
    return (
        np.clip(p1, EPS_MASS, scn.p_bar),
        np.clip(i1, EPS_MASS, scn.i_bar),
    )


def sample_initial_state(scn: Scenario, rng: np.random.Generator) -> np.ndarray:
    """One random downstream input state ``(p1, i1, 1)``."""
    p1, i1 = _harvest_masses(scn, 1, rng)
    return np.array([p1[0], i1[0], 1.0])


# --- chromatography transitions and rewards ---------------------------------


def _step_index(state) -> int:
    t = float(state[2])
    ti = int(round(t))
    if abs(t - ti) > 1e-9:
        raise InvalidStateError(f"step index coordinate {t} is not an integer")
    return ti


def transition(state, action: int, omega: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Apply one chromatography column: retain Beta fractions of each mass."""
    t = _step_index(state)
    p, i = float(state[0]), float(state[1])
    if p <= 0.0 or i <= 0.0:
        raise InvalidStateError(f"masses must be positive, got p={p}, i={i}")
    if t not in (1, 2):
        raise InvalidStateError(f"transitions only occur from steps 1 and 2, got t={t}")
    shapes = omega.beta_shapes[t - 1, action]
    h = float(np.clip(rng.beta(shapes[ETA_L], shapes[ETA_U]), _FRACTION_EPS, 1.0 - _FRACTION_EPS))
    psi = float(np.clip(rng.beta(shapes[PSI_L], shapes[PSI_U]), _FRACTION_EPS, 1.0 - _FRACTION_EPS))
    return np.array([h * p, psi * i, float(t + 1)])


def transition_logpdf(state, action: int, next_state, omega: ModelParams) -> float:
    """Relative log density of one observed transition under ``omega``.

    The density is over the retained fractions ``h = p'/p`` and
    ``psi = i'/i``; the change-of-variable term ``-log(p * i)`` is omitted
    because it is identical for every ``omega`` (and every policy) given
    the transition, hence cancels in all likelihood ratios.  Fractions
    outside (0, 1) have zero density (-inf), which is a value, not an
    error.
    """
    t = _step_index(state)
    if t not in (1, 2):
        raise InvalidStateError(f"transitions only occur from steps 1 and 2, got t={t}")
    p, i = float(state[0]), float(state[1])
    if p <= 0.0 or i <= 0.0:
        raise InvalidStateError(f"masses must be positive, got p={p}, i={i}")
    shapes = omega.beta_shapes[t - 1, action]
    h = float(next_state[0]) / p
    psi = float(next_state[1]) / i
    return float(
        beta_log_pdf(h, shapes[ETA_L], shapes[ETA_U])
        + beta_log_pdf(psi, shapes[PSI_L], shapes[PSI_U])
    )


def _batch_step_indices(states: np.ndarray) -> np.ndarray:
    """Zero-based step index of every row of a transition batch, after the scalar path's checks.

    Raises :class:`InvalidStateError` unless every mass is positive and
    every step coordinate is an integer in {1, 2} (to the same 1e-9 as
    :func:`transition`).  Whole-array checks: the mixture calls this with
    thousands of rows per iteration.
    """
    masses = states[:, :2]
    if not masses.min() > 0.0:  # also false for NaN
        p, i = masses[~(masses > 0.0).all(axis=1)][0]
        raise InvalidStateError(f"masses must be positive, got p={p}, i={i}")
    t = states[:, 2]
    off = np.abs(np.abs(t - 1.5) - 0.5)  # distance to the nearer of 1 and 2
    if not off.max() <= 1e-9:
        bad = t[~(off <= 1e-9)][0]
        raise InvalidStateError(f"transitions only occur from integer steps 1 and 2, got t={bad}")
    return (t > 1.5).astype(np.int64)


def reward(state, cfg: RewardConfig) -> float:
    """Reward attached to a state by its step index.

    Steps 1 and 2 charge the column operating cost.  Step 3 assesses the
    batch: purity ``p/(p+i)`` below the requirement forfeits the failure
    cost; otherwise revenue is earned on the demanded amount, with a
    shortage penalty when the protein mass falls below the demand.  A
    zero-mass batch counts as a purity failure.
    """
    t = _step_index(state)
    if t in (1, 2):
        return -cfg.op_cost
    if t != 3:
        raise InvalidStateError(f"no reward defined for step index {t}")
    p, i = float(state[0]), float(state[1])
    terminal_op = -cfg.op_cost if cfg.charge_terminal_op_cost else 0.0
    total = p + i
    if total <= 0.0 or p / total < cfg.r_d:
        return -cfg.c_f + terminal_op
    if p >= cfg.p_d:
        return cfg.price * cfg.p_d + terminal_op
    return cfg.price * p - cfg.c_l * (cfg.p_d - p) + terminal_op


class ChromatographyEnv(Environment):
    """Two-transition purification MDP over states ``(p, i, t)``.

    The horizon is 3: columns run from steps 1 and 2, and the quality
    payout of the terminal state is credited to the final step's reward
    (so an undiscounted episode return is ``-2 * op_cost + quality``).
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def horizon(self) -> int:
        return 3

    def action_count(self) -> int:
        return self.scenario.true_model.n_actions

    @property
    def state_dim(self) -> int:
        return 3

    def sample_initial(self, rng) -> np.ndarray:
        return sample_initial_state(self.scenario, rng)

    def sample_initial_batch(self, n, rng) -> np.ndarray:
        p1, i1 = _harvest_masses(self.scenario, n, rng)
        return np.column_stack([p1, i1, np.ones(n)])

    def sample_transition(self, state, action, omega, rng) -> np.ndarray:
        return transition(state, action, omega, rng)

    def sample_transition_batch(self, states, actions, omega, rng) -> np.ndarray:
        t_idx = _batch_step_indices(states)
        if not (t_idx == t_idx[0]).all():
            steps = sorted(set((t_idx + 1).tolist()))
            raise InvalidStateError(f"batch rows must share one step index, got {steps}")
        t = int(t_idx[0]) + 1
        shapes = omega.beta_shapes[t - 1, np.asarray(actions, dtype=np.int64)]
        h = np.clip(rng.beta(shapes[:, ETA_L], shapes[:, ETA_U]), _FRACTION_EPS, 1.0 - _FRACTION_EPS)
        psi = np.clip(rng.beta(shapes[:, PSI_L], shapes[:, PSI_U]), _FRACTION_EPS, 1.0 - _FRACTION_EPS)
        return np.column_stack(
            [h * states[:, 0], psi * states[:, 1], np.full(states.shape[0], float(t + 1))]
        )

    def transition_logpdf(self, state, action, next_state, omega) -> float:
        return transition_logpdf(state, action, next_state, omega)

    def transition_logpdf_batch(self, states, actions, next_states, omega) -> np.ndarray:
        t_idx = _batch_step_indices(states)
        shapes = omega.beta_shapes[t_idx, np.asarray(actions, dtype=np.int64)]
        h = next_states[:, 0] / states[:, 0]
        psi = next_states[:, 1] / states[:, 1]
        return beta_log_pdf(h, shapes[:, ETA_L], shapes[:, ETA_U]) + beta_log_pdf(
            psi, shapes[:, PSI_L], shapes[:, PSI_U]
        )

    def reward(self, state, action, step_index) -> float:
        return reward(state, self.scenario.reward)

    def reward_batch(self, states, actions, step_index) -> np.ndarray:
        return np.full(states.shape[0], -self.scenario.reward.op_cost)

    def terminal_reward(self, state) -> float:
        return reward(state, self.scenario.reward)

    def terminal_reward_batch(self, states) -> np.ndarray:
        cfg = self.scenario.reward
        p, i = states[:, 0], states[:, 1]
        total = p + i
        purity = np.divide(p, total, out=np.zeros_like(p), where=total > 0)
        terminal_op = -cfg.op_cost if cfg.charge_terminal_op_cost else 0.0
        out = np.where(
            purity < cfg.r_d,
            -cfg.c_f,
            np.where(p >= cfg.p_d, cfg.price * cfg.p_d, cfg.price * p - cfg.c_l * (cfg.p_d - p)),
        )
        return out + terminal_op


def collect_real_data(
    scn: Scenario, policy: "Policy", theta: np.ndarray, m: int, rng: np.random.Generator
) -> "FractionDataset":
    """Run ``m`` real-world batches under the true model and record fractions.

    Every executed transition contributes one observation
    ``(step, action, protein fraction, impurity fraction)``; these are the
    measurements the posterior over the transition model consumes.
    """
    from .bayes import FractionDataset, FractionObservation

    if m < 1:
        raise ValueError("m must be >= 1")
    env = ChromatographyEnv(scn)
    trajectories = rollout_batch(env, policy, theta, scn.true_model, m, rng)
    observations = []
    for traj in trajectories:
        for t in range(traj.n_steps):
            s, s2 = traj.states[t], traj.states[t + 1]
            observations.append(
                FractionObservation(
                    step=int(round(s[2])),
                    action=int(traj.actions[t]),
                    h_fraction=float(s2[0] / s[0]),
                    psi_fraction=float(s2[1] / s[1]),
                )
            )
    return FractionDataset(tuple(observations))


# --- scenario construction and I/O -------------------------------------------


# Mean retained fractions per pooling window in the shipped true model:
# later windows strip more impurity but lose more protein.  The trade-off
# places the best windows mid-table, close to where the purity requirement
# starts to bite.
_PROTEIN_RETENTION = [0.955, 0.945, 0.935, 0.925, 0.915, 0.905, 0.890, 0.865, 0.835, 0.800]
_IMPURITY_RETENTION = [0.450, 0.360, 0.285, 0.225, 0.180, 0.145, 0.115, 0.085, 0.055, 0.030]
_SHAPE_CONCENTRATION = 12.0


def _tradeoff_shape_table() -> np.ndarray:
    """Shape table realizing the retention curves above.

    Each mean m becomes the pair (m*c, (1-m)*c) with a shared concentration
    c; shapes are floored at 1 to keep every density bounded.
    """
    n_actions = len(_PROTEIN_RETENTION)
    table = np.zeros((3, n_actions, 4))
    c = _SHAPE_CONCENTRATION
    for a in range(n_actions):
        h_mean = _PROTEIN_RETENTION[a]
        psi_mean = _IMPURITY_RETENTION[a]
        table[:, a, PSI_L] = psi_mean * c
        table[:, a, PSI_U] = (1.0 - psi_mean) * c
        table[:, a, ETA_L] = h_mean * c
        table[:, a, ETA_U] = (1.0 - h_mean) * c
    return np.maximum(table, 1.0)


def default_scenario() -> Scenario:
    """The shipped synthetic scenario (also available as packaged JSON)."""
    return Scenario(
        upstream=UpstreamParams(),
        true_model=ModelParams(_tradeoff_shape_table()),
        reward=RewardConfig(),
        p_bar=30.0,
        i_bar=30.0,
    )


def scenario_to_jsonable(scn: Scenario) -> dict:
    return {
        "upstream": asdict(scn.upstream),
        "true_model": {"beta_shapes": scn.true_model.beta_shapes.tolist()},
        "reward": asdict(scn.reward),
        "bounds": {"p_bar": scn.p_bar, "i_bar": scn.i_bar},
    }


def scenario_from_jsonable(obj: dict) -> Scenario:
    for section in ("upstream", "true_model", "reward", "bounds"):
        if section not in obj:
            raise ScenarioError(f"scenario is missing the '{section}' section")
    try:
        upstream = UpstreamParams(**obj["upstream"])
        reward_cfg = RewardConfig(**obj["reward"])
    except TypeError as exc:
        raise ScenarioError(f"unknown or missing scenario field: {exc}") from exc
    model = ModelParams(np.array(obj["true_model"]["beta_shapes"], dtype=np.float64))
    bounds = obj["bounds"]
    return Scenario(
        upstream=upstream,
        true_model=model,
        reward=reward_cfg,
        p_bar=float(bounds["p_bar"]),
        i_bar=float(bounds["i_bar"]),
    )


def save_scenario(scn: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_jsonable(scn), fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    return scenario_from_jsonable(obj)
