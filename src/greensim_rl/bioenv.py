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
model ``omega_c`` generates the observations (:class:`FractionDataset`,
with its CSV format) that the posterior in :mod:`greensim_rl.bayes`
learns from, and :func:`warm_up_fermentation` integrates a batch
fermentation before its first harvest.  The posterior's layout is this
module's too: its grid (:meth:`ChromatographyEnv.model_grid`), each
fraction's channel (:meth:`FractionDataset.channels`) and each draw's table
(:meth:`ModelParams.from_channels`).  The shipped default scenario, the
packaged file ``data/default_scenario.json``, is synthetic -- calibrated
so the harvest averages about 10 mg of each species -- not a measurement
of any real process.  Its true model trades protein retention against
impurity removal: each later pooling window strips more impurity and
keeps less protein, the same at both steps, and a retained-fraction mean
``m`` has the Beta shapes ``(12m, 12(1-m))``, each floored at 1 so that
every density stays bounded.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO

import numpy as np
from scipy.special import betaln

from .core import Environment, Policy, check_fields, check_object, check_typed, read_json, rollout_batch, write_csv

__all__ = [
    "ChromatographyEnv",
    "FractionDataset",
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
    "load_scenario",
    "read_fractions_csv",
    "save_scenario",
    "warm_up_fermentation",
    "write_fractions_csv",
]

# Smallest admissible mass (mg); keeps transition fractions well-defined.
EPS_MASS = 1e-6

# Sampled removal fractions are forced into the open interval: float rounding
# of extreme Beta draws can otherwise yield exactly 0 or 1, which have zero
# density and would break every likelihood ratio involving the trajectory.
_FRACTION_EPS = 1e-12

# Most RK4 steps (duration / dt) a fermentation may take, about 17x the
# default scenario's 60,000: past it the integration runs for minutes, or the
# step count overflows.
MAX_RK4_STEPS = 1_000_000

# beta_shapes column layout per (step, action).
PSI_L, PSI_U, ETA_L, ETA_U = 0, 1, 2, 3


class IntegrationError(RuntimeError):
    """Upstream ODE state became non-finite, or the final biomass negative."""


class InvalidStateError(ValueError):
    """Chromatography state violates a precondition (e.g. nonpositive mass)."""


class ScenarioError(ValueError):
    """Scenario file failed validation."""


def beta_log_pdf(x, a, b, log_beta):
    """Log density of Beta(a, b) at x; -inf outside (0, 1).  Broadcasts.

    ``log_beta`` is the normaliser ``scipy.special.betaln(a, b)``, passed in
    so that a caller can take it once per entry of a shape table rather
    than once per row.  The logs of ``x`` are taken at ``x``'s own shape:
    ``x`` of shape ``(n,)`` against shapes ``(R, n)`` takes them once.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    inside = (x > 0.0) & (x < 1.0)
    xs = np.where(inside, x, 0.5)  # dummy value, masked below
    logpdf = (a - 1.0) * np.log(xs) + (b - 1.0) * np.log1p(-xs) - log_beta
    return np.where(inside, logpdf, -np.inf)


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
    X0: float = 0.1                 # initial biomass (g/L), >= 0; 0 is a fixed point (no growth)
    S0: float = 40.0                # initial substrate (g/L), >= 0
    F: float = 0.0                  # feed rate (L/h); 0 = pure batch
    duration: float = 1200.0        # fermentation time (h); 50 days
    dt: float = 0.02                # integrator step (h); resolves the substrate-depletion layer
    harvest_noise_sd: float = 5.0   # additive mass noise at harvest (mg)
    harvest_to_mg: float = 778.0    # g/L -> mg bridge, > 0 (calibrated, see data/default_scenario.json)

    def __post_init__(self):
        check_fields(self, ScenarioError)
        for name in ("V", "dt", "duration", "q_s_max", "harvest_to_mg"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{name} must be positive")
        for name in ("X0", "S0", "S_i_sd", "nu1_sd", "nu2_sd", "harvest_noise_sd"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must be nonnegative")
        if not self.duration / self.dt <= MAX_RK4_STEPS:
            raise ScenarioError(
                f"duration / dt must be at most {MAX_RK4_STEPS} RK4 steps, got {self.duration!r} / {self.dt!r}"
            )


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
        if not np.isfinite(shapes).all() or (shapes <= 0.0).any():
            raise ScenarioError("all Beta shapes must be finite and strictly positive")
        shapes.setflags(write=False)
        object.__setattr__(self, "beta_shapes", shapes)

    @property
    def n_actions(self) -> int:
        return self.beta_shapes.shape[1]

    @classmethod
    def from_channels(cls, shapes: np.ndarray, n_actions: int) -> list[ModelParams]:
        """One model per draw of shapes ``(n, channels, 2)``: channel 2j is row j's eta pair, 2j + 1 its psi pair."""
        tables = shapes.reshape(len(shapes), -1, n_actions, 2, 2)[:, :, :, ::-1]
        return [cls(table) for table in tables.reshape(len(shapes), -1, n_actions, 4)]

    @functools.cached_property
    def log_beta(self) -> np.ndarray:
        """``betaln`` of each entry's (eta, psi) shape pairs, shape ``(steps, actions, 2)``, read-only.

        Taken on first use and kept: a model draw never changes, and a draw
        that never reaches a density never pays for it.
        """
        shapes = self.beta_shapes
        out = betaln(shapes[..., [ETA_L, PSI_L]], shapes[..., [ETA_U, PSI_U]])
        out.setflags(write=False)
        return out

    @functools.cached_property
    def beta_args(self) -> np.ndarray:
        """The Beta shapes regrouped as draw arguments, shape ``(steps, 2, 2, actions)``, read-only.

        ``beta_args[t-1, 0]`` holds the first shapes ``(eta_l, psi_l)`` of
        step t and ``beta_args[t-1, 1]`` the second ``(eta_u, psi_u)``, one
        column per pooling window.  So one gather along the last axis gives
        both argument arrays of a batch's ``Generator.beta`` call, protein
        row first.  Taken on first use and kept, as :attr:`log_beta` is.
        """
        shapes = self.beta_shapes[..., [[ETA_L, PSI_L], [ETA_U, PSI_U]]]  # (steps, actions, 2, 2)
        out = np.ascontiguousarray(shapes.transpose(0, 2, 3, 1))
        out.setflags(write=False)
        return out


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
        check_fields(self, ScenarioError)
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
    p_bar: float            # protein state bound (mg)
    i_bar: float            # impurity state bound (mg)

    def __post_init__(self):
        check_fields(self, ScenarioError)
        for name in ("p_bar", "i_bar"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{name} must be positive")
        rows = self.true_model.beta_shapes.shape[0]
        if rows < 2:
            # the transitions from steps 1 and 2 read rows 0 and 1
            raise ScenarioError(f"true_model.beta_shapes needs a row for each of steps 1 and 2, got {rows}")


# --- upstream fermentation ---------------------------------------------------


def _clamp_float(s: float) -> float:
    """``np.maximum(s, 0.0)`` on one float: NaN passes through and ``-0.0`` becomes ``0.0``."""
    return 0.0 if s <= 0.0 else s


def _clamp_array(s: np.ndarray) -> np.ndarray:
    return np.maximum(s, 0.0)


def _integrate_biomass(p: UpstreamParams, s_i):
    """Final biomass X (g/L) after fixed-step RK4 over the fermentation.

    ``s_i`` may be a scalar or an array (one inlet concentration per batch).
    A scalar runs the loop on plain Python floats: 60,000 steps of numpy
    scalar arithmetic cost about ten times as much, and every fresh process
    pays this integration before its first harvest.  An array integrates
    all batches in lockstep with the same loop, the clamp being the one
    difference.  Either way every operation is the same IEEE double
    operation in the same order, so a row of the array path carries the
    same bits as a scalar call.

    Raises :class:`IntegrationError` when the state becomes non-finite or
    the final biomass is negative: both mean ``dt`` is too coarse.
    """
    n_steps = max(1, int(round(p.duration / p.dt)))
    h = p.duration / n_steps
    if np.ndim(s_i):
        s_i = np.asarray(s_i, dtype=np.float64)
        x = np.full(s_i.shape, p.X0)
        s = np.full(s_i.shape, p.S0)
        clamp = _clamp_array
    else:
        s_i, x, s = float(s_i), p.X0, p.S0
        clamp = _clamp_float
    q_s_max, q_m, y_em = p.q_s_max, p.q_m, p.Y_em
    dilution = -p.F / p.V
    feed = p.F / p.V

    def rhs(x, s):
        s_eff = clamp(s)
        q_s = q_s_max * s_eff / (s_eff + 0.1)
        mu = (q_s - q_m) * y_em
        return (dilution + mu) * x, feed * (s_i - s_eff) - q_s * x

    half, sixth = 0.5 * h, h / 6.0
    # A diverging state overflows to inf and NaN; the finite check below is
    # the error, so the array path stays as silent as the float path.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            k1x, k1s = rhs(x, s)
            k2x, k2s = rhs(x + half * k1x, s + half * k1s)
            k3x, k3s = rhs(x + half * k2x, s + half * k2s)
            k4x, k4s = rhs(x + h * k3x, s + h * k3s)
            x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            s = clamp(s + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(s))):
        raise IntegrationError("upstream ODE state became non-finite; reduce dt")
    if np.any(x < 0.0):
        raise IntegrationError(f"upstream final biomass is negative ({float(np.min(x))!r} g/L); reduce dt")
    return x


@functools.lru_cache(maxsize=32)
def _batch_final_biomass(p: UpstreamParams) -> float:
    """Final biomass of a batch fermentation (F = 0), integrated once per parameter set.

    With F = 0 the (X, S) path does not involve S_i at all, so one scalar
    integration serves every harvest drawn from the scenario.  It runs on
    floats (see :func:`_integrate_biomass`) and returns a Python ``float``.
    """
    return _integrate_biomass(p, p.S_i_mean)


def warm_up_fermentation(p: UpstreamParams) -> None:
    """Integrate a batch (F = 0) fermentation into the cache now; do nothing for F > 0.

    So a diverging batch scenario raises :class:`IntegrationError` here,
    and forked workers inherit the cache.  A fed-batch one integrates and
    raises at each harvest.
    """
    if p.F == 0.0:
        _batch_final_biomass(p)


# --- chromatography transitions and rewards ---------------------------------


def _batch_step_indices(states: np.ndarray) -> np.ndarray:
    """Zero-based step index of every row of a transition batch: the one state check.

    Raises :class:`InvalidStateError` unless every mass is positive and
    every step coordinate is within 1e-9 of an integer in {1, 2}.
    Whole-array checks: the mixture calls this with thousands of rows per
    iteration.
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

    def model_grid(self) -> tuple[int, int]:
        """The ``(steps, actions)`` grid of a model's posterior: every step, the terminal one too, by every window."""
        return self.horizon(), self.action_count()

    def sample_initial_batch(self, n, rng) -> np.ndarray:
        """Noisy harvests at step 1: ``n`` rows ``(p1, i1, 1)``, masses clamped to the state box."""
        scn, up = self.scenario, self.scenario.upstream
        nu1 = rng.normal(up.nu1_mean, up.nu1_sd, size=n)
        nu2 = rng.normal(up.nu2_mean, up.nu2_sd, size=n)
        s_i = rng.normal(up.S_i_mean, up.S_i_sd, size=n)
        x_end = _batch_final_biomass(up) if up.F == 0.0 else _integrate_biomass(up, s_i)
        out = np.empty((n, 3))
        for col, nu, high in ((0, nu1, scn.p_bar), (1, nu2, scn.i_bar)):  # protein, then impurity noise
            mass = nu * x_end * up.harvest_to_mg + rng.normal(0.0, up.harvest_noise_sd, size=n)
            out[:, col] = np.minimum(np.maximum(mass, EPS_MASS), high)
        out[:, 2] = 1.0
        return out

    def sample_transition_batch(self, states, actions, omega, rng) -> np.ndarray:
        """Apply one chromatography column per row: retain Beta fractions of each mass.

        Every row must be at the same step (1 or 2).  A batch whose masses
        are all positive and whose step coordinates all equal 1.0, or all
        equal 2.0, passes one scalar test.  Any other batch goes through
        :func:`_batch_step_indices`, which raises on an invalid row and
        accepts step coordinates within 1e-9 of an integer.
        """
        t = states[0, 2] if states.min() > 0.0 else 0.0  # min() raises on an empty batch, as the check does
        if not ((t == 1.0 or t == 2.0) and (states[:, 2] == t).all()):
            t_idx = _batch_step_indices(states)
            if not (t_idx == t_idx[0]).all():
                steps = sorted(set((t_idx + 1).tolist()))
                raise InvalidStateError(f"batch rows must share one step index, got {steps}")
            t = t_idx[0] + 1
        t = int(t)
        args = omega.beta_args[t - 1].take(np.asarray(actions, dtype=np.int64), axis=2)
        fractions = rng.beta(args[0], args[1])  # (2, n): every h, then every psi
        np.maximum(fractions, _FRACTION_EPS, out=fractions)
        np.minimum(fractions, 1 - _FRACTION_EPS, out=fractions)
        out = np.empty((states.shape[0], 3))
        np.multiply(fractions.T, states[:, :2], out=out[:, :2])
        out[:, 2] = t + 1
        return out

    def transition_logpdf_batch(self, states, actions, next_states, omegas) -> np.ndarray:
        """Relative log density of each row's transition under each model of ``omegas``.

        The density is over the retained fractions ``h = p'/p`` and
        ``psi = i'/i``; the change-of-variable term ``-log(p * i)`` is
        omitted because it is identical for every ``omega`` (and every
        policy) given the transition, hence cancels in all likelihood
        ratios.  Fractions outside (0, 1) have zero density (-inf), which
        is a value, not an error.  Rows may be at different steps.

        The states are checked and the fractions' logs taken once for all
        R models; the rows gather the normalisers from each model's cached
        :attr:`ModelParams.log_beta` table.  Shape ``(R, n)``.
        """
        t_idx = _batch_step_indices(states)
        actions = np.asarray(actions, dtype=np.int64)
        tables = np.stack([omega.beta_shapes for omega in omegas])  # (R, steps, actions, 4)
        log_beta = np.stack([omega.log_beta for omega in omegas])[:, t_idx, actions]
        shapes = tables[:, t_idx, actions]  # (R, n, 4)
        h = next_states[:, 0] / states[:, 0]
        psi = next_states[:, 1] / states[:, 1]
        eta_term = beta_log_pdf(h, shapes[..., ETA_L], shapes[..., ETA_U], log_beta[..., 0])
        return eta_term + beta_log_pdf(psi, shapes[..., PSI_L], shapes[..., PSI_U], log_beta[..., 1])

    def reward_batch(self, states, actions) -> np.ndarray:
        """Steps 1 and 2 charge the column operating cost."""
        return np.full(states.shape[0], -self.scenario.reward.op_cost)

    def terminal_reward_batch(self, states) -> np.ndarray:
        """Quality payout of each step-3 state.

        Purity ``p/(p+i)`` below the requirement forfeits the failure
        cost; otherwise revenue is earned on the demanded amount, with a
        shortage penalty when the protein mass falls below the demand.  A
        zero-mass batch counts as a purity failure.
        """
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


# --- real-world observations ------------------------------------------------

# FractionDataset columns and their dtypes, in CSV column order.
_COLUMNS = {"step": np.int64, "action": np.int64, "h": np.float64, "psi": np.float64}
# The same columns' headers in the fractions CSV file.
_CSV_COLUMNS = ("step", "action", "h_fraction", "psi_fraction")


@dataclass(frozen=True, eq=False)
class FractionDataset:
    """All real-world fraction observations collected so far, held as columns.

    Entry ``j`` is one executed transition: ``step[j]`` (1 or 2) and
    ``action[j]`` (nonnegative) identify its (step, pooling window) cell,
    ``h[j]`` and ``psi[j]`` are the protein and impurity fractions retained,
    each in the open interval (0, 1).  The columns are validated at
    construction and made read-only in place.
    """

    step: np.ndarray = ()
    action: np.ndarray = ()
    h: np.ndarray = ()
    psi: np.ndarray = ()

    def __post_init__(self):
        cols = {name: np.asarray(getattr(self, name), dtype=dtype) for name, dtype in _COLUMNS.items()}
        if cols["step"].ndim != 1 or {arr.shape for arr in cols.values()} != {cols["step"].shape}:
            raise ValueError("step, action, h and psi must be 1-D columns of one length")
        bad = cols["step"][(cols["step"] != 1) & (cols["step"] != 2)]
        if bad.size:
            raise ValueError(f"observations come from steps 1 and 2, got {bad[0]}")
        if (cols["action"] < 0).any():
            raise ValueError("action must be nonnegative")
        for name in ("h", "psi"):
            v = cols[name]
            bad = v[~((v > 0.0) & (v < 1.0))]
            if bad.size:
                raise ValueError(f"{name}={bad[0]} outside (0, 1)")
        for name, arr in cols.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.step.size

    @staticmethod
    def channel_keys(n_steps: int, n_actions: int) -> list[tuple[int, int, str]]:
        """The ``(step, action, species)`` key of each channel of an ``n_steps x n_actions`` grid, in channel order."""
        return [(t, a, species) for t in range(1, n_steps + 1) for a in range(n_actions) for species in ("eta", "psi")]

    def channels(self, n_steps: int, n_actions: int) -> tuple[np.ndarray, np.ndarray]:
        """Each fraction's channel on an ``n_steps x n_actions`` grid and its value, every ``h`` then every ``psi``."""
        outside = (self.step > n_steps) | (self.action >= n_actions)
        if outside.any():
            j = int(np.argmax(outside))
            raise ValueError(
                f"observation at step {self.step[j]}, action {self.action[j]} "
                f"outside {n_steps} steps x {n_actions} actions"
            )
        eta = 2 * ((self.step - 1) * n_actions + self.action)
        return np.concatenate([eta, eta + 1]), np.concatenate([self.h, self.psi])

    def union(self, other: FractionDataset) -> FractionDataset:
        return FractionDataset(*(np.concatenate([getattr(self, c), getattr(other, c)]) for c in _COLUMNS))


def write_fractions_csv(dataset: FractionDataset, path) -> None:
    write_csv(path, _CSV_COLUMNS, zip(*(getattr(dataset, c).tolist() for c in _COLUMNS)))


def read_fractions_csv(fh: IO[str]) -> FractionDataset:
    """Read what :func:`write_fractions_csv` writes; a missing column or cell raises ``ValueError``."""
    reader = csv.DictReader(fh)
    header = reader.fieldnames or []
    for column in _CSV_COLUMNS:
        if column not in header:
            raise ValueError(f"fraction data has no {column!r} column")
    rows = []
    for row in reader:
        if None in row or None in row.values():
            raise ValueError(f"fraction data line {reader.line_num} does not have one cell per header column")
        rows.append((int(row["step"]), int(row["action"]), float(row["h_fraction"]), float(row["psi_fraction"])))
    return FractionDataset(*zip(*rows)) if rows else FractionDataset()


def collect_real_data(
    scn: Scenario, policy: Policy, theta: np.ndarray, m: int, rng: np.random.Generator
) -> FractionDataset:
    """Run ``m`` real-world batches under the true model and record fractions.

    Every executed transition contributes one observation
    ``(step, action, protein fraction, impurity fraction)``, trajectory by
    trajectory and step by step within each; these are the measurements
    the posterior over the transition model consumes.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    env = ChromatographyEnv(scn)
    batch = rollout_batch(env, policy, theta, scn.true_model, m, rng)
    states, actions, next_states = batch.step_arrays
    return FractionDataset(
        _batch_step_indices(states) + 1,
        actions,
        next_states[:, 0] / states[:, 0],
        next_states[:, 1] / states[:, 1],
    )


# --- scenario construction and I/O -------------------------------------------


def default_scenario() -> Scenario:
    """The shipped synthetic scenario, read from the packaged ``data/default_scenario.json``."""
    return load_scenario(Path(__file__).parent / "data" / "default_scenario.json")


def scenario_to_jsonable(scn: Scenario) -> dict:
    return {
        "upstream": asdict(scn.upstream),
        "true_model": {"beta_shapes": scn.true_model.beta_shapes.tolist()},
        "reward": asdict(scn.reward),
        "bounds": {"p_bar": scn.p_bar, "i_bar": scn.i_bar},
    }


_SECTIONS = ("upstream", "true_model", "reward", "bounds")


def scenario_from_jsonable(obj) -> Scenario:
    check_object(obj, ScenarioError, "scenario", _SECTIONS, _SECTIONS)
    upstream = check_object(obj["upstream"], ScenarioError, "upstream", UpstreamParams.__dataclass_fields__)
    reward = check_object(obj["reward"], ScenarioError, "reward", RewardConfig.__dataclass_fields__)
    model = check_object(obj["true_model"], ScenarioError, "true_model", ("beta_shapes",), ("beta_shapes",))
    bounds = check_object(obj["bounds"], ScenarioError, "bounds", ("p_bar", "i_bar"), ("p_bar", "i_bar"))
    shapes = np.array(model["beta_shapes"], dtype=object)
    # np.array would read "2.5" and true as numbers: every entry must be a JSON number
    check_typed(ScenarioError, (("beta_shapes", v, "float") for v in shapes.flat))
    return Scenario(
        upstream=UpstreamParams(**upstream),
        true_model=ModelParams(shapes.astype(np.float64)),
        reward=RewardConfig(**reward),
        p_bar=bounds["p_bar"],
        i_bar=bounds["i_bar"],
    )


def save_scenario(scn: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_jsonable(scn), fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    return scenario_from_jsonable(read_json(path, ScenarioError))
