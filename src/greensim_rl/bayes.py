"""Transition-model risk quantification.

The real-world dataset holds observed chromatography removal fractions per
(step, pooling window).  Under a Unif(0, 300] prior on every Beta shape
parameter, each (step, action, species) channel has an independent
posterior over its ``(alpha, beta)`` pair given the fractions observed for
that channel.  A random-walk Metropolis-Hastings chain per channel (on
log shapes, with per-chain step-size adaptation during burn-in) produces
joint posterior draws assembled into full model parameter tables.

The chains advance in lockstep.  :class:`PosteriorState` holds them as
arrays, one row per channel, and every move updates all data-backed chains
at once: one vectorised ``betaln`` over the proposals, a per-chain
acceptance mask and per-chain step sizes and adaptation windows.  The
randomness stays per channel: each channel draws its proposal increments
and acceptance uniforms from its own child stream, so one channel's draws
do not depend on the data held by any other channel.

Channels with no observations are sampled by an independence proposal
from the prior itself, which such a chain accepts with probability one --
so their draws are exactly i.i.d. Unif(0, 300].  This covers both sparse
(step, action) cells and the terminal-step rows that no transition ever
produces data for.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO

import numpy as np
from scipy.special import betaln

from .bioenv import ETA_L, ETA_U, PSI_L, PSI_U, ModelParams

__all__ = [
    "FractionDataset",
    "FractionObservation",
    "PosteriorState",
    "acceptance_rows",
    "log_posterior_pair",
    "make_posterior",
    "mh_sample",
    "read_fractions_csv",
    "update_dataset",
    "write_acceptance_csv",
    "write_fractions_csv",
]

PRIOR_HIGH = 300.0

# Step-size adaptation (burn-in only): nudge toward the target acceptance band.
ADAPT_EVERY = 25
ACCEPT_LOW, ACCEPT_HIGH = 0.3, 0.5


@dataclass(frozen=True)
class FractionObservation:
    """One real-world transition measurement."""

    step: int
    action: int
    h_fraction: float      # protein fraction retained
    psi_fraction: float    # impurity fraction retained

    def __post_init__(self):
        if self.step not in (1, 2):
            raise ValueError(f"observations come from steps 1 and 2, got {self.step}")
        if self.action < 0:
            raise ValueError("action must be nonnegative")
        for name in ("h_fraction", "psi_fraction"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name}={v} outside (0, 1)")


@dataclass(frozen=True)
class FractionDataset:
    """All real-world fraction observations collected so far."""

    observations: tuple[FractionObservation, ...] = ()

    def __len__(self) -> int:
        return len(self.observations)

    def union(self, other: "FractionDataset") -> "FractionDataset":
        return FractionDataset(self.observations + other.observations)

    def partition(self) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """Group fractions by (step, action) -> (protein array, impurity array)."""
        groups: dict[tuple[int, int], tuple[list, list]] = {}
        for obs in self.observations:
            h, psi = groups.setdefault((obs.step, obs.action), ([], []))
            h.append(obs.h_fraction)
            psi.append(obs.psi_fraction)
        return {key: (np.array(h), np.array(p)) for key, (h, p) in groups.items()}


def write_fractions_csv(dataset: FractionDataset, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["step", "action", "h_fraction", "psi_fraction"])
    for obs in dataset.observations:
        writer.writerow([obs.step, obs.action, repr(obs.h_fraction), repr(obs.psi_fraction)])


def read_fractions_csv(fh: IO[str]) -> FractionDataset:
    reader = csv.DictReader(fh)
    observations = tuple(
        FractionObservation(
            step=int(row["step"]),
            action=int(row["action"]),
            h_fraction=float(row["h_fraction"]),
            psi_fraction=float(row["psi_fraction"]),
        )
        for row in reader
    )
    return FractionDataset(observations)


# --- log posterior -----------------------------------------------------------


def _suff_stats(fractions) -> tuple[int, float, float]:
    """Beta-likelihood sufficient statistics ``(n, sum log x, sum log(1-x))``."""
    fractions = np.asarray(fractions, dtype=np.float64)
    if fractions.size == 0:
        return 0, 0.0, 0.0
    return int(fractions.size), float(np.sum(np.log(fractions))), float(np.sum(np.log1p(-fractions)))


def _log_lik(alpha, beta, n, sum_log, sum_log1m):
    """Beta log likelihood from sufficient statistics; broadcasts over chains."""
    return (alpha - 1.0) * sum_log + (beta - 1.0) * sum_log1m - n * betaln(alpha, beta)


def log_posterior_pair(shapes, fractions) -> float:
    """Unnormalized log posterior of one (alpha, beta) pair.

    The flat prior over (0, 300]^2 contributes only its support indicator;
    outside the support the value is -inf.
    """
    alpha, beta = float(shapes[0]), float(shapes[1])
    if not (0.0 < alpha <= PRIOR_HIGH and 0.0 < beta <= PRIOR_HIGH):
        return -np.inf
    n, sum_log, sum_log1m = _suff_stats(fractions)
    return float(_log_lik(alpha, beta, n, sum_log, sum_log1m)) if n else 0.0


# --- chains ------------------------------------------------------------------


class PosteriorState:
    """Dataset plus one MCMC chain per (step, action, species) channel, held as arrays.

    Row ``c`` of every per-chain array belongs to ``channel_keys()[c]``:
    ``log_shapes`` (C, 2) is the position on log shapes, ``step_size`` the
    random-walk scale, ``accepted``/``proposed`` the totals since the last
    restart and ``window_accepted``/``window_proposed`` the step-size
    adaptation window.  ``n_obs``, ``sum_log`` and ``sum_log1m`` are the
    channels' sufficient statistics.  ``steps_taken`` is the move count,
    shared by every chain.

    Single-writer: :func:`mh_sample` advances the chains in place.  The
    emitted :class:`~greensim_rl.bioenv.ModelParams` draws are immutable.
    """

    def __init__(
        self,
        dataset: FractionDataset,
        n_steps: int = 3,
        n_actions: int = 10,
        burn_in: int = 500,
        thin: int = 5,
    ):
        if thin < 1 or burn_in < 0:
            raise ValueError("thin must be >= 1 and burn_in >= 0")
        self.dataset = dataset
        self.n_steps = n_steps
        self.n_actions = n_actions
        self.burn_in = burn_in
        self.thin = thin
        n_chains = 2 * n_steps * n_actions
        self.log_shapes = np.log(np.full((n_chains, 2), 10.0))
        self.step_size = np.full(n_chains, 0.5)
        self.accepted = np.zeros(n_chains, dtype=np.int64)
        self.proposed = np.zeros(n_chains, dtype=np.int64)
        self.window_accepted = np.zeros(n_chains, dtype=np.int64)
        self.window_proposed = np.zeros(n_chains, dtype=np.int64)
        self.steps_taken = 0
        self.n_obs = np.zeros(n_chains, dtype=np.int64)
        self.sum_log = np.zeros(n_chains)
        self.sum_log1m = np.zeros(n_chains)
        for (t, a), (h, psi) in dataset.partition().items():
            if t > n_steps or a >= n_actions:
                raise ValueError(
                    f"observation at step {t}, action {a} outside {n_steps} steps x {n_actions} actions"
                )
            eta_row = 2 * ((t - 1) * n_actions + a)  # the (t, a, "psi") row follows it
            for c, fractions in ((eta_row, h), (eta_row + 1, psi)):
                self.n_obs[c], self.sum_log[c], self.sum_log1m[c] = _suff_stats(fractions)

    def channel_keys(self) -> list[tuple[int, int, str]]:
        return [
            (t, a, channel)
            for t in range(1, self.n_steps + 1)
            for a in range(self.n_actions)
            for channel in ("eta", "psi")
        ]


def make_posterior(
    dataset: FractionDataset,
    n_steps: int = 3,
    n_actions: int = 10,
    burn_in: int = 500,
    thin: int = 5,
) -> PosteriorState:
    return PosteriorState(dataset, n_steps, n_actions, burn_in, thin)


def _walk(ps: PosteriorState, live: np.ndarray, normals: np.ndarray, log_us: np.ndarray, stops) -> list:
    """Advance the data-backed chains ``live`` through ``len(normals)`` moves in lockstep.

    ``normals`` (M, L, 2) and ``log_us`` (M, L) hold each chain's random-walk
    increments and log acceptance uniforms.  The acceptance ratio carries
    the log-transform Jacobian, so each chain targets the posterior over the
    shapes themselves.  While the shared move count is within burn-in, every
    chain whose window holds ``ADAPT_EVERY`` proposals nudges its step size
    toward the target acceptance band.  Returns the positions after each
    move index in ``stops``.
    """
    pos = ps.log_shapes[live]
    step = ps.step_size[live]
    n_obs, sum_log, sum_log1m = ps.n_obs[live], ps.sum_log[live], ps.sum_log1m[live]
    alpha, beta = np.exp(pos).T
    cur_ll = _log_lik(alpha, beta, n_obs, sum_log, sum_log1m)
    accepted = np.zeros(live.size, dtype=np.int64)
    w_acc, w_prop = ps.window_accepted[live], ps.window_proposed[live]
    steps = ps.steps_taken
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(normals.shape[0]):
            prop = pos + step[:, None] * normals[m]
            alpha, beta = np.exp(prop).T
            inside = (alpha <= PRIOR_HIGH) & (beta <= PRIOR_HIGH)
            prop_ll = _log_lik(alpha, beta, n_obs, sum_log, sum_log1m)
            # the sum difference is the Jacobian of the log transform
            log_ratio = np.where(inside, (prop_ll - cur_ll) + (prop.sum(axis=1) - pos.sum(axis=1)), -np.inf)
            take = log_us[m] < log_ratio
            pos = np.where(take[:, None], prop, pos)
            cur_ll = np.where(take, prop_ll, cur_ll)
            accepted += take
            w_acc += take
            w_prop += 1
            steps += 1
            if steps <= ps.burn_in:
                full = w_prop >= ADAPT_EVERY
                if full.any():
                    rate = w_acc / w_prop
                    step = np.where(full & (rate < ACCEPT_LOW), np.maximum(step * 0.7, 1e-3), step)
                    step = np.where(full & (rate > ACCEPT_HIGH), np.minimum(step * 1.4, 10.0), step)
                    w_acc[full] = 0
                    w_prop[full] = 0
            if m in stops:
                out.append(pos)
    ps.step_size[live] = step
    ps.accepted[live] += accepted
    ps.proposed[live] += normals.shape[0]
    ps.window_accepted[live] = w_acc
    ps.window_proposed[live] = w_prop
    return out


def mh_sample(ps: PosteriorState, n: int, rng: np.random.Generator) -> list[ModelParams]:
    """Draw ``n`` thinned post-burn-in joint posterior samples.

    A call first finishes burn-in, if the chains have made fewer than
    ``burn_in`` moves, and then makes ``thin`` moves per draw.  Each channel
    has its own child stream, spawned from ``rng`` in ``channel_keys()``
    order, so the draw sequence of one channel is unaffected by the data
    held by any other.  A data-backed channel draws from its stream, block
    by block (burn-in, then each draw), the block's normal increments and
    then its log acceptance uniforms; all data-backed chains then advance
    together, one set of array operations per move (:func:`_walk`).  An
    empty channel draws one prior point per block instead: the flat target
    always accepts that independence proposal, so its draws are i.i.d.
    Unif(0, 300].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    streams = rng.spawn(ps.n_obs.size)
    burn = max(ps.burn_in - ps.steps_taken, 0)
    blocks = ([burn] if burn else []) + [ps.thin] * n
    n_moves = sum(blocks)
    live = np.flatnonzero(ps.n_obs > 0)
    empty = np.flatnonzero(ps.n_obs == 0)
    positions = np.empty((n, ps.n_obs.size, 2))
    if live.size:
        normals = np.empty((n_moves, live.size, 2))
        uniforms = np.empty((n_moves, live.size))
        for j, c in enumerate(live):
            lo = 0
            for m in blocks:
                normals[lo:lo + m, j] = streams[c].standard_normal((m, 2))
                uniforms[lo:lo + m, j] = streams[c].random(m)
                lo += m
        stops = {burn + ps.thin * (d + 1) - 1 for d in range(n)}
        positions[:, live] = _walk(ps, live, normals, np.log(uniforms), stops)
    if empty.size:
        # One prior point per block stands in for the block's moves.  All blocks'
        # points come from one call (Generator.random fills in stream order);
        # the burn-in block's point is drawn only to keep the stream in step.
        prior = np.stack([streams[c].random((len(blocks), 2))[-n:] for c in empty], axis=1)
        positions[:, empty] = np.log(PRIOR_HIGH * (1.0 - prior))  # in (0, PRIOR_HIGH]
        ps.accepted[empty] += n_moves
        ps.proposed[empty] += n_moves
    ps.steps_taken += n_moves
    ps.log_shapes = positions[-1].copy()

    rows = np.arange(ps.n_obs.size)[:, None] // 2
    cols = np.tile([[ETA_L, ETA_U], [PSI_L, PSI_U]], (ps.n_obs.size // 2, 1))
    shapes = np.exp(positions)
    out = []
    for d in range(n):
        table = np.zeros((ps.n_steps * ps.n_actions, 4))
        table[rows, cols] = shapes[d]
        out.append(ModelParams(table.reshape(ps.n_steps, ps.n_actions, 4)))
    return out


def update_dataset(ps: PosteriorState, new_data: FractionDataset) -> PosteriorState:
    """Fold new observations in: union the datasets, warm-start the chains.

    Chain positions and tuned step sizes carry over, but acceptance
    statistics reset and burn-in (with adaptation) reruns against the new
    posterior before the next draws are emitted.
    """
    merged = PosteriorState(
        ps.dataset.union(new_data), ps.n_steps, ps.n_actions, ps.burn_in, ps.thin
    )
    merged.log_shapes = ps.log_shapes.copy()
    merged.step_size = ps.step_size.copy()
    return merged


def acceptance_rows(ps: PosteriorState) -> list[dict]:
    rows = []
    for c, (t, a, channel) in enumerate(ps.channel_keys()):
        proposed = int(ps.proposed[c])
        rows.append(
            {
                "step": t,
                "action": a,
                "channel": channel,
                "n_obs": int(ps.n_obs[c]),
                "proposed": proposed,
                "accept_rate": int(ps.accepted[c]) / proposed if proposed else 0.0,
                "step_size": float(ps.step_size[c]),
            }
        )
    return rows


def write_acceptance_csv(ps: PosteriorState, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["step", "action", "channel", "n_obs", "proposed", "accept_rate", "step_size"])
    for row in acceptance_rows(ps):
        writer.writerow(
            [
                row["step"],
                row["action"],
                row["channel"],
                row["n_obs"],
                row["proposed"],
                repr(row["accept_rate"]),
                repr(row["step_size"]),
            ]
        )
