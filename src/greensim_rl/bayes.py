"""Transition-model risk quantification.

The posterior learns from the real-world dataset, the observed
chromatography removal fractions per (step, pooling window) that
:mod:`greensim_rl.bioenv` collects from its true model and reads and
writes as CSV (:class:`~greensim_rl.bioenv.FractionDataset`).  Under a
Unif(0, 300] prior on every Beta shape parameter, each (step, action,
species) channel has an independent posterior over its ``(alpha, beta)``
pair given the fractions observed for that channel.  The Beta likelihood
depends on a channel's fractions only through ``(n, sum log x,
sum log(1-x))``; :class:`PosteriorState` computes these for every channel
in one grouped reduction over the columns.  A random-walk
Metropolis-Hastings chain per channel (on log shapes, with per-chain
step-size adaptation during burn-in) produces joint posterior draws
assembled into full model parameter tables.

:mod:`greensim_rl.bioenv` owns the layout, so this module works on
channel numbers alone: the grid a posterior is made on
(``ChromatographyEnv.model_grid``), each channel's key and each
fraction's channel (``FractionDataset.channel_keys`` and ``channels``),
and the parameter tables a draw's per-channel shapes become
(``ModelParams.from_channels``).  This module owns the chains and which
of them a period's mean acceptance counts (:func:`mean_acceptance`).

The chains advance in lockstep.  :class:`PosteriorState` holds them as
arrays, one row per channel, and every move updates all data-backed chains
at once: one vectorised ``betaln`` over the proposals, a per-chain
acceptance mask and per-chain step sizes.  Step sizes adapt only in
burn-in, which a posterior's first draw runs: after each whole window of
burn-in moves every chain nudges its step size, and the moves between
those points run in segments of fixed step sizes, each scaling its
increments at once.  Fixing the step sizes before the draws keeps them a
valid Metropolis-Hastings chain (Roberts & Rosenthal 2009, "Examples of
adaptive MCMC").  A draw is named by a stream key ``(root_seed, *path)``, as
:func:`~greensim_rl.core.substream` names a stream, and takes all of its
randomness from that one stream: each array it draws has one column per
channel, for every channel, and channel ``c`` reads column ``c``.  So one
channel's draws do not depend on the data held by any other channel
(the counter-based layout of Salmon et al. 2011, "Parallel random
numbers: as easy as 1, 2, 3").

A posterior's dataset never changes, so :class:`PosteriorState` builds
its data-backed chains' walk state once, when it is made, and every
:func:`mh_sample` call advances it in place.  A move is a fixed sequence
of ufunc calls that write into that state's rows, so it costs what numpy
charges per call, not per chain.  Every operation is the same IEEE
operation, in the same order, as in a plain per-chain loop, so the draws
do not depend on how the work is laid out.

Channels with no observations are sampled by an independence proposal
from the prior itself, which such a chain accepts with probability one --
so their draws are exactly i.i.d. Unif(0, 300].  This covers both sparse
(step, action) cells and the terminal-step rows that no transition ever
produces data for.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betaln

from .bioenv import FractionDataset, ModelParams
from .core import substream, write_csv

__all__ = [
    "PosteriorState",
    "acceptance_rows",
    "make_posterior",
    "mean_acceptance",
    "mh_sample",
    "update_dataset",
    "write_acceptance_csv",
]

PRIOR_HIGH = 300.0

# Upper bound on burn_in and on n * thin.  A call draws three doubles per move and
# channel at once, and a posterior's first call makes burn_in + n * thin <= 2 * MAX_MOVES
# moves, so at 60 channels it takes up to about 288 MB.
MAX_MOVES = 100_000

# Step-size adaptation (burn-in only): after each ADAPT_EVERY moves, nudge toward the target band.
ADAPT_EVERY = 25
ACCEPT_LOW, ACCEPT_HIGH = 0.3, 0.5

# --- log likelihood ----------------------------------------------------------


def _log_lik(shapes: np.ndarray, stats: np.ndarray):
    """The Beta log likelihood of each chain at ``shapes``, as a function that writes it into its argument.

    ``shapes`` (2, L) holds the chains' ``alpha`` and ``beta`` rows, which
    the caller refills between calls; ``stats`` (3, L) holds their ``n``,
    ``sum log x`` and ``sum log(1-x)`` rows.  A call computes
    ``(alpha - 1) * sum_log + (beta - 1) * sum_log1m - n * betaln(alpha, beta)``
    in that order, each operation writing into a row allocated and viewed
    here, once.
    """
    alpha, beta = shapes
    n, sums = stats[0], stats[1:]
    work = np.empty_like(shapes)
    alpha_term, beta_term = work

    def log_lik(out: np.ndarray) -> None:
        np.subtract(shapes, 1.0, out=work)
        np.multiply(work, sums, out=work)
        np.add(alpha_term, beta_term, out=out)
        norm = betaln(alpha, beta)
        np.multiply(n, norm, out=norm)
        np.subtract(out, norm, out=out)

    return log_lik


# --- chains ------------------------------------------------------------------


class _Chains:
    """The data-backed chains' walk state, made once and advanced in place by :func:`_walk`.

    Column ``j`` of every array is one chain, in walk order.  One work
    block (8, L) holds ``state``, the rows log alpha, log beta, their sum
    and log likelihood, and ``prop``, the proposal's same four rows; the
    rows' views are taken here, once.  ``shapes`` (2, L) is the ``exp`` of
    a position, read by ``log_lik``, the likelihood writer over the
    chains' sufficient statistics ``stats`` (3, L).  ``step`` is each
    chain's random-walk scale and ``accepted`` its accepted moves.  The
    state's log likelihood is worked out here, once, from the start
    positions ``log_shapes`` (L, 2); after that every accepted move carries
    its proposal's.
    """

    def __init__(self, stats: np.ndarray, log_shapes: np.ndarray, step_size: np.ndarray):
        n_live = stats.shape[1]
        block = np.empty((8, n_live))
        self.state, self.prop = block[:4], block[4:]
        self.pos, self.prop_pos = self.state[:2], self.prop[:2]
        self.state_tail, self.prop_tail = self.state[2:], self.prop[2:]
        self.shapes = np.empty((2, n_live))
        self.log_lik = _log_lik(self.shapes, stats)
        self.ratio = np.empty((2, n_live))  # the rows of prop_tail - state_tail
        self.larger, self.inside = np.empty(n_live), np.empty(n_live, dtype=bool)
        self.step = np.array(step_size, dtype=np.float64)
        self.accepted = np.zeros(n_live, dtype=np.int64)
        _, _, pos_sum, cur_ll = self.state
        self.pos[...] = log_shapes.T
        np.add(self.pos[0], self.pos[1], out=pos_sum)
        np.exp(self.pos, out=self.shapes)
        self.log_lik(cur_ll)


class PosteriorState:
    """Dataset plus one MCMC chain per (step, action, species) channel, held as arrays.

    Row ``c`` of every per-channel array belongs to channel ``c`` of
    ``FractionDataset.channel_keys(n_steps, n_actions)``:
    ``log_shapes`` (C, 2) is the position on log shapes, ``step_size`` the
    random-walk scale and ``accepted``/``proposed`` the totals since the
    posterior was made.  These four are read-only.  ``log_shapes`` is the
    last call's final positions; the other three are assembled when read
    from the data-backed chains' :class:`_Chains` walk state, in walk
    order, which every :func:`mh_sample` call advances in place.  ``n_obs``,
    ``sum_log`` and ``sum_log1m`` are the channels' sufficient statistics.
    ``steps_taken`` is the move count, shared by every chain: 0 before the
    first :func:`mh_sample` call, past ``burn_in`` after it.

    The dataset is fixed at construction, and so is everything drawn from
    it, read-only: ``live`` indexes the channels with observations, and
    ``stats`` (3, C) stacks every channel's ``n_obs`` (as floats),
    ``sum_log`` and ``sum_log1m``; the walk state is built from them here.
    The chains start at ``log_shapes`` and ``step_size`` if given (a warm
    start, as :func:`update_dataset` makes), else at (10, 10) and 0.5.

    Single-writer: :func:`mh_sample` advances the chains in place.  The
    emitted :class:`~greensim_rl.bioenv.ModelParams` draws are immutable.
    """

    def __init__(
        self,
        dataset: FractionDataset,
        n_steps: int,
        n_actions: int,
        burn_in: int,
        thin: int,
        log_shapes: np.ndarray | None = None,
        step_size: np.ndarray | None = None,
    ):
        if not (1 <= thin <= MAX_MOVES and 0 <= burn_in <= MAX_MOVES):
            raise ValueError(f"thin must be in [1, {MAX_MOVES}] and burn_in in [0, {MAX_MOVES}]")
        self.dataset = dataset
        self.n_steps = n_steps
        self.n_actions = n_actions
        self.burn_in = burn_in
        self.thin = thin
        n_chains = len(FractionDataset.channel_keys(n_steps, n_actions))
        if log_shapes is None:
            log_shapes = np.log(np.full((n_chains, 2), 10.0))
        if step_size is None:
            step_size = np.full(n_chains, 0.5)
        # every channel's last position, replaced by each mh_sample call
        self._positions = np.array(log_shapes, dtype=np.float64)
        self._step_size = np.array(step_size, dtype=np.float64)
        if self._positions.shape != (n_chains, 2) or self._step_size.shape != (n_chains,):
            raise ValueError(f"log_shapes must have shape ({n_chains}, 2) and step_size ({n_chains},)")
        self.steps_taken = 0
        self.n_obs = np.zeros(n_chains, dtype=np.int64)
        self.sum_log = np.zeros(n_chains)
        self.sum_log1m = np.zeros(n_chains)
        channel, fractions = dataset.channels(n_steps, n_actions)
        # A stable sort keeps each channel's fractions in observation order, so
        # every per-channel np.sum adds the same values in the same order.
        order = np.argsort(channel, kind="stable")
        fractions = fractions[order]
        log_x, log1m_x = np.log(fractions), np.log1p(-fractions)
        rows, starts, counts = np.unique(channel[order], return_index=True, return_counts=True)
        self.n_obs[rows] = counts
        for c, lo, hi in zip(rows.tolist(), starts.tolist(), (starts + counts).tolist()):
            self.sum_log[c] = np.sum(log_x[lo:hi])
            self.sum_log1m[c] = np.sum(log1m_x[lo:hi])
        # The dataset never changes after this point, so neither does anything drawn from it.
        self.live = np.flatnonzero(self.n_obs > 0)
        self.stats = np.stack([self.n_obs.astype(np.float64), self.sum_log, self.sum_log1m])
        for arr in (self.n_obs, self.sum_log, self.sum_log1m, self.live, self.stats, self._positions, self._step_size):
            arr.setflags(write=False)
        live = self.live
        self._chains = _Chains(self.stats[:, live], self._positions[live], self._step_size[live])

    def _per_channel(self, base: np.ndarray, live_values: np.ndarray) -> np.ndarray:
        """A read-only copy of ``base`` with the data-backed chains' ``live_values`` in their rows."""
        out = np.array(base)
        out[self.live] = live_values
        out.setflags(write=False)
        return out

    @property
    def log_shapes(self) -> np.ndarray:
        return self._positions

    @property
    def step_size(self) -> np.ndarray:
        return self._per_channel(self._step_size, self._chains.step)

    @property
    def proposed(self) -> np.ndarray:
        proposed = np.full(self.n_obs.size, self.steps_taken)
        proposed.setflags(write=False)
        return proposed

    @property
    def accepted(self) -> np.ndarray:
        # a prior-only channel accepts every independence proposal
        return self._per_channel(self.proposed, self._chains.accepted)


def make_posterior(
    dataset: FractionDataset,
    n_steps: int,
    n_actions: int,
    burn_in: int = 500,
    thin: int = 5,
) -> PosteriorState:
    """A posterior over an ``n_steps x n_actions`` grid, such as ``ChromatographyEnv.model_grid()``.

    ``burn_in`` and ``thin`` are move counts, each at most ``MAX_MOVES``
    (100,000); a value outside ``[0, MAX_MOVES]`` or ``[1, MAX_MOVES]``
    raises ``ValueError`` before anything is drawn.
    """
    return PosteriorState(dataset, n_steps, n_actions, burn_in, thin)


def _walk(chains: _Chains, burn: int, normals: np.ndarray, log_us: np.ndarray, stops) -> list:
    """Advance the walk state ``chains`` through ``len(normals)`` moves in lockstep, in place.

    ``burn`` is the length of the call's burn-in block, fewer moves than the
    call makes.  ``normals`` (M, L, 2) and ``log_us`` (M, L) hold each
    chain's random-walk increments and log acceptance uniforms, in walk
    order.  The acceptance ratio carries the log-transform Jacobian, so each
    chain targets the posterior over the shapes themselves.  Returns the
    ``(L, 2)`` positions after each move index in ``stops``.

    The moves run in segments of fixed step sizes.  The burn-in block's
    first ``burn // ADAPT_EVERY`` whole windows of ``ADAPT_EVERY`` moves
    are one segment each, after which every chain nudges its step size
    toward the target acceptance band from its acceptance rate in that
    window.  The rest of the call is one segment with no adaptation.  A
    segment scales its increments in one product and sums its moves' rows
    of an ``(M, L)`` acceptance mask into the accepted counts at its end.

    Every operation of a move writes into the walk state's rows with
    ``out=``; a proposal outside the prior support leaves its chain's entry
    of the mask unset, and one ``np.copyto`` moves the accepted proposals
    into the state.  So a call allocates only its increments and its mask.
    """
    n_moves, n_live = log_us.shape
    state, prop, pos, prop_pos = chains.state, chains.prop, chains.pos, chains.prop_pos
    prop_log_alpha, prop_log_beta, prop_sum, prop_ll = prop
    state_tail, prop_tail, ratio = chains.state_tail, chains.prop_tail, chains.ratio
    jacobian, log_ratio = ratio
    alpha, beta = shapes = chains.shapes
    log_lik, larger, inside = chains.log_lik, chains.larger, chains.inside
    step, accepted = chains.step, chains.accepted
    increments = np.empty((n_moves, 2, n_live))
    takes = np.zeros((n_moves, n_live), dtype=bool)
    out = []
    windows = burn // ADAPT_EVERY
    with np.errstate(over="ignore", invalid="ignore"):
        for window in range(windows + 1):
            m0 = window * ADAPT_EVERY
            m1 = m0 + ADAPT_EVERY if window < windows else n_moves
            np.multiply(step, normals[m0:m1].transpose(0, 2, 1), out=increments[m0:m1])
            for m, increment, log_u, take in zip(range(m0, m1), increments[m0:m1], log_us[m0:m1], takes[m0:m1]):
                np.add(pos, increment, out=prop_pos)
                np.exp(prop_pos, out=shapes)
                np.add(prop_log_alpha, prop_log_beta, out=prop_sum)
                log_lik(prop_ll)
                # the sum difference is the Jacobian of the log transform
                np.subtract(prop_tail, state_tail, out=ratio)
                np.add(log_ratio, jacobian, out=log_ratio)
                np.less_equal(np.maximum(alpha, beta, out=larger), PRIOR_HIGH, out=inside)
                np.less(log_u, log_ratio, out=take, where=inside)
                np.copyto(state, prop, where=take)
                if m in stops:
                    out.append(pos.T.copy())
            segment_accepted = takes[m0:m1].sum(axis=0)
            accepted += segment_accepted
            if window < windows:
                rate = segment_accepted / ADAPT_EVERY
                step = np.where(rate < ACCEPT_LOW, np.maximum(step * 0.7, 1e-3), step)
                step = np.where(rate > ACCEPT_HIGH, np.minimum(step * 1.4, 10.0), step)
    chains.step = step
    return out


def mh_sample(ps: PosteriorState, n: int, root_seed: int, *path: int) -> list[ModelParams]:
    """Draw ``n`` thinned post-burn-in joint posterior samples.

    A posterior's first call makes ``burn_in`` moves of burn-in, in which
    the step sizes adapt, and then, like every later call, ``thin`` moves
    per draw; ``n * thin`` may be at most ``MAX_MOVES``, or the call raises
    ``ValueError`` before it draws or moves anything.  All of its
    randomness comes from one generator, ``substream(root_seed, *path)``,
    so a call is a pure function of its key and the chains' state.  For
    each block of moves (burn-in, then each draw's ``thin``) the generator
    gives the block's normal increments ``(m, C, 2)`` and then its
    acceptance uniforms ``(m, C)``; after the last block it gives one prior
    point per block ``(blocks, C, 2)``.  Every array has a column for each
    of the C channels (in ``FractionDataset.channel_keys`` order), empty
    channels included, so channel ``c`` always reads column ``c`` at the same stream
    positions and its draws are unaffected by the data held by any other
    channel.  The data-backed chains advance on their columns (:func:`_walk`).
    An empty channel instead takes its column's prior point of each draw's
    block: the flat target always accepts that independence proposal, so
    its draws are i.i.d. Unif(0, 300].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n * ps.thin > MAX_MOVES:
        raise ValueError(f"n * thin must be <= {MAX_MOVES} (bayes.MAX_MOVES), got {n} * {ps.thin}")
    rng = substream(root_seed, *path)
    burn = 0 if ps.steps_taken else ps.burn_in
    blocks = ([burn] if burn else []) + [ps.thin] * n
    n_moves = sum(blocks)
    n_chains = ps.n_obs.size
    normals, uniforms = [], []
    for m in blocks:
        normals.append(rng.standard_normal((m, n_chains, 2)))
        uniforms.append(rng.random((m, n_chains)))
    # a burn-in block's prior points are drawn only to keep the layout; the draws read the last n
    prior = rng.random((len(blocks), n_chains, 2))[-n:]
    live = ps.live
    # every channel's prior point, in (0, PRIOR_HIGH]; the data-backed chains' walk then overwrites theirs
    positions = np.subtract(1.0, prior, out=prior)
    np.multiply(PRIOR_HIGH, positions, out=positions)
    np.log(positions, out=positions)
    if live.size:
        stops = {burn + ps.thin * (d + 1) - 1 for d in range(n)}
        # a call of one block, as every single draw after burn-in is, needs no concatenation
        normals, uniforms = (a[0] if len(a) == 1 else np.concatenate(a) for a in (normals, uniforms))
        positions[:, live] = _walk(ps._chains, burn, normals[:, live], np.log(uniforms[:, live]), stops)
    ps.steps_taken += n_moves
    ps._positions = positions[-1]
    ps._positions.setflags(write=False)
    return ModelParams.from_channels(np.exp(positions), ps.n_actions)


def update_dataset(ps: PosteriorState, new_data: FractionDataset) -> PosteriorState:
    """Fold new observations in: union the datasets, warm-start the chains.

    Chain positions and tuned step sizes carry over into the new
    posterior's walk state, but acceptance statistics reset and burn-in
    (with adaptation) reruns against the new posterior before the next
    draws are emitted.
    """
    return PosteriorState(
        ps.dataset.union(new_data),
        ps.n_steps,
        ps.n_actions,
        ps.burn_in,
        ps.thin,
        log_shapes=ps.log_shapes,
        step_size=ps.step_size,
    )


def acceptance_rows(ps: PosteriorState) -> list[dict]:
    proposed, accepted, step_size = ps.proposed.tolist(), ps.accepted.tolist(), ps.step_size.tolist()
    rows = []
    for c, (t, a, channel) in enumerate(FractionDataset.channel_keys(ps.n_steps, ps.n_actions)):
        rows.append(
            {
                "step": t,
                "action": a,
                "channel": channel,
                "n_obs": int(ps.n_obs[c]),
                "proposed": proposed[c],
                "accept_rate": accepted[c] / proposed[c] if proposed[c] else 0.0,
                "step_size": step_size[c],
            }
        )
    return rows


def mean_acceptance(ps: PosteriorState) -> float:
    """Mean :func:`acceptance_rows` rate of the data-backed channels that had proposals; 0.0 with none.

    A prior-only channel accepts every independence proposal, so it is left out.
    """
    rates = [row["accept_rate"] for row in acceptance_rows(ps) if row["n_obs"] > 0 and row["proposed"] > 0]
    return float(np.mean(rates)) if rates else 0.0


def write_acceptance_csv(ps: PosteriorState, path) -> None:
    columns = ["step", "action", "channel", "n_obs", "proposed", "accept_rate", "step_size"]
    write_csv(path, columns, ([row[c] for c in columns] for row in acceptance_rows(ps)))
