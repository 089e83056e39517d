"""Set-up probe: how long a fresh interpreter takes to become ready to train.

Run as ``python3 perfbench/setup_probe.py <seed>`` with ``src`` on
``PYTHONPATH``.  It performs the steps ``trainer.train`` takes before its
first iteration -- import, scenario and environment, policy init, the
initial real-data collection (which pays the first upstream harvest) and
``make_posterior`` -- then prints ``ready <observations> <loop CPU s>
<loop wall s>`` and exits.  The caller times the child from spawn to that
line.  The reference loop of ``speed.py`` runs before and after the set-up,
so the caller can normalise the time and take the loops' own time out.
The package is imported inside ``ready_to_train`` because importing it is
part of what is timed.

The harvest's RK4 result is ``lru_cache``d inside ``bioenv``, so only a
fresh interpreter pays it; that is why every probe is its own process.
"""

from __future__ import annotations

import sys

import speed

LOOPS = 3  # reference loops before and after the set-up


def ready_to_train(seed: int) -> int:
    """Do the set-up of one training macro; return the dataset size."""
    from greensim_rl import bayes, bioenv
    from greensim_rl.core import substream
    from greensim_rl.policy import make_policy, purification_features
    from greensim_rl.trainer import TrainConfig

    cfg = TrainConfig(seed=seed)
    scn = bioenv.default_scenario()
    env = bioenv.ChromatographyEnv(scn)
    policy = make_policy(
        cfg.policy_kind,
        purification_features(scn.p_bar, scn.i_bar, env.horizon()),
        env.action_count(),
        cfg.hidden_dim,
    )
    # Same stream paths as trainer.train: (seed, macro 0, 0, purpose).
    theta = policy.init_params(substream(cfg.seed, 0, 0, 0), cfg.init_scale)
    data = bioenv.collect_real_data(
        scn, policy, theta, cfg.real_data_per_period, substream(cfg.seed, 0, 0, 1)
    )
    posterior = bayes.make_posterior(
        data, n_steps=3, n_actions=env.action_count(), burn_in=cfg.burn_in, thin=cfg.thin
    )
    return len(posterior.dataset)


def expected_observations() -> int:
    """Each real-data trajectory yields one observation per transition (two)."""
    from greensim_rl.trainer import TrainConfig

    return 2 * TrainConfig().real_data_per_period


if __name__ == "__main__":
    loops = [speed.kernel() for _ in range(LOOPS)]
    n = ready_to_train(int(sys.argv[1]))
    loops += [speed.kernel() for _ in range(LOOPS)]
    cpu = sum(c for c, _ in loops) / len(loops)
    print(f"ready {n} {cpu!r} {sum(w for _, w in loops)!r}", flush=True)
