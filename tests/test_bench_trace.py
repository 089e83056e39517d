"""The benchmark's tracer still finds and reads every gradient estimator.

``perfbench/spans.py`` wraps the estimators at their module boundary and
reads their arguments by position, so a change of signature would make a
traced run count the wrong trajectories without failing.
"""

from pathlib import Path

from greensim_rl import estimators, harness, trainer
from greensim_rl.bioenv import default_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_gradient_spans_count_the_reused_trajectories(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = {kind: getattr(estimators, f"{kind}_gradient") for kind in trainer.ESTIMATOR_KINDS}
    scn = default_scenario()
    n_i, window, iterations = 4, 2, 6
    tracer = spans.Tracer()
    tracer.install()
    try:
        for kind in trainer.ESTIMATOR_KINDS:
            cfg = trainer.TrainConfig(
                periods=2,
                iterations_per_period=3,
                replications=n_i,
                estimator=kind,
                rolling_window=window,
                real_data_per_period=3,
                burn_in=10,
                thin=1,
            )
            with tracer.span("unit"):
                trainer.train(scn, cfg, eval_fn=harness.true_model_eval_fn(scn, 5))
    finally:
        tracer.uninstall()

    table = spans.SpanTable(tracer.spans)
    assert len(table.select("trainer.train")) == len(trainer.ESTIMATOR_KINDS)
    assert table.call_count_problems() == []
    ks = range(1, iterations + 1)
    want = {
        "pg": [n_i for _ in ks],
        "ilr": [n_i * k for k in ks],
        "mlr": [n_i * min(k, window) for k in ks],
        "tlr": [n_i * min(k, window) for k in ks],
    }
    for kind in trainer.ESTIMATOR_KINDS:
        calls = table.select(f"estimators.{kind}_gradient")
        assert [tracer.spans[i].info["reused"] for i in calls] == want[kind], kind
    for kind, fn in originals.items():
        assert getattr(estimators, f"{kind}_gradient") is fn
