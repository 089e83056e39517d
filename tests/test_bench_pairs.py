"""The verdicts ``tools/bench_pairs.py`` gives paired runs of two trees.

``compare`` is fed synthetic runs, so each case sets the numbers that
decide its verdicts.
"""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs

    return bench_pairs


def runs_of(parent, change):
    """Paired runs of one lower-is-better metric ``wall_s``."""
    return {
        "parent": [{"metrics": {"wall_s": value}} for value in parent],
        "change": [{"metrics": {"wall_s": value}} for value in change],
    }


def verdicts(bench_pairs, parent, change, bound=0.25):
    m = bench_pairs.compare(runs_of(parent, change), {"wall_s": ("lower", bound)})["wall_s"]
    return m["meets_claim_rule"], m["worse_than_bound"], m["unresolved"]


TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_claim_rule_met_and_not_met(bench_pairs):
    # better in every pair by far more than the parent's quartile spread
    assert verdicts(bench_pairs, TIGHT, [v - 0.2 for v in TIGHT]) == (True, False, False)
    # better in only 8 of 10 pairs: no claim, and within the bound
    change = [v - 0.2 for v in TIGHT[:8]] + [v + 0.01 for v in TIGHT[8:]]
    assert verdicts(bench_pairs, TIGHT, change) == (False, False, False)


def test_worse_than_bound(bench_pairs):
    assert verdicts(bench_pairs, TIGHT, [v * 1.3 for v in TIGHT]) == (False, True, False)
    assert verdicts(bench_pairs, TIGHT, [v * 1.2 for v in TIGHT]) == (False, False, False)


def test_parent_spread_wider_than_bound_is_unresolved(bench_pairs):
    # quartiles about 0.5 and 1.4 around a median near 1: a spread of 0.9 > 0.25 x median
    wide = [0.45, 0.5, 0.5, 1.4, 1.4, 1.45, 0.6, 1.3, 0.9, 1.0]
    claim, worse, unresolved = verdicts(bench_pairs, wide, list(wide))
    assert unresolved and not claim and not worse


def test_change_better_than_every_parent_run_is_resolved(bench_pairs):
    wide = [0.45, 0.5, 0.5, 1.4, 1.4, 1.45, 0.6, 1.3, 0.9, 1.0]
    assert verdicts(bench_pairs, wide, [0.40] * 10)[2] is False
    # higher-is-better: every change run above every parent run
    m = bench_pairs.compare(runs_of(wide, [1.5] * 10), {"wall_s": ("higher", 0.25)})["wall_s"]
    assert m["unresolved"] is False and m["meets_claim_rule"] is False


def test_verdict_line_names_unresolved(bench_pairs):
    wide = [0.45, 0.5, 0.5, 1.4, 1.4, 1.45, 0.6, 1.3, 0.9, 1.0]
    metrics = bench_pairs.compare(runs_of(wide, wide), {"wall_s": ("lower", 0.25)})
    (line,) = bench_pairs.verdict_lines("study_grid", metrics)
    assert line.endswith("UNRESOLVED (parent spread wider than the bound)")


def test_tree_identity_names_the_src_bytes(bench_pairs, tmp_path):
    # two copies that differ by one byte in src/ get different identities
    trees = []
    for name, text in (("a", "x = 1\n"), ("b", "x = 2\n"), ("c", "x = 1\n")):
        (tmp_path / name / "src" / "pkg").mkdir(parents=True)
        (tmp_path / name / "src" / "pkg" / "mod.py").write_text(text)
        trees.append(bench_pairs.tree_identity(tmp_path / name))
    a, b, c = trees
    assert a["src_sha256"] != b["src_sha256"] and a == c
    # not a repository: no HEAD and no clean flag
    assert a["head"] is None and a["src_clean"] is None
    # a bytecode cache does not change the identity
    (tmp_path / "c" / "src" / "pkg" / "__pycache__").mkdir()
    (tmp_path / "c" / "src" / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"\0")
    assert bench_pairs.tree_identity(tmp_path / "c") == a
