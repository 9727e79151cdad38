"""The benchmark tracer in benchmarks/spans.py hooks bcv attributes by name:
BinomialLaw.pmf_vector and cli._Check.run on their classes, and reads
simulate_J's grid_points argument.  This installs the real tracer and makes
one small call through each, so renaming any of them fails here."""

import os

import numpy as np

from bcv import cli, dist, noncentral

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")


def test_benchmark_tracer_installs_and_counts_its_hooks(monkeypatch, capsys):
    monkeypatch.syspath_prepend(BENCHMARKS)
    import spans

    originals = (dist.BinomialLaw.__dict__["pmf_vector"], cli._Check.__dict__["run"],
                 noncentral.simulate_J)
    tracer = spans.Tracer()
    tracer.install()
    try:
        dist.BinomialLaw(5, 0.5).pmf_vector()
        assert cli.main(["upper"]) == 0
        noncentral.simulate_J(500, 1, 0.9, 10_000, np.random.default_rng(1), grid_points=2)
    finally:
        tracer.restore()
    capsys.readouterr()
    counts = tracer.counts
    assert counts["dist.BinomialLaw.pmf_vector"] == 1 and counts["dist.pmf_rows"] == 1
    assert counts["cli._Check.run"] == 3
    assert counts["noncentral.mc_draws"] == 10_000 * 2 * 1
    assert (dist.BinomialLaw.__dict__["pmf_vector"], cli._Check.__dict__["run"],
            noncentral.simulate_J) == originals
