"""The benchmark's calls into algaeid: the bench's own `corpus` workload,
read from `bench/` as it is, runs one round and passes its checks, so a
library change that breaks a call the bench makes fails here."""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_bench_corpus_runs_one_round(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import workloads

    corpus = workloads.Corpus(5, str(tmp_path))
    corpus.setup()
    assert [corpus.run(op) for op in corpus.ops] == [True] * len(corpus.ops)
    assert corpus.check()[corpus.QUALITY] == 1.0
