"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import checks
import corpus
import run
import tracer
from checks import Action

CLI = run.load_cli()


def _query(cmd, action, *extra, ideal=None, point=None):
    b = corpus._Builder(random.Random(0), random.Random(0))
    b.add(cmd, action, *extra, ideal=ideal, point=point)
    return b.queries[0]


def _answer(q):
    _, rc, stdout, error = run.run_query(CLI, q.argv)
    assert not error
    return rc, stdout


def _tiny_corpus():
    from fractions import Fraction

    z6 = Action((6,), ((1,), (5,)))
    sl = Action((3,), ((1,), (1,), (1,)))
    point = (Fraction(2), Fraction(-1, 2))
    return [
        _query("coinv", z6),
        _query("clusters", sl),
        _query("mckay", z6),
        _query("tangent", z6, "--ideal", "x2,x1^6", ideal=((0, 1), (6, 0))),
        _query("verify", z6, "--ideal", "x1^2,x2^2", ideal=((2, 0), (0, 2))),
        _query("orbit", z6, "--point=2,-1/2", point=point),
        _query("tau", Action((6,), ((2,), (3,))), "--point=0,3", point=(Fraction(0), Fraction(3))),
        _query("tau", z6, "--ideal", "x2,x1^6", ideal=((0, 1), (6, 0))),
    ]


# --- the theorems the checks rest on -------------------------------------------


def test_hirzebruch_jung_lengths():
    assert [checks.hj_length(r, a) for r, a in ((2, 1), (3, 1), (3, 2), (7, 3), (40, 39))] \
        == [1, 1, 2, 3, 39]
    # weights (3, 1) on Z/5: a = 1 * 3^-1 = 2 mod 5, and 5/2 = [3, 2]
    assert checks.expected_cluster_count(Action((5,), ((3,), (1,)))) == 3
    assert checks.expected_cluster_count(Action((2, 2), ((1, 0), (0, 1), (1, 1)))) == 4


def test_own_enumeration_matches_the_count_theorems():
    for action in (Action((7,), ((1,), (3,))), Action((5,), ((1,), (1,), (3,))),
                   Action((2, 2), ((1, 0), (0, 1), (1, 1)))):
        stairs = checks.torus_fixed_staircases(action, checks.coinvariants(action))
        assert len(stairs) == checks.expected_cluster_count(action)


def test_coinvariants_of_a2():
    own = checks.coinvariants(Action((3,), ((1,), (2,))))
    assert own.basis == ((0, 0), (0, 1), (1, 0), (0, 2), (2, 0))
    assert own.invariant_gens == ((1, 1), (0, 3), (3, 0))


# --- end to end ----------------------------------------------------------------


def test_tiny_corpus_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    for trace, runner in ((0, run.run_untraced), (1, run.run_traced)):
        out: dict = {}
        metrics = runner(CLI, _tiny_corpus(), 0.0, out)
        result = run.report("tiny", 1, trace, metrics, out)
        assert result["correct"] and result["failed"] == 0
        assert all(v["value"] >= 0 for v in result["metrics"].values())
        assert json.loads(json.dumps(result)) == result
    saved = json.loads((tmp_path / "tiny-seed1-trace0.json").read_text())
    assert {"argv", "exit_code", "stdout_sha256", "sizes"} <= set(saved["queries"][0])
    assert (tmp_path / "tiny-seed1-trace1-spans.jsonl").stat().st_size > 0
    assert "setup_s" in capsys.readouterr().out


def test_every_workload_builds_at_least_100_queries():
    for name in corpus.WORKLOADS:
        queries = corpus.make_corpus(name, 3)
        assert len(queries) >= 100
        assert [q.argv for q in queries] == [q.argv for q in corpus.make_corpus(name, 3)]


def test_fails_without_program_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- each checker rejects a wrong answer --------------------------------------------


def _mutations():
    def edit(key, value):
        def f(rep):
            rep[key] = value
        return f

    def first(key, value):
        def f(rep):
            rep[0][key] = value
        return f

    def tau0(rep):
        rep["tau"][0] = "12345"

    def strat(rep):
        rep["clusters"][0]["strat_characters"].append(1)

    qs = {q.argv[0] + (":ideal" if q.ideal is not None and q.argv[0] == "tau" else ""): q
          for q in _tiny_corpus()}
    return [
        (qs["coinv"], edit("dimension", 99)),
        (qs["clusters"], lambda rep: rep.pop()),
        (qs["clusters"], first("characters", [0, 0, 0])),
        (qs["mckay"], strat),
        (qs["mckay"], edit("all_nontrivial_covered", False)),
        (qs["tangent"], edit("tangent_dim", 3)),
        (qs["verify"], edit("is_cluster", True)),
        (qs["orbit"], edit("orbit_size", 3)),
        (qs["orbit"], tau0),
        (qs["tau"], edit("orbit_size", 6)),
        (qs["tau:ideal"], edit("invariant_generators", ["x1*x2"])),
    ]


@pytest.mark.parametrize("q, mutate", _mutations())
def test_checker_rejects_a_wrong_answer(q, mutate):
    rc, stdout = _answer(q)
    assert checks.CHECKS[q.cmd](q, rc, stdout) == []
    rep = json.loads(stdout)
    mutate(rep)
    assert checks.CHECKS[q.cmd](q, rc, json.dumps(rep))


def test_checker_rejects_a_wrong_exit_code():
    for q in _tiny_corpus():
        rc, stdout = _answer(q)
        assert checks.CHECKS[q.cmd](q, 1 - rc, stdout), q.argv


def test_malformed_answer_is_a_failure_not_a_crash():
    q = _tiny_corpus()[0]
    assert run.check(q, 0, '{"dimension": 5}')
    assert run.check(q, 0, "not json")


def test_orbit_check_catches_a_wrong_orbit_point():
    q = _tiny_corpus()[5]
    rc, stdout = _answer(q)
    rep = json.loads(stdout)
    rep["orbit"][0][0] = "7"
    assert checks.check_orbit(q, rc, json.dumps(rep))


# --- tracing ---------------------------------------------------------------------


def test_self_times_on_synthetic_spans():
    spans = [
        (1, 1, 0, "cli.main", 0.0, 10.0),
        (1, 2, 1, "cluster.a", 1.0, 4.0),
        (1, 3, 1, "cluster.b", 3.0, 6.0),      # overlaps its sibling by 1
        (1, 4, 2, "exact_linalg.c", 2.0, 3.0),
        (1, 5, 1, "tangent.d", 9.0, 12.0),     # overhangs its parent by 2
    ]
    own = tracer.self_times(spans)
    assert own == {1: 10.0 - 6.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}


def test_install_and_uninstall_restore_every_binding():
    import ghilb_kit.cluster as cluster
    import ghilb_kit.cyclotomic as cyclotomic

    before = (cluster.rref_rows, cyclotomic.CyclotomicNumber.__dict__["__mul__"],
              dict(CLI._COMMANDS), CLI.main)
    t = tracer.Tracer()
    t.install()
    try:
        assert cluster.rref_rows is not before[0]
        assert CLI.main is not before[3]
    finally:
        t.uninstall()
    after = (cluster.rref_rows, cyclotomic.CyclotomicNumber.__dict__["__mul__"],
             dict(CLI._COMMANDS), CLI.main)
    assert after == before


def test_two_traced_runs_give_identical_counts():
    def counts():
        queries = corpus.make_corpus("orbits", 5)[:40] + corpus.make_corpus("strata", 5)[:10]
        runner = run.Runner(CLI, queries)
        t = tracer.Tracer()
        t.install()
        try:
            corpus_s, _ = runner.run_pass(t)
        finally:
            t.uninstall()
        assert runner.failed == 0
        m = tracer.pass_metrics(t.spans, t.counts, corpus_s)
        return {k: v for k, v in m.items() if not k.endswith(("_s", "_coverage"))}

    first, second = counts(), counts()
    assert first == second
    assert first["cyclotomic.mul_count"] > 0 and first["tangent.relative_builds"] > 0
