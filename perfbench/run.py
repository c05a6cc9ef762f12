"""The ghilb-kit benchmark: seeded query lists through the CLI, checked and timed.

    python3 perfbench/run.py --workload census --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and called in process through ``ghilb_kit.cli.main(argv)``, one
query at a time with stdout captured (a closed loop with one client).  Every
answer is checked by ``checks.py``, which shares no code with the program.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``).  The last line of stdout is one
JSON object; the full record, with one entry per query, goes to
``perfbench/results/``.  See ``README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from checks import CHECKS, orbit_size
from corpus import WORKLOADS, make_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_RUNS = 11

# one fresh interpreter: import of ghilb_kit plus the argparse parser build
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import ghilb_kit, ghilb_kit.cli\n"
    "ghilb_kit.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)

# Times are rescaled to the host speed at which calibration_loop() takes
# CAL_REF_S; see "Noise" in README.md.
CAL_REF_S = 1e-3

END_TO_END_UNITS = {"corpus_s": "s", "query_p50_s": "s", "query_p90_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def load_cli():
    """Import ghilb_kit.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "ghilb_kit" / "cli.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import ghilb_kit.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"ghilb_kit was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup_sample() -> float:
    """Import-and-parser seconds in one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"setup interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def calibration_loop() -> int:
    """Fixed pure-Python work of the kinds the program does.

    Tuple keys in a dict, a growing Fraction sum, a small exact elimination
    over Fractions, and an argparse parse and JSON dump like the CLI's.
    Under host contention the mix slows about as much as the workloads do.
    """
    parser = argparse.ArgumentParser(prog="calibration", add_help=False)
    parser.add_argument("action")
    parser.add_argument("--point", default=None)
    args = parser.parse_args(["cyclic:3:1,2", "--point=1,2"])
    json.dumps({"action": args.action, "point": args.point.split(",")}, indent=2, sort_keys=True)
    seen = {}
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i % 7, i)
        key = (i % 11, i % 13, i % 7)
        seen[key] = seen.get(key, 0) + 1
    rows = [[Fraction((3 * i + j) % 7 - 3, (i + 2 * j) % 5 + 1) for j in range(6)]
            for i in range(5)]
    for c in range(5):
        p = next((r for r in range(c, 5) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [e * inv for e in rows[c]]
        for r in range(5):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return len(seen) + acc.numerator % 7


def speed_factor(calibration: list[float]) -> float:
    """Multiplier that rescales times measured alongside these calibration samples."""
    return CAL_REF_S / statistics.fmean(calibration)


def run_query(cli, argv: list[str]) -> tuple[float, object, str, str]:
    """(seconds, exit code or None, stdout, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed query, not a failed benchmark
            rc = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), error


def check(q, rc, stdout: str) -> list[str]:
    """Problems with one answer; an answer too malformed to inspect is one problem."""
    try:
        return CHECKS[q.cmd](q, rc, stdout)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed answer: {type(exc).__name__}: {exc}"]


def query_sizes(q, stdout: str) -> dict:
    sizes = {"coinv_dim": q.coinv.dim, "cluster_count": None, "orbit_size": None}
    if q.cmd in ("clusters", "mckay"):
        try:
            rep = json.loads(stdout)
            sizes["cluster_count"] = len(rep) if q.cmd == "clusters" else rep["cluster_count"]
        except (ValueError, KeyError, TypeError):
            pass
    if q.point is not None:
        sizes["orbit_size"] = orbit_size(q.action, q.point)
    return sizes


class Runner:
    """Runs passes over one query list; the first pass is checked in full."""

    def __init__(self, cli, queries) -> None:
        self.cli = cli
        self.queries = queries
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None) -> tuple[float, list[float]]:
        """Every query once: (wall seconds of the queries, calibration samples).

        The calibration loop runs after each query, outside its timing, so
        the samples see the same host speed as the queries.
        """
        first = not self.records
        total = 0.0
        calibration = []
        for i, q in enumerate(self.queries):
            if tracer is not None:
                tracer.query = i + 1
            seconds, rc, stdout, error = run_query(self.cli, q.argv)
            start = time.perf_counter()
            calibration_loop()
            calibration.append(time.perf_counter() - start)
            total += seconds
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if first:
                problems = [error] if error else check(q, rc, stdout)
                self.records.append({
                    "argv": q.argv, "exit_code": rc, "stdout_sha256": digest,
                    "sizes": query_sizes(q, stdout), "problems": problems,
                    "notes": sorted(q.notes), "seconds": [],
                })
            else:
                rec = self.records[i]
                problems = [] if (rc, digest) == (rec["exit_code"], rec["stdout_sha256"]) \
                    else [f"pass output differs: exit {rc}, sha256 {digest}"]
                rec["problems"] += problems
            self.records[i]["seconds"].append(seconds)
            self.attempted += 1
            self.failed += bool(problems)
        return total, calibration


def quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_untraced(cli, queries, seconds: float, out: dict) -> dict:
    runner = Runner(cli, queries)
    setup_sample()  # untimed: writes the bytecode caches
    passes, calibration, setup = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        wall, samples = runner.run_pass()
        passes.append(wall)
        calibration += samples
        setup += [setup_sample(), setup_sample()]
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    setup += [setup_sample() for _ in range(SETUP_RUNS - len(setup))]
    factor = speed_factor(calibration)
    samples = [t * factor for r in runner.records for t in r["seconds"]]
    p90 = quantile90(samples)
    metrics = {
        "corpus_s": statistics.fmean(passes) * factor,
        "query_p50_s": statistics.median(samples),
        "query_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup) * factor,
    }
    out.update(runner=runner, passes=passes, setup_samples=setup, speed_factor=factor,
               beyond_p90=sum(v > p90 for v in samples))
    return metrics


def run_traced(cli, queries, seconds: float, out: dict) -> dict:
    """Untraced checked pass, then traced and untraced passes in turn."""
    from tracer import Tracer, pass_metrics

    runner = Runner(cli, queries)
    deadline = time.perf_counter() + seconds
    wall, samples = runner.run_pass()
    plain = [wall * speed_factor(samples)]
    traced, layer_runs, first, counts_repeat = [], [], None, True
    while True:
        start = time.perf_counter()
        tracer = Tracer()
        tracer.install()
        try:
            wall, samples = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        factor = speed_factor(samples)
        traced.append(wall * factor)
        layer = pass_metrics(tracer.spans, tracer.counts, wall)
        layer_runs.append({k: v * factor if k.endswith("_s") else v for k, v in layer.items()})
        first = first or tracer
        wall, samples = runner.run_pass()
        plain.append(wall * speed_factor(samples))
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    for i, rec in enumerate(runner.records):
        shape = first.max_rref.get(i + 1)
        rec["sizes"]["max_rref_shape"] = list(shape) if shape else None
    metrics = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        if name.endswith("_s") or name == "trace.self_coverage":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            counts_repeat &= all(v == values[0] for v in values)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    out.update(runner=runner, passes=plain, traced_passes=traced, spans=first.spans,
               counts_repeat=counts_repeat)
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_coverage")) else "count"


def report(workload: str, seed: int, trace: int, metrics: dict, out: dict) -> dict:
    runner = out["runner"]
    n = len(runner.queries)
    attempted, failed = runner.attempted, runner.failed
    lines = []
    for name, value in metrics.items():
        lines.append(f"{workload} {name} = {value:.6g} {unit_of(name)}")
    if trace == 0:
        k, factor = len(out["passes"]), out["speed_factor"]
        lines[0] += f"  (mean of {k} passes of {n} queries; wall {statistics.fmean(out['passes']):.4g} s)"
        lines[1] += f"  (over {n * k} query runs: {n} queries x {k} passes)"
        lines[2] += f"  (over {n * k} query runs, {out['beyond_p90']} beyond p90)"
        lines[4] += f"  (median of {len(out['setup_samples'])} fresh interpreters)"
        lines.append(f"{workload} times above are rescaled by the host speed factor {factor:.4g}")
    else:
        lines.append(f"{workload} counts repeat across traced passes: {out['counts_repeat']}")
    lines.append(f"{workload} failed_frac = {failed / attempted:.6g} ratio"
                 f"  ({failed} failed of {attempted} queries attempted)")
    noted = sum(bool(r["notes"]) for r in runner.records)
    if noted:
        lines.append(f"{workload} {noted} queries carry notes; see the results file")
    for line in lines:
        print(line)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "failed_frac": {"failed": failed, "attempted": attempted},
        "passes_s": out["passes"], "traced_passes_s": out.get("traced_passes"),
        "setup_samples_s": out.get("setup_samples"), "speed_factor": out.get("speed_factor"),
        "queries": runner.records,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for span in out["spans"]:
                fh.write(json.dumps(span) + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_cli()
        queries = make_corpus(args.workload, args.seed)
        out: dict = {}
        run = run_traced if args.trace else run_untraced
        metrics = run(cli, queries, args.seconds, out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report(args.workload, args.seed, args.trace, metrics, out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
