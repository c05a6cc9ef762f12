"""Byte-identity of the command line: one sha256 over a fixed corpus of queries.

The digest covers the exit code, stdout and stderr of every query, each run
in the default JSON and in --format tsv.  The corpus is built here from
conftest.sweep_actions() and a seeded generator, and it imports nothing from
perfbench/, so a change to the benchmark cannot move the corpus and the pin
together:

* coinv, clusters and mckay on every sweep action;
* tangent, tau --ideal and verify on every enumerated cluster of the sweep
  actions with |G| <= 8;
* orbit and tau --point on seeded rational and cyclotomic points;
* perturbed and box-shaped ideals that fail each rung of the verdict ladder,
  through verify, tau --ideal and tangent;
* a few usage and domain errors.

When a documented bug fix changes output, DIGEST changes with it, and the
change names the argvs whose output moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from conftest import sweep_actions
from ghilb_kit.cli import canonical_action_text, main
from ghilb_kit.cluster import enumerate_torus_fixed_clusters

DIGEST = "79b60a9449d7b0269d991864cd12e95a4602c3cd740e1c314290ba6dd213de85"

# argvs that fail before or beside the library: the spec, the flags, faithfulness
ERRORS = [
    ["coinv", "cyclic:4:2,2"],
    ["clusters", "2x2 ; 1,0 | 1,0"],
    ["mckay", "cyclic:6:2,4,3"],
    ["coinv", "cyclic:0:1"],
    ["clusters", "2x ; 1,0"],
    ["verify", "cyclic:3:1,2", "--ideal", "x1^-1"],
    ["verify", "cyclic:3:1,2", "--ideal", "x4"],
    ["tau", "cyclic:3:1,2"],
    ["orbit", "cyclic:3:1,2", "--point=1,z"],
    ["orbit", "cyclic:3:1,2", "--point=1/0,1"],
    ["orbit", "cyclic:3:1,2", "--point=1,2,3"],
    ["tangent", "cyclic:3:1,2"],
]


def _ideal_text(gens) -> str:
    return ",".join(
        "*".join(f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}" for i, a in enumerate(g) if a) or "1"
        for g in gens)


def _rational(rng: random.Random) -> str:
    return str(rng.choice((-1, 1)) * Fraction(rng.randint(1, 5), rng.choice((1, 1, 2, 3))))


def _cyclotomic(rng: random.Random) -> str:
    m = rng.choice((3, 4))
    terms = [f"{rng.choice(('', '-'))}{rng.randint(1, 3)}", f"{rng.choice(('', '-'))}z"]
    if rng.random() < 0.5:
        terms = [f"{rng.choice(('', '-'))}{rng.randint(1, 2)}*z"]
    return f"cyclo({m}): " + " + ".join(terms).replace("+ -", "- ")


def _point(rng: random.Random, n: int, cyclotomic: bool) -> str:
    coords = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.2:
            coords.append("0")
        elif cyclotomic and roll < 0.6:
            coords.append(_cyclotomic(rng))
        else:
            coords.append(_rational(rng))
    return ",".join(coords)


def _perturbed(rng: random.Random, gens: list, n: int) -> list:
    """A cluster's generators with one added, dropped or shifted; the result is
    minimalized by the CLI's parser."""
    gens = [tuple(g) for g in gens]
    move = rng.choice(("add", "drop", "shift"))
    if move == "drop" and len(gens) > 1:
        gens.pop(rng.randrange(len(gens)))
    elif move == "shift":
        i, j = rng.randrange(len(gens)), rng.randrange(n)
        gens[i] = gens[i][:j] + (gens[i][j] + 1,) + gens[i][j + 1:]
    else:
        g = list(rng.choice(gens))
        j = rng.randrange(n)
        g[j] = max(g[j] - 1, 0)
        if any(g):
            gens.append(tuple(g))
    return gens


def _boxes(order: int, n: int):
    """Exponent tuples (e_1, ..., e_n) with product |G|: the ideals (x_i^e_i) have
    colength |G|, and on most actions they repeat a character."""
    return [e for e in itertools.product(range(1, order + 1), repeat=n) if math.prod(e) == order]


def corpus() -> list[list[str]]:
    """The argvs, each once, in a fixed order; digest runs each in both formats."""
    rng = random.Random(20061)
    argvs = []
    actions = sweep_actions()
    for action in actions:
        spec = canonical_action_text(action)
        argvs += [["coinv", spec], ["clusters", spec], ["mckay", spec]]
    for action in actions:
        order, n = action.group.order, action.num_variables
        if order > 8:
            continue
        spec = canonical_action_text(action)
        clusters = [[g.exponents for g in c.ideal.min_gens]
                    for c in enumerate_torus_fixed_clusters(action)]
        for gens in clusters:
            ideal = _ideal_text(gens)
            argvs += [["tangent", spec, "--ideal", ideal], ["tau", spec, "--ideal", ideal],
                      ["verify", spec, "--ideal", ideal]]
        for k in range(2):
            point = _point(rng, n, cyclotomic=k == 1)
            argvs.append(["orbit" if rng.random() < 0.6 else "tau", spec, f"--point={point}"])
        bad = [_perturbed(rng, rng.choice(clusters), n) for _ in range(2)]
        # no pure power of x_1: an infinite quotient
        bad.append([g for g in rng.choice(clusters) if any(g[1:])] + [(0,) * n])
        # a box far past the 4|G| staircase cap
        bad.append([tuple(4 * order + 1 if j == i else 0 for j in range(n)) for i in range(n)])
        bad += [[tuple(e[i] if j == i else 0 for j in range(n)) for i in range(n)]
                for e in _boxes(order, n)[:3]]
        for gens in bad:
            gens = [g for g in gens if any(g)] or [(1,) + (0,) * (n - 1)]
            ideal = _ideal_text(gens)
            argvs += [["verify", spec, "--ideal", ideal],
                      [rng.choice(("tau", "tangent")), spec, "--ideal", ideal]]
    return argvs + ERRORS


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def answers(argvs):
    """(argv, exit code, stdout, stderr) of each argv, in JSON and then in TSV."""
    for argv in argvs:
        for fmt in ((), ("--format", "tsv")):
            full = [*argv, *fmt]
            yield (full, *run(full))


def digest(results) -> str:
    h = hashlib.sha256()
    for argv, code, out, err in results:
        h.update("\0".join([*argv, str(code), out, err, ""]).encode("utf-8"))
    return h.hexdigest()


def test_corpus_digest():
    argvs = corpus()
    results = list(answers(argvs))
    # the corpus reaches every exit code, and every rung of the verdict ladder
    # with and without a staircase
    assert {code for _, code, _, _ in results} == {0, 1, 2}
    reports = [json.loads(out) for argv, code, out, _ in results
               if code == 1 and "--ideal" in argv and argv[-1] != "tsv"]
    rungs = {(r["reason"].split(" ")[0], r["staircase"] is None) for r in reports}
    assert rungs == {("quotient", True), ("dimension", True), ("dimension", False),
                     ("character", False)}
    assert digest(results) == DIGEST



def test_each_input_kind_reaches_one_verdict():
    # tau --ideal and every tangent name print verify's report, and exit 1,
    # on each ideal of the corpus that is not a cluster
    argvs = corpus()
    verify = [(argv, run(argv)) for argv in argvs if argv[0] == "verify"]
    failed = [(argv, answer) for argv, answer in verify if answer[0] == 1]
    assert len(failed) > 100
    for argv, answer in failed:
        for cmd in ("tau", "tangent", "fiber-tangent", "stratify", "eq8-check"):
            assert run([cmd, *argv[1:]]) == answer, (cmd, argv)
    # tau --point prints orbit's orbit size and reason on each point that is not free
    not_free = 0
    for argv in argvs:
        if argv[0] not in ("orbit", "tau") or not argv[-1].startswith("--point="):
            continue
        code, out, _ = run(["orbit", *argv[1:]])
        if code != 1:
            continue
        orbit = json.loads(out)
        code, out, _ = run(["tau", *argv[1:]])
        assert code == 1, argv
        tau = json.loads(out)
        assert (tau["point"], tau["orbit_size"], tau["reason"]) == \
            (orbit["point"], orbit["orbit_size"], orbit["reason"]), argv
        not_free += 1
    assert not_free > 10


# every 40th argv, about 240 of them; the child processes build the corpus too
SUBSET = slice(None, None, 40)


def test_digest_does_not_depend_on_the_hash_seed():
    want = digest(answers(corpus()[SUBSET]))
    here = Path(__file__).resolve().parent
    src = Path(sys.modules["ghilb_kit"].__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(here)!r}, {str(src)!r}]\n"
        "import test_byte_identity as t\n"
        f"print(t.digest(t.answers(t.corpus()[{SUBSET.start}:{SUBSET.stop}:{SUBSET.step}])))\n"
    )
    for seed in ("0", "12345"):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": seed}, cwd=here)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == want, seed
