"""Spans around the public functions of ghilb_kit, recorded from outside.

``Tracer.install`` rebinds each traced public name in every ``ghilb_kit``
namespace that holds it (``from ... import`` copies a binding, so every copy
is replaced), the traced methods on their classes, the parser returned by
``build_parser`` and the CLI command table.  No source file is touched, and
``uninstall`` puts every binding back, so traced and untraced passes can
alternate in one process.

A span is ``(query, id, parent, name, start, end)``.  Everything runs on one
thread, so the open spans form a stack and a child always nests inside its
parent.  The cyclotomic layer only counts calls: its arithmetic is too fine
grained to time call by call.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# function names timed as spans, by module; "Class.method" names a method
SPANNED = {
    "group_rep": ("weight_of_monomial",),
    "exact_linalg": ("rref_rows", "reduce_vector", "kernel_basis_rows"),
    "monomial_algebra": ("coinvariant_algebra", "invariant_generators", "quotient_staircase",
                         "CoinvariantAlgebra.monomial_times_vector"),
    "cluster": ("enumerate_torus_fixed_clusters", "evaluation_kernel", "orbit_cluster",
                "tau_support", "verify_cluster", "is_ideal_subspace"),
    "tangent": ("tangent_space", "relative_tangent_space", "stratification_rep", "eq8_map",
                "mckay_table"),
    "cli": ("main", "build_parser", "parse_action_spec", "render_json", "render_tsv"),
}

# calls counted without a span, by module, with the counter each one feeds
COUNTED = {
    "cyclotomic": {"CyclotomicNumber.__mul__": "mul_count", "CyclotomicNumber.__rmul__": "mul_count",
                   "CyclotomicNumber.inverse": "inverse_count", "embed_to_conductor": "embed_calls"},
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.max_rref: dict[int, tuple[int, int]] = {}
        self.query = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: list = []

    # --- recording -------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                spans.append((self.query, sid, parent, label, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _after_rref(self, args, kwargs, result) -> None:
        rows = args[0] if args else kwargs["rows"]
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        self.counts["exact_linalg.rref_rows_in"] += nrows
        self.counts["exact_linalg.rref_cells"] += nrows * ncols
        self.counts["exact_linalg.rref_rank"] += len(result[1])
        best = self.max_rref.get(self.query, (0, 0))
        if nrows * ncols > best[0] * best[1]:
            self.max_rref[self.query] = (nrows, ncols)

    def _after_coinv(self, args, kwargs, result) -> None:
        self.counts["monomial_algebra.coinv_dim_sum"] += result.dim

    def _after_enumerate(self, args, kwargs, result) -> None:
        self.counts["cluster.clusters_found"] += len(result)

    def _after_build_parser(self, args, kwargs, parser) -> None:
        parser.parse_args = self._span("cli.parse_args", parser.parse_args)

    @staticmethod
    def _rref_name(args, kwargs) -> str:
        zero = args[1] if len(args) > 1 else kwargs.get("zero", Fraction(0))
        return "exact_linalg.rref_rows.q" if isinstance(zero, Fraction) else "exact_linalg.rref_rows.cyclo"

    # --- installation -------------------------------------------------------

    def _replacement(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        counter = COUNTED.get(layer, {}).get(name)
        if counter is not None:
            return self._counter(f"{layer}.{counter}", fn)
        if full == "exact_linalg.rref_rows":
            return self._span(self._rref_name, fn, self._after_rref)
        after = {
            "monomial_algebra.coinvariant_algebra": self._after_coinv,
            "cluster.enumerate_torus_fixed_clusters": self._after_enumerate,
            "cli.build_parser": self._after_build_parser,
        }.get(full)
        return self._span(full, fn, after)

    def install(self) -> None:
        """Rebind every traced name; a second install without uninstall is an error."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "ghilb_kit" or n.startswith("ghilb_kit.")) and m is not None]
        for layer, names in list(SPANNED.items()) + list(COUNTED.items()):
            module = sys.modules[f"ghilb_kit.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._set(cls, meth, self._replacement(layer, name, original))
                    continue
                original = getattr(module, name)
                wrapped = self._replacement(layer, name, original)
                for ns in namespaces:
                    if ns.__dict__.get(name) is original:
                        self._set(ns, name, wrapped)
        commands = sys.modules["ghilb_kit.cli"]._COMMANDS
        saved = dict(commands)
        for cmd, fn in saved.items():
            commands[cmd] = self._span(f"cli.{fn.__name__}", fn)
        self._undo.append(lambda: commands.update(saved))

    def _set(self, owner, name: str, value) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


# --- aggregation -------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Self time per span id: its duration minus the part its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted twice.
    """
    children = defaultdict(list)
    for _, _, parent, _, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for _, sid, _, _, start, end in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def pass_metrics(spans, counts: Counter, corpus_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the corpus."""
    total = Counter()
    calls = Counter()
    for _, _, _, name, start, end in spans:
        total[name] += end - start
        calls[name] += 1
    own = self_times(spans)
    layer_self = Counter()
    for span in spans:
        layer_self[layer_of(span[3])] += own[span[1]]
    rows_in = counts["exact_linalg.rref_rows_in"]
    m = {
        "monomial_algebra.coinv_builds": calls["monomial_algebra.coinvariant_algebra"],
        "monomial_algebra.coinv_s": total["monomial_algebra.coinvariant_algebra"],
        "monomial_algebra.coinv_dim_sum": counts["monomial_algebra.coinv_dim_sum"],
        "monomial_algebra.invgen_s": total["monomial_algebra.invariant_generators"],
        "monomial_algebra.staircase_s": total["monomial_algebra.quotient_staircase"],
        "monomial_algebra.times_vector_calls":
            calls["monomial_algebra.CoinvariantAlgebra.monomial_times_vector"],
        "monomial_algebra.times_vector_s":
            total["monomial_algebra.CoinvariantAlgebra.monomial_times_vector"],
        "cluster.enumerate_s": total["cluster.enumerate_torus_fixed_clusters"],
        "cluster.clusters_found": counts["cluster.clusters_found"],
        "cluster.eval_kernel_calls": calls["cluster.evaluation_kernel"],
        "cluster.eval_kernel_s": total["cluster.evaluation_kernel"],
        "cluster.orbit_s": total["cluster.orbit_cluster"],
        "cluster.tau_s": total["cluster.tau_support"],
        "cluster.verify_s": total["cluster.verify_cluster"],
        "cluster.ideal_check_s": total["cluster.is_ideal_subspace"],
        "tangent.relative_builds": calls["tangent.relative_tangent_space"]
            + calls["tangent.stratification_rep"] + calls["tangent.eq8_map"],
        "tangent.relative_s": total["tangent.relative_tangent_space"],
        "tangent.strat_s": total["tangent.stratification_rep"],
        "tangent.eq8_s": total["tangent.eq8_map"],
        "tangent.mckay_s": total["tangent.mckay_table"],
        "tangent.tangent_space_s": total["tangent.tangent_space"],
        "exact_linalg.rref_calls": calls["exact_linalg.rref_rows.q"]
            + calls["exact_linalg.rref_rows.cyclo"],
        "exact_linalg.rref_cells": counts["exact_linalg.rref_cells"],
        "exact_linalg.rank_ratio": counts["exact_linalg.rref_rank"] / rows_in if rows_in else 0.0,
        "exact_linalg.kernel_s": total["exact_linalg.kernel_basis_rows"],
        "exact_linalg.reduce_calls": calls["exact_linalg.reduce_vector"],
        "exact_linalg.reduce_s": total["exact_linalg.reduce_vector"],
        "exact_linalg.rref_q_s": total["exact_linalg.rref_rows.q"],
        "exact_linalg.rref_cyclo_s": total["exact_linalg.rref_rows.cyclo"],
        "cyclotomic.mul_count": counts["cyclotomic.mul_count"],
        "cyclotomic.inverse_count": counts["cyclotomic.inverse_count"],
        "cyclotomic.embed_calls": counts["cyclotomic.embed_calls"],
        "group_rep.weight_calls": calls["group_rep.weight_of_monomial"],
        "group_rep.weight_s": total["group_rep.weight_of_monomial"],
        "cli.parse_s": total["cli.build_parser"] + total["cli.parse_args"]
            + total["cli.parse_action_spec"],
        "cli.render_s": total["cli.render_json"] + total["cli.render_tsv"],
    }
    for layer in SPANNED:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.self_coverage"] = sum(layer_self.values()) / corpus_s
    return m
