"""Command-line front end.

Parses textual action specifications, dispatches the library computations,
and prints deterministic JSON or TSV reports.  Exit status: 0 on success,
1 on a domain failure (the input is well-formed but is not a cluster, not a
free orbit, not faithful, and so on: a negative report or a DomainError), 2
on a usage error, 3 on an internal error (an IntegrityError, or any other
exception a command lets through: the library is at fault).
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring
from typing import Optional, Sequence

from ghilb_kit.cluster import (
    ClusterReport,
    _torus_fixed_indices,
    orbit_cluster,
    tau_support,
    verify_cluster,
)
from ghilb_kit.cyclotomic import CyclotomicNumber, parse_cyclotomic, to_text as cyclo_text
from ghilb_kit.group_rep import ActionData, Character, DomainError, FiniteAbelianGroup, character_index
from ghilb_kit.monomial_algebra import MonomialIdeal, coinvariant_algebra, monomial_text, parse_monomial
from ghilb_kit.tangent import _staircase_relative, mckay_table


class SpecParseError(ValueError):
    """Malformed action specification, with the offending position."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        super().__init__(f"bad action spec {text!r}: {message} at position {pos}")
        self.pos = pos


class UsageError(ValueError):
    """Well-formed argv with semantically unusable flag values."""


def _parse_int(token: str, text: str, pos: int, what: str) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise SpecParseError(f"expected an integer {what}, got {token.strip()!r}",
                             text, pos) from None


def parse_action_spec(text: str) -> ActionData:
    """Parse 'cyclic:r:a1,...,an' or 'd1x...xdk ; w1 | ... | wn'.

    cyclic:1:... gives the trivial group.  In the general form every divisor
    must be at least 2 and every weight lists one component per divisor.
    """
    s = text.strip()
    if not s:
        raise SpecParseError("empty spec", text, 0)
    if s.startswith("cyclic:"):
        body = s[len("cyclic:"):]
        head, sep, tail = body.partition(":")
        if not sep:
            raise SpecParseError("expected cyclic:<order>:<weights>", text, len(s))
        base = text.find(s) + len("cyclic:")
        r = _parse_int(head, text, base, "group order")
        if r < 1:
            raise SpecParseError("group order must be positive", text, base)
        group = FiniteAbelianGroup(() if r == 1 else (r,))
        weights = []
        pos = base + len(head) + 1
        for token in tail.split(","):
            a = _parse_int(token, text, pos, "weight")
            weights.append(group.character(() if r == 1 else (a,)))
            pos += len(token) + 1
        return ActionData(group, len(weights), tuple(weights))

    left, sep, right = s.partition(";")
    if not sep:
        raise SpecParseError("expected ';' between divisors and weights "
                             "(or the cyclic:<order>:<weights> form)", text, 0)
    base = text.find(s)
    divisors = []
    pos = base
    for token in left.split("x"):
        d = _parse_int(token, text, pos, "divisor")
        if d < 2:
            raise SpecParseError("every divisor must be at least 2 "
                                 "(use cyclic:1:... for the trivial group)", text, pos)
        divisors.append(d)
        pos += len(token) + 1
    group = FiniteAbelianGroup(tuple(divisors))
    weights = []
    pos = base + len(left) + 1
    for token in right.split("|"):
        comps = []
        cpos = pos
        parts = token.split(",")
        if len(parts) != len(divisors):
            raise SpecParseError(f"weight needs {len(divisors)} components, got {len(parts)}",
                                 text, pos)
        for part in parts:
            comps.append(_parse_int(part, text, cpos, "weight component"))
            cpos += len(part) + 1
        weights.append(group.character(tuple(comps)))
        pos += len(token) + 1
    return ActionData(group, len(weights), tuple(weights))


def canonical_action_text(action: ActionData) -> str:
    """Inverse of parse_action_spec on canonical output."""
    divisors = action.group.elementary_divisors
    if not divisors:
        return "cyclic:1:" + ",".join("0" for _ in action.weights)
    if len(divisors) == 1:
        return f"cyclic:{divisors[0]}:" + ",".join(str(w.components[0]) for w in action.weights)
    left = "x".join(str(d) for d in divisors)
    right = " | ".join(",".join(str(c) for c in w.components) for w in action.weights)
    return f"{left} ; {right}"


# --- report serialization ---------------------------------------------


def _scalar_json(v):
    if isinstance(v, CyclotomicNumber):
        if v.is_rational():
            return str(v.rational_value())
        return cyclo_text(v)
    return str(v)


def _character_json(chi: Character):
    if len(chi.divisors) == 1:
        return chi.components[0]
    return list(chi.components)


def _characters_json(chars) -> list:
    return [_character_json(c) for c in chars]


def _indices_json(divisors: tuple[int, ...], indices) -> list:
    """_characters_json of the characters of these indices, read off by divmod."""
    if len(divisors) == 1:
        return list(indices)
    out = []
    for index in indices:
        components = []
        for d in reversed(divisors):
            index, c = divmod(index, d)
            components.append(c)
        out.append(components[::-1])
    return out


def render_json(report) -> str:
    """The report as json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\\n".

    The bytes are the same, and they come faster: with an indent, json
    encodes item by item in pure Python, while here a list whose items are
    all exactly str (or all exactly int) is one join over json's C string
    encoder (or int.__repr__).  Dicts need str keys and are written in sorted
    key order; tuples render as lists; a value of any other type, a float
    included, raises TypeError.
    """
    out: list[str] = []
    _render_value(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _render_value(value, newline: str, out: list) -> None:
    # newline is a line break plus the indent of the value's own level
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == {str}:
            out += "[", inner, ("," + inner).join(map(encode_basestring, value)), newline, "]"
        elif kinds == {int}:
            out += "[", inner, ("," + inner).join(map(int.__repr__, value)), newline, "]"
        else:
            out.append("[")
            for i, item in enumerate(value):
                out.append("," + inner if i else inner)
                _render_value(item, inner, out)
            out += newline, "]"
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += "," + inner if i else inner, encode_basestring(key), ": "
            _render_value(value[key], inner, out)
        out += newline, "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_tsv(report) -> str:
    """Flatten a JSON-style report to tab-separated key/value lines."""
    lines: list[str] = []

    def cell(value) -> str:
        if isinstance(value, list):
            return ",".join(cell(v) for v in value)
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                emit(f"{prefix}.{key}" if prefix else key, sub)
        elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
            for i, sub in enumerate(value):
                emit(f"{prefix}[{i}]", sub)
        else:
            lines.append(f"{prefix}\t{cell(value)}")

    if isinstance(report, list):
        for i, item in enumerate(report):
            emit(str(i), item)
    else:
        emit("", report)
    return "\n".join(lines) + "\n"


def _write_report(report, args) -> None:
    text = render_json(report) if args.format == "json" else render_tsv(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


# --- per-command report builders ---------------------------------------


def _cluster_json(action: ActionData, ideal: MonomialIdeal, report) -> dict:
    tau = None
    if report.is_cluster:
        tau = [_scalar_json(v) for v in tau_support(action, ideal).values]
    staircase = report.staircase
    return {
        "generators": [g.to_text() for g in ideal.min_gens],
        "staircase": [m.to_text() for m in staircase] if staircase is not None else None,
        "characters": _characters_json(report.characters) if report.characters is not None else None,
        "tau": tau,
        "is_cluster": report.is_cluster,
        "reason": report.failure_reason,
    }


def _cluster_verdict(action: ActionData, args) -> Optional[tuple]:
    """The step from --ideal to a verdict, shared by verify, tau and tangent.

    Parses the ideal (a bad one is a UsageError) and checks it with
    verify_cluster.  Returns (ideal, report) for a cluster; for anything
    else it writes verify's report and returns None, and the caller exits 1.
    """
    try:
        gens = [parse_monomial(tok.strip(), action.num_variables) for tok in args.ideal.split(",")]
        ideal = MonomialIdeal(action.num_variables, tuple(gens))
    except ValueError as exc:
        raise UsageError(f"bad --ideal value: {exc}") from None
    report = verify_cluster(action, ideal)
    if not report.is_cluster:
        _write_report(_cluster_json(action, ideal, report), args)
        return None
    return ideal, report


def _orbit_verdict(action: ActionData, args) -> tuple:
    """The step from --point to a verdict, shared by orbit and tau.

    Parses the point (a bad literal or a wrong number of coordinates is a
    UsageError) and returns (the coordinates as reports print them, the
    orbit cluster, its freeness report, the orbit's ClusterReport).
    """
    try:
        coords = [parse_cyclotomic(tok.strip()) for tok in args.point.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --point value: {exc}") from None
    except ZeroDivisionError:
        raise UsageError("bad --point value: zero denominator") from None
    if len(coords) != action.num_variables:
        raise UsageError(f"point needs {action.num_variables} coordinates, got {len(coords)}")
    cluster, freeness = orbit_cluster(action, coords)
    report = ClusterReport.from_quotient(action.group, freeness.orbit_size,
                                         map(character_index, freeness.characters))
    return [_scalar_json(c) for c in coords], cluster, freeness, report


def cmd_coinv(action: ActionData, args) -> int:
    coinv = coinvariant_algebra(action)
    report = {
        "action": canonical_action_text(action),
        "group_order": action.group.order,
        "num_variables": action.num_variables,
        "invariant_generators": [g.to_text() for g in coinv.invariant_gens],
        "dimension": coinv.dim,
        "staircase": list(map(monomial_text, coinv.basis_exponents)),
        "characters": _indices_json(action.group.elementary_divisors, coinv.weight_indices),
    }
    _write_report(report, args)
    return 0


def cmd_clusters(action: ActionData, args) -> int:
    coinv = coinvariant_algebra(action)
    clusters = _torus_fixed_indices(action, coinv)
    # every enumerated cluster carries each character once by construction,
    # so it is a cluster and one characters list serves them all
    characters = _indices_json(action.group.elementary_divisors, range(action.group.order))
    # the indices point into the basis and the invariant generators; each
    # one printed is rendered once
    exponents = coinv.basis_exponents + tuple(g.exponents for g in coinv.invariant_gens)
    printed = set().union(*(gens for gens, _ in clusters), *(stair for _, stair in clusters))
    text = {k: monomial_text(exponents[k]) for k in printed}.__getitem__
    # a staircase inside the coinvariant basis leaves every invariant
    # generator in the ideal, so tau is the origin for each cluster
    tau = ["0"] * len(coinv.invariant_gens)
    report = [{"generators": list(map(text, gens)), "staircase": list(map(text, stair)),
               "characters": characters, "tau": tau, "is_cluster": True, "reason": None}
              for gens, stair in clusters]
    _write_report(report, args)
    return 0


def cmd_verify(action: ActionData, args) -> int:
    verdict = _cluster_verdict(action, args)
    if verdict is None:
        return 1
    _write_report(_cluster_json(action, *verdict), args)
    return 0


def cmd_tau(action: ActionData, args) -> int:
    if (args.ideal is None) == (args.point is None):
        raise UsageError("tau needs exactly one of --ideal or --point")
    if args.ideal is not None:
        verdict = _cluster_verdict(action, args)
        if verdict is None:
            return 1
        ideal, _ = verdict
        point = tau_support(action, ideal)
        source = {"ideal": [g.to_text() for g in ideal.min_gens]}
    else:
        coords, cluster, freeness, report = _orbit_verdict(action, args)
        if not freeness.is_free:
            _write_report({"point": coords, "orbit_size": freeness.orbit_size,
                           "is_cluster": False, "reason": report.failure_reason}, args)
            return 1
        point = tau_support(action, cluster)
        source = {"point": coords}
    report = {
        "action": canonical_action_text(action),
        **source,
        "invariant_generators": [g.to_text() for g in point.generators],
        "tau": [_scalar_json(v) for v in point.values],
    }
    _write_report(report, args)
    return 0


def cmd_orbit(action: ActionData, args) -> int:
    coords, cluster, freeness, report_check = _orbit_verdict(action, args)
    tau = None
    if report_check.is_cluster:
        tau = [_scalar_json(v) for v in tau_support(action, cluster).values]
    report = {
        "action": canonical_action_text(action),
        "point": coords,
        "orbit": [[_scalar_json(c) for c in p] for p in cluster.points],
        "orbit_size": freeness.orbit_size,
        "group_order": freeness.group_order,
        "free_by_orbit_size": freeness.free_by_orbit_size,
        "free_by_trace": freeness.free_by_trace,
        "criteria_agree": freeness.criteria_agree,
        "is_free": freeness.is_free,
        "stabilizer": [list(g) for g in freeness.stabilizer],
        "characters": _characters_json(report_check.characters),
        "is_cluster": report_check.is_cluster,
        "reason": report_check.failure_reason,
        "tau": tau,
    }
    _write_report(report, args)
    return 0 if freeness.is_free else 1


def cmd_tangent_report(action: ActionData, args) -> int:
    verdict = _cluster_verdict(action, args)
    if verdict is None:
        return 1
    ideal, report = verdict
    # a rank loss in the restriction raises, so it is always injective here
    tangent_dim, relative_dim, strat, target_dim = _staircase_relative(action, ideal, report.staircase)
    combined = {
        "action": canonical_action_text(action),
        "ideal": [g.to_text() for g in ideal.min_gens],
        "tangent_dim": tangent_dim,
        "relative_tangent_dim": relative_dim,
        "strat_characters": _indices_json(action.group.elementary_divisors, strat),
        "eq8": {
            "injective": True,
            "isomorphism": relative_dim == target_dim,
            "source_dim": relative_dim,
            "target_dim": target_dim,
        },
    }
    _write_report(combined, args)
    return 0


def cmd_mckay(action: ActionData, args) -> int:
    table = mckay_table(action)
    report = {
        "action": canonical_action_text(action),
        "cluster_count": len(table.clusters),
        "clusters": [
            {
                "index": i,
                "generators": [g.to_text() for g in c.ideal.min_gens],
                "strat_characters": _characters_json(table.strat_characters[i]),
            }
            for i, c in enumerate(table.clusters)
        ],
        "incidence": [
            {"character": _character_json(chi), "clusters": list(idxs)}
            for chi, idxs in table.incidence
        ],
        "all_nontrivial_covered": table.all_nontrivial_covered,
        "missing": _characters_json(table.missing),
    }
    _write_report(report, args)
    return 0


_COMMANDS = {
    "coinv": cmd_coinv,
    "clusters": cmd_clusters,
    "verify": cmd_verify,
    "tau": cmd_tau,
    "orbit": cmd_orbit,
    "tangent": cmd_tangent_report,
    "fiber-tangent": cmd_tangent_report,
    "stratify": cmd_tangent_report,
    "eq8-check": cmd_tangent_report,
    "mckay": cmd_mckay,
}


class _DispatchingParser(argparse.ArgumentParser):
    """The top-level parser, dispatching as build_parser describes."""

    commands: dict  # each command and alias to its subparser, set by build_parser

    def parse_known_args(self, args=None, namespace=None):
        argv = sys.argv[1:] if args is None else list(args)
        sub = self.commands.get(argv[0]) if argv else None
        if sub is not None:
            parsed, extras = sub.parse_known_args(argv[1:])
            if not extras:
                # the namespace the full parse builds: the command, then the subparser's values
                namespace = argparse.Namespace() if namespace is None else namespace
                namespace.command = argv[0]
                for key, value in vars(parsed).items():
                    setattr(namespace, key, value)
                return namespace, extras
        return super().parse_known_args(argv, namespace)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser on every call; main builds one and reuses it.

    The parser answers an argv whose first word is a command or an alias
    with that command's parser alone, in one pass instead of two.  An argv
    the subparser does not use up, and one not led by a command (an empty
    argv, an unknown command, -h, an option before the command), goes
    through the full two-level parse, so the top-level parser still reports
    it under its own usage line.  Both routes give the same namespace,
    output and exit status.
    """
    parser = _DispatchingParser(
        prog="ghilb",
        description="Exact cluster data for finite abelian diagonal actions on affine space.",
    )
    # plain subparsers: they parse their own argv and do not dispatch
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)
    parser.commands = sub.choices

    helps = {
        "coinv": "invariant generators and the coinvariant-algebra staircase",
        "clusters": "enumerate all torus-fixed clusters",
        "verify": "check the cluster conditions for a monomial ideal",
        "tau": "quotient-space support of a cluster (from --ideal or --point)",
        "orbit": "orbit cluster and freeness report of a point",
        "tangent": "tangent report of a monomial cluster",
        "mckay": "stratification characters across all torus-fixed clusters",
    }
    needs_ideal = {"verify", "tau", "tangent"}
    needs_point = {"tau", "orbit"}

    for name, help_text in helps.items():
        aliases = ["fiber-tangent", "stratify", "eq8-check"] if name == "tangent" else []
        sp = sub.add_parser(name, help=help_text, aliases=aliases)
        sp.add_argument("action",
                        help="action spec: cyclic:r:a1,...,an or 'd1x...xdk ; w1 | ... | wn'")
        sp.add_argument("--format", choices=("json", "tsv"), default="json",
                        help="output format (default json)")
        sp.add_argument("--out", default=None, help="write the report to this path")
        if name in needs_ideal:
            sp.add_argument("--ideal", default=None, required=name != "tau",
                            help='comma-separated monomial generators, e.g. "y,x^2"')
        if name in needs_point:
            sp.add_argument("--point", default=None, required=name == "orbit",
                            help='comma-separated coordinates, e.g. "1,1" or "cyclo(3): z, 2"')
    return parser


# (build_parser, the parser it returned): main's parser, built on its first
# call and rebuilt only when the name build_parser is rebound
_PARSER: list = [None, None]


def main(argv: Optional[Sequence[str]] = None) -> int:
    if _PARSER[0] is not build_parser:
        _PARSER[:] = [build_parser, build_parser()]
    try:
        args = _PARSER[1].parse_args(argv)
        return _COMMANDS[args.command](parse_action_spec(args.action), args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (SpecParseError, UsageError) as exc:
        print(f"ghilb: error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"ghilb: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"ghilb: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
