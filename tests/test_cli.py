"""Command line interface: action text parsing, exit codes, schemas, formats."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from conftest import ABELIAN_N2_CORPUS
from ghilb_kit.cli import (
    SpecParseError,
    canonical_action_text,
    main,
    parse_action_spec,
)
import ghilb_kit.cli as cli_module
import ghilb_kit.cluster as cluster_module
from ghilb_kit.group_rep import ActionData


def run(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


class TestParseActionSpec:
    def test_cyclic_form(self):
        a = parse_action_spec("cyclic:3:1,2")
        assert a.group.elementary_divisors == (3,)
        assert a.num_variables == 2
        assert tuple(w.components for w in a.weights) == ((1,), (2,))

    def test_weights_reduce_mod_order(self):
        a = parse_action_spec("cyclic:3:4,-1")
        assert tuple(w.components for w in a.weights) == ((1,), (2,))

    def test_trivial_group(self):
        a = parse_action_spec("cyclic:1:0,0,0")
        assert a.group.order == 1
        assert a.num_variables == 3

    def test_product_form(self):
        a = parse_action_spec("2x6 ; 1,1 | 0,5")
        assert a.group.elementary_divisors == (2, 6)
        assert tuple(w.components for w in a.weights) == ((1, 1), (0, 5))

    def test_whitespace_tolerated(self):
        assert parse_action_spec(" 2x2 ;  1,0 | 0,1 ") == \
            parse_action_spec("2x2 ; 1,0 | 0,1")

    @pytest.mark.parametrize("text,pos,fragment", [
        ("", 0, "empty"),
        ("cyclic:2", 8, "expected cyclic:<order>:<weights>"),
        ("cyclic:x:1", 7, "integer group order"),
        ("cyclic:0:1", 7, "must be positive"),
        ("cyclic:-3:1", 7, "must be positive"),
        ("cyclic:2:", 9, "integer weight"),
        ("2x1 ; 1 | 0", 2, "at least 2"),
        ("2x2 ; 1 | 0", 5, "needs 2 components"),
        ("2x2 ; a,b | 1,0", 5, "integer weight component"),
        ("2x2", 0, "expected ';'"),
    ])
    def test_errors_carry_positions(self, text, pos, fragment):
        with pytest.raises(SpecParseError) as exc:
            parse_action_spec(text)
        assert exc.value.pos == pos
        assert fragment in str(exc.value)
        assert f"position {pos}" in str(exc.value)

    def test_canonical_round_trip(self):
        for action in ABELIAN_N2_CORPUS:
            assert parse_action_spec(canonical_action_text(action)) == action

    def test_canonical_forms(self):
        assert canonical_action_text(parse_action_spec("cyclic:5:1,2")) == "cyclic:5:1,2"
        assert canonical_action_text(parse_action_spec("cyclic:1:0,0")) == "cyclic:1:0,0"
        assert canonical_action_text(parse_action_spec("2x6 ; 1,1 | 0,5")) == \
            "2x6 ; 1,1 | 0,5"


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run("verify", "cyclic:2:1,1", "--ideal", "x2,x1^2", capsys=capsys)
        assert code == 0
        assert json.loads(out)["is_cluster"] is True

    def test_domain_failure_not_a_cluster(self, capsys):
        code, out, _ = run("verify", "cyclic:2:1,1", "--ideal", "x,y", capsys=capsys)
        assert code == 1
        report = json.loads(out)
        assert report["is_cluster"] is False
        assert report["reason"] == "dimension 1 ≠ 2"
        assert report["tau"] is None

    def test_finite_past_cap_reports_dimension(self, capsys):
        code, out, _ = run("verify", "cyclic:2:1,1", "--ideal", "x1^9,x2", capsys=capsys)
        assert code == 1
        report = json.loads(out)
        assert report["reason"] == "dimension 9 ≠ 2"
        assert report["staircase"] is None

    def test_infinite_quotient_reported(self, capsys):
        code, out, _ = run("verify", "cyclic:2:1,1", "--ideal", "x1^2", capsys=capsys)
        assert code == 1
        report = json.loads(out)
        assert report["reason"] == "quotient not finite"
        assert report["staircase"] is None

    def test_domain_failure_non_faithful(self, capsys):
        code, _, err = run("coinv", "cyclic:4:2,2", capsys=capsys)
        assert code == 1
        assert "faithful" in err

    def test_usage_bad_action_text(self, capsys):
        code, _, err = run("verify", "cyclic:0:1", "--ideal", "x", capsys=capsys)
        assert code == 2
        assert "position 7" in err

    def test_usage_bad_ideal(self, capsys):
        code, _, err = run("verify", "cyclic:2:1,1", "--ideal", "garbage+", capsys=capsys)
        assert code == 2
        assert "--ideal" in err

    def test_usage_bad_point(self, capsys):
        code, _, err = run("orbit", "cyclic:2:1,1", "--point", "1,oops", capsys=capsys)
        assert code == 2
        assert "--point" in err

    def test_usage_point_arity(self, capsys):
        code, _, err = run("orbit", "cyclic:2:1,1", "--point", "1,2,3", capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize("point", ["1/0, 1", "cyclo(4): 1/0*z, 1"])
    def test_usage_zero_denominator_point(self, point, capsys):
        code, out, err = run("orbit", "cyclic:2:1,1", "--point", point, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == "ghilb: error: bad --point value: zero denominator\n"

    def test_usage_unwritable_out(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run("coinv", "cyclic:2:1,1", "--out", str(target), capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("ghilb: error: cannot write --out: ")
        assert not target.exists()

    def test_tau_needs_exactly_one_input(self, capsys):
        code, _, err = run("tau", "cyclic:2:1,1", capsys=capsys)
        assert code == 2
        assert "exactly one" in err
        code, _, err = run("tau", "cyclic:2:1,1", "--ideal", "x2,x1^2",
                           "--point", "1,1", capsys=capsys)
        assert code == 2

    def test_bad_cap(self, capsys):
        code, _, err = run("clusters", "cyclic:2:1,1", "--cap", "0", capsys=capsys)
        assert code == 2
        assert "--cap" in err

    @pytest.mark.parametrize("command,args", [
        ("orbit", ("--point", "1,1")),
        ("mckay", ()),
        ("coinv", ()),
        ("clusters", ()),
    ])
    def test_cap_rejected_where_unread(self, command, args, capsys):
        code, out, err = run(command, "cyclic:2:1,1", *args, "--cap", "3", capsys=capsys)
        assert code == 2
        assert out == ""
        assert "--cap" in err

    def test_verify_cap(self, capsys):
        code, out, _ = run("verify", "cyclic:2:1,1", "--ideal", "x1^2,x2", "--cap", "1",
                           capsys=capsys)
        assert code == 1
        report = json.loads(out)
        assert report["reason"] == "dimension 2 exceeds the cap 1"
        assert report["staircase"] is None
        code, out, _ = run("verify", "cyclic:2:1,1", "--ideal", "x1^2,x2", "--cap", "2",
                           capsys=capsys)
        assert code == 0
        assert json.loads(out)["staircase"] == ["1", "x1"]
        code, _, err = run("verify", "cyclic:2:1,1", "--ideal", "x1^2,x2", "--cap", "0",
                           capsys=capsys)
        assert code == 2
        assert "--cap must be positive" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["nosuch", "cyclic:2:1,1"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["verify", "cyclic:2:1,1"]) == 2
        capsys.readouterr()

    def test_non_free_orbit_exits_one(self, capsys):
        code, out, _ = run("orbit", "cyclic:3:1,2", "--point", "0,0", capsys=capsys)
        assert code == 1
        report = json.loads(out)
        assert report["is_free"] is False
        assert report["reason"] == "dimension 1 ≠ 3"

    def test_tau_on_non_cluster_exits_one(self, capsys):
        code, out, _ = run("tau", "cyclic:2:1,1", "--ideal", "x1^3,x2", capsys=capsys)
        assert code == 1
        assert json.loads(out)["is_cluster"] is False


class TestReportSchemas:
    def test_cluster_report_keys(self, capsys):
        _, out, _ = run("verify", "cyclic:3:1,2", "--ideal", "x2,x1^3", capsys=capsys)
        report = json.loads(out)
        assert sorted(report) == ["characters", "generators", "is_cluster",
                                  "reason", "staircase", "tau"]
        assert report["generators"] == ["x2", "x1^3"]
        assert report["staircase"] == ["1", "x1", "x1^2"]
        assert report["characters"] == [0, 1, 2]
        assert report["tau"] == ["0", "0", "0"]
        assert report["reason"] is None

    def test_coinv_report(self, capsys):
        _, out, _ = run("coinv", "cyclic:2:1,1", capsys=capsys)
        report = json.loads(out)
        assert sorted(report) == ["action", "characters", "dimension", "group_order",
                                  "invariant_generators", "num_variables", "staircase"]
        assert report["dimension"] == 3
        assert report["staircase"] == ["1", "x2", "x1"]
        assert report["invariant_generators"] == ["x2^2", "x1*x2", "x1^2"]

    def test_clusters_is_array(self, capsys):
        _, out, _ = run("clusters", "cyclic:3:1,2", capsys=capsys)
        reports = json.loads(out)
        assert isinstance(reports, list) and len(reports) == 3
        assert [r["generators"] for r in reports] == \
            [["x2", "x1^3"], ["x1", "x2^3"], ["x2^2", "x1*x2", "x1^2"]]
        assert all(r["is_cluster"] for r in reports)

    def test_tangent_report(self, capsys):
        code, out, _ = run("tangent", "cyclic:3:1,2", "--ideal", "x1^2,x1*x2,x2^2",
                           capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert sorted(report) == ["action", "eq8", "ideal", "relative_tangent_dim",
                                  "strat_characters", "tangent_dim"]
        assert report["tangent_dim"] == 2
        assert report["relative_tangent_dim"] == 2
        assert report["strat_characters"] == [1, 2]
        assert report["eq8"] == {"injective": True, "isomorphism": True,
                                 "source_dim": 2, "target_dim": 2}

    def test_tangent_aliases_emit_same_report(self, capsys):
        outputs = []
        for sub in ("tangent", "fiber-tangent", "stratify", "eq8-check"):
            code, out, _ = run(sub, "cyclic:3:1,2", "--ideal", "x2,x1^3", capsys=capsys)
            assert code == 0
            outputs.append(out)
        assert len(set(outputs)) == 1

    def test_tangent_aliases_are_parser_aliases(self, capsys):
        code, out, err = run("stratify", "cyclic:3:1,2", capsys=capsys)
        assert code == 2 and out == ""
        assert "ghilb tangent: error:" in err
        code, out, _ = run("--help", capsys=capsys)
        assert code == 0
        assert "tangent (fiber-tangent, stratify, eq8-check)" in out

    def test_tangent_on_non_cluster_reports_verify(self, capsys):
        code, out, _ = run("tangent", "cyclic:3:1,2", "--ideal", "x1,x2", capsys=capsys)
        assert code == 1
        report = json.loads(out)
        assert report["is_cluster"] is False

    def test_orbit_report(self, capsys):
        code, out, _ = run("orbit", "cyclic:2:1,1", "--point", "1,1", capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["is_free"] and report["is_cluster"]
        assert report["free_by_orbit_size"] and report["free_by_trace"]
        assert report["criteria_agree"] is True
        assert report["orbit_size"] == 2
        assert report["stabilizer"] == [[0]]
        assert report["tau"] == ["1", "1", "1"]

    def test_tau_point_report(self, capsys):
        code, out, _ = run("tau", "cyclic:2:1,1", "--point", "2,3", capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["invariant_generators"] == ["x2^2", "x1*x2", "x1^2"]
        assert report["tau"] == ["9", "6", "4"]

    def test_mckay_report(self, capsys):
        code, out, _ = run("mckay", "cyclic:2:1,1", capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["cluster_count"] == 2
        assert report["incidence"] == [{"character": 1, "clusters": [0, 1]}]
        assert report["all_nontrivial_covered"] is True
        assert report["missing"] == []

    def test_mckay_z3(self, capsys):
        _, out, _ = run("mckay", "cyclic:3:1,2", capsys=capsys)
        report = json.loads(out)
        incidence = {e["character"]: e["clusters"] for e in report["incidence"]}
        assert incidence == {1: [1, 2], 2: [0, 2]}
        assert [c["strat_characters"] for c in report["clusters"]] == \
            [[2], [1], [1, 2]]

    def test_product_group_characters_are_lists(self, capsys):
        _, out, _ = run("coinv", "2x2 ; 1,0 | 0,1", capsys=capsys)
        report = json.loads(out)
        assert report["characters"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


class TestOutputFormats:
    def test_json_deterministic(self, capsys):
        _, first, _ = run("mckay", "cyclic:4:1,3", capsys=capsys)
        _, second, _ = run("mckay", "cyclic:4:1,3", capsys=capsys)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, piped, _ = run("coinv", "cyclic:3:1,2", capsys=capsys)
        target = tmp_path / "report.json"
        code, out, _ = run("coinv", "cyclic:3:1,2", "--out", str(target), capsys=capsys)
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == piped

    def test_tsv_flat_report(self, capsys):
        _, out, _ = run("tangent", "cyclic:3:1,2", "--ideal", "x2,x1^3",
                        "--format", "tsv", capsys=capsys)
        lines = dict(line.split("\t", 1) for line in out.splitlines())
        assert lines["tangent_dim"] == "2"
        assert lines["eq8.isomorphism"] == "true"
        assert lines["strat_characters"] == "2"

    def test_tsv_nested_report(self, capsys):
        _, out, _ = run("mckay", "cyclic:3:1,2", "--format", "tsv", capsys=capsys)
        lines = dict(line.split("\t", 1) for line in out.splitlines())
        assert lines["cluster_count"] == "3"
        assert lines["clusters[0].generators"] == "x2,x1^3"
        assert lines["incidence[0].character"] == "1"
        assert lines["incidence[0].clusters"] == "1,2"
        assert lines["missing"] == ""

    def test_tsv_array_report(self, capsys):
        _, out, _ = run("clusters", "cyclic:2:1,1", "--format", "tsv", capsys=capsys)
        lines = dict(line.split("\t", 1) for line in out.splitlines())
        assert lines["0.generators"] == "x2,x1^2"
        assert lines["1.generators"] == "x1,x2^2"


class TestGoldenOutput:
    """sha256 of the default JSON stdout, pinned so later changes keep it byte-identical."""

    @pytest.mark.parametrize("command,spec,digest", [
        ("clusters", "cyclic:5:1,4",
         "34c8b28ca69c7e14751d7b14e233e5648e2f0d969665391173c745b083be9ccc"),
        ("clusters", "cyclic:7:1,2,4",
         "35e93c43721c8825c901fc054c13109ea5d35981b35677fd51f3b8602c9fb104"),
        ("clusters", "2x2 ; 1,0 | 0,1 | 1,1",
         "5b2009834e966e07e4e6bc4e34ea2177e47af9b2ebdbec97fea68e14221c0c99"),
        ("coinv", "cyclic:5:1,4",
         "a8c825d5661dd6ec40ec33fb4ea7ddd7fab0f2737cfb780315e657c270b2fe29"),
        ("coinv", "cyclic:7:1,2,4",
         "98d68236955d2c539d3cfcfbb5c67d10bdcdbd0bedd6d9eeb67c20bfc26f63a7"),
        ("coinv", "2x2 ; 1,0 | 0,1 | 1,1",
         "29bacc9f446ba8fb3f14264724adbd7296474ecc373481c7bcca38a6d40e4fe4"),
        ("mckay", "cyclic:5:1,2",
         "396d4854397402f562bf513dfc2a1a3903f44a42e423813ac371c3721b9f4d86"),
        ("mckay", "cyclic:7:1,2,4",
         "99fd60e153aa2f6c9ca58aa479fd0e59a94dafcf774d7e788e62b476d5f3dea7"),
        ("mckay", "2x2 ; 1,0 | 0,1 | 1,1",
         "ca8903e77d17f0e6f79f495a205cae47ef696cc7522dc3dd7fcc4e8cabcd5791"),
    ])
    def test_stdout_digest(self, command, spec, digest, capsys):
        code, out, _ = run(command, spec, capsys=capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("argv,code,digest", [
        (("orbit", "cyclic:4:1,3", "--point", "cyclo(4): z, 1"), 0,
         "6daafc3b9b53e2860e486cad52d617f4bff8760da39fa636bff25772423fa659"),
        (("orbit", "cyclic:7:1,2,4", "--point", "1,2,3"), 0,
         "fe1aa1b6d6e3b6599f7cbd0e98f10ed0add4b5ce878545e70c71177466dd6f64"),
        (("orbit", "cyclic:4:1,2", "--point", "0,1"), 1,
         "580780c7ca85715c4194d15bb7ce97c9d6d662081d3076daed9f9b7aeedd6e22"),
        (("orbit", "2x2 ; 1,0 | 0,1", "--point", "1,-1/2"), 0,
         "c12a6bd85b02fab8ac4794fa813440eb0326732b68969b9351715022e6ef4ff4"),
        (("tau", "cyclic:3:1,2", "--point", "1,0"), 0,
         "54fd0b2645eccd5128b71e8ae828495b0d1a307c742bdfeebf2f25d74a1eb479"),
        (("tau", "cyclic:6:1,5", "--point", "cyclo(3): z, 2"), 0,
         "ef601459b60903fbccd7820fee9abad613fefe9d7cdbd7880e4ed186007d6ba8"),
    ])
    def test_orbit_digest(self, argv, code, digest, capsys):
        exit_code, out, _ = run(*argv, capsys=capsys)
        assert exit_code == code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("spec,ideal,digest", [
        ("cyclic:5:1,2", "x1^2,x2^3,x1*x2^2",
         "f1cd70dfb161cba5916830bf85d732001b41d41db012f991d3b261b02b24c2be"),
        ("cyclic:5:1,2", "x2,x1^5",
         "9ed36309c9ff9db01639c35006633758f1b2e63b277c6592b6f42313e491f544"),
        ("cyclic:7:1,2,4", "x3^2,x2^2,x1^2,x1*x2*x3",
         "6e377d985a44b8fed0da6f9424d24d1ded6a3b6db178a0d61bbaea151adec8a4"),
        ("cyclic:7:1,2,4", "x2,x3^2,x1^3*x3,x1^4",
         "d5b5b57ebd7b8acc81eb9ddf6783c077634d70d8a106e025d662da0ed42a8d15"),
    ])
    def test_tangent_digest(self, spec, ideal, digest, capsys):
        code, out, _ = run("tangent", spec, "--ideal", ideal, capsys=capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("argv,code,digest", [
        (("verify", "cyclic:3:1,2", "--ideal", "x2,x1^3"), 0,
         "44971e96f2695d7ef1d289243793e2752ba9243c02778e13ef3e996001e964d3"),
        (("verify", "cyclic:3:1,2", "--ideal", "x1^2,x2^2"), 1,
         "c7120f6deb475e6e4352fed8b4ac30a60813f4ebac6aa08bdaa08191f2d6809d"),
        (("verify", "cyclic:2:1,1", "--ideal", "x1^9,x2"), 1,
         "23a21b51cb218b7853ab73467b5ef8f95d6bc42b6d416c8d9fa0fd86057adfec"),
        (("verify", "cyclic:2:1,1", "--ideal", "x1^2"), 1,
         "100a8fbb903689fb2ba6ed85a97ed95df45875518d528f82e66994f993d96d8c"),
        (("tau", "cyclic:5:1,2", "--ideal", "x2,x1^5"), 0,
         "ecb167ad0652c95dea7151047d135087797c54defc43bd5dab1ca5e05c391979"),
        (("tau", "cyclic:2:1,1", "--ideal", "x1^3,x2"), 1,
         "06d8033ddf433181c6de5c7383c18f3a38224285ffef1b27d875b76d3823b4b9"),
        (("tau", "cyclic:3:1,2", "--point", "0,0"), 1,
         "e6338588695c3b9eebd22494f76457a4ff098343ffdd701aaa78ee1d5fadf004"),
        (("tangent", "cyclic:3:1,2", "--ideal", "x1,x2"), 1,
         "c062a9908070bb7f5d5ff32a94ad8f31e52733341e29ea34359540b402a4bbfd"),
    ])
    def test_verdict_digest(self, argv, code, digest, capsys):
        exit_code, out, _ = run(*argv, capsys=capsys)
        assert exit_code == code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestEachQueryOnce:
    """Every command reaches its verdict once and reuses what the library returned."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        # every namespace that holds quotient_staircase, so no copy goes uncounted
        staircase = cluster_module.quotient_staircase
        for name, module in list(sys.modules.items()):
            if name.startswith("ghilb_kit") and getattr(module, "quotient_staircase", None) is staircase:
                monkeypatch.setattr(module, "quotient_staircase",
                                    counting("quotient_staircase", staircase))
        monkeypatch.setattr(cluster_module, "_fixed_point_counts",
                            counting("_fixed_point_counts", cluster_module._fixed_point_counts))
        monkeypatch.setattr(cli_module, "verify_cluster",
                            counting("verify_cluster", cli_module.verify_cluster))
        return calls

    @pytest.mark.parametrize("argv,expected", [
        (("verify", "cyclic:3:1,2", "--ideal", "x2,x1^3"), {"quotient_staircase": 1}),
        (("verify", "cyclic:3:1,2", "--ideal", "x1^2,x2^2"), {"quotient_staircase": 1}),
        (("tau", "cyclic:5:1,2", "--ideal", "x2,x1^5"), {"quotient_staircase": 1}),
        (("tau", "cyclic:2:1,1", "--ideal", "x1^3,x2"), {"quotient_staircase": 1}),
        (("tangent", "cyclic:3:1,2", "--ideal", "x2,x1^3"), {"quotient_staircase": 1}),
        (("eq8-check", "cyclic:7:1,2,4", "--ideal", "x2,x3^2,x1^3*x3,x1^4"),
         {"quotient_staircase": 1}),
        (("tangent", "cyclic:3:1,2", "--ideal", "x1,x2"), {"quotient_staircase": 1}),
        (("clusters", "cyclic:7:1,2,4"), {"quotient_staircase": 0, "verify_cluster": 0}),
        (("orbit", "cyclic:4:1,3", "--point", "1,2"),
         {"_fixed_point_counts": 1, "verify_cluster": 0}),
        (("orbit", "cyclic:4:1,2", "--point", "0,1"),
         {"_fixed_point_counts": 1, "verify_cluster": 0}),
        (("tau", "cyclic:3:1,2", "--point", "0,0"),
         {"_fixed_point_counts": 1, "verify_cluster": 0}),
    ])
    def test_call_counts(self, argv, expected, calls, capsys):
        main(list(argv))
        capsys.readouterr()
        assert {name: calls[name] for name in expected} == expected


class TestModuleInvocation:
    def test_python_dash_m(self):
        # the child imports the package this process imported, installed or not
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ghilb_kit", "verify", "cyclic:2:1,1",
             "--ideal", "x2,x1^2"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_cluster"] is True
