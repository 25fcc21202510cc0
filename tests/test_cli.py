import argparse
import io
import json
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from kmon.cli import build_parser, run


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_member_worked_example():
    code, out = invoke(
        ["member", "--monoid", "dio n=2 { eq: x0 = x1; }", "--vec", "(aleph0, aleph0)"]
    )
    assert code == 0
    code, _ = invoke(
        ["member", "--monoid", "dio n=2 { eq: x0 = x1; }", "--vec", "(aleph0, 3)"]
    )
    assert code == 1


def test_member_of_a_length_0_system():
    # dio n=0 { } parses, so its one element, the vector (), can be queried
    argv = ["member", "--monoid", "dio n=0 { }", "--vec", "()"]
    assert invoke(argv) == (0, "() is a member of dio n=0 { }\n")
    code, out = invoke(argv + ["--format", "json"])
    assert code == 0 and json.loads(out)["member"] is True


def test_realizable_worked_example():
    code, out = invoke(["realizable2", "--pres", "twogen { }"])
    assert code == 0
    assert "verdict: YES" in out
    assert "(i)" in out and "(ii)" in out and "(iii)" in out


def test_braid_find_worked_example():
    code, out = invoke(
        ["braid-find", "--monoid", "N0", "--x", "fam {1*aleph0}", "--y", "fam {3*1}"]
    )
    assert code == 1
    assert "finite vs infinite form" in out


def test_braid_find_then_check_roundtrip(tmp_path):
    code, out = invoke(
        ["braid-find", "--monoid", "N0", "--x", "fam {1*aleph0}", "--y", "fam {2*aleph0}"]
    )
    assert code == 0
    cert_lines = [l for l in out.splitlines() if not l.startswith("verdict")]
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text("\n".join(cert_lines))
    code, out = invoke(
        [
            "braid-check",
            "--monoid",
            "N0",
            "--x",
            "fam {1*aleph0}",
            "--y",
            "fam {2*aleph0}",
            "--cert",
            f"@{cert_file}",
        ]
    )
    assert code == 0
    assert "telescope" in out


def test_braid_check_rejects_wrong_family():
    code, out = invoke(
        ["braid-find", "--monoid", "N0", "--x", "fam {1*2}", "--y", "fam {2*1}"]
    )
    assert code == 0
    cert = "\n".join(l for l in out.splitlines() if not l.startswith("verdict"))
    code, _ = invoke(
        ["braid-check", "--monoid", "N0", "--x", "fam {1*3}", "--y", "fam {2*1}",
         "--cert", cert]
    )
    assert code == 1


def test_braid_check_ignores_consumed_zero_entries():
    # zero entries drop out of the families, so a block may list them or not
    common = ["braid-check", "--monoid", "n0", "--x", "{0*1, 2*1}", "--y", "{2*1}"]
    for block in ("{0*1, 2*1}", "{2*1}"):
        cert = f"PREFIX\nB i={block} j={{2*1}} u=2 v'=0\nCYCLE"
        assert invoke([*common, "--cert", cert]) == (0, "telescope: 2 = 2\nverdict: YES\n")


def test_braid_find_prints_c_lines_above_aleph0():
    common = ["--monoid", "n0", "--x", "{1*3}", "--y", "{3*1}"]
    c_line = "C i={1*3} j={3*1} w=1"
    assert invoke(["braid-find", *common, "--lam", "aleph1"]) == (0, f"{c_line}\nverdict: YES\n")
    chain = "PREFIX\nB i={1*3} j={3*1} u=3 v'=0\nCYCLE"
    assert invoke(["braid-find", *common]) == (0, f"{chain}\nverdict: YES\n")
    # a C line with finite blocks is a one-block layer, so it checks at aleph0 too
    for lam in ("aleph0", "aleph1"):
        code, out = invoke(["braid-check", *common, "--cert", c_line, "--lam", lam])
        assert code == 0 and out.endswith("verdict: YES\n")


def test_exit_unknown():
    code, out = invoke(
        [
            "braid-find",
            "--monoid",
            "vec(2)",
            "--x",
            "fam {(2,1)*aleph0}",
            "--y",
            "fam {(1,2)*aleph0}",
            "--budget",
            "400",
        ]
    )
    assert code == 2


# the level split's one part, (2,1) against (1,2) aleph0 times, has no
# periodic certificate, so the search spends its budget and stops
SPLIT_UNKNOWN = [
    "braid-find", "--monoid", "vec(2)", "--x", "fam {(2,1)*aleph1}",
    "--y", "fam {(1,2)*aleph1}", "--kappa", "aleph1", "--budget", "1",
]


def test_braid_find_unknown_names_its_reason():
    code, out = invoke(SPLIT_UNKNOWN)
    assert code == 2
    assert out == (
        "reason: level aleph1 part: no certificate within budget 1\n"
        "verdict: UNKNOWN (level aleph1 part: no certificate within budget 1)\n"
    )


@pytest.mark.parametrize(
    "argv,kind,reason",
    [
        (SPLIT_UNKNOWN, "unknown", "level aleph1 part: no certificate within budget 1"),
        (["braid-find", "--monoid", "N0", "--x", "fam {1*aleph0}", "--y", "fam {3*1}"],
         "no", "finite vs infinite form"),
    ],
)
def test_braid_find_json_reason(argv, kind, reason):
    code, out = invoke(argv + ["--format", "json"])
    data = json.loads(out)
    assert data["verdict"] == kind and data["reason"] == reason
    assert "budget" not in data


def test_parse_error_reports_position():
    code, out = invoke(["member", "--monoid", "dio n=2 { eq x0 = x1; }", "--vec", "(1,1)"])
    assert code == 3
    assert "parse error" in out
    code, out = invoke(["gallery-eval", "--monoid", "qline", "--fam", "fam {1/0*1}"])
    assert code == 3
    assert "parse error at 1:8" in out


CARD_OPTIONS = {
    "--kappa": ["member", "--monoid", "dio n=1 { }", "--vec", "(4)"],
    "--to": ["extend", "--monoid", "dio n=1 { }", "--vec", "(4)"],
    "--lam": ["braid-find", "--monoid", "N0", "--x", "fam {1*2}", "--y", "fam {2*1}"],
}


@pytest.mark.parametrize("option", sorted(CARD_OPTIONS))
@pytest.mark.parametrize("text", ["aleph(2", "aleph2)", "aleph 2"])
def test_cardinal_options_reject_malformed_literals(option, text):
    code, out = invoke(CARD_OPTIONS[option] + [option, text])
    assert code == 3
    assert out.startswith("parse error at 1:")


def test_kappa_above_aleph3_exits_3():
    code, out = invoke(CARD_OPTIONS["--kappa"] + ["--kappa", "aleph5"])
    assert code == 3
    assert "aleph level 5 outside 0..3" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["realizable2", "--pres", "twogen { }", "--kappa", "aleph5"],
        ["extend", "--monoid", "dio n=1 { }", "--to", "aleph1", "--kappa", "aleph5"],
        ["aleph0-extend", "--monoid", "dio n=1 { }", "--vec", "(4)", "--kappa", "aleph5"],
        ["member", "--monoid", "dio n=1 { }", "--vec", "(4)", "--budget", "5"],
        ["axioms", "--monoid", "N0", "--samples", "-3"],
        ["axioms", "--monoid", "N0", "--samples", "0"],
        ["braid-find", "--monoid", "N0", "--x", "fam {1*2}", "--y", "fam {2*1}", "--budget", "-5"],
        ["realizable2", "--pres", "twogen { }", "--budget", "0"],
        ["aleph0-extend", "--monoid", "dio n=1 { }", "--vec", "(4)", "--radius", "-1"],
        ["braid-find", "--monoid", "N0", "--x", "fam {1*aleph0}", "--y", "fam {2*aleph0}", "--lam", "5"],
        ["braid-check", "--monoid", "N0", "--x", "fam {1*aleph0}", "--y", "fam {2*aleph0}",
         "--cert", "PREFIX\nCYCLE\nB i={1*2} j={2*1} u=2 v'=0", "--lam", "2"],
    ],
)
def test_options_only_where_read_and_in_range(argv):
    assert invoke(argv)[0] == 3


DIAGONAL = "dio n=2 { eq: x0 = x1; }"


@pytest.mark.parametrize(
    "argv",
    [
        ["braid-find", "--monoid", DIAGONAL, "--x", "fam {(2,0)*aleph0}", "--y", "fam {(1,1)*1}"],
        ["braid-find", "--monoid", DIAGONAL, "--x", "fam {(1,1)*1}", "--y", "fam {(2,0)*aleph0}"],
        ["gallery-eval", "--monoid", DIAGONAL, "--fam", "fam {(2,0)*aleph0}"],
    ],
)
def test_family_elements_outside_a_dio_monoid_exit_3(argv):
    code, out = invoke(argv)
    assert code == 3
    assert out.startswith("parse error at 1:6: (2, 0) is not a member")


@pytest.mark.parametrize(
    "argv",
    [
        ["gallery-eval", "--fam", "fam {1*2}"],
        ["axioms"],
        ["braid-find", "--x", "fam {1*2}", "--y", "fam {2*1}"],
        ["braid-check", "--x", "fam {1*2}", "--y", "fam {2*1}",
         "--cert", "PREFIX\nB i={1*2} j={2*1} u=2 v'=0"],
    ],
)
def test_hnp_predicate_outside_member_exits_3(argv):
    code, out = invoke(argv + ["--monoid", "hnp(c=1)"])
    assert code == 3
    assert out.startswith(f"error: {argv[0]} requires a monoid")


@pytest.mark.parametrize(
    "argv,what",
    [
        (["member", "--vec", "(1)"], "a constraint-defined monoid or hnp(c=...)"),
        (["extend", "--to", "aleph1"], "a constraint-defined monoid"),
        (["decompose", "--vec", "(1)"], "a constraint-defined monoid"),
        (["aleph0-extend", "--vec", "(1)"], "a constraint-defined monoid"),
    ],
)
def test_dio_subcommands_reject_other_monoids_exit_3(argv, what):
    argv = argv + ["--monoid", "N0"]
    error = f"{argv[0]} requires {what}"
    assert invoke(argv) == (3, f"error: {error}\n")
    code, out = invoke(argv + ["--format", "json"])
    assert code == 3
    assert json.loads(out) == {"command": argv[0], "error": error, "exit": 3}


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "--kappa", "aleph0"],
        ["decompose", "--kappa", "aleph1"],
    ],
)
def test_coordinates_above_the_bound_are_not_members(argv):
    code, out = invoke(argv + ["--monoid", "dio n=1 { }", "--vec", "(aleph3)"])
    assert code == 1
    assert "(aleph3) is not a member" in out


@pytest.mark.parametrize(
    "argv,elem",
    [
        (["gallery-eval", "--monoid", "N0", "--kappa", "aleph1", "--fam", "fam {aleph3*1}"], "aleph3"),
        (["gallery-eval", "--monoid", "vec(2)", "--kappa", "aleph1", "--fam", "fam {(aleph3,0)*1}"],
         "(aleph3, 0)"),
        (["gallery-eval", "--monoid", "dedekind(2)", "--kappa", "aleph1", "--fam", "fam {(aleph3;)*1}"],
         "(aleph3;)"),
        # trivial(...) sums its base below aleph0, which admits no aleph0
        (["gallery-eval", "--monoid", "trivial(N0)", "--fam", "fam {aleph0*1}"], "aleph0"),
        (["braid-find", "--monoid", "N0", "--kappa", "aleph1", "--x", "fam {aleph3*1}",
          "--y", "fam {aleph3*1, 1*1}"], "aleph3"),
    ],
)
def test_family_elements_outside_the_bound_exit_3(argv, elem):
    name = argv[argv.index("--monoid") + 1]
    assert invoke(argv) == (3, f"parse error at 1:6: {elem} is not a member of {name}\n")


@pytest.mark.parametrize(
    "monoid,fam,want",
    [
        ("dedekind(2)", "fam {(3; 1, 7, 9)*1}", "a class of dedekind(2) has length 1, got 3"),
        ("dedekind(2,3)", "fam {(3; 1)*1}", "a class of dedekind(2,3) has length 2, got 1"),
    ],
)
def test_dedekind_class_of_the_wrong_length_exits_3(monoid, fam, want):
    argv = ["gallery-eval", "--monoid", monoid, "--fam", fam]
    assert invoke(argv) == (3, f"parse error at 1:6: {want}\n")
    code, out = invoke(argv + ["--format", "json"])
    assert code == 3 and json.loads(out)["error"] == f"1:6: {want}"


def test_family_members_of_a_dio_monoid_are_accepted():
    code, out = invoke(["gallery-eval", "--monoid", DIAGONAL, "--fam", "fam {(2,2)*aleph0, (1,1)*3}"])
    assert code == 0 and "(aleph0, aleph0)" in out


@pytest.mark.parametrize(
    "cert,position",
    [
        ("PREFIX\nCYCLE\nB x={1*2} q={2*1} r=2 s'=0", "3:3"),
        ("PREFIX\nCYCLE\nB i={1*1 1*1} j={2*1} u=2 v'=0", "3:10"),
        ("PREFIX\nCYCLE\nB i={1*2} j={2*1} u=2 v'=0 junk", "3:28"),
        ("LAYER w=aleph1)\nPREFIX\nCYCLE\nB i={1*2} j={2*1} u=2 v'=0", "1:15"),
        ("C i={1*aleph0} j={1*aleph0} w=aleph1 junk", "1:38"),
    ],
)
def test_braid_check_malformed_certificate_exits_3(cert, position):
    code, out = invoke(
        ["braid-check", "--monoid", "N0", "--x", "fam {1*aleph0}", "--y", "fam {2*aleph0}",
         "--cert", cert]
    )
    assert code == 3
    assert out.startswith(f"parse error at {position}:")


def test_json_format_stable_fields():
    code, out = invoke(
        ["member", "--monoid", "dio n=1 { }", "--vec", "(4)", "--format", "json"]
    )
    data = json.loads(out)
    assert data["command"] == "member"
    assert data["exit"] == 0
    assert data["member"] is True


def test_axioms_subcommand():
    code, out = invoke(["axioms", "--monoid", "cmn(1,2)", "--samples", "60", "--seed", "7"])
    assert code == 0
    assert all(l.startswith(("PASS", "FAIL")) for l in out.splitlines())


def test_axioms_on_dedekind_without_infinite_ranks():
    # trivial(...) sums its base below aleph0, where no infinite rank is
    # admissible, so sampling must stay on finite ranks
    code, out = invoke(["axioms", "--monoid", "trivial(dedekind(2))", "--samples", "20"])
    assert code == 0
    assert out.splitlines() and all(l.startswith("PASS") for l in out.splitlines())


def test_extend_rejects_bad_vector_before_reporting():
    argv = ["extend", "--monoid", "dio n=1 { }", "--to", "aleph1", "--vec", "(1,2)"]
    assert invoke(argv) == (3, "error: vector length 2 != 1\n")
    code, out = invoke(argv + ["--format", "json"])
    assert code == 3
    assert json.loads(out) == {"command": "extend", "error": "vector length 2 != 1", "exit": 3}


def test_extend_and_aleph0_extend_disagree_on_noncancellative_system():
    sysname = "dio n=2 { eq: 2 x0 = x0 + x1; }"
    code, _ = invoke(["extend", "--monoid", sysname, "--to", "aleph0", "--vec", "(aleph0, 3)"])
    assert code == 0
    code, _ = invoke(["aleph0-extend", "--monoid", sysname, "--vec", "(aleph0, 3)"])
    assert code == 1


def test_gallery_eval():
    code, out = invoke(["gallery-eval", "--monoid", "trivial(N0)", "--fam", "fam {1*aleph0}"])
    assert code == 0 and "inf" in out
    code, out = invoke(["gallery-eval", "--monoid", "dedekind(2)", "--fam", "fam {(1; 1)*2}"])
    assert code == 0 and "(2; 0)" in out


def test_determinism_across_runs():
    argvs = [
        ["braid-find", "--monoid", "N0", "--x", "fam {1*aleph0, 3*2}", "--y", "fam {2*aleph0}"],
        ["axioms", "--monoid", "vec(2)", "--samples", "50", "--seed", "3"],
        ["realizable2", "--pres", "twogen { rel: 2*X1 = 1*X2; }"],
    ]
    for argv in argvs:
        a = invoke(argv)
        b = invoke(argv)
        assert a == b


@pytest.mark.parametrize(
    "argv,command,error",
    [
        (["member", "--monoid", "dio n=1 { }"], "member",
         "the following arguments are required: --vec"),
        (["realizable2", "--pres", "twogen { }", "--budget", "0"], "realizable2",
         "argument --budget: 0 is below 1"),
        (["member", "--monoid", "dio n=1 { }", "--vec", "(4)", "--budget", "5"], "member",
         "unrecognized arguments: --budget 5"),
    ],
)
def test_json_usage_error(argv, command, error, capsys):
    code, out = invoke(argv + ["--format", "json"])
    assert code == 3
    assert json.loads(out) == {"command": command, "error": error, "exit": 3}
    # text mode keeps argparse's usage message on stderr and an empty stdout
    capsys.readouterr()
    code, out = invoke(argv)
    assert code == 3 and out == ""
    assert capsys.readouterr().err.endswith(f"error: {error}\n")


def test_one_parser_serves_every_run(capsys):
    # a usage error, --help, a valid command and the usage error again, all
    # in one process and twice over: every run prints what its first did
    argvs = [
        ["member", "--monoid", "dio n=1 { }"],
        ["braid-find", "--help"],
        ["member", "--monoid", "dio n=1 { }", "--vec", "(4)"],
        ["member", "--monoid", "dio n=1 { }"],
    ]
    runs = []
    for argv in argvs + argvs:
        code = run(argv)
        runs.append((code, *capsys.readouterr()))
    assert build_parser() is build_parser()
    assert runs[:4] == runs[4:]
    assert runs[0] == runs[3]
    assert runs[0][0] == 3 and runs[0][2].endswith("required: --vec\n")
    assert runs[1][0] == 0 and runs[1][1].startswith("usage: kmon braid-find")
    assert runs[2][:2] == (0, "(4) is a member of dio n=1 { }\n")


# -- pinned text of the hnp predicate, presented monoids and dedekind elements --

HNP = "hnp(c=1,1/2)"


@pytest.mark.parametrize(
    "vec,kappa,expected",
    [
        ("(aleph1, aleph0)", "aleph2", (0, f"(aleph1, aleph0) is a member of {HNP}\n")),
        ("(aleph2, aleph0)", "aleph1", (1, f"(aleph2, aleph0) is not a member of {HNP}\n")),
        ("(3, aleph0)", "aleph3", (3, "error: the distinguished coordinate must be infinite\n")),
        ("(aleph0)", "aleph3", (3, "error: rank vector and local ranks differ in length\n")),
    ],
)
def test_hnp_member_reads_kappa_from_the_bound(vec, kappa, expected):
    assert invoke(["member", "--monoid", HNP, "--vec", vec, "--kappa", kappa]) == expected


def test_hnp_member_json_error():
    code, out = invoke(["member", "--monoid", "hnp(c=0)", "--vec", "(aleph0)", "--format", "json"])
    assert code == 3
    assert json.loads(out) == {"command": "member", "error": "local ranks are positive", "exit": 3}


TWOGEN = "twogen { rel: 2*X1 = 1*X2; }"


def test_gallery_eval_on_a_presented_monoid():
    code, out = invoke(
        ["gallery-eval", "--monoid", TWOGEN, "--fam",
         "fam {(1*X1 + 0*X2)*2, (0*X1 + 1*X2)*aleph0}"]
    )
    assert code == 0
    assert out.endswith("= (2*X1 + aleph0*X2)\n")


def test_braid_find_then_check_on_a_presented_monoid():
    common = ["--monoid", TWOGEN, "--x", "fam {(1*X1 + 0*X2)*aleph0}",
              "--y", "fam {(0*X1 + 1*X2)*aleph0}"]
    block = "B i={(1*X1 + 0*X2)*2} j={(0*X1 + 1*X2)*1} u=(2*X1 + 0*X2) v'=(0*X1 + 0*X2)"
    cert = f"PREFIX\nCYCLE\n{block}"
    assert invoke(["braid-find", *common]) == (0, f"{cert}\nverdict: YES\n")
    code, out = invoke(["braid-check", *common, "--cert", cert])
    assert code == 0 and out.endswith("verdict: YES\n")


def test_braid_find_on_dedekind_prints_dsl_literals():
    code, out = invoke(
        ["braid-find", "--monoid", "dedekind(2)", "--x", "fam {(1; 1)*aleph0}",
         "--y", "fam {(2; 0)*aleph0}"]
    )
    assert code == 0
    assert "B i={(1; 1)*2} j={(2; 0)*1} u=(2; 0) v'=0\n" in out


def test_braid_check_note_prints_dedekind_elements_as_dsl_literals(tmp_path):
    cert = tmp_path / "c.txt"
    cert.write_text("PREFIX\nB i={(1; 1)*3} j={(3; 1)*1} u=(3; 1) v'=0\n")
    code, out = invoke(
        ["braid-check", "--monoid", "dedekind(2)", "--x", "fam {(1; 1)*3}",
         "--y", "fam {(3; 1)*2}", "--cert", f"@{cert}"]
    )
    assert (code, out) == (1, "verdict: NO (consumption of (3; 1): 1 != 2)\n")



def test_braid_check_note_prints_forms_as_dsl_literals(tmp_path):
    cert = tmp_path / "c.txt"
    cert.write_text(
        "PREFIX\nB i={(1*X1 + 0*X2)*2} j={(0*X1 + 1*X2)*1} u=(0*X1 + 1*X2) v'=(0*X1 + 0*X2)\n"
    )
    code, out = invoke(
        ["braid-check", "--monoid", TWOGEN,
         "--x", "fam {(1*X1 + 0*X2)*2}", "--y", "fam {(0*X1 + 1*X2)*2}", "--cert", f"@{cert}"]
    )
    assert (code, out) == (1, "verdict: NO (consumption of (0*X1 + 1*X2): 1 != 2)\n")

def _readme_cli() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## CLI\n", 1)[1]


def _readme_cli_examples() -> list[str]:
    block = _readme_cli().split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("kmon ")]


def test_readme_cli_examples_run(tmp_path):
    examples = _readme_cli_examples()
    assert len(examples) >= 10
    for line in examples:
        argv = shlex.split(line)[1:]
        if argv[0] == "braid-check":
            # the certificate comes from the braid-find example on the same families
            find = ["braid-find", *argv[1:argv.index("--cert")]]
            code, out = invoke(find)
            assert code == 0, find
            cert = tmp_path / "cert.txt"
            cert.write_text(out.rsplit("verdict:", 1)[0])
            argv[argv.index("@cert.txt")] = f"@{cert}"
        code, out = invoke(argv)
        assert code in (0, 1, 2), (line, out)


def test_readme_shared_option_bullets_match_the_parser():
    # each bullet reads "- `--opt` (...) [and `--opt2` (...)]: `cmd`, ... and `cmd`;"
    (text,) = [p for p in _readme_cli().split("\n\n") if p.startswith("- `--")]
    bullets = [" ".join(b.split()) for b in text.split("\n- ")]
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    seen = set()
    for bullet in bullets:
        head, tail = bullet.rsplit("): ", 1)
        commands = set(re.findall(r"`([a-z0-9-]+)`", tail))
        for option in re.findall(r"`(--[a-z]+)`", head):
            taking = {
                name
                for name, p in subparsers.choices.items()
                if any(option in a.option_strings for a in p._actions)
            }
            assert commands == taking, option
            seen.add(option)
    assert seen == {"--kappa", "--budget", "--radius", "--seed", "--samples"}
