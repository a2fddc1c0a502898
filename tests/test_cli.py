"""CLI surface tests: flags, formats, exit codes, determinism, round-trips."""

import errno
import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superfrob import cli
from superfrob.combinat import HookProfile
from superfrob.exact import CyclotomicNumber, Poly, StructuralError
from superfrob.serialize import poly_to_terms
from superfrob.symfunc import BlockVariables, q_bmu


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_start_up_imports_no_dataclasses():
    # the record classes are NamedTuples, so building the parser imports
    # neither dataclasses nor inspect, which dataclasses pulls in; -S keeps
    # site hooks of the environment out of the measured import graph
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys; from superfrob.cli import build_parser; build_parser(); "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_chartable_m1_n2_json(capsys):
    code, out, _ = run_cli(capsys, ["chartable", "--m", "1", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 1 and payload["n"] == 2
    assert payload["row_labels"] == [[[2]], [[1, 1]]]
    assert payload["col_labels"] == [[[2]], [[1, 1]]]
    assert payload["solve_profile"] == {"k": [2], "l": [0]}
    assert payload["specialized"] is False
    # chi^(2) at type (2) is q*Q1; chi^(1,1) is -q^-1*Q1
    assert payload["entries"][0][0] == [["1", {"Q1": 1, "q": 1}]]
    assert payload["entries"][1][0] == [["-1", {"Q1": 1, "q": -1}]]
    assert payload["trivial_row_index"] == 0


def test_chartable_m2_n1_specialized(capsys):
    code, out, _ = run_cli(capsys, ["chartable", "--m", "2", "--n", "1", "--specialize"])
    assert code == 0
    payload = json.loads(out)
    assert payload["specialized"] is True
    assert payload["zeta_order"] == 2
    values = {
        (r, c): payload["entries"][r][c]
        for r in range(2)
        for c in range(2)
    }
    assert values[(0, 0)] == [["-1", {}]]
    assert values[(0, 1)] == [["1", {}]]
    assert values[(1, 0)] == [["1", {}]]
    assert values[(1, 1)] == [["1", {}]]


def test_chartable_rejects_invalid_m(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["chartable", "--m", "0", "--n", "1"])
    assert err.value.code == 2


def test_chartable_desk_scale_guard(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["chartable", "--m", "3", "--n", "4"])
    assert err.value.code == 2


def test_chartable_guard_names_the_charged_quantity(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["chartable", "--m", "1", "--n", "7"])
    assert err.value.code == 2
    assert "(m*n)^n = 823543 exceeds the cap 200000" in capsys.readouterr().err


def test_verify_charges_the_tensor_only_to_suites_that_build_it(capsys):
    # orthogonality never reads --k/--l, so only its m*n cap applies
    profile = ["--m", "1", "--n", "6", "--k", "5", "--l", "5"]
    code, out, _ = run_cli(capsys, ["verify", "--suite", "orthogonality", *profile])
    assert code == 0 and json.loads(out)["passed"] is True
    for suite in ("relations", "frobenius", "identities", "all"):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--suite", suite, *profile])
        assert err.value.code == 2
        assert "(k+l)^n = 1000000 exceeds the cap 200000" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--suite", "orthogonality", "--m", "1", "--n", "11"])
    assert err.value.code == 2
    assert "m*n = 11 exceeds the desk-scale cap 10" in capsys.readouterr().err
    # nor does it need a variable of the tensor superspace
    empty = ["--m", "2", "--n", "2", "--k", "0", "--l", "0"]
    code, out, _ = run_cli(capsys, ["verify", "--suite", "orthogonality", *empty])
    assert code == 0 and json.loads(out)["passed"] is True
    for suite in ("relations", "frobenius", "identities", "all"):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--suite", suite, *empty])
        assert err.value.code == 2
        assert "the verification profile needs at least one variable" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["chartable", "--m", "1", "--n", "10000000"],
        ["verify", "--suite", "relations", "--m", "1", "--n", "10000000", "--k", "2", "--l", "1"],
        ["expand", "superschur", "--shape", "[[10000000]]", "--k", "2", "--l", "1"],
    ],
    ids=["chartable", "verify", "expand"],
)
def test_a_huge_n_is_refused_by_the_m_n_cap_before_any_power(capsys, argv):
    # the charged size (m*n)^n or (k+l)^n of n = 10^7 has millions of digits;
    # the m*n cap is checked first, so it is never formed
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "m*n = 10000000 exceeds the desk-scale cap 10" in capsys.readouterr().err


def test_force_skips_both_caps_without_forming_the_charge():
    forced = cli.build_parser().parse_args(["chartable", "--m", "1", "--n", "1", "--force"])
    cli._guard(None, forced, 1, 10**7, "(m*n)^n", 10**7)
    cli._guard_dimension(None, forced, "(k+l)^a", 3, 10**7)


def test_flags_are_registered_only_where_read(capsys):
    # verify always prints JSON, and expand has nothing to report on stderr
    for argv in (
        ["verify", "--suite", "relations", "--m", "1", "--n", "2", "--format", "csv"],
        ["expand", "hl", "--a", "2", "--k", "2", "--verbose"],
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2


def test_readme_commands_exit_zero(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [
        shlex.split(line)[1:] for line in readme.splitlines() if line.startswith("superfrob ")
    ]
    assert commands
    for argv in commands:
        code, _, err = run_cli(capsys, argv)
        assert code == 0, (argv, err)


def test_chartable_csv(capsys):
    code, out, _ = run_cli(capsys, ["chartable", "--m", "2", "--n", "1", "--specialize", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("lambda\\mu")
    assert len(lines) == 3
    assert "-1" in lines[1]


def test_chartable_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        # the table is cached per (m, n); each run must solve it afresh
        cli.hecke_character_table.cache_clear()
        code = cli.main(["chartable", "--m", "2", "--n", "2", "--out", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("where", ["directory", "missing parent", "file ancestor"])
def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    # each path with the error its write would raise
    out, code = {
        "directory": (tmp_path, errno.EISDIR),
        "missing parent": (tmp_path / "missing" / "report.json", errno.ENOENT),
        # a regular file in the middle of the path
        "file ancestor": (tmp_path / "file" / "sub" / "report.json", errno.ENOTDIR),
    }[where]
    (tmp_path / "file").write_text("")
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--suite", "relations", "--m", "1", "--n", "2", "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"cannot write --out {str(out)!r}: {os.strerror(code)}" in message
    assert "internal failure" not in message


@pytest.mark.parametrize(
    "argv, where",
    [
        (["verify", "--suite", "relations", "--m", "1", "--n", "2"], "directory"),
        (["chartable", "--m", "1", "--n", "2"], "missing parent"),
    ],
    ids=["verify-directory", "chartable-missing-parent"],
)
def test_an_unwritable_out_is_refused_before_the_work(tmp_path, capsys, monkeypatch, argv, where):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", no_work)
    monkeypatch.setattr(cli, "hecke_character_table", no_work)
    out = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"cannot write --out {str(out)!r}" in message
    assert "internal failure" not in message


# Printer characterization: these bytes were produced before the term printers
# were merged into one, and the merged printer must reproduce them exactly.
W32_CSV = """\
lambda\\mu,"[[2], [], []]","[[1, 1], [], []]","[[1], [1], []]","[[1], [], [1]]","[[], [2], []]","[[], [1, 1], []]","[[], [1], [1]]","[[], [], [2]]","[[], [], [1, 1]]"
"[[2], [], []]",zeta,-1 - zeta,1,zeta,-1 - zeta,zeta,-1 - zeta,1,1
"[[1, 1], [], []]",-zeta,-1 - zeta,1,zeta,1 + zeta,zeta,-1 - zeta,-1,1
"[[1], [1], []]",0,2,-1,-1,0,2,-1,0,2
"[[1], [], [1]]",0,2*zeta,-1,1 + zeta,0,-2 - 2*zeta,-zeta,0,2
"[[], [2], []]",-1 - zeta,zeta,1,-1 - zeta,zeta,-1 - zeta,zeta,1,1
"[[], [1, 1], []]",1 + zeta,zeta,1,-1 - zeta,-zeta,-1 - zeta,zeta,-1,1
"[[], [1], [1]]",0,-2 - 2*zeta,-1,-zeta,0,2*zeta,1 + zeta,0,2
"[[], [], [2]]",1,1,1,1,1,1,1,1,1
"[[], [], [1, 1]]",-1,1,1,1,-1,1,1,-1,1
"""

H22_CSV = """\
lambda\\mu,"[[2], []]","[[1, 1], []]","[[1], [1]]","[[], [2]]","[[], [1, 1]]"
"[[2], []]",q*Q1,Q1^2,Q1^3,q*Q1^2,Q1^4
"[[1, 1], []]",-q^-1*Q1,Q1^2,Q1^3,-q^-1*Q1^2,Q1^4
"[[1], [1]]",q*Q2 - q^-1*Q2,2*Q1*Q2,Q1^2*Q2 + Q1*Q2^2,q*Q2^2 - q^-1*Q2^2,2*Q1^2*Q2^2
"[[], [2]]",q*Q2,Q2^2,Q2^3,q*Q2^2,Q2^4
"[[], [1, 1]]",-q^-1*Q2,Q2^2,Q2^3,-q^-1*Q2^2,Q2^4
"""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_printer_characterization_chartable_csv(capsys):
    code, out, _ = run_cli(
        capsys, ["chartable", "--m", "3", "--n", "2", "--specialize", "--format", "csv"]
    )
    assert code == 0 and out == W32_CSV
    code, out, _ = run_cli(capsys, ["chartable", "--m", "2", "--n", "2", "--format", "csv"])
    assert code == 0 and out == H22_CSV


def test_printer_characterization_expand_ptilde(capsys):
    argv = ["expand", "ptilde", "--shape", "[[1],[1],[1]]", "--k", "1,1,1", "--l", "1,1,1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert _sha256(payload["string"]) == (
        "7a02ecaf12e5aaf7475785ef97d84a0135177a0c6175d6179ed1f33db27d3c3d"
    )
    assert _sha256(json.dumps(payload["terms"])) == (
        "8e4d5454186634ecf82a150dfe26aadddb78703dede258bad18bb30465ef4aaa"
    )
    # zeta-carrying coefficients inside a polynomial, whole payload pinned
    argv = ["expand", "ptilde", "--shape", "[[2],[],[1]]", "--k", "1,1,1", "--l", "1,0,1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert _sha256(out) == "be7fcf2e2283ec76f1f0cb8b34358091c2ffb7280f4d24640efd8dc0a1a73c5d"


# sha256 of the whole `expand ptilde` JSON payload at m <= 2, as computed when
# these coefficients were built from cyclotomic roots
PTILDE_PAYLOAD_SHA256 = {
    ("[[2,1]]", "2", "1"): "0b927629999df87abb9d0ba28ab414c9510620ff32c23d68b8794c2163bc5bf6",
    ("[[2],[1,1]]", "1,1", "1,1"): (
        "5a135fc0de89ff4cbd6ca5c1a723062967898aaf9ca7570c6b4dd65e38167dba"
    ),
}


@pytest.mark.parametrize("shape,k,l", sorted(PTILDE_PAYLOAD_SHA256))
def test_expand_ptilde_payload_is_pinned_at_m_le_2(capsys, shape, k, l):
    code, out, _ = run_cli(capsys, ["expand", "ptilde", "--shape", shape, "--k", k, "--l", l])
    assert code == 0
    assert _sha256(out) == PTILDE_PAYLOAD_SHA256[shape, k, l]


def test_verify_relations_example(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "relations", "--m", "2", "--n", "2", "--k", "1,1", "--l", "1,1"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {check["name"] for check in report["checks"]}
    assert {"quadratic", "braid", "type-b-braid", "cyclotomic", "d-commutation"} <= names
    assert set(report["timing_seconds"]) == names


def test_verify_frobenius_example(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "frobenius", "--m", "1", "--n", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["config"] == {"m": 1, "n": 3, "k": [1], "l": [1]}


def test_verify_identities_example(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "identities", "--n", "4", "--k", "2", "--l", "1", "--m", "1"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {check["name"] for check in report["checks"]}
    assert {"eq-qq", "all-monomial-rows"} <= names


@pytest.mark.parametrize("suite,prefix", [("identities", ""), ("all", "identities/")])
def test_verify_skips_the_checks_of_an_empty_leading_color(capsys, suite, prefix):
    # k_1 = l_1 = 0: the checks on color 1 alone have no variable to run on
    argv = ["verify", "--suite", suite, "--m", "2", "--n", "2", "--k", "0,1", "--l", "0,1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["passed"] is True
    details = {check["name"]: check["detail"] for check in report["checks"]}
    for name in ("king", "hl-decomposition"):
        assert details[prefix + name] == "skipped: empty leading color block"


def test_verify_failure_exits_one(capsys, monkeypatch):
    from superfrob.suites import CheckResult

    monkeypatch.setattr(
        cli, "run_suite", lambda name, config: [CheckResult("stub", False, "forced", 0.0)]
    )
    code, out, _ = run_cli(capsys, ["verify", "--suite", "relations"])
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_expand_superschur_single_box(capsys):
    code, out, _ = run_cli(
        capsys, ["expand", "superschur", "--shape", "[[1]]", "--k", "1", "--l", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["string"] == "x1_1 - y1_1"
    assert payload["terms"] == [["1", {"x1_1": 1}], ["-1", {"y1_1": 1}]]


def test_expand_hl_degree_zero(capsys):
    code, out, _ = run_cli(capsys, ["expand", "hl", "--a", "0", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["string"] == "1"


def test_expand_hl_guard_charges_only_its_dimension(capsys):
    # expand hl has no m or n, so a long degree in one variable is cheap
    code, out, _ = run_cli(capsys, ["expand", "hl", "--a", "11", "--k", "1"])
    assert code == 0
    assert json.loads(out)["string"] == "-x1_1^11*t + x1_1^11"
    with pytest.raises(SystemExit) as err:
        cli.main(["expand", "hl", "--a", "12", "--k", "3", "--l", "0"])
    assert err.value.code == 2
    assert "(k+l)^a = 531441 exceeds the cap 200000" in capsys.readouterr().err
    # one variable does not lift the bound on the degree itself
    with pytest.raises(SystemExit) as err:
        cli.main(["expand", "hl", "--a", "100000", "--k", "1"])
    assert err.value.code == 2
    assert "a^2 = 10000000000 exceeds the cap 200000" in capsys.readouterr().err


def test_expand_hl_bytes_pinned(capsys):
    # the all-even profile goes through the same generating series as the super one
    code, out, _ = run_cli(capsys, ["expand", "hl", "--a", "3", "--k", "2"])
    assert code == 0
    assert _sha256(out) == "323aa594f345c65c008b99b78d535936b8d0b09e2baf2fcb12561f453777da0e"


def test_expand_superschur_non_hook_is_zero(capsys):
    code, out, _ = run_cli(
        capsys, ["expand", "superschur", "--shape", "[[2,2]]", "--k", "1", "--l", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [] and payload["string"] == "0"


def test_expand_qbmu_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["expand", "qbmu", "--shape", "[[1],[]]", "--k", "1,1", "--l", "1,1", "--format", "csv"],
    )
    assert code == 0
    assert out.strip() != "0"
    assert "Q1" in out


def test_expand_ptilde_has_zeta(capsys):
    code, out, _ = run_cli(
        capsys, ["expand", "ptilde", "--shape", "[[1],[]]", "--k", "1,1", "--l", "0,0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta_order"] == 2
    # P_1^(1) = zeta^-1 x1 + zeta^-2 x2 = -x1_1 + x2_1 for m = 2
    assert payload["string"] in ("-x1_1 + x2_1", "x2_1 - x1_1")


def test_expand_qtilde(capsys):
    code, out, _ = run_cli(
        capsys,
        ["expand", "qtilde", "--alpha", "1,1", "--beta", "0", "--k", "2", "--l", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["string"] == "q*x1_1*x1_2 - q^-1*x1_1*x1_2"


def test_expand_qtilde_takes_the_color_count_from_l(capsys):
    # --l alone may name the colors; --k's default broadcasts to match
    code, out, _ = run_cli(capsys, ["expand", "qtilde", "--l", "1,1", "--beta", "1,0"])
    assert code == 0
    registry = json.loads(out)["registry"]
    assert {"Q1", "Q2", "x2_1", "y2_1"} <= set(registry) and "Q3" not in registry


def test_expand_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["expand", "superschur", "--shape", "not-json", "--k", "1", "--l", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["expand", "hl"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "superschur", "--shape", "[[-1]]", "--k", "1", "--l", "1"],
        ["expand", "superschur", "--shape", "[[1,2]]", "--k", "1", "--l", "1"],
        ["expand", "qbmu", "--shape", "[[-1]]"],
        ["expand", "qtilde", "--alpha=-1,2", "--k", "2", "--l", "0"],
        ["expand", "qtilde", "--alpha=0,0", "--k", "2", "--l", "0"],
        ["expand", "superschur", "--shape", "[[1.5]]", "--k", "1", "--l", "1"],
        ["expand", "superschur", "--shape", '"11"', "--k", "1", "--l", "1"],
        ["expand", "superschur", "--shape", "[]"],
        ["expand", "ptilde", "--shape", "[[],[]]", "--k", "0", "--l", "0"],
        ["expand", "qtilde", "--k", "0", "--l", "0", "--alpha", "1"],
        ["expand", "hl", "--a", "2", "--k", "-1", "--l", "2"],
        ["expand", "hl", "--a", "1", "--k", "1,-1", "--l", "1"],
    ],
)
def test_expand_refuses_malformed_shapes_and_weights(capsys, argv):
    # a shape part must be a positive integer, each part list weakly
    # decreasing, a qtilde weight nonnegative with a positive total, and each
    # --k/--l entry nonnegative; a shape needs a color and a profile needs a
    # variable
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "internal failure" not in capsys.readouterr().err


def terms_to_poly(registry, terms, zeta_order=None):
    """Inverse of poly_to_terms (with the zeta order of the coefficient field)."""
    total = Poly.zero(registry)
    for coeff_str, powers in terms:
        value = Fraction(coeff_str)
        coeff = value.numerator if value.denominator == 1 else value
        zeta_power = 0
        cleaned = {}
        for name, e in powers.items():
            if name == "zeta":
                zeta_power = e
            else:
                cleaned[name] = e
        if zeta_power:
            if zeta_order is None:
                raise StructuralError("zeta power present but no zeta order given")
            scalar = coeff * CyclotomicNumber.zeta(zeta_order, zeta_power)
        else:
            scalar = coeff
        total = total + Poly.monomial(registry, cleaned, scalar)
    return total


def test_poly_json_round_trip():
    block = BlockVariables(HookProfile((1, 1), (1, 1)))
    f = q_bmu(((2,), (1,)), block)
    data = poly_to_terms(f)
    # serialize through real JSON bytes and back
    recovered = terms_to_poly(block.registry, json.loads(json.dumps(data)))
    assert recovered == f
    # integral coefficients come back as int, as the computation keeps them
    assert {e: type(c) for e, c in recovered.terms.items()} == {
        e: type(c) for e, c in f.terms.items()
    }


def test_internal_failure_exit_code(capsys, monkeypatch):
    def boom(m, n):
        raise ArithmeticError("forced failure")

    monkeypatch.setattr(cli, "hecke_character_table", boom)
    code, out, err = run_cli(capsys, ["chartable", "--m", "1", "--n", "2"])
    assert code == 1
    assert "internal failure" in err


def test_cyclotomic_poly_round_trip():
    from superfrob.symfunc import colored_power_sum

    block = BlockVariables(HookProfile((1, 1, 1), (0, 0, 0)))
    f = colored_power_sum(2, 1, block)  # coefficients in Q(zeta_3)
    data = json.loads(json.dumps(poly_to_terms(f)))
    assert terms_to_poly(block.registry, data, zeta_order=3) == f
