"""End-to-end CLI behavior: exit codes, output shapes, determinism."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import time
import tracemalloc
from fractions import Fraction

import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayedcsit import cli
from delayedcsit.cli import main
from delayedcsit.dof_calc import DofQuery, nonsquare_closed_form
from delayedcsit.region import tight_permutations
from delayedcsit.schemes import run_alt22


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_dof_table_single_cell(capsys):
    doc = run_json(capsys, ["dof-table", "--m", "2", "--k", "3", "--j", "1"])
    assert doc["schema"] == "v1"
    (row,) = doc["rows"]
    assert row["lower"] == "24/17"
    assert row["upper"] == "3/2"
    assert row["tight"] is False
    assert "opt23" in row["note"]


def test_dof_table_deep_antenna_limited_cell(capsys):
    # the recursion runs 1,500 levels down without a stack overflow
    q = DofQuery(2, 1500, 1)
    (row,) = run_json(capsys, ["dof-table", "--m", "2", "--k", "1500",
                               "--j", "1"])["rows"]
    assert row["lower"] == cli._rat(nonsquare_closed_form(q))


def test_dof_table_sweep_and_tightness(capsys):
    doc = run_json(capsys, ["dof-table", "--k", "2"])
    assert len(doc["rows"]) == 4
    by_mj = {(r["m"], r["j"]): r for r in doc["rows"]}
    assert by_mj[(2, 1)]["lower"] == "4/3"
    assert by_mj[(2, 1)]["tight"] is True
    assert by_mj[(1, 1)]["lower"] == "1/1"
    assert by_mj[(2, 2)]["lower"] == "1/1"


def test_dof_table_csv(capsys):
    code, out, err = run_cli(
        capsys, ["dof-table", "--m", "3", "--k", "3", "--j", "1",
                 "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "k", "j", "lower", "upper", "tight", "note"]
    assert rows[1][:6] == ["3", "3", "1", "18/11", "18/11", "true"]


def test_dof_table_requires_k(capsys):
    code, out, err = run_cli(capsys, ["dof-table", "--m", "2"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_dof_table_refuses_a_k_below_one(capsys, k):
    # no receivers is a usage error, not an empty table
    code, out, err = run_cli(capsys, ["dof-table", f"--k={k}"])
    assert code == 2 and out == ""
    assert "error: --k must be positive" in err


@pytest.mark.parametrize("command", ["scheme-run", "scheme-verify", "rate-sim"])
@pytest.mark.parametrize("flags, refused", [
    (["--scheme", "square", "--k", "-1"], "--k must be positive, got -1"),
    (["--scheme", "tdma", "--k", "0"], "--k must be positive, got 0"),
    (["--scheme", "order", "--m", "0", "--k", "3", "--j", "1"],
     "--m must be positive, got 0"),
    (["--scheme", "order", "--m", "2", "--k", "3", "--j", "-2"],
     "--j must be positive, got -2"),
    (["--scheme", "alt22", "--k", "-1"], "--k must be positive, got -1"),
], ids=["square", "tdma", "order-m", "order-j", "alt22"])
def test_scheme_flags_below_one_are_refused(capsys, command, flags, refused):
    # the message names the flag the user gave, not one they never passed
    code, out, err = run_cli(capsys, [command, *flags])
    assert code == 2 and out == ""
    assert err == f"error: {refused}\n"


def test_scheme_run_json(capsys):
    doc = run_json(capsys, ["scheme-run", "--scheme", "square", "--k", "2"])
    assert doc["command"] == "scheme-run"
    assert doc["schema"] == "v3"
    assert doc["dof"] == "4/3"
    assert doc["expected_dof"] == "4/3"
    assert doc["decode_ok"] is True
    assert doc["rng"]["seed"] == cli.DEFAULT_SEED


def test_scheme_run_is_byte_deterministic(capsys):
    argv = ["scheme-run", "--scheme", "opt23", "--seed", "7"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, ["scheme-run", "--scheme", "opt23",
                                  "--seed", "8"])
    assert out1 != out3


def test_scheme_run_csv(capsys):
    code, out, err = run_cli(
        capsys, ["scheme-run", "--scheme", "mat23", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["scheme", "m", "k", "symbols", "slots", "dof",
                       "decode_ok", "seed"]
    assert rows[1] == ["mat23_suboptimal", "2", "3", "24", "17", "24/17",
                       "true", str(cli.DEFAULT_SEED)]


def test_scheme_run_order_delivery(capsys):
    doc = run_json(capsys, ["scheme-run", "--scheme", "order",
                            "--m", "2", "--k", "3", "--j", "2"])
    assert doc["dof"] == "6/5"
    # out-of-regime dimensions are a usage error
    code, out, err = run_cli(capsys, ["scheme-run", "--scheme", "order",
                                      "--m", "1", "--k", "3", "--j", "1"])
    assert code == 2
    assert "error:" in err


def test_scheme_argument_validation(capsys):
    code, _, err = run_cli(capsys, ["scheme-run", "--scheme", "square"])
    assert code == 2 and "--k" in err
    code, _, err = run_cli(capsys, ["scheme-run", "--scheme", "alt22",
                                    "--k", "3"])
    assert code == 2 and "alt22 runs --k 2, not 3" in err
    code, _, err = run_cli(capsys, ["scheme-run", "--scheme", "order",
                                    "--m", "2", "--k", "3"])
    assert code == 2 and "--j" in err


@pytest.mark.parametrize("argv, refused", [
    (["scheme-run", "--scheme", "mat23", "--k", "5", "--m", "4"], "--m 2, not 4"),
    (["scheme-run", "--scheme", "square", "--k", "3", "--m", "2"], "--m 3, not 2"),
    (["scheme-verify", "--scheme", "opt23", "--k", "4"], "--k 3, not 4"),
    (["scheme-run", "--scheme", "square", "--k", "3", "--j", "2"], "--j 1, not 2"),
    (["scheme-run", "--scheme", "alt22", "--m", "3"], "--m 2, not 3"),
    (["rate-sim", "--scheme", "tdma", "--k", "3", "--m", "3"], "--m 1, not 3"),
])
def test_scheme_dimension_flags_must_match_the_scheme(capsys, argv, refused):
    # a flag the scheme cannot honor is refused, not ignored
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and refused in err


@pytest.mark.parametrize("argv", [
    ["scheme-run", "--scheme", "alt22", "--k", "2"],
    ["scheme-run", "--scheme", "alt22", "--m", "2", "--k", "2", "--j", "1"],
    ["scheme-run", "--scheme", "mat23", "--m", "2", "--k", "3"],
    ["scheme-run", "--scheme", "square", "--m", "2", "--k", "2", "--j", "1"],
    ["scheme-run", "--scheme", "tdma", "--m", "1", "--k", "2"],
])
def test_scheme_dimension_flags_that_match_are_accepted(capsys, argv):
    doc = run_json(capsys, argv)
    assert doc["decode_ok"] is True


@pytest.mark.parametrize("argv", [
    ["region-check", "--point", "1/2,1/2", "--m", "2"],
    ["region-check", "--point", "1/2,1/2", "--j", "1"],
    ["identity-check", "--k", "3", "--m", "2"],
    ["identity-check", "--k", "3", "--j", "1"],
])
def test_region_and_identity_checks_take_only_k(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_scheme_verify_pass(capsys):
    doc = run_json(capsys, ["scheme-verify", "--scheme", "alt22",
                            "--trials", "10"])
    assert doc["pass"] is True
    assert doc["decode_successes"] == 10
    assert doc["empirical_dof"] == ["4/3"]
    # decode margins from the decode check's own factorizations: every
    # residual decades below its threshold, none failing, every singular
    # value far above the 1e-9 tolerance and NumPy's rank floor
    assert 0.0 <= doc["max_pass_ratio"] <= 0.1
    assert doc["min_fail_ratio"] is None
    assert 1e-7 <= doc["min_kept_ratio"] <= 1.0
    assert doc["max_dropped_ratio"] == 0.0  # every receiver has full row rank
    assert "min_condition" not in doc and "max_condition" not in doc


def test_scheme_verify_failure_exits_one(capsys, monkeypatch):
    def broken(stream):
        trace = run_alt22(stream)
        channels = trace.channels.copy()
        channels[:, 0] = 0.0  # the first receiver is deaf: it heard only zeros
        return dataclasses.replace(trace, channels=channels)

    monkeypatch.setattr(cli, "run_alt22", broken)
    code, out, err = run_cli(capsys, ["scheme-verify", "--scheme", "alt22",
                                      "--trials", "5"])
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["decode_successes"] == 0
    # the deaf receiver's residuals are the targets' norms, 1, against a
    # threshold of 1e-9; the other receiver still passes by decades
    assert doc["min_fail_ratio"] == pytest.approx(1e9)
    assert doc["max_pass_ratio"] <= 0.1


def test_scheme_verify_csv(capsys):
    code, out, err = run_cli(
        capsys, ["scheme-verify", "--scheme", "square", "--k", "3",
                 "--trials", "5", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["scheme", "trials", "decode_successes", "success_rate",
                       "empirical_dof", "expected_dof", "max_pass_ratio",
                       "min_fail_ratio", "min_kept_ratio", "max_dropped_ratio",
                       "pass", "seed"]
    row = dict(zip(rows[0], rows[1]))
    assert row["scheme"] == "square"
    assert row["pass"] == "true"
    assert row["min_fail_ratio"] == ""  # nothing failed
    assert float(row["max_pass_ratio"]) <= 0.1
    assert float(row["min_kept_ratio"]) >= 1e-7
    assert float(row["max_dropped_ratio"]) == 0.0


def test_rate_sim_json_slope(capsys):
    doc = run_json(capsys, ["rate-sim", "--scheme", "square", "--k", "1",
                            "--trials", "5", "--snr", "40:60:10"])
    assert doc["expected_dof"] == "1/1"
    assert len(doc["points"]) == 3
    slope = doc["slope"]
    assert slope["ci_low"] <= slope["slope"] <= slope["ci_high"]
    assert 0.8 < slope["slope"] < 1.2


def test_rate_sim_short_grid_has_no_slope(capsys):
    doc = run_json(capsys, ["rate-sim", "--scheme", "tdma", "--k", "2",
                            "--trials", "2", "--snr", "30:40:10"])
    assert doc["slope"] is None
    assert len(doc["points"]) == 2


def test_rate_sim_csv_roundtrip(capsys):
    code, out, err = run_cli(
        capsys, ["rate-sim", "--scheme", "tdma", "--k", "1", "--trials", "3",
                 "--snr", "20:40:10", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["snr_db", "scheme", "sum_rate", "stderr", "trials",
                       "seed"]
    assert len(rows) == 4
    # rates are emitted with full precision and parse back exactly
    rates = [float(r[2]) for r in rows[1:]]
    assert rates[0] < rates[1] < rates[2]


def test_rate_sim_grid_validation(capsys):
    code, out, err = run_cli(capsys, ["rate-sim", "--scheme", "tdma",
                                      "--k", "1", "--snr", "40:90:5"])
    assert code == 2 and "0-80" in err
    code, out, err = run_cli(capsys, ["rate-sim", "--scheme", "tdma",
                                      "--k", "1", "--snr", "40-60-5"])
    assert code == 2


def test_rate_sim_grid_ends_on_hi(capsys):
    # a step that does not divide the range never steps past hi, so no
    # point leaves the 0-80 dB bound
    doc = run_json(capsys, ["rate-sim", "--scheme", "tdma", "--k", "1",
                            "--trials", "1", "--snr", "0:80:50"])
    assert [p["snr_db"] for p in doc["points"]] == [0.0, 50.0, 80.0]


@pytest.mark.parametrize("step", ["1e-320", "nan", "inf", "1e-6"])
def test_rate_sim_refuses_a_bad_step_up_front(capsys, monkeypatch, step):
    # a step that overflows the point count, is not finite, or asks for
    # 80,000,001 points is a usage error, refused before any grid list or
    # trace is built
    def unreachable(*args):
        raise AssertionError("built past the refusal")

    monkeypatch.setattr(cli, "snr_grid", unreachable)
    monkeypatch.setattr(cli, "tdma_trace", unreachable)
    code, out, err = run_cli(capsys, ["rate-sim", "--scheme", "tdma", "--k", "1",
                                      "--snr", f"0:80:{step}"])
    assert code == 2 and out == ""
    assert "--snr" in err and "8001 points" in err


def test_region_check_corner(capsys):
    doc = run_json(capsys, ["region-check", "--point", "2/3,2/3"])
    assert doc["in_region"] is True
    assert sorted(map(tuple, doc["tight_permutations"])) == [(1, 2), (2, 1)]
    assert doc["decomposition"] == [{"support": [1, 2], "weight": "1/1"}]


def test_region_check_outside(capsys):
    doc = run_json(capsys, ["region-check", "--point", "1,1/2"])
    assert doc["in_region"] is False
    assert doc["decomposition"] is None
    # the point is outside, yet the ordering that lists receiver 2 first
    # is saturated: 1/2 + (1/2) * 1 = 1
    assert doc["tight_permutations"] == [[2, 1]]


def test_region_check_refuses_too_many_tight_orderings(capsys, tmp_path):
    # the symmetric corner of 12 receivers has 12! tight orderings; the
    # refusal comes before the search, so the call returns at once, and
    # before the first byte is written, so no output file is made
    corner = ",".join(["27720/86021"] * 12)  # 1 / H_12
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["region-check", "--point", corner])
    assert code == 2 and "362880" in err and out == ""
    assert time.perf_counter() - start < 1.0
    path = tmp_path / "region.json"
    code, out, err = run_cli(capsys, ["region-check", "--point", corner,
                                      "--out", str(path)])
    assert code == 2 and "362880" in err and not path.exists()
    # an interior point has no tight ordering, however many ties it has
    doc = run_json(capsys, ["region-check", "--point",
                            ",".join(["1/100"] * 12)])
    assert doc["in_region"] is True and doc["tight_permutations"] == []


@pytest.mark.parametrize("argv", [
    ["identity-check"], ["dof-table"], ["dof-table", "--m", "2"],
    ["dof-table", "--j", "1"]])
def test_sweeps_refuse_a_k_they_cannot_finish(capsys, tmp_path, argv):
    # identity-check and a dof-table sweep take --k at most MAX_SWEEP_K,
    # as their help says; a larger one is refused before any case is
    # built, so the call returns at once, and no output file is made
    k = str(cli.MAX_SWEEP_K + 1)
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert f"at most {cli.MAX_SWEEP_K}" in " ".join(capsys.readouterr().out.split())
    start = time.perf_counter()
    code, out, err = run_cli(capsys, [*argv, "--k", "100000000"])
    assert code == 2 and f"at most {cli.MAX_SWEEP_K}" in err and out == ""
    assert time.perf_counter() - start < 1.0
    path = tmp_path / "sweep.json"
    code, out, err = run_cli(capsys, [*argv, "--k", k, "--out", str(path)])
    assert code == 2 and f"got {k}" in err and not path.exists()


def test_region_check_csv(capsys):
    code, out, err = run_cli(
        capsys, ["region-check", "--point", "6/11,6/11,6/11",
                 "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["point", "in_region", "tight_count", "decomposable",
                       "seed"]
    assert rows[1][:4] == ["6/11;6/11;6/11", "true", "6", "true"]


def test_region_check_k_mismatch(capsys):
    code, out, err = run_cli(capsys, ["region-check", "--point", "1/2,1/2",
                                      "--k", "3"])
    assert code == 2 and "does not match" in err


def test_region_check_negative_coordinate(capsys):
    # the '=' form keeps argparse from eating the leading dash
    code, out, err = run_cli(capsys, ["region-check", "--point=-1/2,1/2"])
    assert code == 2 and "error:" in err


def test_region_check_zero_denominator(capsys):
    # a usage error with exit 2, not a traceback
    code, out, err = run_cli(capsys, ["region-check", "--point", "1/0,1/2"])
    assert code == 2 and out == ""
    assert "error:" in err and "zero denominator" in err


#: tracemalloc peak of ``region-check`` at the symmetric corner of 8
#: receivers (8! tight orderings) written to a file, after a warm-up call:
#: 389,404 bytes when each ordering is written as the search yields it,
#: against 16,853,127 when the orderings and their rendered rows were
#: listed first and 20,656,435 when ``canonical_json`` re-indented the
#: orderings' compact text (Python 3.11.7, x86-64).  It may not need more
#: than 5% above its value, which may be lowered, never raised.
REGION_CHECK_PEAK_BYTES = 389_404


def test_region_check_peak_memory_is_bounded(tmp_path):
    path = str(tmp_path / "region.json")
    corner = ",".join(["280/761"] * 8)  # 1 / H_8
    assert main(["region-check", "--point", "2/3,2/3", "--out", path]) == 0
    tracemalloc.start()
    try:
        code = main(["region-check", "--point", corner, "--out", path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= REGION_CHECK_PEAK_BYTES * 1.05, peak


#: tracemalloc peak of ``scheme-run`` of square-5 at seed 1 written to a
#: file (a 1,351,227-byte ``v3`` document), after a warm-up call:
#: 5,146,437 bytes, against 5,891,966 with the 3,039,073-byte ``v2``
#: document, both when the decode check holds one receiver's rows at a
#: time and the document is written a piece at a time, and 9,796,813 when
#: the check derived every receiver's rows at once and the document was
#: rendered whole (Python 3.11.7, numpy 2.4.6, x86-64).  It may not need
#: more than 5% above its value, which may be lowered, never raised.
SCHEME_RUN_PEAK_BYTES = 5_146_437


def test_scheme_run_peak_memory_is_bounded(tmp_path):
    path = str(tmp_path / "square5.json")
    argv = ["scheme-run", "--scheme", "square", "--k", "5", "--seed", "1",
            "--out", path]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= SCHEME_RUN_PEAK_BYTES * 1.05, peak


def _boundary(values):
    """``values`` scaled onto the region's boundary: the ordering that
    weights the largest coordinate most is saturated."""
    ranked = sorted(map(Fraction, values), reverse=True)
    scale = 1 / sum(d / i for i, d in enumerate(ranked, start=1))
    return [Fraction(v) * scale for v in values]


@st.composite
def _region_points(draw):
    # tie groups of up to 10 receivers in all, with at most 7! tight
    # orderings, on the boundary, scaled inside or outside it, or with one
    # coordinate raised off it
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5).filter(
        lambda g: sum(g) <= 10 and math.prod(map(math.factorial, g)) <= 5040))
    values = draw(st.lists(st.integers(1, 40), min_size=len(sizes),
                           max_size=len(sizes), unique=True))
    point = _boundary(draw(st.permutations(
        [v for v, size in zip(values, sizes) for _ in range(size)])))
    how = draw(st.sampled_from(("boundary", "inside", "outside", "raised")))
    if how == "inside":
        return [d * Fraction(9, 10) for d in point]
    if how == "outside":
        return [d * Fraction(11, 10) for d in point]
    if how == "raised":
        point[draw(st.integers(0, len(point) - 1))] += Fraction(1, 7)
    return point


@given(_region_points())
@example([Fraction(1)])  # k = 1: on the boundary, inside, outside
@example([Fraction(1, 2)])
@example([Fraction(2)])
@example(_boundary([3, 3, 3, 2, 2, 2, 1, 1, 1, 1]))  # two-digit receiver ids
@example([Fraction(1, 100)] * 10)  # interior: no tight ordering
@example([Fraction(1), Fraction(1, 2)])  # outside, one saturated ordering
@settings(max_examples=60, deadline=None)
def test_region_check_json_matches_stdlib(point):
    # the orderings, written from a row template and spliced into the
    # document, are json.dumps(doc, sort_keys=True, indent=2) byte for byte
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["region-check", "--point", ",".join(map(str, point))])
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc["tight_permutations"] == [list(p) for p in tight_permutations(point)]
    same = out.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert same  # not ==: pytest's diff of two long documents takes minutes


def test_identity_check(capsys):
    doc = run_json(capsys, ["identity-check", "--k", "10"])
    assert doc["pass"] is True
    assert doc["identity_cases"] == 55
    assert doc["identity_failures"] == []
    assert doc["hockey_cases"] == 861
    assert doc["hockey_failures"] == []


def test_identity_check_csv(capsys):
    code, out, err = run_cli(capsys, ["identity-check", "--k", "5",
                                      "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][:5] == ["15", "0", "861", "0", "true"]


def test_identity_check_reports_each_failure(capsys, monkeypatch):
    # one case of each identity made unequal: the command exits 1 and lists
    # both, with their sides as p/q strings
    real_identity, real_hockey = cli.identity_check, cli.hockey_stick

    def identity(k, j):
        lhs, rhs = real_identity(k, j)
        return (lhs, rhs + Fraction(1, 2)) if (k, j) == (3, 2) else (lhs, rhs)

    def hockey(p, q):
        lhs, rhs = real_hockey(p, q)
        return (lhs + 1, rhs) if (p, q) == (1, 4) else (lhs, rhs)

    monkeypatch.setattr(cli, "identity_check", identity)
    monkeypatch.setattr(cli, "hockey_stick", hockey)
    code, out, err = run_cli(capsys, ["identity-check", "--k", "4"])
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["pass"] is False
    assert (doc["identity_cases"], doc["hockey_cases"]) == (10, 861)
    assert doc["identity_failures"] == [
        {"k": 3, "j": 2, "lhs": "5/6", "rhs": "4/3"}]
    assert doc["hockey_failures"] == [
        {"p": 1, "q": 4, "lhs": "11/1", "rhs": "10/1"}]
    code, out, err = run_cli(capsys, ["identity-check", "--k", "4",
                                      "--format", "csv"])
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][:5] == ["10", "1", "861", "1", "false"]


def test_seed_resolution(capsys, monkeypatch):
    doc = run_json(capsys, ["identity-check", "--k", "2"])
    assert doc["seed"] == cli.DEFAULT_SEED
    monkeypatch.setenv("DELAYEDCSIT_SEED", "999")
    doc = run_json(capsys, ["identity-check", "--k", "2"])
    assert doc["seed"] == 999
    # an explicit flag beats the environment
    doc = run_json(capsys, ["identity-check", "--k", "2", "--seed", "5"])
    assert doc["seed"] == 5
    monkeypatch.setenv("DELAYEDCSIT_SEED", "not-a-number")
    code, out, err = run_cli(capsys, ["identity-check", "--k", "2"])
    assert code == 2 and "DELAYEDCSIT_SEED" in err


def test_out_file_writes_instead_of_stdout(capsys, tmp_path):
    path = tmp_path / "table.json"
    code, out, err = run_cli(capsys, ["dof-table", "--k", "2",
                                      "--out", str(path)])
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["command"] == "dof-table"


def test_scheme_run_out_file_holds_the_stdout_bytes(capsys, tmp_path):
    argv = ["scheme-run", "--scheme", "order", "--m", "2", "--k", "3", "--j", "2"]
    _, out, _ = run_cli(capsys, argv)
    path = tmp_path / "trace.json"
    code, empty, _ = run_cli(capsys, argv + ["--out", str(path)])
    assert code == 0 and empty == ""
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("argv", [
    ["dof-table", "--k", "2"],
    ["scheme-run", "--scheme", "alt22"],
    ["identity-check", "--k", "2", "--format", "csv"],
])
def test_out_into_a_missing_directory_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, argv + ["--out", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not path.parent.exists()


def test_unknown_scheme_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scheme-run", "--scheme", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["dof-table", "--k", "3"],
    ["scheme-run", "--scheme", "square", "--k", "3", "--seed", "5"],
    ["scheme-run", "--scheme", "order", "--m", "2", "--k", "3", "--j", "2"],
    ["scheme-verify", "--scheme", "opt23", "--trials", "20"],
    ["rate-sim", "--scheme", "square", "--k", "2", "--trials", "10"],
    ["region-check", "--point", "6/11,6/11,6/11"],
    ["identity-check", "--k", "6"],
])
def test_json_output_is_the_stdlib_rendering(capsys, argv):
    # every command's JSON is json.dumps(doc, sort_keys=True, indent=2)
    # of its own document, byte for byte; the scheme-run trace, schema v3,
    # is the compact rendering with sorted keys, as orjson writes it when
    # every string is ASCII
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    doc = json.loads(out)
    if doc["schema"] == "v3":
        assert out == orjson.dumps(doc, option=orjson.OPT_SORT_KEYS).decode() + "\n"
    else:
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

