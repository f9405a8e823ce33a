import hashlib
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospd import cli, make_alphabet, osptab
from ospd.character import contents_up_to, enumerate_recording

from faults import FAULTS


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "ospd.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_enumerate_spin_d4():
    code, out, _ = run_cli("enumerate", "--family", "classical", "-m", "4",
                           "-n", "0", "--lambda", "0", "--ell", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 8
    for line in lines:
        json.loads(line)


def test_enumerate_super_deterministic():
    args = ("enumerate", "--family", "super", "-m", "2", "-n", "1",
            "--lambda", "1,1", "--ell", "2", "--max-boxes", "6")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("\n") > 0


def test_enumerate_super_missing_bound_is_usage_error():
    code, _, err = run_cli("enumerate", "--family", "super", "-m", "2",
                           "-n", "1", "--lambda", "1,1", "--ell", "2")
    assert code == 2
    assert "max-boxes" in err


def test_invalid_plan_is_usage_error():
    code, _, err = run_cli("enumerate", "--family", "classical", "-m", "3",
                           "-n", "0", "--lambda", "2,2", "--ell", "3")
    assert code == 2


def test_graph_dot_spin_crystal():
    code, out, _ = run_cli("graph", "--family", "classical", "-m", "4",
                           "-n", "0", "--lambda", "0", "--ell", "1",
                           "--format", "dot")
    assert code == 0
    assert out.count("doublecircle") == 1
    assert sum(1 for l in out.splitlines() if "->" in l) > 0


def test_graph_json_roundtrip():
    code, out, _ = run_cli("graph", "--family", "classical", "-m", "3",
                           "-n", "0", "--lambda", "1", "--ell", "1")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["vertices"]) == 4  # the other spin module of rank 3
    assert {"src", "color", "dst"} == set(blob["edges"][0])


def test_graph_super_records_truncation():
    code, out, _ = run_cli("graph", "--family", "super", "-m", "2", "-n", "2",
                           "--lambda", "0", "--ell", "1", "--max-boxes", "4")
    assert code == 0
    blob = json.loads(out)
    assert blob["truncated"]
    assert {"src", "color"} == set(blob["truncated"][0])


def test_char_two_terms():
    code, out, _ = run_cli("char", "--family", "classical", "-m", "2",
                           "-n", "0", "--lambda", "0", "--ell", "1")
    assert code == 0
    terms = json.loads(out)
    assert len(terms) == 2 and all(t["z"] == 1 for t in terms)


def test_kcoef_alphabet_independent():
    out = {}
    for m in ("8", "9"):
        code, text, _ = run_cli("kcoef", "--family", "classical", "-m", m,
                                "-n", "0", "--lambda", "2", "--ell", "2",
                                "--max-boxes", "8")
        assert code == 0
        out[m] = text
    assert out["8"] == out["9"]


# SHA-256 of four kcoef streams, taken from the shape-first computation of
# the K-set that tested every recording tableau of each shape, so that a
# change to how the K-set is built cannot alter a table silently.
KCOEF_STREAMS = [
    ("--family classical -m 8 -n 0 --lambda 2 --ell 2 --max-boxes 8",
     "f4ce9a3df9ae77a9cd33a9ebfa9b3fb2d8b3f45904ba3c9dade331ad19b7438a"),
    ("--family classical -m 4 -n 0 --lambda 2,2 --ell 4",
     "5e0fbadd7e0dd7f5d39f7a2f98007804ed8db68d341e92bb401b6786e953d072"),
    ("--family super -m 2 -n 2 --lambda 1,1 --ell 2 --max-boxes 8",
     "4acb021dcdc09203144f63ecce720f83e17552944d973ae95b55ff84b02c449d"),
    ("--family classical -m 5 -n 0 --lambda 2,1 --ell 3",
     "66f30939169b20c10fc7c4d7511e9d57bec9d7a609fdcfbabbe82cbab6cd4068"),
]


# SHA-256 and line count of five enumerate streams, taken before the
# enumeration looked splits up in per-call tables; together they cover the
# pair-pair, pair-bar and pair-spin relations.
ENUMERATE_STREAMS = [
    ("--family classical -m 5 -n 0 --lambda 2,2 --ell 4",
     "24a730cd46ac7ecc79937a280d79817d8c0cbe7790004203bea508d62d92ff71", 4125),
    ("--family classical -m 4 -n 0 --lambda 3 --ell 4",
     "77466207c22309438b1d7832a3295a0bed03dd74f6a06f135b906341b0365c23", 672),
    ("--family classical -m 5 -n 0 --lambda 2 --ell 3",
     "2a7f0958d5d292f7f3e4df796beeddecefa32f7e57a4ae42b0a9325b59512b41", 1440),
    ("--family super -m 2 -n 2 --lambda 3 --ell 4 --max-boxes 7",
     "9599c946c0ced7a0d244e1da0c5874e11a4c0c42f050ecbf8f060f95bcae61f4", 428),
    ("--family super -m 2 -n 1 --lambda 1,1 --ell 3 --max-boxes 7",
     "449dbeea1fe396e8c40f523272b73dbacac4b2cedb2c3887644d49b3d4137801", 48),
]


@pytest.mark.parametrize("args,digest,lines", ENUMERATE_STREAMS,
                         ids=["D5-22-4", "D4-3-4", "D5-2-3", "super22-3-4",
                              "super21-11-3"])
def test_enumerate_stream_is_pinned(args, digest, lines):
    code, out, _ = run_cli("enumerate", *args.split())
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,digest", KCOEF_STREAMS,
                         ids=["D8-2", "D4-22", "super22-11", "D5-21"])
def test_kcoef_stream_is_pinned(args, digest):
    code, out, _ = run_cli("kcoef", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the graph streams of the README example and of the truncating
# super plan, in both formats, taken while explore still rebuilt every image
# and looked it up as a tableau, so that indexing vertices by their matrix
# columns cannot alter an edge, a source or a truncated edge silently.
GRAPH_STREAMS = [
    ("--family classical -m 4 -n 0 --lambda 1,1 --ell 2 --format json",
     "5ef92f8c5ebb01be9b52f7456397a45e333ad4fb1039a3e6af06af20a1d39284"),
    ("--family classical -m 4 -n 0 --lambda 1,1 --ell 2 --format dot",
     "40c32f6a22b439c8616f369a23027d6a759dd822289553d56dabd955a02f8938"),
    ("--family super -m 2 -n 2 --lambda 0 --ell 1 --max-boxes 4 --format json",
     "83c2e12ee1e09272b1c23eb9afcced40311521b564a267eb223153fd2e30363b"),
    ("--family super -m 2 -n 2 --lambda 0 --ell 1 --max-boxes 4 --format dot",
     "d975cc814daf4e6724fbe4e2cd441e42b71d9544f6e76c93dff3231dd871f8f9"),
]


@pytest.mark.parametrize("args,digest", GRAPH_STREAMS,
                         ids=["D4-11-2-json", "D4-11-2-dot", "super22-0-1-json",
                              "super22-0-1-dot"])
def test_graph_stream_is_pinned(args, digest):
    code, out, _ = run_cli("graph", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of char streams, taken while enumeration still tested every pair of
# components and the character rebuilt every tableau's letters, so that
# grouping left members and weighing each component once cannot alter a
# coefficient silently: the README plan, a super pair-bar plan, and a
# classical and a super pair-spin plan.
CHAR_STREAMS = [
    ("--family classical -m 4 -n 0 --lambda 1,1 --ell 2",
     "29135f2497ace8c1b8505b9e35c3ac67228d692aa210c614efbc313902b3413d"),
    ("--family super -m 2 -n 2 --lambda 3 --ell 4 --max-boxes 7",
     "89a1ab3e693af70e6e2228ec1d637a6fa284d208de13f43a9eee70ae91d4de25"),
    ("--family classical -m 5 -n 0 --lambda 2 --ell 3",
     "579dff2e7131a26b22649d09066a289d3d3fb712333a4d469ecd985c0e760249"),
    ("--family super -m 2 -n 1 --lambda 1,1 --ell 3 --max-boxes 7",
     "83136a20c78b203147811c505927dbccd1c1f77d01533eabf68764bd6974cc27"),
]


@pytest.mark.parametrize("args,digest", CHAR_STREAMS,
                         ids=["D4-11-2", "super22-3-4", "D5-2-3",
                              "super21-11-3"])
def test_char_stream_is_pinned(args, digest):
    code, out, _ = run_cli("char", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dims():
    code, out, _ = run_cli("dims", "--family", "classical", "-m", "4", "-n", "0",
                           "--lambda", "0", "--ell", "1")
    assert code == 0 and out.strip() == "8"


PLAN = ("--family", "super", "-m", "2", "-n", "2", "--lambda", "1,1",
        "--ell", "2")
MISSING = "<missing directory>"  # replaced by one under tmp_path


@pytest.mark.parametrize("args, message", [
    (("enumerate", *PLAN, "--max-boxes", "-1"), "non-negative"),
    (("graph", *PLAN, "--max-boxes", "-1"), "non-negative"),
    (("char", *PLAN, "--max-boxes", "-1"), "non-negative"),
    (("kcoef", *PLAN, "--max-boxes", "-3"), "non-negative"),
    (("dims", "--family", "super", "-m", "2", "-n", "2", "--lambda", "1",
      "--ell", "1"), "Weyl dimension"),
    (("dims", "--family", "classical", "-m", "4", "--max-boxes", "3"),
     "unrecognized arguments"),
    (("verify", "--mutate", "no-such-fault"), "unrecognized arguments"),
    (("verify", "--jobs", "2"), "unrecognized arguments"),
    (("verify", "--family", "super"), "unrecognized arguments"),
    (("dims", "--family", "classical", "-m", "4", "--lambda", "0", "--ell",
      "1", "-o", MISSING + "/x"), "cannot write"),
    (("kcoef", "--family", "classical", "-m", "8", "-n", "0", "--lambda", "0",
      "--ell", "8"), "lower --max-boxes"),
    (("enumerate", "-m", "8", "--lambda", "0", "--ell", "8"),
     "give --max-boxes"),
    (("graph", "-m", "8", "--lambda", "0", "--ell", "8"), "give --max-boxes"),
    (("char", "-m", "8", "--lambda", "0", "--ell", "8"), "give --max-boxes"),
    (("enumerate", *PLAN, "--max-boxes", "1"), "needs at least 2 boxes"),
    (("graph", *PLAN, "--max-boxes", "1"), "needs at least 2 boxes"),
    (("char", *PLAN, "--max-boxes", "1"), "needs at least 2 boxes"),
    (("kcoef", *PLAN, "--max-boxes", "1"), "needs at least 2 boxes"),
    (("dims", "-m", "3", "--lambda", "0,1", "--ell", "2"),
     "lambda must be a partition"),
    (("dims", "-m", "3", "--lambda", "1,0,1", "--ell", "2"),
     "lambda must be a partition"),
    (("enumerate", "-m", "4", "--lambda", "0", "--ell", "2000",
      "--max-boxes", "3"), "more than 500"),
    (("graph", "-m", "4", "--lambda", "0", "--ell", "2000",
      "--max-boxes", "3"), "more than 500"),
    (("char", "-m", "4", "--lambda", "0", "--ell", "2000",
      "--max-boxes", "3"), "more than 500"),
    (("enumerate", "-m", "1000", "--lambda", "0", "--ell", "1"),
     "rank 1000 is above 100"),
    (("dims", "-m", "400"), "rank 400 is above 100"),
    (("enumerate", "-m", "100", "--lambda", "0", "--ell", "1",
      "--max-boxes", "6"), "lower --max-boxes"),
    (("graph", "-m", "40", "--lambda", "0", "--ell", "1", "--max-boxes", "4"),
     "102091 columns"),
    (("char", "--family", "super", "-m", "2", "-n", "30", "--lambda", "0",
      "--ell", "1", "--max-boxes", "6"), "lower --max-boxes"),
    (("dims", "-m", "1"), "m must be at least 2"),
])
def test_usage_errors_exit_2(args, message, tmp_path):
    missing = str(tmp_path / "missing")
    code, out, err = run_cli(*(a.replace(MISSING, missing) for a in args))
    assert code == 2 and out == ""
    assert message in err


def test_kcoef_refuses_a_walk_of_minutes_at_once():
    # 135,751 contents of at most 40 boxes: a walk of minutes
    start = time.perf_counter()
    code, out, err = run_cli("kcoef", "-m", "10", "--lambda", "2,2",
                             "--ell", "4")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "lower --max-boxes" in err


def test_kcoef_cells_count_the_tableaux_walked():
    for ell in range(1, 5):
        for bound in range(9):
            walked = sum(len(enumerate_recording(content))
                         for content in contents_up_to(bound, ell))
            assert cli._kcoef_cells(bound, ell) == bound * walked
    # the sum stops once it passes the cap: the full one is over 10**90
    assert cli.KCOEF_MAX_CELLS < cli._kcoef_cells(10 ** 9, 4) < 10 ** 50


def test_output_file_gets_the_stdout_bytes(tmp_path):
    args = [sys.executable, "-m", "ospd.cli", "enumerate", *PLAN,
            "--max-boxes", "5"]
    shown = subprocess.run(args, capture_output=True)
    path = tmp_path / "out.jsonl"
    written = subprocess.run(args + ["--output", str(path)],
                             capture_output=True)
    assert shown.returncode == written.returncode == 0
    assert written.stdout == b"" and shown.stdout
    assert path.read_bytes() == shown.stdout


def test_trailing_zero_parts_are_dropped():
    plan = ("enumerate", "-m", "3", "--ell", "2", "--lambda")
    code, out, _ = run_cli(*plan, "1")
    assert code == 0 and out
    assert run_cli(*plan, "1,0") == (code, out, "")


@settings(max_examples=200, deadline=None)
@given(st.text() | st.text(alphabet="0123456789,- +_"))
def test_any_lambda_text_exits_0_or_2(text):
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            code = cli.main(["dims", "-m", "4", "--lambda", text, "--ell", "2"])
        except SystemExit as exc:  # argparse exits 2 on a text like "-x"
            code = exc.code
    assert code in (0, 2)


@pytest.mark.slow
def test_verify_default_battery_and_seed_reproducibility(tmp_path):
    code1, out1, err1 = run_cli("verify", "--seed", "7")
    assert code1 == 0, err1
    report = json.loads(out1)
    assert report["ok"] and report["seed"] == 7
    code2, out2, _ = run_cli("verify", "--seed", "7")
    assert out2 == out1
    # the split clauses are swept, so their counts do not depend on the seed
    code3, out3, _ = run_cli("verify", "--seed", "8")
    for out in (out1, out3):
        lemma = [c for c in json.loads(out)["checks"]
                 if c["name"] == "split-lemma-suites"][0]["detail"]
        assert (lemma["classical"]["split"], lemma["super"]["split"]) == \
            (2396, 6800)


@pytest.fixture(scope="module")
def faulted_verify():
    """One in-process ``verify`` run under the fault table's clause (i) row:
    its exit code, its report, and whether the run rebound any name of
    ``osptab`` itself (it must not: the fault lives in the test)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        FAULTS["height-clause-strict"].apply(monkeypatch)
        before = dict(vars(osptab))
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = cli.main(["verify"])
        rebound = {k for k, v in vars(osptab).items() if before.get(k) is not v}
    return code, json.loads(out.getvalue()), rebound


def test_verify_mutation_fails_with_named_check(faulted_verify):
    code, report, _ = faulted_verify
    assert code == 1
    failing = [c["name"] for c in report["checks"] if not c["ok"]]
    # the pair-spin plans test admissibility inside an enumeration, and the
    # admissibility suite stops at its first failure
    assert {"classical-crystal-D3-(1,)-3", "classical-crystal-D3-(2,)-3",
            "split-lemma-suites"} <= set(failing)


def test_verify_mutation_does_not_outlive_the_battery(faulted_verify):
    # the worked example T < S2 of the battery, which the fault breaks
    _, report, rebound = faulted_verify
    assert rebound == set()
    assert "worked-examples" in [c["name"] for c in report["checks"]
                                 if not c["ok"]]
    A = make_alphabet("super", 4, 6)
    L = lambda *names: tuple(A.parse(s) for s in names)
    T = osptab.classify_pair(L("b4", "b1", "1/2", "3/2", "3/2"),
                             L("b3", "b2", "3/2", "5/2"), 3)
    S2 = osptab.classify_pair(L("b3", "b2", "b1", "1/2", "3/2", "5/2", "7/2"),
                              L("b2", "b1", "1/2", "3/2", "7/2", "9/2"), 1)
    assert osptab.is_admissible(T, S2)
    assert cli._run_check("worked-examples", cli._check_worked_examples)["ok"]
