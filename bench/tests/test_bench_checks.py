import json

from bench import run, workloads


class Flaky:
    """A workload whose second pass fails one of its two checks."""

    name = "flaky"
    seeded = False

    def __init__(self, ospd, seed):
        pass

    def job(self, index):
        return index

    def items(self, out):
        return 1

    def digest(self, out):
        return "same"

    def check(self, out):
        return [("always", True), ("not pass 1", out != 1)], {}


def test_fail_frac_counts_a_failed_check():
    checks = run.Checks()
    walls, _, _, _ = run.measure(Flaky(None, 0), 0.0, checks)
    # three passes, each with two checks and the same-digest check
    assert len(walls) == run.MIN_PASSES
    assert (checks.failed, checks.attempted) == (1, 9)


def test_failed_check_makes_the_run_fail(monkeypatch, capsys, keep_ospd_modules):
    monkeypatch.setitem(workloads.WORKLOADS, "flaky", Flaky)
    code = run.main(["--workload", "flaky", "--seconds", "0.01"])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code == 1
    assert result["correct"] is False
    assert (result["failed"], result["attempted"]) == (1, 9)
    assert any(line.startswith("fail_frac") and "(1 of 9 checks)" in line
               for line in out)


def test_hook_content_count_matches_direct_count():
    # counted by hand: shape (2, 1) over 3 letters has 8 fillings, (2, 2)
    # over 2 letters 1, (3, 1) over 2 letters 3
    assert workloads.ssyt_count((2, 1), 3) == 8
    assert workloads.ssyt_count((2, 2), 2) == 1
    assert workloads.ssyt_count((3, 1), 2) == 3
    assert workloads.conjugate((3, 1)) == (2, 1, 1)
