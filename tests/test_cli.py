"""Operator surface: subcommands, exit codes, artifacts, determinism."""

import fcntl
import hashlib
import json
import os
import subprocess
import sys

import pytest

import rhomax
from rhomax import certify as ct
from rhomax import cli
from rhomax import compare as cp
from rhomax.errors import VerificationFailed


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParams:
    def test_basic(self, capsys):
        code, out, _ = run(["params", "10"], capsys)
        assert code == 0
        assert json.loads(out) == {"e": 10, "k": 5, "t": 0, "b": 6}


class TestBuild:
    def test_d(self, capsys):
        code, out, _ = run(["build", "D", "--n", "5", "--e", "4"], capsys)
        assert code == 0
        data = json.loads(out)
        assert sorted(data["degree_sequence"], reverse=True) == [4, 4, 3, 3, 2]
        assert data["size"] == 8

    def test_v_too_small_is_operational_error(self, capsys):
        code, _, err = run(["build", "V", "--n", "5", "--e", "4"], capsys)
        assert code == 1
        assert "error" in err

    def test_tsub_without_steps_is_operational_error(self, capsys):
        code, _, err = run(["build", "tsub", "--n", "6"], capsys)
        assert code == 1
        assert "requires --steps" in err


class TestEnumerate:
    def test_star(self, capsys):
        code, out, _ = run(["enumerate", "--e", "7", "--star"], capsys)
        assert code == 0
        assert [json.loads(x) for x in out.splitlines()] == \
            [[6, 1], [5, 2], [4, 3]]

    def test_count(self, capsys):
        code, out, _ = run(["enumerate", "--e", "12", "--count"], capsys)
        assert code == 0 and out.strip() == "15"

    def test_resume(self, capsys):
        code, out, _ = run(["enumerate", "--e", "7", "--resume-after", "5,2"],
                           capsys)
        assert [json.loads(x) for x in out.splitlines()] == [[4, 3], [4, 2, 1]]

    @pytest.mark.parametrize("cursor", ["9,9", "5,2,0", "4,2"])
    def test_cursor_of_another_e_rejected(self, cursor, capsys):
        code, out, err = run(["enumerate", "--e", "7", "--resume-after", cursor],
                             capsys)
        assert code == 1
        assert out == ""
        assert "not a step sequence of e=7" in err


class TestCertify:
    def test_small_range(self, tmp_path, capsys):
        out_dir = str(tmp_path / "certs")
        code, out, _ = run(["certify", "--e", "4..8", "--out", out_dir], capsys)
        assert code == 0
        assert "S* empty" in out            # e=4
        assert "covered by closed form" in out  # e=6
        index = json.loads(open(os.path.join(out_dir, "index.json")).read())
        assert index["all_pass"]
        by_e = {x["e"]: x for x in index["entries"]}
        assert by_e[4]["status"] == "pass" and by_e[4]["count"] == 0
        assert by_e[4]["expected"] == 0
        assert by_e[6]["status"] == "covered_by_closed_form"
        assert by_e[8]["count"] == 4 and by_e[8]["expected"] == 4
        certs = json.loads(
            open(os.path.join(out_dir, by_e[8]["file"])).read())
        assert certs["count"] == 4
        for c in certs["certificates"]:
            assert set(c) == {"e", "steps", "d_branch", "v_branch", "n_U",
                              "n_L", "coverage", "wall_ms"}

    def test_determinism_across_jobs(self, tmp_path, capsys):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(["certify", "--e", "12", "--out", d1], capsys)[0] == 0
        assert run(["certify", "--e", "12", "--jobs", "3", "--out", d2],
                   capsys)[0] == 0
        f = "certs_e012.json"
        assert open(os.path.join(d1, f), "rb").read() == \
            open(os.path.join(d2, f), "rb").read()

    def test_resume_matches_full_run(self, tmp_path, capsys):
        full_dir = str(tmp_path / "full")
        run(["certify", "--e", "13", "--out", full_dir], capsys)
        full = json.loads(open(os.path.join(full_dir, "certs_e013.json")).read())
        mid = full["certificates"][7]["steps"]
        part_dir = str(tmp_path / "part")
        run(["certify", "--e", "13", "--out", part_dir,
             "--resume-after", ",".join(map(str, mid))], capsys)
        part = json.loads(open(os.path.join(part_dir, "certs_e013.json")).read())
        assert part["certificates"] == full["certificates"][8:]
        # the resumed tail is recorded as partial, never as a full pass
        full_index = json.loads(open(os.path.join(full_dir, "index.json")).read())
        part_index = json.loads(open(os.path.join(part_dir, "index.json")).read())
        assert full_index["all_pass"] and not part_index["all_pass"]
        assert full_index["entries"][0]["status"] == "pass"
        entry = part_index["entries"][0]
        assert entry["status"] == "partial"
        assert entry["count"] == 8 and entry["expected"] == 16

    def test_resume_refuses_to_overwrite(self, tmp_path, capsys):
        out_dir = str(tmp_path / "d")
        assert run(["certify", "--e", "13", "--out", out_dir], capsys)[0] == 0
        names = ("certs_e013.json", "index.json")
        before = [open(os.path.join(out_dir, f), "rb").read() for f in names]
        code, _, err = run(["certify", "--e", "13", "--out", out_dir,
                            "--resume-after", "9,4"], capsys)
        assert code == 1
        assert "certs_e013.json" in err
        assert [open(os.path.join(out_dir, f), "rb").read()
                for f in names] == before

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("cursor", ["6,1", "5,5,3"])
    def test_cursor_of_another_e_rejected(self, tmp_path, capsys, cursor, jobs):
        out_dir = tmp_path / "d"
        code, out, err = run(["certify", "--e", "13", "--out", str(out_dir),
                              "--jobs", jobs, "--resume-after", cursor], capsys)
        assert code == 1
        assert "not a step sequence of e=13" in err
        assert "certified" not in out
        assert not out_dir.exists()

    def test_cursor_cleared_after_failed_e(self, tmp_path, capsys, monkeypatch):
        certify_candidate = ct.certify_candidate

        def fail_at_7(e, steps):
            if e == 7:
                raise VerificationFailed(7, "injected")
            return certify_candidate(e, steps)

        monkeypatch.setattr(ct, "certify_candidate", fail_at_7)
        out_dir = str(tmp_path / "d")
        code, _, _ = run(["certify", "--e", "7..8", "--out", out_dir,
                          "--resume-after", "6,1"], capsys)
        assert code == 2
        index = json.loads(open(os.path.join(out_dir, "index.json")).read())
        by_e = {x["e"]: x for x in index["entries"]}
        assert by_e[7]["status"] == "fail"
        assert by_e[8]["status"] == "pass"
        assert by_e[8]["count"] == by_e[8]["expected"] == 4

    def test_refine_budget_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--e", "5", "--refine-budget", "8",
                      "--out", str(tmp_path)])
        assert exc.value.code == 1

    def test_timing_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--e", "5", "--timing",
                      "--out", str(tmp_path)])
        assert exc.value.code == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        out_dir = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--e", "5", "--jobs", jobs,
                      "--out", str(out_dir)])
        assert exc.value.code == 1
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_undecided_gap_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ct, "_no_integer_between", lambda lo, hi: False)
        code, _, err = run(["certify", "--e", "7", "--out", str(tmp_path)],
                           capsys)
        assert code == 2
        assert "FAILED at step 7" in err
        index = json.loads((tmp_path / "index.json").read_text())
        assert not index["all_pass"]
        [entry] = index["entries"]
        assert entry["status"] == "fail" and entry["step"] == 7

    @pytest.mark.parametrize("cursor", ["9,9", "6"])
    def test_resume_without_certified_e_rejected(self, tmp_path, capsys,
                                                 cursor):
        out_dir = tmp_path / "d"
        code, out, err = run(["certify", "--e", "6", "--out", str(out_dir),
                              "--resume-after", cursor], capsys)
        assert code == 1
        assert "no certified e" in err
        assert out == ""
        assert not out_dir.exists()


class TestUsage:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    def test_unknown_flag_exits_one(self):
        src = os.path.dirname(os.path.dirname(rhomax.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run(
            [sys.executable, "-m", "rhomax.cli", "certify", "--bogus"],
            env=env, capture_output=True, text=True, timeout=60)
        assert res.returncode == 1, res.stdout + res.stderr
        assert "error:" in res.stderr

    @pytest.mark.parametrize("argv", [["enumerate", "--e", "40"],
                                      ["table", "--e", "4..130"]])
    def test_reader_leaving_early_exits_zero(self, argv):
        src = os.path.dirname(os.path.dirname(rhomax.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        # a one-page pipe holds less than the output, so the command is
        # still writing when the reader closes it after the first line
        r, w = os.pipe()
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen([sys.executable, "-m", "rhomax.cli", *argv],
                                stdout=w, stderr=subprocess.PIPE, env=env)
        os.close(w)
        line = b""
        while not line.endswith(b"\n"):
            byte = os.read(r, 1)
            assert byte, "output ended before the first newline"
            line += byte
        os.close(r)
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0, err
        assert err == b""


class TestTable:
    def test_places(self, capsys):
        code, out, _ = run(["table", "--e", "4..6", "--places", "2"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert [r["psi"] for r in rows] == ["5.09", "6.52", "9.00"]
        assert [r["omega"] for r in rows] == \
            ["[24.24, 24.24]", "[41.11, 41.12]", "80/1"]

    @pytest.mark.parametrize("places", ["0", "-1"])
    def test_places_below_one_is_usage_error(self, places, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--e", "4", "--places", places])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "--places: must be at least 1" in out.err

    def test_places_12_digest(self, capsys):
        code, out, _ = run(["table", "--e", "4..130", "--places", "12"],
                           capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c5bc2862b0daa878a61c16648dafb2d5cb0a998130ba742bd0005765a15a10df")

    def test_csv(self, capsys):
        code, out, _ = run(["table", "--e", "4..10", "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("e,k,t,b,psi")
        row10 = [l for l in lines if l.startswith("10,")][0]
        assert "60/1" in row10 and "8.000000000000" in row10

    def test_json_sorted_stable(self, capsys):
        _, out1, _ = run(["table", "--e", "4..8"], capsys)
        _, out2, _ = run(["table", "--e", "4..8"], capsys)
        assert out1 == out2
        rows = json.loads(out1)
        assert [r["e"] for r in rows] == list(range(4, 9))


class TestClassify:
    @pytest.mark.parametrize("n,e,verdict", [
        (60, 10, "Tie"), (25, 4, "V_unique"), (24, 4, "D_unique"),
        (5, 4, "D_unique")])
    def test_verdicts(self, n, e, verdict, capsys):
        code, out, _ = run(["classify", str(n), str(e)], capsys)
        assert code == 0
        assert out.splitlines()[0] == verdict

    def test_beyond_range(self, capsys):
        code, _, err = run(["classify", "200", "140"], capsys)
        assert code == 1
        code, out, _ = run(["classify", "200", "140", "--unsafe-extrapolate"],
                           capsys)
        assert code == 0 and "beyond the proven range" in out


class TestFlagsOnly:
    @pytest.mark.parametrize("argv", [
        ["--config", "x", "table", "--e", "4"],
        ["table", "--e", "4", "--config", "x"]])
    def test_config_is_an_unknown_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1

    def test_environment_sets_nothing(self, capsys, monkeypatch):
        monkeypatch.setenv("RHOMAX_FORMAT", "csv")
        code, out, _ = run(["table", "--e", "4"], capsys)
        assert code == 0
        assert [r["e"] for r in json.loads(out)] == [4]


class TestOracleCmd:
    def test_rho(self, capsys):
        code, out, _ = run(["oracle", "rho", "--n", "6", "--e", "4",
                            "--family", "V"], capsys)
        assert code == 0
        assert abs(json.loads(out)["rho"] - 3.372281) < 1e-5


class TestSelfcheck:
    def test_passes(self, capsys):
        code, out, _ = run(["selfcheck"], capsys)
        assert code == 0
        assert "all suites passed" in out

    def test_passes_under_optimize(self):
        src = os.path.dirname(os.path.dirname(rhomax.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run(
            [sys.executable, "-O", "-m", "rhomax.cli", "selfcheck"],
            env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "all suites passed" in res.stdout

    def test_broken_invariant_fails(self, capsys, monkeypatch):
        omega = cp.omega_value(10)
        monkeypatch.setattr(cp, "omega_value",
                            lambda e: cp.OmegaValue(e, omega.psi, omega.exact + 1))
        code, out, _ = run(["selfcheck"], capsys)
        assert code == 2
        assert "[FAIL] compare" in out and "all suites passed" not in out

    def test_broken_kernel_fails(self, capsys, monkeypatch):
        tsub_charpolys = ct.tsub_charpolys

        def wrong_cone(steps):
            p_t, p_t1 = tsub_charpolys(steps)
            return p_t, p_t1._replace(r=p_t1.r + 1)

        monkeypatch.setattr(ct, "tsub_charpolys", wrong_cone)
        code, out, _ = run(["selfcheck"], capsys)
        assert code == 2
        assert "[FAIL] kernel" in out and "all suites passed" not in out

    def test_broken_kernel_leaves_no_stale_crossover(self):
        # the broken kernel fills compare's per-e caches with a wrong
        # omega_6; run first in a fresh session, the tests after it must
        # not see that value
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(rhomax.__file__)))
        res = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             os.path.join(here, "test_cli.py")
             + "::TestSelfcheck::test_broken_kernel_fails",
             os.path.join(here, "test_compare.py") + "::TestBellF"],
            cwd=os.path.dirname(here), env=env, capture_output=True,
            text=True, timeout=300)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "4 passed" in res.stdout
