"""Operator surface: subcommands, exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys

import pytest

import rhomax
from rhomax import cli
from rhomax import compare as cp


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

    def test_refine_budget_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["certify", "--e", "5", "--refine-budget", "8",
                      "--out", str(tmp_path)])


class TestTable:
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


class TestConfigPrecedence:
    def test_env_overrides_file_flag_overrides_env(self, tmp_path, capsys,
                                                   monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        monkeypatch.setenv("RHOMAX_FORMAT", "csv")
        # env wins over file
        _, out, _ = run(["--config", str(cfg), "table", "--e", "4"], capsys)
        assert out.startswith("e,k,t,b")
        # flag wins over env
        _, out, _ = run(["--config", str(cfg), "table", "--e", "4",
                         "--format", "json"], capsys)
        assert out.lstrip().startswith("[")


class TestOracleCmd:
    def test_rho(self, capsys):
        code, out, _ = run(["oracle", "rho", "--n", "6", "--e", "4",
                            "--family", "V"], capsys)
        assert code == 0
        assert abs(json.loads(out)["rho"] - 3.372281) < 1e-5


class TestSelfcheck:
    def test_passes(self, capsys):
        code, out, _ = run(["selfcheck", "--skip-oracle"], capsys)
        assert code == 0
        assert "all suites passed" in out

    def test_passes_under_optimize(self):
        src = os.path.dirname(os.path.dirname(rhomax.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run(
            [sys.executable, "-O", "-m", "rhomax.cli", "selfcheck", "--skip-oracle"],
            env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "all suites passed" in res.stdout

    def test_broken_invariant_fails(self, capsys, monkeypatch):
        omega = cp.omega_value(10)
        monkeypatch.setattr(cp, "omega_value",
                            lambda e: cp.OmegaValue(e, omega.psi, omega.exact + 1))
        code, out, _ = run(["selfcheck", "--skip-oracle"], capsys)
        assert code == 2
        assert "[FAIL] compare" in out and "all suites passed" not in out
