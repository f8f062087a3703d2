"""CLI subcommands: reports, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import spinscape
from spinscape.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def canon_report(report):
    """Report contents modulo the timestamp field."""
    r = dict(report)
    r.pop("timestamp", None)
    return json.dumps(r, sort_keys=True)


class TestBarrier:
    def test_2d_match(self, capsys):
        code, rep = run(
            capsys, "barrier", "--lattice", "3x4", "--boundary", "periodic", "--q", "2"
        )
        assert code == 0
        assert rep["schema_version"]
        assert rep["barrier"]["brute"] == 8
        assert rep["barrier"]["formula"] == 8
        assert rep["barrier"]["match"] is True

    def test_3d_formula_only(self, capsys):
        code, rep = run(
            capsys, "barrier", "--lattice", "3x4x5", "--boundary", "periodic", "--q", "2"
        )
        assert code == 0
        assert rep["barrier"]["formula"] == 32
        assert "brute_skipped" in rep  # 2^60 states refuse politely

    def test_open_small_k_flag(self, capsys):
        code, rep = run(
            capsys, "barrier", "--lattice", "2x2x3", "--boundary", "open", "--q", "2"
        )
        assert code == 0
        assert rep["barrier"]["formula"] == 7
        assert rep["barrier"]["brute"] == 6
        assert rep["barrier"]["match"] is False
        assert rep["barrier"]["note"] == "outside theorem hypothesis"
        assert rep["barrier"]["non_reproducible"]

    def test_determinism_modulo_timestamp(self, capsys):
        argv = ["barrier", "--lattice", "3x3", "--boundary", "periodic", "--q", "2"]
        _, r1 = run(capsys, *argv)
        _, r2 = run(capsys, *argv)
        assert canon_report(r1) == canon_report(r2)


class TestPaths:
    def test_canonical_generate_and_replay(self, capsys, tmp_path):
        out = str(tmp_path / "run")
        code = main([
            "paths", "--lattice", "3x3x4", "--boundary", "periodic", "--q", "2",
            "--kind", "canonical", "--out", out,
        ])
        capsys.readouterr()
        assert code == 0
        rep = json.load(open(out))
        assert rep["path"]["max_energy"] == 2 * 9 + 6 + 2
        code2, rep2 = run(capsys, "paths", "--replay", rep["ledger_file"])
        assert code2 == 0
        assert rep2["assertions"][0]["name"] == "replay_ledger_bit_exact"
        assert rep2["assertions"][0]["passed"]

    def test_escape(self, capsys):
        code, rep = run(
            capsys,
            "paths", "--lattice", "9x9x9", "--boundary", "periodic", "--q", "2",
            "--kind", "escape", "--escape-n", "2",
        )
        assert code == 0
        assert rep["path"]["max_energy"] == 172


class TestClassify:
    def test_ground(self, capsys):
        code, rep = run(
            capsys,
            "classify", "--lattice", "3x4x8", "--boundary", "periodic", "--q", "2",
            "--state-code", "0",
        )
        assert code == 0
        assert rep["classification"] == {"label": "ground", "spin": 1}

    def test_gateway_roundtrip(self, capsys):
        from spinscape.canon import FloorShape, TorusArc, build_canonical
        from spinscape.lattice import LatticeSpec

        spec = LatticeSpec(3, 5, 8, 2, "periodic")
        sigma = build_canonical(
            spec, 1, 2, TorusArc(8, 1, 2), TorusArc(8, 1, 3),
            FloorShape(kind="plus", a=1, b=2, l=1, v=2, k=1, h=1),
        )
        code, rep = run(
            capsys,
            "classify", "--lattice", "3x5x8", "--boundary", "periodic", "--q", "2",
            "--state-code", str(sigma.code),
        )
        assert code == 0
        assert rep["classification"]["label"] == "gateway"
        assert rep["classification"]["type"] == 2

    def test_regular(self, capsys):
        from spinscape.canon import TorusArc, build_regular
        from spinscape.lattice import LatticeSpec

        spec = LatticeSpec(3, 4, 8, 2, "periodic")
        sigma = build_regular(spec, 1, 2, TorusArc(8, 2, 3))
        code, rep = run(
            capsys,
            "classify", "--lattice", "3x4x8", "--boundary", "periodic", "--q", "2",
            "--state-code", str(sigma.code),
        )
        assert code == 0
        assert rep["classification"]["label"] == "regular"

    @pytest.mark.parametrize("state_code", ["-1", str(2**36)])
    def test_state_code_out_of_range(self, capsys, state_code):
        # 3x3x4 at q=2 has codes 0 .. 2**36 - 1
        with pytest.raises(SystemExit, match=r"^error: --state-code must lie in \[0, 68719476736\)"):
            main(["classify", "--lattice", "3x3x4", "--boundary", "periodic", "--q", "2",
                  "--state-code", state_code])
        assert capsys.readouterr().out == ""


class TestSimulate:
    def test_smoke_runs_deterministic(self, capsys, tmp_path):
        out = str(tmp_path / "sim")
        argv = [
            "simulate", "--lattice", "2x2x3", "--boundary", "open", "--q", "2",
            "--beta", "2", "--seed", "5", "--n-samples", "60", "--out", out,
        ]
        code, rep = None, None
        code = main(argv)
        capsys.readouterr()
        assert code == 0
        csv_lines_1 = open(out + ".csv").read()
        assert csv_lines_1.splitlines()[0] == (
            "seed,beta,lattice,hitting_time_continuous_units,steps_count"
        )
        assert len(csv_lines_1.splitlines()) == 61
        # the summary counts the embedded jumps against the step budget
        summary = json.load(open(out + ".json"))["summaries"]["2.0"]
        steps = [int(line.rsplit(",", 1)[1]) for line in csv_lines_1.splitlines()[1:]]
        assert summary["jumps"] == sum(steps) > 0
        assert summary["step_budget"] == 50_000_000
        code = main(argv)
        capsys.readouterr()
        assert open(out + ".csv").read() == csv_lines_1

    def test_budget_refusal_structured(self, capsys):
        code, rep = run(
            capsys,
            "simulate", "--lattice", "3x3x3", "--boundary", "periodic", "--q", "2",
            "--beta", "2",
        )
        assert code == 1
        assert rep["error"]["type"] == "budget-refusal"
        assert "limit" in rep["error"]["message"]

    def test_step_budget_refusal_structured(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINSCAPE_STEP_BUDGET", "100")
        code, rep = run(
            capsys,
            "simulate", "--lattice", "2x2x3", "--boundary", "open", "--q", "2",
            "--beta", "2", "--seed", "5", "--n-samples", "60",
        )
        assert code == 1
        assert rep["error"]["type"] == "budget-refusal"
        assert "step budget 100 exceeded" in rep["error"]["message"]
        assert "summaries" not in rep


class TestCapacityKappaEnumerate:
    def test_capacity(self, capsys):
        code, rep = run(
            capsys,
            "capacity", "--lattice", "2x2x3", "--boundary", "open", "--q", "2",
            "--beta", "2",
        )
        assert code == 0
        entry = rep["results"]["2.0"]
        assert entry["dirichlet_rel_gap"] <= 1e-10
        assert entry["mean_hitting_rel_gap"] <= 1e-8
        assert entry["test_function"]["dirichlet_principle_holds"]
        # 4,096 states in 378 orbits of the 16-element symmetry group
        assert entry["potential_solved_on"] == {"classes": 378, "states": 4096}

    def test_kappa(self, capsys):
        code, rep = run(
            capsys,
            "kappa", "--lattice", "3x4x8", "--boundary", "periodic", "--q", "2",
        )
        assert code == 0
        c = rep["constants"]
        assert c["kappa"] > 0
        assert len(c["non_reproducible"]) == 3
        assert "stand-in" in c["provenance"]["kappa2d"]

    def test_enumerate_exports(self, capsys, tmp_path):
        out = str(tmp_path / "sets")
        code = main([
            "enumerate", "--lattice", "2x2x4", "--boundary", "open", "--q", "2",
            "--out", out,
        ])
        capsys.readouterr()
        assert code == 0
        rep = json.load(open(out + ".report.json"))
        assert rep["gamma"] == 6
        header = json.loads(open(rep["files"]["bulk"]).readline())
        assert header["set"] == "bulk"
        assert header["count"] == rep["set_sizes"]["bulk"]


class TestConfigFile:
    def test_file_mirrors_flags(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "lattice = 3x4\nboundary = periodic\nq = 2\n# comment\n"
        )
        code, rep = run(capsys, "barrier", "--config", str(cfgfile))
        assert code == 0
        assert rep["barrier"]["brute"] == 8

    def test_flags_override_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lattice = 3x3\nboundary = periodic\nq = 2\n")
        code, rep = run(
            capsys, "barrier", "--config", str(cfgfile), "--lattice", "3x4"
        )
        assert code == 0
        assert rep["barrier"]["lattice"]["L"] == 4

    def test_unknown_key_refused(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lattice = 3x4\nseeed = 5\n")
        with pytest.raises(SystemExit, match="error: .*seeed"):
            main(["barrier", "--config", str(cfgfile)])


# Runs in a fresh interpreter: the rest of the suite imports scipy, and a
# module once in sys.modules would hide a regression here.
SCIPY_PROBE = """
import contextlib, io, json, sys

import spinscape.cli, spinscape.dynamics, spinscape.landscape
import spinscape.canon, spinscape.energy, spinscape.lattice
from spinscape.cli import main


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv.split())


imported = scipy_modules()
runs = {name: [run(argv), scipy_modules()] for name, argv in [
    ("barrier", "barrier --lattice 3x4 --boundary periodic --q 2"),
    ("classify", "classify --lattice 3x3x4 --boundary periodic --q 2 "
                 "--state-code " + str(sum(1 << i for i in range(18, 36)))),
    ("paths", "paths --lattice 3x3x4 --boundary periodic --q 2 --kind canonical"),
    ("enumerate", "enumerate --lattice 2x2x2 --boundary open --q 2"),
    ("refusal", "enumerate --lattice 3x3x3 --boundary periodic --q 2"),
    ("capacity", "capacity --lattice 2x2x2 --boundary open --q 2 --beta 2"),
]}
print(json.dumps({"import": imported, "runs": runs}))
"""


def test_scipy_loads_only_for_solver_commands():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(spinscape.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["import"] == []
    runs = found["runs"]
    for name, want_code in (("barrier", 0), ("classify", 0), ("paths", 0),
                            ("enumerate", 0), ("refusal", 1)):
        assert runs[name] == [want_code, []], name
    code, modules = runs["capacity"]
    assert code == 0
    assert "scipy.sparse" in modules  # the probe sees scipy when it loads
