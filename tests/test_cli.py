"""Tests for the command-line driver: exit codes, artifacts, determinism."""

import csv
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import subgauss
from subgauss import checks
from subgauss.cli import cli_dispatch
from subgauss.reporting import emit_report, format_float


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert cli_dispatch(["lemma-checks", "--bogus"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0

    def test_no_arguments(self, capsys):
        assert cli_dispatch([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["game", "--trials", "0"],
            ["game", "--trials", "-5"],
            ["martingale", "--trials", "0"],
            ["martingale", "--trials", "1"],
            ["martingale", "--seed", "-1"],
            ["verify-chi", "--seed", str(2**64)],
            ["game", "--seed", "-1"],
            ["conjectures", "--trials", "50"],
        ],
    )
    def test_out_of_range_trials_and_seed(self, argv, tmp_path, capsys):
        out = tmp_path / "r"
        assert cli_dispatch(argv + ["--out", str(out)]) == 2
        assert "error: argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["martingale", "--seed", "-1"], "master_seed must be a 64-bit unsigned integer, got -1"),
            (["verify-chi", "--seed", str(2**64)],
             f"master_seed must be a 64-bit unsigned integer, got {2**64}"),
            (["game", "--trials", "0"], "trials must be an integer of at least 1, got 0"),
            (["conjectures", "--trials", "50"], "trials must be an integer of at least 100, got 50"),
            # one path once ran, and failed AC6 with a standard error of 0.0
            (["martingale", "--trials", "1"], "trials must be an integer of at least 2, got 1"),
        ],
    )
    def test_the_library_refuses_trials_and_seed(self, argv, message, tmp_path, capsys):
        # SeedSpec and _check_at_least check the options; the CLI keeps no copy of their rules
        assert cli_dispatch(argv + ["--out", str(tmp_path / "r")]) == 2
        assert f"error: argument {argv[1]}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-beta", "verify-dirichlet", "verify-chi", "lemma-checks",
                                         "martingale", "game", "conjectures"])
    def test_no_subcommand_takes_a_config(self, command, tmp_path, capsys):
        out = tmp_path / "r"
        assert cli_dispatch([command, "--config", str(tmp_path / "x.json"), "--out", str(out)]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-beta", "--seed", "9"],
            ["verify-beta", "--trials", "3"],
            ["lemma-checks", "--trials", "3", "--seed", "9"],
            ["lemma-checks", "--seed", "0"],
        ],
    )
    def test_seedless_checks_refuse_seed_and_trials(self, argv, tmp_path, capsys):
        # neither check draws a random number, so both flags would be ignored
        out = tmp_path / "r"
        assert cli_dispatch(argv + ["--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, kind",
        [("--q", "2.5", "int"), ("--n", "40.5", "int"), ("--trials", "2.5", "integer"),
         ("--seed", "1.5", "integer")],
    )
    def test_game_integers_are_not_truncated(self, flag, value, kind, tmp_path, capsys):
        out = tmp_path / "r"
        assert cli_dispatch(["game", flag, value, "--out", str(out)]) == 2
        assert f"error: argument {flag}: invalid {kind} value: '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_game_misspelt_flags_are_refused(self, tmp_path, capsys):
        # misspelt config keys once ran at the defaults and failed a check nobody asked for
        out = tmp_path / "r"
        assert cli_dispatch(["game", "--epsilonn", "0.9", "--out", str(out)]) == 2
        assert "unrecognized arguments: --epsilonn 0.9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            # required_n's OverflowError once escaped as a traceback
            (["--epsilon", "1e-7"], "required n exceeds 2^40"),
            # these two once reached the game and exited 1 with a traceback
            (["--curator", "sample_split", "--n", "10", "--q", "100"], "sample-split fold is empty"),
            (["--curator", "empirical_mean", "--n", "0"], "the empirical-mean curator cannot answer"),
            (["--epsilon", "nan"], "epsilon must be positive, got nan"),
            (["--alphas", "1"], "a Dirichlet needs at least 2 categories"),
            (["--alphas", "1e308", "1e308"], "the alphas' total must be finite"),
            # no argparse `choices=`: GameConfig is the one owner of the analyst kinds
            (["--analyst", "nobody"], "unknown analyst 'nobody'"),
        ],
        ids=["n_cap", "sample_split", "empirical_mean", "epsilon", "k", "total", "analyst"],
    )
    def test_game_settings_the_library_refuses(self, flags, message, tmp_path, capsys):
        # DirichletParams, GameConfig and required_n check the flags; the CLI keeps no copy of
        # their rules
        out = tmp_path / "r"
        assert cli_dispatch(["game", *flags, "--out", str(out)]) == 2
        assert f"error: invalid game configuration: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_checks_exit_one(self, tmp_path, capsys):
        # with no data and a tiny epsilon the prior-mean answer almost surely
        # misses, so the Wilson upper bound exceeds delta and the run fails
        flags = ["--alphas", "1", "1", "1", "--n", "0", "--q", "10", "--epsilon", "0.01",
                 "--delta", "0.01", "--analyst", "static_random", "--trials", "100"]
        assert cli_dispatch(["game", *flags, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "failed: wilson_high <= delta: wilson_high=" in err
        assert err.index("wilson_high") < err.index("CHECKS FAILED")


@pytest.mark.parametrize("failures, out_is_a_file, line", [
    (0, True, "error: could not write reports: "),
    (7, False, "lemma-checks: ... and 2 more failures"),
])
def test_exit_one_lines(failures, out_is_a_file, line, monkeypatch, tmp_path, capsys):
    # reports that cannot be written, or more failures than the five listed one by one
    rows = [{"check": "x <= 1", "x": 2 + i} for i in range(failures)]
    result = checks.CheckResult({}, [], not failures, rows, None)
    monkeypatch.setattr(checks, "lemma_checks", lambda: result)
    out = tmp_path / "out"
    if out_is_a_file:
        out.write_text("")
    assert cli_dispatch(["lemma-checks", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert line in err
    assert err.count("failed: x <= 1: x=") == min(failures, 5)


class TestArtifacts:
    def test_lemma_checks_outputs(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert cli_dispatch(["lemma-checks", "--out", str(out)]) == 0
        summary = read_json(out / "lemma-checks-summary.json")
        assert summary["all_passed"] is True
        assert summary["halved_exponent_power4_lhs"] == pytest.approx(1.0 / 360.0)
        assert summary["halved_exponent_power4_rhs"] == pytest.approx(1363.0 / 497664.0)
        manifest = read_json(out / "manifest.json")
        assert {o["path"] for o in manifest["outputs"]} == {
            str(out / "lemma-checks-summary.json"),
            str(out / "lemma-checks-data.csv"),
        }
        assert set(manifest["versions"]) == {"python", "numpy", "scipy", "subgauss"}
        assert manifest["versions"]["numpy"] == np.__version__
        assert manifest["versions"]["scipy"] == scipy.__version__  # read from its metadata
        assert manifest["versions"]["subgauss"] == subgauss.__version__
        with open(out / "lemma-checks-data.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 81
        assert all(row["passed"] == "True" for row in rows)

    def test_manifest_records_timings(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert cli_dispatch(["verify-dirichlet", "--trials", "1", "--out", str(out)]) == 0
        timings = read_json(out / "manifest.json")["timings"]
        assert set(timings) == {"import_s", "run_s"}
        assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())

    def test_json_only_format(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert (
            cli_dispatch(["verify-dirichlet", "--trials", "3", "--out", str(out), "--format", "json"])
            == 0
        )
        assert (out / "verify-dirichlet-summary.json").exists()
        assert not (out / "verify-dirichlet-data.csv").exists()

    def test_csv_only_format(self, tmp_path, capsys):
        out = tmp_path / "r"
        argv = ["verify-dirichlet", "--trials", "3", "--out", str(out), "--format", "csv"]
        assert cli_dispatch(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "verify-dirichlet-data.csv"]
        outputs = read_json(out / "manifest.json")["outputs"]
        assert [o["path"] for o in outputs] == [str(out / "verify-dirichlet-data.csv")]

    def test_game_runs_from_flags(self, tmp_path, capsys):
        out = tmp_path / "r"
        flags = ["--alphas", "1", "1", "1", "1", "--n", "40", "--q", "25", "--epsilon", "0.3",
                 "--delta", "0.1", "--trials", "120"]
        assert cli_dispatch(["game", *flags, "--out", str(out)]) == 0
        summary = read_json(out / "game-summary.json")
        assert summary["trials"] == 120
        assert summary["wilson_high"] <= 0.1
        with open(out / "game-data.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        assert {"trial", "max_error", "win"} <= set(rows[0])
        assert read_json(out / "manifest.json")["config"] == {"argv": ["game", *flags, "--out", str(out)]}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "argv", [["verify-chi", "--trials", "20000"], ["martingale", "--trials", "200"]]
)
def test_check_subcommand_reports(argv, tmp_path, capsys):
    command = argv[0]
    digests = []
    for out in (tmp_path / "a", tmp_path / "b"):
        code = cli_dispatch(argv + ["--out", str(out)])
        summary = read_json(out / f"{command}-summary.json")
        assert code == (0 if summary["all_passed"] else 1)
        digests.append([sha256(out / f"{command}-{kind}") for kind in ("summary.json", "data.csv")])
    assert digests[0] == digests[1]


def test_conjectures_pass_and_reproduce(tmp_path, capsys):
    digests = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert cli_dispatch(["conjectures", "--trials", "20000", "--out", str(out)]) == 0
        assert read_json(out / "conjectures-summary.json")["all_passed"] is True
        with open(out / "conjectures-data.csv", newline="", encoding="utf-8") as fh:
            assert len(list(csv.DictReader(fh))) == 60  # 30 instances x 2 methods
        digests.append([sha256(out / f"conjectures-{kind}") for kind in ("summary.json", "data.csv")])
    assert digests[0] == digests[1]
    # the bytes at 20 000 draws, with both modes scanning the centered weighted kernel,
    # since its Taylor table is a centered law's, with no e_1 term, summed over x / unit for
    # a power-of-two unit (was 3d51bf16/827aebb9)
    assert [d[:8] for d in digests[0]] == ["3d51bf16", "da04ff2a"]
    counts = read_json(tmp_path / "a" / "manifest.json")["counts"]  # over the 60 estimates
    assert set(counts) == {"log_mgf_evaluations", "log_mgf_evaluations_max"}
    assert 2 * 200 < counts["log_mgf_evaluations_max"] < counts["log_mgf_evaluations"]


@pytest.mark.parametrize(
    "flags, code, digests",
    [
        (["--alphas", "0.5", "1", "2", "0.5", "--q", "30", "--epsilon", "0.2", "--delta", "0.1",
          "--analyst", "static_random", "--curator", "sample_split", "--trials", "50", "--seed", "7"],
         1, ["3599300c", "64082787"]),
        (["--alphas", "1", "1", "1", "1", "1", "1", "--n", "200", "--q", "50", "--analyst",
          "variance_maximizer", "--curator", "empirical_mean", "--trials", "120", "--seed", "3"],
         0, ["6b9054c6", "67a5d5ca"]),
        (["--alphas", "2", "1", "0.5", "--q", "100", "--epsilon", "0.15", "--trials", "200",
          "--seed", "11"], 0, ["185f46ed", "38f03104"]),
    ],
    ids=["sample_split", "empirical_mean", "posterior_mean"],
)
def test_game_flags_reproduce_the_config_runs(flags, code, digests, tmp_path, capsys):
    # the summary/data bytes and exit code of the same settings given as a JSON config file,
    # before the flags replaced it; the first fails its check at these settings
    assert cli_dispatch(["game", *flags, "--out", str(tmp_path)]) == code
    assert [sha256(tmp_path / f"game-{kind}")[:8] for kind in ("summary.json", "data.csv")] == digests


def test_game_seed_is_used_and_recorded(tmp_path, capsys):
    runs = []
    for seed in ("0", "5"):
        out = tmp_path / seed
        cli_dispatch(["game", "--alphas", "1", "1", "1", "1", "--n", "40", "--q", "25", "--epsilon",
                      "0.3", "--delta", "0.1", "--trials", "50", "--seed", seed, "--out", str(out)])
        runs.append((sha256(out / "game-data.csv"), read_json(out / "manifest.json")["master_seed"]))
    assert runs[0][0] != runs[1][0]
    assert (runs[0][1], runs[1][1]) == (0, 5)


class TestDeterminism:
    def test_identical_digests_across_runs(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli_dispatch(
                ["verify-dirichlet", "--trials", "4", "--seed", "11", "--out", str(out)]
            ) == 0
        d1 = {o["path"].split("/")[-1]: o["sha256"] for o in read_json(out1 / "manifest.json")["outputs"]}
        d2 = {o["path"].split("/")[-1]: o["sha256"] for o in read_json(out2 / "manifest.json")["outputs"]}
        assert d1 == d2

    def test_seed_changes_output(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli_dispatch(["verify-dirichlet", "--trials", "4", "--seed", "1", "--out", str(out1)])
        cli_dispatch(["verify-dirichlet", "--trials", "4", "--seed", "2", "--out", str(out2)])
        csv1 = (out1 / "verify-dirichlet-data.csv").read_text()
        csv2 = (out2 / "verify-dirichlet-data.csv").read_text()
        assert csv1 != csv2


class TestFloatFormatting:
    def test_round_trip_exact(self):
        for value in (1.0 / 3.0, 0.1, 2.0**-52, 123456.789, 1e-300):
            assert float(format_float(value)) == value

    def test_csv_floats_round_trip(self, tmp_path, capsys):
        out = tmp_path / "r"
        cli_dispatch(["verify-dirichlet", "--trials", "2", "--out", str(out)])
        summary = read_json(out / "verify-dirichlet-summary.json")
        with open(out / "verify-dirichlet-data.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["critical"]) == summary["critical"]


def test_csv_cells_keep_their_commas_out(tmp_path):
    emit_report("c", {}, [{"text": "a,b", "x": 0.5}], tmp_path, "csv")
    lines = (tmp_path / "c-data.csv").read_text(encoding="utf-8").splitlines()
    assert lines == ["text,x", "a;b,0.5"]


class TestJsonPath:
    def summary(self, tmp_path, name, summary):
        emit_report("c", summary, [], tmp_path / name, "json")
        return (tmp_path / name / "c-summary.json").read_bytes()

    def test_numpy_values_write_as_python_values(self, tmp_path):
        numpy_summary = {
            "x": np.float64(0.1), "n": np.int64(3), "ok": np.bool_(True),
            "grid": np.array([[1.5, 2.0], [0.25, -1.0]]), "rows": ((np.float64(0.5), 2), (1.0, 3)),
        }
        plain_summary = {
            "x": 0.1, "n": 3, "ok": True,
            "grid": [[1.5, 2.0], [0.25, -1.0]], "rows": [[0.5, 2], [1.0, 3]],
        }
        numpy_bytes = self.summary(tmp_path, "numpy", numpy_summary)
        assert numpy_bytes == self.summary(tmp_path, "plain", plain_summary)
        assert b'"ok": true' in numpy_bytes

    def test_unknown_types_are_refused(self, tmp_path):
        # once written as their str, "{1, 2}"
        with pytest.raises(TypeError, match="set"):
            self.summary(tmp_path, "set", {"subset": {1, 2}})

    def test_unknown_format_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            emit_report("c", {}, [], tmp_path, "xml")
        assert not any(tmp_path.iterdir())


# manifest keys of every run; "counts" only where the check reports work counts
MANIFEST_KEYS = {"artifact_version", "command", "config", "created_at", "master_seed", "outputs",
                 "timings", "versions"}


@pytest.mark.parametrize(
    "argv, seeded, counted",
    [
        pytest.param(["verify-beta"], False, True, id="verify-beta"),
        pytest.param(["verify-dirichlet", "--trials", "1"], True, False, id="verify-dirichlet"),
        pytest.param(["verify-chi", "--trials", "10"], True, False, id="verify-chi"),
        pytest.param(["lemma-checks"], False, False, id="lemma-checks"),
        pytest.param(["martingale", "--trials", "10"], True, False, id="martingale"),
        pytest.param(["game", "--trials", "1"], True, False, id="game"),
        pytest.param(["conjectures", "--trials", "100"], True, True, id="conjectures"),
    ],
)
def test_manifest_keys(argv, seeded, counted, tmp_path, capsys):
    assert cli_dispatch(argv + ["--out", str(tmp_path)]) in (0, 1)  # a few trials may fail
    manifest = read_json(tmp_path / "manifest.json")
    assert set(manifest) == MANIFEST_KEYS | ({"counts"} if counted else set())
    assert manifest["master_seed"] == (0 if seeded else None)


def test_cold_start_loads_no_heavy_scipy_module():
    # scipy.integrate also loads scipy.optimize, and scipy.stats costs ~0.5 s;
    # module presence, not time, keeps this deterministic
    code = (
        "import sys\n"
        "import subgauss, subgauss.cli, subgauss.checks\n"
        "print(' '.join(m for m in ('scipy.integrate', 'scipy.stats', 'scipy.optimize')"
        " if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(subgauss.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.split() == []


@pytest.mark.parametrize(
    "statement, absent",
    [
        ("import subgauss", ("numpy", "scipy", "subgauss.")),
        ("from subgauss.game import run_games", ("scipy.linalg", "subgauss.conjugate_models")),
        ("import subgauss.cli", ("scipy",)),
    ],
    ids=["package", "game", "cli"],
)
def test_import_loads_only_what_it_names(statement, absent):
    # module-name prefixes; the package import loads no submodule, so importing one
    # module loads only that module's own imports
    code = (
        "import sys\n"
        f"{statement}\n"
        f"print(' '.join(m for m in sys.modules if m.startswith({absent!r})))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(subgauss.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.split() == []


def test_runs_load_scipy_only_for_the_ks_test(tmp_path):
    # the six subcommands other than verify-dirichlet load no scipy module (martingale and
    # conjectures with fewer trials); verify-dirichlet's KS test loads scipy.special, and
    # nothing loads scipy.linalg
    scipy_free = [
        ["game"], ["verify-chi"], ["verify-beta"], ["lemma-checks"],
        ["martingale", "--trials", "10"], ["conjectures", "--trials", "100"],
    ]
    code = (
        "import sys\n"
        "from subgauss.cli import cli_dispatch\n"
        "def loaded():\n"
        "    return ' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or '-'\n"
        + "".join(f"cli_dispatch({args + ['--out', str(tmp_path / args[0])]!r})\n" for args in scipy_free)
        + "print(loaded())\n"
        f"cli_dispatch(['verify-dirichlet', '--trials', '1', '--out', {str(tmp_path / 'dir')!r}])\n"
        "print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(subgauss.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    after_scipy_free, after_dirichlet = run.stdout.splitlines()
    assert after_scipy_free == "-"
    assert "scipy.special" in after_dirichlet.split()
    assert not [m for m in after_dirichlet.split() if m.startswith("scipy.linalg")]
    for command, *_ in scipy_free:
        assert (tmp_path / command / f"{command}-summary.json").exists()


def test_all_lists_each_public_definition():
    # a module's __all__ names every public function and class it defines, and nothing it lacks
    checked = []
    for info in pkgutil.iter_modules(subgauss.__path__):
        module = importlib.import_module(f"subgauss.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        defined = {
            name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        assert sorted(defined - set(module.__all__)) == [], module.__name__
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__
        checked.append(info.name)
    assert "concentration" in checked
