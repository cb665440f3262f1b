"""Command-line surface: parsing, config merging, report emission, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from cesarospec import FAILS, HOLDS, classify_space, parse_alpha
from cesarospec.cli import (
    AnalysisConfig,
    DYNAMICS_STEP_CAP,
    EIGENPAIR_INDEX_CAP,
    K_CAP,
    KMAX_CAP,
    N_CAP,
    SCHEMA_VERSION,
    UsageError,
    _build_parser,
    assemble_config,
    emit,
    load_config_file,
    main,
    parse_complex_literal,
    parse_experiment_token,
    run,
)
import cesarospec.cli as cli_module
import cesarospec.dynamics as dynamics_module
from cesarospec.operators import CoordinateVector, cesaro_apply, \
    delta_eigenvector
from cesarospec.sequences import default_resolution


class TestComplexLiterals:
    @pytest.mark.parametrize("text,value", [
        ("2", 2 + 0j),
        ("-1", -1 + 0j),
        ("0.4+0.3i", 0.4 + 0.3j),
        ("0.4+0.3j", 0.4 + 0.3j),
        ("2i", 2j),
        (" 1 + 2i ", 1 + 2j),
        ("-0.5-0.5i", -0.5 - 0.5j),
    ])
    def test_accepts(self, text, value):
        assert parse_complex_literal(text) == value

    @pytest.mark.parametrize("text", ["abc", "", "1+2k", "i+j+k", "inf"])
    def test_rejects(self, text):
        with pytest.raises(UsageError):
            parse_complex_literal(text)

    @pytest.mark.parametrize("text", [
        "nan", "-nan", "1e400", "-1e400", "1+nanj", "2-1e400i", "nan+nanj",
    ])
    def test_rejects_non_finite(self, text):
        with pytest.raises(UsageError, match="not finite"):
            parse_complex_literal(text)


class TestExperimentTokens:
    def test_bare_names(self):
        for name in ("profile", "spectrum", "suite"):
            assert parse_experiment_token(name) == (name, None)

    def test_resolvent_inline_points(self):
        name, lams = parse_experiment_token("resolvent:2,-1,0.4+0.3i")
        assert name == "resolvent"
        assert lams == (2 + 0j, -1 + 0j, 0.4 + 0.3j)

    def test_eigenpair_inline_indices(self):
        assert parse_experiment_token("eigenpairs:1,2,5") == ("eigenpairs",
                                                              (1, 2, 5))

    def test_dynamics_inline_vector_and_steps(self):
        assert parse_experiment_token("dynamics:e2,3,5") == ("dynamics",
                                                             ("e2", (3, 5)))
        assert parse_experiment_token("dynamics:ones") == ("dynamics",
                                                           ("ones", None))

    @pytest.mark.parametrize("token", [
        "orbit", "profile:zzz", "dynamics:bogus", "eigenpairs:a",
        "resolvent:nope", "dynamics:e1,0", "dynamics:e1,x", "dynamics:,",
        f"dynamics:e1,{DYNAMICS_STEP_CAP + 1}", "eigenpairs:0",
        f"eigenpairs:2,{EIGENPAIR_INDEX_CAP + 1}",
    ])
    def test_rejects(self, token):
        with pytest.raises(UsageError):
            parse_experiment_token(token)


def _config_from(argv):
    return assemble_config(_build_parser().parse_args(argv))


class TestConfigAssembly:
    def test_defaults(self):
        config, delivery = _config_from([])
        assert config.alpha == "linear"
        assert config.K == 4
        assert config.experiments == ("profile",)
        assert config.seed == 1729
        assert config.output == "json"
        assert config.lambdas == (2 + 0j,)
        assert config.ms == (1, 2, 3)
        assert config.x == "e1"
        assert config == AnalysisConfig()
        assert delivery == {"out": None, "include_timings": False}

    def test_flags(self):
        config, _ = _config_from([
            "--alpha", "log:beta=2", "--K", "6", "--seed", "7",
            "--experiments", "profile", "spectrum",
            "--lambda", "2,-1", "--m", "1,4",
        ])
        assert config.alpha == "log:beta=2"
        assert config.K == 6
        assert config.experiments == ("profile", "spectrum")
        assert config.lambdas == (2 + 0j, -1 + 0j)
        assert config.ms == (1, 4)

    def test_semicolon_tokens_split(self):
        config, _ = _config_from(["--experiments", "profile;suite"])
        assert config.experiments == ("profile", "suite")

    def test_config_file_with_nested_groups(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "alpha": "power:beta=2",
            "run": {"K": 5, "seed": 9},
            "lambda": ["0.4+0.3i"],
            "experiments": ["spectrum"],
        }))
        config, _ = _config_from(["--config", str(path)])
        assert config.alpha == "power:beta=2"
        assert config.K == 5
        assert config.seed == 9
        assert config.lambdas == (0.4 + 0.3j,)
        assert config.experiments == ("spectrum",)

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"alpha": "power:beta=2", "K": 5}))
        config, _ = _config_from(["--config", str(path), "--K", "9"])
        assert config.alpha == "power:beta=2"
        assert config.K == 9

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"run": {"speed": "fast"}}))
        with pytest.raises(UsageError, match="run.speed"):
            load_config_file(str(path))

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"alpha": }')
        with pytest.raises(UsageError, match="line 1"):
            load_config_file(str(path))

    @pytest.mark.parametrize("argv", [
        ["--alpha", "mystery"],
        ["--N", "0"],
        ["--experiments", "orbit"],
        ["--x", "q7"],
        ["--seed", "-1"],
    ])
    def test_bad_values_rejected(self, argv):
        with pytest.raises(UsageError):
            _config_from(argv)


class TestRunAndEmit:
    def test_empty_experiment_list_yields_bare_report(self):
        report = run(AnalysisConfig(experiments=()))
        assert report.results == ()
        assert report.mismatches == ()
        assert report.schema_version == SCHEMA_VERSION

    def test_config_echo_has_no_delivery_fields(self):
        report = run(AnalysisConfig(experiments=()))
        assert set(report.config) == {
            "alpha", "N", "K", "kmax", "tol", "seed", "experiments",
            "lambda", "m", "x", "output"}
        assert report.config["alpha"] == "linear"
        assert report.config["seed"] == 1729

    def test_versions_block(self):
        import cesarospec

        report = run(AnalysisConfig(experiments=()))
        assert set(report.versions) == {"cesarospec", "numpy", "python"}
        assert report.versions["cesarospec"] == cesarospec.__version__

    def test_identical_runs_identical_bytes(self):
        config = AnalysisConfig(experiments=("profile", "eigenpairs"))
        first = emit(run(config), "json")
        second = emit(run(config), "json")
        assert first == second

    def test_csv_shape_and_agreement_with_json(self):
        config = AnalysisConfig(experiments=())
        report = run(config)
        lines = emit(report, "csv").decode().splitlines()
        assert lines[0] == "path,value"
        cells = dict(line.split(",", 1) for line in lines[1:])
        assert cells["config.K"] == "4"
        assert cells["schema_version"] == "2"

    @pytest.mark.parametrize("config", [
        AnalysisConfig(N=1, experiments=("profile",)),
        AnalysisConfig(tol=float("nan"), experiments=("dynamics",)),
        AnalysisConfig(tol=-1.0, experiments=("dynamics",)),
        AnalysisConfig(alpha="mystery"),
        AnalysisConfig(K=0),
        AnalysisConfig(kmax=0),
        AnalysisConfig(seed=-1, experiments=("dynamics",)),
        AnalysisConfig(output="xml"),
        AnalysisConfig(lambdas=(complex("nan"),), experiments=("resolvent",)),
        AnalysisConfig(x="q1", experiments=("dynamics",)),
        AnalysisConfig(experiments=("dynamics",), ms=()),
        AnalysisConfig(experiments=("eigenpairs",), ms=(0,)),
        AnalysisConfig(experiments=("eigenpairs",),
                       ms=(EIGENPAIR_INDEX_CAP + 1,)),
        AnalysisConfig(N=N_CAP + 1, experiments=("profile",)),
        AnalysisConfig(K=K_CAP + 1),
        AnalysisConfig(kmax=KMAX_CAP + 1, experiments=("resolvent",)),
    ])
    def test_run_checks_the_config(self, config):
        # run is also called directly, without assemble_config
        with pytest.raises(UsageError):
            run(config)

    def test_timings_only_when_requested(self):
        report = run(AnalysisConfig(experiments=("profile",)))
        bare = json.loads(emit(report, "json"))
        timed = json.loads(emit(report, "json", include_timings=True))
        assert "wall_times" not in bare
        assert [t["experiment"] for t in timed["wall_times"]] == ["profile"]


class TestMainExitCodes:
    def test_profile_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["--alpha", "linear", "--experiments", "profile",
                     "--out", str(out)])
        assert code == 0
        tree = json.loads(out.read_text())
        assert tree["schema_version"] == SCHEMA_VERSION
        assert tree["results"][0]["experiment"] == "profile"
        assert capsys.readouterr().err == ""

    def test_stdout_when_no_out_path(self, capsys):
        assert main(["--experiments", "profile"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["config"]["alpha"] == "linear"

    def test_dynamics_and_resolvent_inline(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["--alpha", "linear", "--N", "24",
                     "--experiments", "dynamics:e1,2;resolvent:2",
                     "--out", str(out)])
        assert code == 0
        tree = json.loads(out.read_text())
        assert [r["experiment"] for r in tree["results"]] == \
            ["dynamics:e1,2", "resolvent:2"]

    @pytest.mark.parametrize("argv", [
        ["--experiments", "orbit"],
        ["--alpha", "mystery"],
        ["--lambda", "nope"],
        ["--experiments", "dynamics:q1"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_dynamics_past_golden_bracket_exits_0(self, capsys):
        # a_28 peaks at t = e^-27, below the old numeric bracket
        assert main(["--experiments", "dynamics:e1,28"]) == 0
        tree = json.loads(capsys.readouterr().out)
        sups = tree["results"][0]["data"]["density_sups"]
        assert [s["m"] for s in sups] == [28]

    @pytest.mark.parametrize("argv", [
        ["--experiments", "dynamics:e1,100000000"],
        ["--experiments", f"dynamics:ones,2,{DYNAMICS_STEP_CAP + 1}"],
        ["--experiments", "dynamics", "--m", "1000"],
        ["--experiments", "dynamics:e2", "--m", f"{DYNAMICS_STEP_CAP + 1}"],
    ])
    def test_dynamics_step_cap_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "exceeds the cap" in err
        assert len(err.strip().splitlines()) == 1

    def test_dynamics_step_cap_from_config_file(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text('{"m": [3, 500], "experiments": ["dynamics"]}')
        assert main(["--config", str(path)]) == 2
        assert "exceeds the cap" in capsys.readouterr().err

    def test_step_cap_leaves_eigenpair_indices_alone(self):
        config, _ = _config_from(["--experiments", "eigenpairs",
                                  "dynamics:e1,2", "--m", "50"])
        assert config.ms == (50,)

    def test_eigenpair_cap_is_at_least_ten(self):
        assert EIGENPAIR_INDEX_CAP >= 10
        assert parse_experiment_token(f"eigenpairs:{EIGENPAIR_INDEX_CAP}") \
            == ("eigenpairs", (EIGENPAIR_INDEX_CAP,))

    @pytest.mark.parametrize("argv", [
        ["--experiments", f"eigenpairs:{EIGENPAIR_INDEX_CAP + 1}"],
        ["--experiments", "eigenpairs", "--m", f"{EIGENPAIR_INDEX_CAP + 1}"],
    ])
    def test_eigenpair_cap_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "exceeds the cap" in err
        assert len(err.strip().splitlines()) == 1

    def test_eigenpair_cap_from_config_file(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(f'{{"m": [2, {EIGENPAIR_INDEX_CAP + 1}], '
                        '"experiments": ["eigenpairs"]}')
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "exceeds the cap" in err
        assert len(err.strip().splitlines()) == 1

    def test_eigenpair_relations_hold_exactly(self, capsys):
        assert main(["--experiments", "eigenpairs:1,2,3,20,200"]) == 0
        pairs = json.loads(capsys.readouterr().out)["results"][0]["data"][
            "pairs"]
        assert [(p["m"], p["N"], p["residual_zero"]) for p in pairs] == [
            (1, 40, True), (2, 40, True), (3, 40, True), (20, 40, True),
            (200, 400, True)]

    def test_a_broken_eigenvector_fails_the_exact_check(self, monkeypatch,
                                                        capsys):
        def off_by_one(m, N):
            vals = list(delta_eigenvector(m, N).values)
            vals[N // 2] += 1
            return CoordinateVector(vals)

        monkeypatch.setattr(cli_module, "delta_eigenvector", off_by_one)
        assert main(["--experiments", "eigenpairs:1,3"]) == 1
        tree = json.loads(capsys.readouterr().out)
        pairs = tree["results"][0]["data"]["pairs"]
        assert [p["residual_zero"] for p in pairs] == [False, False]
        assert tree["mismatches"][:2] == [
            "eigenpairs[m=1]: exact eigenvalue relation violated at N=40",
            "eigenpairs[m=3]: exact eigenvalue relation violated at N=40"]

    @pytest.mark.parametrize("token,applies", [
        # one trace of max(40, 10, 32) passes, plus the ergodic check's one
        ("dynamics:e1,40", 41),
        # the default m list: max(3, 10, 32) passes, plus one
        ("dynamics", 33),
    ])
    def test_one_iterate_chain_per_dynamics_run(self, token, applies,
                                                 monkeypatch, capsys):
        calls = []

        def spy(x):
            calls.append(len(x))
            return cesaro_apply(x)

        monkeypatch.setattr(dynamics_module, "cesaro_apply", spy)
        assert main(["--N", "64", "--experiments", token]) == 0
        assert len(calls) == applies

    def test_run_checks_the_step_cap(self):
        with pytest.raises(UsageError):
            run(AnalysisConfig(experiments=("dynamics",),
                               ms=(DYNAMICS_STEP_CAP + 1,)))

    # the profile outcomes of tower below its saturation index (n = 140)
    TOWER_PROFILE = {
        "nuclear": "holds", "n_over_alpha_zero": "holds",
        "shift_stable": "fails", "d_continuous": "fails",
        "delta_continuous": "holds", "inverse_continuous": "holds",
        "s1_nonempty": "fails", "v_alpha": "holds",
    }

    @pytest.mark.parametrize("N", [30, 110, 1024])
    def test_tower_saturated_tail_gives_no_mismatch(self, N, capsys):
        argv = ["--alpha", "tower", "--N", str(N),
                "--experiments", "profile", "spectrum"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        tree = json.loads(captured.out)
        assert tree["mismatches"] == []
        prof = tree["results"][0]["data"]["profile"]
        got = {key: prof[key]["outcome"] for key in self.TOWER_PROFILE}
        assert got == self.TOWER_PROFILE

    @pytest.mark.parametrize("value", ["nan", "1e400"])
    def test_non_finite_lambda_exits_2(self, value, capsys):
        argv = ["--lambda", value, "--experiments", "resolvent"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "not finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["NaN", "Infinity", '"nan"', '"1e400"'])
    def test_non_finite_config_lambda_exits_2(self, tmp_path, value, capsys):
        path = tmp_path / "job.json"
        path.write_text(f'{{"lambda": [{value}], "experiments": ["resolvent"]}}')
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("field,value,literal,message", [
        ("N", "1", "1", "N must be >= 2"),
        ("N", "0", "0", "N must be >= 2"),
        ("tol", "nan", "NaN", "tol must be"),
        ("tol", "inf", "Infinity", "tol must be"),
        ("tol", "-1", "-1", "tol must be"),
        ("tol", "0", "0", "tol must be"),
        ("seed", "-1", "-1", "seed must be >= 0"),
    ])
    def test_bad_resolution_or_tolerance_exits_2(self, tmp_path, field, value,
                                                 literal, message, capsys):
        flag = ["--" + field, value, "--experiments", "dynamics"]
        path = tmp_path / "job.json"
        path.write_text(f'{{"{field}": {literal}, "experiments": ["dynamics"]}}')
        for argv in (flag, ["--config", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}")
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("field,cap", [
        ("N", N_CAP), ("K", K_CAP), ("kmax", KMAX_CAP)])
    def test_values_above_the_caps_exit_2(self, tmp_path, field, cap, capsys):
        path = tmp_path / "job.json"
        path.write_text(f'{{"{field}": {cap + 1}, "experiments": ["profile"]}}')
        for argv in (["--" + field, str(cap + 1), "--experiments", "profile"],
                     ["--config", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: {field} {cap + 1} exceeds the cap of {cap}\n"

    @pytest.mark.parametrize("argv", [
        ["--alpha", "log:beta=1/10", "--K", "5"],
        ["--alpha", "log:beta=1", "--K", "50"],
        # log:beta=2 first needs the s = 1 seed at K = 100, past the cap;
        # sequences' TestHarmonicEdge runs s0_estimate there directly
        ["--alpha", "log:beta=2", "--K", str(K_CAP)],
    ])
    def test_spectrum_at_the_harmonic_edge_exits_0(self, argv, capsys):
        # s0(k) = 1 + beta/k comes close enough to 1 that the series scan
        # reads s = 1 as inconclusive; the bracket then starts at s = 1
        assert main(argv + ["--experiments", "spectrum"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["mismatches"] == []
        discs = tree["results"][0]["data"]["discs"]["entries"]
        assert len(discs) == int(argv[-1])
        assert all(d["s0_lo"] >= 1.0 for d in discs)

    @pytest.mark.parametrize("spec", ["log:beta=1e-310", "log:beta=1e-320"])
    def test_tiny_log_scale_profile_exits_0(self, spec, capsys):
        # the shift-stability tail sits past float range; its limit
        # estimate saturates instead of overflowing
        assert main(["--alpha", spec, "--experiments", "profile"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["mismatches"] == []
        profile = tree["results"][0]["data"]["profile"]
        assert (profile["nuclear"]["outcome"],
                profile["s1_nonempty"]["outcome"],
                profile["shift_stable"]["outcome"]) == (FAILS, HOLDS, HOLDS)

    @pytest.mark.parametrize("spec", [
        "table:[1e308,1e309]", "table:[1e400]", "table:[1]:step=1e400",
        "table:[1e-400]", "table:[1e-400,1]",
    ])
    def test_table_beyond_float_range_exits_2(self, spec, capsys):
        assert main(["--alpha", spec, "--experiments", "profile"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad --alpha {spec!r}: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("spec", [
        "table:[1e308]:step=1e308", "table:[1e308,1.7e308]"])
    def test_table_tail_past_float_range_runs_quietly(self, spec):
        import cesarospec

        src = os.path.dirname(os.path.dirname(cesarospec.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "cesarospec.cli", "--alpha", spec,
             "--experiments", "profile", "spectrum"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_caps_admit_the_defaults_and_themselves(self):
        defaults = AnalysisConfig()
        assert default_resolution(parse_alpha(defaults.alpha)) < N_CAP
        assert defaults.K < K_CAP and defaults.kmax < KMAX_CAP
        config, _ = _config_from(["--N", str(N_CAP), "--K", str(K_CAP),
                                  "--kmax", str(KMAX_CAP)])
        assert (config.N, config.K, config.kmax) == (N_CAP, K_CAP, KMAX_CAP)

    def test_runs_that_draw_nothing_leave_numpy_random_unloaded(self):
        # the generator is made on the first draw, and only dynamics:random
        # and suite draw
        import cesarospec

        src = os.path.dirname(os.path.dirname(cesarospec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import contextlib, io, sys, cesarospec.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['--N', '64', '--experiments', 'profile',\n"
            "                     'spectrum', 'resolvent', 'eigenpairs:1,2'])\n"
            "print(code, 'numpy.random' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['--N', '64', '--experiments',\n"
            "                     'dynamics:random,2'])\n"
            "print(code, 'numpy.random' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "False", "0", "True"]

    def test_repeated_alpha_key_exits_2(self, tmp_path, capsys):
        spec = "power:beta=2:beta=3"
        path = tmp_path / "job.json"
        path.write_text(f'{{"alpha": "{spec}", "experiments": ["profile"]}}')
        for argv in (["--alpha", spec, "--experiments", "profile"],
                     ["--config", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: bad --alpha {spec!r}: repeated")
            assert len(err.strip().splitlines()) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--experiments" in capsys.readouterr().out

    def test_bad_choice_exits_2_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--output", "xml"])
        assert exc.value.code == 2

    def test_lmax_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--lmax", "5"])
        assert exc.value.code == 2
        capsys.readouterr()
        path = tmp_path / "job.json"
        path.write_text('{"lmax": 5}')
        assert main(["--config", str(path)]) == 2
        assert capsys.readouterr().err == \
            "error: config field 'lmax': unknown key\n"

    def test_out_dir_env_resolves_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CESAROSPEC_OUT_DIR", str(tmp_path))
        assert main(["--experiments", "profile",
                     "--out", "nested/report.json"]) == 0
        assert (tmp_path / "nested" / "report.json").exists()

    def test_csv_delivery(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["--experiments", "profile", "--output", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "path,value"

    def test_prediction_mismatch_exits_1(self, tmp_path, monkeypatch, capsys):
        real = classify_space(parse_alpha("linear"))
        fake = dataclasses.replace(
            real, warnings=("synthetic disagreement for the exit-code path",))
        monkeypatch.setattr(cli_module, "classify_space",
                            lambda seq, N=None: fake)
        out = tmp_path / "report.json"
        code = main(["--experiments", "profile", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "mismatch:" in err
        tree = json.loads(out.read_text())
        assert tree["mismatches"]
