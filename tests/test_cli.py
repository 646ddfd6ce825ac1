import dataclasses
from pathlib import Path

from balancebench.cli import _cli_mapping, build_parser, cli_main
from balancebench.harness import (
    CONFIG_KEYS,
    RunConfig,
    config_from_mapping,
    config_to_text,
    parse_config_text,
)


def run_cli(args):
    return cli_main(args)


def test_missing_out_is_config_error(capsys):
    code = run_cli(["--scenarios", "250:common:low", "--reps", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_grid_conflicts_with_single_scenario(tmp_path, capsys):
    code = run_cli(["--scenarios", "grid;250:common:low", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bad scenario triple 'grid'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_flag_exits_2(capsys):
    assert run_cli(["--frobnicate"]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenarios = 250:common:low\nwhatever = 1\n")
    assert run_cli(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_single_scenario_run_writes_files(tmp_path, capsys):
    out = tmp_path / "results"
    code = run_cli([
        "--scenarios", "250:common:low",
        "--reps", "2", "--methods", "iptw", "--learners", "oracle",
        "--estimators", "WA", "--estimands", "ATE", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "manifest.txt").exists()
    assert not (out / "records.ndjson").exists()
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_grid_run_produces_36_cells(tmp_path):
    out = tmp_path / "grid"
    code = run_cli([
        "--scenarios", "grid", "--reps", "1", "--methods", "iptw", "--learners", "oracle",
        "--estimators", "WA", "--estimands", "ATE", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 37


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenarios = 250:common:low\n"
        "reps = 1\nmethods = iptw\nlearners = oracle\n"
        "estimators = WA\nestimands = ATE\nseed = 4\n"
    )
    out = tmp_path / "o"
    code = run_cli(["--config", str(cfg), "--reps", "3", "--out", str(out), "--emit-raw"])
    assert code == 0
    raw = (out / "records.ndjson").read_text().strip().splitlines()
    assert len(raw) == 3  # CLI override of reps took effect


def test_crude_debug_mode(tmp_path):
    out = tmp_path / "crude"
    code = run_cli([
        "--scenarios", "250:common:low",
        "--reps", "2", "--methods", "iptw", "--learners", "oracle",
        "--estimators", "WA", "--estimands", "ATE", "--crude", "--out", str(out),
    ])
    assert code == 0
    text = (out / "summary.csv").read_text()
    assert "crude" in text


def test_small_run_summary_matches_pinned_file(tmp_path, capsys):
    """Pins every cell of a two-scenario run, byte for byte.

    The file is the summary.csv of this exact command. A change that is meant
    to keep results must leave it as it is; a change that moves results
    regenerates it with this command and lists the moved rows in CHANGES.md.
    """
    out = tmp_path / "pinned"
    code = run_cli([
        "--scenarios", "250:common:moderate;250:very_rare:high", "--reps", "3", "--crude",
        "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    pinned = Path(__file__).parent / "data" / "summary_small.csv"
    assert (out / "summary.csv").read_bytes() == pinned.read_bytes()


# a small run, so that a bad value that gets through fails quickly
SMALL = ["--reps", "1", "--methods", "iptw", "--learners", "oracle", "--estimators", "WA", "--estimands", "ATE"]


def test_bad_config_file_values_exit_2(tmp_path, capsys):
    for body in ("scenarios = grid;250:common:low\n", "scenarios = x:common:low\n",
                 "scenarios = 250:common:low\nworkers = 0\n"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body + "reps = 1\nmethods = iptw\nlearners = oracle\nestimators = WA\nestimands = ATE\n")
        assert run_cli(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_bad_flag_values_exit_2(tmp_path, capsys):
    single = ["--out", str(tmp_path / "o")] + SMALL
    for flags in (["--scenarios", "10:common:low"], ["--scenarios", "abc:common:low"],
                  ["--scenarios", "250:common:low", "--workers", "0"],
                  ["--scenarios", "250:common:low", "--workers", "-1"],
                  ["--scenarios", "250:common:low", "--seed=-1"]):
        assert run_cli(flags + single) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


# every configuration field away from its default
NON_DEFAULT_CONFIG = RunConfig(
    scenarios=((100, "rare", "high"), (150, "very_rare", "low")),
    replications=7,
    methods=("eb", "tlf"),
    learners=("logistic_mis",),
    estimators=("AWA",),
    estimands=("ATT",),
    master_seed=42,
    workers=3,
    output_path="results",
    emit_raw=True,
    crude=True,
)


def test_non_default_config_sets_every_table_field():
    defaults = RunConfig(scenarios=((250, "common", "low"),))
    for key, entry in CONFIG_KEYS.items():
        assert getattr(NON_DEFAULT_CONFIG, entry.field) != getattr(defaults, entry.field), key


def test_config_text_round_trips_every_field():
    text = config_to_text(NON_DEFAULT_CONFIG)
    replay = config_from_mapping(parse_config_text(text))
    assert replay == dataclasses.replace(NON_DEFAULT_CONFIG, output_path=None)


def test_flags_round_trip_every_field():
    flags = [
        "--scenarios", "100:rare:high;150:very_rare:low", "--reps", "7", "--methods", "eb,tlf",
        "--learners", "logistic_mis", "--estimators", "AWA", "--estimands", "ATT",
        "--seed", "42", "--workers", "3", "--out", "results",
        "--emit-raw", "--crude",
    ]
    assert config_from_mapping(_cli_mapping(build_parser().parse_args(flags))) == NON_DEFAULT_CONFIG


def test_parser_has_one_option_per_config_key():
    options = [a.option_strings for a in build_parser()._actions if a.dest != "help"]
    flags = {f"--{key.replace('_', '-')}" for key in CONFIG_KEYS}
    assert len(options) == len(CONFIG_KEYS) + 1
    assert {opts[0] for opts in options} == flags | {"--config"}
