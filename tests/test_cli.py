"""Command-line interface: exit codes, summaries, CSV outputs."""

import pytest

from privagg import RoundOutcome
from privagg.cli import _EXIT_BY_OUTCOME, ATTACK_CSV_HEADER, main, parse_config_text
from privagg.simnet import ConfigError

THREE_NODE_CONFIG = """\
# three sources summing 3 + 9 + 14
n_sources = 3
modulus = 32
values = 3,9,14
K = 20
k = 8
p = 1.0
seed = 13
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(THREE_NODE_CONFIG)
    return str(path)


def test_parse_config_round_trip():
    config = parse_config_text(THREE_NODE_CONFIG)
    assert config.n_sources == 3
    assert config.values == (3, 9, 14)
    assert config.total_keys == 20
    assert config.edge_prob == 1.0


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text("n_sources = 3\nmodulus = 32\nvalues = 1,2,3\nfoo = 1\n")
    assert exc_info.value.fieldname == "foo"


def test_parse_config_requires_mandatory_keys():
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text("n_sources = 3\nvalues = 1,2,3\n")
    assert exc_info.value.fieldname == "modulus"


def test_parse_config_sampling_range():
    config = parse_config_text(
        "n_sources = 4\nmodulus = 65536\nvalues = 0..99\nseed = 3\n"
    )
    assert config.values is None
    assert config.value_range == (0, 99)


def test_run_writes_transcript_and_summary(tmp_path, config_path, capsys):
    out = tmp_path / "trace.log"
    code = main(["run", "--config", config_path, "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out.strip()
    assert summary == "sum,26,1"
    lines = out.read_text().splitlines()
    assert lines and all(len(line.split("\t")) == 6 for line in lines)


def test_run_single_source_exits_refused(tmp_path, capsys):
    path = tmp_path / "one.cfg"
    path.write_text("n_sources = 1\nmodulus = 16\nvalues = 5\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "t.log")])
    assert code == 2
    assert capsys.readouterr().out.strip() == "refused,,1"


def test_run_malformed_config_names_field(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("n_sources = 3\nmodulus = 32\nvalues = 9,9,22\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "t.log")])
    assert code == 1
    assert "'values'" in capsys.readouterr().err


def test_run_malformed_probability_names_field(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(THREE_NODE_CONFIG.replace("p = 1.0", "p = abc"))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "t.log")])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: field 'p': ")


def test_exit_codes_cover_every_outcome():
    assert set(_EXIT_BY_OUTCOME) == set(RoundOutcome)


def test_run_seed_override_changes_transcript(tmp_path, config_path):
    out_a = tmp_path / "a.log"
    out_b = tmp_path / "b.log"
    assert main(["run", "--config", config_path, "--out", str(out_a)]) == 0
    assert main(
        ["run", "--config", config_path, "--out", str(out_b), "--seed", "99"]
    ) == 0
    assert out_a.read_text() != out_b.read_text()


def test_attack_collusion_rows_exact(config_path, capsys):
    code = main(["attack", "--config", config_path, "--model", "collusion"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ATTACK_CSV_HEADER
    assert len(lines) == 2  # one middle target in a 3-node chain
    fields = lines[1].split(",")
    assert fields[0] == "collusion"
    assert fields[4] == "true"  # exact recovery
    assert fields[2] == fields[3]  # disclosed equals true value


def test_attack_probe_defense(config_path, capsys):
    code = main(["attack", "--config", config_path, "--model", "probe"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    fields = lines[1].split(",")
    assert fields[0] == "probe"
    assert fields[2] == ""  # nothing disclosed
    assert fields[5] == "true"  # defense fired


def test_attack_probe_ablation_discloses(config_path, capsys):
    code = main(["attack", "--config", config_path, "--model", "probe_ablation"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    fields = lines[1].split(",")
    assert fields[2] == fields[3]  # disclosed the initiator's true value
    assert fields[4] == "true"
    assert fields[5] == "false"


def test_attack_link_zero_probability_empty(config_path, capsys):
    code = main(["attack", "--config", config_path, "--model", "link:0.0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [ATTACK_CSV_HEADER]


def test_attack_link_full_probability_rows(config_path, capsys):
    code = main(["attack", "--config", config_path, "--model", "link:1.0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # every non-initiator node disclosed
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[2] == fields[3]


@pytest.mark.parametrize("model", ["link:xyz", "collusion:x"])
def test_attack_malformed_model_parameter_names_field(config_path, capsys, model):
    code = main(["attack", "--config", config_path, "--model", model])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: field 'adversary': ")


def test_attack_requires_model(config_path, capsys):
    code = main(["attack", "--config", config_path])
    assert code == 1
    assert "adversary" in capsys.readouterr().err


def test_curve_default_grid(capsys):
    code = main(["curve"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 22  # header + 21 grid rows
    header = lines[0]
    assert header == "b,p_cpda_formula,p_ours_formula,p_ours_empirical,trials"
    for line in lines[1:]:
        assert len(line.split(",")) == 5


def test_curve_ours_value_at_b_point_one(capsys):
    code = main(["curve", "--b-start", "0.1", "--b-stop", "0.1", "--b-step", "0.05"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    fields = lines[1].split(",")
    assert abs(float(fields[2]) - 0.19) < 1e-12


def test_curve_with_trials_populates_empirical(capsys):
    code = main(
        [
            "curve",
            "--b-start", "0.3", "--b-stop", "0.3", "--b-step", "0.1",
            "--trials", "2000",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    fields = lines[1].split(",")
    assert fields[4] == "2000"
    assert 0.0 <= float(fields[3]) <= 1.0


def test_curve_invalid_grid(capsys):
    assert main(["curve", "--b-stop", "1.5"]) == 1


def test_bench_chain_counts(capsys):
    code = main(["bench", "--scheme", "ours", "--sizes", "2..10", "--repetitions", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    for line in lines[1:]:
        fields = line.split(",")
        assert int(fields[2]) == int(fields[1]) + 1


def test_bench_cluster_counts_increase(capsys):
    code = main(["bench", "--scheme", "cpda", "--sizes", "3,4,5", "--repetitions", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert counts[0] < counts[1] < counts[2]


def test_bench_zero_repetitions_rejected(capsys):
    assert main(["bench", "--repetitions", "0"]) == 1


def test_bench_out_file(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--scheme", "ours", "--sizes", "5", "--repetitions", "2",
         "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("scheme,n_nodes,op_count")
