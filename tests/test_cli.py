import csv
import json
import math

import pytest

from tfcert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def thm1_config(tmp_path):
    return write_config(tmp_path, "thm1.json", {
        "dimension": 1,
        "function": {"family": "example1", "params": {"C": 8, "omega": 5}},
        "lambda": [[0, 0], [1, 1], [2, 0], [3, 2]],
    })


def test_certify_thm1_certified(thm1_config, capsys):
    code, out, _ = run(capsys, "certify", "thm1", "--config", thm1_config, "--no-meta")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["report"]["verdict"] == "Certified"
    assert doc["report"]["R"] == pytest.approx(0.375, abs=1e-6)


def test_certify_single_point_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, "n1.json", {
        "function": {"family": "gaussian"}, "lambda": [[0.5, 1.5]]})
    code, out, _ = run(capsys, "certify", "thm1", "--config", cfg, "--no-meta")
    assert code == 0


def test_certify_duplicate_times_exit_three(tmp_path, capsys):
    s2 = math.sqrt(2.0)
    cfg = write_config(tmp_path, "lp.json", {
        "function": {"family": "example1", "params": {"C": 8, "omega": 5}},
        "lambda": [[0, 0], [1, 0], [0, 1], [s2, s2]]})
    code, out, _ = run(capsys, "certify", "thm1", "--config", cfg, "--no-meta")
    assert code == 3
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "NotCertified"
    assert "time" in doc["report"]["note"]


def test_certify_thm2_and_thm3(tmp_path, capsys):
    cfg = write_config(tmp_path, "t2.json", {
        "function": {"family": "example2", "params": {"omega": 0}},
        "lambda": [[0, 0], [2, 0], [4, 0], [6, 1]]})
    code, out, _ = run(capsys, "certify", "thm2", "--config", cfg, "--no-meta")
    assert code == 0
    assert abs(json.loads(out)["report"]["translate_x"][0]) < 1 / 81

    cfg = write_config(tmp_path, "t3.json", {
        "function": {"family": "gaussian"},
        "lambda": [[0, 0], [1.5, 0], [0, 1.5]],
        "lattice": {"half_width": 8, "samples_per_axis": 128}})
    code, out, _ = run(capsys, "certify", "thm3", "--config", cfg, "--no-meta")
    assert code == 0
    assert json.loads(out)["report"]["sup_method"] == "DenseSample"


def test_certify_lemma1_and_corollaries(tmp_path, capsys):
    cfg = write_config(tmp_path, "l1.json", {
        "function": {"family": "example1", "params": {"C": 8, "omega": 0}},
        "shifts": [0, 1, 2, 3]})
    code, out, _ = run(capsys, "certify", "lemma1", "--config", cfg, "--no-meta")
    assert code == 0

    cfg = write_config(tmp_path, "c1.json", {
        "function": {"family": "gaussian"},
        "lambda": [[0, 0], [1, 0], [2, 0]], "r": 1.0})
    code, out, _ = run(capsys, "certify", "cor1", "--config", cfg, "--no-meta")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["theorem"] == "Cor1"
    assert doc["report"]["threshold_r"] == pytest.approx(2.1289, abs=1e-3)

    cfg = write_config(tmp_path, "c2.json", {
        "function": {"family": "gaussian"},
        "lambda": [[0, 0], [0, 1], [0, 2]]})
    code, out, _ = run(capsys, "certify", "cor2", "--config", cfg, "--no-meta")
    assert code == 0

    cfg = write_config(tmp_path, "c3.json", {
        "function": {"family": "gaussian"},
        "lambda": [[0, 0], [1, 1], [2, 2]], "r": 1.5})
    code, out, _ = run(capsys, "certify", "cor3", "--config", cfg, "--no-meta")
    assert code == 0


def test_oracle_gram(tmp_path, capsys):
    cfg = write_config(tmp_path, "g.json", {
        "function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 0]]})
    code, out, _ = run(capsys, "oracle", "gram", "--config", cfg, "--no-meta")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "Independent"
    assert doc["report"]["sigma_min"] == pytest.approx(1 - math.exp(-math.pi / 2),
                                                       abs=1e-6)


def test_oracle_gram_refusal_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "sc.json", {
        "function": {"family": "singular_cos", "params": {"omega": 1}},
        "lambda": [[0, 0], [3, 0]]})
    code, out, err = run(capsys, "oracle", "gram", "--config", cfg)
    assert code == 2
    assert "collocation" in err


def test_oracle_collocation_inconclusive_exit_four(tmp_path, capsys):
    zeros = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
    cfg = write_config(tmp_path, "co.json", {
        "function": {"family": "singular_cos", "params": {"omega": 1}},
        "lambda": [[0, 0]], "sample_points": zeros})
    code, out, _ = run(capsys, "oracle", "collocation", "--config", cfg, "--no-meta")
    assert code == 4


def test_oracle_er_residual(tmp_path, capsys):
    cfg = write_config(tmp_path, "er.json", {
        "er": {"half_width": 1.0, "step": 0.5, "quad_tol": 1e-9}})
    code, out, _ = run(capsys, "oracle", "er-residual", "--config", cfg, "--no-meta")
    assert code == 0
    assert json.loads(out)["report"]["max_abs_residual"] < 1e-6


def test_oracle_stft_identity_and_metaplectic(tmp_path, capsys):
    cfg = write_config(tmp_path, "si.json", {
        "function": {"family": "gaussian"}, "u": 1.0, "eta": 0.5,
        "lattice": {"half_width": 3, "samples_per_axis": 17}})
    code, out, _ = run(capsys, "oracle", "stft-identity", "--config", cfg, "--no-meta")
    assert code == 0
    assert json.loads(out)["report"]["max_abs_residual"] < 1e-8

    cfg = write_config(tmp_path, "mp.json", {
        "function": {"family": "gaussian"}, "kind": "dilation",
        "r": 2.0, "x": 1.0, "omega": 1.0})
    code, out, _ = run(capsys, "oracle", "metaplectic", "--config", cfg, "--no-meta")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["standard"]["max_abs_residual"] < 1e-10
    assert doc["report"]["printed"]["max_abs_residual"] > 0.1


def test_window_search_json_and_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, "ws.json", {
        "function": {"family": "gaussian"},
        "R": 2.0, "N": 2, "degree": 0, "budget": 20, "seed": 1})
    code, out, _ = run(capsys, "window-search", "--config", cfg, "--no-meta")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["achieved"] is True

    code, out, _ = run(capsys, "window-search", "--config", cfg, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][:2] == ["step", "width"]
    assert len(rows) >= 2


def test_window_search_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "ws2.json", {
        "function": {"family": "gaussian"},
        "R": 2.0, "N": 2, "degree": 1, "budget": 15, "seed": 0})
    _, out_a, _ = run(capsys, "window-search", "--config", cfg, "--no-meta",
                      "--seed", "5")
    _, out_b, _ = run(capsys, "window-search", "--config", cfg, "--no-meta",
                      "--seed", "5")
    assert out_a == out_b  # flag-selected seed is reproducible


def test_reproduce_recipes(capsys):
    for name in ("example1", "example2", "gaussian_stft", "dilation_scan"):
        code, out, _ = run(capsys, "reproduce", name, "--no-meta")
        assert code == 0, name
        doc = json.loads(out)
        assert doc["report"]["all_pass"] is True


def test_reproduce_example1_reports_discrepancy(capsys):
    code, out, _ = run(capsys, "reproduce", "example1", "--no-meta")
    assert code == 0
    items = {it["check"]: it for it in json.loads(out)["report"]["items"]}
    lit = items["four_point_set_literal_hypothesis"]
    assert lit["computed"]["M_literal"] == 0.0
    assert lit["computed"]["verdict"] == "NotCertified"
    assert "discrepancy" in lit["note"]


def test_reproduce_er_dependence(capsys):
    code, out, _ = run(capsys, "reproduce", "er_dependence", "--no-meta")
    assert code == 0
    item = json.loads(out)["report"]["items"][0]
    assert item["computed"]["max_abs_residual"] < 1e-6


def test_byte_identical_reruns(thm1_config, capsys):
    _, out1, _ = run(capsys, "certify", "thm1", "--config", thm1_config, "--no-meta")
    _, out2, _ = run(capsys, "certify", "thm1", "--config", thm1_config, "--no-meta")
    assert out1 == out2


def test_meta_block_present_by_default(thm1_config, capsys):
    _, out, _ = run(capsys, "certify", "thm1", "--config", thm1_config)
    doc = json.loads(out)
    assert "generated_at" in doc["meta"]
    assert "package_version" in doc["meta"]


def test_unknown_config_key_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "function": {"family": "gaussian"}, "lambda": [[0, 0]], "bogus": 1})
    code, _, err = run(capsys, "certify", "thm1", "--config", cfg)
    assert code == 1
    assert "bogus" in err


def test_missing_config_file_exit_one(capsys):
    code, _, err = run(capsys, "certify", "thm1", "--config", "/does/not/exist.json")
    assert code == 1


def test_bad_family_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "fam.json", {
        "function": {"family": "mystery"}, "lambda": [[0, 0]]})
    code, _, _ = run(capsys, "certify", "thm1", "--config", cfg)
    assert code == 1


@pytest.mark.parametrize("command, cfg", [
    (("window-search",), {"function": {"family": "gaussian"}, "N": 2}),
    (("window-search",), {"function": {"family": "gaussian"}, "R": 2.0, "N": "two"}),
    (("certify", "cor1"), {"function": {"family": "gaussian"},
                           "lambda": [[0, 0], [1, 0]], "r": "abc"}),
    (("certify", "thm1"), {"function": {"family": "example1", "params": {"C": "x"}},
                           "lambda": [[0, 0], [1, 0]]}),
    (("certify", "thm1"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 0]],
                           "grid": {"half_width": "inf"}}),
    (("certify", "thm1"), {"function": {"family": "gaussian"},
                           "lambda": [[math.nan, 0], [1, 0]]}),
])
def test_malformed_config_value_exit_one(tmp_path, capsys, command, cfg):
    path = write_config(tmp_path, "bad.json", cfg)
    code, _, err = run(capsys, *command, "--config", path)
    assert code == 1
    assert err.startswith("input error:") and err.count("\n") == 1


def test_rigorous_mode_refusals_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "t3r.json", {
        "function": {"family": "gaussian"}, "lambda": [[0, 0], [2, 0]]})
    code, _, err = run(capsys, "certify", "thm3", "--config", cfg, "--rigorous")
    assert code == 2


def test_csv_rejected_for_certificates(thm1_config, capsys):
    code, _, err = run(capsys, "certify", "thm1", "--config", thm1_config,
                       "--format", "csv")
    assert code == 1
    assert "csv" in err.lower()


def test_out_file_writing(tmp_path, thm1_config, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "certify", "thm1", "--config", thm1_config,
                       "--out", str(dest), "--no-meta")
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["report"]["verdict"] == "Certified"


def test_oracle_matrix_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, "g.json", {
        "function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 0]]})
    code, out, _ = run(capsys, "oracle", "gram", "--config", cfg, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["re_0", "im_0", "re_1", "im_1"]
    assert float(rows[1][0]) == pytest.approx(1.0, abs=1e-10)
