import contextlib
import copy
import csv
import io
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfcert import cli, funcs, tfops, windowsearch
from tfcert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, name, obj):
    """`obj` as JSON in tmp_path/name; a str is written as the document's text."""
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
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


def test_certify_thm1_anchor_recentres_the_family_envelope(tmp_path, capsys):
    # |f(-2)| = 1/2 exceeds the bound |f(2)|/2 = 1/4 at distance 4 from the
    # anchor, so R = 4 is false; the origin envelope moved by ||a|| = 2 gives 6.
    cfg = write_config(tmp_path, "anchored.json", {
        "function": {"family": "example1", "params": {"C": 8, "omega": 0}},
        "lambda": [[0, 0], [5, 0], [10, 0]], "anchor": 2})
    code, out, _ = run(capsys, "certify", "thm1", "--config", cfg, "--rigorous", "--no-meta")
    report = json.loads(out)["report"]
    assert code == 3
    assert report["verdict"] == "NotCertified"
    assert report["sup_method"] == "Envelope"
    assert report["R"] == pytest.approx(6.0, abs=1e-6)


def test_certify_single_point_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, "n1.json", {
        "function": {"family": "gaussian"}, "lambda": [[0.5, 1.5]]})
    code, out, _ = run(capsys, "certify", "thm1", "--config", cfg, "--no-meta")
    assert code == 0


@pytest.mark.parametrize("theorem, lam, threshold", [
    ("cor1", [[0, 0], [0, 1]], 0.0),    # one time: no stretch r in (0, M/R)
    ("cor3", [[0, 0], [1, 0]], None),   # one frequency: no r above +inf (null)
])
def test_certify_zero_separation_dilation_exit_three(tmp_path, capsys, theorem, lam, threshold):
    # Like thm1 and cor2 on the same sets, the corollary is not certified
    # and exits 3; its threshold admits no stretch factor.
    cfg = write_config(tmp_path, "zero.json", {"function": {"family": "gaussian"}, "lambda": lam})
    code, out, err = run(capsys, "certify", theorem, "--config", cfg, "--no-meta")
    assert code == 3 and err == ""
    report = json.loads(out)["report"]
    assert report["verdict"] == "NotCertified"
    assert report["threshold_r"] == threshold


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


@pytest.mark.parametrize("theorem, lam, axis, other", [
    ("thm1", [[0, 0], [0, 1]], "time", "frequency"),
    ("cor2", [[0, 0], [1, 0]], "frequency", "time"),
    ("cor3", [[0, 0], [1, 0]], "frequency", "time"),
])
def test_certify_zero_separation_note_names_its_coordinates(tmp_path, capsys, theorem, lam,
                                                            axis, other):
    # Corollaries 2 and 3 separate the frequencies, Theorem 1 the times.
    cfg = write_config(tmp_path, "zero.json", {"function": {"family": "gaussian"},
                                               "lambda": lam})
    code, out, _ = run(capsys, "certify", theorem, "--config", cfg, "--no-meta")
    note = json.loads(out)["report"]["note"]
    assert code == 3
    assert axis in note and other not in note


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


def test_certify_thm3_in_two_dimensions_needs_an_envelope_exit_two(tmp_path, capsys):
    # The lattice scan is 1-D and a config carries no STFT envelope.
    cfg = write_config(tmp_path, "thm3-2d.json", {
        "dimension": 2, "function": {"family": "gaussian", "params": {"n": 2}},
        "lambda": [[0, 0, 0, 0], [2, 0, 0, 0]]})
    code, out, err = run(capsys, "certify", "thm3", "--config", cfg, "--no-meta")
    assert code == 2 and out == ""
    assert err.startswith("refused:") and err.count("\n") == 1
    assert "supply stft_envelope" in err


def test_certify_thm2_repeated_time_exits_three(tmp_path, capsys):
    cfg = write_config(tmp_path, "t2.json", {
        "function": {"family": "singular_cos", "params": {"omega": 1.0}},
        "lambda": [[0, 0], [0, 1], [3, 0]]})
    code, out, err = run(capsys, "certify", "thm2", "--config", cfg, "--no-meta")
    assert (code, err) == (3, "")
    rep = json.loads(out)["report"]
    assert rep["verdict"] == "NotCertified" and rep["R"] == rep["M"] == 0.0
    assert rep["peak"] is None and rep["bound"] is None
    assert rep["margins"] == [0.0, 3.0, 3.0]
    assert "min pairwise time separation is zero" in rep["note"]


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
    assert list(doc["report"]) == ["standard"]
    assert doc["report"]["standard"]["max_abs_residual"] < 1e-10
    assert doc["report"]["standard"]["phase_optimized"] is False
    assert doc["report"]["standard"]["best_phase"] == [1.0, 0.0]


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


def test_window_search_accepts_and_ignores_seed(tmp_path, capsys):
    # the search is deterministic; configs written for the seeded search
    # still carry a seed, which must not change the exit code or a byte
    # (with seeded restarts, seeds 0, 7 and 2^31 - 1 found three windows here)
    base = {"function": {"family": "example1", "params": {"C": 4, "omega": 1}},
            "R": 1.5, "N": 3, "degree": 0, "budget": 20,
            "grid": {"half_width": 8.0, "samples_per_axis": 256},
            "lattice": {"half_width": 8.0, "samples_per_axis": 21}}
    results = set()
    for seed in (None, 0, 7, 2 ** 31 - 1, -1):
        cfg = base if seed is None else dict(base, seed=seed)
        code, out, err = run(capsys, "window-search", "--no-meta",
                             "--config", write_config(tmp_path, "ws.json", cfg))
        results.add((code, out, err))
    assert len(results) == 1
    assert results.pop()[0] in (0, 3)


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


_SEARCH = {"function": {"family": "gaussian"}, "R": 1.5, "N": 3, "budget": 10}


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
    (("certify", "thm1"), {"function": {"family": "gaussian"},
                           "lambda": [[0, 0], [1, 0]], "anchor": "abc"}),
    (("oracle", "stft-identity"), {"function": {"family": "gaussian"}, "u": "x"}),
    (("oracle", "stft-identity"), {"function": {"family": "gaussian"}, "u": [1, 2]}),
    (("oracle", "stft-identity"), {"function": {"family": "gaussian"}, "eta": math.inf}),
    (("certify", "thm1"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 0]],
                           "grid": {"samples_per_axis": 1e400}}),
    (("window-search",), {"function": {"family": "gaussian"}, "R": 2.0, "N": 1e400}),
    (("certify", "thm1"), {"function": {"family": "gaussian", "params": 5},
                           "lambda": [[0, 0], [1, 0]]}),
    (("certify", "thm1"), {"function": {"family": "gaussian"}, "lambda": [[0, "a"], [1, 0]]}),
    (("certify", "thm1"), {"function": {"family": "gaussian"}, "lambda": 7}),
    # sizes and counts beyond what the library allocates or finishes
    (("certify", "cor3"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 1]],
                           "grid": {"samples_per_axis": 1e30}}),
    (("certify", "thm3"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [2, 0]],
                           "grid": {"samples_per_axis": 1e30}}),
    (("oracle", "gram"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 0]],
                          "grid": {"samples_per_axis": 1e30}}),
    (("certify", "thm3"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [2, 0]],
                           "lattice": {"samples_per_axis": 1e30}}),
    (("oracle", "stft-identity"), {"function": {"family": "gaussian"},
                                   "lattice": {"samples_per_axis": 1e30}}),
    (("window-search",), {"function": {"family": "gaussian"}, "R": 2.0, "N": 2,
                          "lattice": {"samples_per_axis": 1e30}}),
    (("window-search",), {"function": {"family": "gaussian"}, "R": 2.0, "N": 0}),
    (("window-search",), {"function": {"family": "gaussian"}, "R": 2.0, "N": 2,
                          "budget": 1e308}),
    (("certify", "thm1"), {"function": {"family": "gaussian", "params": {"n": 1e30}},
                           "lambda": [[0, 0], [1, 0]]}),
    (("oracle", "gram"), {"function": {"family": "edgar_rosenblatt", "quad_tol": 1e-18},
                          "lambda": [[0, 0, 0, 0], [1, 0, 0, 0]]}),
    # the lattice has no exclusion radius
    (("certify", "thm3"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [2, 0]],
                           "lattice": {"exclusion_radius": 3}}),
    # non-finite shifts, refused like a non-finite anchor or sample point
    (("certify", "lemma1"), {"function": {"family": "gaussian"}, "shifts": [0, math.nan]}),
    (("certify", "lemma1"), {"function": {"family": "gaussian"}, "shifts": [0, math.inf]}),
    # int(2.7) would truncate and float(True) would read 1.0; both are refused
    (("window-search",), dict(_SEARCH, N=2.7)),
    (("window-search",), dict(_SEARCH, degree=True)),
    (("window-search",), dict(_SEARCH, budget=10.5)),
    (("window-search",), dict(_SEARCH, grid={"samples_per_axis": 10.5})),
    (("window-search",), dict(_SEARCH, function={"family": "gaussian", "params": {"n": 1.5}})),
    (("window-search",), dict(_SEARCH, R=True)),
    (("certify", "thm1"), {"function": {"family": "example1", "params": {"C": True}},
                           "lambda": [[0, 0], [2, 0]]}),
    # no field takes a boolean, point lists included, where numpy would read 1 and 0
    (("certify", "thm1"), {"function": {"family": "gaussian"},
                           "lambda": [[True, False], [3, 0]]}),
    (("certify", "lemma1"), {"function": {"family": "gaussian"}, "shifts": [True, 3]}),
    (("certify", "thm1"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [2, 0]],
                           "anchor": True}),
    (("oracle", "collocation"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 1]],
                                 "sample_points": [0, True, 2]}),
    (("oracle", "metaplectic"), {"function": {"family": "gaussian"}, "kind": "dilation",
                                 "sample_points": [0, False]}),
    (("oracle", "gram"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [True, 0]]}),
    # quad_tol is a parameter of edgar_rosenblatt alone
    (("certify", "thm1"), {"function": {"family": "gaussian", "quad_tol": 1e-5},
                           "lambda": [[0, 0], [2, 0]]}),
    # a document that is not an object, and required keys left out
    (("certify", "thm1"), [[0, 0], [2, 0]]),
    (("certify", "lemma1"), {"function": {"family": "gaussian"}}),
    (("oracle", "metaplectic"), {"function": {"family": "gaussian"}}),
    # 4096^2 nodes of a dense 2-D Fourier quadrature, beyond MAX_NODES
    (("certify", "cor2"), {"dimension": 2, "function": {"family": "gaussian", "params": {"n": 2}},
                           "lambda": [[0, 0, 0, 0], [1, 0, 0, 0]],
                           "grid": {"samples_per_axis": 4096}}),
    # a document nested past the interpreter's recursion limit
    pytest.param(("certify", "lemma1"), '{"function": {"family": "gaussian"}, "shifts": '
                 + "[" * 100_000 + "]" * 100_000 + "}", id="nested-past-recursion-limit"),
])
def test_malformed_config_value_exit_one(tmp_path, capsys, command, cfg):
    path = write_config(tmp_path, "bad.json", cfg)
    code, _, err = run(capsys, *command, "--config", path)
    assert code == 1
    assert err.startswith("input error:") and err.count("\n") == 1


_HUGE = 10 ** 400  # JSON integers parse exactly; no float holds this one


@pytest.mark.parametrize("command, cfg", [
    (("certify", "lemma1"), {"function": {"family": "gaussian"}, "shifts": [0, _HUGE]}),
    (("certify", "thm1"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 0]],
                           "anchor": [_HUGE]}),
    (("oracle", "collocation"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 1]],
                                 "sample_points": [0, 1, _HUGE]}),
    (("oracle", "metaplectic"), {"function": {"family": "gaussian"}, "kind": "dilation",
                                 "sample_points": [0, _HUGE]}),
    (("window-search",), dict(_SEARCH, N=_HUGE)),
], ids=["lemma1-shifts", "thm1-anchor", "collocation-sample-points",
        "metaplectic-sample-points", "window-search-N"])
def test_integer_beyond_float_range_exit_one(tmp_path, capsys, monkeypatch, command, cfg):
    # The window search refuses such an N before it builds its scan.
    def no_scan(*args, **kwargs):
        raise AssertionError("the tail scan was built")
    monkeypatch.setattr(windowsearch, "_TailScan", no_scan)
    path = write_config(tmp_path, "huge.json", cfg)
    code, out, err = run(capsys, *command, "--config", path)
    assert code == 1 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_input_error_names_a_huge_value_by_its_size(tmp_path, capsys):
    # The one error line names a 401-digit R, or a long string, by its type
    # and size instead of quoting it.
    for R, shown in ((_HUGE, "an int of 401 digits"), ("x" * 100, "a str of 102 characters")):
        path = write_config(tmp_path, "huge-r.json", dict(_SEARCH, R=R))
        code, out, err = run(capsys, "window-search", "--config", path)
        assert code == 1 and out == ""
        assert err.startswith("input error:") and err.count("\n") == 1
        assert len(err) < 200 and shown in err


@pytest.mark.parametrize("text", [
    b'{"function": {"family": "gaussian"}, "shifts": [0, 1' + b"0" * 5000 + b"]}",
    b'{"function": {"family": "gaussian"}, "shifts": [0, 1], "\xff": 1}',
], ids=["integer-past-the-digit-limit", "not-utf-8"])
def test_config_json_python_cannot_read_exit_one(tmp_path, capsys, text):
    # Python refuses to parse an integer of more than 4,300 digits, and the
    # config is read as UTF-8: both are input errors, not tracebacks.
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    code, out, err = run(capsys, "certify", "lemma1", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_convert_keeps_integral_floats_numeric_strings_and_big_integers():
    from tfcert.errors import InputError, convert
    assert convert(int, 3.0, "N") == 3 and convert(int, "3", "N") == 3
    assert convert(int, 10 ** 30, "N") == 10 ** 30 and convert(int, 1e30, "N") == int(1e30)
    assert math.isnan(convert(float, "nan", "r")) and convert(float, 2, "r") == 2.0
    for kind, value in ((int, 2.5), (int, math.inf), (int, math.nan), (int, True),
                        (float, False), (int, "2.5")):
        with pytest.raises(InputError, match="must be"):
            convert(kind, value, "x")
    # an int with more digits than Python writes as text is named by its bits
    with pytest.raises(InputError, match="R must be float, got an int of 16610 bits"):
        convert(float, 10 ** 5000, "R")


@pytest.mark.parametrize("command, extra", [
    (("certify", "cor2"), {"lambda": [[0, 0], [3, 1]]}),
    (("certify", "cor3"), {"lambda": [[0, 0], [3, 1]], "r": 1.5}),
    (("oracle", "metaplectic"), {"kind": "fourier_multiplier", "r": 0.3, "x": 0.5,
                                 "omega": 0.5}),
], ids=["cor2", "cor3", "fourier_multiplier"])
def test_fourier_of_singular_cos_exit_two(tmp_path, capsys, command, extra):
    # cos t/|t| is not square-integrable, so its Fourier quadrature is refused
    path = write_config(tmp_path, "sc.json", dict(
        extra, function={"family": "singular_cos", "params": {"omega": 1}}))
    code, out, err = run(capsys, *command, "--config", path, "--no-meta")
    assert code == 2 and out == ""
    assert "square-integrable" in err


@pytest.mark.parametrize("command, extra", [
    (("certify", "thm3"), {"lambda": [[0, 0], [3, 1]]}),
    (("window-search",), {"R": 1.5, "N": 3, "budget": 10}),
    (("oracle", "stft-identity"), {"u": 0.5, "eta": 0.5}),
], ids=["thm3", "window-search", "stft-identity"])
def test_stft_of_singular_cos_exit_two(tmp_path, capsys, command, extra):
    # the STFT refuses a non-L2 f as every quadrature does, with exit 2
    path = write_config(tmp_path, "sc.json", dict(
        extra, function={"family": "singular_cos", "params": {"omega": 1}}))
    code, out, err = run(capsys, *command, "--config", path, "--no-meta")
    assert code == 2 and out == ""
    assert err.startswith("refused:") and err.count("\n") == 1
    assert "not flagged square-integrable" in err


def test_corollary1_refuses_a_singular_function_as_theorem1_does(tmp_path, capsys):
    path = write_config(tmp_path, "e2.json", {
        "function": {"family": "example2", "params": {"omega": 0}},
        "lambda": [[0, 0], [2, 0], [4, 1]]})
    errs = []
    for theorem in ("cor1", "thm1"):
        code, out, err = run(capsys, "certify", theorem, "--config", path, "--no-meta")
        assert code == 1 and out == ""
        assert err.startswith("input error:") and err.count("\n") == 1
        errs.append(err)
    assert errs[0] == errs[1]


@pytest.mark.parametrize("points", ["abc", [1.0, math.nan], [0.0, math.inf], []])
def test_metaplectic_bad_sample_points_exit_one(tmp_path, capsys, points):
    path = write_config(tmp_path, "bad.json", {
        "function": {"family": "gaussian"}, "kind": "fourier_multiplier",
        "r": 0.25, "sample_points": points})
    code, out, err = run(capsys, "oracle", "metaplectic", "--config", path)
    assert code == 1 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_collocation_nonfinite_sample_points_exit_one(tmp_path, capsys):
    path = write_config(tmp_path, "bad.json", {
        "function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 1]],
        "sample_points": [0.1, math.nan, 0.5]})
    code, _, err = run(capsys, "oracle", "collocation", "--config", path)
    assert code == 1
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("theorem", ["cor1", "cor3"])
@pytest.mark.parametrize("r", [math.nan, "nan", math.inf, -math.inf])
def test_nonfinite_stretch_factor_exit_one(tmp_path, capsys, theorem, r):
    path = write_config(tmp_path, "bad.json", {
        "function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 1]], "r": r})
    code, _, err = run(capsys, "certify", theorem, "--config", path)
    assert code == 1
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "finite" in err


@pytest.mark.parametrize("command", [("oracle", "collocation"), ("oracle", "gram"),
                                     ("certify", "thm1")])
@pytest.mark.parametrize("function", [
    {"family": "example1", "params": {"C": math.nan, "omega": 1}},
    {"family": "example2", "params": {"omega": math.nan}},
])
def test_nonfinite_family_parameter_exit_one(tmp_path, capsys, command, function):
    path = write_config(tmp_path, "bad.json", {"function": function,
                                               "lambda": [[0, 0], [1, 1]]})
    code, out, err = run(capsys, *command, "--config", path)
    assert code == 1 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "finite" in err


@pytest.mark.parametrize("command, cfg", [
    (("oracle", "stft-identity"), {"function": {"family": "gaussian"}, "u": 1e308}),
    (("oracle", "metaplectic"), {"function": {"family": "gaussian"}, "kind": "dilation",
                                 "r": 2.0, "omega": 1e308}),
    (("oracle", "gram"), {"function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 1e308]]}),
    (("oracle", "collocation"), {"function": {"family": "gaussian"},
                                 "lambda": [[0, 0], [1, 1e308]]}),
    # the shift x / r of the dilated side overflows
    (("oracle", "metaplectic"), {"function": {"family": "gaussian"}, "kind": "dilation",
                                 "r": 1e-310, "x": 1.5}),
    # the shifted lattice xs - u overflows
    (("oracle", "stft-identity"), {"function": {"family": "gaussian"}, "u": 1.7e308,
                                   "lattice": {"half_width": 1.7e308, "samples_per_axis": 5}}),
])
def test_nonfinite_result_refused_exit_two(tmp_path, capsys, command, cfg):
    path = write_config(tmp_path, "huge.json", cfg)
    code, out, err = run(capsys, *command, "--config", path)
    assert code == 2 and out == ""
    assert err.startswith("refused:") and err.count("\n") == 1


@pytest.fixture
def first_point_residual(monkeypatch):
    """Run the residual on the lattice's first point only, so that a lattice
    that is not refused exits 0 at once instead of running for hours."""
    residual = cli.dependence_residual_er
    monkeypatch.setattr(cli, "dependence_residual_er",
                        lambda points, quad_tol: residual(points[:1], quad_tol))


@pytest.mark.parametrize("er", [
    {"step": 0}, {"step": math.nan}, {"step": -0.25}, {"half_width": math.nan},
    {"half_width": -1}, {"step": 1e-300}, {"quad_tol": 1e-18}, {"quad_tol": 1e-320},
    None, 3, True, [[1]], [],
    # few points, but far out: each evaluation costs in proportion to |a|, |b|
    {"half_width": 1e4, "step": 25}, {"half_width": 1e5, "step": 250},
])
def test_bad_er_lattice_exit_one(tmp_path, capsys, first_point_residual, er):
    path = write_config(tmp_path, "bad.json", {"er": er})
    code, out, err = run(capsys, "oracle", "er-residual", "--config", path)
    assert code == 1 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.fixture
def bounded_dense_sums(monkeypatch):
    """Fail at once, instead of running for minutes, if a dense phase sum
    beyond 2^29 phases builds its kernel."""
    fourier_sum = tfops._fourier_sum

    def refuse(*args):
        raise AssertionError("a dense phase sum beyond the bound started")

    def bounded(targets, nodes, *rest):
        with monkeypatch.context() as mp:
            if targets.shape[0] * nodes.shape[0] > 1 << 29:
                mp.setattr(tfops, "_folded_planes", refuse)
            return fourier_sum(targets, nodes, *rest)
    monkeypatch.setattr(tfops, "_fourier_sum", bounded)


_GAUSSIAN_2D = {"dimension": 2, "function": {"family": "gaussian", "params": {"n": 2}},
                "lambda": [[0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 0, 2]]}


@pytest.mark.parametrize("theorem, cfg", [
    # the 2-D decay scan of fhat on the default 512^2 grid: 6.9e10 exps
    ("cor2", _GAUSSIAN_2D),
    ("cor3", dict(_GAUSSIAN_2D, r=1.5)),
    # an odd grid puts a node on the singularity; dropping it loses the chirp-z path
    ("cor2", {"function": {"family": "example2", "params": {"omega": 0.5}},
              "lambda": [[0, 0], [2, 1], [4, 2]], "grid": {"samples_per_axis": 65537}}),
])
def test_dense_fourier_sum_beyond_bound_exit_one(tmp_path, capsys, bounded_dense_sums,
                                                 theorem, cfg):
    path = write_config(tmp_path, "dense.json", cfg)
    code, out, err = run(capsys, "certify", theorem, "--config", path)
    assert code == 1 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("certify", "bogus", "--config", "{cfg}"),
    ("certify", "thm1"),
    # each flag is registered only on the subcommand that reads it
    ("oracle", "gram", "--config", "{cfg}", "--rigorous"),
    ("oracle", "gram", "--config", "{cfg}", "--seed", "3"),
    ("certify", "thm1", "--config", "{cfg}", "--seed", "3"),
    ("window-search", "--config", "{cfg}", "--seed", "3"),
    ("reproduce", "example1", "--rigorous"),
])
def test_usage_error_exit_one(thm1_config, capsys, argv):
    code, out, err = run(capsys, *(a.format(cfg=thm1_config) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0
    assert "--rigorous" in capsys.readouterr().out


def test_rigorous_mode_refusals_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "t3r.json", {
        "function": {"family": "gaussian"}, "lambda": [[0, 0], [2, 0]]})
    code, _, err = run(capsys, "certify", "thm3", "--config", cfg, "--rigorous")
    assert code == 2


GAUSSIAN_ROWS = {"function": {"family": "gaussian"}, "lambda": [[0, 0], [2, 2], [4, 4]]}
ER_ONE_POINT = {"dimension": 2, "function": {"family": "edgar_rosenblatt"},
                "lambda": [[0, 0, 0, 0]]}


@pytest.mark.parametrize("theorem, cfg, want", [
    ("lemma1", {"function": {"family": "gaussian"}, "shifts": [0, 2, 4]}, 0),
    ("thm1", GAUSSIAN_ROWS, 0),
    ("cor1", GAUSSIAN_ROWS, 0),
    ("thm2", {"function": {"family": "example2", "params": {"omega": 0}},
              "lambda": [[0, 0], [2, 0], [4, 0], [6, 1]]}, 0),
    ("cor2", GAUSSIAN_ROWS, 2),
    ("cor3", GAUSSIAN_ROWS, 2),
    ("thm3", GAUSSIAN_ROWS, 2),
    # No envelope: one point would be vacuously Certified by dense sampling.
    ("thm1", ER_ONE_POINT, 2),
    ("cor1", ER_ONE_POINT, 2),
    # The rule reads the certificate's sup_method after the check has run,
    # so a malformed `lambda` is an input error first.
    ("thm1", dict(ER_ONE_POINT, **{"lambda": "x"}), 1),
])
def test_rigorous_mode_runs_only_envelope_backed_checks(tmp_path, capsys, theorem, cfg, want):
    path = write_config(tmp_path, "rig.json", cfg)
    code, out, err = run(capsys, "certify", theorem, "--config", path, "--rigorous",
                         "--no-meta")
    assert code == want
    if want in (1, 2):
        prefix = "refused: " if want == 2 else "input error: "
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1
    else:
        assert json.loads(out)["report"]["sup_method"] in ("Envelope", "Pointwise")


def test_rigorous_thm1_without_grid_certifies_a_3d_gaussian(tmp_path, capsys):
    # Envelope mode needs no quadrature grid, so a config without a `grid`
    # section must not ask for a default grid in dimensions beyond 2.
    cfg = write_config(tmp_path, "g3.json", {
        "dimension": 3, "function": {"family": "gaussian", "params": {"n": 3}},
        "lambda": [[0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]})
    code, out, _ = run(capsys, "certify", "thm1", "--config", cfg, "--rigorous", "--no-meta")
    report = json.loads(out)["report"]
    assert code == 0
    assert report["verdict"] == "Certified"
    assert report["sup_method"] == "Envelope"
    assert report["R"] == pytest.approx(math.sqrt(math.log(2.0) / math.pi), abs=1e-8)


def test_three_dimensional_gaussian_gram_is_independent(tmp_path, capsys):
    # the Gram matrix of a factored function is taken per axis, so a 3-D
    # Gaussian needs no 3-D quadrature grid
    cfg = write_config(tmp_path, "g3.json", {
        "dimension": 3, "function": {"family": "gaussian", "params": {"n": 3}},
        "lambda": [[0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 1, 0],
                   [0.5, -0.5, 1, 0, 0, 0.5]]})
    code, out, _ = run(capsys, "oracle", "gram", "--config", cfg, "--no-meta")
    report = json.loads(out)["report"]
    assert code == 0
    assert report["verdict"] == "Independent"
    assert report["matrix_dim"] == [4, 4]


def test_far_anchor_er_scan_is_refused_at_once(tmp_path, capsys, monkeypatch):
    # The dense 512^2 scan about this anchor runs at reach 1.4e4, about a
    # minute of ER quadrature. The patched block gives up after 6e6 points
    # counted max(1, reach / 25) times, the evaluator's bound, so that a scan
    # that is not refused fails here in seconds instead of running.
    block, counted = funcs._er_block, [0.0]

    def bounded(a, b, tol):
        counted[0] += a.size * max(1.0, max(np.abs(a).max(), np.abs(b).max()) / 25.0)
        if counted[0] > 6e6:
            raise AssertionError("ER evaluation ran past the work bound")
        return block(a, b, tol)

    monkeypatch.setattr(funcs, "_er_block", bounded)
    cfg = write_config(tmp_path, "far.json", {
        "function": {"family": "edgar_rosenblatt"},
        "lambda": [[0, 0, 0, 0], [1, 0, 0, 0]], "anchor": [1e4, 1e4]})
    t0 = time.perf_counter()
    code, out, err = run(capsys, "certify", "thm1", "--config", cfg)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_er_collocation_beyond_the_reach_cap_is_refused_at_once(tmp_path, capsys, monkeypatch):
    # One sample point at reach 2e4 is far within the ER work bound, but it
    # lies beyond the reach cap; no ER block may run.
    evaluated = []
    monkeypatch.setattr(funcs, "_er_block", lambda a, b, tol: evaluated.append(a.size)
                        or np.zeros(a.size, dtype=complex))
    cfg = write_config(tmp_path, "far.json", {
        "function": {"family": "edgar_rosenblatt"},
        "lambda": [[0, 0, 0, 0]], "sample_points": [[2e4, 0]]})
    code, out, err = run(capsys, "oracle", "collocation", "--config", cfg)
    assert code == 1 and out == "" and evaluated == []
    assert err.startswith("input error: Edgar-Rosenblatt evaluations beyond reach 10001")
    assert err.count("\n") == 1


def test_stft_default_window_takes_the_dimension_of_f(tmp_path, capsys):
    one = {"function": {"family": "example1", "params": {"C": 4, "omega": 1}},
           "lambda": [[0, 0], [2.5, 0], [0, 2.5]]}
    two = {"dimension": 2, "function": {"family": "gaussian", "params": {"n": 2}},
           "lambda": [[0, 0, 0, 0]]}
    explicit = dict(one, window={"family": "gaussian", "params": {"n": 1}})
    outs = [run(capsys, "certify", "thm3", "--config", write_config(tmp_path, "c.json", cfg),
                "--no-meta") for cfg in (one, explicit, two)]
    assert outs[0] == outs[1]
    code, out, err = outs[2]
    assert code == 0 and err == ""
    assert json.loads(out)["report"]["verdict"] == "Certified"
    cfg = write_config(tmp_path, "id.json", {"dimension": 2, "function": two["function"],
                                             "u": 0.5, "eta": 0.5})
    code, out, err = run(capsys, "oracle", "stft-identity", "--config", cfg)
    assert code == 1 and out == ""
    assert err == "input error: identity residual scan is implemented for dimension 1\n"


def test_thm3_window_of_another_dimension_names_each_dimension(tmp_path, capsys):
    cfg = write_config(tmp_path, "w2.json", {
        "function": {"family": "gaussian"}, "window": {"family": "gaussian", "params": {"n": 2}},
        "lambda": [[0, 0], [2, 0]]})
    code, out, err = run(capsys, "certify", "thm3", "--config", cfg)
    assert code == 1 and out == ""
    assert err == ("input error: dimension mismatch: f has dimension 1, g has dimension 2, "
                   "lam has dimension 1\n")


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


def test_json_report_builds_no_csv_rows(tmp_path, capsys, monkeypatch):
    def refuse(matrix):
        raise AssertionError("CSV rows built for a JSON report")
    monkeypatch.setattr(cli, "_matrix_csv", refuse)
    cfg = write_config(tmp_path, "g.json", {
        "function": {"family": "gaussian"}, "lambda": [[0, 0], [1, 0]]})
    code, out, _ = run(capsys, "oracle", "gram", "--config", cfg, "--no-meta")
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "Independent"


def test_main_calls_share_one_parser(thm1_config, capsys, monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    for _ in range(2):
        assert run(capsys, "certify", "thm1", "--config", thm1_config, "--no-meta")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


# ---------------------------------------------------------------------------
# one-field config fuzz
# ---------------------------------------------------------------------------

_GRID = {"half_width": 8.0, "samples_per_axis": 256}
_EXAMPLE1 = {"family": "example1", "params": {"C": 4, "omega": 1}}
_FUZZ_BASES = [
    (("certify", "lemma1"), {"dimension": 1, "function": _EXAMPLE1, "shifts": [0, 1, 2],
                             "grid": _GRID}),
    (("certify", "thm1"), {"dimension": 1, "function": _EXAMPLE1, "anchor": 0,
                           "lambda": [[0, 0], [1, 1], [2, 0]], "grid": _GRID}),
    (("certify", "cor1"), {"function": {"family": "gaussian", "params": {"n": 1}},
                           "lambda": [[0, 0], [1, 0], [2, 0]], "r": 1.0, "grid": _GRID}),
    (("certify", "cor2"), {"function": {"family": "gaussian"},
                           "lambda": [[0, 0], [0, 1], [0, 2]], "grid": _GRID}),
    (("certify", "cor3"), {"function": _EXAMPLE1, "lambda": [[0, 0], [1, 1], [2, 2]],
                           "r": 1.5, "grid": _GRID}),
    (("certify", "thm2"), {"function": {"family": "example2", "params": {"omega": 0}},
                           "lambda": [[0, 0], [2, 0], [4, 0], [6, 1]], "grid": _GRID}),
    (("certify", "thm3"), {"function": {"family": "gaussian"}, "window": {"family": "gaussian"},
                           "lambda": [[0, 0], [1.5, 0], [0, 1.5]], "grid": _GRID,
                           "lattice": {"half_width": 8.0, "samples_per_axis": 48}}),
    (("oracle", "gram"), {"function": _EXAMPLE1, "lambda": [[0, 0], [1, 1]], "grid": _GRID}),
    (("oracle", "collocation"), {"function": {"family": "singular_cos", "params": {"omega": 1}},
                                 "lambda": [[0, 0], [3, 1]], "sample_points": [0.5, 1.5, 2.5],
                                 "grid": _GRID}),
    (("oracle", "er-residual"), {"er": {"half_width": 1.0, "step": 0.5, "quad_tol": 1e-9}}),
    (("oracle", "stft-identity"), {"function": {"family": "gaussian"},
                                   "window": {"family": "gaussian"}, "u": 1.0, "eta": 0.5,
                                   "lattice": {"half_width": 3.0, "samples_per_axis": 17},
                                   "grid": _GRID}),
    (("oracle", "metaplectic"), {"function": {"family": "gaussian"}, "kind": "dilation",
                                 "r": 2.0, "x": 1.0, "omega": 1.0,
                                 "sample_points": [-1.0, 0.0, 0.5, 1.0], "grid": _GRID}),
    (("oracle", "metaplectic"), {"function": _EXAMPLE1, "kind": "fourier_multiplier",
                                 "r": 0.25, "x": 1.0, "omega": 0.5, "grid": _GRID}),
    (("window-search",), {"function": {"family": "gaussian"}, "R": 2.0, "N": 2, "degree": 1,
                          "budget": 10, "seed": 1, "grid": _GRID,
                          "lattice": {"half_width": 8.0, "samples_per_axis": 21}}),
]
_DELETE = object()
_MUTATIONS = ["x", None, True, [], {}, [[1]],              # malformed
              1e8,                                         # far: above 2^23, below horizons
              1e30, 1e308, -1e308, 10 ** 30,               # huge
              0, -1, 1e-18, 1e-320,                        # tiny
              math.nan, math.inf, -math.inf,               # non-finite
              _DELETE]


def _field_paths(obj, prefix=()):
    """Paths to every value of a config: object keys and the first two
    entries of each list, at any depth."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj[:2]) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


_FUZZ_CASES = [(command, base, path) for command, base in _FUZZ_BASES
               for path in _field_paths(base)]


def _check_one_field_mutation(case, value):
    """Run `case` with one field set to `value` (or deleted) in-process.

    Malformed input exits 1 with one `input error:` line; numbers too large
    to evaluate are refused; nothing escapes main, prints NaN or Infinity,
    or warns (a warning is one more stderr line of the console script), and
    no certificate rests on a peak that was not finite.
    """
    command, base, path = case
    cfg = copy.deepcopy(base)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.json"
        config.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([*command, "--config", str(config), "--no-meta"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3, 4)
    assert code == 1 or value is not True, "no config field takes a boolean"
    assert not caught, [str(w.message) for w in caught]
    if code == 1:
        assert err.startswith("input error:") and err.count("\n") == 1, err
    assert "NaN" not in out and "Infinity" not in out
    if code in (0, 3, 4) and "peak" in json.loads(out)["report"]:
        assert json.loads(out)["report"]["peak"] is not None  # a certificate's |f| or |<f, g>|


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(case=st.sampled_from(_FUZZ_CASES), value=st.sampled_from(_MUTATIONS))
def test_one_field_config_mutation_fuzz(case, value):
    _check_one_field_mutation(case, value)


def test_one_field_far_band_values_in_every_field():
    # The fuzz draws 400 of its (case, value) pairs, and its draws of 1e8
    # miss some cases. Values above 2^23, where adjacent floats lie further
    # apart than an absolute bisection tolerance, once hung the envelope
    # bisection, so every field takes both signs of one such value here.
    for case in _FUZZ_CASES:
        for value in (1e8, -1e8):
            _check_one_field_mutation(case, value)
