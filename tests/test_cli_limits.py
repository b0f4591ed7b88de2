"""Count settings that would need an array over 1 GiB are config errors, refused before any output."""

import json

from tetraopt.cli import main


def _run(tmp_path, command, payload):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    return main([command, "--config", str(cfg), "--out", str(out)]), out


def test_oversized_batch_is_refused(tmp_path, capsys):
    code, out = _run(tmp_path, "bench-parallel", {
        "objective": {"name": "quadratic", "dimension": 2, "latency_s": 0.01},
        "batch_size": 10**12,
        "levels": [1],
    })
    assert code == 2
    assert not out.exists()
    assert "batch_size" in capsys.readouterr().err


def test_oversized_probe_set_is_refused(tmp_path, capsys):
    code, out = _run(tmp_path, "cross-test", {
        "shape": [4, 4, 4], "generator_rank": 1, "rank": 1, "sweeps": 1, "probes": 10**12,
    })
    assert code == 2
    assert not out.exists()
    assert "probes" in capsys.readouterr().err

