"""cross-test sizes what its settings ask for before it allocates or writes anything."""

import contextlib
import io
import json
import tracemalloc

from tetraopt.cli import main


def _run(tmp_path, payload, name="out"):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / name
    return main(["cross-test", "--config", str(cfg), "--out", str(out)]), out


def test_huge_shape_is_refused_before_the_output_directory(tmp_path, capsys):
    # The source train alone would be 2**40 floats (8 TiB).
    code, out = _run(tmp_path, {"shape": [2**40], "generator_rank": 1, "rank": 1, "sweeps": 1})
    assert code == 2
    assert not out.exists()
    assert "shape" in capsys.readouterr().err


def test_rank_is_counted_at_its_bounded_value(tmp_path):
    code, out = _run(tmp_path, {
        "shape": [3, 3, 3], "generator_rank": 10**9, "rank": 10**9, "sweeps": 1, "probes": 10,
    })
    assert code == 0
    assert (out / "cross_test.csv").exists()


def test_probe_check_peaks_near_the_index_columns_it_counts(tmp_path):
    # The size check counts 8 * d bytes per probe (its int64 index columns);
    # the rest is evaluated a fixed chunk at a time, covered by ALLOWANCE.
    d, probes, allowance = 4, 300_000, 4 * 2**20
    payload = {
        "shape": [4] * d, "generator_rank": 2, "rank": 2, "sweeps": 1,
        "probes": probes, "seeds": [0],
    }
    assert _run(tmp_path, payload, "warm")[0] == 0  # imports and caches outside the count
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code, _ = _run(tmp_path, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * d * probes + allowance
