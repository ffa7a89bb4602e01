"""The bench trajectory file's merge protocol and its CI regression gate.

``BENCH_ep.json`` is co-owned by benchmarks with *different* workload
metadata, so the merge must be a deep merge: a section that carries its own
``workload`` block must not clobber another section's block (the historical
shallow ``dict.update`` did exactly that once heterogeneous keys appeared).
``check_regression.py`` then gates every ``slices_per_second`` leaf — at
any nesting depth — against the committed baseline.
"""

import json

import bench_io
import check_regression
from bench_io import deep_merge, merge_bench_entries


def _homogeneous_payload():
    return {
        "benchmark": "ep-kernel",
        "workload": {"arch": "x86", "n_hosts": 64, "n_events": 44},
        "slices_per_second": {"reference": 137.3, "batched": 896.24},
    }


def _hetero_entries():
    return {
        "megabatch": {
            "workload": {"n_hosts": 64, "distinct_signatures": 148},
            "solve": {
                "workload": {"ep_damping": 0.6},
                "slices_per_second": {"fragmented": 234.5, "megabatch": 831.8},
            },
        }
    }


class TestDeepMerge:
    def test_heterogeneous_keys_do_not_clobber_the_64_host_block(self):
        payload = _homogeneous_payload()
        deep_merge(payload, _hetero_entries())
        # The homogeneous bench's workload metadata survives intact...
        assert payload["workload"] == {"arch": "x86", "n_hosts": 64, "n_events": 44}
        assert payload["slices_per_second"]["batched"] == 896.24
        # ...and the heterogeneous section landed beside it.
        assert payload["megabatch"]["solve"]["slices_per_second"]["megabatch"] == 831.8

    def test_sections_merge_key_by_key(self):
        payload = _homogeneous_payload()
        deep_merge(payload, _hetero_entries())
        # A later writer adding a sibling subsection keeps the earlier one.
        deep_merge(
            payload,
            {"megabatch": {"fleet": {"slices_per_second": {"megabatch": 854.4}}}},
        )
        assert payload["megabatch"]["solve"]["workload"] == {"ep_damping": 0.6}
        assert payload["megabatch"]["fleet"]["slices_per_second"] == {
            "megabatch": 854.4
        }

    def test_leaves_replace_rather_than_merge(self):
        payload = {"slices_per_second": {"batched": 1.0}, "rounds": {"batched": 2}}
        deep_merge(payload, {"slices_per_second": {"batched": 2.0}})
        assert payload["slices_per_second"]["batched"] == 2.0
        assert payload["rounds"] == {"batched": 2}


class TestMergeBenchEntries:
    def test_merge_into_existing_file_preserves_other_sections(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(_homogeneous_payload()))
        merge_bench_entries(_hetero_entries(), path=path)
        payload = json.loads(path.read_text())
        assert payload["workload"]["n_events"] == 44
        assert payload["megabatch"]["workload"]["distinct_signatures"] == 148

    def test_committed_file_is_written_only_when_recording(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH.json"
        monkeypatch.setattr(bench_io, "BENCH_PATH", path)
        monkeypatch.delenv(bench_io.RECORD_ENV_VAR, raising=False)
        merge_bench_entries({"a": 1})
        assert not path.exists()
        monkeypatch.setenv(bench_io.RECORD_ENV_VAR, "1")
        merge_bench_entries({"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}

    def test_corrupt_file_is_replaced(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text("{not json")
        merge_bench_entries({"a": 1}, path=path)
        assert json.loads(path.read_text()) == {"a": 1}


class TestRegressionGate:
    def test_throughput_keys_flatten_nested_sections(self):
        payload = _homogeneous_payload()
        deep_merge(payload, _hetero_entries())
        rates = check_regression.throughput_keys(payload)
        assert rates["slices_per_second.batched"] == 896.24
        assert rates["megabatch.solve.slices_per_second.fragmented"] == 234.5
        assert rates["megabatch.solve.slices_per_second.megabatch"] == 831.8

    def test_ingest_lines_per_second_is_a_gated_rate(self):
        payload = _homogeneous_payload()
        deep_merge(
            payload,
            {
                "ingest": {
                    "workload": {"n_intervals": 1500},
                    "lines_per_second": {"stat-csv": 51000.0, "jsonl": 38000.0},
                }
            },
        )
        rates = check_regression.throughput_keys(payload)
        assert rates["ingest.lines_per_second.stat-csv"] == 51000.0
        assert rates["ingest.lines_per_second.jsonl"] == 38000.0
        # ...and it is gated like any other throughput key.
        assert rates["slices_per_second.batched"] == 896.24

    def test_ingest_regression_trips_the_gate(self, tmp_path):
        baseline = _homogeneous_payload()
        deep_merge(
            baseline, {"ingest": {"lines_per_second": {"stat-csv": 51000.0}}}
        )
        fresh = json.loads(json.dumps(baseline))
        fresh["ingest"]["lines_per_second"]["stat-csv"] = 10000.0
        assert self._gate(tmp_path, baseline, fresh) == 1

    def _gate(self, tmp_path, baseline, fresh, threshold=0.30):
        base = tmp_path / "baseline.json"
        new = tmp_path / "fresh.json"
        base.write_text(json.dumps(baseline))
        new.write_text(json.dumps(fresh))
        return check_regression.main(
            [str(base), str(new), "--threshold", str(threshold)]
        )

    def test_within_threshold_passes(self, tmp_path):
        baseline = _homogeneous_payload()
        fresh = json.loads(json.dumps(baseline))
        fresh["slices_per_second"]["batched"] *= 0.8  # -20% < 30% threshold
        assert self._gate(tmp_path, baseline, fresh) == 0

    def test_nested_heterogeneous_key_is_gated(self, tmp_path):
        baseline = _homogeneous_payload()
        deep_merge(baseline, _hetero_entries())
        fresh = json.loads(json.dumps(baseline))
        fresh["megabatch"]["solve"]["slices_per_second"]["megabatch"] = 100.0
        assert self._gate(tmp_path, baseline, fresh) == 1

    def test_disappeared_key_fails(self, tmp_path):
        baseline = _homogeneous_payload()
        deep_merge(baseline, _hetero_entries())
        fresh = json.loads(json.dumps(baseline))
        del fresh["megabatch"]
        assert self._gate(tmp_path, baseline, fresh) == 1

    def test_new_keys_are_allowed(self, tmp_path):
        baseline = _homogeneous_payload()
        fresh = json.loads(json.dumps(baseline))
        deep_merge(fresh, _hetero_entries())
        assert self._gate(tmp_path, baseline, fresh) == 0
