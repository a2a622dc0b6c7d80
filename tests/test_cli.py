"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(["simulate", "-n", "10", "-o", "x.jsonl"])
        assert args.connections == 10
        assert args.scenario == "two-week"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_stream_args(self):
        args = build_parser().parse_args(
            ["stream", "-n", "500", "--checkpoint", "ck.json"]
        )
        assert args.connections == 500
        assert args.checkpoint == "ck.json"
        assert not args.resume
        assert not args.no_cache

    def test_classify_fast_path_args(self):
        args = build_parser().parse_args(
            ["classify", "s.jsonl", "--no-cache"]
        )
        assert args.no_cache
        assert args.cache_size is None


class TestCommands:
    def test_signatures_lists_all_nineteen(self, capsys):
        assert main(["signatures"]) == 0
        out = capsys.readouterr().out
        assert out.count("post-syn") == 4
        assert out.count("post-ack") == 5
        assert out.count("post-psh") == 8
        assert out.count("post-data") == 2

    def test_simulate_then_classify(self, tmp_path, capsys):
        out_path = str(tmp_path / "samples.jsonl")
        assert main(["simulate", "-n", "40", "--seed", "3", "-o", out_path]) == 0
        text = capsys.readouterr().out
        assert "wrote" in text

        assert main(["classify", out_path]) == 0
        text = capsys.readouterr().out
        assert "not_tampering" in text
        assert "connections" in text

    def test_classify_cache_flags_agree(self, tmp_path, capsys):
        out_path = str(tmp_path / "samples.jsonl")
        assert main(["simulate", "-n", "60", "--seed", "5", "-o", out_path]) == 0
        capsys.readouterr()

        assert main(["classify", out_path]) == 0
        cached = capsys.readouterr().out
        assert main(["classify", out_path, "--no-cache"]) == 0
        uncached = capsys.readouterr().out
        # Identical signature tables from both paths.
        assert cached == uncached

    def test_classify_cache_size_flag(self, tmp_path, capsys):
        out_path = str(tmp_path / "samples.jsonl")
        assert main(["simulate", "-n", "20", "--seed", "5", "-o", out_path]) == 0
        capsys.readouterr()
        assert main(["classify", out_path, "--cache-size", "8"]) == 0
        assert "connections" in capsys.readouterr().out

    def test_simulate_with_pcap(self, tmp_path, capsys):
        out_path = str(tmp_path / "s.jsonl")
        pcap_path = str(tmp_path / "s.pcap")
        assert main(["simulate", "-n", "15", "-o", out_path, "--pcap", pcap_path]) == 0
        from repro.netstack.pcap import read_pcap

        assert len(read_pcap(pcap_path)) > 0

    def test_report(self, capsys):
        assert main(["report", "-n", "150", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "possibly tampered" in out
        assert "Top tampered countries" in out

    def test_iran_scenario(self, tmp_path, capsys):
        out_path = str(tmp_path / "iran.jsonl")
        assert main(["simulate", "-n", "30", "--scenario", "iran", "-o", out_path]) == 0

    def test_evidence(self, tmp_path, capsys):
        out_path = str(tmp_path / "e.jsonl")
        assert main(["simulate", "-n", "60", "--seed", "5", "-o", out_path]) == 0
        capsys.readouterr()
        assert main(["evidence", out_path]) == 0
        out = capsys.readouterr().out
        assert "injection evidence" in out

    def test_profiles_roundtrip_through_simulate(self, tmp_path, capsys):
        profiles_path = str(tmp_path / "profiles.json")
        assert main(["profiles", "-o", profiles_path]) == 0
        out_path = str(tmp_path / "sim.jsonl")
        assert main(["simulate", "-n", "20", "--profiles", profiles_path,
                     "-o", out_path]) == 0

    def test_fingerprints(self, tmp_path, capsys):
        out_path = str(tmp_path / "f.jsonl")
        assert main(["simulate", "-n", "80", "--seed", "9", "-o", out_path]) == 0
        capsys.readouterr()
        assert main(["fingerprints", out_path, "--min-count", "1"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint clusters" in out

    def test_stream_scenario(self, capsys):
        assert main(["stream", "--scenario", "two-week", "-n", "150",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "stream finished" in out
        assert "top tampered countries" in out
        assert "throughput" in out

    def test_stream_from_jsonl(self, tmp_path, capsys):
        out_path = str(tmp_path / "cap.jsonl")
        assert main(["simulate", "-n", "40", "--seed", "3", "-o", out_path]) == 0
        capsys.readouterr()
        assert main(["stream", out_path]) == 0
        out = capsys.readouterr().out
        assert "stream finished" in out

    def test_stream_checkpoint_and_resume(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.json")
        assert main(["stream", "-n", "120", "--seed", "4", "--checkpoint", ck,
                     "--checkpoint-interval", "30", "--max-samples", "60"]) == 0
        out = capsys.readouterr().out
        assert "stream stopped" in out
        assert "rerun with --resume" in out
        assert main(["stream", "-n", "120", "--seed", "4", "--checkpoint", ck,
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "stream finished" in out

    def test_stream_resume_requires_checkpoint(self, capsys):
        assert main(["stream", "-n", "10", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_radar_export(self, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "radar.json")
        assert main(["radar", "-n", "400", "--seed", "3", "--min-cell", "2",
                     "-o", out_path]) == 0
        with open(out_path) as fh:
            records = json.load(fh)
        assert records, "low floor should publish at least one cell"
        assert all(r["connections"] >= 2 for r in records)


class TestQueryCommand:
    def test_query_args(self):
        args = build_parser().parse_args(
            ["query", "dir", "--family", "timeseries", "--start", "0",
             "--end", "7200", "--countries", "IR,CN"]
        )
        assert args.store == "dir"
        assert args.family == "timeseries"
        assert (args.start, args.end) == (0.0, 7200.0)
        assert args.countries == "IR,CN"

    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("cli-query") / "store")
        assert main(["stream", "-n", "200", "--seed", "4",
                     "--store", directory]) == 0
        return directory

    def test_stream_announces_store(self, store_dir, capsys):
        capsys.readouterr()
        assert main(["stream", "-n", "40", "--seed", "4", "--store",
                     store_dir + "-announce"]) == 0
        out = capsys.readouterr().out
        assert "rollup store at" in out
        assert "store:" in out  # metrics line

    def test_query_all_families(self, store_dir, capsys):
        assert main(["query", store_dir]) == 0
        out = capsys.readouterr().out
        assert "Tampering rate by country" in out
        assert "scanned" in out
        assert main(["query", store_dir, "--family", "timeseries"]) == 0
        assert "Hourly tampering timeseries" in capsys.readouterr().out
        assert main(["query", store_dir, "--family", "stage_statistics"]) == 0
        assert "Tampering by connection stage" in capsys.readouterr().out

    def test_query_signature_hour_counts_needs_country(self, store_dir, capsys):
        from repro.errors import StoreError

        with pytest.raises(StoreError, match="requires a country"):
            main(["query", store_dir, "--family", "signature_hour_counts"])
        assert main(["query", store_dir, "--family", "signature_hour_counts",
                     "--country", "IR"]) == 0
        assert "Signature activity for IR" in capsys.readouterr().out

    def test_query_json_output(self, store_dir, capsys):
        import json

        assert main(["query", store_dir, "--family", "stage_statistics",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == "stage_statistics"
        assert payload["value"]["total_connections"] == 200

    def test_query_missing_store_fails_without_mkdir(self, tmp_path):
        from repro.errors import StoreError

        missing = str(tmp_path / "typo")
        with pytest.raises(StoreError, match="no rollup store"):
            main(["query", missing])
        assert not (tmp_path / "typo").exists()
