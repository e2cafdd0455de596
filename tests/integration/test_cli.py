"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def corpus_file(tmp_path):
    corpus = {
        "small": ["a", "b", "c", "d", "e"],
        "contains_query": ["q%d" % i for i in range(30)]
        + ["x%d" % i for i in range(20)],
        "unrelated": ["u%d" % i for i in range(40)],
    }
    for i in range(20):
        corpus["fill%d" % i] = ["f%d_%d" % (i, j) for j in range(10 + i)]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    return path


@pytest.fixture()
def built(tmp_path, corpus_file):
    index_path = tmp_path / "index.lshe"
    rc = main(["build", str(corpus_file), str(index_path),
               "--partitions", "4", "--num-perm", "256"])
    assert rc == 0
    return index_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_requires_input(self, built):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", str(built)])


class TestBuild:
    def test_build_creates_index(self, built):
        assert built.exists()
        assert built.stat().st_size > 0

    def test_rejects_bad_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(SystemExit):
            main(["build", str(bad), str(tmp_path / "x.lshe")])

    def test_rejects_empty_domain(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"empty": []}))
        with pytest.raises(SystemExit):
            main(["build", str(bad), str(tmp_path / "x.lshe")])

    def test_rejects_non_object(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(SystemExit):
            main(["build", str(bad), str(tmp_path / "x.lshe")])


class TestQuery:
    def test_inline_values(self, built, capsys):
        rc = main(["query", str(built), "--values"]
                  + ["q%d" % i for i in range(30)]
                  + ["--threshold", "0.8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "contains_query" in out

    def test_query_file_array(self, built, tmp_path, capsys):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(["q%d" % i for i in range(30)]))
        rc = main(["query", str(built), "--query-file", str(qfile),
                   "--threshold", "0.8"])
        assert rc == 0
        assert "contains_query" in capsys.readouterr().out

    def test_query_file_object(self, built, tmp_path, capsys):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps({
            "first": ["q%d" % i for i in range(30)],
            "second": ["a", "b", "c", "d", "e"],
        }))
        rc = main(["query", str(built), "--query-file", str(qfile),
                   "--threshold", "0.8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "first" in out and "second" in out

    def test_top_k(self, built, capsys):
        rc = main(["query", str(built), "--values"]
                  + ["q%d" % i for i in range(30)] + ["--top-k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "contains_query" in out
        assert "~t" in out


class TestBatchQuery:
    @pytest.fixture()
    def batch_file(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({
            "first": ["q%d" % i for i in range(30)],
            "second": ["a", "b", "c", "d", "e"],
        }))
        return path

    def test_batch_file_matches_query_file(self, built, batch_file,
                                           capsys):
        rc = main(["query", str(built), "--batch-file", str(batch_file),
                   "--threshold", "0.8"])
        assert rc == 0
        batch_out = capsys.readouterr().out
        rc = main(["query", str(built), "--query-file", str(batch_file),
                   "--threshold", "0.8"])
        assert rc == 0
        loop_out = capsys.readouterr().out
        # Identical per-query result blocks; the batch mode just appends
        # a throughput summary line.
        assert loop_out.strip() in batch_out
        assert "queries answered in" in batch_out
        assert "contains_query" in batch_out

    def test_batch_file_top_k(self, built, batch_file, capsys):
        rc = main(["query", str(built), "--batch-file", str(batch_file),
                   "--top-k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "first: top 2" in out
        assert "second: top 2" in out
        assert "~t" in out

    def test_batch_file_rejects_array(self, built, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(["a", "b"]))
        with pytest.raises(SystemExit):
            main(["query", str(built), "--batch-file", str(bad)])

    def test_batch_file_rejects_empty_object(self, built, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({}))
        with pytest.raises(SystemExit):
            main(["query", str(built), "--batch-file", str(bad)])

    def test_batch_file_exclusive_with_values(self, built, batch_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", str(built), "--values", "a",
                 "--batch-file", str(batch_file)])


class TestInfo:
    def test_info_output(self, built, capsys):
        rc = main(["info", str(built)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "domains:" in out
        assert "partitions (4):" in out
        assert "num_perm:       256" in out

    def test_info_reports_format_and_backend(self, built, capsys):
        rc = main(["info", str(built)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "format:         v2" in out
        assert "backend:        dict" in out
        assert "partitioner:    equi_depth" in out


class TestBuildBackend:
    def test_backend_and_numba_options_are_gone(self, tmp_path,
                                                corpus_file, capsys):
        for extra in (["--backend", "dict"], ["--kernel", "numba"]):
            with pytest.raises(SystemExit) as exc:
                main(["build", str(corpus_file), str(tmp_path / "x.lshe")]
                     + extra)
            assert exc.value.code == 2  # argparse usage error
            assert extra[0] in capsys.readouterr().err
        assert not (tmp_path / "x.lshe").exists()

    def test_unknown_backend_rejected(self, tmp_path, corpus_file):
        with pytest.raises(SystemExit):
            main(["build", str(corpus_file), str(tmp_path / "x.lshe"),
                  "--backend", "no-such"])

    def test_query_no_mmap(self, built, capsys):
        rc = main(["query", str(built), "--no-mmap", "--values"]
                  + ["q%d" % i for i in range(30)]
                  + ["--threshold", "0.8"])
        assert rc == 0
        assert "contains_query" in capsys.readouterr().out

    def test_info_survives_unregistered_backend(self, built, capsys):
        # A header written while the bucket table was pluggable can
        # name a backend this build does not have (same-length
        # substitution keeps the header length field valid).
        built.write_bytes(built.read_bytes().replace(
            b'"storage":"dict"', b'"storage":"duck"'))
        rc = main(["info", str(built)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "format:         v2" in out
        assert "backend:        duck" in out
        assert "not loadable without overrides" in out


class TestInputErrors:
    """A missing or malformed input file is one ``error:`` line on
    stderr and exit status 2, never a traceback."""

    @staticmethod
    def _open_index(command, path):
        """argv that makes ``command`` open ``path`` as its index."""
        extra = ["--values", "a"] if command == "query" else []
        return [command, str(path)] + extra

    def _fails_cleanly(self, capsys, argv, path, reason):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: %s: " % path)
        assert captured.err.count("\n") == 1
        assert captured.err.count(str(path)) == 1
        assert reason in captured.err
        assert "Traceback" not in captured.err

    def test_missing_corpus(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        self._fails_cleanly(
            capsys, ["build", str(missing), str(tmp_path / "x.lshe")],
            missing, "No such file")
        assert not (tmp_path / "x.lshe").exists()

    @pytest.mark.parametrize("command", ["info", "query", "serve"])
    def test_missing_index(self, tmp_path, capsys, command):
        missing = tmp_path / "nope.lshe"
        self._fails_cleanly(capsys, self._open_index(command, missing),
                            missing, "No such file")

    def test_missing_query_file(self, built, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        self._fails_cleanly(
            capsys, ["query", str(built), "--query-file", str(missing)],
            missing, "No such file")

    @pytest.mark.parametrize("command", ["info", "query", "serve"])
    def test_bad_magic_index(self, tmp_path, capsys, command):
        garbage = tmp_path / "garbage.lshe"
        garbage.write_bytes(b"NOPE" + b"\x00" * 64)
        self._fails_cleanly(capsys, self._open_index(command, garbage),
                            garbage, "bad magic")

    @pytest.mark.parametrize("command", ["info", "query"])
    def test_v1_index_is_refused_as_retired(self, tmp_path, capsys,
                                            command):
        import struct

        header = b'{"keys":[],"sizes":[]}'
        old = tmp_path / "old.lshe"
        old.write_bytes(b"LSHE" + struct.pack("<I", 1)
                        + struct.pack("<I", len(header)) + header)
        self._fails_cleanly(capsys, self._open_index(command, old),
                            old, "retired")

    @pytest.mark.parametrize("command",
                             ["info", "query", "serve", "shardnode"])
    def test_retired_cluster_directory_is_refused(
            self, retired_cluster_dir, capsys, command):
        self._fails_cleanly(
            capsys, self._open_index(command, retired_cluster_dir),
            retired_cluster_dir, "sharded-cluster directory, a format "
            "that was retired")

    @pytest.mark.parametrize("command",
                             ["info", "query", "serve", "shardnode"])
    def test_directory_without_manifest_is_refused(self, tmp_path,
                                                   capsys, command):
        self._fails_cleanly(capsys, self._open_index(command, tmp_path),
                            tmp_path, "no manifest.json")

    def test_nameless_oserror_still_propagates(self, built, monkeypatch):
        # Socket binds, closed pipes: not an input-file problem.
        def boom(args):
            raise OSError("no file involved")

        monkeypatch.setattr("repro.cli._cmd_info", boom)
        with pytest.raises(OSError, match="no file involved"):
            main(["info", str(built)])


@pytest.fixture()
def more_corpus_file(tmp_path):
    more = {"late%d" % i: ["L%d_%d" % (i, j) for j in range(100 + 15 * i)]
            for i in range(8)}
    path = tmp_path / "more.json"
    path.write_text(json.dumps(more))
    return path


class TestDynamicCommands:
    def test_insert_converts_to_manifest_and_answers(self, built,
                                                     more_corpus_file,
                                                     capsys):
        rc = main(["insert", str(built), str(more_corpus_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inserted 8 domains" in out
        assert "delta 8" in out
        assert built.is_dir()  # single file converted in place
        rc = main(["query", str(built), "--values"]
                  + ["L3_%d" % j for j in range(145)]
                  + ["--threshold", "0.9"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "late3" in out

    def test_insert_duplicate_key_fails(self, built, tmp_path, capsys):
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps({"small": ["zz"]}))
        with pytest.raises(SystemExit, match="already in the index"):
            main(["insert", str(built), str(dup)])

    def test_remove_then_query_excludes(self, built, capsys):
        rc = main(["remove", str(built), "unrelated"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "removed 1 domains" in out
        assert "tombstones 1" in out
        rc = main(["query", str(built), "--values"]
                  + ["u%d" % i for i in range(40)] + ["--threshold", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "unrelated" not in out

    def test_remove_repeated_key_counts_once(self, built, capsys):
        rc = main(["remove", str(built), "unrelated", "unrelated"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "removed 1 domains" in out
        assert "tombstones 1" in out

    def test_remove_missing_key_fails_without_saving(self, built, capsys):
        with pytest.raises(SystemExit, match="ghost"):
            main(["remove", str(built), "small", "ghost"])
        rc = main(["query", str(built), "--values", "a", "b", "c", "d",
                   "e", "--threshold", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "small" in out  # the partial removal was not persisted

    def test_rebalance_compacts_manifest(self, built, more_corpus_file,
                                         capsys):
        main(["insert", str(built), str(more_corpus_file)])
        main(["remove", str(built), "small"])
        capsys.readouterr()
        rc = main(["rebalance", str(built)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rebalanced to generation 1" in out
        rc = main(["info", str(built)])
        out = capsys.readouterr().out
        assert "delta 0, tombstones 0 (generation 1, mutation epoch" in out

    def test_rebalance_respects_drift_gate(self, built, capsys):
        rc = main(["rebalance", str(built), "--if-drift-above", "0.9"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "leaving generation 0 untouched" in out

    def test_info_reports_tiers_and_drift(self, built, more_corpus_file,
                                          capsys):
        main(["insert", str(built), str(more_corpus_file)])
        capsys.readouterr()
        rc = main(["info", str(built)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "v3 (dynamic manifest)" in out
        assert "delta 8" in out
        assert "drift score:" in out

    def test_insert_auto_rebalance_threshold(self, built, more_corpus_file,
                                             capsys):
        rc = main(["insert", str(built), str(more_corpus_file),
                   "--auto-rebalance-at", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "auto-rebalanced to generation" in out
        rc = main(["info", str(built)])
        out = capsys.readouterr().out
        assert "auto-rebalance: at drift score >= 0.05" in out
