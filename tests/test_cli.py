import builtins
import concurrent.futures
import csv
import hashlib
import importlib
import logging
import os
import pickle
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import dgt
from dgt import cli, game_engine
from dgt.errors import AuditError
from dgt.initialization import write_ground_truth
from dgt.snapshot_graph import read_edge_list, write_edge_list
from dgt.synth import SynthConfig, generate

from test_acceptance import FIXTURE
from test_synth import DIGESTS, FIXTURE_CFG, synth_digest


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data")
    seq, truth = generate(FIXTURE_CFG)
    write_edge_list(seq, path / "edges.txt")
    write_ground_truth(truth, seq, path / "truth.csv")
    # x has no edge in snapshots 0 and 2; node 0 has edges in snapshot 1 anyway
    (path / "nodes.txt").write_text("# label snapshot\nx 0\nx 2\n0 1\n", encoding="utf-8")
    return path


def tree_digest(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
    }


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_end_to_end(self, data_dir, tmp_path):
        out = tmp_path / "out"
        rc = cli.main([
            "run", "--input", str(data_dir / "edges.txt"),
            "--truth", str(data_dir / "truth.csv"),
            "--variant", "dgt", "--gain", "similarity",
            "--repetitions", "2", "--seed", "7",
            "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == FIXTURE_CFG.num_snapshots + 1  # + summary
        assert rows[-1]["t"] == "summary"
        for row in rows[:-1]:
            assert row["nmi"] != ""
            assert 0.0 <= float(row["nmi"]) <= 1.0
            assert row["n_communities_true"] != ""
        churn = read_csv(out / "churn.csv")
        assert len(churn) == FIXTURE_CFG.num_snapshots - 1

    def test_partition_files_parse_and_cover(self, data_dir, tmp_path):
        out = tmp_path / "out"
        rc = cli.main([
            "run", "--input", str(data_dir / "edges.txt"),
            "--variant", "dgts", "--repetitions", "1",
            "--out", str(out),
        ])
        assert rc == 0
        seq = read_edge_list(data_dir / "edges.txt")
        for t in range(FIXTURE_CFG.num_snapshots):
            rows = read_csv(out / f"communities_t{t}_rep0.csv")
            nodes = {row["node_label"] for row in rows}
            expected = {str(seq.label_of(v)) for v in seq.snapshots[t].nodes}
            assert nodes == expected
            assert all(row["community_id"] for row in rows)

    def test_metrics_without_truth_blank(self, data_dir, tmp_path):
        out = tmp_path / "out"
        rc = cli.main([
            "run", "--input", str(data_dir / "edges.txt"),
            "--variant", "dgts", "--repetitions", "1",
            "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out / "metrics.csv")
        assert all(row["nmi"] == "" for row in rows[:-1])
        assert all(row["modularity"] != "" for row in rows[:-1])

    def test_dgtg_requires_truth(self, data_dir, tmp_path, capsys):
        rc = cli.main([
            "run", "--input", str(data_dir / "edges.txt"),
            "--variant", "dgtg", "--repetitions", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "--truth" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        rc = cli.main([
            "run", "--input", str(tmp_path / "nope.txt"),
            "--variant", "dgts", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("bad_file", ["edges", "nodes", "truth"])
    def test_non_utf8_input_exits_one(self, tmp_path, capsys, bad_file):
        files = {"edges": b"a b 0\nb c 0\n", "nodes": b"d 0\n",
                 "truth": b"snapshot,node_label,community_label\n0,a,x\n"}
        files[bad_file] = b"\xff\xfe" + files[bad_file]
        for name, data in files.items():
            (tmp_path / f"{name}.txt").write_bytes(data)
        rc = cli.main(["run", "--input", str(tmp_path / "edges.txt"),
                       "--nodes", str(tmp_path / "nodes.txt"),
                       "--truth", str(tmp_path / "truth.txt"),
                       "--variant", "dgts", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not UTF-8" in err

    def test_oversized_truth_field_exits_one(self, tmp_path, capsys):
        (tmp_path / "edges.txt").write_text("a b 0\nb c 0\n", encoding="utf-8")
        truth = tmp_path / "truth.csv"
        truth.write_text("snapshot,node_label,community_label\n0,a," + "x" * 200_000 + "\n",
                         encoding="utf-8")
        rc = cli.main(["run", "--input", str(tmp_path / "edges.txt"), "--truth", str(truth),
                       "--variant", "dgts", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"dgt: error: {truth}:2: field larger than field limit")

    def test_edgeless_declared_snapshot_named_by_its_input_ordinal(self, tmp_path, capsys):
        (tmp_path / "edges.txt").write_text("a b 0\nb c 0\n", encoding="utf-8")
        (tmp_path / "nodes.txt").write_text("x 5\n", encoding="utf-8")
        rc = cli.main(["run", "--input", str(tmp_path / "edges.txt"),
                       "--nodes", str(tmp_path / "nodes.txt"), "--variant", "dgts",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "dgt: error: snapshot 5 has no edges\n"

    def test_negative_node_list_ordinal_named_by_its_line(self, tmp_path, capsys):
        (tmp_path / "edges.txt").write_text("a b 0\nb c 0\n", encoding="utf-8")
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("x 0\n# y -2\ny -1\n", encoding="utf-8")
        rc = cli.main(["run", "--input", str(tmp_path / "edges.txt"), "--nodes", str(nodes),
                       "--variant", "dgts", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"dgt: error: {nodes}:3: negative snapshot ordinal -1\n"

    def test_negative_edge_list_ordinal_named_by_its_line(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b 0\nb c -2\nc a 0\n", encoding="utf-8")
        rc = cli.main(["run", "--input", str(edges), "--variant", "dgts",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"dgt: error: {edges}:2: negative snapshot ordinal -2\n"

    def test_truth_label_that_int_rejects_is_skipped(self, tmp_path, caplog):
        (tmp_path / "edges.txt").write_text("a b 0\nb c 0\nc a 0\n", encoding="utf-8")
        (tmp_path / "truth.csv").write_text(
            "snapshot,node_label,community_label\n0,a,x\n0,\u00b2,y\n0,b,x\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="dgt"):
            rc = cli.main(["run", "--input", str(tmp_path / "edges.txt"),
                           "--truth", str(tmp_path / "truth.csv"), "--variant", "dgts",
                           "--repetitions", "1", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert [r.getMessage() for r in caplog.records] == [
            "skipped 1 ground-truth row(s) naming unknown nodes or snapshots"]
        assert read_csv(tmp_path / "out" / "metrics.csv")[0]["n_communities_true"] == "1"

    def test_truth_read_by_input_ordinal(self, tmp_path):
        # snapshots 1 and 2 of the files are t=0 and t=1 of every output
        (tmp_path / "edges.txt").write_text(
            "a b 1\nb c 1\nc a 1\na b 2\nb a 2\nc d 2\nd c 2\n", encoding="utf-8")
        (tmp_path / "truth.csv").write_text(
            "snapshot,node_label,community_label\n1,a,x\n1,b,x\n1,c,x\n"
            "2,a,x\n2,b,x\n2,c,y\n2,d,y\n", encoding="utf-8")
        rc = cli.main(["run", "--input", str(tmp_path / "edges.txt"),
                       "--truth", str(tmp_path / "truth.csv"), "--variant", "dgts",
                       "--repetitions", "1", "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = read_csv(tmp_path / "out" / "metrics.csv")[:-1]
        assert [(row["t"], row["n_communities_true"]) for row in rows] == [("0", "1"), ("1", "2")]
        assert all(row["nmi"] != "" for row in rows)

    def test_snapshot_without_truth_rows_has_no_true_count(self, tmp_path):
        # truth rows for ordinal 1 only: snapshot 0 has no true count, not 0
        (tmp_path / "edges.txt").write_text(
            "a b 0\nb c 0\nc a 0\na b 1\nc d 1\nd e 1\n", encoding="utf-8")
        (tmp_path / "truth.csv").write_text(
            "snapshot,node_label,community_label\n1,a,x\n1,b,x\n1,c,y\n1,d,y\n1,e,y\n",
            encoding="utf-8")
        rc = cli.main(["run", "--input", str(tmp_path / "edges.txt"),
                       "--truth", str(tmp_path / "truth.csv"), "--repetitions", "2",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert [(row["n_communities_true"], row["nmi"] == "") for row in rows[:-1]] == [
            ("", True), ("2", False)]
        assert rows[-1]["n_communities_true"] == "2.0±0.0"

    def test_snapshot_without_truth_rows_is_not_scored_with_pooled_unlabeled(self, tmp_path):
        # pooling every node of snapshot 0 into `__unlabeled__` would score it 0.0
        (tmp_path / "edges.txt").write_text(
            "a b 0\nb c 0\nc a 0\na b 1\nc d 1\nd e 1\n", encoding="utf-8")
        (tmp_path / "truth.csv").write_text(
            "snapshot,node_label,community_label\n1,a,x\n1,b,x\n1,c,y\n1,d,y\n1,e,y\n",
            encoding="utf-8")
        runs = {}
        for flag in ([], ["--unlabeled-as-community"]):
            out = tmp_path / f"out{len(flag)}"
            rc = cli.main(["run", "--input", str(tmp_path / "edges.txt"),
                           "--truth", str(tmp_path / "truth.csv"), "--repetitions", "2",
                           *flag, "--out", str(out)])
            assert rc == 0
            runs[bool(flag)] = read_csv(out / "metrics.csv")
        assert runs[True][0]["nmi"] == ""
        # every labeled node of snapshot 1 is present, so the flag changes nothing
        assert runs[True] == runs[False]
        assert runs[True][-1]["nmi"] == "0.5897275217561566±0.0"

    def test_truth_community_named_like_the_pooled_unlabeled_stays_its_own(self, tmp_path):
        # d is alone in its truth community and e, f are unlabeled: pooled
        # under a name, a community of that name joined the pool (NMI 0.558)
        (tmp_path / "edges.txt").write_text(
            "a b 0\nb c 0\nc a 0\nc d 0\nd e 0\ne f 0\nf d 0\n", encoding="utf-8")
        nmis = []
        for name in ("y", "__unlabeled__"):
            (tmp_path / "truth.csv").write_text(
                f"snapshot,node_label,community_label\n0,a,x\n0,b,x\n0,c,x\n0,d,{name}\n",
                encoding="utf-8")
            out = tmp_path / f"out-{name}"
            rc = cli.main(["run", "--input", str(tmp_path / "edges.txt"),
                           "--truth", str(tmp_path / "truth.csv"), "--variant", "dgts",
                           "--unlabeled-as-community", "--repetitions", "1", "--out", str(out)])
            assert rc == 0
            nmis.append(read_csv(out / "metrics.csv")[0]["nmi"])
        assert nmis == ["0.7216162598446756"] * 2

    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_non_finite_window_exits_one(self, tmp_path, capsys, width):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("a b 0\nb c 10\n", encoding="utf-8")
        rc = cli.main(["run", "--input", str(edge_file), "--snapshot-by", f"window:{width}",
                       "--variant", "dgts", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "window width" in err

    @pytest.mark.parametrize("stamps", [("0", "1e999"), ("nan", "5"), ("-1e308", "1e308")])
    def test_unbucketable_timestamp_exits_one(self, tmp_path, capsys, stamps):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text(f"a b {stamps[0]}\nb c {stamps[1]}\n", encoding="utf-8")
        rc = cli.main(["run", "--input", str(edge_file), "--snapshot-by", "window:60",
                       "--variant", "dgts", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "timestamp" in err

    def test_bad_flag_exits_one(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "run", "--input", str(data_dir / "edges.txt"),
                "--variant", "nonsense", "--out", str(tmp_path / "out"),
            ])
        assert exc.value.code == 1

    def test_negative_seed_exits_one(self, data_dir, tmp_path, capsys):
        rc = cli.main(["run", "--input", str(data_dir / "edges.txt"), "--variant", "dgts",
                       "--seed", "-1", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "rng_seed must be >= 0" in err

    def test_diagnostics_files(self, data_dir, tmp_path):
        out = tmp_path / "out"
        rc = cli.main([
            "run", "--input", str(data_dir / "edges.txt"),
            "--variant", "dgts", "--repetitions", "1",
            "--diagnostics", "--out", str(out),
        ])
        assert rc == 0
        diag = read_csv(out / "diagnostics_t0_rep0.csv")
        assert list(diag[0]) == ["pass", "changed_agents", "total_utility"]
        assert len(diag) >= 1

    @pytest.mark.parametrize("gain", ["similarity", "modularity"])
    def test_diagnostics_leave_other_outputs_unchanged(self, data_dir, tmp_path, gain):
        # without --diagnostics the per-pass totals are skipped; the game
        # and every other output must not notice
        digests = []
        for extra in ([], ["--diagnostics"]):
            out = tmp_path / f"out{len(extra)}"
            rc = cli.main([
                "run", "--input", str(data_dir / "edges.txt"),
                "--truth", str(data_dir / "truth.csv"),
                "--variant", "dgt", "--gain", gain, "--repetitions", "2",
                "--seed", "5", *extra, "--out", str(out),
            ])
            assert rc == 0
            digests.append(tree_digest(out))
        plain, diagnosed = digests
        assert not any(name.startswith("diagnostics_") for name in plain)
        assert {name: digest for name, digest in diagnosed.items()
                if not name.startswith("diagnostics_")} == plain
        assert {"metrics.csv", "churn.csv", "communities_t0_rep0.csv"} <= plain.keys()

    def test_pass_cap_reported_once(self, data_dir, tmp_path, caplog):
        messages = []
        for max_passes in ("1", "8"):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="dgt"):
                rc = cli.main(["run", "--input", str(data_dir / "edges.txt"),
                               "--variant", "dgt", "--repetitions", "2", "--seed", "5",
                               "--max-passes", max_passes,
                               "--out", str(tmp_path / f"out{max_passes}")])
            assert rc == 0
            messages.append([r.getMessage() for r in caplog.records])
        assert messages == [
            ["6 of 6 game(s) stopped at the pass cap (--max-passes 1) with agents still changing"],
            [],
        ]

    def test_undirected_mode(self, data_dir, tmp_path):
        out = tmp_path / "out"
        rc = cli.main([
            "run", "--input", str(data_dir / "edges.txt"), "--undirected",
            "--variant", "dgts", "--repetitions", "1",
            "--out", str(out),
        ])
        assert rc == 0

    def test_audit_failure_exits_two(self, data_dir, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise AuditError("synthetic corruption")

        monkeypatch.setattr("dgt.runner.run_snapshot", boom)
        rc = cli.main([
            "run", "--input", str(data_dir / "edges.txt"),
            "--variant", "dgts", "--repetitions", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("variant_args", [
        ("--variant", "dgt"),
        ("--variant", "dgtp"),
        ("--variant", "dgtg", "--seed-fraction", "0.3"),
        ("--variant", "dgts"),
    ], ids=lambda args: args[1])
    def test_games_play_on_their_initial_structure(self, data_dir, tmp_path, monkeypatch,
                                                   variant_args):
        # the runner hands each game the structure `init_structure` built
        def refuse(structure):
            raise AssertionError("a game copied its initial structure")

        monkeypatch.setattr(game_engine.CommunityStructure, "copy", refuse)
        rc = cli.main(["run", "--input", str(data_dir / "edges.txt"),
                       "--truth", str(data_dir / "truth.csv"), *variant_args,
                       "--repetitions", "2", "--out", str(tmp_path / "out")])
        assert rc == 0


def _sum_without_floats(values, start=0):
    values = list(values)
    if any(isinstance(v, float) for v in [start, *values]):
        raise AssertionError("sum() of floats rounds differently from Python 3.12 on")
    return builtins.sum(values, start)


class TestFloatSums:
    """Output bytes must not depend on the Python version, so no float goes
    through the builtin sum()."""

    @pytest.fixture(autouse=True)
    def shadow_sum(self, monkeypatch):
        for info in pkgutil.iter_modules(dgt.__path__):
            module = importlib.import_module(f"dgt.{info.name}")
            monkeypatch.setattr(module, "sum", _sum_without_floats, raising=False)
        monkeypatch.setattr(dgt, "sum", _sum_without_floats, raising=False)

    @pytest.mark.parametrize("argv", [
        ["run", "--variant", "dgt", "--gain", "similarity", "--diagnostics"],
        ["run", "--variant", "dgt", "--gain", "modularity", "--undirected"],
        ["sweep-seed-fraction", "--variant", "dgtg", "--fractions", "0,0.2"],
    ], ids=["similarity", "modularity", "sweep"])
    def test_commands_sum_no_float_with_the_builtin(self, data_dir, tmp_path, argv):
        rc = cli.main([*argv, "--input", str(data_dir / "edges.txt"),
                       "--truth", str(data_dir / "truth.csv"), "--repetitions", "2",
                       "--seed", "4", "--out", str(tmp_path / "out")])
        assert rc == 0


# sha256 of every output file of five fixed `dgt run` invocations on the
# module fixture: one per variant, and one that buckets the fixture's
# ordinals as timestamps into windows of width 1 and declares isolated
# nodes.  Paths in the arguments are relative to the fixture directory.
# Any change to an output byte fails here, in place of hand-run digest
# comparisons; a deliberate model change must update these pins and say in
# CHANGES.md why the bytes moved.
GOLDEN_ARGS = {
    "dgt": ["--variant", "dgt", "--gain", "similarity", "--diagnostics"],
    "dgtp": ["--variant", "dgtp", "--gain", "modularity", "--undirected"],
    "dgts": ["--variant", "dgts", "--gain", "similarity"],
    "dgtg": ["--variant", "dgtg", "--seed-fraction", "0.3", "--gain", "modularity"],
    "window-nodes": ["--variant", "dgt", "--gain", "similarity", "--snapshot-by", "window:1",
                     "--nodes", "nodes.txt"],
}
GOLDEN_DIGESTS = {
    "dgt": {
        "churn.csv": "82ae105dc9bfe5f9bbde56ecde2ac493c57ca98bf270cc83d49ff4ff2fd0ccd5",
        "communities_t0_rep0.csv": "122c71ba93a4fa030fb9b09fbe1eae728d66f90c4f258aeeaba1256718a568cb",
        "communities_t0_rep1.csv": "51bdbd9303b412f3233edc4eb23df9fffd392e7a306751429b47edb3e0fcfcb7",
        "communities_t1_rep0.csv": "7a3b9d112014c14a6fbef0a7b3aba413a31bfa4dfa9bcf4ec67eb3ad4a550252",
        "communities_t1_rep1.csv": "eb30c6a450a329b2da5728a55c47e715dd62aebff82b7aeb9cbd883fe8f3ae29",
        "communities_t2_rep0.csv": "435d1e826cc048cf19f02b1c945e96ab33d8f4538568c6bc8e86a646738357aa",
        "communities_t2_rep1.csv": "db4f9cb5a467322341ca45d1136b02533a0ef18b96d12d9b6c40c07000aa04f7",
        "diagnostics_t0_rep0.csv": "2904f29bfece13c3f46f3d3a7c519bf20b96a4a2aaf1c8851c328bc3b205c884",
        "diagnostics_t0_rep1.csv": "f05b0f5ca18906c87bae9b8fb97cb0c2e0c12dc145f0031ed466f326e6091ee3",
        "diagnostics_t1_rep0.csv": "2a2b2231ee2679e8e2008e3b45fa5bce82b44fa8fd104f33ba2195250ca368bc",
        "diagnostics_t1_rep1.csv": "91d073c81cb237608bae42363721738e8fb595b4e965821ebd5fdc93d5faf38e",
        "diagnostics_t2_rep0.csv": "e00f5a2029fb7530bff1ad2f7755c0d290ddc602cbf507af7d065d84299f89d8",
        "diagnostics_t2_rep1.csv": "1412a112edae95d9b3a7bd8542765b8c5d11db81f6ddebf203065f786ee3c84f",
        "metrics.csv": "e01391b094d1fe306913342a79b86f071e57dc833dc8ba133f4c9207dcb10385",
    },
    "dgtp": {
        "churn.csv": "80706a42f934dd1f89a11b013dd0d4df1fc15c5627b1aeda853ed5e2a58ced90",
        "communities_t0_rep0.csv": "f523a3c0147dc8fbb4ac5cfc2f07bc21b8a1a1bcaec24320b8248633c7bb2dcd",
        "communities_t0_rep1.csv": "f523a3c0147dc8fbb4ac5cfc2f07bc21b8a1a1bcaec24320b8248633c7bb2dcd",
        "communities_t1_rep0.csv": "eecb7544084ee6502618e456e58bf7f9110a9c09c93a70d02a3bcd2fd3c7c41b",
        "communities_t1_rep1.csv": "eecb7544084ee6502618e456e58bf7f9110a9c09c93a70d02a3bcd2fd3c7c41b",
        "communities_t2_rep0.csv": "8d4160ffd593fb73bfd91dcd555b818d0e6b09eb3566a817a8364d15852f3040",
        "communities_t2_rep1.csv": "8d4160ffd593fb73bfd91dcd555b818d0e6b09eb3566a817a8364d15852f3040",
        "metrics.csv": "c17ea87c9882b2bcfcbbc25df290d8f6d831da003ecc9e7f2d8f0f679750daf2",
    },
    "dgts": {
        "churn.csv": "82ae105dc9bfe5f9bbde56ecde2ac493c57ca98bf270cc83d49ff4ff2fd0ccd5",
        "communities_t0_rep0.csv": "122c71ba93a4fa030fb9b09fbe1eae728d66f90c4f258aeeaba1256718a568cb",
        "communities_t0_rep1.csv": "51bdbd9303b412f3233edc4eb23df9fffd392e7a306751429b47edb3e0fcfcb7",
        "communities_t1_rep0.csv": "435627971a0fb380fbf634abf15b348ad9bc22f8fd71e310657ae9d50a776c71",
        "communities_t1_rep1.csv": "3004908555a7dcb228d26ef8b72be0f7209e568bb2f2a7d415ab2cc50e6f841c",
        "communities_t2_rep0.csv": "bdd6c90beb4e1cd8c30d14b8c8fa52da07dabad17f26a5bd052d17e22674998a",
        "communities_t2_rep1.csv": "d07ef91a33454a27c438fdb99f470b00c1286156c6c09ddfff7c53c157724fd0",
        "metrics.csv": "e01391b094d1fe306913342a79b86f071e57dc833dc8ba133f4c9207dcb10385",
    },
    "dgtg": {
        "churn.csv": "82ae105dc9bfe5f9bbde56ecde2ac493c57ca98bf270cc83d49ff4ff2fd0ccd5",
        "communities_t0_rep0.csv": "211e1ae2884530cc83e7d1e6536607404eb155c4a319c523b9eda62dd09cf5fd",
        "communities_t0_rep1.csv": "211e1ae2884530cc83e7d1e6536607404eb155c4a319c523b9eda62dd09cf5fd",
        "communities_t1_rep0.csv": "6d7e1734c8979336c820391e823c3e83bb06e06d79ef05d7042d7325a9af7c38",
        "communities_t1_rep1.csv": "6d7e1734c8979336c820391e823c3e83bb06e06d79ef05d7042d7325a9af7c38",
        "communities_t2_rep0.csv": "0cb314bd42a2524a465dd7bb3627b52f6c88132711f3d99e3831ea760a6d47d6",
        "communities_t2_rep1.csv": "64869808aba9e03dd3ed73c88b330e0eb30124d34c472a299283078c21768481",
        "metrics.csv": "a6447acb0c1a52b87313ab2e34f09450027805851ee353c51fb92c6e235076d4",
    },
    "window-nodes": {
        "churn.csv": "82ae105dc9bfe5f9bbde56ecde2ac493c57ca98bf270cc83d49ff4ff2fd0ccd5",
        "communities_t0_rep0.csv": "77626ce2e92e6add13cac90eea9abd3fff95f0cb89200ab59b1b0075a1e3586c",
        "communities_t0_rep1.csv": "5637f8bab927665dbfc05d76b52ccccce1046daee7073ae0b34cf5d3e05fc9fd",
        "communities_t1_rep0.csv": "db6af1a83fc572f5f02a15866b1f730fa8cb63ad07269d3e6b8c5712aa6fbd42",
        "communities_t1_rep1.csv": "91e5686ced0b22fd14f5be887984c5296d24f6cd9b731afef0bb4f3adac454d0",
        "communities_t2_rep0.csv": "7e91f53b18bb34c9de329024024423a51207329263a7a43824556ff78e60cf81",
        "communities_t2_rep1.csv": "c2d822bc336e34ed23e373eb408635d72ac9688a287dcd7bfbd027cacb67bbe5",
        "metrics.csv": "eeb474ca8ac98d0ad0641ec3a3b478432b9fee5827d6c70554ceecbfcb33381c",
    },
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_ARGS))
def test_outputs_match_pinned_digests(data_dir, tmp_path, monkeypatch, variant):
    monkeypatch.chdir(data_dir)
    out = tmp_path / "out"
    rc = cli.main(["run", "--input", str(data_dir / "edges.txt"),
                   "--truth", str(data_dir / "truth.csv"), "--repetitions", "2",
                   "--seed", "3", *GOLDEN_ARGS[variant], "--out", str(out)])
    assert rc == 0
    assert tree_digest(out) == GOLDEN_DIGESTS[variant]


class TestDeterminism:
    ARGS = ["--variant", "dgt", "--gain", "similarity", "--repetitions", "2",
            "--seed", "13", "--diagnostics"]

    def test_identical_reruns_byte_identical(self, data_dir, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main([
                "run", "--input", str(data_dir / "edges.txt"),
                "--truth", str(data_dir / "truth.csv"),
                *self.ARGS, "--out", str(out),
            ])
            assert rc == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("variant_args", [
        ("--variant", "dgt", "--diagnostics"),
        ("--variant", "dgtp"),
        ("--variant", "dgtg", "--seed-fraction", "0.3"),
        ("--variant", "dgts"),
    ], ids=lambda args: args[1])
    def test_jobs_parallel_matches_serial(self, data_dir, tmp_path, variant_args):
        digests = []
        for name, jobs in (("serial", "1"), ("parallel", "2")):
            out = tmp_path / name
            rc = cli.main([
                "run", "--input", str(data_dir / "edges.txt"),
                "--truth", str(data_dir / "truth.csv"), *variant_args,
                "--repetitions", "3", "--seed", "3", "--jobs", jobs, "--out", str(out),
            ])
            assert rc == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """Replaces the process pool with one that records its `max_workers`
    and runs its initializer and every task in this process, so no worker
    is ever started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def pickled_sizes(monkeypatch) -> dict:
    """Replaces the process pool with one that runs its initializer and
    every task in this process, and records the pickled size of each task
    sent ("sent") and of each task's result ("returned")."""
    sizes = {"sent": [], "returned": []}

    class PicklingPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            sizes["sent"].extend(len(pickle.dumps((fn, item))) for item in items)
            results = [fn(item) for item in items]
            sizes["returned"].extend(len(pickle.dumps(result)) for result in results)
            return results

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
    return sizes


def run_fresh(script: str, *args: str) -> str:
    """stdout of `script` run with `args` in a fresh interpreter that
    imports this source tree."""
    src = str(Path(dgt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, check=True).stdout


class TestRunMemory:
    # Prints the peak RSS in KiB of one `dgt run` in a fresh interpreter.
    # Not ru_maxrss: Linux carries the spawning process's peak over the
    # exec into it, so under a large test process it reads that instead.
    SCRIPT = ("import sys\nfrom dgt import cli\n"
              "assert cli.main(sys.argv[1:]) == 0\n"
              "with open('/proc/self/status') as fh:\n"
              "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n")

    # sha256 of the edge list of `generate` at num_snapshots=3, which draws
    # the first 3 snapshots of the 9-snapshot input: the test writes those
    # rather than generate them again
    PREFIX_SHA256 = "9da3aa8b0e79b7acbcb539bfaa63d59cc3ed1835fdb8a558274316fc864486cf"

    def peak_rss_mb(self, tmp_path, edges):
        out = run_fresh(self.SCRIPT, "run", "--input", str(edges),
                        "--variant", "dgtp", "--max-passes", "1", "--repetitions", "2",
                        "--out", str(tmp_path / f"out-{edges.stem}"))
        return int(out) / 1024

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_peak_memory_barely_grows_with_the_snapshot_count(self, tmp_path):
        # n = 1000, about 12 000 edges a snapshot.  Measured: 9 snapshots
        # peak 3.2 MB above 3 (48.0 MB); with every snapshot's kernel rows
        # kept until the run ends, 52.3 MB above (63.3 MB)
        seq, _ = generate(SynthConfig(communities=40, community_size=25, p_in=0.3,
                                      p_out=0.005, churn=0.1, num_snapshots=9, rng_seed=3))
        edges9, edges3 = tmp_path / "edges9.txt", tmp_path / "edges3.txt"
        write_edge_list(seq, edges9)
        write_edge_list(replace(seq, snapshots=seq.snapshots[:3], ordinals=seq.ordinals[:3]),
                        edges3)
        assert hashlib.sha256(edges3.read_bytes()).hexdigest() == self.PREFIX_SHA256
        grown = self.peak_rss_mb(tmp_path, edges9) - self.peak_rss_mb(tmp_path, edges3)
        assert grown < 16.0


class TestRunWithoutNumpy:
    # dgt imports no numpy: the run path draws its seeds, its play orders
    # and dgtg's seeding order, and dgt.synth its benchmarks, from dgt.rng
    SCRIPT = ("import sys\nfrom dgt import cli\n"
              "assert cli.main(sys.argv[1:]) == 0\n"
              "print('numpy' in sys.modules)\n")
    GENERATE = ("import pickle, sys\nsys.modules['numpy'] = None\n"
                "from dgt.synth import generate\n"
                "print(pickle.dumps(generate(pickle.loads(bytes.fromhex(sys.argv[1])))).hex())\n")

    def test_run_never_imports_numpy(self, data_dir, tmp_path):
        out = run_fresh(self.SCRIPT, "run", "--input", str(data_dir / "edges.txt"),
                        "--truth", str(data_dir / "truth.csv"), "--variant", "dgtg",
                        "--seed-fraction", "0.3", "--diagnostics", "--out", str(tmp_path / "out"))
        assert out.splitlines()[-1] == "False"

    def test_generate_with_numpy_unimportable_matches_the_pin(self):
        out = run_fresh(self.GENERATE, pickle.dumps(FIXTURE).hex())
        assert synth_digest(*pickle.loads(bytes.fromhex(out))) == DIGESTS[FIXTURE]


class TestRunWithoutPool:
    # the process pool is imported only when --jobs is above 1
    SCRIPT = ("import sys\nfrom dgt import cli\n"
              "assert cli.main(sys.argv[1:]) == 0\n"
              "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n")

    def test_serial_run_never_imports_the_pool(self, data_dir, tmp_path):
        out = run_fresh(self.SCRIPT, "run", "--input", str(data_dir / "edges.txt"),
                        "--repetitions", "2", "--out", str(tmp_path / "out"))
        assert out.splitlines()[-1] == "[]"


class TestJobs:
    def run(self, data_dir, tmp_path, jobs):
        return cli.main([
            "run", "--input", str(data_dir / "edges.txt"),
            "--variant", "dgts", "--repetitions", "2",
            "--jobs", jobs, "--out", str(tmp_path / "out"),
        ])

    def test_pool_never_larger_than_repetitions(self, data_dir, tmp_path, pool_sizes):
        assert self.run(data_dir, tmp_path, "5000") == 0
        assert pool_sizes == [2]
        assert len(list((tmp_path / "out").glob("communities_*_rep1.csv"))) == 3

    def test_sweep_opens_one_pool(self, data_dir, tmp_path, pool_sizes):
        rc = cli.main([
            "sweep-seed-fraction", "--input", str(data_dir / "edges.txt"),
            "--truth", str(data_dir / "truth.csv"),
            "--variant", "dgtg", "--repetitions", "2", "--jobs", "2",
            "--fractions", "0,0.1,0.2", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert pool_sizes == [2]
        assert len(read_csv(tmp_path / "out" / "sweep.csv")) == 3

    def test_tasks_do_not_carry_the_sequence(self, data_dir, tmp_path, pickled_sizes):
        assert self.run(data_dir, tmp_path, "2") == 0
        sequence_bytes = len(pickle.dumps(read_edge_list(data_dir / "edges.txt")))
        assert len(pickled_sizes["sent"]) == 2
        assert max(pickled_sizes["sent"]) < sequence_bytes / 4

    def test_tasks_return_no_partition(self, tmp_path, pickled_sizes):
        # a worker writes its own partition files and returns only the
        # per-snapshot scalars of metrics.csv
        seq, truth = generate(SynthConfig(communities=4, community_size=25, p_in=0.3,
                                          p_out=0.01, churn=0.1, num_snapshots=3, rng_seed=2))
        write_edge_list(seq, tmp_path / "edges.txt")
        write_ground_truth(truth, seq, tmp_path / "truth.csv")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(tmp_path / "edges.txt"),
                         "--truth", str(tmp_path / "truth.csv"), "--variant", "dgtp",
                         "--repetitions", "2", "--jobs", "2", "--diagnostics",
                         "--out", str(out)]) == 0
        partition_bytes = min(path.stat().st_size for path in out.glob("communities_*.csv"))
        assert len(pickled_sizes["returned"]) == 2
        assert max(pickled_sizes["returned"]) < partition_bytes / 4

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_one(self, data_dir, tmp_path, capsys, pool_sizes, jobs):
        assert self.run(data_dir, tmp_path, jobs) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--jobs must be >= 1" in err
        assert pool_sizes == []


class TestChurnCommand:
    def test_identical_snapshots_zero_row(self, tmp_path):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("a b 0\nb c 0\na b 1\nb c 1\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = cli.main(["churn-report", "--input", str(edge_file), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "churn.csv")
        assert rows == [{"t": "1", "e_plus": "0", "e_minus": "0", "n_changed": "0"}]

    def test_single_snapshot_rejected(self, tmp_path, capsys):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("a b 0\n", encoding="utf-8")
        rc = cli.main(["churn-report", "--input", str(edge_file),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "at least 2 snapshots" in capsys.readouterr().err

    def test_window_mode(self, tmp_path):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("a b 0\nb c 10\na b 70\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = cli.main(["churn-report", "--input", str(edge_file),
                       "--snapshot-by", "window:60", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "churn.csv")
        assert len(rows) == 1
        assert rows[0]["e_minus"] == "1"  # b->c present only in window 0


class TestSweepCommand:
    def test_three_fractions(self, data_dir, tmp_path):
        out = tmp_path / "out"
        rc = cli.main([
            "sweep-seed-fraction", "--input", str(data_dir / "edges.txt"),
            "--truth", str(data_dir / "truth.csv"),
            "--variant", "dgtg", "--repetitions", "2", "--seed", "5",
            "--fractions", "0,0.1,0.2", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert [row["fraction"] for row in rows] == ["0.0", "0.1", "0.2"]
        for row in rows:
            assert 0.0 <= float(row["nmi_mean"]) <= 1.0
            assert float(row["nmi_std"]) >= 0.0

    def test_diagnostics_flag_computes_no_totals(self, data_dir, tmp_path, monkeypatch, caplog):
        def boom(*args, **kwargs):
            raise AssertionError("per-pass totals computed by a sweep")

        monkeypatch.setattr(game_engine, "_totals", boom)
        digests, messages = [], []
        for extra in ([], ["--diagnostics"]):
            out = tmp_path / f"out{len(extra)}"
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="dgt"):
                rc = cli.main([
                    "sweep-seed-fraction", "--input", str(data_dir / "edges.txt"),
                    "--truth", str(data_dir / "truth.csv"),
                    "--variant", "dgtg", "--repetitions", "2", "--seed", "5",
                    "--fractions", "0,0.2", *extra, "--out", str(out),
                ])
            assert rc == 0
            digests.append(tree_digest(out))
            messages.append([r.getMessage() for r in caplog.records])
        assert list(digests[0]) == ["sweep.csv"] and digests[1] == digests[0]
        assert messages == [[], ["--diagnostics applies to `run` only; "
                                 "sweep-seed-fraction writes no diagnostics files"]]

    def test_pass_cap_reported_once(self, data_dir, tmp_path, caplog):
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="dgt"):
            rc = cli.main([
                "sweep-seed-fraction", "--input", str(data_dir / "edges.txt"),
                "--truth", str(data_dir / "truth.csv"),
                "--variant", "dgtg", "--repetitions", "2", "--seed", "5",
                "--fractions", "0,0.2", "--max-passes", "1", "--out", str(out),
            ])
        assert rc == 0
        assert [r.getMessage() for r in caplog.records] == [
            "12 of 12 game(s) stopped at the pass cap (--max-passes 1) with agents still changing"]
        # the warning changes no output byte
        assert tree_digest(out) == {
            "sweep.csv": "619668ad43793ab9762c0ddf5ec73ca5dad60ed00b10ce4f6bf705823560a9a2"}

    def test_fraction_out_of_range(self, data_dir, tmp_path, capsys):
        rc = cli.main([
            "sweep-seed-fraction", "--input", str(data_dir / "edges.txt"),
            "--truth", str(data_dir / "truth.csv"),
            "--variant", "dgtg", "--fractions", "0,1.5",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "fractions" in capsys.readouterr().err

    def test_requires_dgtg(self, data_dir, tmp_path):
        rc = cli.main([
            "sweep-seed-fraction", "--input", str(data_dir / "edges.txt"),
            "--truth", str(data_dir / "truth.csv"),
            "--variant", "dgts", "--fractions", "0,0.1",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1

    def test_requires_truth(self, data_dir, tmp_path):
        rc = cli.main([
            "sweep-seed-fraction", "--input", str(data_dir / "edges.txt"),
            "--variant", "dgtg", "--fractions", "0,0.1",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert all(len(row) == 4 for row in rows)
