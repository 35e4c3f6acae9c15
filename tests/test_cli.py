import builtins
import csv
import hashlib
import importlib
import logging
import pickle
import pkgutil
from pathlib import Path

import pytest

import dgt
from dgt import cli, game_engine
from dgt.errors import AuditError
from dgt.initialization import write_ground_truth
from dgt.snapshot_graph import read_edge_list, write_edge_list
from dgt.synth import SynthConfig, generate

FIXTURE_CFG = SynthConfig(communities=3, community_size=6, p_in=0.5, p_out=0.02,
                          churn=0.1, num_snapshots=3, rng_seed=9)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data")
    seq, truth = generate(FIXTURE_CFG)
    write_edge_list(seq, path / "edges.txt")
    write_ground_truth(truth, seq, path / "truth.csv")
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
        assert list(diag[0]) == ["pass", "changed_agents", "total_utility", "potential"]
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


# sha256 of every output file of four fixed `dgt run` invocations on the
# module fixture, one per variant.  Any change to an output byte fails here,
# in place of hand-run digest comparisons; a deliberate model change must
# update these pins and say in CHANGES.md why the bytes moved.
GOLDEN_ARGS = {
    "dgt": ["--variant", "dgt", "--gain", "similarity", "--diagnostics"],
    "dgtp": ["--variant", "dgtp", "--gain", "modularity", "--undirected"],
    "dgts": ["--variant", "dgts", "--gain", "similarity"],
    "dgtg": ["--variant", "dgtg", "--seed-fraction", "0.3", "--gain", "modularity"],
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
        "diagnostics_t0_rep0.csv": "635baa0c420a1ef42bbdbd4d3b19aef797294937978a7e096797c6662265d153",
        "diagnostics_t0_rep1.csv": "7b3f5b6e7226096ac853f1a226feeb6f8cd5d0182b936aa2ce14b6ac8aec6f95",
        "diagnostics_t1_rep0.csv": "0f2f7ff00a765aa2ee077fa3c5f0d8c1dee073d7ed85860c2a5173323d449a86",
        "diagnostics_t1_rep1.csv": "40c5b726e0f7791ada5c53455d20201dbf08a0911f693eb1f2feff2b0d6863c4",
        "diagnostics_t2_rep0.csv": "23b616cb4540e34fc074a9cd4ec94e2a6abff580a5b56b0ccbc210d828d2cbff",
        "diagnostics_t2_rep1.csv": "2f16da23972c3147188011e79fa3d5f6a1c77c7a597bae6ce89fe13261f8a6f2",
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
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_ARGS))
def test_outputs_match_pinned_digests(data_dir, tmp_path, variant):
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

    def test_jobs_parallel_matches_serial(self, data_dir, tmp_path):
        digests = []
        for name, jobs in (("serial", "1"), ("parallel", "2")):
            out = tmp_path / name
            rc = cli.main([
                "run", "--input", str(data_dir / "edges.txt"),
                "--truth", str(data_dir / "truth.csv"),
                "--variant", "dgts", "--repetitions", "2", "--seed", "3",
                "--jobs", jobs, "--out", str(out),
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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return sizes


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

    def test_tasks_do_not_carry_the_sequence(self, data_dir, tmp_path, monkeypatch):
        sent = []

        class PicklingPool:
            """Runs tasks in this process and records each task's pickled size."""

            def __init__(self, max_workers, initializer=None, initargs=()):
                if initializer is not None:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                sent.extend(len(pickle.dumps((fn, item))) for item in items)
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", PicklingPool)
        assert self.run(data_dir, tmp_path, "2") == 0
        sequence_bytes = len(pickle.dumps(read_edge_list(data_dir / "edges.txt")))
        assert len(sent) == 2
        assert max(sent) < sequence_bytes / 4

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
