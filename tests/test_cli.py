import os

import pytest

from polycat import gen, read_catalog
from polycat.cli import main


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cats")
    assert main(["enumerate", "--n", "3", "--out", str(d), "--jobs", "1"]) == 0
    return d


class TestEnumerate:
    def test_writes_all_catalogs(self, catalog_dir):
        names = sorted(p.name for p in catalog_dir.iterdir())
        assert names == [f"polycat-k2-n{n}.txt" for n in range(4)]
        sizes = [len(read_catalog(catalog_dir / n)) for n in names]
        assert sizes == [1, 3, 10, 40]

    def test_stream_matches_default(self, catalog_dir, tmp_path):
        out = tmp_path / "stream"
        assert main(["enumerate", "--n", "3", "--out", str(out),
                     "--jobs", "1", "--stream"]) == 0
        for n in range(4):
            name = f"polycat-k2-n{n}.txt"
            assert (out / name).read_bytes() == \
                (catalog_dir / name).read_bytes()

    def test_stream_reads_back_all_but_the_last(self, tmp_path,
                                                monkeypatch):
        read = []

        def counting(path):
            read.append(os.path.basename(path))
            return read_catalog(path)

        monkeypatch.setattr(gen, "read_catalog", counting)
        assert main(["enumerate", "--n", "3", "--out", str(tmp_path),
                     "--jobs", "1", "--stream"]) == 0
        assert read == ["polycat-k2-n1.txt", "polycat-k2-n2.txt"]

    def test_step_lines_count_canonical_forms(self, tmp_path, capsys):
        assert main(["enumerate", "--n", "3", "--out", str(tmp_path),
                     "--jobs", "1"]) == 0
        steps = capsys.readouterr().err.splitlines()[1:]
        assert [line.split()[4] for line in steps] == [
            "canonical=3", "canonical=10", "canonical=48"]

    def test_matroid_catalogs(self, tmp_path):
        out = tmp_path / "k1"
        assert main(["enumerate", "--n", "3", "--k", "1",
                     "--out", str(out), "--jobs", "1"]) == 0
        assert len(read_catalog(out / "polycat-k1-n3.txt")) == 8


class TestCount:
    def test_text_table(self, catalog_dir, capsys):
        assert main(["count", "--in", str(catalog_dir)]) == 0
        out = capsys.readouterr().out
        assert "total" in out
        totals = out.strip().splitlines()[-1].split()[1:]
        assert totals == ["1", "3", "10", "40"]

    def test_csv_labeled(self, catalog_dir, capsys):
        assert main(["count", "--in", str(catalog_dir),
                     "--labeled", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,0,1,2,3"
        assert lines[-1] == "total,1,3,14,115"

    def test_filter_min_rank(self, catalog_dir, capsys):
        assert main(["count", "--in", str(catalog_dir),
                     "--filter-min-rank", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["n,count", "0,0", "1,1", "2,2", "3,8"]

    def test_empty_dir_is_usage_error(self, tmp_path, capsys):
        assert main(["count", "--in", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_catalogs_pass(self, catalog_dir, capsys):
        assert main(["verify", "--n", "3", "--in", str(catalog_dir)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "duality ok at n=3" in out

    def test_tampered_catalog_fails(self, catalog_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        for p in catalog_dir.iterdir():
            (bad / p.name).write_bytes(p.read_bytes())
        path = bad / "polycat-k2-n2.txt"
        lines = path.read_text().splitlines(keepends=True)
        # drop one class and fix the header count so the file still parses
        del lines[-1]
        lines[0] = "POLYCAT v1 n=2 k=2 count=9\n"
        path.write_text("".join(lines))
        assert main(["verify", "--n", "2", "--in", str(bad)]) == 1
        assert "mismatch" in capsys.readouterr().out


class TestInfo:
    def test_valid_table(self, tmp_path, capsys):
        f = tmp_path / "two-lines.txt"
        f.write_text("n=2 k=2\n0 2 2 3\n")
        assert main(["info", "--file", str(f)]) == 0
        out = capsys.readouterr().out
        assert "n=2 k=2 rank=3" in out
        assert "aut_order=2" in out
        assert "extensible partitions: 27" not in out  # sanity: count printed
        assert "extensible partitions:" in out

    def test_invalid_table(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("n=2 k=2\n0 2 2 5\n")
        assert main(["info", "--file", str(f)]) == 1
        assert "invalid polymatroid" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert main(["info", "--file", str(tmp_path / "nope.txt")]) == 2

    def test_malformed_file(self, tmp_path):
        f = tmp_path / "junk.txt"
        f.write_text("garbage\n")
        assert main(["info", "--file", str(f)]) == 2
