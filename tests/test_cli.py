import doctest
import os
import shlex

import pytest

from polycat import enumerate_all, gen, read_catalog, write_catalog
from polycat.cli import build_parser, main
from polycat.core import MAX_N

README = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "README.md")


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

    def test_matches_write_catalog(self, catalog_dir, tmp_path):
        for cat in enumerate_all(3, 2):
            write_catalog(cat, tmp_path / "ref.txt")
            name = f"polycat-k2-n{cat.n}.txt"
            assert (catalog_dir / name).read_bytes() == \
                (tmp_path / "ref.txt").read_bytes()

    def test_reads_back_all_but_the_last(self, tmp_path, monkeypatch):
        read = []

        def counting(path):
            read.append(os.path.basename(path))
            return read_catalog(path)

        monkeypatch.setattr(gen, "read_catalog", counting)
        assert main(["enumerate", "--n", "3", "--out", str(tmp_path),
                     "--jobs", "1"]) == 0
        assert read == ["polycat-k2-n1.txt", "polycat-k2-n2.txt"]

    def test_step_lines_count_canonical_forms(self, tmp_path, capsys):
        assert main(["enumerate", "--n", "3", "--out", str(tmp_path),
                     "--jobs", "1"]) == 0
        steps = capsys.readouterr().err.splitlines()[1:]
        assert [line.split()[4] for line in steps] == [
            "canonical=3", "canonical=10", "canonical=48"]

    @pytest.mark.parametrize("n", [-1, MAX_N + 1])
    def test_rejects_n_out_of_range(self, tmp_path, capsys, monkeypatch, n):
        def step(*_args, **_kwargs):
            raise AssertionError("a step ran")

        # without the check, --n 9 would run every step up to n=8
        monkeypatch.setattr(gen, "generate_next_stream", step)
        out = tmp_path / "cats"
        assert main(["enumerate", "--n", str(n), "--out", str(out),
                     "--jobs", "1"]) == 2
        assert not out.exists()
        assert f"--n must lie in 0..{MAX_N}" in capsys.readouterr().err

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

    def test_reads_only_the_catalogs_of_its_k(self, catalog_dir, tmp_path,
                                              capsys):
        # enumerate --k 1 and --k 2 into one directory
        d = tmp_path / "mixed"
        d.mkdir()
        for p in catalog_dir.iterdir():
            (d / p.name).write_bytes(p.read_bytes())
        assert main(["enumerate", "--n", "2", "--k", "1", "--out", str(d),
                     "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["count", "--in", str(d), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "total,1,3,10,40"
        assert main(["count", "--in", str(d), "--k", "1",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "total,1,2,4"

    def test_no_catalog_of_its_k_is_usage_error(self, catalog_dir, capsys):
        assert main(["count", "--in", str(catalog_dir), "--k", "1"]) == 2
        assert "no k=1 catalog files" in capsys.readouterr().err

    def test_misnamed_catalog_is_usage_error(self, catalog_dir, tmp_path,
                                             capsys):
        d = tmp_path / "cats"
        d.mkdir()
        (d / "polycat-k2-n0.txt").write_bytes(
            (catalog_dir / "polycat-k2-n0.txt").read_bytes())
        (d / "polycat-k2-n1.txt").write_bytes(
            (catalog_dir / "polycat-k2-n0.txt").read_bytes())
        assert main(["count", "--in", str(d)]) == 2
        assert "polycat-k2-n1.txt: header disagrees" in \
            capsys.readouterr().err


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

    def test_swapped_class_fails(self, catalog_dir, tmp_path, capsys):
        # X_3 with class 6 replaced by class 17: counts, labeled totals
        # and duality all still agree
        bad = tmp_path / "bad"
        bad.mkdir()
        for p in catalog_dir.iterdir():
            (bad / p.name).write_bytes(p.read_bytes())
        path = bad / "polycat-k2-n3.txt"
        lines = path.read_text().splitlines(keepends=True)
        assert lines[7] == "0 0 1 1 2 2 3 3 aut=1\n"
        assert lines[18] == "0 1 1 2 2 2 3 3 aut=1\n"
        lines[7] = lines[18]
        path.write_text("".join(lines))
        assert main(["verify", "--n", "3", "--in", str(bad)]) == 1
        assert ("verification failed: class mismatch at n=3: catalog lacks "
                "0 0 1 1 2 2 3 3 aut=1") in capsys.readouterr().out

    def test_reads_only_the_catalogs_checked(self, catalog_dir, tmp_path,
                                             capsys):
        d = tmp_path / "cats"
        d.mkdir()
        for n in range(3):
            name = f"polycat-k2-n{n}.txt"
            (d / name).write_bytes((catalog_dir / name).read_bytes())
        # a catalog beyond --n that would not even parse
        (d / "polycat-k2-n3.txt").write_text("garbage\n")
        assert main(["verify", "--n", "2", "--in", str(d)]) == 0
        assert "duality ok at n=2" in capsys.readouterr().out

    def test_misnamed_catalog_is_usage_error(self, catalog_dir, tmp_path,
                                             capsys):
        d = tmp_path / "cats"
        d.mkdir()
        for n, src in ((0, 0), (1, 1), (2, 1)):
            (d / f"polycat-k2-n{n}.txt").write_bytes(
                (catalog_dir / f"polycat-k2-n{src}.txt").read_bytes())
        assert main(["verify", "--n", "2", "--in", str(d)]) == 2
        err = capsys.readouterr().err
        assert "polycat-k2-n2.txt: header disagrees" in err

    def test_missing_catalog_is_reported(self, catalog_dir, tmp_path,
                                         capsys):
        d = tmp_path / "cats"
        d.mkdir()
        name = "polycat-k2-n0.txt"
        (d / name).write_bytes((catalog_dir / name).read_bytes())
        assert main(["verify", "--n", "1", "--in", str(d)]) == 1
        assert "missing catalog for n=1" in capsys.readouterr().out

    def test_empty_dir_is_usage_error(self, tmp_path, capsys):
        assert main(["verify", "--n", "2", "--in", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("entry, error", [("0 5 aut=1", "'0 5 aut=1'"),
                                          ("0 1 aut=0", "'0 1 aut=0'"),
                                          ("0 1 aut=7", "'0 1 aut=7'")])
@pytest.mark.parametrize("command", [["count"], ["count", "--labeled"],
                                     ["verify", "--n", "1"]])
def test_out_of_range_catalog_is_usage_error(tmp_path, capsys, command,
                                             entry, error):
    (tmp_path / "polycat-k1-n0.txt").write_text(
        "POLYCAT v1 n=0 k=1 count=1\n0 aut=1\n")
    (tmp_path / "polycat-k1-n1.txt").write_text(
        f"POLYCAT v1 n=1 k=1 count=1\n{entry}\n")
    assert main(command + ["--k", "1", "--in", str(tmp_path)]) == 2
    assert error in capsys.readouterr().err


class TestInfo:
    def test_valid_table(self, tmp_path, capsys):
        f = tmp_path / "two-lines.txt"
        f.write_text("n=2 k=2\n0 2 2 3\n")
        assert main(["info", "--file", str(f)]) == 0
        out = capsys.readouterr().out
        assert "n=2 k=2 rank=3" in out
        assert "aut_order=2" in out
        assert "extensible partitions: 14" in out

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

    def test_k_above_max_k(self, tmp_path, capsys):
        f = tmp_path / "wide.txt"
        f.write_text("n=1 k=32\n0 32\n")
        assert main(["info", "--file", str(f)]) == 2
        assert "element-rank cap 32 outside [1, 31]" in capsys.readouterr().err


def test_readme_commands_parse():
    # every command in the README's "Command line" block, so that a
    # removed option cannot stay documented
    with open(README) as fh:
        text = fh.read().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines()]
    commands = [c for c in commands if c]
    assert len(commands) >= 4
    parser = build_parser()
    for command in commands:
        assert command[0] == "polycat"
        try:
            parser.parse_args(command[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_readme_library_example_runs():
    # the README's "Library" block, run as a doctest, so that an API
    # change cannot leave it stale
    with open(README) as fh:
        text = fh.read().split("## Library", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README", README, 0)
    assert len(test.examples) >= 5
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))
