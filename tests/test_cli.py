"""Command line interface smoke and determinism tests."""

import hashlib
import json

import pytest

from fthresh.cli import auto_grid, crossing_estimate, main
from fthresh.inventory import build_inventory, chen_stein_bound
from fthresh.patterns import p_star, pattern_preset

K3 = pattern_preset("k3")


class TestAnalyze:
    def test_basic(self, capsys):
        assert main(["analyze", "--pattern", "k3"]) == 0
        out = capsys.readouterr().out
        assert "strictly 1-balanced: True" in out

    def test_with_n(self, capsys):
        assert main(["analyze", "--pattern", "k3", "--n", "30"]) == 0
        out = capsys.readouterr().out
        assert "p_star" in out

    def test_unbalanced_pattern_fails(self, tmp_path, capsys):
        path = tmp_path / "path4.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        assert main(["analyze", "--pattern-file", str(path)]) == 1
        assert capsys.readouterr().err == \
            "error: subgraph on [0, 1] has 1-density 1 >= 1\n"


# preset -> sha256 of the verify --out CSV and of stdout, at the default
# max_len; any change to a certified value or to the format moves them
VERIFY_GOLDEN = {
    "k3": ("9687bdd3c28dd1f74a6ed9d0517077d91f517fd35f052690b860945a160effcd",
           "168d1c6a012ecafa3b69b41cbf173c95d7151721a972953e8fdd6435e0f0fbcf"),
    "k4": ("bd8eda0c3f4ed22b8fec37cc623ac889448b3e4f121a2bf8c90319423e488b17",
           "fac021d874a103666b8f8aa2c21d45f1906740db9b3bcd922f97156f6343ce32"),
    "c4": ("33f8c5378ef67e959b7ee245847ada3ef89ebab2ba878915babf57dc2e34c63f",
           "0be58b2b6f34d1b94f7cd4726c37f1c8da936c730dc6f83db1b3d3104f1972cb"),
    "c5": ("656de9b46da521953b47a9fac701a08ec5d02315785726c2421d0f76a67e31ef",
           "ee7c48eaec604e7b1d3e5dbc0c825d8359d3cfe7447cb15cd7fbc6842f8bc8cc"),
    "k4me": ("2ed70d07a5b7045f5aae4cd605460437a3f4a0d13f584f2cc3c5dce20d24e2d0",
             "4d6362b3ef693636f9766954f0af0736e5a0e3f22e3afd4be3789c7aa22c5f55"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestVerify:
    def test_k3(self, capsys):
        assert main(["verify", "--pattern", "k3", "--max-len", "3"]) == 0
        out = capsys.readouterr().out
        assert "f1max = -1/3" in out
        assert "g1max = -1/3" in out
        assert "delta = 1/12" in out

    @pytest.mark.parametrize("extra", [[], ["--max-len", "3"]])
    def test_single_edge_template_is_an_error(self, capsys, extra):
        assert main(["verify", "--pattern", "k2", *extra]) == 1
        assert "error: template needs at least two edges" in \
            capsys.readouterr().err

    def test_max_len_below_two_is_an_error(self, capsys):
        assert main(["verify", "--pattern", "k3", "--max-len", "1"]) == 1
        assert "error: max_len must be >= 2" in capsys.readouterr().err

    def test_csv_out(self, tmp_path):
        dest = tmp_path / "verify.csv"
        assert main(["verify", "--pattern", "k3", "--max-len", "3",
                     "--out", str(dest)]) == 0
        text = dest.read_text()
        assert text.startswith("# fthresh ")
        assert "pattern,k," in text
        assert "kind,context," in text

    @pytest.mark.parametrize("name", sorted(VERIFY_GOLDEN))
    def test_golden(self, tmp_path, capsys, name):
        dest = tmp_path / "verify.csv"
        assert main(["verify", "--pattern", name, "--out", str(dest)]) == 0
        assert (sha256(dest.read_bytes()),
                sha256(capsys.readouterr().out.encode())) == \
            VERIFY_GOLDEN[name]

    def test_out_is_a_directory(self, tmp_path, capsys):
        assert main(["verify", "--pattern", "k3", "--out",
                     str(tmp_path)]) == 1
        assert "error: " in capsys.readouterr().err


class TestParams:
    def test_json(self, capsys):
        assert main(["params", "--pattern", "k3", "--n", "40"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 40
        assert 0 < payload["pi"] < 1
        assert payload["p"] > payload["pi"]


class TestScan:
    def test_single_p(self, tmp_path):
        dest = tmp_path / "scan.csv"
        assert main(["scan", "--pattern", "k3", "--n", "9", "--p", "0.5",
                     "--trials", "40", "--out", str(dest)]) == 0
        lines = dest.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0].startswith("p,trials,frac_factor")
        assert len(data) == 2

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["scan", "--pattern", "k3", "--n", "9", "--p", "0.45",
                "--trials", "30", "--seed", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_is_an_error(self, capsys, trials):
        assert main(["scan", "--pattern", "k3", "--n", "9",
                     "--trials", trials]) == 1
        assert "error: trials must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
    def test_p_outside_the_unit_interval_is_an_error(self, capsys, p):
        assert main(["scan", "--pattern", "k3", "--n", "9", "--p", p,
                     "--trials", "1"]) == 1
        assert "error: p must lie in [0, 1]" in capsys.readouterr().err

    # only malformed values, so that no worker process is started
    @pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
    def test_malformed_workers_is_an_error(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("FTHRESH_WORKERS", raw)
        assert main(["scan", "--pattern", "k3", "--n", "9", "--p", "0.5",
                     "--trials", "1"]) == 1
        assert "error: FTHRESH_WORKERS must be a positive integer" in \
            capsys.readouterr().err

    def test_auto_grid(self):
        grid = auto_grid(K3, 30)
        base = p_star(K3, 30)
        assert len(grid) == 9
        assert grid[0] == pytest.approx(0.6 * base)
        assert grid[-1] == pytest.approx(1.5 * base)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_crossing_estimate(self):
        rows = [{"p": 0.1, "frac_factor": 0.2},
                {"p": 0.2, "frac_factor": 0.8}]
        assert crossing_estimate(rows) == pytest.approx(0.15)
        assert crossing_estimate([rows[0]]) is None


class TestCouple:
    def test_exact_with_transcripts(self, tmp_path, capsys):
        dest = tmp_path / "runs.jsonl"
        assert main(["couple", "--pattern", "k3", "--n", "6",
                     "--pi", "0.02", "--trials", "8", "--out",
                     str(dest)]) == 0
        out = capsys.readouterr().out
        assert "containment violations: 0" in out
        recs = [json.loads(ln) for ln in dest.read_text().splitlines()]
        assert recs[0]["kind"] == "header"
        assert any(r["kind"] == "trailer" for r in recs)

    def test_bound_mode(self, capsys):
        assert main(["couple", "--pattern", "k3", "--n", "10",
                     "--pi", "0.01", "--trials", "5", "--mode",
                     "bound"]) == 0
        assert "containment violations: 0" in capsys.readouterr().out

    def test_out_is_a_directory(self, tmp_path, capsys):
        assert main(["couple", "--pattern", "k3", "--n", "6", "--trials",
                     "1", "--out", str(tmp_path)]) == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_an_error(self, capsys, trials):
        assert main(["couple", "--pattern", "k3", "--n", "6",
                     "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "error: trials must be positive" in captured.err
        assert captured.out == ""


class TestChenStein:
    def test_table(self, tmp_path):
        dest = tmp_path / "cs.csv"
        assert main(["chen-stein", "--pattern", "k3", "--n", "8", "12",
                     "--out", str(dest)]) == 0
        lines = [ln for ln in dest.read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "n,lengths,count,pi,p,bound_H,bound_G"
        # one row per length class (2, 3) plus the combined class, per n
        assert len(lines) == 1 + 2 * 3

    def test_requires_n(self):
        with pytest.raises(SystemExit):
            main(["chen-stein", "--pattern", "k3"])

    def test_refused_class_keeps_the_rest(self, capsys):
        """C4 at n = 8: the 3- and 4-cycles need 9 and 12 vertices, so the
        combined class is bucketed on the 2-cycles alone, within the
        placement cap. Every class is bounded and printed, none refused,
        and the combined row equals the length-2 row."""
        assert main(["chen-stein", "--pattern", "c4", "--n", "8"]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [ln.split(",") for ln in out if not ln.startswith("#")][1:]
        assert [r[:3] for r in rows] == [["8", "2", "11340"],
                                         ["8", "3", "0"], ["8", "4", "0"],
                                         ["8", "all", "11340"]]
        n, _label, _count, pi, p, bh, bg = rows[0]
        inv = build_inventory(pattern_preset("c4"), 8, frozenset({2}))
        assert (bh, bg) == tuple(map(str, chen_stein_bound(inv, float(pi),
                                                           float(p))))
        assert rows[3][3:] == rows[0][3:]
        assert not [ln for ln in out if ln.startswith("# refused")]

    def test_refused_lines_in_place(self, capsys):
        """Each refused class takes its row's place, in class order."""
        assert main(["chen-stein", "--pattern", "c4", "--n", "12"]) == 0
        tail = capsys.readouterr().out.splitlines()[-4:]
        assert tail[0].startswith("12,2,374220,")
        assert [ln.split(":")[0] for ln in tail[1:]] == [
            "# refused n=12 lengths=3 count=44906400",
            "# refused n=12 lengths=4 count=303118200",
            "# refused n=12 lengths=all count=348398820"]

    def test_error_only_when_nothing_is_bounded(self, capsys):
        """C5's length-2 class needs 10,281,600 placements per anchor, over
        the cap. At n = 8 the longer classes are empty, so bounded by 0; at
        n = 20 none is, and every class is refused."""
        assert main(["chen-stein", "--pattern", "c5", "--n", "8"]) == 0
        captured = capsys.readouterr()
        assert "# refused n=8 lengths=2 count=40320: " in captured.out
        assert captured.err == ""
        assert main(["chen-stein", "--pattern", "c5", "--n", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["couple", "--pattern", "k3", "--n", "6", "--trials", "1",
         "--p", "0.9"],
        ["scan", "--pattern", "k3", "--n", "9", "--trials", "1",
         "--pi", "0.1"],
        ["verify", "--pattern", "k3", "--n", "99"],
    ])
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        """A flag the subcommand does not read is refused, not ignored:
        --p is unknown to couple and only a prefix of its --pattern and
        --pi, which argparse refuses as ambiguous."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: " in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
