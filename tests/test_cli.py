import io
import math
import os
import resource
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hampow.absorber as absorber
import hampow.cli as cli
import hampow.matcher as matcher
import hampow.pipeline as pipeline
import hampow.randmodels as randmodels
from hampow.cli import build_parser, main
from hampow.core import MAX_VERTICES, Hypergraph
from hampow.randmodels import expected_stored_codes


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(args, address_space=None):
    """Run ``python -m hampow.cli`` in a child process that imports this checkout's src.

    ``address_space`` caps the child's virtual memory in bytes, as ``ulimit -v`` does.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "hampow.cli", *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=30,
        preexec_fn=cap if address_space else None,
    )


def write_triangle(path):
    g = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    path.write_text(g.to_text())
    return path


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--bogus"])
        assert info.value.code == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_find_requires_one_source(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["find", "--k", "1"])
        assert info.value.code == 1

    def test_find_gnp_model_needs_a_2_uniform_host(self, capsys):
        # tight mode with k=2 needs a 3-uniform host, which gnp cannot sample
        with pytest.raises(SystemExit) as info:
            main(["find", "--model", "gnp", "--mode", "tight", "--k", "2",
                  "--n", "400", "--p", "1.0", "--seed", "7"])
        assert info.value.code == 1
        assert "--model gnp" in capsys.readouterr().err

    def test_verify_gnp_model_needs_a_2_uniform_host(self, tmp_path, capsys):
        tight = tmp_path / "tight.cert"
        tight.write_text("tight 2 6\n0 1 2 3 4 5\n")
        code, _, err = run(["verify", "--model", "gnp", "--n", "6", "--p", "1.0",
                            "--cert", str(tight)], capsys)
        assert code == 1
        assert "--model gnp" in err
        # hgnp samples the host of every mode, graphs included
        power = tmp_path / "power.cert"
        power.write_text("power 1 5\n0 1 2 3 4\n")
        for cert, n in ((tight, 6), (power, 5)):
            code, out, _ = run(["verify", "--model", "hgnp", "--n", str(n), "--p", "1.0",
                                "--cert", str(cert)], capsys)
            assert code == 0 and "certificate OK" in out

    @pytest.mark.parametrize("command", ["find", "verify"])
    @pytest.mark.parametrize("flag", [["--n", "6"], ["--p", "0.5"]])
    def test_a_graph_file_takes_no_model_size_or_rate(self, tmp_path, capsys, command, flag):
        gf = tmp_path / "k6.hg"
        gf.write_text(Hypergraph.complete(2, 6).to_text())
        cf = tmp_path / "c.cert"
        cf.write_text("power 1 6\n0 1 2 3 4 5\n")
        argv = [command, "--graph", str(gf), *flag]
        argv += ["--cert", str(cf)] if command == "verify" else ["--k", "1"]
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        assert code == 1
        assert "--graph reads its host from the file" in capsys.readouterr().err


class TestGen:
    def test_gen_writes_deterministic_file(self, tmp_path, capsys):
        out = tmp_path / "g.hg"
        code, _, _ = run(["gen", "--model", "gnp", "--n", "30", "--p", "0.5",
                          "--seed", "9", "--out", str(out)], capsys)
        assert code == 0
        first = out.read_bytes()
        run(["gen", "--model", "gnp", "--n", "30", "--p", "0.5",
             "--seed", "9", "--out", str(out)], capsys)
        assert out.read_bytes() == first

    def test_gen_hypergraph_and_bipartite(self, tmp_path, capsys):
        out = tmp_path / "h.hg"
        code, _, _ = run(["gen", "--model", "hgnp", "--k", "3", "--n", "12",
                          "--p", "0.3", "--seed", "2", "--out", str(out)], capsys)
        assert code == 0
        g = Hypergraph.from_text(out.read_text())
        assert g.k == 3 and g.n == 12
        outb = tmp_path / "b.txt"
        code, _, _ = run(["gen", "--model", "bip", "--n", "5", "--p", "1.0",
                          "--seed", "2", "--out", str(outb)], capsys)
        assert code == 0
        assert outb.read_text().splitlines()[0] == "bip 5 5 25"

    @pytest.mark.parametrize("argv", [
        ["--model", "gnp", "--n", "200", "--p", "0.5"],          # 9,950 expected
        ["--model", "hgnp", "--k", "3", "--n", "40", "--p", "0.2"],  # 1,976 expected
        ["--model", "bip", "--n", "200", "--p", "0.5"],          # 20,000 expected
    ], ids=["gnp", "hgnp", "bip"])
    def test_refuses_before_sampling(self, tmp_path, capsys, monkeypatch, argv):
        def never(*args):
            raise AssertionError("sampled a host over the limit")
        monkeypatch.setattr(cli, "MATERIALIZE_LIMIT", 10)
        monkeypatch.setattr(cli, "sample_uniform_hypergraph", never)
        monkeypatch.setattr(cli, "sample_bipartite", never)
        out = tmp_path / "g.hg"
        code, _, err = run(["gen", *argv, "--out", str(out)], capsys)
        assert code == 2 and "refusing to sample an expected" in err
        assert not out.exists()

    @pytest.mark.parametrize("model,limit", [("gnp", 25), ("bip", 54)])
    def test_sampled_count_is_checked_too(self, tmp_path, capsys, monkeypatch, model, limit):
        # at n=10, p=0.5, seed 41 the expected 22.5 (gnp) and 50 (bip) edges
        # pass the limit, but the 26 and 55 sampled ones do not
        monkeypatch.setattr(cli, "MATERIALIZE_LIMIT", limit)
        out = tmp_path / "g.hg"
        code, _, err = run(["gen", "--model", model, "--n", "10", "--p", "0.5",
                            "--seed", "41", "--out", str(out)], capsys)
        assert code == 2 and f"refusing to write {limit + 1} edges" in err
        assert not out.exists()

    def test_a_sparse_host_draws_one_variate_per_edge(self, tmp_path, capsys, monkeypatch):
        # about 500 edges of 5e11 candidates: the draw never visits the rest
        drawn = []
        stream = randmodels.uniform_stream

        def counted(seed, start, stop):
            drawn.append(stop - start)
            return stream(seed, start, stop)

        monkeypatch.setattr(randmodels, "uniform_stream", counted)
        out = tmp_path / "g.hg"
        code, _, _ = run(["gen", "--model", "gnp", "--n", "1000000", "--p", "1e-9",
                          "--seed", "1", "--out", str(out)], capsys)
        assert code == 0
        m = int(out.read_text().split()[2])
        assert m > 0 and sum(drawn) <= m + 4 * math.sqrt(m) + 16


class TestDensity:
    def test_triangle_density(self, tmp_path, capsys):
        f = write_triangle(tmp_path / "t.hg")
        code, out, _ = run(["density", "--input", str(f)], capsys)
        assert code == 0
        assert out.strip() == "3/2"

    def test_rooted_density(self, tmp_path, capsys):
        f = tmp_path / "e.hg"
        f.write_text(Hypergraph(2, 2, [(0, 1)]).to_text())
        code, out, _ = run(["density", "--input", str(f), "--root", "0"], capsys)
        assert code == 0
        assert out.strip() == "1/1"


class TestJanson:
    def test_exact_triangle(self, capsys):
        code, out, _ = run(["janson", "--n", "5", "--p", "0.5",
                            "--template", "builtin:triangle", "--exact"], capsys)
        assert code == 0
        assert "mu = 1.25" in out
        assert "1.875" in out

    def test_builtin_path(self, capsys):
        code, out, _ = run(["janson", "--n", "10", "--p", "0.5",
                            "--template", "builtin:path-2-4"], capsys)
        assert code == 0
        assert "tail bound" in out

    @pytest.mark.parametrize("p", ["1.5", "-0.5"])
    def test_edge_probability_out_of_range_exits_2(self, capsys, p):
        code, out, err = run(["janson", "--n", "12", "--p", p,
                              "--template", "builtin:triangle"], capsys)
        assert code == 2
        assert "edge probability must be in [0, 1]" in err
        assert "mu =" not in out

    # refused before it is built: a 30M-vertex path does not fit in 2 GB
    @pytest.mark.parametrize("n,reason", [
        ("12", "30000000 vertices exceed --n 12"),
        ("40000000", f"59999997 edges exceed the limit of {cli.TEMPLATE_EDGE_LIMIT}"),
    ])
    def test_a_builtin_path_too_big_to_build_is_refused(self, n, reason):
        proc = run_module(["janson", "--n", n, "--p", "0.4", "--template",
                           "builtin:path-2-30000000"], address_space=2 << 30)
        assert proc.returncode == 2 and reason in proc.stderr

    def test_a_mean_past_a_float_is_printed_as_a_power_of_ten(self):
        proc = run_module(["janson", "--n", "2000", "--p", "0.9",
                           "--template", "builtin:path-1-1000"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert "mu = 10^554.5" in proc.stdout and "delta (bound) = 10^" in proc.stdout
        assert "inf" not in proc.stdout and "nan" not in proc.stdout

    def test_the_path_edge_count_is_exact(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TEMPLATE_EDGE_LIMIT", 2 * 4 - 3)  # the square of a 4-path
        code, out, _ = run(["janson", "--n", "10", "--p", "0.5",
                            "--template", "builtin:path-2-4"], capsys)
        assert code == 0 and "tail bound" in out
        monkeypatch.setattr(cli, "TEMPLATE_EDGE_LIMIT", 4)
        with pytest.raises(SystemExit) as info:
            main(["janson", "--n", "10", "--p", "0.5", "--template", "builtin:path-2-4"])
        assert info.value.code == 2


class TestFactorCli:
    def test_complete_host(self, tmp_path, capsys):
        g = Hypergraph(2, 30, [(i, j) for i in range(30) for j in range(i + 1, 30)])
        gf = tmp_path / "g.hg"
        gf.write_text(g.to_text())
        tf = write_triangle(tmp_path / "t.hg")
        code, out, _ = run(["factor", "--graph", str(gf), "--template", str(tf),
                            "--epsilon", "0.2"], capsys)
        assert code == 0
        assert "copies found" in out

    def test_search_budget_bounds_the_factor_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(matcher, "SEARCH_BUDGET", 1000)
        # K_{10,10} has no odd cycle, and the search has to run out of budget to stop
        g = Hypergraph(2, 20, [(i, j) for i in range(20) for j in range(i + 1, 20) if (i + j) % 2])
        gf = tmp_path / "g.hg"
        gf.write_text(g.to_text())
        tf = tmp_path / "c5.hg"
        tf.write_text(Hypergraph(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).to_text())
        code, out, err = run(["factor", "--graph", str(gf), "--template", str(tf),
                              "--epsilon", "0.5"], capsys)
        assert code == 2
        assert "search budget exhausted" in err
        assert "copies found" not in out

    def test_template_without_vertices_exits_2(self, tmp_path):
        gf = tmp_path / "k4.hg"
        gf.write_text(Hypergraph.complete(2, 4).to_text())
        tf = tmp_path / "empty.hg"
        tf.write_text("2 0 0\n")
        proc = run_module(["factor", "--graph", str(gf), "--template", str(tf), "--epsilon", "0.5"])
        assert proc.returncode == 2
        assert "template has no vertices" in proc.stderr


class TestAbsorberCli:
    def test_demo_and_validate(self, capsys):
        code, out, _ = run(["absorber", "--k", "2", "--ell", "5", "--mode", "power",
                            "--demo", "--validate", "10"], capsys)
        assert code == 0
        assert "traversal including x" in out
        assert "OK" in out

    def test_a_backbone_too_big_to_build_is_refused(self):
        proc = run_module(["absorber", "--k", "1000", "--demo"], address_space=2 << 30)
        assert proc.returncode == 2
        assert f"10001000 edges exceed the limit of {cli.TEMPLATE_EDGE_LIMIT}" in proc.stderr

    @pytest.mark.parametrize("mode", ["power", "tight"])
    @pytest.mark.parametrize("k,ell", [(1, 5), (2, 7), (3, 5)])
    def test_the_backbone_edge_count_is_exact(self, capsys, monkeypatch, mode, k, ell):
        edges = absorber.Backbone(k, ell, mode).graph.edge_count
        argv = ["absorber", "--k", str(k), "--ell", str(ell), "--mode", mode, "--demo"]
        monkeypatch.setattr(cli, "TEMPLATE_EDGE_LIMIT", edges)
        assert run(argv, capsys)[0] == 0
        monkeypatch.setattr(cli, "TEMPLATE_EDGE_LIMIT", edges - 1)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    def test_negative_validate_is_a_usage_error(self, capsys):
        code, out, err = run(["absorber", "--validate", "-3"], capsys)
        assert code == 1 and "--validate" in err and "validated" not in out


class TestRoundTrip:
    @pytest.mark.parametrize(
        "k,mode,n",
        [(1, "power", 300), (2, "power", 600), (3, "power", 1100),
         (1, "tight", 300), (2, "tight", 330)],
    )
    def test_gen_find_verify_on_complete_files(self, tmp_path, capsys, k, mode, n):
        uniformity = 2 if mode == "power" else k + 1
        graph_file = tmp_path / "g.hg"
        model = "gnp" if uniformity == 2 else "hgnp"
        code, _, _ = run(["gen", "--model", model, "--k", str(uniformity),
                          "--n", str(n), "--p", "1.0", "--seed", "1",
                          "--out", str(graph_file)], capsys)
        assert code == 0
        cert_file = tmp_path / "c.cert"
        code, out, err = run(["find", "--graph", str(graph_file), "--k", str(k),
                              "--mode", mode, "--seed", "5", "--out", str(cert_file)],
                             capsys)
        assert code == 0, err
        code, out, _ = run(["verify", "--graph", str(graph_file),
                            "--cert", str(cert_file)], capsys)
        assert code == 0
        assert "OK" in out

    def test_model_route_round_trip_tight_k3(self, tmp_path, capsys):
        # 4-uniform complete hosts are too large to write as files; the model
        # route regenerates the host from the seed instead
        cert_file = tmp_path / "c.cert"
        code, out, err = run(["find", "--model", "hgnp", "--n", "700", "--p", "1.0",
                              "--k", "3", "--mode", "tight", "--seed", "5",
                              "--out", str(cert_file)], capsys)
        assert code == 0, err
        code, out, _ = run(["verify", "--model", "hgnp", "--n", "700", "--p", "1.0",
                            "--seed", "5", "--attempt", "0",
                            "--cert", str(cert_file)], capsys)
        assert code == 0

    def test_model_route_round_trip_tight_k2(self, tmp_path, capsys):
        # verify takes the host's uniformity (k+1 = 3) from the certificate
        cert_file = tmp_path / "c.cert"
        code, out, err = run(["find", "--model", "hgnp", "--mode", "tight", "--k", "2",
                              "--n", "400", "--p", "1.0", "--seed", "7",
                              "--out", str(cert_file)], capsys)
        assert code == 0, err
        code, out, err = run(["verify", "--model", "hgnp", "--n", "400", "--p", "1.0",
                              "--seed", "7", "--cert", str(cert_file)], capsys)
        assert code == 0, err
        assert "certificate OK" in out

    def test_negative_attempt_is_a_usage_error(self, tmp_path, capsys):
        cf = tmp_path / "c.cert"
        cf.write_text("power 1 3\n0 1 2\n")
        code, out, err = run(["verify", "--model", "gnp", "--n", "3", "--p", "1.0",
                              "--attempt", "-1", "--cert", str(cf)], capsys)
        assert code == 1 and "--attempt" in err and "certificate" not in out

    def test_verify_rejects_wrong_certificate(self, tmp_path, capsys):
        g = Hypergraph(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        gf = tmp_path / "c5.hg"
        gf.write_text(g.to_text())
        cf = tmp_path / "bad.cert"
        cf.write_text("power 2 5\n0 1 2 3 4\n")
        code, out, _ = run(["verify", "--graph", str(gf), "--cert", str(cf)], capsys)
        assert code == 2
        assert "REJECTED" in out

    def test_verify_a_huge_k_in_time(self, tmp_path):
        # every pair of K5 is an edge, so any power of any cycle on it is there
        gf = tmp_path / "k5.hg"
        gf.write_text(Hypergraph.complete(2, 5).to_text())
        cf = tmp_path / "c.cert"
        cf.write_text("power 1000000000 5\n0 1 2 3 4\n")
        proc = run_module(["verify", "--graph", str(gf), "--cert", str(cf)])
        assert proc.returncode == 0 and "certificate OK" in proc.stdout

    def test_verify_a_huge_k_on_a_large_host_in_2_gb(self, tmp_path):
        # min(k, n // 2) offsets, asked one n-row batch at a time: the first
        # finds no edge, so no set of n * min(k, n - 1) pairs is ever built
        gf = tmp_path / "empty.hg"
        gf.write_text("2 20000 0\n")
        cf = tmp_path / "c.cert"
        cf.write_text("power 1000000 20000\n" + " ".join(map(str, range(20000))) + "\n")
        proc = run_module(["verify", "--graph", str(gf), "--cert", str(cf)], address_space=2 << 30)
        assert proc.returncode == 2 and "certificate REJECTED" in proc.stdout


class TestFindFailure:
    def test_sparse_model_exits_2(self, capsys):
        code, _, err = run(["find", "--model", "gnp", "--n", "600", "--p", "0.2",
                            "--k", "2", "--mode", "power", "--retries", "1",
                            "--seed", "3"], capsys)
        assert code == 2
        assert "no verified cycle" in err

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_host_too_small_for_any_plan_exits_2(self, capsys, n):
        # n = 0 used to divide by zero in the threshold line
        code, out, err = run(["find", "--model", "gnp", "--n", str(n), "--p", "0.5"], capsys)
        assert code == 2 and out == ""
        assert f"infeasible configuration: no feasible absorber/cover/merge plan for n={n}" in err


class TestModelSizeGuard:
    @pytest.fixture
    def sampled(self, monkeypatch):
        """The (k, n, p) of every host the pipeline samples, for find and verify alike."""
        calls = []
        def recorded(k, n, p, seed, sample=pipeline.sample_three_rounds):
            calls.append((k, n, p))
            return sample(k, n, p, seed)
        monkeypatch.setattr(pipeline, "sample_three_rounds", recorded)
        return calls

    def test_dense_tight_host_is_refused_up_front(self, capsys, sampled):
        # ~248M stored codes at the real limit; nothing is sampled
        code, out, err = run(["find", "--model", "hgnp", "--mode", "tight", "--k", "2",
                              "--n", "1000", "--p", "0.9"], capsys)
        assert code == 2 and out == "" and sampled == []
        assert "about 2.48e+08 codes" in err and f"limit of {cli.MODEL_BYTES_LIMIT} bytes" in err

    def test_the_sparse_tight_benchmark_host_fits(self):
        # tight k=2 at n=1000, p=0.05: ~16.8M stored codes, ~134 MB
        assert 8 * expected_stored_codes(3, 1000, 0.05) < cli.MODEL_BYTES_LIMIT / 4

    def test_find_verify_and_experiment_refuse_before_sampling(
        self, tmp_path, capsys, monkeypatch, sampled
    ):
        monkeypatch.setattr(cli, "MODEL_BYTES_LIMIT", 100)
        cert = tmp_path / "c.cert"
        cert.write_text("power 1 30\n" + " ".join(map(str, range(30))) + "\n")
        csv = tmp_path / "grid.csv"
        for argv in (
            ["find", "--model", "gnp", "--n", "30", "--p", "0.5", "--k", "1"],
            ["verify", "--model", "gnp", "--n", "30", "--p", "0.5", "--cert", str(cert)],
            ["experiment", "--k", "1", "--n-list", "30", "--p-grid", "1.0,0.5",
             "--trials", "1", "--csv", str(csv)],
        ):
            code, _, err = run(argv, capsys)
            assert code == 2
            assert "refusing to sample the 2-uniform host with n=30, p=0.5" in err
            assert "over the limit of 100 bytes" in err
        assert sampled == [] and not csv.exists()
        # a complete host stores no codes, so it passes any limit
        monkeypatch.setattr(cli, "MODEL_BYTES_LIMIT", 0)
        code, out, _ = run(["verify", "--model", "gnp", "--n", "30", "--p", "1.0",
                            "--cert", str(cert)], capsys)
        assert code == 0 and "certificate OK" in out and sampled == [(2, 30, 1.0)]

    @pytest.mark.parametrize("command", ["find", "verify", "experiment"])
    def test_a_negative_vertex_count_is_refused_by_name(
        self, tmp_path, capsys, monkeypatch, sampled, command
    ):
        # the size estimate's math.comb used to refuse it, naming neither n nor its value
        estimated = []
        monkeypatch.setattr(cli, "_model_too_large", lambda *args: estimated.append(args))
        cert = tmp_path / "c.cert"
        cert.write_text("power 1 3\n0 1 2\n")
        csv = tmp_path / "grid.csv"
        argv = {
            "find": ["find", "--model", "gnp", "--n", "-3", "--p", "0.5"],
            "verify": ["verify", "--model", "gnp", "--n", "-3", "--p", "0.5", "--cert", str(cert)],
            "experiment": ["experiment", "--n-list", "30,-3", "--p-grid", "0.5", "--trials", "1",
                           "--csv", str(csv)],
        }[command]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", "hampow: error: vertex count n must be >= 0, got -3\n")
        assert estimated == [] and sampled == [] and not csv.exists()

    @pytest.mark.parametrize("p", ["0.5", "0"])
    def test_a_host_past_the_edge_encoding_is_refused(self, tmp_path, capsys, sampled, p):
        # C(n, k) of a huge n is too large for the float estimate, and n ** k
        # of a huge k too slow to compute: both are refused before either
        n, k = str(10 ** 120), str(10 ** 9)
        cert, huge_k_cert = tmp_path / "c.cert", tmp_path / "k.cert"
        cert.write_text("tight 2 5\n0 1 2 3 4\n")
        huge_k_cert.write_text(f"tight {k} 5\n0 1 2 3 4\n")
        csv = tmp_path / "grid.csv"
        for argv in (
            ["find", "--model", "hgnp", "--mode", "tight", "--k", "2", "--n", n, "--p", p],
            ["verify", "--model", "hgnp", "--n", n, "--p", p, "--cert", str(cert)],
            ["experiment", "--mode", "tight", "--k", "2", "--n-list", n, "--p-grid", p,
             "--trials", "1", "--csv", str(csv)],
            ["find", "--model", "hgnp", "--mode", "tight", "--k", k, "--n", "5", "--p", p],
            ["verify", "--model", "hgnp", "--n", "5", "--p", p, "--cert", str(huge_k_cert)],
        ):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert "exceeds the edge-encoding range" in err and "Traceback" not in err
        assert sampled == [] and not csv.exists()

    def test_a_vertex_count_past_the_limit_is_refused(self, tmp_path, capsys, monkeypatch, sampled):
        built = []
        monkeypatch.setattr(pipeline, "build_chain_absorber", lambda *a, **kw: built.append(a))
        n = str(MAX_VERTICES + 1)
        # an edge line that does not parse: the header alone refuses the file
        graph = tmp_path / "huge.hg"
        graph.write_text(f"2 {n} 1\n0 x\n")
        csv = tmp_path / "grid.csv"
        for argv in (
            ["find", "--graph", str(graph), "--k", "1"],
            ["find", "--model", "gnp", "--n", n, "--p", "0", "--k", "1"],
            ["experiment", "--k", "1", "--n-list", n, "--p-grid", "0", "--trials", "1",
             "--csv", str(csv)],
        ):
            code, _, err = run(argv, capsys)
            assert code == 2 and "Traceback" not in err
            assert f"n={n} exceeds the limit of {MAX_VERTICES} vertices" in err
        assert sampled == [] and built == [] and not csv.exists()


class TestExperiment:
    def test_csv_format_and_determinism(self, tmp_path, capsys):
        csv1 = tmp_path / "a.csv"
        csv2 = tmp_path / "b.csv"
        args = ["experiment", "--k", "1", "--mode", "power", "--n-list", "300",
                "--p-grid", "0.9995,1.0", "--trials", "2", "--seed", "99",
                "--retries", "1", "--zero-timings"]
        assert run(args + ["--csv", str(csv1)], capsys)[0] == 0
        assert run(args + ["--csv", str(csv2)], capsys)[0] == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        lines = csv1.read_text().splitlines()
        assert lines[0] == "n,p,trial,seed,success,phase_failed,runtime_ms"
        assert len(lines) == 5
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "300" and fields[6] == "0"

    def test_parallel_jobs_keep_row_order(self, tmp_path, capsys):
        csv1 = tmp_path / "s.csv"
        csv2 = tmp_path / "p.csv"
        base = ["experiment", "--k", "1", "--mode", "power", "--n-list", "300",
                "--p-grid", "1.0", "--trials", "4", "--seed", "7",
                "--retries", "0", "--zero-timings"]
        assert run(base + ["--csv", str(csv1), "--jobs", "1"], capsys)[0] == 0
        assert run(base + ["--csv", str(csv2), "--jobs", "3"], capsys)[0] == 0
        assert csv1.read_bytes() == csv2.read_bytes()

    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "g.csv"
        code, _, err = run(["experiment", "--n-list", "300", "--p-grid", "1.0",
                            "--trials", "1", "--csv", str(csv), "--jobs", "0"], capsys)
        assert code == 1 and "--jobs" in err and not csv.exists()

    def test_negative_trials_is_a_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "g.csv"
        code, _, err = run(["experiment", "--n-list", "300", "--p-grid", "1.0",
                            "--trials", "-2", "--csv", str(csv)], capsys)
        assert code == 1 and "--trials" in err and not csv.exists()

    @pytest.mark.parametrize("jobs,trials,cpus,workers", [
        (10_000, 2, 8, 2),   # no more workers than tasks
        (6, 12, 4, 4),       # no more workers than cores
        (3, 12, None, None),  # unknown core count: one, so no pool
        (1, 12, 8, None),
    ])
    def test_pool_size_is_bounded(self, tmp_path, capsys, monkeypatch, jobs, trials, cpus, workers):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(cli, "_experiment_row", lambda t: (*t[:4], 1, "", 0))
        csv = tmp_path / "g.csv"
        code, _, _ = run(["experiment", "--n-list", "300", "--p-grid", "1.0",
                          "--trials", str(trials), "--csv", str(csv), "--jobs", str(jobs)],
                         capsys)
        assert code == 0 and len(csv.read_text().splitlines()) == trials + 1
        assert started == ([] if workers is None else [workers])


@st.composite
def corrupted_certificates(draw) -> bytes:
    """A valid certificate on six vertices, then maybe one kind of damage, as file bytes."""
    mode, k = draw(st.sampled_from([("power", "1"), ("power", "2"), ("tight", "2")]))
    head, order = [mode, k, "6"], [str(v) for v in draw(st.permutations(range(6)))]
    kind = draw(st.sampled_from([
        "valid", "truncated", "reordered", "non-numeric", "negative", "repeated vertex",
        "huge k", "past the end", "non-UTF-8",
    ]))
    if kind == "non-numeric":
        fields = draw(st.sampled_from([head, order]))
        i = draw(st.integers(1 if fields is head else 0, len(fields) - 1))
        fields[i] = draw(st.sampled_from(["x", "1.5", "1e3", "", "0x2", "٣"]))
    elif kind == "negative":
        fields = draw(st.sampled_from([head, order]))
        i = draw(st.integers(1 if fields is head else 0, len(fields) - 1))
        fields[i] = f"-{draw(st.integers(0, 10))}"
    elif kind == "repeated vertex":
        i, j = draw(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True))
        order[i] = order[j]
    elif kind == "huge k":
        head[1] = str(draw(st.integers(10 ** 6, 10 ** 40)))
    elif kind == "past the end":
        order[draw(st.integers(0, 5))] = str(draw(st.integers(6, 10 ** 30)))
    lines = [" ".join(head), " ".join(order)]
    if kind == "reordered":
        tokens = draw(st.permutations(" ".join(lines).split()))
        cut = draw(st.integers(0, len(tokens)))
        lines = [" ".join(tokens[:cut]), " ".join(tokens[cut:])]
    data = ("\n".join(lines) + "\n").encode()
    if kind == "truncated":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif kind == "non-UTF-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[at:]
    return data


@pytest.fixture(scope="module")
def small_hosts(tmp_path_factory):
    """Complete 2- and 3-uniform hosts on six vertices, a path template and two certificates."""
    d = tmp_path_factory.mktemp("hosts")
    (d / "power.hg").write_text(Hypergraph.complete(2, 6).to_text())
    (d / "tight.hg").write_text(Hypergraph.complete(3, 6).to_text())
    (d / "path.hg").write_text(Hypergraph(2, 3, [(0, 1), (1, 2)]).to_text())
    (d / "power.cert").write_text("power 2 6\n0 1 2 3 4 5\n")
    (d / "tight.cert").write_text("tight 2 6\n0 1 2 3 4 5\n")
    return d


class TestVerifyFuzz:
    @given(cert=corrupted_certificates(), host=st.sampled_from(["power.hg", "tight.hg"]))
    @settings(max_examples=300, deadline=None)
    def test_every_certificate_gets_an_exit_code_and_a_message(self, small_hosts, cert, host):
        cf = small_hosts / "fuzz.cert"
        cf.write_bytes(cert)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--graph", str(small_hosts / host), "--cert", str(cf)])
        assert code in (0, 1, 2)
        assert (out.getvalue() + err.getvalue()).strip()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module(["density", "--input", "/nonexistent"])
        assert proc.returncode == 1
        assert "/nonexistent" in proc.stderr


def readme_commands():
    """Every ``hampow ...`` command in README's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in text.split("```sh\n")[1:]:
        joined = block.split("```")[0].replace("\\\n", " ")
        for line in joined.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["hampow"]:
                commands.append(words[1:])
    return commands


class TestReadme:
    def test_every_cli_example_parses(self):
        commands = readme_commands()
        assert len(commands) >= 14
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)


@st.composite
def numeric_flags(draw, command: str, d: Path) -> list[str]:
    """``command`` with small numbers, valid or not, drawn for its numeric flags."""
    def count() -> str:  # a vertex count: the smallest ones most often
        return str(draw(st.one_of(st.integers(-2, 3), st.integers(-3, 120))))

    def small() -> str:
        return str(draw(st.integers(-1, 5)))

    def rate() -> str:
        return repr(draw(st.one_of(
            st.floats(0.0, 1.0), st.sampled_from([-0.5, 1.5, math.nan, math.inf, -math.inf]))))

    def pick(*choices: str) -> str:
        return draw(st.sampled_from(choices))

    seed = ["--seed", small()]
    if command == "gen":
        return ["gen", "--model", pick("gnp", "hgnp", "bip"), "--k", small(), "--n", count(),
                "--p", rate(), "--out", str(d / "fuzz.hg"), *seed]
    params = ["--k", small(), "--mode", pick("power", "tight"), "--retries", small()]
    model = ["--model", pick("gnp", "hgnp"), "--n", count(), "--p", rate()]
    if command == "find":
        return ["find", *model, *params, *seed]
    if command == "verify":
        return ["verify", *model, "--attempt", small(), "--cert",
                str(d / pick("power.cert", "tight.cert")), *seed]
    if command == "janson":
        exact = draw(st.booleans())
        n = small() if exact else count()  # exact enumeration is C(n, ell) copies
        return ["janson", "--n", n, "--p", rate(), "--template",
                f"builtin:path-{small()}-{small()}", "--gamma", rate()] + ["--exact"] * exact
    if command == "factor":
        return ["factor", "--graph", str(d / "power.hg"), "--template", str(d / "path.hg"),
                "--epsilon", rate()]
    if command == "absorber":
        return ["absorber", "--k", small(), "--mode", pick("power", "tight"), "--ell", small(),
                "--validate", small(), *seed]
    rates = ",".join(rate() for _ in range(draw(st.integers(0, 2))))
    return ["experiment", "--n-list", ",".join(count() for _ in range(draw(st.integers(0, 2)))),
            "--p-grid", rates, "--trials", small(), "--jobs", pick("-1", "0", "1"),
            "--csv", str(d / "fuzz.csv"), *params, *seed]


class TestFlagFuzz:
    """Every numeric flag value, in range or not, ends in exit 0, 1 or 2 with a message.

    ``--jobs`` is drawn from {-1, 0, 1}, so no draw starts a worker process.
    """

    @pytest.mark.parametrize(
        "command", ["gen", "find", "verify", "janson", "factor", "absorber", "experiment"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_numeric_flag_gets_an_exit_code_and_a_message(self, small_hosts, command, data):
        argv = data.draw(numeric_flags(command, small_hosts))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit:  # argparse and the usage errors exit this way
                code = exit.code
        assert code in (0, 1, 2)
        assert (out.getvalue() if code == 0 else err.getvalue()).strip()

    def test_a_rejected_certificate_names_an_edge_the_host_lacks(self, small_hosts, capsys):
        # a draw the fuzz found: the edgeless host holds no pair of the cycle
        code, out, err = run(["verify", "--model", "gnp", "--n", "6", "--p", "0.0",
                              "--attempt", "0", "--cert", str(small_hosts / "power.cert"),
                              "--seed", "0"], capsys)
        assert code == 2
        assert out == "certificate REJECTED\n"
        assert err == "host lacks required edge (0, 1)\n"
