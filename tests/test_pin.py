"""Pinned behaviour: sha256 digests of fixed finds, their plans and CLI output.

Each find case hashes a transcript of what ``hampow find`` reports: the
implied threshold line, the resolved plan, the succeeding attempt and the
certificate text (or the failure report).  A refactor must leave every
digest unchanged; a change that alters the algorithm on purpose updates
them and says why in CHANGES.md.
"""

import hashlib

import pytest

from hampow.cli import main
from hampow.pipeline import (
    FailureReport,
    ModelSpec,
    Parameters,
    find_hamilton_detailed,
    implied_threshold,
    resolve_plan,
)
from hampow.randmodels import sample_three_rounds, sample_uniform_hypergraph


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def transcript(source, cfg: Parameters) -> tuple[str, object]:
    formula, value = implied_threshold(source.n, cfg)
    plan = resolve_plan(source.n, cfg)
    result, attempt = find_hamilton_detailed(source, cfg)
    body = f"failure\n{result}" if isinstance(result, FailureReport) else result.to_text()
    return f"{formula} = {value:.6g}\n{plan.describe()}\nattempt {attempt}\n{body}", result


FIND_CASES = {
    "power-k1-n500": (
        lambda: ModelSpec(500, 0.99), dict(k=1, mode="power", seed=7),
        "d3c0cebacc25652f0cb0fc8643181244072b1f33640ee699c690cd8e64ca66b6",
    ),
    "tight-k1-n500": (
        lambda: ModelSpec(500, 0.99), dict(k=1, mode="tight", seed=7),
        "f9aa5bb4761e891496c9f7c98a41df306bf61ff88f7e0cad77da157b97050369",
    ),
    "power-k2-n1500": (
        lambda: ModelSpec(1500, 0.9995), dict(k=2, mode="power", seed=7),
        "7e59886beafd06ab1d1e141688078d2a1b8eca37508cc3837cf0f60ca9e469b5",
    ),
    "tight-k2-n400-complete": (
        lambda: ModelSpec(400, 1.0), dict(k=2, mode="tight", seed=7),
        "24195d28767145b379bca6e7b77393f65d575bb890121a0e99cd60257c3172e6",
    ),
    # a fixed host: its edges are split into three rounds by split_edges_three
    "power-k2-fixed-host": (
        lambda: sample_uniform_hypergraph(2, 1000, 0.9998, seed=9),
        dict(k=2, mode="power", seed=7),
        "f4e2fccc69c641dc7869c94b279a253ee7e46d9489d2573a47d022b2690242b8",
    ),
}


@pytest.mark.parametrize("name", sorted(FIND_CASES))
def test_certificate_digest(name):
    make_source, fields, digest = FIND_CASES[name]
    text, result = transcript(make_source(), Parameters(**fields))
    assert not isinstance(result, FailureReport)
    assert sha256(text) == digest


def test_failure_report_digest_and_phases():
    cfg = Parameters(k=2, mode="power", seed=7, retries=2)
    text, result = transcript(ModelSpec(600, 0.9995), cfg)
    assert isinstance(result, FailureReport)
    assert [a.phase for a in result.attempts] == ["cover", "cover", "cover"]
    assert sha256(text) == "36cc5cb66366be9e1b217d0400e61ff284ab67927084436a4caab29c0af82537"


def test_find_stdout_digest(capsys):
    code = main(["find", "--model", "hgnp", "--mode", "tight", "--k", "2",
                 "--n", "400", "--p", "1.0", "--seed", "7"])
    assert code == 0
    assert sha256(capsys.readouterr().out) == "923cd664a5df6063f9ce655f07f907d82d6f2ec71855f985b4e69672b5d23b83"


def test_experiment_csv_digest(tmp_path, capsys):
    csv = tmp_path / "grid.csv"
    code = main(["experiment", "--k", "1", "--mode", "power", "--n-list", "300",
                 "--p-grid", "0.9995,1.0", "--trials", "2", "--seed", "99",
                 "--retries", "1", "--zero-timings", "--csv", str(csv)])
    assert code == 0
    assert sha256(csv.read_bytes()) == "0fa6f6cc7ca5360a9b65c3b0e8ba0cbf32681e94011af89af5e82c660c14a4cd"


GEN_CASES = {
    "gnp": (["--model", "gnp", "--n", "60", "--p", "0.3", "--seed", "3"],
            "50669d381f06437e6d79f6d86d8b72a3917eb6aa2d02000de0207e24c57060e1"),
    "hgnp": (["--model", "hgnp", "--k", "3", "--n", "20", "--p", "0.2", "--seed", "4"],
             "e8ed0bb983ded944e6e8557a91d116ec11efc5f9256b105c4e796e253c58feee"),
    "bip": (["--model", "bip", "--n", "12", "--p", "0.4", "--seed", "5"],
            "54fed3a673b8399b03f18c4658ecf0ddec5cd1c9f0284b3ad6a6a18d4ff8e47e"),
}


@pytest.mark.parametrize("name", sorted(GEN_CASES))
def test_gen_file_digest(name, tmp_path, capsys):
    argv, digest = GEN_CASES[name]
    out = tmp_path / "g.txt"
    assert main(["gen", *argv, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest


def test_verify_regenerates_the_attempt_host(tmp_path, capsys):
    # at p < 1 each attempt samples its own host: this find succeeds on
    # attempt 1, and its cycle misses an edge of attempt 0's host
    model = ["--model", "gnp", "--n", "600", "--p", "0.9995", "--seed", "57"]
    cert = tmp_path / "c.cert"
    assert main(["find", *model, "--k", "2", "--out", str(cert)]) == 0
    assert "succeeded on attempt 1" in capsys.readouterr().out
    assert main(["verify", *model, "--attempt", "1", "--cert", str(cert)]) == 0
    assert "certificate OK" in capsys.readouterr().out
    assert main(["verify", *model, "--attempt", "0", "--cert", str(cert)]) == 2
    assert "certificate REJECTED" in capsys.readouterr().out


# (k, n, p, seed): p on both sides of 1/2 and of q = 1/2 (p = 0.875), so the
# rounds and the union are each stored as edges in some cases and as non-edges
# in others; at p = 0.6 the union comes from a mask over every candidate, and
# at n = 1500 each round takes several batches
SAMPLE_CASES = [
    (k, n, p, seed)
    for seed, (k, n, p) in enumerate(
        [(k, n, p) for k, n in ((2, 60), (3, 24), (4, 16)) for p in (0.0, 0.3, 0.7, 0.95, 1.0)]
        + [(2, 1500, 0.6)]
    )
]


def test_sampled_rounds_text_digest():
    texts = []
    for k, n, p, seed in SAMPLE_CASES:
        texts += [g.to_text() for g in sample_three_rounds(k, n, p, seed)]
    assert sha256("".join(texts)) == "1d9ddc04dc293fb9aa8782bb50edb2140d82f8563525a8f578b542a8340b564b"


def test_sampled_host_text_digest():
    texts = [sample_uniform_hypergraph(k, n, p, seed).to_text() for k, n, p, seed in SAMPLE_CASES]
    assert sha256("".join(texts)) == "f4475dc0e5f509e023b0faa6d4abf7e58b65313dcad0c7d7098cd2d02d0ff758"
