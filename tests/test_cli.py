"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.core.types import ObfuscationParams, ObfuscationResult
from repro.graphs.generators import erdos_renyi
from repro.graphs.io import read_edge_list, write_edge_list
from repro.uncertain.io import read_uncertain_graph


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "graph.txt"
    write_edge_list(erdos_renyi(70, 0.12, seed=0), path)
    return path


@pytest.fixture(scope="module")
def release_file(tmp_path_factory, graph_file):
    path = tmp_path_factory.mktemp("cli") / "release.txt"
    code = main(
        [
            "obfuscate",
            "--input", str(graph_file),
            "--output", str(path),
            "--k", "3",
            "--eps", "0.15",
            "--attempts", "2",
            "--delta", "0.02",
            "--seed", "1",
        ]
    )
    assert code == 0
    return path


class TestObfuscate:
    def test_writes_release(self, release_file):
        release = read_uncertain_graph(release_file)
        assert release.num_candidate_pairs > 0

    def test_failure_exit_code(self, tmp_path, graph_file, capsys):
        out = tmp_path / "nope.txt"
        code = main(
            [
                "obfuscate",
                "--input", str(graph_file),
                "--output", str(out),
                "--k", "1000000",
                "--eps", "0.0",
                "--attempts", "1",
                "--delta", "0.5",
            ]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().err

    def test_reports_sigma(self, graph_file, tmp_path, capsys):
        out = tmp_path / "r.txt"
        code = main(
            [
                "obfuscate",
                "--input", str(graph_file),
                "--output", str(out),
                "--k", "2",
                "--eps", "0.2",
                "--attempts", "1",
                "--delta", "0.05",
            ]
        )
        assert code == 0
        assert "sigma=" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "c,ladder",
        [("2", (2.0, 3.0, 5.0)), ("3", (3.0, 5.0)), ("5", (5.0,))],
    )
    def test_escalate_c_only_escalates(
        self, graph_file, tmp_path, monkeypatch, c, ladder
    ):
        seen = []

        def fake_fallback(graph, k, eps, *, c_values, **kwargs):
            seen.append(tuple(c_values))
            return ObfuscationResult(
                uncertain=None,
                sigma=float("nan"),
                eps_achieved=float("inf"),
                params=ObfuscationParams(k=k, eps=eps, c=c_values[-1]),
            )

        monkeypatch.setattr("repro.cli.obfuscate_with_fallback", fake_fallback)
        code = main(
            [
                "obfuscate",
                "--input", str(graph_file),
                "--output", str(tmp_path / "x.txt"),
                "--k", "2",
                "--eps", "0.2",
                "--c", c,
                "--escalate-c",
            ]
        )
        assert code == 1
        assert seen == [ladder]

    def test_bad_stream_rejected(self, graph_file, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "obfuscate",
                    "--input", str(graph_file),
                    "--output", str(tmp_path / "x.txt"),
                    "--k", "2",
                    "--eps", "0.2",
                    "--stream", "pair_keyed",
                ]
            )


class TestNumberValidation:
    """Out-of-range numbers are usage errors (exit 2, message on stderr,
    nothing on stdout), caught before any input file is read."""

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--k", "0"),
            ("--k", "nan"),
            ("--eps", "1.5"),
            ("--eps", "nan"),
            ("--c", "0.5"),
            ("--c", "nan"),
            ("--c", "inf"),
            ("--q", "2"),
            ("--attempts", "0"),
            ("--delta", "0"),
            ("--delta", "nan"),
        ],
    )
    def test_obfuscate_rejects_before_reading(self, tmp_path, capsys, option, value):
        code = main(
            [
                "obfuscate",
                "--input", str(tmp_path / "missing.txt"),
                "--output", str(tmp_path / "r.txt"),
                "--k", "2",
                "--eps", "0.1",
                option, value,  # the last occurrence of an option wins
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("obfuscate: ") and option[2:] in err
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize(
        "k,eps", [("3", "1.5"), ("3", "-0.1"), ("0", "0.15"), ("nan", "0.15")]
    )
    def test_verify_rejects_bad_numbers(
        self, graph_file, release_file, capsys, k, eps
    ):
        code = main(
            [
                "verify",
                "--original", str(graph_file),
                "--release", str(release_file),
                "--k", k,
                "--eps", eps,
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("verify: ")


class TestVerify:
    def test_valid_release(self, graph_file, release_file, capsys):
        code = main(
            [
                "verify",
                "--original", str(graph_file),
                "--release", str(release_file),
                "--k", "3",
                "--eps", "0.15",
            ]
        )
        assert code == 0
        assert "IS a" in capsys.readouterr().out

    def test_invalid_release(self, graph_file, release_file, capsys):
        code = main(
            [
                "verify",
                "--original", str(graph_file),
                "--release", str(release_file),
                "--k", "10000",
                "--eps", "0.0",
            ]
        )
        assert code == 2
        assert "NOT" in capsys.readouterr().out


class TestStats:
    def test_prints_all_statistics(self, release_file, capsys):
        code = main(
            ["stats", "--release", str(release_file), "--worlds", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("S_NE", "S_AD", "S_CC", "S_APD"):
            assert name in out

    def test_zero_worlds_rejected(self, release_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--release", str(release_file), "--worlds", "0"])
        assert exc.value.code == 2
        assert "--worlds" in capsys.readouterr().err


class TestSample:
    def test_writes_world(self, release_file, tmp_path):
        out = tmp_path / "world.txt"
        code = main(
            ["sample", "--release", str(release_file), "--output", str(out)]
        )
        assert code == 0
        world = read_edge_list(out)
        assert world.num_edges > 0

    def test_deterministic(self, release_file, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["sample", "--release", str(release_file), "--output", str(a), "--seed", "5"])
        main(["sample", "--release", str(release_file), "--output", str(b), "--seed", "5"])
        assert read_edge_list(a) == read_edge_list(b)


class TestCompare:
    def test_reports_both_schemes(self, graph_file, capsys):
        code = main(
            [
                "compare",
                "--input", str(graph_file),
                "--p", "0.3",
                "--samples", "4",
                "--backend", "exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "original" in out
        assert "sparsification (p=0.3)" in out
        assert "perturbation (p=0.3)" in out
        assert "rel_err" in out

    def test_zero_samples_rejected(self, graph_file, capsys):
        """A mean over zero releases is NaN: a usage error, not a table."""
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--input", str(graph_file), "--p", "0.3", "--samples", "0"])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_calibrates_when_p_missing(self, graph_file, capsys):
        code = main(
            [
                "compare",
                "--input", str(graph_file),
                "--schemes", "sparsification",
                "--k", "2",
                "--eps", "0.1",
                "--samples", "3",
                "--backend", "exact",
            ]
        )
        assert code == 0
        assert "calibrated p=" in capsys.readouterr().out

    def test_requires_p_or_target(self, graph_file, capsys):
        code = main(["compare", "--input", str(graph_file)])
        assert code == 2
        assert "--p" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--release", "r.txt", "--world-backend", "batched"],
            ["compare", "--input", "g.txt", "--p", "0.3", "--baseline-backend", "batched"],
            [
                "obfuscate", "--input", "g.txt", "--output", "r.txt",
                "--k", "2", "--eps", "0.1", "--engine", "array",
            ],
        ],
        ids=["stats", "compare", "obfuscate"],
    )
    def test_engine_selectors_removed(self, argv):
        """One engine per job: the old selector flags are usage errors."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServe:
    def test_requires_release(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_serves_release_over_tcp(self, release_file):
        """Start the server machinery the CLI builds and query it."""
        import asyncio
        import threading

        from repro.serve import ObfuscationServer, QueryEngine, ServeClient
        from repro.uncertain import reliability

        release = read_uncertain_graph(release_file)
        engine = QueryEngine(release, worlds=16, seed=4)
        server = ObfuscationServer(engine, port=0, window_ms=1.0)
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(10)
        try:
            with ServeClient(server.host, server.port) as client:
                value = client.request("reliability", source=0, target=5)
            assert value["value"] == reliability(
                release, 0, 5, worlds=16, seed=4
            )
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
