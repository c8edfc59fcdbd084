import numpy as np
import pytest

from repro.cli import main, build_parser
from repro.generators import delaunay_graph
from repro.graph import read_partition, write_metis, write_dimacs


@pytest.fixture
def graph_file(tmp_path, delaunay300):
    path = tmp_path / "g.graph"
    write_metis(delaunay300, path)
    return str(path)


class TestPartitionCommand:
    def test_basic(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "g.part")
        rc = main(["partition", graph_file, "-k", "4",
                   "--preset", "minimal", "-o", out])
        assert rc == 0
        part = read_partition(out)
        assert len(part) == 300
        assert set(np.unique(part)) <= set(range(4))
        text = capsys.readouterr().out
        assert "cut:" in text and "feasible" in text

    def test_default_output_name(self, graph_file, capsys):
        rc = main(["partition", graph_file, "-k", "2",
                   "--preset", "minimal"])
        assert rc == 0
        part = read_partition(graph_file + ".part.2")
        assert len(part) == 300

    @pytest.mark.parametrize("tool", ["metis_like", "scotch_like",
                                      "parmetis_like"])
    def test_baseline_tools(self, graph_file, tmp_path, tool):
        out = str(tmp_path / "g.part")
        rc = main(["partition", graph_file, "-k", "2", "--tool", tool,
                   "-o", out])
        assert rc == 0
        assert len(read_partition(out)) == 300

    def test_cluster_execution(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "g.part")
        rc = main(["partition", graph_file, "-k", "2",
                   "--preset", "minimal", "--execution", "cluster",
                   "-o", out])
        assert rc == 0
        assert "simulated parallel time" in capsys.readouterr().out

    def test_dimacs_input(self, tmp_path):
        g = delaunay_graph(200, seed=2)
        path = tmp_path / "g.dimacs"
        write_dimacs(g, path)
        rc = main(["partition", str(path), "-k", "2", "--preset",
                   "minimal", "--format", "dimacs",
                   "-o", str(tmp_path / "out")])
        assert rc == 0


class TestEvaluateCommand:
    def test_roundtrip(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "g.part")
        main(["partition", graph_file, "-k", "3", "--preset", "minimal",
              "-o", out])
        capsys.readouterr()
        rc = main(["evaluate", graph_file, out, "-k", "3"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "cut:" in text and "block weights:" in text

    def test_infers_k(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "g.part")
        main(["partition", graph_file, "-k", "4", "--preset", "minimal",
              "-o", out])
        capsys.readouterr()
        rc = main(["evaluate", graph_file, out])
        assert rc == 0
        assert "k: 4" in capsys.readouterr().out

    def test_length_mismatch(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.part"
        bad.write_text("0\n1\n")
        rc = main(["evaluate", graph_file, str(bad)])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestGenerateCommand:
    @pytest.mark.parametrize("family", ["rgg", "delaunay", "grid",
                                        "grid3d", "road", "social", "rmat"])
    def test_families(self, tmp_path, family, capsys):
        out = str(tmp_path / "g.graph")
        params = []
        if family in ("rgg", "delaunay", "road", "social"):
            params = ["--param", "n=300"]
        elif family == "grid":
            params = ["--param", "rows=10", "--param", "cols=10"]
        elif family == "grid3d":
            params = ["--param", "nx=5", "--param", "ny=5", "--param", "nz=5"]
        elif family == "rmat":
            params = ["--param", "scale=8"]
        rc = main(["generate", family, *params, "-o", out])
        assert rc == 0
        from repro.graph import read_metis

        g = read_metis(out)
        assert g.n > 0

    def test_bad_param_format(self, tmp_path, capsys):
        rc = main(["generate", "rgg", "--param", "oops",
                   "-o", str(tmp_path / "x")])
        assert rc == 1

    def test_unknown_param(self, tmp_path, capsys):
        rc = main(["generate", "rgg", "--param", "bogus=3",
                   "-o", str(tmp_path / "x")])
        assert rc == 1

    def test_dimacs_output(self, tmp_path):
        out = str(tmp_path / "g.dimacs")
        rc = main(["generate", "grid", "--param", "rows=5",
                   "--param", "cols=5", "--format", "dimacs", "-o", out])
        assert rc == 0
        from repro.graph import read_dimacs

        assert read_dimacs(out).n == 25


class TestInfoCommand:
    def test_stats(self, graph_file, capsys):
        rc = main(["info", graph_file])
        assert rc == 0
        text = capsys.readouterr().out
        assert "nodes: 300" in text
        assert "connected components: 1" in text


class TestParser:
    def test_requires_command(self):
        # the subcommand requirement is enforced in main() so that the
        # observability flags alone can trigger the built-in demo run
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_tool_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "g", "-k", "2",
                                       "--tool", "patoh"])


    def test_retired_threads_engine_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["partition", "g.metis", "-k", "2", "--engine", "threads"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'threads'" in err
        assert "Traceback" not in err

    def test_retired_jit_kernel_backend_is_an_argparse_error(self, capsys):
        # the JIT backend is gone; naming it no longer falls back to numpy
        with pytest.raises(SystemExit) as exc:
            main(["partition", "g.metis", "-k", "2",
                  "--kernel-backend", "numba"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'numba'" in err
        assert "Traceback" not in err


class TestListFlags:
    def test_list_engines(self, capsys):
        rc = main(["--list-engines"])
        assert rc == 0
        text = capsys.readouterr().out
        for name in ("sequential", "sim", "process"):
            assert name in text
        assert "(default)" in text

    def test_every_registered_engine_is_listed(self, capsys):
        # regression: the listing iterates the registry, so adding an
        # engine must never leave it invisible to `--list-engines`
        from repro.engine import ENGINES

        rc = main(["--list-engines"])
        assert rc == 0
        text = capsys.readouterr().out
        for name, cls in ENGINES.items():
            assert name in text, f"engine {name!r} missing from listing"
            doc = (cls.__doc__ or "").strip()
            assert doc, f"engine {name!r} has no docstring to list"
            assert doc.splitlines()[0] in text

    def test_list_kernel_backends(self, capsys):
        rc = main(["--list-kernel-backends"])
        assert rc == 0
        text = capsys.readouterr().out
        listed = [line.split()[0] for line in text.splitlines()[1:]]
        assert listed == ["python", "numpy"]
        assert "(default)" in text

    def test_list_flags_need_no_subcommand(self, capsys):
        # unlike a bare `repro`, `repro --list-engines` must not exit 2
        rc = main(["--list-engines"])
        assert rc == 0


class TestResilienceFlags:
    def test_chaos_run_recovers_and_reports(self, graph_file, tmp_path,
                                            capsys):
        out = str(tmp_path / "g.part")
        rc = main(["partition", graph_file, "-k", "2",
                   "--preset", "minimal", "--engine", "process",
                   "--faults", "pe1:crash@refine:level0",
                   "--checkpoint-dir", str(tmp_path / "ckpts"),
                   "--on-pe-failure", "restart", "--max-restarts", "2",
                   "-o", out])
        assert rc == 0
        text = capsys.readouterr().out
        assert "resilience:" in text
        assert "fault_injected_crashes=1" in text
        assert len(read_partition(out)) == 300

    def test_faults_flag_implies_cluster_execution(self, graph_file,
                                                   tmp_path, capsys):
        # message faults need a wire, so --faults flips the run onto the
        # cluster path even without --execution cluster
        out = str(tmp_path / "g.part")
        rc = main(["partition", graph_file, "-k", "2",
                   "--preset", "minimal", "--engine", "process",
                   "--faults", "delay=100us", "-o", out])
        assert rc == 0
        assert "fault_messages_delayed" in capsys.readouterr().out

    def test_bad_fault_spec_is_a_clean_error(self, graph_file, tmp_path,
                                             capsys):
        with pytest.raises(Exception):
            main(["partition", graph_file, "-k", "2",
                  "--preset", "minimal", "--faults", "explode@initial",
                  "-o", str(tmp_path / "g.part")])


class TestConstraintFlags:
    def test_mapping_objective_reports_cost(self, graph_file, tmp_path,
                                            capsys):
        out = str(tmp_path / "g.part")
        rc = main(["partition", graph_file, "-k", "8",
                   "--preset", "minimal", "--objective", "mapping",
                   "--topology", "2:4", "-o", out])
        assert rc == 0
        assert "mapping cost:" in capsys.readouterr().out

    def test_topology_implies_mapping(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "g.part")
        rc = main(["partition", graph_file, "-k", "8",
                   "--preset", "minimal", "--topology", "2:4", "-o", out])
        assert rc == 0
        assert "mapping cost:" in capsys.readouterr().out

    def test_topology_k_mismatch_is_an_error(self, graph_file, tmp_path):
        with pytest.raises(ValueError, match="leaves"):
            main(["partition", graph_file, "-k", "4",
                  "--preset", "minimal", "--topology", "2:4",
                  "-o", str(tmp_path / "g.part")])

    def test_fixed_vertices_pairs_format(self, graph_file, tmp_path,
                                         capsys):
        pins = tmp_path / "fixed.txt"
        pins.write_text("# vertex block pairs\n0 3\n7 1\n42 0\n")
        out = str(tmp_path / "g.part")
        rc = main(["partition", graph_file, "-k", "4",
                   "--preset", "minimal", "--fixed-vertices", str(pins),
                   "-o", out])
        assert rc == 0
        part = read_partition(out)
        assert part[0] == 3 and part[7] == 1 and part[42] == 0

    def test_fixed_vertices_positional_format(self, graph_file, tmp_path):
        pins = tmp_path / "fixed.txt"
        rows = ["-1"] * 300
        rows[5] = "2"
        pins.write_text("\n".join(rows) + "\n")
        out = str(tmp_path / "g.part")
        rc = main(["partition", graph_file, "-k", "4",
                   "--preset", "minimal", "--fixed-vertices", str(pins),
                   "-o", out])
        assert rc == 0
        assert read_partition(out)[5] == 2

    def test_fixed_vertices_bad_file_is_an_error(self, graph_file,
                                                 tmp_path):
        pins = tmp_path / "fixed.txt"
        pins.write_text("0 1 2\n")  # three fields: neither format
        with pytest.raises(ValueError, match="expected one block id"):
            main(["partition", graph_file, "-k", "4",
                  "--preset", "minimal", "--fixed-vertices", str(pins),
                  "-o", str(tmp_path / "g.part")])

    def test_epsilons_flag_parses(self, graph_file, tmp_path):
        # a c=1 graph with a one-entry epsilons vector: valid and
        # equivalent to --epsilon
        out = str(tmp_path / "g.part")
        rc = main(["partition", graph_file, "-k", "4",
                   "--preset", "minimal", "--epsilons", "0.05", "-o", out])
        assert rc == 0

    def test_bad_epsilons_is_an_error(self, graph_file, tmp_path):
        with pytest.raises(ValueError, match="bad --epsilons"):
            main(["partition", graph_file, "-k", "4",
                  "--preset", "minimal", "--epsilons", "0.05;0.1",
                  "-o", str(tmp_path / "g.part")])

    def test_mapping_preset_selectable(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "g.part")
        rc = main(["partition", graph_file, "-k", "8",
                   "--preset", "mapping", "-o", out])
        assert rc == 0
        assert "mapping cost:" in capsys.readouterr().out
