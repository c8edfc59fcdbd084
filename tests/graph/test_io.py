import io

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph import (
    read_dimacs,
    read_metis,
    read_partition,
    write_dimacs,
    write_metis,
    write_partition,
    from_edge_list,
)
from tests.conftest import random_graphs


def strip_coords(g):
    from repro.graph import Graph

    return Graph(g.xadj, g.adjncy, g.adjwgt, g.vwgt, validate=False)


def roundtrip_metis(g):
    buf = io.StringIO()
    write_metis(g, buf)
    buf.seek(0)
    return read_metis(buf)


def roundtrip_dimacs(g):
    buf = io.StringIO()
    write_dimacs(g, buf)
    buf.seek(0)
    return read_dimacs(buf)


class TestMetis:
    def test_unweighted_roundtrip(self, grid8):
        assert roundtrip_metis(grid8) == strip_coords(grid8)

    def test_weighted_roundtrip(self):
        g = from_edge_list(
            4, [(0, 1), (1, 2), (2, 3)], weights=[2.0, 3.0, 4.0], vwgt=[1, 2, 3, 4]
        )
        assert roundtrip_metis(g) == g

    def test_edge_weights_only(self, weighted_path):
        assert roundtrip_metis(weighted_path) == weighted_path

    def test_header_flags(self, grid8):
        buf = io.StringIO()
        write_metis(grid8, buf)
        header = buf.getvalue().splitlines()[0]
        assert header == f"{grid8.n} {grid8.m}"

    @pytest.mark.parametrize("fmt,body,vwgt,ewgt", [
        ("0", "2\n1\n", [1, 1], 1.0),
        ("00", "2\n1\n", [1, 1], 1.0),
        ("001", "2 4\n1 4\n", [1, 1], 4.0),
        ("1", "2 4\n1 4\n", [1, 1], 4.0),
        ("010", "5 2\n7 1\n", [5, 7], 1.0),
        ("10", "5 2\n7 1\n", [5, 7], 1.0),
        ("011", "5 2 4\n7 1 4\n", [5, 7], 4.0),
        ("11", "5 2 4\n7 1 4\n", [5, 7], 4.0),
    ])
    def test_fmt_codes_right_aligned(self, fmt, body, vwgt, ewgt):
        g = read_metis(io.StringIO(f"2 1 {fmt}\n{body}"))
        assert g.vwgt.tolist() == vwgt
        assert g.edge_weight(0, 1) == ewgt

    @pytest.mark.parametrize("fmt", ["100", "101", "110", "111"])
    def test_vertex_sizes_rejected(self, fmt):
        with pytest.raises(ValueError, match=r"^line 1: .*vertex sizes"):
            read_metis(io.StringIO(f"2 1 {fmt}\n5 2\n7 1\n"))

    @pytest.mark.parametrize("fmt", ["abc", "2", "012", "0001", "-1", "1e1"])
    def test_non_binary_fmt_rejected(self, fmt):
        with pytest.raises(ValueError, match=r"^line 2: .*fmt"):
            read_metis(io.StringIO(f"% c\n2 1 {fmt}\n2\n1\n"))

    def test_comment_lines_skipped(self):
        text = "% a comment\n3 2\n2\n1 3\n2\n"
        g = read_metis(io.StringIO(text))
        assert g.n == 3 and g.m == 2

    def test_edge_count_mismatch_rejected(self):
        text = "3 5\n2\n1 3\n2\n"
        with pytest.raises(ValueError):
            read_metis(io.StringIO(text))

    def test_file_paths(self, tmp_path, two_triangles):
        p = tmp_path / "g.graph"
        write_metis(two_triangles, p)
        assert read_metis(p) == two_triangles

    def test_multiconstraint_rejected(self):
        text = "2 1 11 2\n1 1 2 5\n1 1 1 5\n"
        with pytest.raises(ValueError):
            read_metis(io.StringIO(text))


class TestMetisValidation:
    """Malformed adjacency is rejected with the offending file line."""

    def read(self, text):
        return read_metis(io.StringIO(text))

    def test_neighbour_id_zero_rejected(self):
        with pytest.raises(ValueError, match=r"line 2: neighbour id 0"):
            self.read("3 2\n0 2\n1 3\n2\n")

    def test_neighbour_id_above_n_rejected(self):
        with pytest.raises(ValueError, match=r"line 4: neighbour id 4"):
            self.read("3 2\n2\n1 3\n2 4\n")

    def test_one_sided_adjacency_rejected(self):
        with pytest.raises(ValueError, match=r"line 2: arc 1 -> 2 has no "
                                             r"reverse"):
            self.read("3 2\n2 3\n\n\n")

    def test_reverse_without_forward_rejected(self):
        with pytest.raises(ValueError, match=r"line 3: arc 2 -> 1 has no "
                                             r"reverse"):
            self.read("2 1\n\n1\n")

    def test_asymmetric_weights_rejected(self):
        with pytest.raises(ValueError, match=r"line 3: arc 2 -> 1 has "
                                             r"weight 4.0"):
            self.read("2 1 1\n2 3\n1 4\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_edge_weight_rejected(self, bad):
        with pytest.raises(ValueError, match=r"line 2: non-finite edge"):
            self.read(f"2 1 1\n2 {bad}\n1 {bad}\n")

    def test_non_finite_node_weight_rejected(self):
        with pytest.raises(ValueError, match=r"line 3: non-finite node"):
            self.read("2 1 10\n1 2\nnan 1\n")

    def test_missing_edge_weight_rejected(self):
        with pytest.raises(ValueError, match=r"line 2: neighbour 2 has no "
                                             r"edge weight"):
            self.read("2 1 1\n2\n1 1\n")

    def test_line_numbers_count_comments(self):
        with pytest.raises(ValueError, match=r"line 4: neighbour id 9"):
            self.read("% comment\n3 2\n2\n1 9\n2\n")

    def test_negative_node_weight_rejected(self):
        with pytest.raises(ValueError, match=r"non-negative"):
            self.read("2 1 10\n-1 2\n1 1\n")

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_edge_weight_rejected(self, bad):
        with pytest.raises(ValueError, match=r"edge weights must be "
                                             r"positive"):
            self.read(f"2 1 1\n2 {bad}\n1 {bad}\n")

    def test_header_alone_cannot_claim_millions_of_nodes(self):
        # only stripped trailing blank lines (plus one final line without
        # a newline) are padded back, so the header's n is checked
        # before anything of size n is allocated
        with pytest.raises(ValueError, match=r"expected 2000000 node "
                                             r"lines, found 0"):
            self.read("2000000 0\n")
        with pytest.raises(ValueError, match=r"expected 3 node lines, "
                                             r"found 0"):
            self.read("3 0\n\n")

    @pytest.mark.parametrize("text", ["1 0\n", "3 0\n\n\n", "3 1\n2\n1\n"])
    def test_trailing_isolated_nodes_still_read(self, text):
        assert self.read(text).n == int(text.split()[0])

    def test_symmetric_file_still_reads(self):
        g = self.read("% c\n3 2 11\n1 2 5\n2 1 5 3 7\n3 2 7\n")
        assert (g.n, g.m) == (3, 2)
        assert g.incident_weights(1).tolist() == [5.0, 7.0]


class TestDimacs:
    def test_roundtrip(self, two_triangles):
        assert roundtrip_dimacs(two_triangles) == two_triangles

    def test_comment_included(self, triangle):
        buf = io.StringIO()
        write_dimacs(triangle, buf, comment="hello\nworld")
        assert buf.getvalue().startswith("c hello\nc world\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            read_dimacs(io.StringIO("e 1 2\n"))

    def test_default_weight_one(self):
        g = read_dimacs(io.StringIO("p edge 2 1\ne 1 2\n"))
        assert g.edge_weight(0, 1) == 1.0


@pytest.mark.parametrize("reader,text,line", [
    (read_metis, "3\n2\n1 3\n2\n", 1),                # header of one field
    (read_metis, "% c\n2 1\n2\nx\n", 4),             # neighbour id not a number
    (read_dimacs, "p edge\n", 1),                       # header without n
    (read_dimacs, "p edge 2 1\ne 2\n", 2),              # edge of one endpoint
    (read_dimacs, "p edge 2 1\ne 999999999999999999999 1\n", 2),
    (read_dimacs, "p edge 2 1\ne 1 2 abc\n", 2),        # weight not a number
    (read_dimacs, "c x\np edge 99999999999 0\n", 2),   # header alone, huge n
])
def test_malformed_file_names_its_line(reader, text, line):
    """Malformed files raise ``ValueError`` naming the file line, never
    an ``IndexError`` or ``OverflowError``."""
    with pytest.raises(ValueError, match=rf"^line {line}: "):
        reader(io.StringIO(text))


class TestPartitionIO:
    def test_roundtrip(self, tmp_path):
        part = np.array([0, 1, 1, 0, 2], dtype=np.int64)
        p = tmp_path / "part.txt"
        write_partition(part, p)
        assert np.array_equal(read_partition(p), part)


class TestPropertyRoundtrip:
    @given(random_graphs(max_n=16))
    @settings(max_examples=20, deadline=None)
    def test_metis_roundtrip_random(self, g):
        assert roundtrip_metis(g) == g

    @given(random_graphs(max_n=16, weighted=False))
    @settings(max_examples=20, deadline=None)
    def test_dimacs_roundtrip_random(self, g):
        assert roundtrip_dimacs(g) == g
