"""Tests for the simulated MPI world, decomposition, and cost model."""

import numpy as np
import pytest

from repro.mpi.comm import World, allreduce
from repro.mpi.costmodel import INTERCONNECTS, CommCostModel, LinkSpec
from repro.mpi.decomposition import CartDecomposition, balanced_dims


class TestPointToPoint:
    def test_send_recv_array(self):
        w = World(2)
        data = np.arange(5)
        w.comm(0).send(data, dest=1, tag=7)
        got = w.comm(1).recv(source=0, tag=7)
        assert np.array_equal(got, data)

    def test_send_copies_buffers(self):
        w = World(2)
        data = np.zeros(3)
        w.comm(0).send(data, dest=1)
        data[:] = 9
        assert np.all(w.comm(1).recv(source=0) == 0)

    def test_isend_irecv_wait(self):
        w = World(2)
        w.comm(0).isend({"a": 1}, dest=1, tag=3)
        req = w.comm(1).irecv(source=0, tag=3)
        assert req.test()
        assert req.wait() == {"a": 1}

    def test_irecv_before_send(self):
        w = World(2)
        req = w.comm(1).irecv(source=0, tag=1)
        assert not req.test()
        w.comm(0).isend("hello", dest=1, tag=1)
        assert req.wait() == "hello"

    def test_unmatched_recv_raises(self):
        w = World(2)
        with pytest.raises(RuntimeError, match="phase ordering"):
            w.comm(1).recv(source=0, tag=9)

    def test_unmatched_wait_raises(self):
        w = World(2)
        req = w.comm(1).irecv(source=0, tag=9)
        with pytest.raises(RuntimeError):
            req.wait()

    def test_tag_and_source_matching(self):
        w = World(3)
        w.comm(0).send("a", dest=2, tag=1)
        w.comm(1).send("b", dest=2, tag=1)
        assert w.comm(2).recv(source=1, tag=1) == "b"
        assert w.comm(2).recv(source=0, tag=1) == "a"

    def test_fifo_per_channel(self):
        w = World(2)
        w.comm(0).send("first", dest=1, tag=0)
        w.comm(0).send("second", dest=1, tag=0)
        assert w.comm(1).recv(source=0) == "first"
        assert w.comm(1).recv(source=0) == "second"

    def test_bad_dest_rejected(self):
        w = World(2)
        with pytest.raises(ValueError):
            w.comm(0).send("x", dest=5)


class TestMessageLog:
    def test_counts_and_bytes(self):
        w = World(2)
        w.comm(0).send(np.zeros(100, dtype=np.float64), dest=1)
        assert w.log.count == 1
        assert w.log.total_bytes == 800

    def test_dict_payload_bytes(self):
        w = World(2)
        w.comm(0).send({"a": np.zeros(10, np.float32)}, dest=1)
        assert w.log.total_bytes == 40

    def test_per_rank(self):
        w = World(3)
        w.comm(1).send(np.zeros(4, np.float64), dest=0)
        per = w.log.per_rank_bytes(3)
        assert per[1] == 32 and per[0] == 0

    def test_clear(self):
        w = World(2)
        w.comm(0).send("x", dest=1)
        w.log.clear()
        assert w.log.count == 0


class TestCollectives:
    def test_allreduce_sum(self):
        w = World(4)
        assert allreduce(w, [1, 2, 3, 4]) == 10

    def test_allreduce_arrays(self):
        w = World(2)
        out = allreduce(w, [np.ones(3), 2 * np.ones(3)])
        assert np.array_equal(out, [3, 3, 3])

    def test_allreduce_minmax(self):
        w = World(3)
        assert allreduce(w, [5, 1, 3], op="min") == 1
        assert allreduce(w, [5, 1, 3], op="max") == 5

    def test_allreduce_wrong_count(self):
        with pytest.raises(ValueError):
            allreduce(World(3), [1, 2])

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            allreduce(World(2), [1, 2], op="xor")


class TestBalancedDims:
    @pytest.mark.parametrize("n,expect", [
        (1, (1, 1, 1)), (2, (2, 1, 1)), (4, (2, 2, 1)), (8, (2, 2, 2)),
        (12, (3, 2, 2)), (64, (4, 4, 4)), (512, (8, 8, 8)),
    ])
    def test_known_factorizations(self, n, expect):
        assert balanced_dims(n) == expect

    def test_product_is_n(self):
        for n in range(1, 200):
            d = balanced_dims(n)
            assert d[0] * d[1] * d[2] == n

    def test_near_cubic(self):
        d = balanced_dims(1000)
        assert d == (10, 10, 10)


class TestCartDecomposition:
    def test_create_and_shapes(self):
        d = CartDecomposition.create(32, 16, 16, 8)
        assert d.n_ranks == 8
        lx, ly, lz = d.local_shape
        assert lx * d.dims[0] == 32

    def test_rank_coord_roundtrip(self):
        d = CartDecomposition(8, 8, 8, (2, 2, 2))
        for r in range(8):
            assert d.rank_of(*d.coords_of(r)) == r

    def test_neighbors_periodic(self):
        d = CartDecomposition(8, 8, 8, (2, 2, 2))
        nbrs = d.neighbors(0)
        assert len(nbrs) == 6
        # In a 2^3 torus every direction wraps to the same partner.
        assert nbrs[0] == nbrs[1]

    def test_neighbors_are_symmetric(self):
        d = CartDecomposition(12, 12, 12, (3, 2, 2))
        for r in range(d.n_ranks):
            for face, nbr in enumerate(d.neighbors(r)):
                assert r in d.neighbors(nbr)

    def test_local_origin(self):
        d = CartDecomposition(8, 8, 8, (2, 2, 2))
        assert d.local_origin(0) == (0, 0, 0)
        last = d.n_ranks - 1
        assert d.local_origin(last, 0.5, 0.5, 0.5) == (2.0, 2.0, 2.0)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            CartDecomposition(10, 8, 8, (4, 2, 1))

    def test_bad_rank(self):
        d = CartDecomposition(8, 8, 8, (2, 2, 2))
        with pytest.raises(ValueError):
            d.coords_of(8)


class TestCostModel:
    def test_link_message_time(self):
        link = LinkSpec("test", 1e-6, 1e9)
        assert link.message_time(1000) == pytest.approx(2e-6)

    def test_catalogue_has_evaluation_links(self):
        for name in ("nvlink2", "nvlink3", "ib_edr", "slingshot11"):
            assert name in INTERCONNECTS

    def test_intra_vs_inter_node(self):
        m = CommCostModel(INTERCONNECTS["nvlink3"],
                          INTERCONNECTS["ib_hdr8"], gpus_per_node=8)
        assert m.neighbor_link(0, 7).name == "nvlink3"
        assert m.neighbor_link(0, 8).name == "ib_hdr8"

    def test_exchange_time_monotone_in_bytes(self):
        m = CommCostModel(INTERCONNECTS["nvlink2"],
                          INTERCONNECTS["ib_edr"], gpus_per_node=4)
        t1 = m.exchange_time(1e4, 6, 0.5)
        t2 = m.exchange_time(1e6, 6, 0.5)
        assert t2 > t1

    def test_internode_fraction_raises_cost(self):
        m = CommCostModel(INTERCONNECTS["nvlink3"],
                          INTERCONNECTS["ib_edr"], gpus_per_node=8)
        assert m.exchange_time(1e6, 6, 1.0) > m.exchange_time(1e6, 6, 0.0)

    def test_price_log(self):
        w = World(2)
        w.comm(0).send(np.zeros(1000, np.float64), dest=1)
        m = CommCostModel(INTERCONNECTS["nvlink2"],
                          INTERCONNECTS["ib_edr"], gpus_per_node=2)
        assert m.price_log(w.log, 2) > 0

    def test_fraction_bounds(self):
        m = CommCostModel(INTERCONNECTS["nvlink2"],
                          INTERCONNECTS["ib_edr"], gpus_per_node=4)
        with pytest.raises(ValueError):
            m.exchange_time(100, 6, 1.5)
