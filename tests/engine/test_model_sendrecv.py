"""``Comm.model_sendrecv``: a point-to-point exchange charged, not sent.

On the sim engine it moves every clock exactly as a real ``sendrecv``
of the same payload followed by ``compute`` does, yet books no byte or
message and leaves no comm-matrix cell or causal record.  Engines
without a cost model never evaluate the cost."""

import numpy as np
import pytest

from repro.engine import get_engine
from repro.observability.recorder import PeRecorder
from repro.parallel.costmodel import payload_nbytes

PAYLOAD = (np.arange(500, dtype=np.int64), np.ones(37))
WORK = 1234.0


def exchange_program(comm, modelled):
    comm.attach_obs(PeRecorder(comm.rank))
    comm.compute(1000.0 * (comm.rank + 1))  # skewed clocks must sync
    peer = comm.rank ^ 1
    for tag in (100, 101):
        if modelled:
            comm.model_sendrecv(
                peer, tag, lambda: (WORK, payload_nbytes(PAYLOAD)))
        else:
            comm.sendrecv(PAYLOAD, peer, tag=tag)
            comm.compute(WORK)
    # a pair both of whose blocks live here: only the compute is charged
    if modelled:
        comm.model_sendrecv(comm.rank, 102, lambda: (WORK, 10**6))
    else:
        comm.compute(WORK)
    return comm.obs.export()


def never_priced_program(comm):
    def cost():
        raise AssertionError("an engine without a cost model priced it")

    comm.model_sendrecv(comm.rank ^ 1, 100, cost)
    return comm.rank


def test_sim_clocks_match_a_real_exchange():
    real = get_engine("sim", 4).run(exchange_program, False)
    modelled = get_engine("sim", 4).run(exchange_program, True)
    assert real.bytes_sent > 0 and real.messages_sent == 8
    assert modelled.clocks == real.clocks
    assert modelled.makespan == real.makespan


def test_sim_books_and_records_nothing():
    run = get_engine("sim", 4).run(exchange_program, True)
    assert run.bytes_sent == 0 and run.messages_sent == 0
    for doc in run.results:
        assert doc["comm"] == [] and doc["events"] == []


@pytest.mark.parametrize("engine", ["sequential", "process"])
def test_no_cost_model_never_prices(engine):
    run = get_engine(engine, 2).run(never_priced_program)
    assert run.results == [0, 1]
    assert run.bytes_sent == 0 and run.messages_sent == 0
