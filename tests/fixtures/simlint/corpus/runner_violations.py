"""SL6 fixtures: worker identity leaking into sweep execution."""

import os
from multiprocessing import current_process

from repro.sim.random import RandomStreams


def identity_reads():
    """SL601: reading the worker's identity inside a kernel."""
    who = os.getpid()
    name = current_process().name
    return who, name


def seeded_from_pid():
    """SL602 (and SL601): folding the pid into an RNG seed."""
    return RandomStreams(os.getpid() * 1000)


def seeded_from_pool_slot(worker_id):
    """SL602: seeding from the pool slot the executor assigned."""
    return RandomStreams(seed=worker_id)


def sanctioned_diagnostic():
    """A reviewed exception, silenced with a reasoned suppression."""
    # simlint: disable=SL601 -- fixture demonstrates a reasoned waiver
    return os.getpid()
