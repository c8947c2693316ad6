"""A user-level-thread (ULT) runtime modeled on Argobots, as Margo uses it.

Argobots provides lightweight threads (ULTs) scheduled over execution
streams (xstreams), with work queued in pools.  Mochi maps each provider
to a pool so that the CPU resources executing an RPC are decoupled from
the data resources the RPC acts on (paper section II-B).

That mapping is all the service uses, so that is all this package keeps:
a ULT is a run-to-completion task (a function, its arguments and one
done callback) pushed to its provider's FIFO :class:`Pool`; M ULTs run
over N :class:`ExecutionStream` s; an :class:`Eventual` carries an
answer back.  Execution streams are driven

- *inline*: a :class:`Runtime` steps all xstreams deterministically from
  the caller's thread (the default; fully reproducible), or
- *threaded*: each xstream runs its scheduler loop on an OS thread,
  parking on a raw lock while its pools are empty.
"""

from repro.argobots.runtime import Runtime, ExecutionStream, Pool, ULT
from repro.argobots.sync import Eventual

__all__ = ["Runtime", "ExecutionStream", "Pool", "ULT", "Eventual"]
