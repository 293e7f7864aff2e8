"""Shared-memory backing for the wavefront value grid.

The multicore backend (:mod:`repro.runtime.mp_parallel`) needs every worker
process to read and write the *same* grid without serialising tiles over
pipes.  :class:`SharedGridBuffer` places a ``dim x dim`` float64 array in a
POSIX shared-memory segment (:mod:`multiprocessing.shared_memory`) and hands
out zero-copy NumPy views of it:

* the parent **creates** the segment, copies a grid's values in and swaps
  the :class:`repro.core.grid.WavefrontGrid`'s ``values`` array for the
  shared view, so in-process sweeps write straight into shared memory;
* each worker **attaches** by the name its tile tasks carry — tile results
  are never pickled, only tiny tile descriptors travel between processes;
* a segment serves any grid that fits in it (:meth:`SharedGridBuffer.view`),
  which is how one arena sized for the largest grid seen backs every
  request of a :class:`repro.runtime.mp_parallel.WorkerTeam`.

Ownership is explicit: only the creating side may :meth:`unlink` the
segment; attachers merely :meth:`close` their mapping.  Attaching
deliberately opts out of the resource tracker (``track=False`` where
available, unregistering otherwise) so worker exits do not tear down or
double-free a segment the parent still owns.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from repro.core.exceptions import InvalidParameterError


class SharedGridBuffer:
    """A ``dim x dim`` float64 array in shared memory with zero-copy views.

    Use the :meth:`create` / :meth:`attach` constructors rather than
    instantiating directly; the buffer is also a context manager that closes
    (and, for the owner, unlinks) the segment on exit.
    """

    def __init__(self, shm: shared_memory.SharedMemory, dim: int, owner: bool) -> None:
        self._shm = shm
        self._closed = False
        self.dim = int(dim)
        self.owner = bool(owner)
        #: System-wide segment name workers attach by.
        self.name = shm.name

    @classmethod
    def create(cls, dim: int) -> "SharedGridBuffer":
        """Allocate a new zero-initialised shared segment (caller owns it)."""
        if dim < 2:
            raise InvalidParameterError(f"dim must be >= 2, got {dim}")
        # A new POSIX segment reads as zeros.
        shm = shared_memory.SharedMemory(create=True, size=int(dim) * int(dim) * 8)
        return cls(shm, dim, owner=True)

    @classmethod
    def attach(cls, name: str, dim: int) -> "SharedGridBuffer":
        """Map an existing segment by name (non-owning, e.g. in a worker)."""
        try:
            # Python >= 3.13: opt out of the per-process resource tracker.
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            shm = _attach_untracked(name)
        return cls(shm, dim, owner=False)

    def view(self, dim: int) -> np.ndarray:
        """A zero-copy ``(dim, dim)`` view of the segment's first cells.

        Every view must be dropped before :meth:`close`.
        """
        if self._closed:
            raise InvalidParameterError("shared grid buffer is closed")
        if not 2 <= dim <= self.dim:
            raise InvalidParameterError(
                f"no {dim}x{dim} view of a shared grid buffer sized for dim {self.dim}"
            )
        return np.ndarray((dim, dim), dtype=np.float64, buffer=self._shm.buf)

    def close(self) -> None:
        """Drop this process's mapping (views taken from it must be gone)."""
        self._closed = True
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (owner only)."""
        if not self.owner:
            raise InvalidParameterError(
                "only the creating process may unlink a shared grid buffer"
            )
        self._shm.unlink()

    def __enter__(self) -> "SharedGridBuffer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        if self.owner:
            self.unlink()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with the resource tracker.

    On Python < 3.13 attaching always registers, which is wrong for a
    non-owner: the tracker's cache is shared between forked processes, so a
    worker's registration/unregistration pair deletes the *parent's* entry
    (KeyError on unlink), and under spawn a worker's tracker would unlink a
    segment the parent still owns at worker exit.  Suppressing registration
    during construction sidesteps both; the owning side stays registered
    and keeps the crash-cleanup guarantee.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original
