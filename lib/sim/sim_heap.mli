(** Simulation alphabet over the allocator substrate: {!Heap} plus a
    standalone {!Sparse_mem} with a byte-level model.

    Ports the hand-rolled heap and sparse-memory properties: frees are
    honoured exactly once (double frees rejected), reads round-trip writes
    across chunk boundaries, released chunk storage comes back
    zeroed from the page pool, and the heap's live accounting agrees with
    the model after every operation. *)

val alphabet : unit -> Sim.packed
(** Registered as ["heap"]. *)
