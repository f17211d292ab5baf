(** The AddressSanitizer baseline (paper, Sections V and VII).

    A model of ASan's heap checking, faithful in the three properties the
    paper's comparison rests on:

    - {b per-access cost}: every access compiled inside an {e instrumented}
      module performs a shadow check ({!Cost.shadow_check}) whether or not
      anything is wrong — the source of ASan's ~39% overhead;
    - {b instrumentation boundary}: accesses from uninstrumented modules
      (prebuilt libraries) are never checked, which is why ASan misses the
      Libtiff, LibHX, and Zziplib bugs when those libraries are not
      recompiled — its interposed allocator still pads every object, but
      nothing inspects the shadow on the library's accesses;
    - {b redzone geometry}: objects are flanked by poisoned redzones
      (16 bytes minimum, larger by default), so overflows are caught only
      while they land inside a redzone.

    Detections are recorded rather than aborting the process, so one
    execution can be compared like-for-like with CSOD's. *)

type detection = {
  kind : Tool.access_kind;
  addr : int;
  site : int;      (** code address of the offending access *)
  at_sec : float;
}

type t

val create :
  ?redzone:int ->
  ?quarantine_budget:int ->
  ?instrumented:(int -> bool) ->
  ?respond:Respond.t ->
  machine:Machine.t ->
  heap:Heap.t ->
  unit ->
  t
(** [redzone] is the per-side redzone width (default 16, the paper's
    "minimal size"; real ASan defaults are larger — the Figure 7 "ASan"
    series uses 128).  [quarantine_budget] bounds the bytes retained by
    the deallocation quarantine (default 96 KiB).  [instrumented] decides,
    from a code address, whether the access was compiled with
    instrumentation (default: everything).  [respond] (built by
    {!Respond.create} on the same machine) in oblivious mode redirects each
    access whose shadow check fails: since the check runs
    before the machine access, the redirect is armed ahead of the
    load/store it compensates.

    When the machine's memory is released ({!Sparse_mem.release}) the
    registry goes to a domain-local spare for the next instance and the
    shadow's pages to the page pool; the released instance stays usable
    with an empty registry and an all-addressable shadow. *)

val tool : t -> Tool.t
val detections : t -> detection list
val detected : t -> bool

val extra_resident_bytes : t -> int
(** Shadow granules + quarantine holdings, for Table V. *)
