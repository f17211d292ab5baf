(** Flight recorder: a bounded, always-on ring of compact lifecycle records.

    Where {!Event_sink} streams events out of the process as they happen,
    the flight recorder keeps the {e recent} history in memory — a
    fixed-capacity ring whose oldest records are overwritten, charged
    O(1) per hook — so that when a detection fires (or a bug is missed)
    the object's whole life (alloc → watch → evict → trap → canary → free)
    and its context's probability timeline (decays, halvings, burst
    throttles, revivals, evidence pins) can be reconstructed post-mortem.

    The ring is cheap enough to leave on.  A recorder's slots live in one
    uninitialised [Bytes] block of 64-bit words that the GC never scans:
    creating one costs a single allocation with no fill, and a record is
    a few unboxed stores with no write barrier and no allocation.  Names
    are stored as small codes — a phase as its {!Profiler.index}, a trap's
    access, a detection's source and a fault's point as indices into a
    per-recorder intern table — so no slot holds a pointer.  There is no
    pool of rings to hand back: each execution that is diagnosed gets a
    fresh recorder and is read after {!with_recorder} returns, and
    creation is cheap instead.

    The recorder never draws randomness and never advances the virtual
    clock: installing one cannot change what a simulated execution does,
    only what it can tell you afterwards.  Timestamps ([at]) are virtual
    cycles read by the hook's caller.

    The recorder is the runtime's one lifecycle channel.  When an
    {!Event_sink} is installed, every hook also streams its record as one
    JSONL line, [{"event":<kind>,"seq":…,"at":…,…}], encoded like
    {!record_to_json}; {!records} reads the ring back. *)

(** {1 Records} *)

type prob_cause = Decay | Halve_on_watch | Throttle | Revive | Pin | Degrade

val prob_cause_name : prob_cause -> string

type kind =
  | Alloc of { index : int; addr : int; size : int; ctx : int; site : int; off : int }
      (** [index] is the 1-based global allocation index — the same
          numbering the {!Oracle} uses, so ground truth and recording can
          be correlated even though tool padding shifts addresses. *)
  | Decision of {
      addr : int;
      ctx : int;
      prob : float;
      coin : bool;
      watched : bool;
      startup : bool;
    }
      (** One sampling outcome.  [coin] is the raw flip ([startup] =
          installed due to availability, no coin was flipped); [coin]
          true with [watched] false means the object won the flip but no
          watchpoint slot yielded to it. *)
  | Watch of { addr : int; ctx : int }  (** watchpoint installed *)
  | Replace of { victim : int; victim_ctx : int; by : int; by_ctx : int }
      (** policy preemption: [victim] lost its watchpoint to [by] *)
  | Unwatch_free of { addr : int }  (** watchpoint removed because freed *)
  | Free of { addr : int }
  | Trap of { addr : int; access : string; tid : int }  (** ["read"]/["write"] *)
  | Canary_check of { addr : int; ok : bool }
  | Detection of { addr : int; ctx : int; source : string }
  | Prob of { ctx : int; cause : prob_cause; from_p : float; to_p : float }
      (** a context's sampling probability changed *)
  | Phase of { phase : string; start : int; stop : int }
      (** one outermost profiler-phase interval, in cycles *)
  | Fault of { point : string }
      (** an injected fault fired at this point (see {!Fault_plan}) *)

type record = { seq : int; at : int; kind : kind }
(** [seq] is the global emission number (monotonic even across ring
    overwrites); [at] the virtual-clock cycle count when recorded. *)

(** {1 The recorder} *)

type t

val default_capacity : int
(** 65,536 records. *)

val max_capacity : int
(** The largest capacity {!create} accepts: 2{^24} records, a 1 GiB ring.
    A bound on what one process may ask for, not a tuning knob. *)

val create : ?capacity:int -> unit -> t
(** A fresh recorder holding at most [capacity] (default
    {!default_capacity}) records.  Raises [Invalid_argument] unless
    [0 < capacity <= max_capacity]. *)

val capacity : t -> int
val records : t -> record list
(** Oldest-first contents of the ring. *)

val recorded : t -> int
(** Records ever emitted, including overwritten ones. *)

val dropped : t -> int
(** Records lost to ring overwrites ([recorded - dropped] <= capacity). *)

val alloc_count : t -> int
val detection_count : t -> int

val record_to_json : record -> Obs_json.t
(** [{"kind":<kind>,"seq":…,"at":…,…}]: the streamed line's fields, with
    the kind under ["kind"] instead of ["event"]. *)

(** {1 The process-global recorder} *)

val install : t -> unit
val uninstall : unit -> unit
val active : unit -> bool
val with_recorder : t -> (unit -> 'a) -> 'a
(** Install [t] for the duration of the callback, restoring the previous
    recorder afterwards. *)

(** {1 Hooks}

    Each is a no-op costing one branch when no recorder is installed, and
    streams its record to the installed {!Event_sink} when there is one.
    With no sink, a hook allocates nothing once its names are interned.
    Hot-path callers should check {!active} before computing arguments. *)

val alloc : at:int -> addr:int -> size:int -> ctx:int -> site:int -> off:int -> unit
val decision :
  at:int -> addr:int -> ctx:int -> prob:float -> coin:bool -> watched:bool ->
  startup:bool -> unit
val watch : at:int -> addr:int -> ctx:int -> unit
val replace : at:int -> victim:int -> victim_ctx:int -> by:int -> by_ctx:int -> unit
val unwatch_free : at:int -> addr:int -> unit
val free : at:int -> addr:int -> unit
val trap : at:int -> addr:int -> access:string -> tid:int -> unit
val canary_check : at:int -> addr:int -> ok:bool -> unit
val detection : at:int -> addr:int -> ctx:int -> source:string -> unit

val prob : at:int -> ctx:int -> cause:prob_cause -> from_p:float -> to_p:float -> unit
val phase : phase:Profiler.phase -> start:int -> stop:int -> unit
(** Its record carries [Profiler.name phase], and [at = stop]. *)

val fault : at:int -> point:string -> unit
