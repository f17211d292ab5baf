(** Metrics registry: named monotonic counters, gauges and fixed-bucket
    histograms.

    Every instrument name is interned once, into a process-wide schema
    that gives it a dense id per kind: subsystems define their {!key}s at
    module initialisation.  A registry is an array per kind indexed by
    that id, so looking an instrument up by key, merging registries and
    resolving gauges never hash a name.  Instrumented subsystems still
    look their instruments up {e once} (at construction time) and then
    increment through the returned handle — a single mutable-field
    update.  The registry never touches the PRNG or the virtual clock, so
    enabling or exporting telemetry cannot perturb a simulated execution. *)

type t
(** A registry.  Each {!Machine.t} owns one (via its telemetry bundle), so
    concurrent simulations in one process never share instruments. *)

val create : unit -> t
(** An empty registry: it defines no instrument until one is looked up. *)

(** {1 Keys} *)

type 'kind key
(** An instrument name interned in the process-wide schema, for
    instruments of type ['kind]. *)

val key_id : _ key -> int
(** Dense per kind, in interning order: [0, 1, ...].  Stable for the life
    of the process, not across processes. *)

(** {1 Counters} *)

type counter

val counter_key : string -> counter key
(** Intern a counter name (find-or-create; safe from any domain).  Call
    it once, at module initialisation, for an instrument a subsystem
    updates on every execution. *)

val counter : t -> counter key -> counter
(** Find-or-create by key: an array index. *)

val find_count : t -> counter key -> int option
(** The count of the counter [t] defines under that key, if any.  Unlike
    {!counter} it defines nothing, so reading a counter an execution never
    touched does not list it, at zero, in the registry's output. *)

val counter_named : t -> string -> counter
(** [counter t (counter_key name)]: for ad-hoc names. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on negative increments: counters are
    monotonic. *)

val count : counter -> int

(** {1 Gauges} *)

type gauge

val gauge_key : string -> gauge key
val gauge : t -> gauge key -> gauge
val gauge_named : t -> string -> gauge
val set : gauge -> int -> unit
val level : gauge -> int
val high_watermark : gauge -> int
(** Largest value ever set. *)

(** {1 Histograms} *)

type histogram

val default_bounds : int array
(** Powers-of-two-ish byte sizes, 16 .. 65536. *)

val histogram_key : string -> histogram key

val histogram : t -> ?bounds:int array -> histogram key -> histogram
(** Fixed upper-bound buckets plus a final overflow bucket.  [bounds] must
    be strictly increasing; it is only consulted on first creation. *)

val histogram_named : t -> ?bounds:int array -> string -> histogram

val observe : histogram -> int -> unit
(** A value [v] lands in the first bucket with bound [>= v].  On
    {!default_bounds} a value in [\[0, 4096\]] is looked up in a table
    built once and shared by every such histogram; other values, and
    other bounds, binary-search. *)

val percentile : histogram -> float -> int
(** [percentile h q] (with [q] in [\[0, 1\]]) returns the upper bound of
    the bucket containing the [q]-th observation — the resolution a
    fixed-bucket histogram affords.  Values landing in the final
    (unbounded) bucket saturate to the largest finite bound; an empty
    histogram reports [0].  Raises [Invalid_argument] outside [\[0, 1\]]. *)

val observations : histogram -> int
val hist_sum : histogram -> int
val bucket_counts : histogram -> int array
(** Length [Array.length bounds + 1]. *)

val bucket_bounds : histogram -> int array

(** {1 Merging}

    Fleet-level aggregation: fold many per-execution registries into one.
    Counters sum; histogram bins, observation counts and sums add (so
    post-merge percentiles are recomputed over the union); a gauge's level
    is taken from the registry merged {e last} (the caller merges in seed
    order to keep this deterministic) and its high watermark is the max.
    Instruments missing from the destination are created. *)

val merge_into : dst:t -> src:t -> unit
(** Id by id, hashing no name.  [src] is untouched.  Raises [Invalid_argument] if the two registries
    define the same histogram with different bucket bounds. *)

(** {1 Export} *)

val counters_list : t -> (string * int) list
(** Sorted by name. *)

val gauges_list : t -> (string * int * int) list
(** [(name, value, high-watermark)], sorted by name. *)

val histograms_list : t -> histogram list
(** Sorted by name. *)

val to_json : t -> Obs_json.t
