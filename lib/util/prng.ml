(* xoshiro256**.  The four 64-bit state words live unboxed in one 32-byte
   buffer: as [mutable int64] record fields every assignment would box a
   fresh word, four allocations per draw on the sampling path. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The [k]th output of splitmix64 started at [seed], used to expand the
   seed into the four xoshiro words.  Computed in place rather than by
   stepping a shared state, so no word is boxed. *)
let[@inline] splitmix64 seed k =
  let open Int64 in
  let z = add seed (mul (of_int k) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let seed = Int64.of_int seed in
  let s0 = splitmix64 seed 1 in
  let s1 = splitmix64 seed 2 in
  let s2 = splitmix64 seed 3 in
  let s3 = splitmix64 seed 4 in
  (* xoshiro must not start from the all-zero state. *)
  let s3 = if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s3 in
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One generator step, inlined into every draw below so the 64-bit result
   stays unboxed until it becomes an [int], a [float] or a [bool]. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tt = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (logxor s2 tt);
  set t 24 (rotl s3 45);
  result

let bits64 t = next t

(* [n] steps of [next] with the state in registers and without the output
   scrambler, which nothing reads. *)
let advance t n =
  let open Int64 in
  let s0 = ref (get t 0) and s1 = ref (get t 8) and s2 = ref (get t 16) in
  let s3 = ref (get t 24) in
  for _ = 1 to n do
    let tt = shift_left !s1 17 in
    s2 := logxor !s2 !s0;
    s3 := logxor !s3 !s1;
    s1 := logxor !s1 !s2;
    s0 := logxor !s0 !s3;
    s2 := logxor !s2 tt;
    s3 := rotl !s3 45
  done;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3

let split t =
  let seed = Int64.to_int (next t) land max_int in
  create ~seed

let fork t label =
  (* FNV-1a over the label bytes, folded with one draw from [t]: forks with
     distinct labels get unrelated streams, and forking never reuses the
     parent's stream beyond that single draw. *)
  let seed =
    Int64.to_int (Int64.logxor (Fnv.string Fnv.offset label) (next t))
    land max_int
  in
  create ~seed

let copy t = Bytes.copy t

(* Rejection sampling on the low 62 bits to avoid modulo bias. *)
let rec draw_below t bound =
  let r = Int64.to_int (Int64.logand (next t) 0x3FFF_FFFF_FFFF_FFFFL) in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then draw_below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  draw_below t bound

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

(* 53 uniform bits scaled into [0, 1). *)
let[@inline] float t = float_of_int (bits53 t) *. 0x1p-53

let bool t = Int64.logand (next t) 1L = 1L

(* [float] and the generator step are inlined here, so the test allocates
   nothing of its own. *)
let[@inline] below_percent t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let rec canary64 t =
  let v = next t in
  if v = 0L then canary64 t else v
