(* Int keys are their own hash: [Hashtbl.hash] would call the C [caml_hash]
   on every probe, and the keys these tables hold (descriptors, chunk
   numbers, block granules) are small and mostly consecutive, so the low
   bits already spread them over the buckets. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)
