type t = { mutable cycles : int }

let create () = { cycles = 0 }

let[@inline] advance t n =
  if n < 0 then invalid_arg "Clock.advance: negative cycles";
  t.cycles <- t.cycles + n

let[@inline] forward t n =
  let now = t.cycles + n in
  t.cycles <- now;
  now

let cycles t = t.cycles
let seconds t = float_of_int t.cycles /. float_of_int Cost.cycles_per_second
let reset t = t.cycles <- 0

module Region = struct
  type clock = t
  type nonrec t = { clock : clock; at_start : int }

  let start clock = { clock; at_start = clock.cycles }
  let stop t = t.clock.cycles - t.at_start
end
