let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

let string h s =
  let h = ref h in
  String.iter (fun c -> h := byte !h (Char.code c)) s;
  !h
