type t =
  [ `Null
  | `Bool of bool
  | `Int of int
  | `Float of float
  | `String of string
  | `List of t list
  | `Assoc of (string * t) list ]

(* [s] as a quoted JSON string, escaped straight into [buf]: runs of
   plain bytes are copied whole. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  String.iteri
    (fun i c ->
      if c = '"' || c = '\\' || Char.code c < 0x20 then begin
        Buffer.add_substring buf s !run (i - !run);
        run := i + 1;
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      end)
    s;
  Buffer.add_substring buf s !run (String.length s - !run);
  Buffer.add_char buf '"'

(* Digit by digit, most significant first: no intermediate string and no
   shared scratch bytes, so concurrent writers into distinct buffers
   cannot interfere. *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let rec write buf (v : t) =
  match v with
  | `Null -> Buffer.add_string buf "null"
  | `Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | `Int n when n >= 0 -> add_nat buf n
  | `Int n -> Buffer.add_string buf (string_of_int n)
  | `Float f ->
    if Float.is_finite f then
      (* %.12g round-trips every value the harness produces and never
         prints a bare "1." (invalid JSON): "1" and "1e-05" are valid. *)
      Buffer.add_string buf (Printf.sprintf "%.12g" f)
    else Buffer.add_string buf "null"
  | `String s -> add_quoted buf s
  | `List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | `Assoc fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        add_quoted buf k;
        Buffer.add_char buf ':';
        write buf item)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---- parsing ----

   Recursive descent over the grammar {!to_string} emits (which is all of
   JSON).  Numbers keep their printed shape: an integral token with no
   fraction or exponent parses as [`Int], so emitted documents round-trip
   to equal values. *)

exception Parse_error of string * int

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
          incr pos;
          Buffer.contents buf
        | '\\' ->
          incr pos;
          if !pos >= n then fail "truncated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; incr pos
          | '\\' -> Buffer.add_char buf '\\'; incr pos
          | '/' -> Buffer.add_char buf '/'; incr pos
          | 'b' -> Buffer.add_char buf '\b'; incr pos
          | 'f' -> Buffer.add_char buf '\012'; incr pos
          | 'n' -> Buffer.add_char buf '\n'; incr pos
          | 'r' -> Buffer.add_char buf '\r'; incr pos
          | 't' -> Buffer.add_char buf '\t'; incr pos
          | 'u' ->
            if !pos + 4 >= n then fail "truncated \\u escape";
            (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
            | Some code ->
              add_utf8 buf code;
              pos := !pos + 5
            | None -> fail "bad \\u escape")
          | _ -> fail "unknown escape");
          go ()
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ()
  in
  let parse_number () : t =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
         | _ -> false)
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    let floaty =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok
    in
    (* JSON has no non-finite literals, and an overflowing exponent
       ("1e999") must not smuggle one in via float_of_string. *)
    let finite f =
      if Float.is_finite f then `Float f else fail "non-finite number"
    in
    if floaty then
      match float_of_string_opt tok with
      | Some f -> finite f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> `Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> finite f
        | None -> fail "bad number")
  in
  let rec parse_value () : t =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        `Assoc []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ()
          | Some '}' -> incr pos
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        `Assoc (List.rev !fields)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        `List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements ()
          | Some ']' -> incr pos
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        `List (List.rev !items)
      end
    | Some '"' -> `String (parse_string ())
    | Some 't' -> lit "true" (`Bool true)
    | Some 'f' -> lit "false" (`Bool false)
    | Some 'n' -> lit "null" `Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, p) ->
    Error (Printf.sprintf "%s at offset %d" msg p)

(* ---- accessors for stream consumers ---- *)

let member key = function
  | `Assoc fields -> List.assoc_opt key fields
  | _ -> None

(* [int_of_float] outside the int range is unspecified (it fabricates 0 on
   x86-64), so only integral floats in [-2^62, 2^62) convert. *)
let to_int = function
  | `Int i -> Some i
  | `Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
    Some (int_of_float f)
  | _ -> None

let to_float = function
  | `Float f -> Some f
  | `Int i -> Some (float_of_int i)
  | _ -> None

let all f l =
  let parsed = List.filter_map f l in
  if List.length parsed = List.length l then Some parsed else None

let counts = function
  | `Assoc kvs ->
    all (function k, `Int n -> Some (k, n) | _ -> None) kvs
  | _ -> None
